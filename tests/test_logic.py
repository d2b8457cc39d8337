import inspect
import itertools
import pathlib
import random
import sys

import pytest

from autoseq import analyses, automata, logic, regseq, seqgen
from autoseq.automata import (Dfa, complement, determinize, equivalent, inflate,
                              minimize, pad_closure, product, project_many)
from autoseq.logic import (Add, And, Call, CompileConfig, CompileError, Const,
                           Exists, Forall, Iff, Implies, Mul, Not, Or, ParseError,
                           ResourceLimit, SeqCmp, SeqIs, Var, characteristic, compile,
                           decide, free_variables, parse)
from autoseq.oracle import PrefixContext, brute
from autoseq.seqgen import Dfao, prefix, thue_morse

TM = thue_morse()
ENV = {"x": TM}
TMVALS = prefix(TM, 5000)
S3 = Dfao(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, [0, 1, 2])  # ternary digit sum mod 3
PD = Dfao(2, [[2, 1], [3, 0], [2, 2], [3, 3]], 0, [0, 1, 0, 1])  # period doubling
HAS1 = Dfao(3, [[0, 1, 0], [1, 1, 1]], 0, [0, 1])  # some ternary digit is 1
UNBORDERED = "A l ((1 <= l & 2*l <= n) => (E i (i < l) & (x[j+i] != x[j+n-l+i])))"


def test_parse_shapes():
    f = parse("E i A t (t < n) => x[i+t] = x[i+n+t]")
    assert isinstance(f, Exists) and isinstance(f.body, Forall)
    assert free_variables(f) == {"n"}
    parse("2*l <= n")
    with pytest.raises(ParseError):
        parse("l <= n/2")
    f = parse("n ≡ 1 mod 6")
    assert isinstance(f, Exists)
    # a literal on the left compares as it does on the right
    for op in ("=", "!="):
        assert parse(f"1 {op} x[n]") == parse(f"x[n] {op} 1") == SeqIs("x", Var("n"), op, 1)
    with pytest.raises(ParseError, match="only = and != compare"):
        parse("1 < x[n]")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("E n E n n = n")  # shadowing
    for text in ("E n,n n = 1", "A n,n n = 1", "E m, n, m m = n"):
        with pytest.raises(ParseError, match="shadows"):
            parse(text)  # a name repeated in one quantifier list
    with pytest.raises(ParseError):
        parse("x[i] + 1 = 2")  # sequence value in arithmetic
    with pytest.raises(ParseError):
        parse("i <")
    with pytest.raises(ParseError):
        parse("mod(i, 0, 1)")


def test_compile_equality_pairs():
    dfa = compile(parse("i = n"), ENV)
    assert dfa.accepts_values((3, 3))
    assert not dfa.accepts_values((3, 5))


def test_compile_even():
    dfa = compile(parse("E q n = 2*q"), ENV)
    for n in range(33):
        assert dfa.accepts_values((n,)) == (n % 2 == 0)


@pytest.mark.parametrize("op,fn", [
    ("<", lambda a, b: a < b), ("<=", lambda a, b: a <= b),
    (">", lambda a, b: a > b), (">=", lambda a, b: a >= b),
    ("=", lambda a, b: a == b), ("!=", lambda a, b: a != b)])
def test_comparisons_exhaustive(op, fn):
    dfa = compile(parse(f"i {op} n"), ENV)
    for i in range(20):
        for n in range(20):
            assert dfa.accepts_values((i, n)) == fn(i, n)


@pytest.mark.parametrize("k", [2, 3])
def test_adder_exhaustive(k):
    base_seq = TM if k == 2 else Dfao(3, [[0, 0, 0]], 0, [0])
    dfa = compile(parse("z = a + b"), {"s": base_seq})
    for a in range(64):
        for b in range(64):
            assert dfa.accepts_values((a, b, a + b))
            assert not dfa.accepts_values((a, b, a + b + 1))


def test_subtraction_sugar():
    dfa = compile(parse("i - t >= 2"), ENV)
    for i in range(12):
        for t in range(12):
            assert dfa.accepts_values((i, t)) == (i - t >= 2)


def test_congruence_sugar():
    dfa = compile(parse("n ≡ 1 mod 6"), ENV)
    dfa2 = compile(parse("mod(n, 6, 1)"), ENV)
    for n in range(100):
        assert dfa.accepts_values((n,)) == (n % 6 == 1)
    eq, _ = equivalent(dfa, dfa2)
    assert eq
    # residue larger than the modulus, and a non-constant residue
    dfa = compile(parse("mod(n, 6, 7)"), ENV)
    for n in range(60):
        assert dfa.accepts_values((n,)) == (n % 6 == 1)
    dfa = compile(parse("mod(n, 3, m)"), ENV)
    for n in range(15):
        for m in range(15):
            assert dfa.accepts_values((m, n)) == (n % 3 == m % 3)


def test_seq_atoms():
    dfa = compile(parse("x[n] = 1"), ENV)
    for n in range(64):
        assert dfa.accepts_values((n,)) == (TMVALS[n] == 1)
    assert dfa.accepts_values((1,))
    assert not dfa.accepts_values((0,))

    dfa = compile(parse("x[i] = x[j]"), ENV)
    for i in range(24):
        for j in range(24):
            assert dfa.accepts_values((i, j)) == (TMVALS[i] == TMVALS[j])


def test_seq_index_subtraction():
    dfa = compile(parse("x[i - 1] = 1"), ENV)
    for i in range(32):
        assert dfa.accepts_values((i,)) == (i >= 1 and TMVALS[i - 1] == 1)


def test_signed_index_parses_to_a_bare_atom():
    # no witness quantifier: the atom keeps the signed index term
    f = parse("x[i - 1] = 1")
    assert f == SeqIs("x", Add(Var("i"), Const(-1)), "=", 1)
    assert free_variables(f) == {"i"}
    assert not compile(f, ENV).accepts_values((0,))
    f = parse("x[n - i] != x[i + 2]")
    assert f == SeqCmp("x", Add(Mul(-1, Var("i")), Var("n")), "!=",
                       "x", Add(Var("i"), Const(2)))


def test_bounded_quantifier_sugar():
    assert decide(parse("A n (A t < n: t < n)"), ENV).value
    d = decide(parse("E n (E t < n: t + 1 = n)"), ENV)
    assert d.value and d.witness is not None
    # multi-variable bounded block: both variables get the guard
    dfa = compile(parse("E a, b < n: a + b + 3 = 2*n"), ENV)
    for n in range(24):
        want = any(a + b + 3 == 2 * n for a in range(n) for b in range(n))
        assert dfa.accepts_values((n,)) == want, n


def test_decide_squares_and_overlaps():
    d = decide(parse(
        "E i E n (n >= 1) & (A t (t < n) => x[i+t] = x[i+n+t])"), ENV)
    assert d.value
    i0, n0 = d.witness["i"], d.witness["n"]
    assert n0 >= 1 and TMVALS[i0:i0 + n0] == TMVALS[i0 + n0:i0 + 2 * n0]

    d = decide(parse(
        "E i E n (n >= 1) & (A t (t <= n) => x[i+t] = x[i+n+t])"), ENV)
    assert not d.value


def test_decide_compiles_its_body_once():
    # the value and the witness both come from one compilation of the body
    square = parse("E i E n (n >= 1) & (A t (t < n) => x[i+t] = x[i+n+t])")
    body = square.body.body
    once = CompileConfig()
    compile(body, ENV, once)
    cfg = CompileConfig()
    d = decide(square, ENV, cfg)
    assert d.value and d.witness
    assert cfg.operations == once.operations > 0


def test_decide_simple():
    assert decide(parse("A n E m (m > n)"), ENV).value
    d = decide(parse("A n x[n] = 0"), ENV)
    assert not d.value
    n0 = d.counterexample["n"]
    assert TMVALS[n0] != 0


def test_decide_requires_sentence():
    with pytest.raises(CompileError):
        decide(parse("n < 5"), ENV)


def test_characteristic():
    ch = characteristic(parse("E q n = 6*q + 1"), ENV)
    for n in range(100):
        assert ch.evaluate(n) == (1 if n % 6 == 1 else 0)
    ch = characteristic(parse("n = n"), ENV)
    assert all(ch.evaluate(n) == 1 for n in range(50))
    with pytest.raises(CompileError):
        characteristic(parse("i < n"), ENV)


def test_unbound_sequence():
    with pytest.raises(CompileError):
        compile(parse("z[i] = 1"), ENV)


def test_bound_sequences_must_agree_on_the_base():
    """The whole environment agrees on one base, whether the formula reads
    both sequences or only one of them."""
    env = {"x": TM, "y": S3}
    for text in ("x[i] = y[i]", "x[i] = 1 & i < n"):
        with pytest.raises(CompileError, match=r"disagree on the base: \[2, 3\]"):
            compile(parse(text), env)
    for text in ("E i x[i] = y[i]", "E i x[i] = 1"):
        with pytest.raises(CompileError, match=r"disagree on the base: \[2, 3\]"):
            decide(parse(text), env)


def test_resource_limit():
    cfg = CompileConfig(max_states=4)
    with pytest.raises(ResourceLimit):
        compile(parse("E j A l ((1 <= l & 2*l <= n) => "
                      "(E i (i < l) & (x[j+i] != x[j+n-l+i])))"), ENV, cfg)


def test_a_default_base_below_2_is_refused():
    # base 1 used to reach the unchecked atom tables and decide E n n=1 false
    for base in (1, 0, -2):
        with pytest.raises(ValueError, match="base must be >= 2"):
            CompileConfig(default_base=base)
    for base in (2, 3, 5):
        assert decide(parse("E n n=1"), {}, CompileConfig(default_base=base)).value


def test_a_max_states_below_1_is_refused():
    for limit in (0, -5):
        with pytest.raises(ValueError, match="max_states must be >= 1"):
            CompileConfig(max_states=limit)
    assert CompileConfig(max_states=1).max_states == 1


def test_index_atom_stops_at_the_ceiling():
    # one atom and nothing else: its carry product pairs 14 states, which
    # minimize to 7
    f = parse("x[i+5] = x[i+6]")
    with pytest.raises(ResourceLimit):
        compile(f, ENV, CompileConfig(max_states=13))
    cfg = CompileConfig(max_states=14)
    assert compile(f, ENV, cfg).n_states == 7
    assert cfg.peak_states == 14


# Walks that charge nothing: none outgrows an automaton already charged.
BARE_WALKS = {"minimize", "pad_closure", "is_empty"}


def test_every_construction_is_charged_to_the_callers_config(monkeypatch):
    # Each subset construction, product and state-numbering walk of a
    # compile, decide, count or finiteness analysis gets the caller's
    # config as its budget, so none escapes the ceiling or the peak.
    calls = []  # (construction, calling function, budget)

    def recording(name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            budget = sig.bind(*args, **kwargs).arguments.get("budget")
            calls.append((name, sys._getframe(1).f_code.co_name, budget))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("determinize", "determinize_reverse", "product", "_explore"):
        fn = getattr(automata, name)
        wrapped = recording(name, fn)
        for mod in (automata, logic, regseq, analyses):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapped)
    cfg = CompileConfig()
    level = compile(parse("3*t < 2*n"), ENV, cfg)  # tracks (n, t)
    compile(parse("E i A t (t < n) => x[i+t] = x[i+n+t]"), ENV, cfg)
    decide(parse("E i E n (n >= 1) & (A t (t < n) => x[i+t] = x[i+n+t])"), ENV, cfg)
    regseq.count_measure(level, cfg)
    regseq.representation_count({-1, 0, 1}, 2, cfg)
    analyses.has_arbitrarily_large_unbordered(TM, cfg)
    charged = [(name, caller) for name, caller, budget in calls if caller not in BARE_WALKS]
    missed = [(name, caller) for name, caller, budget in calls
              if caller not in BARE_WALKS and budget is not cfg]
    assert not missed, missed
    assert {name for name, _ in charged} == {
        "determinize", "determinize_reverse", "product", "_explore"}
    assert {caller for name, caller in charged if name == "_explore"} >= {
        "_linear_atom", "_carry_reader", "index_atom", "_subsets", "product",
        "representation_count"}


def test_negation_compositionality():
    corpus = ["i < n", "x[i] = x[n]", "(i < n) & (x[i] = 0)",
              "A t (t < i) => x[t+n] = x[t]"]
    for text in corpus:
        f = parse(text)
        direct = compile(Not(f), ENV)
        assert direct == minimize(complement(compile(f, ENV)))


def test_conjunction_compositionality():
    f1, f2 = parse("i < n"), parse("x[i] = 1")
    d1, d2 = compile(f1, ENV), compile(f2, ENV)
    dand = compile(And(f1, f2), ENV)
    assert dand == minimize(product(d1, inflate(d2, 1), "and"))


CONNECTIVES = {And: lambda a, b: a and b, Or: lambda a, b: a or b,
               Implies: lambda a, b: not a or b, Iff: lambda a, b: a == b}


@pytest.mark.parametrize("node", list(CONNECTIVES), ids=lambda node: node.__name__)
def test_connectives_match_their_truth_tables(node):
    # each side is a true constant, a false constant or an atom on n
    lefts = {"0 = 0": lambda n: True, "0 = 1": lambda n: False,
             "x[n] = 1": lambda n: TMVALS[n] == 1}
    rights = {"1 = 1": lambda n: True, "1 = 0": lambda n: False,
              "x[n+1] = 1": lambda n: TMVALS[n + 1] == 1}
    for (lt, lv), (rt, rv) in itertools.product(lefts.items(), rights.items()):
        f = node(parse(lt), parse(rt))
        want = [CONNECTIVES[node](lv(n), rv(n)) for n in range(64)]
        if free_variables(f):
            ch = characteristic(f, ENV)
            assert [bool(ch.evaluate(n)) for n in range(64)] == want, (lt, rt)
        else:
            assert decide(f, ENV).value == want[0], (lt, rt)


@pytest.mark.parametrize("text,value", [
    ("E n (0 = 1) & (E i A t (t < n) => x[i+t] = x[i+n+t])", False),
    ("A n (0 = 0) | (E i A t (t < n) => x[i+t] = x[i+n+t])", True),
    ("A n (0 = 1) => (E i A t (t < n) => x[i+t] = x[i+n+t])", True)])
def test_a_left_side_that_fixes_the_result_leaves_the_right_uncompiled(text, value):
    cfg = CompileConfig(max_states=2)
    assert decide(parse(text), ENV, cfg).value is value
    assert cfg.peak_states == 0
    with pytest.raises(ResourceLimit):  # the right side alone
        compile(parse("E i A t (t < n) => x[i+t] = x[i+n+t]"), ENV, CompileConfig(max_states=2))


def test_quantifier_duality():
    f = parse("A t (t < i) => x[t+n] = x[t]")
    g = parse("~ (E t ~((t < i) => x[t+n] = x[t]))")
    assert compile(f, ENV) == compile(g, ENV)


def test_decide_agrees_with_bruteforce_corpus():
    sentences = [
        ("E n (n > 5) & (x[n] = 0)",
         any(n > 5 and TMVALS[n] == 0 for n in range(32))),
        ("A n (n < 4) => (x[n] != x[n+3])",
         all(TMVALS[n] != TMVALS[n + 3] for n in range(4))),
        ("E n A m (m < n) => x[m] = x[m]", True),
        ("E i (x[i] = 1) & (x[i+1] = 1) & (x[i+2] = 1)",
         any(TMVALS[i] == TMVALS[i+1] == TMVALS[i+2] == 1 for i in range(1000))),
        ("A i E j (j > i) & (x[j] = 0) & (x[j+1] = 0)", True),
    ]
    for text, expected in sentences:
        assert decide(parse(text), ENV).value == expected, text


def test_call_atom():
    less = compile(parse("i < n"), ENV)
    f = Exists("w", And(Call(less, (Var("w"), Var("n"))),
                        Call(less, (Var("n"), Var("w")))))
    dfa = compile(f, ENV)
    # no w with w < n and n < w
    assert not any(dfa.accepts_values((n,)) for n in range(16))


def test_tracks_sorted_by_name():
    dfa = compile(parse("b + 1 = a"), ENV)  # tracks (a, b)
    assert dfa.accepts_values((3, 2))
    assert not dfa.accepts_values((2, 3))


@pytest.mark.parametrize("seq,text,drops", [
    (TM, "(n >= 1) & (A t (t < n) => x[i+t] = x[i+n+t])", [("i",), ("n",)]),
    (TM, "(x[i+j] = x[i+j+n]) & (j < n)", [("i",), ("j",), ("i", "j"), ("j", "n")]),
    (TM, UNBORDERED, [("j",), ("n",)]),
    (S3, "(x[i] = x[i+n]) & (x[i+1] = x[i+n+1])", [("i",), ("n",)]),
    (S3, "(x[i] != x[j]) & (i + j = 2*n)", [("i",), ("i", "j"), ("n",)]),
    (TM, "(y = 4*n + 3) & x[y] = 0", [("y",)]),
], ids=["tm-square", "tm-shift", "tm-unbordered", "s3-square", "s3-midpoint", "tm-4n3"])
def test_projection_matches_forward_subset_construction(seq, text, drops):
    # E blocks determinize by double reversal; the forward subset
    # construction must give the same pad-closed automaton
    body = parse(text)
    env = {"x": seq}
    dfa = compile(body, env)
    tracks = sorted(free_variables(body))
    for drop in drops:
        f = body
        for v in reversed(drop):
            f = Exists(v, f)
        forward = pad_closure(determinize(project_many(dfa, {tracks.index(v) for v in drop})))
        assert compile(f, env) == forward, (text, drop)


def test_strip_closure_takes_several_zero_digits():
    # the witness y = 4n+3 has two more digits than n, so n's own digits
    # are accepted only through two trailing zeros
    dfa = compile(parse("E y (y = 4*n + 3) & x[y] = 0"), ENV)
    for n in range(64):
        assert dfa.accepts_values((n,)) == (TMVALS[4 * n + 3] == 0), n


def test_peak_states_covers_intermediate_constructions(monkeypatch):
    built = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            built.append(out.n_states)
            return out
        return wrapper

    for name in ("determinize_reverse", "determinize", "product"):
        monkeypatch.setattr(logic, name, recording(getattr(logic, name)))
    # the second formula hands the A block's mirror to the E block, which
    # projects it forward with determinize
    for text in ("E i (n >= 1) & (A t (t < n) => x[i+t] = x[i+n+t])",
                 "E i A t (t < n) => x[i+t] = x[i+n+t]"):
        built.clear()
        cfg = CompileConfig()
        compile(parse(text), ENV, cfg)
        assert built and cfg.peak_states == max(built), text


class _DoubleReversal(logic._Compiler):
    """Reference compiler: every quantifier block runs both reversals and
    hands on a forward DFA, as E blocks did before mirrors were handed
    over."""

    def exists_many(self, names, value, mirror=False):
        if isinstance(value, bool):
            return value
        dfa, vars_ = value
        drop = {vars_.index(v) for v in set(names) if v in vars_}
        if not drop:
            return value
        if len(drop) == len(vars_):
            return not automata.is_empty(dfa)[0]
        reversed_ = minimize(automata.determinize_reverse(dfa, drop, pad=True))
        return (automata.determinize_reverse(reversed_),
                tuple(w for i, w in enumerate(vars_) if i not in drop))


@pytest.mark.parametrize("seq", [TM, S3], ids=["tm", "s3"])
def test_nested_blocks_match_the_double_reversal_in_every_block(seq, monkeypatch):
    formulas = [
        "E i A t (t < n) => x[i+t] = x[i+n+t]",  # E over A
        "A i E j (j >= i) & x[j] != x[j+n]",  # A over E
        "E i ~E t (t < n) & x[i+t] != x[i+n+t]",  # E x ~E y
        "A i E j A t (t < n) => x[i+j+t] = x[j+t+n]",  # three alternating levels
        "E i A m E j (j < n) & x[i+j] = x[n+j]",  # an inner block drops nothing
        "A m E j (j < n) & x[j] = x[j+n]",  # so does the outermost
        "(n >= 1) & ~(E j A t (t < 3) => x[j+t] = x[t])",  # E j drops every track
        "~(E j A t (t < 3) => x[j+t] = x[t])",
        "E n A i E j (j > i) & x[j] = x[j+n]",
        "A n (n >= 1) => E i ~E t (t < n) & x[i+t] != x[i+n+t]",
    ]
    env = {"x": seq}
    forward = []  # each block that projected a mirror forward

    def recording(*args, **kwargs):
        forward.append(args[0])
        return determinize(*args, **kwargs)

    monkeypatch.setattr(logic, "determinize", recording)

    def run(f):
        if free_variables(f):
            return compile(f, env)
        d = decide(f, env)
        return d.value, d.witness, d.counterexample

    got = [run(parse(text)) for text in formulas]
    assert len(forward) >= 6
    monkeypatch.setattr(logic, "_Compiler", _DoubleReversal)
    for text, out in zip(formulas, got):
        assert out == run(parse(text)), text


def test_base3_unbordered_lengths_under_a_small_ceiling():
    # the forward subset construction of this projection passes 20,000
    # states; the reversed ones stay far below
    cfg = CompileConfig(max_states=20_000)
    dfa = compile(parse("E j " + UNBORDERED), {"x": S3}, cfg)
    assert dfa == Dfa(3, 1, [[0, 0, 0]], 0, {0})  # every length n
    ctx = PrefixContext(prefix(S3, 4000))
    for n in range(40):
        assert dfa.accepts_values((n,)) == (brute("unbordered-count", ctx, n) > 0), n


def _witness_route(comp, f):
    """Reference for an index atom by quantifier elimination: a fresh
    variable per index, a _linear_atom equation tying it to its term, then
    combine and exists."""
    k = comp.base
    if isinstance(f, SeqCmp):
        x, y = comp.env[f.xname], comp.env[f.yname]
        terms = (f.t1, f.t2)
        pairs, rows = automata._explore(
            (x.initial, y.initial),
            lambda p: [(x.transitions[p[0]][a], y.transitions[p[1]][b])
                       for a in range(k) for b in range(k)])
        core = Dfa(k, 2, rows, 0, {i for i, (qx, qy) in enumerate(pairs)
                                   if logic._cmp_outputs(x.outputs[qx], y.outputs[qy], f.op)})
    elif isinstance(f, SeqIs):
        x = comp.env[f.xname]
        terms = (f.t,)
        core = Dfa(k, 1, x.transitions, x.initial,
                   {q for q in range(x.n_states) if (x.outputs[q] == f.symbol) == (f.op == "=")})
    else:
        terms = f.args
        core = f.dfa
    fresh = [f"_w{i}" for i in range(len(terms))]
    value = (minimize(core), tuple(fresh))
    for w, t in zip(fresh, terms):
        coeffs, const = logic._term_form(t)
        eq = logic._linear_atom(k, {w: 1, **{v: -c for v, c in coeffs.items()}}, -const,
                                "eq", comp.cfg)
        value = comp.combine(*value, *eq, "and")
    return comp.exists_many(fresh, value)


def _over(value, want, k):
    """A compiled value as a minimized DFA over the tracks want."""
    if isinstance(value, bool):
        return Dfa(k, len(want), [[0] * k ** len(want)], 0, {0} if value else ())
    dfa, vars_ = value
    missing = [i for i, v in enumerate(want) if v not in vars_]
    return minimize(inflate(dfa, *missing) if missing else dfa)


def _random_term(rng):
    names = rng.sample(("i", "j", "n"), rng.choice((0, 1, 1, 2, 2)))
    coeffs = {v: rng.choice((-2, -1, 1, 1, 2, 3)) for v in names}
    return logic._form_to_term((coeffs, rng.randint(-3, 4)))


@pytest.mark.parametrize("k,x,y", [(2, TM, PD), (3, S3, HAS1)], ids=["base2", "base3"])
def test_index_atoms_match_the_fresh_witness_route(k, x, y):
    rng = random.Random(11 * k)
    env = {"x": x, "y": y}
    relations = [compile(parse("i < n"), env), compile(parse("a + b = c"), env)]
    atoms = [parse("x[i - 1] = x[i - 1]"), parse("x[n - i] < y[i + 2]"),
             parse("x[4] = y[2*j - 3]"), parse("y[7] != 1"), parse("x[i - 9] = 0"),
             Call(relations[0], (Var("i"), Var("i")))]
    for _ in range(25):
        op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
        atoms.append(SeqCmp(rng.choice("xy"), _random_term(rng), op,
                            rng.choice("xy"), _random_term(rng)))
        atoms.append(SeqIs(rng.choice("xy"), _random_term(rng), rng.choice(("=", "!=")),
                           rng.choice((0, 1))))
        rel = rng.choice(relations)
        atoms.append(Call(rel, tuple(_random_term(rng) for _ in range(rel.arity))))
    for f in atoms:
        want = tuple(sorted(free_variables(f)))
        got = logic._Compiler(env, CompileConfig()).compile(f)
        ref = _witness_route(logic._Compiler(env, CompileConfig()), f)
        if want:
            assert _over(got, want, k) == _over(ref, want, k), f
        else:
            assert got is ref, f


# -- the config's table of eliminated quantifier blocks ----------------------

RS = seqgen.load((pathlib.Path(__file__).resolve().parents[1]
                  / "bench" / "corpus" / "rs.dfao").read_text())
# 1 at the powers of 2: not recurrent, so its factor 11 occurs only once
POW2 = Dfao(2, [[0, 1], [1, 2], [2, 2]], 0, [0, 1, 0])


class _Forgetful(dict):
    """A block table emptied before every lookup: every block is built."""

    def get(self, key, default=None):
        self.clear()
        return default


def _forgetful_config():
    cfg = CompileConfig()
    cfg.blocks = _Forgetful()
    return cfg


@pytest.fixture
def reversals(monkeypatch):
    """The determinize_reverse calls logic makes, one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return automata.determinize_reverse(*args, **kwargs)

    monkeypatch.setattr(logic, "determinize_reverse", counting)
    return calls


def test_alpha_variant_blocks_are_eliminated_once(reversals):
    first = "A t (t < n) => (x[j+t] = x[i+t])"
    second = "A s (s < n) => (x[m+s] = x[i+s])"
    cfg = CompileConfig()
    both = compile(parse(f"({first}) & ({second})"), ENV, cfg)
    assert len(reversals) == 2  # one block's two reversals
    reversals.clear()
    assert both == compile(parse(f"({first}) & ({second})"), ENV, _forgetful_config())
    assert len(reversals) == 4
    # the hit answers over the caller's own tracks (i, m, n)
    reversals.clear()
    hit = compile(parse(second), ENV, cfg)
    assert not reversals
    assert hit == compile(parse(second), ENV, CompileConfig())
    for i, m, n in itertools.product(range(12), repeat=3):
        want = TMVALS[m:m + n] == TMVALS[i:i + n]
        assert hit.accepts_values((i, m, n)) == want, (i, m, n)


def test_a_block_key_tells_orientation_permission_and_dropped_tracks():
    body = logic._Compiler(ENV, CompileConfig()).compile(parse("(3*i < n) & (x[i+n] = 1)"))
    assert body[1] == ("i", "n")
    # the same body dfa read forward and as a mirror, under both permissions,
    # dropping either track
    calls = [(drop, value, mirror) for drop in (["i"], ["n"])
             for value in (body, logic._Mirror(body)) for mirror in (False, True)]
    fresh = [logic._Compiler(ENV, CompileConfig()).exists_many(*c) for c in calls]
    assert len({(type(v), v[0]) for v in fresh}) == len(calls)  # all distinct
    for order in (range(len(calls)), reversed(range(len(calls)))):
        shared = logic._Compiler(ENV, CompileConfig())
        got = {i: shared.exists_many(*calls[i]) for i in order}
        for i, want in enumerate(fresh):
            assert type(got[i]) is type(want) and got[i] == want, calls[i]


def test_separate_configs_share_no_block(reversals):
    f = parse("E i A t (t < n) => x[i+t] = x[i+n+t]")
    one, two = CompileConfig(), CompileConfig()
    compile(f, ENV, one)
    built = len(reversals)
    assert built and one.blocks
    assert compile(f, ENV, two) == compile(f, ENV, one)
    assert len(reversals) == 2 * built
    assert two.blocks == one.blocks and two.blocks is not one.blocks


@pytest.mark.parametrize("seq", [TM, RS, POW2], ids=["tm", "rs", "pow2"])
def test_block_table_keeps_every_result(seq, reversals):
    text = analyses._measure_formula("recurrent-factor-count", None)[0]
    cfg = CompileConfig()
    got = compile(parse(text), {"x": seq}, cfg)
    built = len(reversals)
    reversals.clear()
    ref = _forgetful_config()
    assert got == compile(parse(text), {"x": seq}, ref)
    assert built < len(reversals)
    assert cfg.peak_states == ref.peak_states


def test_block_table_keeps_factor_set_compare(reversals):
    cfg = CompileConfig()
    got = analyses.factor_set_compare(TM, RS, cfg)
    built = len(reversals)
    reversals.clear()
    ref = _forgetful_config()
    assert got == analyses.factor_set_compare(TM, RS, ref)
    assert built < len(reversals)
    assert cfg.peak_states == ref.peak_states
