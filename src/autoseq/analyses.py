"""Canned decision and enumeration analyses for automatic sequences.

Each builder phrases a combinatorial quantity as a first-order predicate
over a bound sequence, compiles it, and (for counting quantities) runs the
two-track counting pipeline.  Position-anchored kinds follow these
conventions: a square "centered" at i has the boundary between its two
halves at i; a palindrome centered at i covers both the odd case (center
letter at i) and the even case (center boundary at i); an object "ending"
at i has its last letter at position i and must fit entirely to the left.
"""

from dataclasses import dataclass

from . import automata, logic, regseq
from .automata import (Dfa, determinize_reverse, minimize, pad_closure, permute_tracks,
                       is_empty, is_finite)
from .logic import (parse, compile as compile_formula, decide, characteristic,
                    CompileConfig, Var, Add, Compare, Not, And, Implies, Iff,
                    Forall, Call)
from .numeration import decode_lsd, project_track
from .seqgen import prefix

ANCHORED_KINDS = {
    "square-count-at": ("begin", "center", "end"),
    "longest-square-at": ("begin", "center", "end"),
    "palindrome-count-at": ("begin", "center", "end"),
    "longest-palindrome-at": ("begin", "center", "end"),
    "longest-fractional-power-at": ("begin", "end"),
}

MEASURE_KINDS = (
    "subword-complexity",
    "palindrome-complexity",
    "unbordered-count",
    "square-count-at",
    "longest-square-at",
    "palindrome-count-at",
    "longest-palindrome-at",
    "longest-fractional-power-at",
    "recurrent-factor-count",
    "factors-in-x-not-y",
    "factors-in-both",
    "recurrence-R",
    "appearance-A",
    "separator-S",
    "repetitivity-I",
    "permutation-complexity",
)

TWO_SEQUENCE_KINDS = ("factors-in-x-not-y", "factors-in-both")

# Shared predicate fragments ("x" is the bound sequence, i the position,
# n the length).
_FIRST_OCC = "(A j ((j < i) => (E t (t < n) & (x[i+t] != x[j+t]))))"
# The factor of x of length n at i does (not) occur in y.
_IN_Y = "(E j (A t (t < n) => (x[i+t] = y[j+t])))"
_NOT_IN_Y = "(A j (E t (t < n) & (x[i+t] != y[j+t])))"

# (object, anchor) -> (length variable, length term, "it sits at {p}"),
# where {L} stands for the length variable.
_OBJECTS = {
    ("square", "begin"): ("q", "2*{L}", "(A t (t < {L}) => (x[{p}+t] = x[{p}+{L}+t]))"),
    ("square", "center"): ("q", "2*{L}", "(A t (t < {L}) => (x[{p}-{L}+t] = x[{p}+t]))"),
    ("square", "end"): ("q", "2*{L}", "(A t (t < {L}) => (x[{p}+1-2*{L}+t] = x[{p}+1-{L}+t]))"),
    ("overlap", "begin"): ("q", "2*{L} + 1", "(A t (t <= {L}) => (x[{p}+t] = x[{p}+{L}+t]))"),
    ("overlap", "end"): ("q", "2*{L} + 1", "(A t (t <= {L}) => (x[{p}-2*{L}+t] = x[{p}-{L}+t]))"),
    ("palindrome", "begin"): (
        "m", "{L}", "(A t ((2*t + 1 <= {L}) => (x[{p}+t] = x[{p}+{L}-t-1])))"),
    ("palindrome", "center"): (
        "m", "{L}",
        "((E r ((2*r + 1 = {L}) & (A t (t < r) => (x[{p}-r+t] = x[{p}+r-t]))))"
        " | (E r ((2*r = {L}) & (1 <= r) & (A t (t < r) => (x[{p}-r+t] = x[{p}+r-1-t])))))"),
    ("palindrome", "end"): ("m", "{L}", "(A t ((2*t + 1 <= {L}) => (x[{p}+1-{L}+t] = x[{p}-t])))"),
    ("unbordered", "begin"): (
        "n", "{L}",
        "(A l ((1 <= l & 2*l <= {L}) => (E s (s < l) & (x[{p}+s] != x[{p}+{L}-l+s]))))"),
    ("unbordered", "end"): (
        "n", "{L}",
        "(A l ((1 <= l & 2*l <= {L}) => (E s (s < l) & (x[{p}+1-{L}+s] != x[{p}+1-l+s]))))"),
}


def _at(obj, anchor, p, var=None):
    """(length variable, length term, predicate) of the object at position
    p, with its length variable renamed to var if given."""
    L, size, sits = _OBJECTS[obj, anchor]
    L = var or L
    return L, size.format(L=L), sits.format(p=p, L=L)


_PALINDROME_AT = _at("palindrome", "begin", "i", "n")[2]
_UNBORDERED_AT = _at("unbordered", "begin", "i")[2]


def _pair_counting_dfa(text_or_ast, env, param, witness, config):
    """Pad-closed DFA with the parameter on track 0, the witness on track 1."""
    f = parse(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    free = sorted(logic.free_variables(f))
    if free != sorted((param, witness)):
        raise ValueError(f"expected free variables {param}, {witness}; got {free}")
    dfa = compile_formula(f, env, config)
    if free[0] != param:
        dfa = minimize(permute_tracks(dfa, [1, 0]))
    return dfa


def indicator(x, kind, anchor="begin", config=None):
    """0/1 sequence over positions i: an object of the kind sits at i."""
    if (kind, anchor) not in _OBJECTS:
        raise ValueError(f"indicator kind {kind!r} with anchor {anchor!r} is not defined")
    L, _, sits = _at(kind, anchor, "i")
    return characteristic(parse(f"E {L} (1 <= {L}) & {sits}"), {"x": x}, config)


def unbordered_characteristic(x, config=None):
    """b(n) = 1 iff the sequence has an unbordered factor of length n."""
    return characteristic(parse(f"E j {_at('unbordered', 'begin', 'j')[2]}"), {"x": x}, config)


def _measure_formula(kind, anchor):
    """(formula text, parameter var, witness var) for one measure kind."""
    if kind in ("square-count-at", "palindrome-count-at"):
        L, _, sits = _at(kind.split("-")[0], anchor, "n")
        return f"(1 <= {L}) & {sits}", "n", L
    if kind in ("longest-square-at", "longest-palindrome-at"):
        L, size, sits = _at(kind.split("-")[1], anchor, "n")
        return f"E {L} (u < {size}) & {sits}", "n", "u"
    table = {
        ("subword-complexity", None): (
            _FIRST_OCC, "n", "i"),
        ("palindrome-complexity", None): (
            f"{_PALINDROME_AT} & {_FIRST_OCC}", "n", "i"),
        ("unbordered-count", None): (
            f"{_UNBORDERED_AT} & {_FIRST_OCC}", "n", "i"),
        # Exponent at least 2: with any smaller threshold the value is
        # trivially infinite at every position (two equal letters at
        # distance d already form a (d+1)/d-power).
        ("longest-fractional-power-at", "begin"): (
            "E d (1 <= d) & (E t (u < t) & (2*d <= t) & "
            "(A s ((s + d < t) => (x[n+s] = x[n+d+s]))))", "n", "u"),
        ("longest-fractional-power-at", "end"): (
            "E d (1 <= d) & (E t (u < t) & (2*d <= t) & "
            "(A s ((s + d < t) => (x[n+1-t+s] = x[n+1-t+d+s]))))", "n", "u"),
        ("recurrent-factor-count", None): (
            "(A j ((A t (t < n) => (x[j+t] = x[i+t])) => "
            "(E m (j < m) & (A s (s < n) => (x[m+s] = x[i+s]))))) & " + _FIRST_OCC,
            "n", "i"),
        ("factors-in-x-not-y", None): (
            f"{_NOT_IN_Y} & {_FIRST_OCC}", "n", "i"),
        ("factors-in-both", None): (
            f"{_IN_Y} & {_FIRST_OCC}", "n", "i"),
        ("recurrence-R", None): (
            "E i E j A l ((i <= l & l + n <= i + t) => "
            "(E m (m < n) & (x[l+m] != x[j+m])))", "n", "t"),
        ("appearance-A", None): (
            "E j (A l ((l + n <= t) => (E m (m < n) & (x[l+m] != x[j+m]))))", "n", "t"),
        ("separator-S", None): (
            "A i ((i <= t) => (E j (j < n) & (A s ((s < i) => (x[n+s] = x[j+s])))))",
            "n", "t"),
        ("repetitivity-I", None): (
            "A i A d ((1 <= d & (A m ((m < n) => (x[i+m] = x[i+d+m])))) => (t < d))",
            "n", "t"),
    }
    return table[(kind, anchor)]


_LEVEL_KINDS = {"longest-square-at", "longest-palindrome-at",
                "longest-fractional-power-at", "recurrence-R",
                "appearance-A", "separator-S", "repetitivity-I"}


def measure(x, kind, y=None, anchor=None, config=None):
    """Linear representation of the named quantity for the sequence x.

    Two-sequence kinds require y.  The result carries the infinity-locus
    decomposition as .inf_part; kinds with possibly infinite values come
    back over the extended naturals.
    """
    if kind not in MEASURE_KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    if (y is not None) != (kind in TWO_SEQUENCE_KINDS):
        need = "requires" if kind in TWO_SEQUENCE_KINDS else "does not take"
        raise ValueError(f"measure kind {kind!r} {need} a second sequence")
    if kind in ANCHORED_KINDS:
        anchor = anchor or "begin"
        if anchor not in ANCHORED_KINDS[kind]:
            raise ValueError(f"kind {kind!r} does not accept anchor {anchor!r}")
    elif anchor is not None:
        raise ValueError(f"kind {kind!r} does not take an anchor")
    cfg = config or CompileConfig()
    env = {"x": x} if y is None else {"x": x, "y": y}
    if kind == "permutation-complexity":
        return _permutation_complexity(x, cfg)
    text, param, witness = _measure_formula(kind, anchor if kind in ANCHORED_KINDS else None)
    pair = _pair_counting_dfa(text, env, param, witness, cfg)
    if kind in _LEVEL_KINDS:
        return regseq.count_measure(pair, cfg)
    return regseq.count_parameter(pair, cfg)


def permutation_order(x, config=None):
    """Pad-closed DFA over (i, j): the shift at i precedes the shift at j
    in lexicographic order of the infinite suffixes."""
    if len(set(x.outputs)) < 1:
        raise ValueError("output alphabet is empty")
    text = "E t ((A l (l < t) => (x[i+l] = x[j+l])) & (x[i+t] < x[j+t]))"
    return compile_formula(parse(text), {"x": x}, config)


def _permutation_complexity(x, cfg):
    """Count distinct length-n order patterns of consecutive shifts.

    The shift order is compiled once and reused as a relation atom; a
    pattern at i is new when no earlier j induces the same pairwise order
    on offsets below n.
    """
    less = permutation_order(x, cfg)
    # Precompile "shift at b+l precedes shift at b+m" once; the pattern
    # match then reuses it as a plain three-track relation.
    offset_less = compile_formula(
        Call(less, (Add(Var("b"), Var("l")), Add(Var("b"), Var("m")))),
        {"x": x}, cfg)
    guard = And(Compare(Var("l_"), "<", Var("n")), Compare(Var("m_"), "<", Var("n")))
    pm = Forall("l_", Forall("m_", Implies(
        guard,
        Iff(Call(offset_less, (Var("i"), Var("l_"), Var("m_"))),
            Call(offset_less, (Var("j"), Var("l_"), Var("m_")))))))
    first = Forall("j", Implies(Compare(Var("j"), "<", Var("i")), Not(pm)))
    pair = _pair_counting_dfa(first, {"x": x}, "n", "i", cfg)
    return regseq.count_parameter(pair, cfg)


def has_unbounded_exponent(x, config=None):
    """Whether the sequence contains fractional powers of arbitrarily
    large exponent.

    The repetition pairs (n, j) with a length-n block equal to its shift
    by j form a regular set; exponents are unbounded exactly when that
    set contains pairs whose first component outgrows the second by
    arbitrarily many digits, i.e. when the trimmed pair automaton has a
    cycle over symbols with zero second track that can still reach
    acceptance through a nonzero first-track digit.
    """
    cfg = config or CompileConfig()
    f = parse("(1 <= j) & (E i (A t (t < n) => (x[i+t] = x[i+j+t])))")
    dfa = compile_formula(f, {"x": x}, cfg)  # tracks (j, n)
    dfa = minimize(permute_tracks(dfa, [1, 0]))  # tracks (n, j)
    syms = automata.sym_tuples(dfa.base, 2)
    g0 = [s for s, sym in enumerate(syms) if sym[1] == 0]
    last = [s for s, sym in enumerate(syms) if sym[1] == 0 and sym[0] != 0]
    reach = automata._reachable((dfa.initial,), dfa.transitions.__getitem__)
    zero_succ = {q: [dfa.transitions[q][s] for s in g0] for q in reach}
    # States with a zero-second-track path ending in a final via a nonzero
    # first digit.
    closed = automata._useful(
        reach, [q for q in reach if any(dfa.transitions[q][s] in dfa.finals for s in last)],
        zero_succ.__getitem__)
    # A cycle inside the zero-second-track subgraph through such a state.
    return any(automata._cyclic(comp, zero_succ.__getitem__) and not closed.isdisjoint(comp)
               for comp in automata._sccs(reach, zero_succ.__getitem__))


def _canonical_only(dfa):
    """Restrict an arity-1 language to canonical words (no trailing zero),
    one word per value, so finiteness questions are about value sets."""
    canon = Dfa(dfa.base, 1,
                [[1, 0] + [0] * (dfa.base - 2), [1, 0] + [0] * (dfa.base - 2)],
                0, {0})
    return automata.product(dfa, canon, "and")


def has_arbitrarily_large_unbordered(x, config=None):
    """Whether unbordered factors of unboundedly many lengths exist."""
    ch = unbordered_characteristic(x, config)
    ones = Dfa(ch.base, 1, ch.transitions, ch.initial,
               {q for q in range(ch.n_states) if ch.outputs[q] == 1})
    return not is_finite(_canonical_only(ones))


def uniformly_recurrent(x, config=None):
    """Decide whether every factor of x recurs within bounded gaps."""
    return decide(parse(
        "A r E t A n E m (n < m) & (m < n + t) & (A i (i < r) => (x[n+i] = x[m+i]))"),
        {"x": x}, config or CompileConfig()).value


def recurrence_flags(x, config=None):
    """(recurrent, uniformly recurrent, ultimately periodic) decisions."""
    env = {"x": x}
    cfg = config or CompileConfig()
    rec = decide(parse(
        "A n A r E m (n < m) & (A j (j < r) => (x[n+j] = x[m+j]))"), env, cfg)
    urec = uniformly_recurrent(x, cfg)
    up = decide(parse(
        "E p (1 <= p) & (E s A n (s <= n) => (x[n] = x[n+p]))"), env, cfg)
    return rec.value, urec, up.value


@dataclass
class FactorComparison:
    equal: bool
    x_subset_of_y: bool
    y_subset_of_x: bool
    distinguishing_length: int | None
    distinguishing_factor: tuple | None  # (side, factor values)
    tower_bound: str


def factor_set_compare(x, y, config=None):
    """Compare the factor sets of two sequences over the same base.

    When they differ, reports the shortest distinguishing length, a
    concrete factor of that length present on one side only, and the
    theoretical worst-case length bound for the two automata.
    """
    if x.base != y.base:
        raise ValueError("sequences must share the base")
    cfg = config or CompileConfig()
    all_in_y = parse(f"A i A n {_IN_Y}")
    sub_xy = decide(all_in_y, {"x": x, "y": y}, cfg).value
    sub_yx = decide(all_in_y, {"x": y, "y": x}, cfg).value
    q = max(x.n_states, y.n_states)
    tower = f"2^(2^(2^(2*{q}^2)))"
    if sub_xy and sub_yx:
        return FactorComparison(True, True, True, None, None, tower)
    # The shortest factor of one sequence missing from the other; x wins ties.
    missing = parse(f"E i {_NOT_IN_Y}")
    found = []
    for side, a, b, contained in (("x", x, y, sub_xy), ("y", y, x, sub_yx)):
        if not contained:
            dfa = compile_formula(missing, {"x": a, "y": b}, cfg)
            # Missing lengths are upward closed, and the shortest accepted
            # word need not encode the least of them: bisect below it.
            lo, n0 = 0, decode_lsd(project_track(is_empty(dfa)[1], 0))
            while lo < n0:
                mid = (lo + n0) // 2
                lo, n0 = (lo, mid) if dfa.accepts_values((mid,)) else (mid + 1, n0)
            found.append((n0, side, a, b))
    n0, side, a, b = min(found, key=lambda f: f[0])
    g = parse(f"(n = {n0}) & {_NOT_IN_Y}")
    _, w2 = is_empty(compile_formula(g, {"x": a, "y": b}, cfg))
    i0 = decode_lsd(project_track(w2, 0))
    factor = tuple(prefix(a, i0 + n0)[i0:])
    return FactorComparison(False, sub_xy, sub_yx, n0, (side, factor), tower)


@dataclass
class LinearBound:
    bounded: bool
    coefficient: int | None = None
    offset: int | None = None

    def __str__(self):
        if not self.bounded:
            return "unbounded"
        return f"bounded-by-linear ({self.coefficient}*n + {self.offset})"


def linear_complexity_check(l):
    """Decide linear boundedness of a counting series.

    Needs the infinity-locus decomposition attached by the counting
    pipeline: the count is unbounded exactly when the locus is nonempty
    (a pumpable witness family exists); otherwise witnesses for n have at
    most rank extra digits, giving the explicit linear bound reported.
    """
    if l.inf_part is None:
        raise ValueError("series has no infinity decomposition; "
                         "use a count_parameter/count_measure result")
    empty, _ = is_empty(l.inf_part.infinite_part)
    if not empty:
        return LinearBound(False)
    k = l.base
    r = l.rank
    m = max((x for rows in l._rows for row in rows for _, x in row if isinstance(x, int)),
            default=1)
    return LinearBound(True, k ** (r + 1) * m ** r, k ** r * m ** r)


def conjectured_bordered_lengths(config=None):
    """Lsd DFA for the conjectured set of lengths all of whose Thue-Morse
    factors are bordered: msd expansions matching 1(01*0)*10*1.

    The pattern's msd DFA is reversed and closed under padding, so it can
    be compared against compiled characteristic automata.  config bounds
    the subset construction and records its size.
    """
    # start, after 1(01*0)*, inside 01*0, in 10*, accepted, dead
    msd = Dfa(2, 1, [[5, 1], [2, 3], [1, 2], [3, 4], [5, 5], [5, 5]], 0, {4})
    cfg = config or CompileConfig()
    return pad_closure(cfg.note(cfg.build(determinize_reverse, msd)))
