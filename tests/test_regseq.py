import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from autoseq import regseq, seqgen
from autoseq.analyses import measure
from autoseq.automata import (Dfa, Nfa, StateLimit, complement, is_empty, minimize,
                              permute_tracks)
from autoseq.logic import CompileConfig, ResourceLimit, parse, compile as compile_formula
from autoseq.numeration import DigitWord, encode_lsd
from autoseq.regseq import (INF, InfDecomposition, LinRep, count_measure,
                            count_parameter, decompose_infinity, eps_saturate,
                            kernel_relations, linrep_from_nfa, load,
                            nfa_from_linrep, normalize_leading,
                            normalize_trailing, representation_count, reverse_series, store,
                            trim_nfa, verify_relation, zero_rep)
from autoseq.seqgen import Dfao, prefix, thue_morse

TM = thue_morse()
ENV = {"x": TM}
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus"


def words(k, maxlen):
    for length in range(maxlen + 1):
        yield from itertools.product(range(k), repeat=length)


def rand_linrep(rng, k, rank, top=2):
    def mat():
        return tuple(tuple(rng.randrange(top + 1) for _ in range(rank))
                     for _ in range(rank))
    return LinRep("nat", k,
                  tuple(rng.randrange(top + 1) for _ in range(rank)),
                  tuple(mat() for _ in range(k)),
                  tuple(rng.randrange(top + 1) for _ in range(rank)))


def rand_nfa(rng, k, n, eps_p=0.0, edge_p=0.22, mult_top=2):
    nfa = Nfa(k, 1, n, initials={rng.randrange(n): 1}, finals={})
    for q in range(n):
        if rng.random() < 0.5:
            nfa.finals[q] = 1
        for d in range(k):
            for t in range(n):
                if rng.random() < edge_p:
                    nfa.add_edge(q, d, t, rng.randrange(1, mult_top + 1))
        for t in range(n):
            if rng.random() < eps_p:
                nfa.add_eps(q, t)
    return nfa


def rand_natinf(rng, k, rank):
    def entry():
        return INF if rng.random() < 0.12 else rng.randrange(3)
    def mat():
        return tuple(tuple(entry() for _ in range(rank)) for _ in range(rank))
    return LinRep("natinf", k, tuple(entry() for _ in range(rank)),
                  tuple(mat() for _ in range(k)), tuple(entry() for _ in range(rank)))


def dense_vec_mat(u, m):
    return tuple(sum((x * m[i][j] for i, x in enumerate(u)), 0) for j in range(len(m[0])))


def dense_mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), 0) for row in m)


def dense_eval(l, w):
    row = l.u
    for d in w:
        row = dense_vec_mat(row, l.mats[d])
    return sum((x * y for x, y in zip(row, l.v)), 0)


def dense_rank_pad(l):
    """Reference for _rank_pad: top row u.M | u.M.v, middle M | M.v."""
    r = l.rank
    mats = []
    for m in l.mats:
        um = dense_vec_mat(l.u, m)
        mv = dense_mat_vec(m, l.v)
        mats.append([(0,) + um + (sum((x * y for x, y in zip(um, l.v)), 0),)]
                    + [(0,) + m[i] + (mv[i],) for i in range(r)] + [(0,) * (r + 2)])
    return LinRep(l.semiring, l.base, (1,) + (0,) * (r + 1), mats, (0,) * (r + 1) + (1,))


def with_zero_lines(rng, l):
    """Copy of l with one state made dead: its row and column are zero in
    every matrix and its entries in u and v are zero."""
    dead = rng.randrange(l.rank)

    def cut(vec):
        return tuple(0 if i == dead else x for i, x in enumerate(vec))

    mats = [tuple((0,) * l.rank if i == dead else cut(row) for i, row in enumerate(m))
            for m in l.mats]
    return LinRep(l.semiring, l.base, cut(l.u), mats, cut(l.v))


def rand_rat(rng, k, rank):
    def entry():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) if rng.random() < 0.6 else 0
    def mat():
        return tuple(tuple(entry() for _ in range(rank)) for _ in range(rank))
    return LinRep("rat", k, tuple(entry() for _ in range(rank)),
                  tuple(mat() for _ in range(k)), tuple(entry() for _ in range(rank)))


def brute_paths(nfa, w):
    total = 0

    def rec(state, pos, weight):
        nonlocal total
        if pos == len(w):
            total += weight * nfa.finals.get(state, 0)
            return
        for t, mult in nfa.steps[state].get(w[pos], {}).items():
            rec(t, pos + 1, weight * mult)

    for q, iw in nfa.initials.items():
        rec(q, 0, iw)
    return total


def capped_paths(nfa, w, cap):
    """Weighted accepting paths whose epsilon runs stay below the cap, by
    forward dynamic programming; an infinite family keeps growing with cap."""
    cur = {}
    for q, iw in nfa.initials.items():
        cur[(0, q)] = cur.get((0, q), 0) + iw

    def eps_expand(layer):
        out = dict(layer)
        frontier = dict(layer)
        while frontier:
            nxt = {}
            for (run, q), wgt in frontier.items():
                if run >= cap:
                    continue
                for t, mult in nfa.eps[q].items():
                    key = (run + 1, t)
                    nxt[key] = nxt.get(key, 0) + wgt * mult
            for key, wgt in nxt.items():
                out[key] = out.get(key, 0) + wgt
            frontier = nxt
        return out

    cur = eps_expand(cur)
    for d in w:
        nxt = {}
        for (run, q), wgt in cur.items():
            for t, mult in nfa.steps[q].get(d, {}).items():
                nxt[(0, t)] = nxt.get((0, t), 0) + wgt * mult
        cur = eps_expand(nxt)
    return sum(wgt * nfa.finals.get(q, 0) for (run, q), wgt in cur.items())


def test_sum_of_digits_representation():
    # rank-2 representation of the binary digit sum: f(n) = u mu(w) v
    s2 = LinRep("nat", 2, (0, 1),
                (((1, 0), (0, 1)), ((1, 0), (1, 1))), (1, 0))
    assert s2.evaluate(27) == 4
    for n in range(200):
        assert s2.evaluate(n) == bin(n).count("1")
    norm = normalize_trailing(s2)
    for n in range(100):
        assert norm.evaluate(n) == s2.evaluate(n)
    digits = [1, 1, 0, 1]
    for pads in range(4):
        assert norm.eval_word(digits + [0] * pads) == 3


def test_reverse_series_involution():
    rng = random.Random(7)
    for _ in range(10):
        l = rand_linrep(rng, 2, 3)
        r = reverse_series(l)
        assert r.rank == l.rank
        for w in words(2, 6):
            assert r.eval_word(w) == l.eval_word(tuple(reversed(w)))
            assert reverse_series(r).eval_word(w) == l.eval_word(w)


def test_leading_trailing_contracts_100_random():
    rng = random.Random(12345)
    for _ in range(100):
        k = rng.choice([2, 3])
        l = rand_linrep(rng, k, rng.randrange(1, 4))
        g = normalize_leading(l)
        assert g.leading_normalized()
        h = normalize_trailing(l)
        assert h.trailing_normalized()
        for w in words(k, 5):
            if not (w and w[0] == 0):
                for i in range(4):
                    assert g.eval_word((0,) * i + w) == l.eval_word(w)
            if not (w and w[-1] == 0):
                for i in range(4):
                    assert h.eval_word(w + (0,) * i) == l.eval_word(w)


def test_zero_representation_normalizes_to_zero():
    z = zero_rep(2)
    g = normalize_leading(z)
    assert all(g.eval_word(w) == 0 for w in words(2, 4))


def test_sparse_evaluation_matches_dense_reference():
    rng = random.Random(4242)
    reps = []
    for _ in range(25):
        k, rank = rng.choice([2, 3]), rng.randrange(1, 5)
        reps.append(with_zero_lines(rng, rand_linrep(rng, k, rank)))
        reps.append(rand_natinf(rng, k, rank))
        reps.append(with_zero_lines(rng, rand_natinf(rng, k, rank)))
        reps.append(rand_rat(rng, k, rank))
    # infinity in u, in every matrix and in v, next to zero cells
    reps.append(LinRep("natinf", 2, (INF, 0, 1), (((0, INF, 0), (0, 0, 0), (1, 0, INF)),
                                                  ((INF, 0, 1), (0, 1, 0), (0, 0, 0))),
                       (0, INF, 1)))
    seen = set()
    for l in reps:
        seen.add(l.semiring)
        for w in words(l.base, 4):
            assert l.eval_word(w) == dense_eval(l, w), (l, w)
        for g in (l, normalize_leading(l), normalize_trailing(l)):
            assert g.leading_normalized() == (dense_vec_mat(g.u, g.mats[0]) == g.u)
            assert g.trailing_normalized() == (dense_mat_vec(g.mats[0], g.v) == g.v)
        assert normalize_leading(l).leading_normalized()
        assert normalize_trailing(l).trailing_normalized()
        if l.semiring == "nat":
            assert regseq._rank_pad(l) == dense_rank_pad(l)
    assert seen == {"nat", "natinf", "rat"}


def char_rep(dfa):
    """0/1 linear representation of a DFA's characteristic series."""
    n = dfa.n_states
    u = tuple(1 if q == dfa.initial else 0 for q in range(n))
    v = tuple(1 if q in dfa.finals else 0 for q in range(n))
    rows = [[((dfa.transitions[q][d], 1),) for q in range(n)] for d in range(dfa.base)]
    return LinRep._from_rows("nat", dfa.base, u, rows, v)


def hadamard(a, b):
    """Tensor-product representation of the pointwise product of two series."""
    ra, rb = a.rank, b.rank
    u = tuple(a.u[i] * b.u[j] for i in range(ra) for j in range(rb))
    v = tuple(a.v[i] * b.v[j] for i in range(ra) for j in range(rb))
    # nonzero entries of both semirings have nonzero products
    rows = [[[(x * rb + y, p * q) for x, p in row_a for y, q in row_b]
             for row_a in rows_a for row_b in rows_b]
            for rows_a, rows_b in zip(a._rows, b._rows)]
    return LinRep._from_rows(a.semiring if a.semiring != "nat" else b.semiring,
                             a.base, u, rows, v)


def push_infinity_to_u(l):
    """Value-equal representation whose infinity entries all sit in u.

    Uses the locus decomposition: the finite part is masked by the
    complement of the locus via a tensor product, and the locus itself is
    re-added as a characteristic block scaled by infinity in u.
    """
    dec = decompose_infinity(l)
    locus = dec.infinite_part
    masked = hadamard(char_rep(complement(locus)), dec.finite_part)
    chi = char_rep(locus)
    u = masked.u + tuple(INF if x == 1 else 0 for x in chi.u)
    v = masked.v + chi.v
    ra = masked.rank
    rows = [rows_a + tuple(tuple((ra + j, x) for j, x in row) for row in rows_b)
            for rows_a, rows_b in zip(masked._rows, chi._rows)]
    out = LinRep._from_rows("natinf", l.base, u, rows, v)
    out.inf_part = dec
    return out


def test_rows_built_producers_store_the_canonical_form():
    """Producers that build sparse rows directly must store what the public
    constructor derives (columns ascending, no zero entries), or __eq__ and
    store/load would disagree with equal dense inputs."""
    rng = random.Random(1357)

    def canonical(l):
        assert LinRep(l.semiring, l.base, l.u, l.mats, l.v) == l
        assert load(store(l)) == l

    for _ in range(20):
        k, rank = rng.choice([2, 3]), rng.randrange(1, 4)
        nat = with_zero_lines(rng, rand_linrep(rng, k, rank))
        natinf = rand_natinf(rng, k, rank)
        for l in (nat, natinf, rand_rat(rng, k, rank)):
            for g in (regseq._rank_pad(l), reverse_series(l), normalize_leading(l),
                      normalize_trailing(l), hadamard(l, l)):
                canonical(g)
        for l in (nat, natinf):
            dec = decompose_infinity(l)
            canonical(dec.finite_part)
            canonical(char_rep(dec.infinite_part))
            canonical(push_infinity_to_u(l))
        canonical(linrep_from_nfa(nfa_from_linrep(nat)))
        canonical(linrep_from_nfa(eps_saturate(rand_nfa(rng, k, rank + 2, eps_p=0.3))))


def test_eps_saturate_matches_dense_reference():
    rng = random.Random(8080)
    saw_inf = False
    for _ in range(40):
        nfa = rand_nfa(rng, 2, rng.randrange(1, 6), eps_p=0.25, edge_p=0.2)
        n = nfa.n_states
        d = [[0] * n for _ in range(n)]
        for q, row in enumerate(regseq._eps_star(n, nfa.eps)):
            for j, x in row:
                d[q][j] = x
        saw_inf |= any(x == INF for row in d for x in row)
        sat = eps_saturate(nfa)
        v = tuple(nfa.finals.get(q, 0) for q in range(n))
        assert tuple(sat.finals.get(q, 0) for q in range(n)) == dense_mat_vec(d, v)
        for s in range(2):
            step = [[nfa.steps[q].get(s, {}).get(t, 0) for t in range(n)] for q in range(n)]
            want = [dense_vec_mat(d[q], step) for q in range(n)]
            got = [tuple(sat.steps[q].get(s, {}).get(t, 0) for t in range(n)) for q in range(n)]
            assert got == want
    assert saw_inf


def test_path_count_fidelity():
    rng = random.Random(777)
    for _ in range(40):
        nfa = rand_nfa(rng, 2, rng.randrange(1, 6))
        rep = linrep_from_nfa(nfa)
        for w in words(2, 7):
            assert rep.eval_word(w) == brute_paths(nfa, w)


def test_deterministic_gives_characteristic():
    d = Dfa(2, 1, [[0, 1], [1, 1]], 0, {1})
    nfa = Nfa(2, 1, 2, initials=[0], finals=[1])
    for q in range(2):
        for dgt in range(2):
            nfa.add_edge(q, dgt, d.transitions[q][dgt])
    rep = linrep_from_nfa(nfa)
    for w in words(2, 6):
        word = DigitWord(2, 1, tuple((x,) for x in w))
        assert rep.eval_word(w) == (1 if d.accepts(word) else 0)


def test_linrep_from_nfa_semiring_follows_the_nfa_weights():
    def nfa(initial=1, final=1, step=1):
        a = Nfa(2, 1, 2, initials={0: initial}, finals={1: final})
        a.steps[0][1] = {1: step}
        return a

    assert linrep_from_nfa(nfa()).semiring == "nat"
    for where in ("initial", "final", "step"):
        rep = linrep_from_nfa(nfa(**{where: INF}))
        assert rep.semiring == "natinf", where
        assert rep.eval_word((1,)) == INF


def test_roundtrip_nfa_linrep_100_random():
    rng = random.Random(424)
    for _ in range(100):
        l = rand_linrep(rng, 2, rng.randrange(1, 4))
        back = linrep_from_nfa(nfa_from_linrep(l))
        for w in words(2, 8):
            if w:
                assert back.eval_word(w) == l.eval_word(w)
    with pytest.raises(ValueError):
        nfa_from_linrep(rand_natinf(rng, 2, 2))


def test_eps_saturation_50_random():
    rng = random.Random(999)
    confirmed_infinite = 0
    for _ in range(50):
        nfa = rand_nfa(rng, 2, rng.randrange(1, 5), eps_p=0.22, edge_p=0.18)
        sat = eps_saturate(nfa)
        assert not sat.has_eps()
        rep = linrep_from_nfa(sat)
        n = max(nfa.n_states, 2)
        for w in words(2, 4):
            got = rep.eval_word(w)
            lo = capped_paths(nfa, w, n + 1)
            hi = capped_paths(nfa, w, 2 * n + 2)
            if got == INF:
                assert hi > lo
                confirmed_infinite += 1
            else:
                assert got == lo == hi
    assert confirmed_infinite > 0


def test_eps_saturate_examples():
    plain = Nfa(2, 1, 1, initials=[0], finals=[0])
    plain.add_edge(0, 1, 0)
    assert eps_saturate(plain) is plain  # eps-free input unchanged

    # two parallel eps edges into an accepting state
    par = Nfa(2, 1, 2, initials=[0], finals=[1])
    par.add_eps(0, 1, mult=2)
    rep = linrep_from_nfa(eps_saturate(par))
    assert rep.eval_word(()) == 2

    # eps self-loop on a useful state
    loop = Nfa(2, 1, 1, initials=[0], finals=[0])
    loop.add_eps(0, 0)
    rep = linrep_from_nfa(eps_saturate(loop))
    assert rep.eval_word(()) == INF


def test_decompose_infinity_50_random():
    streams = [(random.Random(31337), 2, 4, 6), (random.Random(4242), 3, 7, 5)]
    for rng, k, rank_top, maxlen in streams:
        for _ in range(50):
            l = rand_natinf(rng, k, rng.randrange(1, rank_top))
            dec = decompose_infinity(l)
            for w in words(k, maxlen):
                val = l.eval_word(w)
                member = dec.infinite_part.accepts(
                    DigitWord(k, 1, tuple((d,) for d in w)))
                assert member == (val == INF)
                if not member:
                    assert dec.finite_part.eval_word(w) == val
    # value inf exactly on words containing a 1: two subsets to explore
    ones = LinRep("natinf", 2, (1,), (((1,),), ((INF,),)), (1,))
    with pytest.raises(StateLimit):
        decompose_infinity(ones, limit=1)
    locus = decompose_infinity(ones, limit=2).infinite_part
    assert [locus.accepts(DigitWord(2, 1, tuple((d,) for d in w)))
            for w in ((), (0, 0), (0, 1), (1, 0))] == [False, False, True, True]


def test_decompose_all_finite():
    rng = random.Random(5)
    l = rand_linrep(rng, 2, 3)
    linf = LinRep("natinf", 2, l.u, l.mats, l.v)
    dec = decompose_infinity(linf)
    empty, _ = is_empty(dec.infinite_part)
    assert empty
    for w in words(2, 6):
        assert dec.finite_part.eval_word(w) == l.eval_word(w)
    dec = decompose_infinity(l)
    assert is_empty(dec.infinite_part)[0]
    assert dec.finite_part is l


def test_push_infinity_to_u_50_random():
    rng = random.Random(2718)
    for _ in range(50):
        l = rand_natinf(rng, 2, rng.randrange(1, 3))
        p = push_infinity_to_u(l)
        for m in p.mats:
            for row in m:
                assert INF not in row
        assert INF not in p.v
        for w in words(2, 5):
            assert p.eval_word(w) == l.eval_word(w)


def test_count_parameter_basic():
    lt = compile_formula(parse("i < n"), ENV)  # tracks (i, n)
    pair = minimize(permute_tracks(lt, [1, 0]))
    rep = count_parameter(pair)
    assert rep.semiring == "nat"
    for n in range(60):
        assert rep.evaluate(n) == n
    empty, _ = is_empty(rep.inf_part.infinite_part)
    assert empty


def test_count_parameter_infinite():
    allp = compile_formula(parse("(n = n) & (i = i)"), ENV)
    pair = minimize(permute_tracks(allp, [1, 0]))
    rep = count_parameter(pair)
    assert rep.semiring == "natinf"
    for n in range(10):
        assert rep.evaluate(n) == INF
    empty, _ = is_empty(rep.inf_part.infinite_part)
    assert not empty


def test_count_parameter_requires_pad_closed():
    rows = [[3, 1], [2, 3], [3, 3], [3, 3]]
    not_closed = Dfa(2, 2, [[r[0], r[0], r[1], r[1]] for r in rows], 0, {2})
    # states 1 and 2, both reachable, change acceptance on (0, 0); 1 is named
    with pytest.raises(ValueError, match="not pad-closed: state 1 "):
        count_parameter(not_closed)
    with pytest.raises(ValueError, match="arity"):
        count_parameter(Dfa(2, 1, [[0, 0]], 0, {0}))


def test_count_parameter_empty_language():
    nothing = Dfa(2, 2, [[0, 0, 0, 0]], 0, set())
    rep = count_parameter(nothing)
    assert all(rep.evaluate(n) == 0 for n in range(12))


def test_count_parameter_subword_complexity():
    f = parse("A j (j < i) => (E t (t < n) & (x[i+t] != x[j+t]))")
    pair = minimize(permute_tracks(compile_formula(f, ENV), [1, 0]))
    rep = count_parameter(pair)
    w = prefix(TM, 10 ** 4)
    for n in range(1, 14):
        brute = len({tuple(w[i:i + n]) for i in range(len(w) - n)})
        assert rep.evaluate(n) == brute
    assert rep.evaluate(0) == 1


def test_count_measure_identity_and_zero():
    lt = compile_formula(parse("t < n"), ENV)  # tracks (n, t) already sorted
    rep = count_measure(lt)
    for n in range(40):
        assert rep.evaluate(n) == n
    nothing = Dfa(2, 2, [[0, 0, 0, 0]], 0, set())
    rep = count_measure(nothing)
    assert all(rep.evaluate(n) == 0 for n in range(10))


def test_count_measure_rejects_non_downward_closed():
    # p(n, t) iff t = n is not downward closed in t
    eq = compile_formula(parse("t = n"), ENV)
    with pytest.raises(ValueError, match="downward closed in t at n=1, t=0"):
        count_measure(eq)


def test_counting_runs_under_the_callers_ceiling():
    built = CompileConfig()
    level = compile_formula(parse("3*t < 2*n"), ENV, built)  # tracks (n, t)
    decided = CompileConfig()
    rep = count_measure(level, decided)
    assert [rep.evaluate(n) for n in range(12)] == [(2 * n + 2) // 3 for n in range(12)]
    # the downward-closure decision's products outgrow the pair's own compile
    assert decided.peak_states > built.peak_states
    with pytest.raises(ResourceLimit):
        count_measure(level, CompileConfig(max_states=decided.peak_states - 1))
    # the infinity locus: two subsets, counted in the peak and bounded
    allp = compile_formula(parse("(n = n) & (i = i)"), ENV)
    pair = minimize(permute_tracks(allp, [1, 0]))
    cfg = CompileConfig()
    count_parameter(pair, cfg)
    assert cfg.peak_states == 2
    with pytest.raises(ResourceLimit):
        count_parameter(pair, CompileConfig(max_states=1))


def test_representation_count_binary():
    rep = representation_count({0, 1}, 2)
    for n in range(1001):
        assert rep.evaluate(n) == 1


def test_representation_count_stern():
    rep = representation_count({0, 1, 2}, 2)
    assert rep.evaluate(4) == 3
    stern = [0, 1]
    for i in range(2, 300):
        stern.append(stern[i // 2] if i % 2 == 0
                     else stern[(i - 1) // 2] + stern[(i + 1) // 2])
    for n in range(200):
        assert rep.evaluate(n) == stern[n + 1]


def test_representation_count_zero_digit_only():
    rep = representation_count({0}, 2)
    assert rep.evaluate(0) == 1
    for n in range(1, 40):
        assert rep.evaluate(n) == 0


def test_representation_count_negative_digits_infinite():
    rep = representation_count({-1, 0, 1}, 2)
    assert rep.semiring == "natinf"
    assert rep.evaluate(1) == INF


def test_representation_count_runs_under_the_callers_ceiling():
    # the carry automaton and the infinity locus count in the peak and stop
    # at the ceiling; the series does not depend on the config
    for digits, k in (({0, 1, 2}, 2), ({-1, 0, 1}, 2), ({0, 1, 3, 4}, 3)):
        cfg = CompileConfig()
        rep = representation_count(digits, k, cfg)
        assert store(rep) == store(representation_count(digits, k))
        assert cfg.peak_states > 1
        with pytest.raises(ResourceLimit):
            representation_count(digits, k, CompileConfig(max_states=cfg.peak_states - 1))
        assert store(representation_count(
            digits, k, CompileConfig(max_states=cfg.peak_states))) == store(rep)


def test_kernel_relations_digit_sum():
    s2 = LinRep("nat", 2, (0, 1),
                (((1, 0), (0, 1)), ((1, 0), (1, 1))), (1, 0))
    ks = kernel_relations(s2, 2)
    assert ks.closed
    # s_2(2n) = s_2(n) and s_2(2n+1) = s_2(n) + s_2(2n+1)-style basis
    rel_map = {r.lhs: r.combo for r in ks.relations}
    assert rel_map[(2, 0)] == {(1, 0): Fraction(1)}
    assert verify_relation(s2, (2, 0), {(1, 0): 1})
    # s_2(2n+1) = s_2(n) + 1 is affine, not linear; over the kernel it shows
    # up as s_2(4n+1) = s_2(2n+1) etc.
    assert verify_relation(s2, (4, 1), {(2, 1): 1})
    assert verify_relation(s2, (4, 2), {(2, 1): 1})
    assert not verify_relation(s2, (2, 0), {(2, 1): 1})


def test_kernel_relations_unbordered_count_pinned():
    rep = measure(TM, "unbordered-count")
    ks = kernel_relations(rep, 4)
    assert len(ks.relations) == 23
    assert ks.basis == [(1, 0), (2, 0), (2, 1), (4, 0), (4, 2), (4, 3), (8, 0), (8, 7)]
    assert ks.closed
    assert str(ks.relations[0]) == "f(4n+1) = f(2n+1)"
    assert str(ks.relations[-1]) == \
        "f(16n+15) = - 8*f(4n) + 2*f(4n+3) + 4*f(8n) + f(8n+7)"


@pytest.mark.parametrize("name, n_basis, n_relations", [
    ("pf", 16, 111), ("rs", 22, 105)])
def test_kernel_relations_at_depth_6_hold_on_evaluated_values(name, n_basis, n_relations):
    """Depth-6 systems of the unbordered count on the corpus's paperfolding
    and Rudin-Shapiro words; every relation is checked against values from
    LinRep.evaluate for n < 200, which shares nothing with the elimination."""
    x = seqgen.load((CORPUS / f"{name}.dfao").read_text())
    rep = measure(x, "unbordered-count")
    ks = kernel_relations(rep, 6)
    assert (len(ks.basis), len(ks.relations), ks.closed) == (n_basis, n_relations, True)
    top = max(m * 199 + c for m, c in ks.basis + [r.lhs for r in ks.relations])
    f = [rep.evaluate(n) for n in range(top + 1)]
    for rel in ks.relations:
        (m, c), combo = rel.lhs, rel.combo
        assert all(isinstance(coef, Fraction) for coef in combo.values()), rel
        for n in range(200):
            assert f[m * n + c] == sum(coef * f[mm * n + cc]
                                       for (mm, cc), coef in combo.items()), (str(rel), n)


def test_kernel_relations_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        kernel_relations(measure(TM, "unbordered-count"), -1)


def test_rational_view_built_once_per_series(monkeypatch):
    calls = []
    original = regseq.normalize_trailing

    def counting(l):
        calls.append(l)
        return original(l)

    monkeypatch.setattr(regseq, "normalize_trailing", counting)
    rep = measure(TM, "unbordered-count")
    assert not rep.trailing_normalized()
    assert not verify_relation(rep, (4, 1), {(2, 1): 2})  # before the view is cached
    view = regseq._rational_view(rep)
    assert not verify_relation(rep, (4, 1), {(2, 1): 2})  # after
    assert verify_relation(rep, (4, 1), {(2, 1): 1})
    kernel_relations(rep, 2)
    assert regseq._rational_view(rep) is view
    assert calls == [rep]
    # another series with other values builds and uses its own view
    s2 = LinRep("nat", 2, (0, 1), (((1, 0), (0, 1)), ((1, 0), (1, 1))), (1, 0))
    assert verify_relation(s2, (2, 0), {(1, 0): 1})
    assert not verify_relation(rep, (2, 0), {(1, 0): 1})
    assert regseq._rational_view(s2) is not view
    assert regseq._rational_view(rep) is view
    with pytest.raises(ValueError, match="infinities"):
        verify_relation(LinRep("natinf", 2, (1,), (((INF,),), ((1,),)), (1,)), (1, 0), {})


def test_kernel_relations_zero_rep():
    ks = kernel_relations(zero_rep(2), 2)
    # the zero sequence spans nothing: everything is a trivial relation
    assert all(r.combo == {} for r in ks.relations)


def test_kernel_relations_partial_flag():
    s2 = LinRep("nat", 2, (0, 1),
                (((1, 0), (0, 1)), ((1, 0), (1, 1))), (1, 0))
    ks = kernel_relations(s2, 0)
    assert not ks.closed


def test_store_load_roundtrip():
    rng = random.Random(1)
    l = rand_linrep(rng, 2, 3)
    assert load(store(l)) == l
    linf = LinRep("natinf", 2, (1, INF), (((0, 1), (2, INF)), ((1, 0), (0, 1))),
                  (1, 0))
    assert load(store(linf)) == linf
    lrat = LinRep("rat", 2, (Fraction(1, 2), 3),
                  (((Fraction(0), 1), (2, Fraction(5, 7))), ((1, 0), (0, 1))),
                  (1, Fraction(2, 3)))
    assert load(store(lrat)) == lrat


@pytest.mark.parametrize("semiring", ["nat", "natinf"])
@pytest.mark.parametrize("base", [2, 3])
def test_store_load_roundtrip_at_rank_0_and_1(semiring, base):
    top = INF if semiring == "natinf" else 2
    for l in (LinRep(semiring, base, (), ((),) * base, ()),
              LinRep(semiring, base, (1,), tuple(((d % 2,),) for d in range(base)), (top,))):
        assert load(store(l)) == l
    with pytest.raises(ValueError, match="expected 0 data lines, got 1"):
        load(f"linrep semiring={semiring} base={base} rank=0\n1\n")


def test_load_rejects_a_header_without_rank():
    with pytest.raises(ValueError, match="line 1: header has no rank= field"):
        load("linrep semiring=nat base=2\n1\n1\n1\n1\n")


def test_load_rejects_a_base_below_2():
    with pytest.raises(ValueError, match="line 1: base must be >= 2, got 0"):
        load("linrep semiring=nat base=0 rank=1\n1\n1\n")


def test_load_rejects_a_negative_rank_on_the_header_line():
    with pytest.raises(ValueError, match="line 1: rank must be >= 0, got -1"):
        load("linrep semiring=nat base=2 rank=-1\n1\n1\n")


def test_load_names_the_line_of_a_malformed_entry():
    with pytest.raises(ValueError, match="line 1: invalid literal for int.*'two'"):
        load("linrep semiring=nat base=two rank=1\n1\n1\n1\n1\n")
    with pytest.raises(ValueError, match="line 3: invalid literal for int.*'x' in 'x'"):
        load("linrep semiring=nat base=2 rank=1\n1\nx\n1\n1\n")
    with pytest.raises(ValueError, match="line 4: inf entry outside the natinf semiring"):
        load("linrep semiring=nat base=2 rank=1\n1\n1\ninf\n1\n")
    with pytest.raises(ValueError, match="line 5: .* in '1/0'"):
        load("linrep semiring=rat base=2 rank=1\n1\n1\n1\n1/0\n")


@pytest.mark.parametrize("x, kind", [
    (TM, "unbordered-count"),
    (Dfao(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, [0, 1, 2]), "subword-complexity"),
], ids=["tm-unbordered", "s3-subword"])
def test_evaluate_reads_the_canonical_digits(x, kind):
    l = measure(x, kind)
    for n in range(301):
        assert l.evaluate(n) == l.eval_word(encode_lsd(n, x.base).digits()), n
    with pytest.raises(ValueError, match="cannot encode negative value -1"):
        l.evaluate(-1)


def test_trim_drops_dead_eps_cycle():
    nfa = Nfa(2, 1, 3, initials=[0], finals=[1])
    nfa.add_edge(0, 1, 1)
    nfa.add_eps(2, 2)  # unreachable eps loop
    trimmed = trim_nfa(nfa)
    assert trimmed.n_states == 2
    rep = linrep_from_nfa(eps_saturate(trimmed))
    assert rep.semiring == "nat"
