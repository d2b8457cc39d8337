import itertools
import pathlib
import random
import sys

import pytest

from autoseq import automata, seqgen
from autoseq.analyses import measure
from autoseq.automata import (Dfa, Nfa, StateLimit, _explore, _sccs, _zero_unstable,
                              complement, determinize, equivalent, inflate,
                              is_empty, is_finite, load, minimize, pad_closure,
                              permute_tracks, product, project_many, store)
from autoseq.logic import CompileConfig, ResourceLimit, decide, parse, compile as compile_formula
from autoseq.numeration import DigitWord


def contains_one():
    """Base-2 arity-1 DFA for words containing the digit 1."""
    return Dfa(2, 1, [[0, 1], [1, 1]], 0, {1})


def singleton_13():
    """Accepts exactly the canonical lsd word 1011."""
    rows = [[5, 1], [2, 5], [5, 3], [5, 4], [5, 5], [5, 5]]
    return Dfa(2, 1, rows, 0, {4})


def all_words(k, arity, maxlen):
    syms = list(itertools.product(range(k), repeat=arity))
    for length in range(maxlen + 1):
        for combo in itertools.product(syms, repeat=length):
            yield DigitWord(k, arity, combo)


def lang_equal_on_words(a, b, maxlen=6):
    return all(a.accepts(w) == b.accepts(w) for w in all_words(a.base, a.arity, maxlen))


def test_determinize_examples():
    sigma_star = Nfa(2, 1, 1, initials=[0], finals=[0])
    sigma_star.add_edge(0, 0, 0)
    sigma_star.add_edge(0, 1, 0)
    d = determinize(sigma_star)
    assert all(d.accepts(w) for w in all_words(2, 1, 4))

    guess = Nfa(2, 1, 2, initials=[0], finals=[1])
    for dgt in (0, 1):
        guess.add_edge(0, dgt, 0)
        guess.add_edge(1, dgt, 1)
    guess.add_edge(0, 1, 1)
    got = determinize(guess)
    eq, _ = equivalent(minimize(got), minimize(contains_one()))
    assert eq

    twice = Nfa(2, 1, 2, initials=[0], finals=[1])
    twice.add_edge(0, 1, 1, mult=2)
    twice.add_edge(1, 1, 1)
    d = determinize(twice)
    assert d.accepts(DigitWord(2, 1, ((1,), (1,))))


def subset_walk(a, cap=None):
    """Reference subset construction over frozensets: (subsets, rows) with
    subsets numbered in breadth-first discovery order, symbols taken in
    order.  None once more than cap subsets are found."""
    start = frozenset(a.initials)
    ids = {start: 0}
    order = [start]
    rows = []
    for subset in order:
        if cap is not None and len(order) > cap:
            return None
        row = []
        for s in range(a.base ** a.arity):
            succ = frozenset(t for q in subset for t in a.steps[q].get(s, {}))
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            row.append(ids[succ])
        rows.append(row)
    return order, rows


def subset_construction(a, cap):
    """Dfa of subset_walk(a, cap), or None past cap."""
    walk = subset_walk(a, cap)
    if walk is None:
        return None
    order, rows = walk
    return Dfa(a.base, a.arity, rows, 0,
               {i for i, subset in enumerate(order) if subset & a.finals.keys()})


def memo_uses(subsets):
    """(misses, hits) of the byte memo of automata._subsets over subsets in
    FIFO order.  Each subset looks up its nonzero byte in every 8-state
    chunk; single-bit bytes are the rows themselves, so only bytes with two
    or more bits count: a miss the first time (chunk, byte) is seen, a hit
    after that."""
    seen = set()
    misses = hits = 0
    for subset in subsets:
        chunks = {}
        for q in subset:
            chunks[q // 8] = chunks.get(q // 8, 0) | 1 << q % 8
        for chunk, byte in chunks.items():
            if byte & byte - 1:
                hits += (chunk, byte) in seen
                misses += (chunk, byte) not in seen
                seen.add((chunk, byte))
    return misses, hits


def random_nfa(rng, n, k, arity):
    """Epsilon-free NFA with one to four edges per state (multiplicities
    up to 3), some states without edges and zero to three initial states."""
    a = Nfa(k, arity, n, initials=rng.sample(range(n), min(n, rng.choice((0, 1, 2, 2, 3)))),
            finals=[q for q in range(n) if rng.random() < 0.3])
    for q in range(n):
        if rng.random() < 0.1:
            continue
        for _ in range(rng.randrange(1, 5)):
            a.add_edge(q, rng.randrange(k ** arity), rng.randrange(n), mult=rng.randrange(1, 4))
    return a


def reverse(a):
    """Nfa of the reversed language of a Dfa or an epsilon-free Nfa.

    Every edge q -s-> t becomes t -s-> q with its multiplicity; initial
    and final states swap, weights included.
    """
    if isinstance(a, Dfa):
        edges = ((q, s, t, 1) for q, row in enumerate(a.transitions) for s, t in enumerate(row))
        initials, finals = a.finals, {a.initial}
    else:
        if a.has_eps():
            raise ValueError("reverse requires an epsilon-free NFA")
        edges = ((q, s, t, mult) for q, row in enumerate(a.steps)
                 for s, targets in row.items() for t, mult in targets.items())
        initials, finals = a.finals, a.initials
    steps = [{} for _ in range(a.n_states)]
    for q, s, t, mult in edges:
        steps[t].setdefault(s, {})[q] = mult
    return Nfa(a.base, a.arity, a.n_states, steps, initials=initials, finals=finals)


def nfa_accepts(a, word):
    states = set(a.initials)
    for s in word:
        states = {t for q in states for t in a.steps[q].get(s, {})}
    return bool(states & a.finals.keys())


def dfa_state(d, word):
    q = d.initial
    for s in word:
        q = d.transitions[q][s]
    return q


def test_determinize_matches_frozenset_subset_construction():
    rng = random.Random(5)
    sizes = []
    for n in [1, 2, 7, 8, 9, 17, 40, 63, 64, 65, 80] + [rng.randrange(1, 81) for _ in range(15)]:
        k, arity = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        want = None
        while want is None:  # redraw the few NFAs whose subsets explode
            a = random_nfa(rng, n, k, arity)
            want = subset_construction(a, 1500)
        sizes.append(want.n_states)
        assert determinize(a) == want, (n, k, arity)
        assert determinize(a, limit=want.n_states) == want
        if want.n_states > 1:  # the start subset is never refused
            with pytest.raises(StateLimit):
                determinize(a, limit=want.n_states - 1)
    assert sum(size > 40 for size in sizes) >= 10, sizes  # not only trivial cases


def test_reverse_reads_words_backwards():
    rng = random.Random(9)
    for k, arity in ((2, 1), (2, 2), (3, 1)):
        nsym = k ** arity
        words = [w for length in range(7) for w in itertools.product(range(nsym), repeat=length)]
        for _ in range(4):
            n = rng.randrange(1, 7)
            rows = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
            d = Dfa(k, arity, rows, rng.randrange(n), {q for q in range(n) if rng.random() < 0.4})
            a = random_nfa(rng, rng.randrange(1, 7), k, arity)
            rd, ra = reverse(d), reverse(a)
            for w in words:
                back = w[::-1]
                assert nfa_accepts(rd, w) == (dfa_state(d, back) in d.finals), (rows, w)
                assert nfa_accepts(ra, w) == nfa_accepts(a, back), w
            twice = reverse(ra)
            assert (twice.steps, twice.initials, twice.finals) == (a.steps, a.initials, a.finals)
    with pytest.raises(ValueError):
        eps = Nfa(2, 1, 2, initials=[0], finals=[1])
        eps.add_eps(0, 1)
        reverse(eps)


def test_project_many_counts_colliding_symbols():
    # symbols (0,0) and (1,0) both lead 0 -> 1 and project to (0,): mult 2
    a = Dfa(2, 2, [[1, 0, 1, 0], [1, 1, 1, 1]], 0, {1})
    nfa = project_many(a, {0})
    assert nfa.steps[0] == {0: {1: 2}, 1: {0: 2}}
    assert nfa.steps[1] == {0: {1: 2}, 1: {1: 2}}
    assert (nfa.initials, nfa.finals) == ({0: 1}, {1: 1})


def close_start_along_zero(nfa):
    """nfa with its start set closed along symbol 0, in place."""
    closed = set(nfa.initials)
    stack = list(closed)
    while stack:
        for q in nfa.steps[stack.pop()].get(0, ()):
            if q not in closed:
                closed.add(q)
                stack.append(q)
    nfa.initials = dict.fromkeys(closed, 1)
    return nfa


def reversed_projection(a, drop, pad):
    """reverse(project_many(a, drop)), the start closed along symbol 0 when
    pad is set."""
    rev = reverse(project_many(a, drop))
    return close_start_along_zero(rev) if pad else rev


def reverse_projection_reference(a, drop, pad, limit=None):
    """determinize(reversed_projection(a, drop, pad))."""
    return determinize(reversed_projection(a, drop, pad), limit)


def test_determinize_reverse_matches_reversed_projection():
    rng = random.Random(8)
    sizes = []
    for k, arity in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        nsym = k ** arity
        drops = [set(c) for r in range(arity) for c in itertools.combinations(range(arity), r)]
        cases = list(itertools.product(drops, (False, True)))
        for trial in range(10):
            wants = None
            while wants is None:  # redraw the few DFAs whose reversals explode
                n = rng.choice((1, 2, 5, 8, 9, 12))
                rows = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
                finals = (set(), set(range(n)))[trial] if trial < 2 else {
                    q for q in range(n) if rng.random() < 0.4}
                a = Dfa(k, arity, rows, rng.randrange(n), finals)
                try:
                    wants = [reverse_projection_reference(a, drop, pad, 1500)
                             for drop, pad in cases]
                except StateLimit:
                    pass
            for (drop, pad), want in zip(cases, wants):
                sizes.append(want.n_states)
                got = automata.determinize_reverse(a, drop, pad=pad)
                assert got == want, (rows, a.initial, finals, drop, pad)
                assert automata.determinize_reverse(a, drop, pad, want.n_states) == want
                if want.n_states > 1:  # the start subset is never refused
                    for route in (reverse_projection_reference, automata.determinize_reverse):
                        with pytest.raises(StateLimit):
                            route(a, drop, pad, limit=want.n_states - 1)
    assert sum(size > 40 for size in sizes) >= 20, sizes  # not only trivial cases


def test_projecting_a_mirror_forward_matches_the_double_reversal():
    # A quantifier block handed the mirror m of its body (the minimal DFA
    # of the reversed language) projects m forward, its start closed along
    # the projected zero: trailing zeros of the forward language lead in
    # m.  Up to minimize that is the first reversal of the forward DFA.
    rng = random.Random(20)
    sizes = []
    for k, arity in ((2, 2), (2, 3), (3, 2), (3, 3)):
        nsym = k ** arity
        drops = [set(c) for r in range(arity) for c in itertools.combinations(range(arity), r)]
        for trial in range(6):
            cases = None
            while cases is None:  # redraw the few mirrors whose projections explode
                n = rng.choice((2, 3, 5, 7))
                rows = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
                a = Dfa(k, arity, rows, rng.randrange(n),
                        {q for q in range(n) if rng.random() < 0.4})
                mirror = minimize(automata.determinize_reverse(a))
                try:
                    cases = [(m, drop, nfa, determinize(nfa, 1500))
                             for m in (mirror, complement(mirror)) for drop in drops
                             for nfa in [close_start_along_zero(project_many(m, drop))]]
                except StateLimit:
                    pass
            for m, drop, nfa, got in cases:
                assert determinize(project_many(m, drop), pad=True) == got
                forward = automata.determinize_reverse(m)
                want = minimize(automata.determinize_reverse(forward, drop, pad=True))
                assert minimize(got) == want, (rows, a.initial, a.finals, m == mirror, drop)
                sizes.append(got.n_states)
                if got.n_states > 1:  # the start subset is never refused
                    with pytest.raises(StateLimit):
                        determinize(nfa, limit=got.n_states - 1)
                    with pytest.raises(ResourceLimit):
                        CompileConfig(max_states=got.n_states - 1).build(determinize, nfa)
    assert sum(size > 10 for size in sizes) >= 20, sizes  # not only trivial cases


def funnel_dfa(rng, n, k, arity, heavy):
    """Complete DFA whose symbols other than 0 each map onto a few states,
    so its reversal stays small.  Symbol 0 swaps random pairs of states, an
    involution, so every state is some state's successor: its reversed row
    is never empty, and a subset's row depends on every member.  With
    heavy, a final state z absorbs itself and about 60% of the states on
    every other symbol: every reversed subset then holds z's large fibre."""
    nsym = k ** arity
    images = [rng.sample(range(n), rng.randrange(3, 7)) for _ in range(nsym)]
    z = rng.randrange(n)
    rows = [[z if heavy and (q == z or rng.random() < 0.6) else rng.choice(images[s])
             for s in range(nsym)] for q in range(n)]
    pairs = rng.sample(range(n), n)
    for p, q in zip(pairs[::2], pairs[1::2]):
        rows[p][0], rows[q][0] = q, p
    if n % 2:
        rows[pairs[-1]][0] = pairs[-1]
    finals = {q for q in range(n) if rng.random() < rng.choice((0.3, 0.6, 0.9))}
    return Dfa(k, arity, rows, rng.randrange(n), finals | {z} if heavy else finals)


def test_determinize_reverse_without_projection_matches_reversal():
    # The references are frozenset subset constructions, so a fault in the
    # shared _subsets kernel cannot cancel out on both sides.
    rng = random.Random(15)
    uses = [0, 0]
    entered = states = 0
    for trial in range(24):
        k, arity = rng.choice(((2, 1), (2, 2), (3, 1), (3, 2)))
        a = funnel_dfa(rng, rng.randrange(40, 121), k, arity, heavy=trial % 3 == 0)
        entered += len({t for row in a.transitions for t in row})
        states += a.n_states
        want = subset_construction(reverse(a), None)
        uses = [x + y for x, y in zip(uses, memo_uses(subset_walk(reverse(a))[0]))]
        assert automata.determinize_reverse(a) == want, trial
        assert automata.determinize_reverse(a, pad=True) == subset_construction(
            reversed_projection(a, (), True), None)
        if want.n_states > 1:
            with pytest.raises(StateLimit):
                automata.determinize_reverse(a, limit=want.n_states - 1)
    # most states are some state's successor, so their reversed rows are
    # not empty; the draws build multi-bit memo rows (misses) and reuse them
    # (hits)
    assert entered >= 0.9 * states, (entered, states)
    assert min(uses) >= 50, uses


def overlapping_nfa(rng, n, k, arity):
    """Epsilon-free NFA whose rows overlap: on each symbol every state
    enters one to three states of that symbol's shared pool."""
    nsym = k ** arity
    pools = [rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(nsym)]
    a = Nfa(k, arity, n, initials=rng.sample(range(n), min(n, rng.randrange(1, 3))),
            finals=[q for q in range(n) if rng.random() < 0.4])
    for q in range(n):
        for s, pool in enumerate(pools):
            for t in rng.sample(pool, min(len(pool), rng.randrange(1, 4))):
                a.add_edge(q, s, t)
    return a


def image_dfa(rng, n, k, arity):
    """Complete DFA whose every symbol leads into two to four states, so
    its reversal stays small."""
    nsym = k ** arity
    images = [rng.sample(range(n), min(n, rng.randrange(2, 5))) for _ in range(nsym)]
    rows = [[rng.choice(images[s]) for s in range(nsym)] for _ in range(n)]
    return Dfa(k, arity, rows, rng.randrange(n), {q for q in range(n) if rng.random() < 0.4})


def test_subset_memo_at_chunk_boundaries():
    # n = 1 and 7 leave the only 8-state chunk partial, 8 and 16 fill their
    # chunks exactly, 9 and 65 add a partial chunk after full ones.
    rng = random.Random(23)
    uses = {}

    def tally(key, subsets):
        misses, hits = memo_uses(subsets)
        was = uses.get(key, (0, 0))
        uses[key] = (was[0] + misses, was[1] + hits)

    for n in (1, 7, 8, 9, 16, 65):
        for trial in range(4):
            k, arity = rng.choice(((2, 1), (2, 2), (3, 1)))
            walk = None
            while walk is None:  # redraw the few NFAs whose subsets explode
                a = overlapping_nfa(rng, n, k, arity)
                walk = subset_walk(a, 1500)
            assert determinize(a) == subset_construction(a, 1500), (n, trial)
            tally((n, "nfa"), walk[0])
            for drop, pad in (((), False), ((), True), ({0}, False), ({1}, True)):
                want = None
                while want is None:  # redraw the few DFAs whose reversals explode
                    d = image_dfa(rng, n, k, 2)
                    try:
                        want = reverse_projection_reference(d, drop, pad, 1500)
                    except StateLimit:
                        pass
                got = automata.determinize_reverse(d, drop, pad)
                assert got == want, (n, d.transitions, d.initial, d.finals, drop, pad)
                tally((n, "reverse" if drop else "mirror"),
                      subset_walk(reversed_projection(d, drop, pad))[0])
    # every kind of construction builds memo rows past the first chunk, and
    # with two chunks or more it reuses them
    for (n, kind), (misses, hits) in uses.items():
        assert n < 7 or misses > 0, (n, kind, uses)
        assert n < 16 or hits > 0, (n, kind, uses)


def test_dfa_rejects_out_of_range_targets():
    with pytest.raises(ValueError, match="transition target 5 out of range"):
        Dfa(2, 1, [[0, 1], [5, -1]], 0, set())
    with pytest.raises(ValueError, match="transition target -1 out of range"):
        Dfa(2, 1, [[0, 1], [-1, 5]], 0, set())
    with pytest.raises(ValueError, match="transition target 2 out of range"):
        Dfa(2, 1, [[0, 2], [0, 0]], 0, set())
    with pytest.raises(ValueError, match="not total"):
        Dfa(2, 1, [[0, 1], [0]], 0, set())


def test_complement():
    every = Dfa(2, 1, [[0, 0]], 0, {0})
    nothing = complement(every)
    assert not any(nothing.accepts(w) for w in all_words(2, 1, 4))
    flip = complement(contains_one())
    for w in all_words(2, 1, 4):
        assert flip.accepts(w) == all(s == (0,) for s in w.symbols)
    eq, _ = equivalent(complement(flip), contains_one())
    assert eq


def test_product():
    a = contains_one()
    assert lang_equal_on_words(product(a, a, "and"), a)
    e, _ = is_empty(product(a, complement(a), "and"))
    assert e
    both = product(complement(a), a, "or")
    assert all(both.accepts(w) for w in all_words(2, 1, 4))
    conj = product(a, singleton_13(), "and")
    for w in all_words(2, 1, 5):
        assert not conj.accepts(w) or a.accepts(w)


def test_project_and_inflate():
    # {(n, i) : i = n}: every n has a witness, so the projection is everything
    eq = Dfa(2, 2, [[0, 1, 1, 0], [1] * 4], 0, {0})
    all_n = pad_closure(determinize(project_many(eq, {1})))
    assert all(all_n.accepts_values((n,)) for n in range(20))

    # {(n, i) : n = 2i}: project the witness, keep even n
    from autoseq.logic import parse, compile as lcompile
    from autoseq.seqgen import thue_morse
    dfa = lcompile(parse("n = 2*i"), {"x": thue_morse()})  # tracks (i, n)
    evens = pad_closure(determinize(project_many(dfa, {0})))
    for n in range(17):
        assert evens.accepts_values((n,)) == (n % 2 == 0)

    nothing = Dfa(2, 2, [[0] * 4], 0, set())
    empty_proj = determinize(project_many(nothing, {0}))
    e, _ = is_empty(empty_proj)
    assert e

    grown = inflate(Dfa(2, 1, [[0, 0]], 0, {0}), 0)
    assert grown.arity == 2 and all(grown.accepts(w) for w in all_words(2, 2, 3))
    assert not any(inflate(Dfa(2, 1, [[0, 0]], 0, set()), 0).accepts(w)
                   for w in all_words(2, 2, 3))


def test_pad_closure_examples():
    only_1 = Dfa(2, 1, [[2, 1], [2, 2], [2, 2]], 0, {1})
    closed = pad_closure(only_1)
    for j in range(4):
        assert closed.accepts(DigitWord(2, 1, ((1,),) + ((0,),) * j))
    assert not closed.accepts(DigitWord(2, 1, ((0,), (1,))))
    assert pad_closure(closed) == closed

    # accepts exactly "10" (value 1 with one pad): closure restores both sides
    one_pad = Dfa(2, 1, [[3, 1], [2, 3], [3, 3], [3, 3]], 0, {2})
    closed = pad_closure(one_pad)
    for n in range(32):
        assert closed.accepts_values((n,)) == (n == 1)


def test_zero_unstable_decides_pad_closure():
    rng = random.Random(21)
    closed_count = [0, 0]
    for trial in range(300):
        k, arity = rng.choice(((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)))
        n = rng.randrange(1, 9)
        rows = [[rng.randrange(n) for _ in range(k ** arity)] for _ in range(n)]
        if trial % 2:  # zero self-loops, a few redirected: both outcomes stay common
            for q in range(n):
                rows[q][0] = q if rng.random() < 0.9 else rng.randrange(n)
        finals = {q for q in range(n) if rng.random() < 0.5}
        a = Dfa(k, arity, rows, rng.randrange(n), finals)
        got = _zero_unstable(a.transitions, a.initial, a.finals.__contains__)
        closed, _ = equivalent(a, pad_closure(a))
        assert (got is None) == closed, (rows, a.initial, finals)
        reach, stack = {a.initial}, [a.initial]
        while stack:
            for t in rows[stack.pop()]:
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        offenders = sorted(q for q in reach if (q in finals) != (rows[q][0] in finals))
        assert got == (offenders[0] if offenders else None), (rows, a.initial, finals)
        closed_count[closed] += 1
    assert min(closed_count) >= 100, closed_count


def test_minimize_idempotent_and_canonical():
    redundant = Dfa(2, 1, [[1, 3], [2, 3], [1, 3], [3, 3]], 0, {0, 1, 2})
    m = minimize(redundant)
    assert m.n_states == 2
    assert minimize(m) == m
    # language-equal automata minimize to structurally identical results
    other = Dfa(2, 1, [[0, 1], [1, 1]], 0, {0})
    eq, _ = equivalent(redundant, other)
    assert eq
    assert minimize(other) == m


def apart_pairs(a):
    """Reference: the ordered pairs of states of a that some word tells
    apart, by pairwise table filling backwards from (final, non-final)."""
    n = a.n_states
    pre = [[[] for _ in range(n)] for _ in range(len(a.transitions[0]))]
    for q, row in enumerate(a.transitions):
        for s, t in enumerate(row):
            pre[s][t].append(q)
    apart = {(p, q) for p in range(n) for q in range(n) if (p in a.finals) != (q in a.finals)}
    stack = list(apart)
    while stack:
        p, q = stack.pop()
        for into in pre:
            for p0 in into[p]:
                for q0 in into[q]:
                    if (p0, q0) not in apart:
                        apart.add((p0, q0))
                        stack.append((p0, q0))
    return apart


def reference_minimize(a):
    """Minimal DFA from the table-filling classes (each named by its least
    state), numbered breadth-first from the initial class with symbols in
    lexicographic order."""
    apart = apart_pairs(a)
    cls = [min(p for p in range(a.n_states) if (p, q) not in apart) for q in range(a.n_states)]
    order = [cls[a.initial]]
    rows = []
    for c in order:
        row = []
        for t in a.transitions[c]:
            if cls[t] not in order:
                order.append(cls[t])
            row.append(order.index(cls[t]))
        rows.append(row)
    return Dfa(a.base, a.arity, rows, 0, {i for i, c in enumerate(order) if c in a.finals})


def random_dfa(rng, n_max=14):
    k = rng.choice((2, 3))
    arity = rng.choice((1, 2))
    nsym = k ** arity
    n = rng.randrange(1, n_max + 1)
    shape = rng.random()
    if shape < 0.25:  # chain into an absorbing state: deep distinguishing
        rows = [[min(q + 1, n - 1)] * nsym for q in range(n)]
    else:
        rows = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
    pick = rng.random()
    if pick < 0.1:
        finals = set()
    elif pick < 0.2:
        finals = set(range(n))
    else:
        finals = {q for q in range(n) if rng.random() < 0.4}
    return Dfa(k, arity, rows, rng.randrange(n), finals)


def with_unreachable(rng, a, extra):
    """a plus `extra` states that nothing reaches (they may reach a)."""
    n = a.n_states + extra
    rows = [list(r) for r in a.transitions]
    rows += [[rng.randrange(n) for _ in range(len(rows[0]))] for _ in range(extra)]
    finals = set(a.finals) | {q for q in range(a.n_states, n) if rng.random() < 0.5}
    return Dfa(a.base, a.arity, rows, a.initial, finals)


def renumbered(a, perm):
    """The same DFA with state q renamed perm[q]."""
    rows = [None] * a.n_states
    for q, row in enumerate(a.transitions):
        rows[perm[q]] = [perm[t] for t in row]
    return Dfa(a.base, a.arity, rows, perm[a.initial], {perm[q] for q in a.finals})


def counting_hopcroft(monkeypatch):
    calls = []
    real = automata._hopcroft

    def spy(trans, cls, count):
        assert sorted(set(cls)) == list(range(count))  # _hopcroft indexes blocks by id
        calls.append(len(trans))
        return real(trans, cls, count)

    monkeypatch.setattr(automata, "_hopcroft", spy)
    return calls


def deep_chain(n, nsym=2):
    """Chain of n states and a sink accepting only words of length n - 1:
    state i is told apart from i + 1 first by words of length n - 1 - i,
    so the distinguishing depth is n - 1."""
    rows = [[q + 1] * nsym for q in range(n - 1)] + [[n] * nsym, [n] * nsym]
    return Dfa(2, 1 if nsym == 2 else 2, rows, 0, {n - 1})


def test_minimize_matches_table_filling_on_random_dfas(monkeypatch):
    hopcroft_calls = counting_hopcroft(monkeypatch)
    rng = random.Random(2024)
    for i in range(400):
        a = random_dfa(rng)
        if i % 3 == 0:
            a = with_unreachable(rng, a, rng.randrange(1, 5))
        assert minimize(a) == reference_minimize(a), (a.transitions, a.initial, a.finals)
    # the draws include chains deep enough to be handed to Hopcroft
    assert 0 < len(hopcroft_calls) < 400


def test_minimize_hands_deep_chains_to_hopcroft(monkeypatch):
    hopcroft_calls = counting_hopcroft(monkeypatch)
    deep = deep_chain(1500)
    m = minimize(deep)
    assert hopcroft_calls == [deep.n_states]
    assert m == deep  # already minimal and in breadth-first order
    hopcroft_calls.clear()
    # shallow: every state reaches every other within a few digits
    rows = [[(q * 3 + s) % 40 for s in range(4)] for q in range(40)]
    shallow = Dfa(2, 2, rows, 0, {q for q in range(40) if q % 3 == 1})
    assert minimize(shallow) == reference_minimize(shallow)
    assert hopcroft_calls == []


def test_hopcroft_refines_any_sound_seed_to_language_classes():
    rng = random.Random(11)
    for _ in range(200):
        a = with_unreachable(rng, random_dfa(rng), rng.randrange(3))
        n = a.n_states
        apart = apart_pairs(a)
        # seed: acceptance, with some language classes already split off
        seed = {}
        cls = []
        for q in range(n):
            rep = min(p for p in range(n) if (p, q) not in apart)
            key = (q in a.finals, rep if rep % 3 == 0 else None)
            cls.append(seed.setdefault(key, len(seed)))
        out = automata._hopcroft(a.transitions, cls, len(seed))
        for p in range(n):
            for q in range(n):
                assert (out[p] != out[q]) == ((p, q) in apart), (a.transitions, a.finals, cls)


def test_minimize_ignores_state_numbering():
    rng = random.Random(77)
    for _ in range(150):
        a = random_dfa(rng)
        if rng.random() < 0.5:
            a = with_unreachable(rng, a, rng.randrange(1, 4))
        perm = list(range(a.n_states))
        rng.shuffle(perm)
        assert minimize(renumbered(a, perm)) == minimize(a)
    deep = deep_chain(300, nsym=4)
    perm = list(range(deep.n_states))
    rng.shuffle(perm)
    assert minimize(renumbered(deep, perm)) == minimize(deep) == deep


def test_is_empty_examples():
    nothing = Dfa(2, 1, [[0, 0]], 0, set())
    e, wit = is_empty(nothing)
    assert e and wit is None
    every = Dfa(2, 1, [[0, 0]], 0, {0})
    e, wit = is_empty(every)
    assert not e and len(wit) == 0
    e, wit = is_empty(singleton_13())
    assert not e and str(wit) == "1011"


def test_is_finite_examples():
    assert is_finite(Dfa(2, 1, [[0, 0]], 0, set()))
    assert not is_finite(Dfa(2, 1, [[0, 0]], 0, {0}))
    assert is_finite(singleton_13())


def test_equivalent_examples():
    a = contains_one()
    eq, _ = equivalent(a, a)
    assert eq
    eq, cex = equivalent(a, complement(a))
    assert not eq and cex is not None
    with pytest.raises(ValueError):
        equivalent(a, Dfa(3, 1, [[0, 0, 0]], 0, set()))


def test_eps_eliminate():
    # epsilon removal is regseq.eps_saturate; it keeps the language of
    # plain, chained and looping eps moves
    from autoseq.regseq import eps_saturate

    def language(a, maxlen=4):
        d = determinize(eps_saturate(a))
        return {w for n in range(maxlen + 1) for w in itertools.product(range(2), repeat=n)
                if d.accepts(DigitWord(2, 1, tuple((x,) for x in w)))}

    plain = Nfa(2, 1, 2, initials=[0], finals=[1])
    plain.add_edge(0, 1, 1)
    assert language(plain) == {(1,)}

    chained = Nfa(2, 1, 2, initials=[0], finals=[1])
    chained.add_eps(0, 1)
    assert 0 in eps_saturate(chained).finals  # the initial state became accepting
    assert language(chained) == {()}

    loop = Nfa(2, 1, 2, initials=[0], finals=[1])
    loop.add_eps(0, 0)
    loop.add_eps(0, 1)
    loop.add_edge(1, 1, 1)
    assert language(loop) == {(1,) * j for j in range(5)}


def test_permute_tracks():
    from autoseq.logic import parse, compile as lcompile
    from autoseq.seqgen import thue_morse
    lt = lcompile(parse("i < n"), {"x": thue_morse()})  # tracks (i, n)
    gt = permute_tracks(lt, [1, 0])
    for i in range(8):
        for n in range(8):
            assert gt.accepts_values((n, i)) == (i < n)


def test_store_load_roundtrip():
    d = singleton_13()
    assert load(store(d)) == d
    n = Nfa(2, 1, 3, initials=[0, 1], finals=[2])
    n.add_edge(0, 1, 2, mult=3)
    n.add_eps(1, 2)
    text = store(n)
    again = load(text)
    assert store(again) == text
    with pytest.raises(ValueError):
        load("dfa base=2 arity=1 states=2 initial=0 finals=1\n0 0 1 1\n")


def test_load_rejects_a_header_without_finals():
    with pytest.raises(ValueError, match="line 1: header has no finals= field"):
        load("dfa base=2 arity=1 states=1 initial=0\n0 0 1 0\n0 1 1 0\n")


def test_load_rejects_a_transition_from_a_missing_state():
    with pytest.raises(ValueError, match="line 3: state or symbol out of range in '1 0 1 0'"):
        load("dfa base=2 arity=1 states=1 initial=0 finals=0\n0 0 1 0\n1 0 1 0\n")


def test_load_rejects_a_digit_outside_the_base():
    with pytest.raises(ValueError, match="line 2: state or symbol out of range in '0 2 1 0'"):
        load("dfa base=2 arity=1 states=1 initial=0 finals=0\n0 2 1 0\n")
    with pytest.raises(ValueError, match="line 1: base must be >= 2, got 1"):
        load("dfa base=1 arity=1 states=1 initial=0 finals=0\n0 0 1 0\n")


def test_load_rejects_a_header_out_of_bounds():
    for header, message in (
            ("nfa base=1 arity=1 states=1 initial=0", "base must be >= 2, got 1"),
            ("nfa base=2 arity=-2 states=1 initial=0", "arity must be >= 0, got -2"),
            ("nfa base=2 arity=1 states=-1 initial=", "states must be >= 0, got -1"),
            ("dfa base=2 arity=-1 states=1 initial=0", "arity must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"line 1: {message}"):
            load(f"{header} finals=\n")


def test_load_names_the_line_of_a_non_integer_field():
    with pytest.raises(ValueError, match="line 1: invalid literal for int.*'two'"):
        load("dfa base=two arity=1 states=1 initial=0 finals=0\n0 0 1 0\n0 1 1 0\n")
    with pytest.raises(ValueError, match="line 2: invalid literal for int.*'x' in '0 x 1 0'"):
        load("dfa base=2 arity=1 states=1 initial=0 finals=0\n0 x 1 0\n0 1 1 0\n")
    with pytest.raises(ValueError, match="line 3: invalid literal for int.*'q' in 'q 1 1 0'"):
        load("nfa base=2 arity=1 states=1 initial=0 finals=0\n0 0 1 0\nq 1 1 0\n")


def test_random_projection_inflation_roundtrip():
    rng = random.Random(42)
    pick = random.Random(7)  # separate stream: the single-track draws stay as they were
    for _ in range(25):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(n) for _ in range(4)] for _ in range(n)]
        finals = {q for q in range(n) if rng.random() < 0.4}
        a = Dfa(2, 2, rows, 0, finals)
        t = rng.randrange(3)
        grown = inflate(a, t)
        back = pad_closure(determinize(project_many(grown, {t})))
        eq, cex = equivalent(back, pad_closure(a))
        assert eq, (rows, finals, t, cex)
        # several tracks in one rebuild equal one track at a time
        positions = sorted(pick.sample(range(4), 2))
        grown2 = inflate(a, *positions)
        assert grown2 == inflate(inflate(a, positions[0]), positions[1])
        back2 = pad_closure(determinize(project_many(grown2, positions)))
        eq, cex = equivalent(back2, pad_closure(a))
        assert eq, (rows, finals, positions, cex)


def test_explore_numbers_fifo_and_stops_at_limit():
    keys, rows = _explore(0, lambda q: [(2 * q) % 5, (q + 3) % 5])
    assert keys == [0, 3, 1, 2, 4]
    assert rows == [[0, 1], [2, 2], [3, 4], [4, 0], [1, 3]]
    assert _explore(0, lambda q: [(q + 1) % 5], limit=5)[0] == [0, 1, 2, 3, 4]
    with pytest.raises(StateLimit):
        _explore(0, lambda q: [(q + 1) % 5], limit=4)
    # the limit counts states: key number `limit` is the first one refused
    seen = []
    with pytest.raises(StateLimit):
        _explore(0, lambda q: seen.append(q) or [q + 1], limit=3)
    assert seen == [0, 1, 2]


def _mutually_reachable(n, edges):
    reach = [{q} for q in range(n)]
    changed = True
    while changed:
        changed = False
        for q in range(n):
            new = set().union(*(reach[t] for t in edges[q])) - reach[q]
            if new:
                reach[q] |= new
                changed = True
    return reach


def test_sccs_against_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 9)
        edges = [sorted({rng.randrange(n) for _ in range(rng.randrange(3))})
                 for _ in range(n)]  # includes self-loops and isolated nodes
        comps = _sccs(range(n), edges.__getitem__)
        assert sorted(q for comp in comps for q in comp) == list(range(n))
        reach = _mutually_reachable(n, edges)
        comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
        for p in range(n):
            for q in range(n):
                same = q in reach[p] and p in reach[q]
                assert (comp_of[p] == comp_of[q]) == same, (edges, comps)
        # reverse topological order: an edge never leads to a later component
        for p in range(n):
            assert all(comp_of[q] <= comp_of[p] for q in edges[p]), (edges, comps)


CORPUS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus"


def test_unchecked_producers_are_faithful(monkeypatch):
    """Tables the engine numbers itself skip Dfa's checks (Dfa._from_rows).
    Each such automaton, from every producer, must pass those checks and
    equal its rebuild through Dfa(...), stored as tuples and a frozenset."""
    built = {}
    from_rows = Dfa._from_rows

    def recording(cls, *args):
        d = from_rows(*args)
        built.setdefault(sys._getframe(1).f_code.co_name, []).append(d)
        return d

    monkeypatch.setattr(Dfa, "_from_rows", classmethod(recording))
    for name in ("tm", "rs"):
        x = seqgen.load((CORPUS / f"{name}.dfao").read_text())
        for kind in ("subword-complexity", "unbordered-count", "recurrence-R"):
            measure(x, kind)
        for text in ("A i E j (i < j) & (x[j] != x[j+1])",
                     "E n (n > 0) & A i ((i < n) => (x[i] = x[i+n]))"):
            decide(parse(text), {"x": x})
        a = compile_formula(parse("(x[i] = x[i+n]) & (i < n)"), {"x": x})
        for d in (complement(a), inflate(a, 1), permute_tracks(a, [1, 0]), pad_closure(a)):
            assert d.n_states
    assert set(built) == {"_subsets", "product", "minimize", "complement", "inflate",
                          "permute_tracks", "pad_closure", "_linear_atom", "index_atom"}
    for d in (d for ds in built.values() for d in ds):
        assert type(d.transitions) is tuple and all(type(r) is tuple for r in d.transitions)
        assert type(d.finals) is frozenset
        checked = Dfa(d.base, d.arity, d.transitions, d.initial, d.finals)
        assert checked == d and hash(checked) == hash(d)
