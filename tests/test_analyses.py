import pathlib

import pytest

from autoseq.analyses import (FactorComparison, conjectured_bordered_lengths,
                              factor_set_compare, has_arbitrarily_large_unbordered,
                              has_unbounded_exponent, indicator,
                              linear_complexity_check, measure,
                              permutation_order, recurrence_flags,
                              unbordered_characteristic)
from autoseq.automata import Dfa, equivalent, is_empty, minimize, pad_closure, permute_tracks
from autoseq.logic import CompileConfig, ResourceLimit, parse, compile as compile_formula
from autoseq.oracle import CertificationError, PrefixContext, brute, thue_morse_prefix
from autoseq.regseq import INF, count_parameter
from autoseq.seqgen import Dfao, load, prefix, thue_morse

TM = thue_morse()
CTX = PrefixContext(thue_morse_prefix(10 ** 4))
CONST0 = Dfao(2, [[0, 0]], 0, [0])
# x[n] = n mod 2, i.e. the periodic word 0101...
PERIOD2 = Dfao(2, [[1, 2], [1, 1], [2, 2]], 0, [0, 0, 1])
SWAPPED = Dfao(2, TM.transitions, TM.initial, [1, 0])
RS = load((pathlib.Path(__file__).resolve().parents[1]
           / "bench" / "corpus" / "rs.dfao").read_text())


def periodic(word):
    """Base-2 Dfao for the purely periodic sequence word^w; a state holds
    (value so far mod p, 2^digits mod p)."""
    p = len(word)
    trans = [[((r + d * w) % p) * p + (2 * w) % p for d in (0, 1)]
             for r in range(p) for w in range(p)]
    return Dfao(2, trans, 1, [word[r] for r in range(p) for _ in range(p)])


def test_indicator_square_begin():
    ind = indicator(TM, "square", "begin")
    w = CTX.word
    for i in range(60):
        want = any(w[i:i + q] == w[i + q:i + 2 * q] for q in range(1, 40))
        assert ind.evaluate(i) == (1 if want else 0)
    assert ind.evaluate(2) == 1  # square 00 begins at position 2


def test_indicator_overlap_begin_all_zero():
    ind = indicator(TM, "overlap", "begin")
    assert all(ind.evaluate(i) == 0 for i in range(300))


def test_indicator_palindrome_trivial_ones():
    ind = indicator(TM, "palindrome", "begin")
    assert all(ind.evaluate(i) == 1 for i in range(50))


def test_indicator_square_center():
    ind = indicator(TM, "square", "center")
    w = CTX.word
    for i in range(50):
        want = any(i >= q and w[i - q:i] == w[i:i + q] for q in range(1, 30))
        assert ind.evaluate(i) == (1 if want else 0)


@pytest.mark.parametrize("x", [TM, RS], ids=["tm", "rs"])
def test_indicator_agrees_with_count_at(x):
    # both are built from one predicate per object and anchor: some
    # object sits at i exactly when the count of objects at i is nonzero
    for obj in ("square", "palindrome"):
        for anchor in ("begin", "center", "end"):
            ind = indicator(x, obj, anchor)
            count = measure(x, f"{obj}-count-at", anchor=anchor)
            for i in range(64):
                assert (ind.evaluate(i) == 1) == (count.evaluate(i) != 0), (obj, anchor, i)


def test_indicator_undefined_combo():
    with pytest.raises(ValueError):
        indicator(TM, "overlap", "center")


def test_unbordered_characteristic():
    ch = unbordered_characteristic(TM)
    assert ch.evaluate(31) == 1
    assert ch.evaluate(1) == 1
    for n in range(1, 200):
        if n % 6 != 1:
            assert ch.evaluate(n) == 1, n
    # engine agrees with brute force over a prefix
    w = CTX.word

    def has_unbordered(n):
        if n == 0:
            return True
        for j in range(0, 2500 - n):
            fac = w[j:j + n]
            if all(fac[:l] != fac[n - l:] for l in range(1, n // 2 + 1)):
                return True
        return False

    for n in range(40):
        assert ch.evaluate(n) == (1 if has_unbordered(n) else 0), n


def test_measure_unbordered_count_table():
    rep = measure(TM, "unbordered-count")
    assert [rep.evaluate(n) for n in range(1, 17)] == \
        [2, 2, 4, 2, 4, 6, 0, 4, 4, 4, 4, 12, 0, 4, 4, 8]


def test_measure_subword_complexity():
    rep = measure(TM, "subword-complexity")
    assert rep.evaluate(0) == 1
    for n in range(1, 30):
        assert rep.evaluate(n) == brute("subword-complexity", CTX, n)


def test_measure_window_kinds_match_oracle():
    for kind in ("recurrence-R", "appearance-A", "separator-S", "repetitivity-I"):
        rep = measure(TM, kind)
        for n in range(1, 10):
            assert rep.evaluate(n) == brute(kind, CTX, n), (kind, n)


def test_measure_square_kinds_match_oracle():
    for kind in ("square-count-at", "longest-square-at"):
        for anchor in ("begin", "center", "end"):
            rep = measure(TM, kind, anchor=anchor)
            for pos in range(20):
                assert rep.evaluate(pos) == brute(kind, CTX, pos, anchor=anchor), \
                    (kind, anchor, pos)


def test_measure_palindromes_at_positions_are_infinite():
    # Thue-Morse has palindromes of lengths 4^k at position 0, so both the
    # count and the longest length are infinite; the oracle refuses.
    rep = measure(TM, "palindrome-count-at")
    assert rep.semiring == "natinf"
    assert rep.evaluate(0) == INF
    with pytest.raises(CertificationError):
        brute("palindrome-count-at", CTX, 0)
    rep = measure(TM, "longest-palindrome-at")
    assert rep.evaluate(3) == INF


def test_measure_fractional_power():
    rep = measure(TM, "longest-fractional-power-at")
    for pos in range(16):
        assert rep.evaluate(pos) == brute("longest-fractional-power-at", CTX, pos)


def test_measure_two_sequence_kinds():
    ctx2 = PrefixContext([1 - v for v in CTX.word])
    both = measure(TM, "factors-in-both", y=SWAPPED)
    notin = measure(TM, "factors-in-x-not-y", y=SWAPPED)
    for n in range(10):
        assert both.evaluate(n) == brute("factors-in-both", CTX, n, ctx2=ctx2)
        assert notin.evaluate(n) == brute("factors-in-x-not-y", CTX, n, ctx2=ctx2)
    with pytest.raises(ValueError):
        measure(TM, "factors-in-both")
    with pytest.raises(ValueError):
        measure(TM, "subword-complexity", y=SWAPPED)


def test_measure_recurrent_factors_on_recurrent_sequence():
    rep = measure(TM, "recurrent-factor-count")
    sub = measure(TM, "subword-complexity")
    for n in range(14):
        assert rep.evaluate(n) == sub.evaluate(n)


def test_measure_anchor_validation():
    with pytest.raises(ValueError):
        measure(TM, "subword-complexity", anchor="begin")
    with pytest.raises(ValueError):
        measure(TM, "longest-fractional-power-at", anchor="center")


def test_permutation_order_properties():
    less = permutation_order(TM)
    w = thue_morse_prefix(4000)

    def shift_less(i, j):
        for t in range(2000):
            if w[i + t] != w[j + t]:
                return w[i + t] < w[j + t]
        raise AssertionError("horizon exhausted")

    assert less.accepts_values((0, 1))  # 011... < 110...
    for i in range(24):
        assert not less.accepts_values((i, i))
        for j in range(24):
            if i != j:
                expected = shift_less(i, j)
                assert less.accepts_values((i, j)) == expected
                assert less.accepts_values((j, i)) == (not expected)


def test_permutation_complexity():
    rep = measure(TM, "permutation-complexity")
    assert rep.evaluate(0) == 1
    assert rep.evaluate(1) == 1
    for n in range(1, 10):
        assert rep.evaluate(n) == brute("permutation-complexity", CTX, n)


def test_has_unbounded_exponent():
    assert has_unbounded_exponent(TM) is False
    assert has_unbounded_exponent(CONST0) is True
    assert has_unbounded_exponent(PERIOD2) is True


def test_has_arbitrarily_large_unbordered():
    assert has_arbitrarily_large_unbordered(TM) is True
    assert has_arbitrarily_large_unbordered(CONST0) is False
    # periodic 0101...: every factor of length >= 3 is bordered (odd lengths
    # share their first and last letter, even lengths have border "01"), so
    # only lengths 1 and 2 admit unbordered factors
    assert has_arbitrarily_large_unbordered(PERIOD2) is False
    wp = [i % 2 for i in range(2000)]
    lengths = set()
    for n in range(1, 80):
        for start in (0, 1):
            fac = tuple(wp[start:start + n])
            if all(fac[:l] != fac[n - l:] for l in range(1, n // 2 + 1)):
                lengths.add(n)
    assert lengths == {1, 2}


def test_recurrence_flags():
    assert recurrence_flags(TM) == (True, True, False)
    assert recurrence_flags(CONST0) == (True, True, True)
    # characteristic sequence of powers of two
    pow2 = Dfao(2, [[0, 1], [1, 2], [2, 2]], 0, [0, 1, 0])
    assert recurrence_flags(pow2) == (False, False, False)


def test_factor_set_compare():
    assert factor_set_compare(TM, TM).equal
    cmp2 = factor_set_compare(TM, SWAPPED)
    assert cmp2.equal
    # cross-check on prefix factor sets
    w1 = CTX.word
    w2 = tuple(1 - v for v in w1)
    for n in (1, 2, 3, 5, 8):
        assert {w1[i:i + n] for i in range(3000)} == {w2[i:i + n] for i in range(3000)}
    cmp3 = factor_set_compare(TM, CONST0)
    assert not cmp3.equal
    assert cmp3.distinguishing_length == 1
    assert cmp3.distinguishing_factor == ("x", (1,))
    # neither direction: "1" is not a factor of 0^w, and cube-freeness keeps
    # 000 out of the Thue-Morse word
    assert not cmp3.x_subset_of_y and not cmp3.y_subset_of_x
    assert cmp3.tower_bound == "2^(2^(2^(2*2^2)))"
    # 00 is the shortest factor of 0^w missing from 0101..., but 1 is a
    # shorter one the other way, so the y side is reported
    cmp4 = factor_set_compare(CONST0, PERIOD2)
    assert cmp4.distinguishing_length == 1
    assert cmp4.distinguishing_factor == ("y", (1,))
    # (00001)^w and (000001)^w: 100001 is missing one way, 00000 the other.
    # Lengths 5, 6, 7 all encode in 3 binary digits and the lex-least word
    # among them is 011 = 6, so the length must not be read off that word.
    cmp5 = factor_set_compare(periodic([0, 0, 0, 0, 1]), periodic([0, 0, 0, 0, 0, 1]))
    assert cmp5.distinguishing_length == 5
    assert cmp5.distinguishing_factor == ("y", (0, 0, 0, 0, 0))


def test_linear_complexity_check():
    sub = measure(TM, "subword-complexity")
    verdict = linear_complexity_check(sub)
    assert verdict.bounded
    assert verdict.coefficient > 0 and verdict.offset >= 0
    allp = compile_formula(parse("(n = n) & (i = i)"), {"x": TM})
    infinite = count_parameter(minimize(permute_tracks(allp, [1, 0])))
    assert not linear_complexity_check(infinite).bounded
    with pytest.raises(ValueError, match="provenance|decomposition"):
        from autoseq.regseq import LinRep
        linear_complexity_check(LinRep("nat", 2, (1,), (((1,),), ((1,),)), (1,)))


def test_conjectured_bordered_lengths_against_re():
    import re
    dfa = conjectured_bordered_lengths()
    pat = re.compile(r"1(01*0)*10*1")
    for n in range(1500):
        want = bool(pat.fullmatch(format(n, "b"))) if n else False
        assert dfa.accepts_values((n,)) == want, n
    assert dfa.accepts_values((7,))


def test_conjectured_bordered_lengths_obeys_the_config():
    with pytest.raises(ResourceLimit):
        conjectured_bordered_lengths(CompileConfig(max_states=2))
    cfg = CompileConfig()
    dfa = conjectured_bordered_lengths(cfg)
    assert dfa == conjectured_bordered_lengths()
    assert dfa == Dfa(2, 1, [[1, 2], [1, 1], [2, 3], [4, 5], [3, 4], [5, 1]], 0, {5})
    assert cfg.peak_states > 0


def test_base3_sequence_end_to_end():
    # ternary digit sum mod 3: the squarefree ternary Thue-Morse word
    seq = Dfao(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, [0, 1, 2])
    w = prefix(seq, 4000)
    ctx3 = PrefixContext(w)
    rep = measure(seq, "subword-complexity")
    for n in range(10):
        assert rep.evaluate(n) == brute("subword-complexity", ctx3, n), n
    rep = measure(seq, "repetitivity-I")
    for n in range(1, 7):
        assert rep.evaluate(n) == brute("repetitivity-I", ctx3, n), n
    assert recurrence_flags(seq) == (True, True, False)
    # squares exist (e.g. 1212 right at position 1); verify the witness
    from autoseq.logic import decide, parse
    d = decide(parse(
        "E i E n (1 <= n) & (A t (t < n) => (x[i+t] = x[i+n+t]))"), {"x": seq})
    assert d.value is True
    i0, n0 = d.witness["i"], d.witness["n"]
    assert n0 >= 1 and w[i0:i0 + n0] == w[i0 + n0:i0 + 2 * n0]


def test_kernel_discovery_on_unbordered_count():
    from fractions import Fraction
    from autoseq.regseq import kernel_relations
    rep = measure(TM, "unbordered-count")
    system = kernel_relations(rep, 4)
    assert system.closed
    assert any(r.lhs == (4, 1) and r.combo == {(2, 1): Fraction(1)}
               for r in system.relations)
    assert str(next(r for r in system.relations if r.lhs == (4, 1))) \
        == "f(4n+1) = f(2n+1)"


def test_constant_sequence_complexity_is_one():
    rep = measure(CONST0, "subword-complexity")
    for n in range(20):
        assert rep.evaluate(n) == 1
    assert linear_complexity_check(rep).bounded


def test_constant_sequence_permutation_complexity():
    # all shifts coincide, so a single (degenerate) pattern exists per length
    rep = measure(CONST0, "permutation-complexity")
    for n in range(10):
        assert rep.evaluate(n) == 1


def test_constant_sequence_separator_is_infinite():
    # past position 0 every factor already occurred, so no separator exists
    rep = measure(CONST0, "separator-S")
    assert rep.semiring == "natinf"
    assert rep.evaluate(0) == 0
    for n in range(1, 8):
        assert rep.evaluate(n) == INF


def test_unbordered_count_of_a_large_rank_dfao():
    # Its counting series has rank 14,888; every stage of the pipeline must
    # stay sparse for this to finish in seconds.  The values agree with
    # oracle.brute on a 256,000-letter prefix.  The default certification
    # of an 8,000-letter prefix is not enough for this sequence, which is
    # not uniformly recurrent: it reads 259 at n = 42.
    x = Dfao(2, ((0, 3), (1, 1), (3, 0), (3, 2)), 0, (0, 1, 1, 1))
    rep = measure(x, "unbordered-count")
    assert rep.rank == 14_888
    assert [rep.evaluate(n) for n in range(1, 81)] == [
        2, 2, 4, 6, 12, 16, 20, 28, 38, 42, 44, 48, 52, 62, 70, 80, 84, 84, 90, 98,
        104, 116, 128, 134, 136, 146, 150, 156, 160, 168, 174, 178, 180, 182, 182, 196,
        208, 224, 240, 250, 254, 260, 266, 282, 290, 306, 312, 314, 314, 314, 320, 328,
        328, 334, 338, 338, 332, 336, 338, 350, 362, 372, 378, 390, 392, 390, 384, 390,
        394, 410, 426, 442, 446, 448, 460, 480, 492, 514, 528, 540]
