import random

import pytest

from autoseq.oracle import (CertificationError, PrefixContext, brute,
                            overlap_free, square_positions, thue_morse_prefix)

CTX = PrefixContext(thue_morse_prefix(10 ** 4))


def test_table_values():
    assert brute("unbordered-count", CTX, 12) == 12
    assert brute("unbordered-count", CTX, 7) == 0
    assert brute("subword-complexity", CTX, 0) == 1
    assert [brute("unbordered-count", CTX, n) for n in range(1, 17)] == \
        [2, 2, 4, 2, 4, 6, 0, 4, 4, 4, 4, 12, 0, 4, 4, 8]


def test_certification_refusal():
    with pytest.raises(CertificationError):
        brute("subword-complexity", CTX, CTX.certified + 1)


def test_monotone_in_prefix_length():
    short = PrefixContext(thue_morse_prefix(2000))
    for n in (1, 3, 7, 12):
        assert brute("subword-complexity", short, n) <= \
            brute("subword-complexity", CTX, n)


def test_overlap_free_matches_naive():
    def naive(w):
        for q in range(1, (len(w) - 1) // 2 + 1):
            for i in range(len(w) - 2 * q):
                if w[i:i + q + 1] == w[i + q:i + 2 * q + 1]:
                    return False
        return True

    rng = random.Random(5)
    for _ in range(200):
        w = [rng.randrange(2) for _ in range(rng.randrange(0, 22))]
        assert overlap_free(w) == naive(w), w
    # up to length 40: Thue-Morse factors (overlap-free, so every period is
    # scanned), the same with one bit flipped, and words with a planted
    # overlap of a long period, whose equality runs take several doublings
    rng = random.Random(6)
    tm = thue_morse_prefix(200)
    verdicts = set()
    for _ in range(1500):
        length = rng.randrange(0, 41)
        kind = rng.randrange(4)
        if kind == 0:
            w = [rng.randrange(2) for _ in range(length)]
        elif kind in (1, 2):
            start = rng.randrange(len(tm) - length)
            w = tm[start:start + length]
            if kind == 2 and w:
                w[rng.randrange(length)] ^= 1
        else:
            q = rng.randrange(1, 14)
            head = [rng.randrange(2) for _ in range(q)]
            w = ([rng.randrange(2) for _ in range(rng.randrange(0, 8))] + head + head
                 + head[:rng.randrange(0, q + 1)]
                 + [rng.randrange(2) for _ in range(rng.randrange(0, 8))])
        want = naive(w)
        verdicts.add(want)
        assert overlap_free(w) == want, w
    assert verdicts == {True, False}
    assert not overlap_free([0, 1, 0, 1, 0])
    assert overlap_free(thue_morse_prefix(3000))


def test_square_positions():
    assert square_positions(thue_morse_prefix(64)) is not None
    assert square_positions([0, 1], 1) is None


def test_two_sequence_kinds_need_second_context():
    with pytest.raises(ValueError):
        brute("factors-in-both", CTX, 3)
