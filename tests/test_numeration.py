import pytest

from autoseq.numeration import (DigitWord, decode_lsd, encode_lsd, encode_tuple,
                                project_track)


def decode_tuple(w):
    """Tuple of values encoded on the tracks of w (test reference)."""
    return tuple(decode_lsd(project_track(w, t)) for t in range(w.arity))


def test_encode_examples():
    assert str(encode_lsd(13, 2)) == "1011"
    assert len(encode_lsd(0, 2)) == 0
    assert str(encode_lsd(27, 3)) == "0001"


def test_decode_examples():
    assert decode_lsd(DigitWord(2, 1, ((1,), (0,), (1,), (1,)))) == 13
    assert decode_lsd(DigitWord(2, 1, ())) == 0
    assert decode_lsd(DigitWord(2, 1, ((1,), (0,), (1,), (1,), (0,)))) == 13


def test_encode_tuple_examples():
    w = encode_tuple((20, 13), 2)
    assert str(w) == "[0,1][0,0][1,1][0,1][1,0]"
    assert len(encode_tuple((0, 0), 2)) == 0
    assert str(encode_tuple((5, 1), 2)) == "[1,1][0,0][1,0]"


def test_project_track_examples():
    w = encode_tuple((20, 13), 2)
    assert str(project_track(w, 0)) == "00101"
    assert str(project_track(w, 1)) == "10110"
    assert project_track(DigitWord(2, 2, ()), 0) == DigitWord(2, 1, ())
    assert str(project_track(DigitWord(2, 2, ((1, 1), (0, 1))), 1)) == "11"


def test_errors():
    with pytest.raises(ValueError):
        encode_lsd(3, 1)
    with pytest.raises(ValueError):
        decode_lsd(encode_tuple((1, 2), 2))
    with pytest.raises(ValueError):
        encode_tuple((), 2)
    with pytest.raises(IndexError):
        project_track(encode_tuple((1, 2), 2), 2)
    with pytest.raises(ValueError):
        DigitWord(2, 1, ((2,),))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_roundtrip_and_canonicity(k):
    for n in list(range(2000)) + [10 ** 5 - 1, 10 ** 4 + 17]:
        w = encode_lsd(n, k)
        assert decode_lsd(w) == n
        if len(w) > 0:
            assert w.symbols[-1] != (0,)
        if n >= 1:
            floor_log = 0
            power = k
            while power <= n:
                floor_log += 1
                power *= k
            assert len(w) == floor_log + 1


def test_tuple_roundtrip_padding_invariance():
    for values in [(0, 0, 0), (1, 2, 3), (20, 13, 7), (100, 1, 0)]:
        w = encode_tuple(values, 2)
        assert decode_tuple(w) == values
        padded = DigitWord(2, 3, w.symbols + ((0, 0, 0),) * 2)
        assert decode_tuple(padded) == values
