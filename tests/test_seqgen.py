import pytest

from autoseq.oracle import thue_morse_prefix
from autoseq.seqgen import Dfao, load, prefix, store, thue_morse


def test_thue_morse_values():
    tm = thue_morse()
    assert prefix(tm, 12) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1]
    assert tm.evaluate(0) == 0
    assert tm.evaluate(1) == 1
    assert tm.evaluate(2) == 1
    assert tm.evaluate(27) == 0  # binary digit sum 4
    assert tm.evaluate(2 ** 10) == 1


def test_segment_39_to_69():
    tm = thue_morse()
    seg = "".join(str(v) for v in prefix(tm, 70)[39:])
    assert seg == "0011010010110100110010110100101"


def test_prefix_empty():
    assert prefix(thue_morse(), 0) == []


def test_matches_morphism_oracle():
    tm = thue_morse()
    assert prefix(tm, 10 ** 4) == thue_morse_prefix(10 ** 4)


def test_padding_invariance():
    tm = thue_morse()
    for n in range(1000):
        digits = []
        m = n
        while m:
            m, d = divmod(m, 2)
            digits.append(d)
        for pads in range(4):
            assert tm.run_digits(digits + [0] * pads) == tm.evaluate(n)


def test_store_load_roundtrip():
    tm = thue_morse()
    again = load(store(tm))
    assert again == tm
    assert all(again.evaluate(n) == tm.evaluate(n) for n in range(1000))


def test_load_rejects_partial_table():
    text = "dfao base=2 states=2 initial=0 order=lsd\n" \
           "state 0 output 0\nstate 1 output 1\n0 0 0\n0 1 1\n1 0 1\n"
    with pytest.raises(ValueError, match="not total"):
        load(text)


def test_load_names_the_line_of_a_non_integer_field():
    body = "state 0 output 0\n0 0 0\n0 1 0\n"
    with pytest.raises(ValueError, match="line 1: invalid literal for int.*'two'"):
        load("dfao base=two states=1 initial=0 order=lsd\n" + body)
    with pytest.raises(ValueError, match="line 2: invalid literal.*'z' in 'state z output 0'"):
        load("dfao base=2 states=1 initial=0 order=lsd\n" + body.replace("state 0", "state z"))
    with pytest.raises(ValueError, match="line 4: invalid literal for int.*'y' in '0 1 y'"):
        load("dfao base=2 states=1 initial=0 order=lsd\n" + body.replace("0 1 0", "0 1 y"))


def test_padding_instability_rejected():
    # output(delta(q0, 0)) != output(q0)
    with pytest.raises(ValueError, match="instability"):
        Dfao(2, [[1, 0], [1, 1]], 0, [0, 1])
    # states 1 and 2 are both unstable; the least one is reported
    with pytest.raises(ValueError, match="state 1 and"):
        Dfao(3, [[0, 1, 2], [3, 3, 3], [3, 3, 3], [3, 3, 3]], 0, [0, 0, 0, 1])
    text = "dfao base=2 states=2 initial=0 order=lsd\n" \
           "state 0 output 0\nstate 1 output 1\n0 0 1\n0 1 0\n1 0 1\n1 1 1\n"
    with pytest.raises(ValueError, match="instability"):
        load(text)
