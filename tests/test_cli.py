import os

from autoseq.cli import main
from autoseq import analyses, automata, regseq, seqgen


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_true_with_witness(capsys):
    code, out, _ = run(capsys, "decide",
                       "E i E n (1 <= n) & (A t (t < n) => (tm[i+t] = tm[i+n+t]))")
    assert code == 0
    assert "TRUE" in out and "witness" in out


def test_decide_false(capsys):
    code, out, _ = run(capsys, "decide",
                       "E i E n (1 <= n) & (A t (t <= n) => (tm[i+t] = tm[i+n+t]))")
    assert code == 1
    assert "FALSE" in out


def test_decide_witness_names_only_user_variables(capsys):
    # a congruence hides its own quantified witness; it must not leak
    code, out, _ = run(capsys, "decide", "E n n ≡ 1 mod 6")
    assert code == 0 and out.splitlines()[:2] == ["TRUE", "witness: n=1"]
    code, out, _ = run(capsys, "decide", "7 ≡ 1 mod 6")
    assert code == 0 and "witness" not in out


def test_decide_tautology(capsys):
    code, out, _ = run(capsys, "decide", "A n n = n")
    assert code == 0 and "TRUE" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "decide", "E i ) nonsense")
    assert code == 2
    assert "error" in err


def test_resource_ceiling_exit_code(capsys):
    code, _, err = run(capsys, "--max-states", "10", "decide",
                       "E i E n (1 <= n) & (A t (t < n) => (tm[i+t] = tm[i+n+t]))")
    assert code == 3
    assert "ceiling" in err


def test_measure_table(capsys):
    code, out, _ = run(capsys, "measure", "unbordered-count", "tm", "1..16")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [2, 2, 4, 2, 4, 6, 0, 4, 4, 4, 4, 12, 0, 4, 4, 8]


def test_measure_single_value(capsys):
    code, out, _ = run(capsys, "measure", "subword-complexity", "tm", "0..0")
    assert code == 0
    assert out.strip().splitlines()[0] == "0 1"


def test_measure_inf_printed(capsys):
    code, out, _ = run(capsys, "measure", "palindrome-count-at", "tm", "0..2")
    assert code == 0
    assert all(line.split()[1] == "inf" for line in out.strip().splitlines())


def test_eval_seq(capsys):
    code, out, _ = run(capsys, "eval-seq", "tm", "0..11")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1]


def test_characteristic_export_roundtrip(tmp_path, capsys):
    path = tmp_path / "mod6.dfao"
    code, out, _ = run(capsys, "characteristic", "E q n = 6*q + 1", "0..13",
                       "--export", str(path))
    assert code == 0
    dfao = seqgen.load(path.read_text())
    for n in range(50):
        assert dfao.evaluate(n) == (1 if n % 6 == 1 else 0)


def test_measure_export(tmp_path, capsys):
    path = tmp_path / "complexity.linrep"
    code, out, _ = run(capsys, "measure", "subword-complexity", "tm", "1..4",
                       "--export", str(path))
    assert code == 0
    rep = regseq.load(path.read_text())
    assert rep.evaluate(3) == 6


def test_export_automaton(tmp_path, capsys):
    path = tmp_path / "even.dfa"
    code, out, _ = run(capsys, "export-automaton", "E q n = 2*q",
                       "--out", str(path))
    assert code == 0
    dfa = automata.load(path.read_text())
    for n in range(20):
        assert dfa.accepts_values((n,)) == (n % 2 == 0)


def test_seq_binding_from_file(tmp_path, capsys):
    path = tmp_path / "const.dfao"
    path.write_text(seqgen.store(seqgen.Dfao(2, [[0, 0]], 0, [0])))
    code, out, _ = run(capsys, "--seq", f"c={path}", "eval-seq", "c", "0..3")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert values == [0, 0, 0, 0]


def test_oracle_compare_pass(capsys):
    code, out, _ = run(capsys, "oracle-compare", "subword-complexity", "tm", "40")
    assert code == 0
    assert "PASS" in out


def test_oracle_compare_certification_refusal(capsys):
    code, _, err = run(capsys, "oracle-compare", "subword-complexity", "tm", "40",
                       "--prefix-len", "100")
    assert code == 3
    assert "certif" in err.lower()


def test_unknown_sequence(capsys):
    code, _, err = run(capsys, "eval-seq", "nope", "0..1")
    assert code == 2
    assert "unknown sequence" in err


def test_oracle_compare_refuses_a_sequence_that_is_not_uniformly_recurrent(tmp_path, capsys):
    # a prefix of length L certifies n <= L // 100 only for uniformly
    # recurrent sequences; on this one an 8,000-letter prefix miscounts the
    # unbordered factors of length 42
    path = tmp_path / "draw.dfao"
    path.write_text(seqgen.store(seqgen.Dfao(2, [[0, 3], [1, 1], [3, 0], [3, 2]], 0,
                                             [0, 1, 1, 1])))
    code, out, err = run(capsys, "--seq", f"d={path}", "oracle-compare",
                         "unbordered-count", "d", "42", "--prefix-len", "8000")
    assert code == 3
    assert "certification refused" in err and "uniformly recurrent" in err
    assert "PASS" not in out


def test_user_errors_exit_2(tmp_path, capsys):
    unstable = tmp_path / "unstable.dfao"
    unstable.write_text("dfao base=2 states=2 initial=0 order=lsd\n"
                        "state 0 output 0\nstate 1 output 1\n0 0 1\n0 1 1\n1 0 1\n1 1 1\n")
    one_state = "state 0 output 0\n0 0 0\n0 1 0\n"
    malformed = {  # rejected as user errors, not left to raise IndexError or KeyError
        "initial": "dfao base=2 states=1 initial=3 order=lsd\n" + one_state,
        "no-initial": "dfao base=2 states=1 order=lsd\n" + one_state,
        "digit": "dfao base=2 states=1 initial=0 order=lsd\n" + one_state + "0 2 0\n",
        "source": "dfao base=2 states=1 initial=0 order=lsd\n" + one_state + "1 0 0\n",
        "output": "dfao base=2 states=1 initial=0 order=lsd\n" + one_state + "state 1 output 1\n",
        "base": "dfao base=0 states=1 initial=0 order=lsd\nstate 0 output 0\n",
    }
    for name, text in malformed.items():
        (tmp_path / f"{name}.dfao").write_text(text)
    for argv in (["eval-seq", "tm", "1..x"],
                 ["measure", "factors-in-both", "tm", "1..4"],
                 ["measure", "subword-complexity", "tm", "1..4", "--anchor", "end"],
                 ["--seq", f"c={tmp_path / 'missing.dfao'}", "eval-seq", "c", "0..3"],
                 ["--seq", f"c={unstable}", "eval-seq", "c", "0..3"],
                 *(["--seq", f"c={tmp_path / name}.dfao", "eval-seq", "c", "0..3"]
                   for name in malformed),
                 ["characteristic", "i < n"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_a_base_below_2_exits_2(capsys):
    for base in ("1", "0"):
        code, out, err = run(capsys, "--base", base, "decide", "E n n=1")
        assert code == 2 and out == "", base
        assert err.startswith("error:") and "base must be >= 2" in err, err
    code, out, _ = run(capsys, "--base", "3", "decide", "E n n=1")
    assert code == 0 and out.startswith("TRUE")


def test_a_max_states_below_1_exits_2(capsys):
    for limit in ("0", "-5"):
        code, out, err = run(capsys, "--max-states", limit, "decide", "E n n = 1")
        assert code == 2 and out == "", limit
        assert err.startswith("error: --max-states:") and "max_states must be >= 1" in err, err


def test_a_name_repeated_in_one_quantifier_list_exits_2(capsys):
    for text in ("E n,n n=1", "A n,n n=1"):
        code, out, err = run(capsys, "decide", text)
        assert code == 2 and out == "", text
        assert err.startswith("error:") and "shadows" in err, err


def test_an_unwritable_output_path_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing" / "x")
    for argv in (["characteristic", "E q n = 2*q", "0..3", "--export", path],
                 ["measure", "subword-complexity", "tm", "1..4", "--export", path],
                 ["export-automaton", "E q n = 2*q", "--out", path]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: cannot write {path}"), err
        assert "Traceback" not in err


def test_negative_numbers_exit_2(capsys):
    for argv in (["measure", "subword-complexity", "tm", "--", "-1..3"],
                 ["characteristic", "E j tm[j]=1 & j=n", "--", "-2..1"],
                 ["eval-seq", "tm", "--", "-2..1"],
                 ["eval-seq", "tm", "--", "-1"],
                 ["eval-seq", "tm", "--", "2..-1"],
                 ["oracle-compare", "subword-complexity", "tm", "5", "--prefix-len", "-10"],
                 ["oracle-compare", "subword-complexity", "tm", "--", "-1"],
                 ["verify-conjecture", "--sample", "-3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:"), (argv, err)
    # a reversed range of natural numbers is empty, not an error
    assert run(capsys, "eval-seq", "tm", "5..3") == (0, "", "")
    assert run(capsys, "eval-seq", "tm", "0..2") == (0, "0 0\n1 1\n2 1\n", "")


def test_a_non_integer_field_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "x.dfao"
    path.write_text("dfao base=2 states=1 initial=0 order=lsd\nstate 0 output 0\n0 0 0\n0 x 0\n")
    code, out, err = run(capsys, "--seq", f"c={path}", "eval-seq", "c", "0..3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "line 4: invalid literal for int()" in err, err


def test_internal_fault_exits_4(monkeypatch, capsys):
    # a ValueError from inside the engine is not the user's mistake
    not_pad_closed = automata.Dfa(2, 2, [[1, 1, 1, 1], [1, 1, 1, 1]], 0, {0})
    monkeypatch.setattr(analyses, "measure",
                        lambda *args, **kwargs: regseq.count_parameter(not_pad_closed))
    code, _, err = run(capsys, "measure", "subword-complexity", "tm", "1..4")
    assert code == 4
    assert "internal error" in err and "not pad-closed" in err
