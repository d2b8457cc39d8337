"""Command-line interface.

Commands: decide, characteristic, measure, verify-conjecture,
oracle-compare, export-automaton, eval-seq.  Numbers on the command line
and in printed output are ordinary decimals; files carry lsd-first
automata with the convention declared in their headers.

Exit codes: 0 success, 1 FALSE/FAIL verdict, 2 user error (command line,
predicate syntax or compilation, unreadable input file), 3 resource ceiling
or certification refusal, 4 internal error.
"""

import argparse
import sys
import time
import traceback

from . import analyses, automata, logic, oracle, regseq, seqgen

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    """A mistake on the command line or in an input file."""


class Session:
    """Bound sequences and resource limits shared by one command."""

    def __init__(self, seq_args=(), max_states=2_000_000, base=2):
        self.sequences = {}
        if base == 2:
            self.sequences["tm"] = seqgen.thue_morse()
        for spec_arg in seq_args or ():
            name, _, path = spec_arg.partition("=")
            if not path:
                raise UsageError(f"--seq needs name=file, got {spec_arg!r}")
            try:
                with open(path, encoding="utf-8") as fh:
                    self.sequences[name] = seqgen.load(fh.read())
            except (OSError, ValueError) as exc:
                raise UsageError(f"cannot load sequence {name!r} from {path}: {exc}") from None
        self.base = base
        bases = {s.base for s in self.sequences.values()} | {base}
        if len(bases) > 1:
            raise UsageError(f"bound sequences disagree on the base: {sorted(bases)}")
        try:
            self.config = logic.CompileConfig(max_states=max_states, default_base=base)
        except ValueError as exc:  # CompileConfig checks max_states first
            raise UsageError(f"{'--max-states' if max_states < 1 else '--base'}: {exc}") from None

    def env_for(self, formula):
        names = logic.sequence_names(formula)
        missing = names - set(self.sequences)
        if missing:
            raise UsageError(f"unbound sequences: {sorted(missing)}")
        return {name: self.sequences[name] for name in names}

    def sequence(self, name):
        if name not in self.sequences:
            raise UsageError(f"unknown sequence {name!r}; bind it with --seq {name}=FILE")
        return self.sequences[name]


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI") from None
    if min(lo, hi) < 0:
        raise UsageError(f"bad range {text!r}; indices start at 0")
    return range(lo, hi + 1)


def _write(path, text):
    """Write text to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _measure(session, x, args, y=None):
    """analyses.measure for args.kind, once its options fit the kind."""
    two = args.kind in analyses.TWO_SEQUENCE_KINDS
    if (y is not None) != two:
        raise UsageError(f"measure kind {args.kind!r} "
                         f"{'needs' if two else 'does not take'} a second sequence")
    if args.anchor not in (None, *analyses.ANCHORED_KINDS.get(args.kind, ())):
        raise UsageError(f"measure kind {args.kind!r} does not take anchor {args.anchor!r}")
    return analyses.measure(x, args.kind, y=y, anchor=args.anchor, config=session.config)


def cmd_decide(args):
    session = Session(args.seq, args.max_states, args.base)
    formula = logic.parse(args.predicate)
    env = session.env_for(formula)
    t0 = time.time()
    decision = logic.decide(formula, env, session.config)
    elapsed = time.time() - t0
    print("TRUE" if decision.value else "FALSE")
    if decision.witness is not None:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(decision.witness.items()))
        print(f"witness: {pairs}")
    if decision.counterexample is not None:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(decision.counterexample.items()))
        print(f"counterexample: {pairs}")
    print(f"peak automaton size: {session.config.peak_states} states; "
          f"time: {elapsed:.2f}s")
    return EXIT_OK if decision.value else EXIT_FALSE


def cmd_characteristic(args):
    session = Session(args.seq, args.max_states, args.base)
    formula = logic.parse(args.predicate)
    env = session.env_for(formula)
    indices = _parse_range(args.range)
    dfao = logic.characteristic(formula, env, session.config)
    if args.export:
        _write(args.export, seqgen.store(dfao))
        print(f"wrote {args.export} ({dfao.n_states} states)")
    for n in indices:
        print(n, dfao.evaluate(n))
    return EXIT_OK


def cmd_measure(args):
    session = Session(args.seq, args.max_states, args.base)
    x = session.sequence(args.sequence)
    y = session.sequence(args.second) if args.second else None
    indices = _parse_range(args.range)
    rep = _measure(session, x, args, y)
    wrote = []  # written before anything is printed, so a failed write prints nothing
    if args.export:
        _write(args.export, regseq.store(rep))
        wrote.append(f"{args.export} (rank {rep.rank}, {rep.semiring})")
        if rep.inf_part is not None:
            _write(args.export + ".infpart", automata.store(rep.inf_part.infinite_part))
            wrote.append(f"{args.export}.infpart (infinity locus)")
    for n in indices:
        print(n, rep.evaluate(n))
    for line in wrote:
        print("wrote", line)
    return EXIT_OK


_CONJECTURED_SYSTEM = [
    ((4, 1), {(2, 1): 1}),
    ((8, 2), {(2, 1): 1, (4, 0): -8, (4, 3): 1, (8, 0): 4}),
    ((8, 3), {(2, 0): 2, (2, 1): -1, (4, 0): 5, (4, 2): 1, (8, 0): -3}),
    ((8, 4), {(4, 0): -4, (4, 2): 2, (8, 0): 2}),
    ((8, 6), {(2, 0): 2, (2, 1): -1, (4, 0): 1, (4, 2): 1, (4, 3): 1, (8, 0): -1}),
    ((16, 0), {(4, 0): -2, (8, 0): 3}),
    ((16, 7), {(2, 0): -2, (2, 1): 1, (4, 0): -5, (4, 2): 1, (8, 0): 3}),
    ((16, 8), {(4, 0): -8, (4, 2): 4, (8, 0): 4}),
    ((16, 15), {(4, 0): -8, (4, 3): 2, (8, 0): 4, (8, 7): 1}),
]


def cmd_verify_conjecture(args):
    if args.sample < 0:
        raise UsageError("--sample must be >= 0")
    session = Session(args.seq, args.max_states, args.base)
    tm = session.sequence("tm")
    print("== borderless-lengths pattern ==")
    t0 = time.time()
    ch = analyses.unbordered_characteristic(tm, session.config)
    import re as _re
    pattern = _re.compile(r"1(01*0)*10*1")
    sample_bad = [n for n in range(args.sample)
                  if (ch.evaluate(n) == 0)
                  != bool(pattern.fullmatch(format(n, "b")) if n else False)]
    print(f"sample check on n < {args.sample}: "
          f"{'consistent' if not sample_bad else f'mismatch at {sample_bad[0]}'}")
    bordered = automata.Dfa(ch.base, 1, ch.transitions, ch.initial,
                            {q for q in range(ch.n_states) if ch.outputs[q] == 0})
    regex_dfa = analyses.conjectured_bordered_lengths(session.config)
    same, counterexample = automata.equivalent(bordered, regex_dfa)
    if same:
        print(f"EQUIVALENT: lengths with only bordered factors match the "
              f"pattern 1(01*0)*10*1 exactly ({time.time()-t0:.2f}s)")
    else:
        from .numeration import decode_lsd, project_track
        n = decode_lsd(project_track(counterexample, 0))
        print(f"NOT EQUIVALENT: counterexample n = {n}")
    print("== conjectured recurrence system for the unbordered count ==")
    t0 = time.time()
    rep = analyses.measure(tm, "unbordered-count", config=session.config)
    verdicts = []
    for lhs, combo in _CONJECTURED_SYSTEM:
        ok = regseq.verify_relation(rep, lhs, combo)
        verdicts.append(ok)
        print(f"{'VERIFIED' if ok else 'FAILS  '}  {regseq.Relation(lhs, combo)}")
    print(f"({time.time()-t0:.2f}s)")
    all_good = same and not sample_bad and all(verdicts)
    return EXIT_OK if all_good else EXIT_FALSE


def cmd_oracle_compare(args):
    if min(args.max_n, args.prefix_len) < 0:
        raise UsageError("max_n and --prefix-len must be >= 0")
    session = Session(args.seq, args.max_states, args.base)
    x = session.sequence(args.sequence)
    # PrefixContext certifies n <= len // 100, which holds only when every
    # factor recurs within bounded gaps.
    if not analyses.uniformly_recurrent(x, session.config):
        raise oracle.CertificationError(
            f"sequence {args.sequence!r} is not uniformly recurrent, so no prefix "
            "length certifies its values")
    rep = _measure(session, x, args)
    if args.sequence == "tm":
        word = oracle.thue_morse_prefix(args.prefix_len)
    else:
        word = seqgen.prefix(x, args.prefix_len)
    ctx = oracle.PrefixContext(word)
    failures = 0
    start = 0 if args.kind.endswith("complexity") else 1
    for n in range(start, args.max_n + 1):
        want = oracle.brute(args.kind, ctx, n, anchor=args.anchor or "begin")
        got = rep.evaluate(n)
        if got != want:
            failures += 1
            if failures == 1:
                print(f"FIRST MISMATCH at n={n}: engine {got}, oracle {want}")
    if failures:
        print(f"FAIL ({failures} mismatches up to n={args.max_n})")
        return EXIT_FALSE
    print(f"PASS (n up to {args.max_n} against a prefix of length {len(ctx)})")
    return EXIT_OK


def cmd_export_automaton(args):
    session = Session(args.seq, args.max_states, args.base)
    formula = logic.parse(args.predicate)
    env = session.env_for(formula)
    dfa = logic.compile(formula, env, session.config)
    text = automata.store(dfa)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out} ({dfa.n_states} states, arity {dfa.arity})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_eval_seq(args):
    session = Session(args.seq, args.max_states, args.base)
    x = session.sequence(args.sequence)
    for n in _parse_range(args.range):
        print(n, x.evaluate(n))
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="autoseq",
        description="Decide predicates about k-automatic sequences and "
                    "enumerate their combinatorial quantities.")
    parser.add_argument("--seq", action="append", metavar="NAME=FILE",
                        help="bind a sequence from a dfao file (tm is built in)")
    parser.add_argument("--max-states", type=int, default=2_000_000,
                        help="abort when an intermediate automaton exceeds this size")
    parser.add_argument("--base", type=int, default=2,
                        help="base for predicates that use no sequence (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide a closed predicate")
    p.add_argument("predicate")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("characteristic",
                       help="compile a one-variable predicate to a 0/1 sequence")
    p.add_argument("predicate")
    p.add_argument("range", nargs="?", default="0..19")
    p.add_argument("--export", metavar="FILE")
    p.set_defaults(fn=cmd_characteristic)

    p = sub.add_parser("measure", help="evaluate a counting measure")
    p.add_argument("kind", choices=analyses.MEASURE_KINDS)
    p.add_argument("sequence")
    p.add_argument("range")
    p.add_argument("--second", metavar="SEQ",
                   help="second sequence for two-sequence kinds")
    p.add_argument("--anchor", choices=("begin", "center", "end"))
    p.add_argument("--export", metavar="FILE",
                   help="write the linear representation (and infinity locus)")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("verify-conjecture",
                       help="run the borderless-pattern and recurrence checks")
    p.add_argument("--sample", type=int, default=10_000)
    p.set_defaults(fn=cmd_verify_conjecture)

    p = sub.add_parser("oracle-compare",
                       help="compare a measure against brute force on a prefix")
    p.add_argument("kind", choices=analyses.MEASURE_KINDS)
    p.add_argument("sequence")
    p.add_argument("max_n", type=int)
    p.add_argument("--prefix-len", type=int, default=10_000)
    p.add_argument("--anchor", choices=("begin", "center", "end"))
    p.set_defaults(fn=cmd_oracle_compare)

    p = sub.add_parser("export-automaton", help="compile a predicate to a DFA file")
    p.add_argument("predicate")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(fn=cmd_export_automaton)

    p = sub.add_parser("eval-seq", help="print sequence values")
    p.add_argument("sequence")
    p.add_argument("range")
    p.set_defaults(fn=cmd_eval_seq)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (UsageError, logic.ParseError, logic.CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.CertificationError as exc:
        print(f"certification refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except automata.StateLimit as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def console_main():
    raise SystemExit(main())
