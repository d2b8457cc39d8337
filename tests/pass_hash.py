"""Fingerprint of the engine's results over one pass of each benchmark workload.

    PYTHONPATH=src python3 tests/pass_hash.py --seed N

Run from the repository root.  It builds the compile, count and series
queries of bench/workloads.py for the seed, runs each once, and prints two
sha256 digests:

    results  every query's result, every automaton logic.compile returns
             and every series analyses.measure or regseq.representation_count
             returns: automata.store for an automaton, regseq.store plus the
             store of its infinity locus for a series, repr otherwise, with
             the times the CLI prints masked;
    peaks    the peak_states of every logic.CompileConfig each query makes.

A change that must keep every result the same prints the same two digests
as its parent commit.  Reference checks are not run; bench/run.py does that.
pytest does not collect this file.
"""

import argparse
import hashlib
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

from autoseq import analyses, automata, logic, regseq, seqgen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TIME = re.compile(r"\d+\.\d+s\b")


def text(value):
    """Canonical text of a result."""
    if isinstance(value, (automata.Dfa, automata.Nfa)):
        return automata.store(value)
    if isinstance(value, regseq.LinRep):
        dec = value.inf_part
        locus = "" if dec is None else automata.store(dec.infinite_part)
        return regseq.store(value) + locus
    return TIME.sub("<t>s", repr(value))


def rebind(original, replacement):
    """Bind replacement wherever an autoseq module binds original; returns
    the undo list."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name == "autoseq" or name.startswith("autoseq."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, obj))
    return undo


def recording(fn, out):
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        out.append(text(value))
        return value
    return wrapper


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    corpus = run.load_corpus(seqgen, workloads.SEQUENCES)
    tables = refs.load_all()
    results, peaks = hashlib.sha256(), hashlib.sha256()
    seen = []
    configs = []
    init = logic.CompileConfig.__init__

    def tracked_init(self, *a, **kw):
        init(self, *a, **kw)
        configs.append(self)

    undo = []
    for fn in (logic.compile, analyses.measure, regseq.representation_count):
        undo += rebind(fn, recording(fn, seen))
    logic.CompileConfig.__init__ = tracked_init
    try:
        for workload in workloads.WORKLOADS:
            for q in workloads.build(workload, args.seed, corpus, tables):
                seen.clear()
                configs.clear()
                try:
                    got = text(q.run())
                except Exception as exc:  # a failure is a result too
                    got = f"{type(exc).__name__}: {exc}"
                for part in [q.name, got] + seen:
                    results.update(part.encode() + b"\0")
                peaks.update(f"{q.name} {[c.peak_states for c in configs]}\n".encode())
    finally:
        logic.CompileConfig.__init__ = init
        for mod, attr, obj in reversed(undo):
            setattr(mod, attr, obj)
    print(f"results {results.hexdigest()}")
    print(f"peaks   {peaks.hexdigest()}")


if __name__ == "__main__":
    main()
