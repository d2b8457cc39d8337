"""Self-test of the benchmark; run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench

It runs a reduced pass of each workload (the queries marked quick) and
checks that the tracer sees every listed layer function and that a
corrupted reference is caught as a failure.
"""

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from autoseq import seqgen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def reduced_pass(workload, tables, tr=None):
    corpus = run.load_corpus(seqgen, workloads.SEQUENCES)
    queries = [q for q in workloads.build(workload, 7, corpus, tables) if q.quick]
    assert queries
    return run.run_pass(queries, f"selftest-{workload}", tr)[1]


def test_reduced_passes_cover_every_listed_layer_function():
    tables = refs.load_all()
    tr = tracer.Tracer()
    tr.install()
    try:
        rows = [r for w in workloads.WORKLOADS for r in reduced_pass(w, tables, tr)]
    finally:
        tr.uninstall()
    assert all(r[2] == "ok" for r in rows), [r for r in rows if r[2] != "ok"]
    seen = {span[tracer.NAME] for span in tr.spans}
    silent = [fn for names in tracer.GROUPS.values() for fn in names if fn not in seen]
    silent += [layer for layer in tracer.LAYERS
               if not any(fn.startswith(layer + ".") for fn in seen)]
    assert not silent, f"no spans for {silent}"
    # Every metric BENCHMARK.json lists is computed (a missing one is a KeyError).
    metrics = tracer.layer_metrics(tr.spans, 1.0, 1.0)
    assert all(isinstance(value, (int, float)) for value, _ in metrics.values())


def test_tracer_restores_every_binding():
    from autoseq import analyses, automata, logic
    before = (analyses.minimize, logic.determinize, automata.minimize, analyses.compile_formula)
    tr = tracer.Tracer()
    tr.install()
    assert analyses.minimize is not before[0] and analyses.minimize.__wrapped__ is before[0]
    assert analyses.compile_formula.__wrapped__ is before[3]
    tr.uninstall()
    assert (analyses.minimize, logic.determinize, automata.minimize,
            analyses.compile_formula) == before


def test_corrupted_reference_counts_as_failure():
    tables = copy.deepcopy(refs.load_all())
    tables["measures"]["tm/subword-complexity"]["values"]["5"] += 1
    rows = reduced_pass("count", tables)
    failed = [r for r in rows if r[2].startswith("FAILED")]
    assert [r[0] for r in failed] == ["measure:tm/subword-complexity"]
    error_rate = sum(r[2] != "ok" for r in rows) / len(rows)
    assert error_rate > 0


def test_rescaling_removes_a_uniform_slowdown():
    import speed
    times = [2.0, 0.01, 0.5]
    samples = [[4e-4] * 80, [], [5e-4] * 20]
    slow = speed.rescale_pass([1.7 * t for t in times], [[1.7 * x for x in xs] for xs in samples])
    assert abs(slow - speed.rescale_pass(times, samples)) < 1e-9
    # A query without enough samples of its own rescales by the whole pass's.
    assert abs(speed.rescale_pass([0.01], [[4e-4] * 3]) - 0.01 * speed.REFERENCE_KERNEL_S / 4e-4) < 1e-12
