"""Benchmark runner for autoseq (stdlib only).

    python3 bench/run.py --workload compile|count|series --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0   (summary table)

Run from the repository root; the engine is imported from ./src.  Load is a
closed loop: one client in one thread issues each query after the previous
one returns.  With --trace 0 the runner spends about S seconds in all: it
repeats passes over the queries expected to complete (it starts no pass
that would end more than half a pass late), then attempts once each query
known to run into the per-query deadline, and reports the end-to-end
metrics:

    setup_s      time from process start until the first query can be issued
                 (interpreter, `import autoseq`, seqgen.load of the corpus):
                 the median of several fresh processes spawned at intervals
                 across the run, each rescaled to the reference host speed
    wall_s       time of one pass over the queries that are expected to
                 complete, rescaled to the reference host speed; the median
                 over the passes; reference checks run outside the timed
                 region
    peak_rss_mb  high-water resident memory of this process over the passes
    pass_rate    share of the workload's queries answered correctly in every
                 attempt; each query counts once

The host's speed drifts by up to 1.8 times for minutes at a time, so raw
times of the same work spread past any useful bound.  speed.py times a
fixed kernel of engine-independent work at the same moments as the engine
(from a SIGPROF handler while a query runs, or inside each setup process),
and every time is divided by the kernel's time and multiplied by its
reference time; the raw times are printed beside them.  A deadline query's
capped time measures the deadline, and the memory it holds when cut
measures how far the host let it get, so neither is part of wall_s or
peak_rss_mb; the query still counts in pass_rate.

With --trace 1 it runs one untraced pass, then one traced pass through the
outside-in tracer (tracer.py), and reports the per-layer metrics; the spans
are written to bench/out/ once the pass is over.

A query fails on an exception, a state ceiling, the per-query deadline, or
output that differs from its reference.  Queries whose failure at the seed
is known (`known_defect`) count against pass_rate but not in "failed";
any other failure counts in "failed" and makes "correct" false.  The last
line of standard output is the JSON result.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(HERE, "corpus")
OUT = os.path.join(HERE, "out")
# About 2.5 times the slowest query that completes (6 s on a 2.1 GHz Xeon).
DEADLINE_S = 15.0
SETUP_RUNS = 16
PROBE_KERNELS = 40
MIN_COVERAGE = 0.95

sys.path.insert(0, SRC)

import speed  # noqa: E402

SETUP_PROBE = """
import os, sys
sys.path.insert(0, {src!r})
import autoseq
from autoseq import seqgen
for name in {names!r}:
    with open(os.path.join({corpus!r}, name + ".dfao"), encoding="utf-8") as fh:
        seqgen.load(fh.read())
print("ready", flush=True)
sys.path.insert(0, {here!r})
import speed
speed.kernel()
print(sum(speed.time_kernel() for _ in range({kernels})) / {kernels}, flush=True)
"""


class Deadline(BaseException):
    """Raised by the per-query timer; a BaseException so that the engine's
    own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def check_engine_source(module):
    path = os.path.abspath(module.__file__)
    if not path.startswith(SRC + os.sep):
        raise SystemExit(f"autoseq was imported from {path}, not from {SRC}")


class SetupProbes:
    """Spawns of a fresh interpreter, timed until it prints 'ready', spread
    across the run so that one slow spell of the host cannot meet them all.
    Each is rescaled by the kernel time that the same interpreter measures
    right after it is ready."""

    def __init__(self, names, seconds):
        self.code = SETUP_PROBE.format(src=SRC, names=tuple(names), corpus=CORPUS,
                                       here=HERE, kernels=PROBE_KERNELS)
        self.interval = seconds / (SETUP_RUNS + 2)
        self.raw = []
        self.times = []  # rescaled to the reference host speed
        self.last = None

    def probe(self):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code], stdout=subprocess.PIPE,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            kernel_s = proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise SystemExit("setup probe failed")
        self.raw.append(elapsed)
        self.times.append(speed.reference_seconds(elapsed, float(kernel_s)))
        self.last = time.perf_counter()

    def between_queries(self):
        if len(self.times) < SETUP_RUNS and time.perf_counter() - self.last >= self.interval:
            self.probe()

    def median(self):
        while len(self.times) < SETUP_RUNS:
            self.probe()
        return statistics.median(self.times)


def load_corpus(seqgen, names):
    corpus = {}
    for name in names:
        with open(os.path.join(CORPUS, name + ".dfao"), encoding="utf-8") as fh:
            corpus[name] = seqgen.load(fh.read())
    return corpus


def run_pass(queries, label, tracer=None, between=None, sampler=None):
    """One pass in fixed order; returns (query seconds, [(query, seconds, status, detail)]).
    `between` is called after each query, outside its timed region.  With a
    sampler, its handler time is taken out of each query's time and each
    query's kernel samples are appended to `sampler.per_query`."""
    signal.signal(signal.SIGALRM, _on_alarm)
    rows = []
    for qid, q in enumerate(queries):
        gc.collect()
        if tracer:
            tracer.begin(qid)
        status, detail, result = "ok", "", None
        if sampler:
            sampler.handler_s = 0.0
            sampler.active = True
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = time.perf_counter()
        try:
            result = q.run()
        except Deadline:
            status = "deadline"
        except Exception as exc:  # every engine failure is an outcome to report
            status, detail = type(exc).__name__, str(exc)[:120]
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if sampler:
                sampler.active = False
                elapsed -= sampler.handler_s
                sampler.per_query.append(sampler.take())
            if tracer:
                tracer.end()
        if status == "ok":
            try:
                q.check(result)
            except Exception as exc:  # a wrong or malformed answer
                status, detail = "wrong", str(exc)[:120]
        if status != "ok":
            status = "known:" + status if status == q.known_defect else "FAILED:" + status
        rows.append((q.name, elapsed, status, detail))
        print(f"{label} {q.name:60s} {elapsed:9.4f} s  {status} {detail}".rstrip(), flush=True)
        if between:
            between()
    return sum(r[1] for r in rows), rows


def write_spans(spans, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, query, _ in spans:
            fh.write(json.dumps([name, start, end, parent, query]) + "\n")
    return path


def summarize(workloads, seed, seconds):
    """Run each workload in its own process; print its end-to-end metrics."""
    for workload in workloads:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        m = {name: v["value"] for name, v in result["metrics"].items()}
        print(f"{workload:8s} setup_s {m['setup_s']:.4f} s  wall_s {m['wall_s']:.3f} s  "
              f"error_rate {1 - m['pass_rate']:.4f}  peak_rss_mb {m['peak_rss_mb']:.1f} MB  "
              f"correct {result['correct']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="compile, count, series, or all "
                    "(each in its own process, printing one summary line per workload)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import autoseq
    from autoseq import seqgen
    check_engine_source(autoseq)
    import refs
    import tracer as tracing
    import workloads

    if args.workload == "all" and not args.trace:
        return summarize(workloads.WORKLOADS, args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS} or all (with --trace 0)")
    probes = None if args.trace else SetupProbes(workloads.SEQUENCES, args.seconds)
    if probes:
        probes.probe()
    corpus = load_corpus(seqgen, workloads.SEQUENCES)
    queries = workloads.build(args.workload, args.seed, corpus, refs.load_all())

    passes = []
    if args.trace:
        untraced, rows = run_pass(queries, "untraced")
        passes.append(rows)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, rows = run_pass(queries, "traced", tr)
        finally:
            tr.uninstall()
        passes.append(rows)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in tracing.layer_metrics(tr.spans, traced, untraced).items()}
        print(f"spans: {len(tr.spans)} written to {write_spans(tr.spans, args.workload, args.seed)}")
        self_s = tracing.self_times(tr.spans)[0]
        total = sum(self_s.values())
        for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1])[:5]:
            print(f"  self time {name:40s} {seconds:9.4f} s  {seconds / total:6.1%}")
    else:
        capped = [q for q in queries if q.known_defect == "deadline"]
        timed = [q for q in queries if q.known_defect != "deadline"]
        start = time.perf_counter()
        sampler = speed.Sampler()
        sampler.start()
        try:
            walls = []
            while True:
                t0 = time.perf_counter()
                sampler.per_query = []
                raw, rows = run_pass(timed, f"pass{len(walls)}",
                                     between=probes.between_queries, sampler=sampler)
                last = time.perf_counter() - t0
                passes.append(rows)
                walls.append(speed.rescale_pass([r[1] for r in rows], sampler.per_query))
                kernel_ms = 1e3 * statistics.fmean(x for xs in sampler.per_query for x in xs)
                print(f"pass{len(walls) - 1}: {raw:.4f} s at a mean kernel time of "
                      f"{kernel_ms:.4f} ms, {walls[-1]:.4f} s at the reference speed")
                # Stop when another pass, and the capped queries after it,
                # would end more than half a pass late.
                if (time.perf_counter() - start + last / 2 + DEADLINE_S * len(capped)
                        > args.seconds):
                    break
        finally:
            sampler.stop()
        wall = statistics.median(walls)
        # Read before the capped queries: how much memory one holds when the
        # deadline cuts it depends on how far the host let it get.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(run_pass(capped, "once", between=probes.between_queries)[1])
        setup_s = probes.median()

    attempted = sum(len(rows) for rows in passes)
    failed = sum(1 for rows in passes for r in rows if r[2].startswith("FAILED"))
    known = sum(1 for rows in passes for r in rows if r[2].startswith("known"))
    answered = {q.name for q in queries}
    for rows in passes:
        answered -= {r[0] for r in rows if r[2] != "ok"}
    pass_rate = len(answered) / len(queries)
    if not args.trace:
        values = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
                  "pass_rate": pass_rate}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_units("end_to_end")}
        print(f"setup probes: {len(probes.times)}; raw "
              f"{' '.join(f'{t:.4f}' for t in probes.raw)} s; at the reference speed "
              f"{' '.join(f'{t:.4f}' for t in probes.times)} s")
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries, "
          f"{attempted} attempts; {known} known-defect and {failed} unexpected failures")
    print(f"  {'error_rate':45s} {1 - pass_rate:.6g} share")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        coverage = metrics["trace.coverage"]["value"]
        if coverage < MIN_COVERAGE:
            raise SystemExit(f"trace coverage {coverage:.3f} is below {MIN_COVERAGE}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
