"""Pin the engine's results over one pass of each benchmark workload.

tests/pass_hash.py prints a digest of every result and every peak state
count of the compile, count and series queries at a seed.  A change that
keeps every result the same keeps both digests; one that changes a result
on purpose updates them here.  The script imports bench/, so it runs in a
fresh interpreter, as tests/test_bench_selftest.py does.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = "babcc42c36c1815c01d235fdc5e5f9876a6d9a96b4f7d2fec87821c84e4ea525"
PEAKS = "edb2277423611ac35d099591f2775e81fd943b069987eeed5e513fbbe0423715"


def test_pass_digests_at_seed_31():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join("tests", "pass_hash.py"), "--seed", "31"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.split() == ["results", RESULTS, "peaks", PEAKS], done.stdout
