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

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# seed -> (results digest, peaks digest)
DIGESTS = {
    31: ("babcc42c36c1815c01d235fdc5e5f9876a6d9a96b4f7d2fec87821c84e4ea525",
         "edb2277423611ac35d099591f2775e81fd943b069987eeed5e513fbbe0423715"),
    47: ("0e68313ffcc9571766a9a9570184cd544ffdb3c49c3ba198a68fbff0fca0246c",
         "81ae8a437acb1626f8eefbfb232c24107ff6b048c8d5d89101909798730a9b71"),
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_pass_digests(seed):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, os.path.join("tests", "pass_hash.py"), "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    results, peaks = DIGESTS[seed]
    assert done.stdout.split() == ["results", results, "peaks", peaks], done.stdout
