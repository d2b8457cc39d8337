"""The benchmark harness's own self-test, run as part of the test suite.

bench/test_bench.py installs the outside-in tracer, which refuses to run
while any dict in the process, such as a test module's namespace, still
binds an engine function.  So it cannot be collected together with tests/;
it runs in a fresh interpreter instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
