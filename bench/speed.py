"""Host speed, measured alongside the engine so that timings can be rescaled.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same pass can take 1.5 to 1.8 times as long for minutes at a time, and CPU
time drifts with wall time.  A fixed kernel timed at the same moments as the
engine slows down with it, so an engine time divided by the kernel's time at
that moment no longer carries the drift.

kernel() is that fixed work: Fraction and big-integer arithmetic, as in
regseq's series algebra, touching no engine code, so a change to the engine
cannot change it.  Kernels built on dict and frozenset lookups or on a
large table tracked the engine worse, on compile and count alike: their
time depends on what the engine left in the caches.  Sampler runs kernel()
from a SIGPROF handler every SAMPLE_CPU_S of process CPU time while a query
runs, so the samples are spread over a query in proportion to its time.

A time rescaled by `reference_seconds` is expressed in seconds at the speed
at which one kernel() call takes REFERENCE_KERNEL_S (about its median when
run alone on a 2-vCPU 2.1 GHz Xeon VM at a quiet moment).
"""

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0003
SAMPLE_CPU_S = 0.025
MIN_SAMPLES = 4
START = 3 ** 400
MODULUS = 7 ** 300


def kernel():
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 2) * Fraction(i + 3, 5)
    x = START
    for i in range(200):
        x = (x * 1234567891 + i) % MODULUS
    return acc, x


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reference_seconds(seconds, kernel_s):
    """`seconds` at a host speed where kernel() took `kernel_s`, rescaled to
    the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class Sampler:
    """Times kernel() on SIGPROF while `active`; keeps the samples since the
    last take() and the time its handler took inside the current query."""

    def __init__(self):
        self.active = False
        self.samples = []
        self.per_query = []  # filled by run.run_pass, one list per query
        self.handler_s = 0.0

    def _on_prof(self, signum, frame):
        if not self.active:
            return
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self):
        """The samples since the last take(), and reset them."""
        samples, self.samples = self.samples, []
        return samples


def rescale_pass(times, samples):
    """A pass's total time at the reference speed, from each query's time and
    the kernel samples taken during it.  A query rescales by its own samples'
    mean, since the host's speed can change within a pass; one with fewer
    than MIN_SAMPLES (under about a tenth of a second) by the whole pass's."""
    everything = statistics.fmean(x for xs in samples for x in xs)
    return sum(reference_seconds(t, statistics.fmean(xs) if len(xs) >= MIN_SAMPLES else everything)
               for t, xs in zip(times, samples))
