"""Engine-independent references for the benchmark.

Everything here is plain integer code: sequences from closed forms (never
from the engine's DFAOs), series values from explicit matrix products,
representation counts and linear-arithmetic truths by direct search.  The
stored tables under refs/ were made by make_refs.py from these closed
forms and autoseq.oracle, or written by hand with a source per entry.
"""

import json
import math
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


# -- sequences from closed forms ---------------------------------------------

def rudin_shapiro(n):
    """Parity of the number of (possibly overlapping) 11 blocks."""
    return bin(n & (n >> 1)).count("1") % 2


def period_doubling(n):
    """Parity of the number of trailing ones of n, i.e. of v2(n + 1)."""
    ones = 0
    while n & 1:
        n >>= 1
        ones += 1
    return ones % 2


def paperfolding(n):
    """1 iff the odd part of n is 1 mod 4; the value at 0 is fixed to 0."""
    if n == 0:
        return 0
    while n % 2 == 0:
        n //= 2
    return 1 if n % 4 == 1 else 0


def digit_sum_mod3(n):
    """Base-3 digit sum of n, mod 3."""
    total = 0
    while n:
        n, d = divmod(n, 3)
        total += d
    return total % 3


CLOSED_FORMS = {
    "rs": rudin_shapiro,
    "pd": period_doubling,
    "pf": paperfolding,
    "s3": digit_sum_mod3,
}


def prefix(name, length):
    """First `length` terms of a corpus sequence; Thue-Morse comes from
    the oracle's iterated morphism, the others from their closed forms."""
    if name == "tm":
        from autoseq import oracle
        return tuple(oracle.thue_morse_prefix(length))
    f = CLOSED_FORMS[name]
    return tuple(f(n) for n in range(length))


def factors(word, n):
    return {word[i:i + n] for i in range(len(word) - n + 1)}


def has_unbordered_factor(word, n):
    """Whether some length-n factor of `word` has no proper prefix that is
    also a suffix."""
    return any(all(word[i:i + k] != word[i + n - k:i + n] for k in range(1, n))
               for i in range(len(word) - n + 1))


# -- series, counts and linear arithmetic ------------------------------------

def series_value(u, mats, v, digits):
    """u . mu(d0) ... mu(dm) . v with Python integers, row vector first."""
    row = list(u)
    for d in digits:
        m = mats[d]
        row = [sum(row[i] * m[i][j] for i in range(len(row))) for j in range(len(m[0]))]
    return sum(x * y for x, y in zip(row, v))


def representation_counts(digit_set, k, top):
    """c(n) for n <= top: lsd base-k strings over digit_set without a
    trailing zero digit whose value sum(d_i k^i) is n."""
    digits = sorted(set(digit_set))
    counts = [1]  # only the empty string has value 0
    for n in range(1, top + 1):
        counts.append(sum(counts[(n - d) // k] for d in digits
                          if d <= n and (n - d) % k == 0))
    return counts


def representable(n, a, b, c=0):
    """Whether n = a*p + b*q + c has a solution in naturals p, q."""
    n -= c
    if n < 0:
        return False
    return any((n - a * p) % b == 0 for p in range(n // a + 1))


def all_representable_from(t, a, b):
    """Whether every n >= t is a*p + b*q for naturals p, q."""
    if math.gcd(a, b) != 1:
        return False
    frobenius = a * b - a - b
    return all(representable(n, a, b) for n in range(t, frobenius + 1))


def crt_solution_above(lo, r1, m1, r2, m2):
    """Least n > lo with n = r1 mod m1 and n = r2 mod m2, or None."""
    for n in range(lo + 1, lo + 1 + m1 * m2):
        if n % m1 == r1 and n % m2 == r2:
            return n
    return None


# -- stored tables -------------------------------------------------------------

def load(name):
    with open(os.path.join(REFS_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_all():
    return {name: load(name) for name in ("measures", "factor_sets", "decisions", "paper")}
