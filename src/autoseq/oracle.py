"""Brute-force reference values over finite sequence prefixes.

Deliberately simple and engine-independent: factor sets are built by
scanning, borders compared letter by letter, window measures by direct
sweeps.  Every query is certified against the prefix length; asking past
the certified range raises instead of silently truncating.
"""


class CertificationError(ValueError):
    """The prefix is too short to certify the requested value."""


class PrefixContext:
    """A finite prefix plus the largest n its answers are certified for."""

    def __init__(self, word, certified=None, safety=100):
        self.word = tuple(word)
        self.certified = len(self.word) // safety if certified is None else certified

    def check(self, n):
        if n > self.certified:
            raise CertificationError(
                f"n={n} exceeds the certified range {self.certified} "
                f"(prefix length {len(self.word)})")

    def __len__(self):
        return len(self.word)


def thue_morse_prefix(length):
    """Thue-Morse prefix by iterating the doubling substitution."""
    w = [0]
    while len(w) < length:
        w = [b for a in w for b in ((0, 1) if a == 0 else (1, 0))]
    return w[:length]


def _factors(word, n, limit=None):
    end = len(word) - n + 1 if limit is None else min(limit, len(word) - n + 1)
    return {word[i:i + n] for i in range(max(end, 0))}


def _is_palindrome(f):
    return f == tuple(reversed(f))


def _is_unbordered(f):
    return all(f[:l] != f[len(f) - l:] for l in range(1, len(f) // 2 + 1))


def brute(kind, ctx, n, ctx2=None, anchor="begin"):
    """Exact value of a measure kind at n, computed by exhaustive scan."""
    ctx.check(n)
    w = ctx.word
    if kind == "subword-complexity":
        return len(_factors(w, n)) if n else 1
    if kind == "palindrome-complexity":
        return 1 if n == 0 else sum(1 for f in _factors(w, n) if _is_palindrome(f))
    if kind == "unbordered-count":
        return 1 if n == 0 else sum(1 for f in _factors(w, n) if _is_unbordered(f))
    if kind == "recurrent-factor-count":
        # Approximation: factors seen at least twice inside the prefix.  For
        # uniformly recurrent sequences with an adequate margin this is exact.
        if n == 0:
            return 1
        counts = {}
        for i in range(len(w) - n + 1):
            f = w[i:i + n]
            counts[f] = counts.get(f, 0) + 1
        return sum(1 for c in counts.values() if c >= 2)
    if kind in ("factors-in-x-not-y", "factors-in-both"):
        if ctx2 is None:
            raise ValueError(f"{kind} needs a second prefix context")
        ctx2.check(n)
        fx = _factors(w, n) if n else {()}
        fy = _factors(ctx2.word, n) if n else {()}
        return len(fx - fy) if kind == "factors-in-x-not-y" else len(fx & fy)
    if kind in ("square-count-at", "longest-square-at"):
        lens = {2 * q for q in _square_lengths(w, n, anchor)}
        _certify_witnesses(w, n, anchor, lens)
        return len(lens) if kind == "square-count-at" else max(lens, default=0)
    if kind in ("palindrome-count-at", "longest-palindrome-at"):
        lens = _palindrome_lengths(w, n, anchor)
        _certify_witnesses(w, n, anchor, lens)
        return len(lens) if kind == "palindrome-count-at" else max(lens, default=0)
    if kind == "longest-fractional-power-at":
        lens = _fracpower_lengths(w, n, anchor)
        _certify_witnesses(w, n, anchor, lens)
        return max(lens, default=0)
    if kind == "recurrence-R":
        return _recurrence(w, n, ctx)
    if kind == "appearance-A":
        return _appearance(w, n)
    if kind == "separator-S":
        return _separator(w, n)
    if kind == "repetitivity-I":
        return _repetitivity(w, n, ctx)
    if kind == "permutation-complexity":
        return _permutation_complexity(w, n, ctx)
    raise ValueError(f"unknown measure kind {kind!r}")


def _certify_witnesses(w, pos, anchor, lengths):
    """Refuse when a witness reaches halfway through the scan window: the
    prefix then cannot certify that no longer witness exists (the true
    count may even be infinite)."""
    if not lengths:
        return
    if anchor == "end":
        # the object sits entirely inside the known prefix
        return
    if anchor == "begin":
        window = len(w) - pos
    else:
        # only the right half of a centered object can be cut off
        window = 2 * (len(w) - pos)
    # Witness families of automatic sequences grow at most geometrically
    # with ratio k^2; a gap of 5x past the largest witness rules out a
    # successor inside the window.
    if 5 * max(lengths) > window:
        raise CertificationError(
            f"witness of length {max(lengths)} too close to the window {window}; "
            "cannot certify completeness from this prefix")


def _square_lengths(w, pos, anchor):
    """Periods q of squares anchored at pos (within the prefix)."""
    out = set()
    if anchor == "begin":
        for q in range(1, (len(w) - pos) // 2 + 1):
            if w[pos:pos + q] == w[pos + q:pos + 2 * q]:
                out.add(q)
    elif anchor == "center":
        for q in range(1, min(pos, len(w) - pos) + 1):
            if w[pos - q:pos] == w[pos:pos + q]:
                out.add(q)
    elif anchor == "end":
        for q in range(1, (pos + 1) // 2 + 1):
            if w[pos + 1 - 2 * q:pos + 1 - q] == w[pos + 1 - q:pos + 1]:
                out.add(q)
    else:
        raise ValueError(f"unknown anchor {anchor!r}")
    return out


def _palindrome_lengths(w, pos, anchor):
    out = set()
    if anchor == "begin":
        for m in range(1, len(w) - pos + 1):
            if _is_palindrome(w[pos:pos + m]):
                out.add(m)
    elif anchor == "center":
        for r in range(0, min(pos, len(w) - pos - 1) + 1):
            if _is_palindrome(w[pos - r:pos + r + 1]):
                out.add(2 * r + 1)
        for r in range(1, min(pos, len(w) - pos) + 1):
            if _is_palindrome(w[pos - r:pos + r]):
                out.add(2 * r)
    elif anchor == "end":
        for m in range(1, pos + 2):
            if _is_palindrome(w[pos + 1 - m:pos + 1]):
                out.add(m)
    else:
        raise ValueError(f"unknown anchor {anchor!r}")
    return out


def _fracpower_lengths(w, pos, anchor):
    """Longest fractional power of exponent >= 2 anchored at pos: for each
    period d the run extends while position s agrees with s+d, and counts
    only when it covers at least two full periods."""
    window = len(w) - pos if anchor == "begin" else pos + 1
    if anchor == "begin":
        seg = w[pos:pos + window]
    else:
        # a power ending at pos is a power beginning at pos of the mirror
        seg = tuple(reversed(w[pos + 1 - window:pos + 1]))
    best = 0
    for d in range(1, window // 2 + 1):
        agree = 0
        while d + agree < window and seg[agree] == seg[d + agree]:
            agree += 1
        if agree >= d and d + agree > best:
            best = d + agree
    return {best} if best else set()


def _recurrence(w, n, ctx):
    """Smallest window length containing every length-n factor, maximized
    over window positions in the certified region."""
    if n == 0:
        return 0
    facs = sorted(_factors(w, n))
    occ = {f: [] for f in facs}
    for i in range(len(w) - n + 1):
        occ[w[i:i + n]].append(i)
    pointers = {f: 0 for f in facs}
    best = 0
    scan = len(w) // 4
    for i in range(scan):
        need = 0
        for f in facs:
            lst = occ[f]
            p = pointers[f]
            while p < len(lst) and lst[p] < i:
                p += 1
            pointers[f] = p
            if p == len(lst):
                raise CertificationError(
                    f"factor vanishes after position {i}; prefix too short for R({n})")
            need = max(need, lst[p] + n - i)
        best = max(best, need)
    if best * 2 > len(w):
        raise CertificationError(f"R({n}) window exceeds half the prefix")
    return best


def _appearance(w, n):
    if n == 0:
        return 0
    first = {}
    for i in range(len(w) - n + 1):
        f = w[i:i + n]
        if f not in first:
            first[f] = i
    return max(first.values()) + n


def _separator(w, n):
    i = 0
    while True:
        if n + i > len(w):
            raise CertificationError(f"separator at {n} runs past the prefix")
        seg = w[n:n + i]
        if not any(w[j:j + i] == seg for j in range(n)):
            return i
        i += 1


def _repetitivity(w, n, ctx):
    last = {}
    best = None
    for i in range(len(w) - n + 1):
        f = w[i:i + n]
        if f in last:
            gap = i - last[f]
            if best is None or gap < best:
                best = gap
        last[f] = i
    if best is None:
        raise CertificationError(f"no repeated factor of length {n} in the prefix")
    return best


def _permutation_complexity(w, n, ctx):
    """Distinct order patterns of n consecutive shifts, compared with a
    lookahead horizon; refuses when the horizon cannot separate shifts."""
    if n <= 1:
        return 1
    horizon = min(len(w) // 2, 16 * n + 64)
    scan = len(w) - horizon - n
    patterns = set()
    for i in range(scan):
        keys = [w[i + l:i + l + horizon] for l in range(n)]
        if len(set(keys)) != n:
            raise CertificationError("lookahead horizon cannot separate shifts")
        order = sorted(range(n), key=lambda l: keys[l])
        rank = [0] * n
        for pos, l in enumerate(order):
            rank[l] = pos
        patterns.add(tuple(rank))
    return len(patterns)


# Existence scans used to cross-check decision results.

def square_positions(word, max_period=None):
    """(position, period) of the first square found, or None."""
    w = tuple(word)
    top = max_period or len(w) // 2
    for q in range(1, top + 1):
        for i in range(len(w) - 2 * q + 1):
            if w[i:i + q] == w[i + q:i + 2 * q]:
                return i, q
    return None


def overlap_free(word):
    """Exhaustively check a 0/1 word for overlaps (period q, length 2q+1).

    Uses big-integer shifts: an overlap with period q exists iff the word
    and its q-shift agree on q+1 consecutive positions.
    """
    bits = "".join(str(b) for b in word)
    if not set(bits) <= {"0", "1"}:
        raise ValueError("overlap_free expects a binary word")
    length = len(bits)
    value = int(bits, 2) if length else 0
    for q in range(1, (length - 1) // 2 + 1):
        # bit i < length - q is set iff word[c] = word[c-q] at c = length-1-i
        runs = ~(value ^ (value >> q)) & ((1 << (length - q)) - 1)
        # keep bit i while bits i .. i+run-1 are all set, doubling run up to q+1
        run = 1
        while runs and run < q + 1:
            step = min(run, q + 1 - run)
            runs &= runs >> step
            run += step
        if runs:
            return False
    return True
