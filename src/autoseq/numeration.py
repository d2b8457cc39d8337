"""Base-k digit encodings, least-significant-digit first.

Every digit word in the engine is lsd-first: symbol 0 carries the least
significant digits.  A word of arity r is a sequence of r-tuples over
{0, ..., k-1}; track j of the word spells out the j-th encoded integer.
Zero encodes as the empty word, so the canonical encoding of a tuple has
no trailing all-zero symbol.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class DigitWord:
    """An lsd-first word of digit tuples in base `base` with `arity` tracks."""

    base: int
    arity: int
    symbols: tuple

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        for sym in self.symbols:
            if len(sym) != self.arity:
                raise ValueError(f"symbol {sym} does not have arity {self.arity}")
            for d in sym:
                if not 0 <= d < self.base:
                    raise ValueError(f"digit {d} out of range for base {self.base}")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def digits(self):
        """Flat digit sequence; only defined for arity-1 words."""
        if self.arity != 1:
            raise ValueError("digits() requires an arity-1 word")
        return tuple(s[0] for s in self.symbols)

    def __str__(self):
        if self.arity == 1:
            return "".join(str(s[0]) for s in self.symbols) or "ε"
        return "".join("[" + ",".join(str(d) for d in s) + "]" for s in self.symbols) or "ε"


def encode_lsd(n, k):
    """Canonical lsd-first base-k word for the natural number n.

    The result never ends in a zero digit; 0 encodes as the empty word.
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"cannot encode negative value {n}")
    digits = []
    while n > 0:
        n, d = divmod(n, k)
        digits.append((d,))
    return DigitWord(k, 1, tuple(digits))


def decode_lsd(w):
    """Value of an arity-1 lsd-first word; trailing zeros do not matter."""
    if w.arity != 1:
        raise ValueError(f"decode_lsd requires arity 1, got {w.arity}")
    value = 0
    for sym in reversed(w.symbols):
        value = value * w.base + sym[0]
    return value


def encode_tuple(values, k):
    """Joint lsd-first word for a tuple of naturals.

    Shorter components are padded with trailing zero digits up to the
    longest canonical length, so the result has no trailing all-zero symbol.
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    values = tuple(values)
    if not values:
        raise ValueError("encode_tuple requires at least one value")
    tracks = [encode_lsd(v, k).digits() for v in values]
    length = max(len(t) for t in tracks)
    symbols = tuple(
        tuple(t[i] if i < len(t) else 0 for t in tracks) for i in range(length)
    )
    return DigitWord(k, len(values), symbols)


def project_track(w, track):
    """Extract one coordinate track of a word, keeping its length."""
    if not 0 <= track < w.arity:
        raise IndexError(f"track {track} out of range for arity {w.arity}")
    return DigitWord(w.base, 1, tuple((s[track],) for s in w.symbols))
