"""k-automatic sequences as deterministic finite automata with output.

A Dfao reads the lsd-first base-k digits of n and emits the output of the
last state reached.  Padding stability (the zero successor of every
reachable state has the same output behaviour) makes the value of n
independent of how many trailing zero digits its representation carries;
it is validated at construction and on load.
"""

from .automata import _parse, _read_text, _zero_unstable
from .numeration import encode_lsd


class Dfao:
    """Deterministic finite automaton with output, lsd-first input."""

    __slots__ = ("base", "transitions", "initial", "outputs", "output_alphabet")

    def __init__(self, base, transitions, initial, outputs):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        self.base = base
        self.transitions = tuple(tuple(row) for row in transitions)
        self.initial = initial
        self.outputs = tuple(outputs)
        if len(self.outputs) != len(self.transitions):
            raise ValueError("need exactly one output per state")
        for row in self.transitions:
            if len(row) != base:
                raise ValueError("transition table is not total")
            for t in row:
                if not 0 <= t < len(self.transitions):
                    raise ValueError(f"transition target {t} out of range")
        if not 0 <= initial < len(self.transitions):
            raise ValueError(f"initial state {initial} out of range")
        try:
            self.output_alphabet = tuple(sorted(set(self.outputs)))
        except TypeError:
            raise ValueError("outputs must be mutually comparable") from None
        bad = _zero_unstable(self.transitions, self.initial, self.outputs.__getitem__)
        if bad is not None:
            raise ValueError(f"padding instability: state {bad} and its zero successor disagree")

    @property
    def n_states(self):
        return len(self.transitions)

    def evaluate(self, n):
        """Sequence value at index n."""
        q = self.initial
        for sym in encode_lsd(n, self.base):
            q = self.transitions[q][sym[0]]
        return self.outputs[q]

    def run_digits(self, digits):
        q = self.initial
        for d in digits:
            q = self.transitions[q][d]
        return self.outputs[q]

    def __eq__(self, other):
        return (isinstance(other, Dfao)
                and (self.base, self.transitions, self.initial, self.outputs)
                == (other.base, other.transitions, other.initial, other.outputs))

    def __hash__(self):
        return hash((self.base, self.transitions, self.initial, self.outputs))

    def __repr__(self):
        return f"<Dfao base={self.base} states={self.n_states}>"


def thue_morse():
    """The Thue-Morse sequence: parity of the binary digit sum."""
    return Dfao(2, [[0, 1], [1, 0]], 0, [0, 1])


def prefix(s, length):
    """First `length` values of the sequence, as a list over its alphabet."""
    return [s.evaluate(i) for i in range(length)]


def store(s):
    """Text form of a Dfao; round-trips through load()."""
    lines = [f"dfao base={s.base} states={s.n_states} initial={s.initial} order=lsd"]
    for q in range(s.n_states):
        lines.append(f"state {q} output {s.outputs[q]}")
    for q in range(s.n_states):
        for d in range(s.base):
            lines.append(f"{q} {d} {s.transitions[q][d]}")
    return "\n".join(lines) + "\n"


def load(text):
    """Parse the Dfao text format, rejecting partial or padding-unstable
    input.  Memory grows with the lines read, not with the declared sizes."""
    lineno, _, fields, data = _read_text(text, "dfao", ("dfao",),
                                         {"base": 2, "states": 0, "initial": None})
    base, n_states = fields["base"], fields["states"]
    initial, = _parse(int, [fields["initial"]], lineno)
    if not 0 <= initial < n_states:
        raise ValueError(f"line {lineno}: initial state {initial} out of range")
    if fields.get("order", "lsd") != "lsd":
        raise ValueError(f"line {lineno}: unsupported digit order {fields.get('order')!r}")
    outputs, table = {}, {}  # state -> output, (state, digit) -> target
    for lineno, ln in data:
        parts = ln.split()
        if parts[0] == "state":
            if len(parts) != 4 or parts[2] != "output":
                raise ValueError(f"line {lineno}: malformed state line {ln!r}")
            q, = _parse(int, parts[1:2], lineno, ln)
            if not 0 <= q < n_states:
                raise ValueError(f"line {lineno}: state {q} out of range")
            sym = parts[3]
            outputs[q] = int(sym) if sym.lstrip("-").isdigit() else sym
        else:
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed transition {ln!r}")
            src, d, dst = _parse(int, parts, lineno, ln)
            if not (0 <= src < n_states and 0 <= d < base):
                raise ValueError(f"line {lineno}: state or digit out of range in {ln!r}")
            table[src, d] = dst
    for q in range(n_states):
        if q not in outputs:
            raise ValueError(f"state {q}: missing output")
        if not all((q, d) in table for d in range(base)):
            raise ValueError(f"state {q}: transition table is not total")
    rows = [[table[q, d] for d in range(base)] for q in range(n_states)]
    return Dfao(base, rows, initial, [outputs[q] for q in range(n_states)])
