"""Finite automata over tuple-digit alphabets.

Words are lsd-first digit words (see numeration).  A symbol of an arity-r
automaton in base k is an r-tuple over {0, ..., k-1}; internally symbols
are integers in [0, k^r) in lexicographic tuple order (track 0 most
significant), which keeps transition tables flat and canonical orderings
reproducible.

DFAs are always complete and have a single initial state.  NFAs admit
epsilon transitions and positive transition multiplicities; initial and
final states may additionally carry multiplicities, which path-counting
constructions need (a plain state set means multiplicity one).
"""

from .numeration import DigitWord, encode_tuple


class StateLimit(RuntimeError):
    """A construction exceeded its state-count ceiling."""


_ALPHABETS = {}
_TRACK_MAPS = {}
# Bit positions set in each byte value: the subset construction's byte memo
# reads a mask a byte at a time.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def alphabet(k, arity):
    """Lex-ordered tuple alphabet for base k and the given arity (cached)."""
    key = (k, arity)
    cached = _ALPHABETS.get(key)
    if cached is None:
        syms = [()]
        for _ in range(arity):
            syms = [s + (d,) for s in syms for d in range(k)]
        index = {s: i for i, s in enumerate(syms)}
        cached = (tuple(syms), index)
        _ALPHABETS[key] = cached
    return cached


def sym_tuples(k, arity):
    return alphabet(k, arity)[0]


def sym_index(k, arity):
    return alphabet(k, arity)[1]


def _track_map(k, arity, picks):
    """Symbol map of a track selection (cached): entry s is the id of the
    symbol whose digits are those of symbol s (arity `arity`) on tracks
    picks[0], picks[1], ...  Picks may drop, repeat or reorder tracks."""
    picks = tuple(picks)
    key = (k, arity, picks)
    cached = _TRACK_MAPS.get(key)
    if cached is None:
        index = sym_index(k, len(picks))
        cached = tuple(index[tuple(sym[p] for p in picks)] for sym in sym_tuples(k, arity))
        _TRACK_MAPS[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Shared graph helpers

def _explore(start, successors, limit=None):
    """Worklist kernel of every "reachable states" construction.

    Interns each key the first time successors() yields it and numbers the
    keys in FIFO discovery order, so yielding successors in symbol order
    gives the canonical breadth-first numbering.  Returns (keys, rows):
    keys[i] is state i and rows[i] the ids of its successors in the order
    yielded.  Raises StateLimit when the next new key would be number limit.
    """
    ids = {start: 0}
    keys = [start]
    rows = []
    get = ids.get
    for key in keys:  # keys grows while it is walked: a FIFO queue
        row = []
        for nxt in successors(key):
            t = get(nxt)
            if t is None:
                t = len(keys)
                if limit is not None and t >= limit:
                    raise StateLimit(f"construction exceeded {limit} states")
                ids[nxt] = t
                keys.append(nxt)
            row.append(t)
        rows.append(row)
    return keys, rows


def _reachable(starts, succ):
    """Set of nodes reachable from starts (included) along succ(node)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _useful(starts, finals, succ):
    """Nodes on some path along succ(node) from starts to a node in finals:
    those reachable from starts that reach one of the reachable finals."""
    reach = _reachable(starts, succ)
    pre = {q: [] for q in reach}
    for q in reach:
        for t in succ(q):
            pre[t].append(q)
    return _reachable([f for f in finals if f in reach], pre.__getitem__)


def _zero_unstable(transitions, initial, label):
    """Least state reachable from initial whose successor on the all-zero
    symbol 0 has another label(q), else None: then trailing zeros never
    change a word's label (finality: pad-closed; outputs: padding stable)."""
    reach = _reachable((initial,), transitions.__getitem__)
    return min((q for q in reach if label(transitions[q][0]) != label(q)), default=None)


def _sccs(nodes, succ):
    """Strongly connected components reachable from nodes, as lists, in
    reverse topological order (a component comes before every component
    that reaches it).  Iterative Tarjan; roots are tried in nodes order."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for t in it:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(succ(t))))
                    break
                if t in on_stack and index[t] < low[node]:
                    low[node] = index[t]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def _cyclic(comp, succ):
    """Whether a strongly connected component contains a cycle."""
    return len(comp) > 1 or comp[0] in succ(comp[0])


class Dfa:
    """Complete deterministic automaton over the tuple-digit alphabet.

    Dfa(...) checks the base, the table and the states (load() builds
    through it); the constructions whose tables the engine numbers itself
    use _from_rows, which checks nothing.
    """

    __slots__ = ("base", "arity", "transitions", "initial", "finals")

    def __init__(self, base, arity, transitions, initial, finals):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        self._set(base, arity, transitions, initial, finals)
        nsym = base ** arity
        n = len(self.transitions)
        for row in self.transitions:
            if len(row) != nsym:
                raise ValueError("transition table is not total")
            if min(row) < 0 or max(row) >= n:
                t = next(t for t in row if not 0 <= t < n)
                raise ValueError(f"transition target {t} out of range")
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        if any(not 0 <= f < n for f in self.finals):
            raise ValueError("final state out of range")

    @classmethod
    def _from_rows(cls, base, arity, rows, initial, finals):
        """Dfa straight from a table of successor ids; nothing is checked."""
        a = cls.__new__(cls)
        a._set(base, arity, rows, initial, finals)
        return a

    def _set(self, base, arity, rows, initial, finals):
        self.base, self.arity, self.initial = base, arity, initial
        self.transitions = tuple(map(tuple, rows))
        self.finals = frozenset(finals)

    @property
    def n_states(self):
        return len(self.transitions)

    def run(self, word):
        """Final state reached on a DigitWord or iterable of digit tuples."""
        index = sym_index(self.base, self.arity)
        q = self.initial
        for sym in word:
            q = self.transitions[q][index[tuple(sym)]]
        return q

    def accepts(self, word):
        return self.run(word) in self.finals

    def accepts_values(self, values):
        """Membership of the value tuple, via its canonical joint encoding."""
        values = tuple(values)
        if all(v == 0 for v in values):
            return self.initial in self.finals
        return self.accepts(encode_tuple(values, self.base))

    def __eq__(self, other):
        return (
            isinstance(other, Dfa)
            and self.base == other.base
            and self.arity == other.arity
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.finals == other.finals
        )

    def __hash__(self):
        return hash((self.base, self.arity, self.transitions, self.initial, self.finals))

    def __repr__(self):
        return f"<Dfa base={self.base} arity={self.arity} states={self.n_states}>"


class Nfa:
    """Nondeterministic automaton with epsilon moves and multiplicities.

    `steps[q]` maps symbol id -> {target: multiplicity}; `eps[q]` maps
    target -> multiplicity.  `initials` and `finals` map state -> weight.
    """

    __slots__ = ("base", "arity", "n_states", "steps", "eps", "initials", "finals")

    def __init__(self, base, arity, n_states, steps=None, eps=None, initials=(), finals=()):
        self.base = base
        self.arity = arity
        self.n_states = n_states
        self.steps = [dict() for _ in range(n_states)] if steps is None else steps
        self.eps = [dict() for _ in range(n_states)] if eps is None else eps
        self.initials = dict(initials) if isinstance(initials, dict) else {q: 1 for q in initials}
        self.finals = dict(finals) if isinstance(finals, dict) else {q: 1 for q in finals}

    def add_edge(self, src, sym_id, dst, mult=1):
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        row = self.steps[src].setdefault(sym_id, {})
        row[dst] = row.get(dst, 0) + mult

    def add_eps(self, src, dst, mult=1):
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        self.eps[src][dst] = self.eps[src].get(dst, 0) + mult

    def has_eps(self):
        return any(self.eps[q] for q in range(self.n_states))

    def __repr__(self):
        return f"<Nfa base={self.base} arity={self.arity} states={self.n_states}>"


def _mask(states):
    """Bitmask with bit q set for every q in states."""
    m = 0
    for q in states:
        m |= 1 << q
    return m


def _subsets(base, arity, packed, start, final_mask, limit, pad=False):
    """Subset construction over packed rows, the one kernel behind
    determinize and determinize_reverse.

    A subset is a bitmask over the n source states.  packed[q] holds q's
    successor sets for every symbol at once, symbol s in bits
    [s*n, (s+1)*n), so the row of a subset is the OR of its members' rows,
    after which one shift and mask per symbol splits it.  With pad the
    start is first closed along symbol 0 (the low n bits of each row).

    The OR goes a byte of the subset at a time (the method of Four
    Russians, with its table built lazily): chunk i of 8 states keeps a
    dict from a byte value to the OR of the rows its set bits select.  A
    single-bit byte maps to the row itself; any other entry is built the
    first time a subset holds that byte and reused after that.  So a
    subset's row costs one big-integer OR per nonzero byte, not one per
    member.
    """
    n = len(packed)
    shifts = [s * n for s in range(base ** arity)]
    nbytes = (n + 7) // 8
    full = (1 << n) - 1
    memos = [{1 << bit: row for bit, row in enumerate(packed[i:i + 8])}
             for i in range(0, n, 8)]

    def successors(subset):
        acc = 0
        for byte, memo in zip(subset.to_bytes(nbytes, "little"), memos):
            if byte:
                row = memo.get(byte)
                if row is None:
                    row = 0
                    for bit in _BYTE_BITS[byte]:
                        row |= memo[1 << bit]
                    memo[byte] = row
                acc |= row
        return [acc >> sh & full for sh in shifts]

    if pad:
        while (closed := start | successors(start)[0]) != start:
            start = closed
    subsets, rows = _explore(start, successors, limit)
    return Dfa._from_rows(base, arity, rows, 0,
                          {i for i, subset in enumerate(subsets) if subset & final_mask})


def determinize(a, limit=None, *, pad=False):
    """Subset construction; multiplicities collapse to plain membership.
    With pad the start subset is closed along symbol 0: w is accepted when
    some 0^j·w is, since a mirror's leading zeros are trailing zeros."""
    if a.has_eps():
        raise ValueError("determinize requires an epsilon-free NFA")
    n = a.n_states
    packed = [0] * n
    for q, steps in enumerate(a.steps):
        for s, targets in steps.items():
            packed[q] |= _mask(targets) << s * n
    return _subsets(a.base, a.arity, packed, _mask(a.initials), _mask(a.finals), limit, pad)


def determinize_reverse(a, drop=(), pad=False, limit=None):
    """Subset construction of the reversal of project_many(a, drop), read
    straight off the transition table of the complete DFA a; an empty drop
    projects nothing.

    With pad the start subset is closed along symbol 0: in reverse,
    trailing zeros lead, so the result accepts the reversal of w whenever
    the projection accepts some w·0^j.  Determinizing the reversal of a
    reachable DFA gives the minimal DFA of its reversed language
    (Brzozowski).

    State t's row holds pre_s(t), the states that enter t on symbol s; a
    dropped track merges several symbols into one, whose pre_s(t) is the
    union of theirs.  _subsets ORs these rows as it ORs an NFA's.
    """
    n = a.n_states
    keep = _kept_tracks(a, drop)
    nsym = a.base ** len(keep)
    bits = [1 << q for q in range(n)]
    pre = [[0] * n for _ in range(nsym)]  # pre[s][t]: predecessors of t on s
    for s, col in zip(_track_map(a.base, a.arity, keep), zip(*a.transitions)):
        masks = pre[s]
        for bit, t in zip(bits, col):
            masks[t] |= bit
    packed = pre.pop()
    while pre:  # last symbol first, freeing each symbol's masks once packed
        packed = [row << n | m for row, m in zip(packed, pre.pop())]
    return _subsets(a.base, len(keep), packed, _mask(a.finals), bits[a.initial], limit, pad)


def complement(a):
    """Swap accepting and non-accepting states of a complete DFA."""
    return Dfa._from_rows(a.base, a.arity, a.transitions, a.initial,
                          set(range(a.n_states)) - a.finals)


_BOOL_OPS = {
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "implies": lambda x, y: not x or y,
    "xor": lambda x, y: x != y,
    "iff": lambda x, y: x == y,
}


def product(a, b, op, limit=None):
    """Pairing construction; membership is the boolean op of memberships."""
    if a.base != b.base or a.arity != b.arity:
        raise ValueError("product requires matching base and arity")
    fn = _BOOL_OPS[op]
    pairs, rows = _explore(
        (a.initial, b.initial),
        lambda pair: zip(a.transitions[pair[0]], b.transitions[pair[1]]), limit)
    finals = {i for i, (qa, qb) in enumerate(pairs) if fn(qa in a.finals, qb in b.finals)}
    return Dfa._from_rows(a.base, a.arity, rows, 0, finals)


def _kept_tracks(a, tracks):
    """Tracks of a left after dropping tracks, which must leave at least one."""
    tracks = set(tracks)
    if not tracks <= set(range(a.arity)):
        raise IndexError(f"tracks {sorted(tracks)} out of range for arity {a.arity}")
    if len(tracks) >= a.arity:
        raise ValueError("cannot project every track; use is_empty instead")
    return [t for t in range(a.arity) if t not in tracks]


def project_many(a, tracks):
    """Drop several tracks at once.

    For adjacent existential quantifiers this is far cheaper than
    projecting one track at a time: the single subset construction decides
    all removed witnesses together.
    """
    keep = _kept_tracks(a, tracks)
    mapping = _track_map(a.base, a.arity, keep)
    steps = []
    for row in a.transitions:
        out = {}
        for s, t in zip(mapping, row):
            targets = out.get(s)
            if targets is None:
                out[s] = {t: 1}
            else:
                targets[t] = targets.get(t, 0) + 1
        steps.append(out)
    return Nfa(a.base, len(keep), a.n_states, steps, initials={a.initial: 1}, finals=a.finals)


def inflate(a, *positions):
    """Insert new, ignored tracks; positions are track indices of the result."""
    arity = a.arity + len(positions)
    if len(set(positions)) != len(positions) or not all(0 <= p < arity for p in positions):
        raise IndexError(f"positions {positions} invalid for arity {a.arity}")
    mapping = _track_map(a.base, arity, [t for t in range(arity) if t not in positions])
    trans = [[row[m] for m in mapping] for row in a.transitions]
    return Dfa._from_rows(a.base, arity, trans, a.initial, a.finals)


def permute_tracks(a, order):
    """Reorder tracks; order[i] is the old track placed at new position i."""
    if sorted(order) != list(range(a.arity)):
        raise ValueError(f"order {order} is not a permutation of the tracks")
    inverse = [0] * a.arity
    for new_pos, old_pos in enumerate(order):
        inverse[old_pos] = new_pos
    mapping = _track_map(a.base, a.arity, inverse)
    trans = [[row[m] for m in mapping] for row in a.transitions]
    return Dfa._from_rows(a.base, a.arity, trans, a.initial, a.finals)


def pad_closure(a):
    """Close acceptance under adding and removing trailing zero symbols.

    Afterwards membership depends only on the decoded value tuple.  The
    result is minimized, which makes pad_closure a structural fixed point.
    A test for pad-closure needs no construction (_zero_unstable); this
    stays public because bench/tracer.py traces it as a layer of its own.
    """
    zero = 0  # lex id of the all-zero symbol
    # Step 1: accept w whenever some w·0^j is accepted (strip closure): the
    # states that reach a final state along zero symbols.  Only zero-symbol
    # targets get a predecessor list: a list for every state of a large
    # subset construction measurably raised peak memory.
    zero_pre = {}
    for q, row in enumerate(a.transitions):
        zero_pre.setdefault(row[zero], []).append(q)
    finals1 = _reachable(a.finals, lambda q: zero_pre.get(q, ()))
    # Step 2: also accept w·0^j for accepted w.  Track a bit meaning "some
    # split of the input as u·0^j with u accepted exists"; deterministic.

    def successors(state):
        q, bit = state
        row = a.transitions[q]
        out = [(t, t in finals1) for t in row]
        if bit:
            out[zero] = (row[zero], True)
        return out

    states, rows = _explore((a.initial, a.initial in finals1), successors)
    return minimize(Dfa._from_rows(a.base, a.arity, rows, 0,
                                   {i for i, (_, bit) in enumerate(states) if bit}))


def minimize(a):
    """Minimal complete DFA in canonical form.

    Moore refinement: each round names a state's new class after the first
    state with its signature (class, classes of its successors), until the
    count stops growing or every state is alone.  Moore takes as many
    rounds as the distinguishing depth, so a partition still growing after
    about log2(n) rounds goes to Hopcroft.  A class, named by a member, is
    the set of states with one future language, so the walk from the
    initial class reaches exactly the reachable quotient; it numbers classes
    breadth-first with symbols in lexicographic order, so language-equal
    minimal automata are structurally identical.
    """
    trans = a.transitions
    n = len(trans)
    cols = list(zip(*trans))  # cols[s][q]: successor of q on symbol s
    cls = list(map(a.finals.__contains__, range(n)))
    count = len(set(cls))
    for _ in range(n.bit_length() + 2):
        get, ids = cls.__getitem__, {}
        cls = list(map(ids.setdefault, zip(cls, *[map(get, col) for col in cols]), range(n)))
        if len(ids) in (count, n):
            break
        count = len(ids)
    else:  # _hopcroft wants ids 0..count-1; name its blocks by their first state
        dense = dict(zip(ids.values(), range(count)))
        cls = list(map({}.setdefault, _hopcroft(trans, list(map(dense.get, cls)), count),
                       range(n)))
    get = cls.__getitem__
    order, rows = _explore(cls[a.initial], lambda c: map(get, trans[c]))
    return Dfa._from_rows(a.base, a.arity, rows, 0,
                          {i for i, c in enumerate(order) if c in a.finals})


def _hopcroft(trans, cls, count):
    """Coarsest refinement of the partition cls (class ids 0..count-1) that
    is stable under every symbol (Hopcroft 1971).  Every block starts in the
    worklist, so any partition that separates only inequivalent states is a
    valid seed.  Returns the refined class of each state."""
    n = len(trans)
    nsym = len(trans[0])
    inverse = [[[] for _ in range(n)] for _ in range(nsym)]
    for q, row in enumerate(trans):
        for s, t in enumerate(row):
            inverse[s][t].append(q)
    blocks = [set() for _ in range(count)]
    for q, c in enumerate(cls):
        blocks[c].add(q)
    block_of = list(cls)
    worklist = list(range(count))
    in_work = set(worklist)
    while worklist:
        b = worklist.pop()
        in_work.discard(b)
        splitter = list(blocks[b])
        for s in range(nsym):
            pre = set()
            for q in splitter:
                pre.update(inverse[s][q])
            touched = {}
            for q in pre:
                touched.setdefault(block_of[q], set()).add(q)
            for bid, inter in touched.items():
                blk = blocks[bid]
                if len(inter) == len(blk):
                    continue
                rest = blk - inter
                blocks[bid] = inter
                new_id = len(blocks)
                blocks.append(rest)
                for q in rest:
                    block_of[q] = new_id
                if bid in in_work:
                    worklist.append(new_id)
                    in_work.add(new_id)
                else:
                    smaller = new_id if len(rest) <= len(inter) else bid
                    worklist.append(smaller)
                    in_work.add(smaller)
    return block_of


def is_empty(a):
    """(True, None) if L(a) is empty, else (False, shortest witness word).

    The witness is the lexicographically least among the shortest accepted
    words.
    """
    keys, rows = _explore(a.initial, a.transitions.__getitem__)
    first = next((i for i, q in enumerate(keys) if q in a.finals), None)
    if first is None:
        return True, None
    parent = {}  # state id -> its discovering edge, the first (id, symbol) reaching it
    for i, row in enumerate(rows[:first]):
        for s, t in enumerate(row):
            parent.setdefault(t, (i, s))
    syms = sym_tuples(a.base, a.arity)
    word = []
    while first:  # id 0 is the initial state
        first, s = parent[first]
        word.append(syms[s])
    word.reverse()
    return False, DigitWord(a.base, a.arity, tuple(word))


def is_finite(a):
    """True iff L(a) is finite: no cycle runs through a state that is both
    reachable from the initial state and co-reachable to a final one."""
    useful = _useful((a.initial,), a.finals, a.transitions.__getitem__)

    def succ(q):
        return [t for t in a.transitions[q] if t in useful]

    return not any(_cyclic(comp, succ) for comp in _sccs(useful, succ))


def equivalent(a, b):
    """(True, None) if same language, else (False, shortest difference word)."""
    if a.base != b.base or a.arity != b.arity:
        raise ValueError("equivalent requires matching base and arity")
    diff = product(a, b, "xor")
    empty, witness = is_empty(diff)
    return (True, None) if empty else (False, witness)


def store(aut):
    """Text form of a Dfa or Nfa; bit-exact round trip with load()."""
    lines = []
    if isinstance(aut, Dfa):
        finals = ",".join(str(q) for q in sorted(aut.finals))
        lines.append(f"dfa base={aut.base} arity={aut.arity} states={aut.n_states} "
                     f"initial={aut.initial} finals={finals}")
        syms = sym_tuples(aut.base, aut.arity)
        for q in range(aut.n_states):
            for s, sym in enumerate(syms):
                label = ",".join(str(d) for d in sym)
                lines.append(f"{q} {label} 1 {aut.transitions[q][s]}")
    else:
        for weights, what in ((aut.initials, "initial"), (aut.finals, "final")):
            if any(w != 1 for w in weights.values()):
                raise ValueError(f"cannot store NFA with non-unit {what} weights")
        initials = ",".join(str(q) for q in sorted(aut.initials))
        finals = ",".join(str(q) for q in sorted(aut.finals))
        lines.append(f"nfa base={aut.base} arity={aut.arity} states={aut.n_states} "
                     f"initial={initials} finals={finals}")
        syms = sym_tuples(aut.base, aut.arity)
        for q in range(aut.n_states):
            for s in sorted(aut.steps[q]):
                label = ",".join(str(d) for d in syms[s])
                for t in sorted(aut.steps[q][s]):
                    lines.append(f"{q} {label} {aut.steps[q][s][t]} {t}")
            for t in sorted(aut.eps[q]):
                lines.append(f"{q} eps {aut.eps[q][t]} {t}")
    return "\n".join(lines) + "\n"


def _parse(convert, tokens, lineno, ln=None):
    """[convert(t) for t in tokens]; a token it refuses raises ValueError
    naming the line, and the line's text for a data line."""
    try:
        return [convert(t) for t in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        where = "" if ln is None else f" in {ln!r}"
        raise ValueError(f"line {lineno}: {exc}{where}") from None


def _read_text(text, noun, kinds, spec):
    """The one reader of the stored text formats (this module's, seqgen's
    and regseq's): the nonblank lines, numbered from 1, the first a header
    `kind key=value ...` with kind in `kinds`.

    `spec` maps each required field to its least value, or to None for a
    field kept as text.  Returns the header's line number, its kind, the
    fields (the bounded ones as ints) and the (lineno, line) pairs after
    it.  Every header error names its line."""
    lines = [(i + 1, ln) for i, raw in enumerate(text.splitlines()) if (ln := raw.strip())]
    if not lines:
        raise ValueError(f"empty {noun} text")
    lineno, header = lines[0]
    kind, *parts = header.split()
    if kind not in kinds:
        raise ValueError(f"line {lineno}: expected {noun} header" if kinds == (noun,)
                         else f"line {lineno}: unknown {noun} kind {kind!r}")
    fields = dict(p.partition("=")[::2] for p in parts)
    for key, least in spec.items():
        if key not in fields:
            raise ValueError(f"line {lineno}: header has no {key}= field")
        if least is not None:
            fields[key] = _parse(int, [fields[key]], lineno)[0]
            if fields[key] < least:
                raise ValueError(f"line {lineno}: {key} must be >= {least}, got {fields[key]}")
    return lineno, kind, fields, lines[1:]


def load(text):
    """Parse the text automaton format produced by store(); malformed text
    raises ValueError naming the line.  The table holds only the lines
    read, so memory grows with the text, not with the declared sizes."""
    lineno, kind, fields, data = _read_text(text, "automaton", ("dfa", "nfa"), {
        "base": 2, "arity": 0, "states": 0, "initial": None, "finals": None})
    base, arity, n_states = fields["base"], fields["arity"], fields["states"]
    initials, finals = (_parse(int, [x for x in fields[key].split(",") if x != ""], lineno)
                        for key in ("initial", "finals"))
    if any(not 0 <= q < n_states for q in initials + finals):
        raise ValueError(f"line {lineno}: initial or final state out of range")
    if kind == "dfa" and len(initials) != 1:
        raise ValueError(f"line {lineno}: a DFA has exactly one initial state")
    if kind == "nfa":
        out = Nfa(base, arity, n_states, initials=initials, finals=finals)
    table = {}  # (state, symbol id) -> target
    for lineno, ln in data:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: malformed transition {ln!r}")
        eps = parts[1] == "eps"
        src, mult, dst = _parse(int, (parts[0], parts[2], parts[3]), lineno, ln)
        digits = [] if eps else _parse(int, parts[1].split(","), lineno, ln)
        sym = 0  # lexicographic id, track 0 most significant
        for d in digits:
            sym = sym * base + d
        if not (0 <= src < n_states and 0 <= dst < n_states) or not eps and (
                len(digits) != arity or not all(0 <= d < base for d in digits)):
            raise ValueError(f"line {lineno}: state or symbol out of range in {ln!r}")
        if kind == "dfa":
            if eps or mult != 1:
                raise ValueError(f"line {lineno}: DFA transitions must have multiplicity 1")
            table[src, sym] = dst
        elif eps:
            out.add_eps(src, dst, mult)
        else:
            out.add_edge(src, sym, dst, mult)
    if kind == "nfa":
        return out
    nsym = base ** arity if table else 1  # a line read has `arity` digits
    for q in range(n_states):
        if not all((q, s) in table for s in range(nsym)):
            raise ValueError(f"state {q}: transition table is not total")
    rows = [[table[q, s] for s in range(nsym)] for q in range(n_states)]
    return Dfa(base, arity, rows, initials[0], finals)
