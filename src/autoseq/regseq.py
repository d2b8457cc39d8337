"""Linear representations of recognizable series and k-regular sequences.

A linear representation (u, mu, v) over a semiring evaluates a base-k
word lsd-first: value(d0 d1 ... dm) = u . mu(d0) . mu(d1) ... mu(dm) . v.
Supported semirings: the naturals ('nat'), the naturals extended with an
absorbing infinity ('natinf', where 0 * inf = 0), and the rationals
('rat').  All arithmetic is exact; there is no floating point anywhere in
this module.

The counting pipeline turns a pad-closed two-track predicate automaton
into the series counting witnesses on the second track: rewrite each
value pair to a unique representative whose first-track padding is a
marker consumed as epsilon, saturate the epsilon moves exactly (infinite
path families become the absorbing infinity), and read the linear
representation off the resulting weighted automaton.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain

from . import automata, logic
from .automata import Dfa, Nfa, minimize


class _Infinity:
    """Absorbing infinity of the extended naturals; 0 * inf = 0."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (int, _Infinity)):
            return INF
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Infinity):
            return INF
        if isinstance(other, int):
            return 0 if other == 0 else INF
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("autoseq-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "inf"


INF = _Infinity()


def _sparse(m):
    """Nonzero (column, value) pairs of each row of a dense matrix."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def _dense(row, r):
    """Width-r dense form of a sparse row."""
    out = [0] * r
    for j, x in row:
        out[j] = x
    return tuple(out)


def _vec_mat(u, rows):
    """u . M for M given by its sparse rows.  Zero terms are skipped rather
    than multiplied, so 0 * inf = 0 holds without a special case."""
    out = [0] * len(rows)
    for x, row in zip(u, rows):
        if x:
            for j, y in row:
                out[j] += x * y
    return tuple(out)


def _mat_vec(rows, v):
    """M . v for M given by its sparse rows."""
    return tuple(sum(y * v[j] for j, y in row) for row in rows)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _entries(l):
    """Every nonzero matrix entry of l, with all of u and v."""
    yield from l.u
    for rows in l._rows:
        for row in rows:
            for _, x in row:
                yield x
    yield from l.v


_SEMIRINGS = ("nat", "natinf", "rat")


class LinRep:
    """Linear representation (u, mu, v) over a declared semiring.

    Each mu(d) is stored only as its sparse rows: rows[d][i] holds the
    nonzero (column, value) pairs of row i, columns ascending, so two
    representations are equal exactly when their stored forms are.
    """

    def __init__(self, semiring, base, u, mats, v):
        if semiring not in _SEMIRINGS:
            raise ValueError(f"unknown semiring {semiring!r}")
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        u, mats, v = tuple(u), tuple(mats), tuple(v)
        r = len(u)
        if len(mats) != base:
            raise ValueError(f"need one matrix per digit, got {len(mats)}")
        for m in mats:
            if len(m) != r or any(len(row) != r for row in m):
                raise ValueError("matrix rank mismatch")
        if len(v) != r:
            raise ValueError("vector rank mismatch")
        self._set(semiring, base, u, tuple(_sparse(m) for m in mats), v)
        for entry in chain(u, v, (x for m in mats for row in m for x in row)):
            self._check_entry(entry)

    @classmethod
    def _from_rows(cls, semiring, base, u, rows, v):
        """Representation built straight from sparse rows: rows[d][i] lists
        the nonzero (column, value) pairs of mu(d)'s row i, columns
        ascending.  Nothing is checked."""
        l = cls.__new__(cls)
        l._set(semiring, base, tuple(u), tuple(tuple(map(tuple, m)) for m in rows), tuple(v))
        return l

    def _set(self, semiring, base, u, rows, v):
        self.semiring = semiring
        self.base = base
        self.u = u
        self._rows = rows
        self.v = v
        self.inf_part = None  # optional InfDecomposition, set by producers
        self._view = None     # rational view, built on first use by _rational_view

    def _check_entry(self, x):
        if self.semiring == "nat":
            if not (isinstance(x, int) and x >= 0):
                raise ValueError(f"entry {x!r} is not a natural number")
        elif self.semiring == "natinf":
            if not ((isinstance(x, int) and x >= 0) or isinstance(x, _Infinity)):
                raise ValueError(f"entry {x!r} is not in the extended naturals")
        else:
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"entry {x!r} is not rational")

    @property
    def rank(self):
        return len(self.u)

    @property
    def mats(self):
        """Dense matrices mu(0), ..., mu(k-1), built from the rows on each access."""
        return tuple(tuple(_dense(row, self.rank) for row in rows) for rows in self._rows)

    def eval_word(self, digits):
        """Value of the series at an lsd-first digit sequence."""
        row = self.u
        for d in digits:
            row = _vec_mat(row, self._rows[d])
        return _dot(row, self.v)

    def evaluate(self, n):
        """Value at the natural number n (canonical lsd digits)."""
        if n < 0:
            raise ValueError(f"cannot encode negative value {n}")
        digits = []
        while n:
            n, d = divmod(n, self.base)
            digits.append(d)
        return self.eval_word(digits)

    def trailing_normalized(self):
        """Whether mu(0) . v = v holds structurally."""
        return _mat_vec(self._rows[0], self.v) == self.v

    def leading_normalized(self):
        return _vec_mat(self.u, self._rows[0]) == self.u

    def __eq__(self, other):
        return (isinstance(other, LinRep)
                and (self.semiring, self.base, self.u, self._rows, self.v)
                == (other.semiring, other.base, other.u, other._rows, other.v))

    def __repr__(self):
        return f"<LinRep {self.semiring} base={self.base} rank={self.rank}>"


@dataclass
class InfDecomposition:
    """Split of an extended-natural series into its infinity locus and a
    natural-valued part that agrees wherever the value is finite."""
    infinite_part: Dfa
    finite_part: LinRep


def zero_rep(base, semiring="nat"):
    zero = Fraction(0) if semiring == "rat" else 0
    return LinRep(semiring, base, (zero,), tuple(((zero,),) for _ in range(base)), (zero,))


# ---------------------------------------------------------------------------
# NFA <-> linear representation

def linrep_from_nfa(a):
    """Path-counting series of an epsilon-free NFA.

    u and v are the initial and final weight vectors, mu(d) the
    multiplicity matrices; the word value equals the number of accepting
    paths (weighted by multiplicities).
    """
    if a.has_eps():
        raise ValueError("linrep_from_nfa requires an epsilon-free NFA; use eps_saturate")
    if a.arity != 1:
        raise ValueError("series are over arity-1 words")
    n = a.n_states
    u = tuple(a.initials.get(q, 0) for q in range(n))
    v = tuple(a.finals.get(q, 0) for q in range(n))
    rows = [[sorted(steps[d].items()) if d in steps else () for steps in a.steps]
            for d in range(a.base)]
    weights = chain(u, v, (mult for steps in a.steps for targets in steps.values()
                           for mult in targets.values()))
    semiring = "natinf" if any(isinstance(x, _Infinity) for x in weights) else "nat"
    return LinRep._from_rows(semiring, a.base, u, rows, v)


def _rank_pad(l):
    """Rank-(r+2) representation with unit u, v and value 0 at the empty word."""
    r = l.rank
    u2 = (1,) + (0,) * (r + 1)
    v2 = (0,) * (r + 1) + (1,)
    rows2 = []
    for rows in l._rows:
        # state 0 is the new start, 1..r the old states, r + 1 the new end
        um = _vec_mat(l.u, rows)
        top = [(j + 1, x) for j, x in enumerate(um) if x]
        middle = [[(j + 1, x) for j, x in row] for row in rows]
        # the end column holds u.M.v in the top row and M.v below it
        for line, x in zip([top, *middle], (_dot(um, l.v),) + _mat_vec(rows, l.v)):
            if x:
                line.append((r + 1, x))
        rows2.append([top, *middle, ()])
    return LinRep._from_rows(l.semiring, l.base, u2, rows2, v2)


def nfa_from_linrep(l):
    """NFA whose path counts realize the series on nonempty words.

    The representation is first padded to have indicator end vectors and
    value 0 at the empty word; each state is then copied once per unit of
    the largest matrix entry so that multiplicities become path counts.
    """
    if l.semiring not in ("nat",):
        raise ValueError("nfa_from_linrep needs a series over the naturals")
    l2 = _rank_pad(l)
    n = l2.rank
    m = max((x for rows in l2._rows for row in rows for _, x in row), default=1)
    nfa = Nfa(l.base, 1, n * m, initials={0: 1}, finals={})
    for s in range(m):
        nfa.finals[(n - 1) * m + s] = 1
    for d, rows in enumerate(l2._rows):
        for i, row in enumerate(rows):
            for r, count in row:
                for j in range(m):
                    for s in range(count):
                        nfa.add_edge(i * m + j, d, r * m + s)
    return nfa


# ---------------------------------------------------------------------------
# Exact epsilon saturation

def _eps_star(n, eps):
    """Sparse rows of D = sum of all epsilon-path weights; entry INF iff
    some connecting path passes through an epsilon cycle."""
    succ = [list(eps[q].keys()) for q in range(n)]
    sccs = automata._sccs(range(n), succ.__getitem__)
    scc_of = [0] * n
    cyclic = [False] * n
    for ci, comp in enumerate(sccs):
        has_cycle = automata._cyclic(comp, succ.__getitem__)
        for q in comp:
            scc_of[q] = ci
            cyclic[q] = has_cycle
    # D rows, processed sinks-first so successors are already known.
    rows = [None] * n
    inf_targets = [0] * n  # bitmask of states j with D[q][j] = INF
    reach = [0] * n        # bitmask of epsilon-reachable states (incl. q)
    for comp in sccs:
        comp_reach = 0
        comp_inf = 0
        for q in comp:
            comp_reach |= 1 << q
        for q in comp:
            for t in succ[q]:
                if scc_of[t] != scc_of[q]:
                    comp_reach |= reach[t]
                    comp_inf |= inf_targets[t]
        if cyclic[comp[0]]:
            comp_inf |= comp_reach
        for q in comp:
            reach[q] = comp_reach
            inf_targets[q] = comp_inf
        for q in comp:
            if cyclic[q]:
                continue  # finite entries of cyclic states are never used
            row = {q: 1}
            for t, mult in eps[q].items():
                if cyclic[t]:
                    continue
                for j, c in rows[t].items():
                    row[j] = row.get(j, 0) + mult * c
            rows[q] = row
    for q in range(n):
        row = {} if cyclic[q] else rows[q]
        rem = inf_targets[q]
        while rem:
            low = rem & -rem
            row[low.bit_length() - 1] = INF
            rem ^= low
        rows[q] = tuple(sorted(row.items()))
    return rows


def eps_saturate(a):
    """Epsilon-free NFA with the same path counts, over extended naturals.

    Computes the exact epsilon-path weight matrix D (INF where a cycle
    makes the family infinite) and folds it into the transitions and the
    final weights.
    """
    if not a.has_eps():
        return a
    n = a.n_states
    d = _eps_star(n, a.eps)
    out = Nfa(a.base, a.arity, n, initials=dict(a.initials), finals={})
    v = [a.finals.get(q, 0) for q in range(n)]
    new_v = _mat_vec(d, v)
    for q in range(n):
        if new_v[q] != 0:
            out.finals[q] = new_v[q]
    nsym = a.base ** a.arity
    for s in range(nsym):
        # mu(s) = D . D_s, rows computed sparsely
        for q in range(n):
            acc = {}
            for mid, w in d[q]:
                for t, mult in a.steps[mid].get(s, {}).items():
                    prev = acc.get(t, 0)
                    acc[t] = prev + w * mult
            for t, mult in acc.items():
                if mult != 0:
                    out.steps[q].setdefault(s, {})[t] = mult
    return out


def trim_nfa(a):
    """Restrict to states on some path from an initial to a final state."""
    useful = automata._useful(a.initials, a.finals,
                              lambda q: chain(a.eps[q], *a.steps[q].values()))
    keep = sorted(useful)
    renum = {q: i for i, q in enumerate(keep)}
    out = Nfa(a.base, a.arity, len(keep),
              initials={renum[q]: w for q, w in a.initials.items() if q in useful},
              finals={renum[q]: w for q, w in a.finals.items() if q in useful})
    for q in keep:
        for s, row in a.steps[q].items():
            for t, mult in row.items():
                if t in useful:
                    out.add_edge(renum[q], s, renum[t], mult)
        for t, mult in a.eps[q].items():
            if t in useful:
                out.add_eps(renum[q], renum[t], mult)
    return out


# ---------------------------------------------------------------------------
# Leading and trailing zeros

def reverse_series(l):
    """Representation of the mirror series: value(w) = original(reversed w)."""
    transposed = []
    for rows in l._rows:
        cols = [[] for _ in rows]
        for i, row in enumerate(rows):
            for j, x in row:
                cols[j].append((i, x))
        transposed.append(cols)
    return LinRep._from_rows(l.semiring, l.base, l.v, transposed, l.u)


def normalize_leading(l):
    """Representation g with (g, 0^i w) = (f, w) for canonical w, built by
    the doubled-block construction; satisfies u . mu(0) = u structurally."""
    r = l.rank
    zero = Fraction(0) if l.semiring == "rat" else 0
    u2 = (zero,) * r + l.u
    identity = tuple(((r + i, 1),) for i in range(r))
    rows2 = [l._rows[0] + identity] + [rows + rows for rows in l._rows[1:]]
    return LinRep._from_rows(l.semiring, l.base, u2, rows2, l.v + l.v)


def normalize_trailing(l):
    """Representation g with (g, w 0^i) = (f, w) for w without trailing
    zeros; satisfies mu(0) . v = v, the form evaluate() relies on."""
    return reverse_series(normalize_leading(reverse_series(l)))


# ---------------------------------------------------------------------------
# Infinity handling

def _xi(x):
    return 0 if isinstance(x, _Infinity) else x


def decompose_infinity(l, limit=1_000_000, note=None):
    """Split an extended-natural series into (infinity locus, finite part).

    Since 0 * inf = 0, a word's value is infinite exactly when some path of
    nonzero weights uses an infinite one.  The locus is therefore the
    language of a two-layer NFA on the support of the representation:
    state q means every weight so far was finite, state q + r that an
    infinite weight has been used.  It is trimmed, determinized (raising
    StateLimit past `limit` subsets; note, if given, sees the subset
    construction) and minimized.  The finite part
    replaces every infinity entry by zero, which cannot change any finite
    value because such entries only ever meet zero there.
    """
    if l.semiring == "rat":
        raise ValueError("decompose_infinity applies to nat/natinf series")
    k, r = l.base, l.rank
    nfa = Nfa(k, 1, 2 * r,
              initials=[q + r if x is INF else q for q, x in enumerate(l.u) if x],
              finals=[q + r for q, x in enumerate(l.v) if x]
              + [q for q, x in enumerate(l.v) if x is INF])
    for d, rows in enumerate(l._rows):
        for q, row in enumerate(rows):
            for t, w in row:
                nfa.add_edge(q, d, t + r if w is INF else t)
                nfa.add_edge(q + r, d, t + r)
    det = automata.determinize(trim_nfa(nfa), limit)
    locus = minimize(note(det) if note else det)
    if l.semiring == "nat":
        return InfDecomposition(locus, l)
    finite = LinRep._from_rows(
        "nat", k, map(_xi, l.u),
        [[[(j, x) for j, x in row if x is not INF] for row in rows] for rows in l._rows],
        map(_xi, l.v))
    return InfDecomposition(locus, finite)


# ---------------------------------------------------------------------------
# Counting pipelines

def _unique_representative_nfa(p):
    """Epsilon NFA counting second-track witnesses of a pad-closed pair DFA.

    Each value pair gets exactly one representative: the joint word of
    length max(|n|, |i|) whose first-track padding is replaced by a marker
    read as epsilon.  Modes: 0 digit zone (first track canonical so far),
    1 digit zone ending in zero, 2 marker zone after a nonzero second
    digit, 3 marker zone after a zero second digit.
    """
    k = p.base
    index = automata.sym_index(k, 2)
    nfa = Nfa(k, 1, 4 * p.n_states, initials={p.initial * 4: 1}, finals={})
    for q in range(p.n_states):
        row = p.transitions[q]
        for a in range(k):
            for b in range(k):
                t = row[index[(a, b)]]
                for mode in (0, 1):
                    nfa.add_edge(q * 4 + mode, a, t * 4 + (1 if a == 0 else 0))
        for b in range(k):
            t = row[index[(0, b)]]
            tmode = 2 if b != 0 else 3
            nfa.add_eps(q * 4 + 0, t * 4 + tmode)
            nfa.add_eps(q * 4 + 2, t * 4 + tmode)
            nfa.add_eps(q * 4 + 3, t * 4 + tmode)
    for q in p.finals:
        nfa.finals[q * 4 + 0] = 1
        nfa.finals[q * 4 + 2] = 1
    return nfa


def _count_series(nfa, k, cfg):
    """Path-counting series of a trimmed epsilon NFA with its infinity-locus
    decomposition attached; over the naturals when every value is finite.
    The locus construction runs under cfg's state ceiling and counts in
    its peak."""
    rep = linrep_from_nfa(eps_saturate(nfa)) if nfa.n_states else zero_rep(k)
    dec = cfg.build(decompose_infinity, rep, note=cfg.note)
    empty, _ = automata.is_empty(dec.infinite_part)
    if empty:
        rep = dec.finite_part
    rep.inf_part = dec
    return rep


def count_parameter(p, config=None):
    """Series n -> |{ i : (n, i) accepted by p }| for a pad-closed pair DFA.

    Track 0 is the parameter, track 1 the counted witness.  The result is
    over the naturals when every count is finite, else over the extended
    naturals; either way the infinity-locus decomposition is attached as
    .inf_part.  config (a logic.CompileConfig) bounds the locus
    construction and records its size.
    """
    if p.arity != 2:
        raise ValueError(f"count_parameter needs an arity-2 automaton, got {p.arity}")
    bad = automata._zero_unstable(p.transitions, p.initial, p.finals.__contains__)
    if bad is not None:
        raise ValueError(f"automaton is not pad-closed: state {bad} and its zero "
                         "successor disagree on acceptance")
    return _count_series(trim_nfa(_unique_representative_nfa(minimize(p))), p.base,
                         config or logic.CompileConfig())


def count_measure(p, config=None):
    """Measure value from its strict level predicate: p(n, t) holds iff the
    measure at n exceeds t, so counting witnesses t >= 0 yields the value.

    p must be downward closed in t; this is decided exactly, and a
    violation raises with the least counterexample.  The decision and the
    count both run under config (a logic.CompileConfig).
    """
    if p.arity != 2:
        raise ValueError(f"count_measure needs an arity-2 automaton, got {p.arity}")
    cfg = config or logic.CompileConfig()
    n, t = logic.Var("n"), logic.Var("t")
    closed = logic.decide(logic.Forall("n", logic.Forall("t", logic.Implies(
        logic.Call(p, (n, logic.Add(t, logic.Const(1)))), logic.Call(p, (n, t))))), {}, cfg)
    if not closed:
        bad = closed.counterexample
        raise ValueError(
            f"level predicate is not downward closed in t at n={bad['n']}, t={bad['t']} "
            "(it holds at t + 1 but not at t)")
    return count_parameter(p, cfg)


def representation_count(digit_set, k, config=None):
    """Series counting lsd base-k digit strings over the given digit set
    (no trailing zeros) whose weighted digit sum is n.

    A carry automaton guesses the string digit by digit against the input;
    positions beyond the input are epsilon moves, which the saturation
    step turns into exact counts or infinity.  The carry automaton and the
    infinity locus run under config (a logic.CompileConfig).
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    digit_set = sorted(set(digit_set))
    # phases: 0 start, 1 last guess zero, 2 last guess nonzero,
    #         3 string finished (consuming padded input),
    #         4/5 tail guesses past the input end (last zero / nonzero)
    def moves(state):
        """[(digit, or None for an epsilon move, next state)]."""
        c, ph = state
        out = []
        if ph in (0, 1, 2):
            for d in range(k):
                out += [(d, ((c + e - d) // k, 1 if e == 0 else 2))
                        for e in digit_set if (c + e - d) % k == 0]
                if ph in (0, 2) and (c - d) % k == 0:
                    out.append((d, ((c - d) // k, 3)))
        elif ph == 3:
            out += [(d, ((c - d) // k, 3)) for d in range(k) if (c - d) % k == 0]
        if ph != 3:
            out += [(None, ((c + e) // k, 4 if e == 0 else 5))
                    for e in digit_set if (c + e) % k == 0]
        return out

    cfg = config or logic.CompileConfig()
    states, rows = cfg.build(automata._explore, (0, 0), lambda st: [t for _, t in moves(st)])
    nfa = Nfa(k, 1, len(states), initials={0: 1},
              finals={i: 1 for i, (c, ph) in enumerate(states) if c == 0 and ph in (0, 2, 3, 5)})
    for src, (state, row) in enumerate(zip(states, rows)):
        for (d, _), dst in zip(moves(state), row):
            if d is None:
                nfa.add_eps(src, dst)
            else:
                nfa.add_edge(src, d, dst)
    return _count_series(trim_nfa(cfg.note(nfa)), k, cfg)


# ---------------------------------------------------------------------------
# Kernel relations

def _rational_view(l):
    """(u, sparse rows, observability basis) of the series, built once per
    LinRep and shared by kernel_relations and every verify_relation.

    u and the rows are those of the trailing-normalized representation and
    keep its integer entries; only the basis is rational, so kernel rows
    stay integers until their dot products with it.
    """
    if l._view is None:
        if l.semiring == "natinf" and any(isinstance(x, _Infinity) for x in _entries(l)):
            raise ValueError("kernel relations need a series without infinities")
        g = l if l.trailing_normalized() else normalize_trailing(l)
        l._view = (g.u, g._rows, _observability_basis(g.v, g._rows))
    return l._view


def _echelon_insert(basis, vec, width):
    """Reduce vec against an echelon basis [(pivot, vector)] whose pivots
    lie among the first width entries; the one elimination routine of this
    module.

    Returns None when vec is new there (it joins the basis, pivoting on
    its first nonzero entry), else its reduction, zero in those entries.
    """
    vec = list(vec)
    for pivot, b in basis:
        if vec[pivot] != 0:
            coef = vec[pivot] / b[pivot]
            vec = [x - coef * y for x, y in zip(vec, b)]
    for j in range(width):
        if vec[j] != 0:
            basis.append((j, vec))
            return None
    return vec


def _observability_basis(v, mats):
    """Basis of span{ mu(w) v : w } over Q, closed under left products;
    mats are the sparse rows of each mu(d)."""
    basis = []
    queue = []
    v = tuple(Fraction(x) for x in v)
    if _echelon_insert(basis, v, len(v)) is None:
        queue.append(v)
    while queue:
        vec = queue.pop()
        for rows in mats:
            # the queue keeps the unreduced products: reduced ones compound
            # their rational heights
            nxt = _mat_vec(rows, vec)
            if _echelon_insert(basis, nxt, len(nxt)) is None:
                queue.append(nxt)
    return [tuple(b) for _, b in basis]


def _kernel_row(base, u, mats, modulus, residue):
    """Row functional of the kernel sequence n -> f(modulus * n + residue)."""
    e = 0
    m = modulus
    while m > 1:
        if m % base != 0:
            raise ValueError(f"modulus {modulus} is not a power of the base {base}")
        m //= base
        e += 1
    if not 0 <= residue < modulus:
        raise ValueError(f"residue {residue} out of range for modulus {modulus}")
    row = u
    for _ in range(e):
        residue, d = divmod(residue, base)
        row = _vec_mat(row, mats[d])
    return row


def _functional(row, obasis):
    """Values of a kernel row on the observability basis."""
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    return tuple(sum(x * b[j] for j, x in nonzero) for b in obasis)


@dataclass
class Relation:
    """One discovered identity: f(m n + c) = sum of coef * f(m' n + c')."""
    lhs: tuple
    combo: dict

    def __str__(self):
        def term(mc):
            m, c = mc
            inner = "n" if m == 1 else f"{m}n"
            return f"f({inner}+{c})" if c else f"f({inner})"

        if not self.combo:
            return f"{term(self.lhs)} = 0"
        parts = []
        for mc, coef in self.combo.items():
            if coef == 0:
                continue
            mag = abs(coef)
            text = term(mc) if mag == 1 else f"{mag}*{term(mc)}"
            parts.append(("- " if coef < 0 else "+ ") + text)
        body = " ".join(parts).lstrip("+ ") or "0"
        return f"{term(self.lhs)} = {body}"


@dataclass
class KernelSystem:
    relations: list
    basis: list
    closed: bool
    depth: int


def kernel_relations(l, depth):
    """Discover an exact linear recurrence system among kernel sequences.

    Kernel sequences n -> f(k^e n + c) for e <= depth are scanned
    breadth-first; each is either expressed exactly (over the rationals,
    verified against the full reachable observability space, not sampled)
    in terms of the independent ones found so far, or becomes a new basis
    sequence.  One incremental echelon form holds the basis functionals,
    each tagged with the unit vector of its basis slot; a kernel row is
    reduced once against it, and when its functional part vanishes the
    negated tag is its relation.  The system is closed when every basis
    sequence has all its children expressed; otherwise the result is
    flagged partial.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    u, mats, obasis = _rational_view(l)
    k = l.base
    width = len(obasis)  # no more than width functionals are independent
    basis = []        # [(modulus, residue)], slot i tagged by unit vector i
    echelon = []      # [(pivot, functional + tag)], pivots among the first width
    relations = []
    level = [u]       # kernel rows of modulus k^e, indexed by residue
    for e in range(depth + 1):
        modulus = k ** e
        for c, row in enumerate(level):
            tag = tuple(int(i == len(basis)) for i in range(width))
            rest = _echelon_insert(echelon, _functional(row, obasis) + tag, width)
            if rest is None:
                basis.append((modulus, c))
            else:
                relations.append(Relation(
                    (modulus, c), {b: -x for b, x in zip(basis, rest[width:]) if x}))
        if e < depth:
            # row(k m, c + d m) = row(m, c) . mu(d): one product per new row
            level = [_vec_mat(row, mats[d]) for d in range(k) for row in level]
    closed = all(m * k <= k ** depth for m, _ in basis)
    return KernelSystem(relations, basis, closed, depth)


def verify_relation(l, lhs, combo):
    """Exact check of f(m n + c) = sum coef * f(m' n + c') for all n.

    lhs is (m, c); combo maps (m', c') to rational coefficients.  The
    comparison runs over the reachable observability space, which decides
    the identity for every n at once.
    """
    u, mats, obasis = _rational_view(l)
    target = list(_functional(_kernel_row(l.base, u, mats, *lhs), obasis))
    for (m, c), coef in combo.items():
        func = _functional(_kernel_row(l.base, u, mats, m, c), obasis)
        for j in range(len(target)):
            target[j] -= Fraction(coef) * func[j]
    return all(x == 0 for x in target)


# ---------------------------------------------------------------------------
# Text format

def _entry_str(x):
    if isinstance(x, _Infinity):
        return "inf"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def _entry_parse(semiring, text):
    if text == "inf":
        if semiring != "natinf":
            raise ValueError("inf entry outside the natinf semiring")
        return INF
    if "/" in text:
        if semiring != "rat":
            raise ValueError("rational entry outside the rat semiring")
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    value = int(text)
    return Fraction(value) if semiring == "rat" else value


def store(l):
    """Text form: header, u row, the base matrices row by row, then v."""
    lines = [f"linrep semiring={l.semiring} base={l.base} rank={l.rank}"]
    lines.append(" ".join(_entry_str(x) for x in l.u))
    for rows in l._rows:
        for row in rows:
            lines.append(" ".join(_entry_str(x) for x in _dense(row, l.rank)))
    lines.append(" ".join(_entry_str(x) for x in l.v))
    return "\n".join(lines) + "\n"


def load(text):
    """Parse the text form produced by store(); malformed text raises
    ValueError naming the line."""
    lineno, _, fields, data = automata._read_text(
        text, "linrep", ("linrep",), {"semiring": None, "base": 2, "rank": 0})
    semiring, base, rank = fields["semiring"], fields["base"], fields["rank"]
    if semiring not in _SEMIRINGS:
        raise ValueError(f"line {lineno}: unknown semiring {semiring!r}")
    need = 2 + base * rank if rank else 0  # store writes blank lines at rank 0
    if len(data) != need:
        raise ValueError(f"expected {need} data lines, got {len(data)}")
    rows = []
    for lineno, ln in data:
        rows.append(automata._parse(partial(_entry_parse, semiring), ln.split(), lineno, ln))
        if len(rows[-1]) != rank:
            raise ValueError(f"line {lineno}: row width disagrees with the declared rank")
    u, v = (rows[0], rows[-1]) if rank else ((), ())
    mats = [rows[1 + d * rank:1 + (d + 1) * rank] for d in range(base)]
    return LinRep(semiring, base, u, mats, v)
