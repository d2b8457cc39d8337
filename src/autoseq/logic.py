"""First-order predicates over natural numbers and automatic sequences.

Formulas quantify over naturals, compare linear terms, and index bound
sequences; compilation turns a formula into a complete DFA over the
lsd-first joint encoding of its free variables (tracks sorted by variable
name), with acceptance depending only on the encoded values.

Concrete syntax (parse)::

    quantifiers    E v [, w ...] [< t | <= t] [:] BODY     (exists)
                   A v [, w ...] [< t | <= t] [:] BODY     (forall)
    connectives    ~ f     f & g     f | g     f => g     f <=> g
    comparisons    t1 = t2   t1 != t2   t1 < t2  <=  >  >=
    sequence atoms x[t] = c (c a literal output), x[t1] = y[t2], also
                   != < <= > >= between two indexed values
    terms          variables, decimal constants, t1 + t2, t1 - t2, c*t
    congruence     t ≡ a mod m     or equivalently     mod(t, m, a)

A quantifier's body extends as far to the right as possible; parenthesize
where that is not what you mean.  Subtraction in a comparison is sugar:
the negative part moves across (`a - b >= c` becomes `a >= b + c`, the
natural reading over the naturals).  An index keeps its signed linear
form, and an atom whose index would be negative is simply false.

Every atom on sequence values (x[t] = c, x[t1] < y[t2], and Call) compiles
to one deterministic automaton: each index form keeps a carry while the
lsd-first digits of its variables are read, emits the digits of its value
to the automaton that reads it, and needs no quantified witness (lsd-first
addition is deterministic; Bruyere, Hansel, Michaux and Villemaire 1994).
"""

import operator
import re
from dataclasses import dataclass, field

from . import automata
from .automata import (Dfa, determinize, determinize_reverse, complement, product,
                       project_many, inflate, minimize, is_empty, sym_index, sym_tuples)
from .numeration import decode_lsd, project_track
from .seqgen import Dfao


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class CompileError(ValueError):
    pass


# Raised when a construction would exceed its config's state ceiling.
ResourceLimit = automata.StateLimit


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    coeff: int
    term: object


@dataclass(frozen=True)
class Compare:
    left: object
    op: str
    right: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SeqCmp:
    """x[t1] <op> y[t2], comparing output symbols."""
    xname: str
    t1: object
    op: str
    yname: str
    t2: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SeqIs:
    """x[t] = c or x[t] != c for a literal output symbol c."""
    xname: str
    t: object
    op: str
    symbol: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    """Membership of a term tuple in a fixed pad-closed relation automaton.

    Not produced by the parser; built programmatically to reuse compiled
    relations inside larger formulas.
    """
    dfa: Dfa
    args: tuple
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    body: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: object
    right: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    left: object
    right: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Implies:
    left: object
    right: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Iff:
    left: object
    right: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Exists:
    var: str
    body: object
    pos: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Forall:
    var: str
    body: object
    pos: int | None = field(default=None, compare=False, repr=False)


def free_variables(f):
    """Set of free variable names of a formula or term."""
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, Add):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, Mul):
        return free_variables(f.term)
    if isinstance(f, Compare):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, SeqCmp):
        return free_variables(f.t1) | free_variables(f.t2)
    if isinstance(f, SeqIs):
        return free_variables(f.t)
    if isinstance(f, Call):
        out = set()
        for t in f.args:
            out |= free_variables(t)
        return out
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula node: {f!r}")


def sequence_names(f):
    """Set of sequence names referenced by a formula."""
    if isinstance(f, SeqCmp):
        return {f.xname, f.yname}
    if isinstance(f, SeqIs):
        return {f.xname}
    if isinstance(f, Not):
        return sequence_names(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return sequence_names(f.left) | sequence_names(f.right)
    if isinstance(f, (Exists, Forall)):
        return sequence_names(f.body)
    return set()


# ---------------------------------------------------------------------------
# Linear forms: dict var -> int coefficient, plus an int constant.

def _form_add(a, b):
    coeffs = dict(a[0])
    for v, c in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + c
    return {v: c for v, c in coeffs.items() if c != 0}, a[1] + b[1]


def _form_scale(a, s):
    return {v: c * s for v, c in a[0].items() if c * s != 0}, a[1] * s


def _term_form(t):
    if isinstance(t, Var):
        return {t.name: 1}, 0
    if isinstance(t, Const):
        return {}, t.value
    if isinstance(t, Add):
        return _form_add(_term_form(t.left), _term_form(t.right))
    if isinstance(t, Mul):
        return _form_scale(_term_form(t.term), t.coeff)
    raise TypeError(f"not a term node: {t!r}")


def _form_to_term(form):
    """Term for a linear form; a negative coefficient c of v becomes
    Mul(c, Var(v)) and a negative constant a negative Const."""
    coeffs, const = form
    parts = [Var(v) if coeffs[v] == 1 else Mul(coeffs[v], Var(v)) for v in sorted(coeffs)]
    if const != 0 or not parts:
        parts.append(Const(const))
    out = parts[0]
    for p in parts[1:]:
        out = Add(out, p)
    return out


def _split_form(form):
    """(positive-part form, negative-part form) with LHS - RHS == form."""
    coeffs, const = form
    pos = {v: c for v, c in coeffs.items() if c > 0}
    neg = {v: -c for v, c in coeffs.items() if c < 0}
    return (pos, const if const > 0 else 0), (neg, -const if const < 0 else 0)


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<arrow><=>|=>)
    | (?P<relop>!=|<=|>=|≤|≥|≠|<|>|=|≡)
    | (?P<num>\d+)
    | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    | (?P<punct>[()\[\]+\-*,:&|~])
    )""", re.VERBOSE)

_RELOP_CANON = {"≤": "<=", "≥": ">=", "≠": "!="}
_CMP_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# atom_compare reads a > b as b < a, and a >= b as b <= a
_FLIPPED = {">": "<", ">=": "<="}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((kind, _RELOP_CANON.get(val, val), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.fresh = 0
        self.scope = []

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def error(self, message):
        raise ParseError(message, self.peek()[2])

    def fresh_var(self):
        self.fresh += 1
        return f"_s{self.fresh}"

    # formula := quantified | iff-chain
    def formula(self):
        kind, val, pos = self.peek()
        if kind == "name" and val in ("E", "A"):
            return self.quantified()
        return self.iff()

    def quantified(self):
        kind, quant, pos = self.next()
        names = [self.ident()]
        while self.peek()[1] == ",":
            self.next()
            names.append(self.ident())
        for i, name in enumerate(names):
            if name in self.scope or name in names[:i]:
                raise ParseError(f"variable {name!r} shadows an enclosing quantifier", pos)
        bound = None
        if self.peek()[1] in ("<", "<="):
            op = self.next()[1]
            bound = (op, self.term())
        if self.peek()[1] == ":":
            self.next()
        self.scope.extend(names)
        body = self.formula()
        del self.scope[-len(names):]
        for name in reversed(names):
            if bound is not None:
                guard = self.compare_atom(({name: 1}, 0), bound[0], bound[1], pos)
                body = And(guard, body, pos=pos) if quant == "E" else Implies(guard, body, pos=pos)
            body = Exists(name, body, pos=pos) if quant == "E" else Forall(name, body, pos=pos)
        return body

    def ident(self):
        kind, val, pos = self.next()
        if kind != "name" or val in ("E", "A", "mod"):
            raise ParseError(f"expected a variable name, found {val!r}", pos)
        return val

    def iff(self):
        left = self.implies()
        while self.peek()[1] == "<=>":
            pos = self.next()[2]
            left = Iff(left, self.implies(), pos=pos)
        return left

    def implies(self):
        left = self.or_()
        if self.peek()[1] == "=>":
            pos = self.next()[2]
            return Implies(left, self.implies(), pos=pos)
        return left

    def or_(self):
        left = self.and_()
        while self.peek()[1] == "|":
            pos = self.next()[2]
            left = Or(left, self.and_(), pos=pos)
        return left

    def and_(self):
        left = self.unary()
        while self.peek()[1] == "&":
            pos = self.next()[2]
            left = And(left, self.unary(), pos=pos)
        return left

    def unary(self):
        kind, val, pos = self.peek()
        if val == "~":
            self.next()
            return Not(self.unary(), pos=pos)
        if val == "(":
            save = self.i
            try:
                return self.atom()
            except ParseError:
                self.i = save
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if kind == "name" and val in ("E", "A"):
            return self.quantified()
        return self.atom()

    # Atoms.  An operand is either a term or a single sequence index.
    def atom(self):
        kind, val, pos = self.peek()
        if kind == "name" and val == "mod" and self.tokens[self.i + 1][1] == "(":
            self.next()
            self.next()
            t = self.term()
            self.expect(",")
            m = self.const_value()
            self.expect(",")
            a = self.term()
            self.expect(")")
            return self.congruence(t, m, a, pos)
        left_seq = self.try_seqindex()
        if left_seq is not None:
            return self.seq_atom(left_seq, pos)
        left = self.term()
        kind2, op, pos2 = self.next()
        if kind2 != "relop":
            raise ParseError(f"expected a comparison operator, found {op or 'end of input'!r}", pos2)
        if op == "≡":
            a = self.term()
            kw_kind, kw, kw_pos = self.next()
            if kw != "mod":
                raise ParseError("expected 'mod' after '≡'", kw_pos)
            m = self.const_value()
            return self.congruence(left, m, a, pos)
        right_seq = self.try_seqindex()
        if right_seq is not None:
            name, idx = right_seq
            return self.seq_atom_vs_term(name, idx, op, left, pos)
        right = self.term()
        return self.compare_atom(left, op, right, pos)

    def try_seqindex(self):
        kind, val, pos = self.peek()
        if kind == "name" and val not in ("E", "A", "mod") and self.tokens[self.i + 1][1] == "[":
            self.next()
            self.next()
            idx = self.term()
            self.expect("]")
            return (val, idx)
        return None

    def seq_atom(self, left_seq, pos):
        name1, idx1 = left_seq
        kind, op, pos2 = self.next()
        if kind != "relop" or op == "≡":
            raise ParseError(f"expected a comparison after {name1}[...]", pos2)
        right_seq = self.try_seqindex()
        if right_seq is not None:
            name2, idx2 = right_seq
            return SeqCmp(name1, _form_to_term(idx1), op, name2, _form_to_term(idx2), pos=pos)
        return self.seq_atom_vs_term(name1, idx1, op, self.term(), pos)

    def seq_atom_vs_term(self, name, idx, op, form, pos):
        coeffs, const = form
        if coeffs:
            raise ParseError(
                "a sequence value can only be compared with another sequence "
                "value or a literal output symbol", pos)
        if op not in ("=", "!="):
            raise ParseError("only = and != compare a sequence value with a literal", pos)
        return SeqIs(name, _form_to_term(idx), op, const, pos=pos)

    def compare_atom(self, left, op, right, pos):
        # Move each side's negative part to the other side; variables that
        # appear on both sides are kept (cancellation is the compiler's job).
        lpos, lneg = _split_form(left)
        rpos, rneg = _split_form(right)
        lhs = _form_add(lpos, rneg)
        rhs = _form_add(rpos, lneg)
        return Compare(_form_to_term(lhs), op, _form_to_term(rhs), pos=pos)

    def congruence(self, t, m, a, pos):
        if m < 1:
            raise ParseError("modulus must be a positive constant", pos)
        if not a[0]:
            residue = ({}, a[1] % m)
            q = self.fresh_var()
            rhs = _form_add(({q: m}, 0), residue)
            return Exists(q, self.compare_atom(t, "=", rhs, pos))
        q1 = self.fresh_var()
        q2 = self.fresh_var()
        lhs = _form_add(t, ({q1: m}, 0))
        rhs = _form_add(a, ({q2: m}, 0))
        return Exists(q1, Exists(q2, self.compare_atom(lhs, "=", rhs, pos)))

    # term := factor (('+'|'-') factor)*, returned as a linear form
    def term(self):
        form = self.factor()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            nxt = self.factor()
            form = _form_add(form, nxt if op == "+" else _form_scale(nxt, -1))
        return form

    def factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            if self.peek()[1] == "*":
                self.next()
                inner = self.factor()
                return _form_scale(inner, int(val))
            return ({}, int(val))
        if kind == "name":
            if val in ("E", "A", "mod"):
                raise ParseError(f"{val!r} is reserved and cannot be a variable", pos)
            if self.peek()[1] == "[":
                raise ParseError(
                    "sequence values cannot appear inside arithmetic; compare "
                    "them directly", pos)
            return ({val: 1}, 0)
        if val == "(":
            inner = self.term()
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {val or 'end of input'!r}", pos)

    def const_value(self):
        form = self.term()
        if form[0]:
            raise ParseError("expected a constant here", self.peek()[2])
        return form[1]


def parse(text):
    """Parse concrete syntax into a Formula AST (sugar expanded)."""
    p = _Parser(text)
    f = p.formula()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Compilation

class CompileConfig:
    """Shared compilation limits, statistics and eliminated blocks.

    Every construction that numbers states is handed the config as its
    budget and charged in automata._explore: max_states is the ceiling,
    peak_states the largest construction and operations their count.
    default_base applies to formulas that never index a sequence.  The
    config remembers every quantifier block it eliminated (blocks), so an
    equal block met again in the same analysis is not rebuilt; a new
    config per analysis releases them.
    """

    def __init__(self, max_states=2_000_000, default_base=2):
        if max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {max_states}")
        if default_base < 2:
            raise ValueError(f"base must be >= 2, got {default_base}")
        self.max_states = max_states
        self.default_base = default_base
        self.peak_states = 0
        self.operations = 0
        self.blocks = {}  # (body, mirrored, drop, mirror) -> (result, mirrored)


def _check_env(f, env):
    for name in sequence_names(f):
        if name not in env:
            raise CompileError(f"sequence {name!r} is not bound")


def _linear_atom(k, coeffs, const, mode, cfg):
    """DFA for sum(coeffs)+const = 0 (mode 'eq') or <= 0 (mode 'le').

    Carry construction over lsd digits: for '=' the carry must stay an
    exact integer, for '<=' it is the ceiling of the running quotient,
    so the final sign decides the comparison.
    """
    names = tuple(sorted(coeffs))
    weights = [coeffs[v] for v in names]
    arity = len(names)
    dots = [sum(w * d for w, d in zip(weights, sym)) for sym in sym_tuples(k, arity)]

    def successors(gamma):
        if gamma is None:  # dead state
            return [None] * len(dots)
        if mode == "eq":
            return [None if (gamma + dot) % k else (gamma + dot) // k for dot in dots]
        return [-((-gamma - dot) // k) for dot in dots]

    carries, rows = automata._explore(const, successors, cfg)
    if mode == "eq":
        finals = {i for i, g in enumerate(carries) if g == 0}
    else:
        finals = {i for i, g in enumerate(carries) if g is not None and g <= 0}
    return minimize(Dfa._from_rows(k, arity, rows, 0, finals)), names


def _carry_reader(k, names, forms, table, initial, cfg):
    """(ends, rows) of one reader driven by the carries of its index forms.

    The reader is a DFA table over k^len(forms) symbols, one track per
    form.  A state is (carries, q), starting at (the forms' constants,
    initial).  On symbol s of the tracks `names`, each form's carry g
    becomes t = g + dot(coeffs, s): the digit t mod k goes to the reader and
    the carry goes on as t // k.  ends[i] is the reader state reached from
    state i by feeding the digits of the remaining carries, or None when a
    carry is negative: zero padding keeps it negative, so that index never
    reaches a natural value.
    """
    dots = [[sum(coeffs.get(v, 0) * d for v, d in zip(names, sym))
             for sym in sym_tuples(k, len(names))] for coeffs, _ in forms]
    cols = list(zip(*dots))  # cols[s][j]: form j's increment on symbol s
    index = sym_index(k, len(forms))
    steps = {}  # carries -> [(emitted symbol, next carries)] for every symbol

    def successors(state):
        gs, q = state
        step = steps.get(gs)
        if step is None:
            step = steps[gs] = []
            for col in cols:
                ts = [g + d for g, d in zip(gs, col)]
                step.append((index[tuple(t % k for t in ts)], tuple(t // k for t in ts)))
        row = table[q]
        return [(nxt, row[e]) for e, nxt in step]

    states, rows = automata._explore((tuple(const for _, const in forms), initial),
                                     successors, cfg)
    return [_feed_carries(k, table, q, gs) for gs, q in states], rows


def _feed_carries(k, table, q, gs):
    """Reader state after the digits of the carries gs from q; None when
    some carry is negative."""
    if min(gs) < 0:
        return None
    index = sym_index(k, len(gs))
    while any(gs):
        q = table[q][index[tuple(g % k for g in gs)]]
        gs = [g // k for g in gs]
    return q


def _cmp_outputs(a, b, op):
    if op not in _CMP_OPS:
        raise CompileError(f"unknown comparison operator {op!r}")
    try:
        return _CMP_OPS[op](a, b)
    except TypeError:
        raise CompileError(f"output symbols {a!r} and {b!r} are not comparable") from None


class _Mirror(tuple):
    """(dfa, vars) whose dfa is minimal and accepts the reversal of the
    value's language."""


_CONNECTIVES = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}


class _Compiler:
    def __init__(self, env, cfg):
        self.env = env
        self.cfg = cfg
        bases = {s.base for s in env.values()}
        if len(bases) > 1:
            raise CompileError(f"bound sequences disagree on the base: {sorted(bases)}")
        self.base = bases.pop() if bases else None

    def need_base(self):
        if self.base is None:
            self.base = self.cfg.default_base
        return self.base

    # -- helpers over (dfa, vars) pairs ------------------------------------

    def align(self, a, avars, want):
        if tuple(v for v in want if v in avars) != tuple(avars):
            raise AssertionError("track alignment failed")
        missing = [i for i, v in enumerate(want) if v not in avars]
        return inflate(a, *missing) if missing else a

    def combine(self, a, avars, b, bvars, op):
        want = tuple(sorted(set(avars) | set(bvars)))
        a = self.align(a, avars, want)
        b = self.align(b, bvars, want)
        return minimize(product(a, b, op, self.cfg)), want

    def exists_many(self, names, value, mirror=False):
        """E names: value.  value may be a _Mirror, and with mirror the
        result may be one too, for an enclosing quantifier block."""
        if isinstance(value, bool):
            return value
        dfa, vars_ = value
        drop = tuple(i for i, v in enumerate(vars_) if v in names)
        # A block's result depends on this key alone, not on the env or the
        # variable names, so alpha-variant blocks are eliminated once per
        # config (hash-consing, as a BDD package's unique table).  A hit
        # charges nothing: its first construction was charged to this config.
        key = dfa, isinstance(value, _Mirror), drop, mirror
        hit = self.cfg.blocks.get(key)
        if hit is None:
            hit = self.cfg.blocks[key] = self.eliminate(*key)
        out, mirrored = hit
        if isinstance(out, bool):
            return out
        kept = tuple(v for i, v in enumerate(vars_) if i not in drop)
        return _Mirror((out, kept)) if mirrored else (out, kept)

    def eliminate(self, dfa, mirrored, drop, mirror):
        """(result, whether it is a mirror) of a block dropping the tracks
        drop of dfa, which is its body's mirror when mirrored."""
        if len(drop) == dfa.arity:  # a language is empty iff its reversal is
            empty, _ = is_empty(dfa)
            return not empty, False
        # Brzozowski: determinizing the reversal of a reachable DFA gives the
        # minimal DFA of the reversed language, in minimize's numbering (FIFO,
        # symbols in lex order); the forward construction blows up here.  The
        # first reversal also closes its start along symbol 0, so w is kept
        # when some w·0^j is accepted.  The body is pad-closed, so this equals
        # pad_closure of the projection's DFA.  Minimized, it is the block's
        # mirror.  A block handed its body's mirror skips that body's second
        # reversal and its own first one: reversal commutes with projection
        # and complement, so it determinizes the mirror's projection forward,
        # with its start closed along symbol 0, since in the mirror trailing
        # zeros lead (0^j·w).  minimize makes both routes' mirrors the same.
        if drop:
            if mirrored:
                body = determinize(project_many(dfa, drop), self.cfg, pad=True)
            else:
                body = determinize_reverse(dfa, drop, pad=True, budget=self.cfg)
            dfa, mirrored = minimize(body), True
        if mirror or not mirrored:
            return dfa, mirrored
        # The second reversal drops no track and needs no minimize: it is
        # already the minimal DFA of the forward language.
        return determinize_reverse(dfa, budget=self.cfg), False

    def negate(self, value):
        if isinstance(value, bool):
            return not value
        dfa, vars_ = value
        out = complement(dfa), vars_
        return _Mirror(out) if isinstance(value, _Mirror) else out

    # -- compilation over formula nodes ------------------------------------

    def compile(self, f, mirror=False):
        """Value of f: a bool, or (dfa, vars) with tracks vars.  With mirror
        a quantifier block, under any number of ~, may return a _Mirror."""
        if isinstance(f, Compare):
            return self.atom_compare(f)
        if isinstance(f, SeqCmp):
            return self.atom_seqcmp(f)
        if isinstance(f, SeqIs):
            return self.atom_seqis(f)
        if isinstance(f, Call):
            return self.atom_call(f)
        if isinstance(f, Not):
            return self.negate(self.compile(f.body, mirror))
        if type(f) in _CONNECTIVES:
            return self.connective(f, _CONNECTIVES[type(f)])
        if isinstance(f, Exists):
            names, body = _leading_block(f, Exists)
            return self.exists_many(names, self.compile(body, True), mirror)
        if isinstance(f, Forall):
            names, body = _leading_block(f, Forall)
            return self.negate(self.exists_many(names, self.negate(self.compile(body, True)),
                                                mirror))
        raise TypeError(f"not a formula node: {f!r}")

    def connective(self, f, op):
        """f.left op f.right for the truth table op of automata._BOOL_OPS.  A
        bool side leaves a constant, the other side or its negation; a left
        side that fixes the result leaves the right side uncompiled."""
        table = automata._BOOL_OPS[op]
        a = self.compile(f.left)
        if isinstance(a, bool) and table(a, False) == table(a, True):
            return table(a, True)
        b = self.compile(f.right)
        if isinstance(a, bool):
            return b if table(a, True) else self.negate(b)
        if not isinstance(b, bool):
            return self.combine(*a, *b, op)
        if table(False, b) == table(True, b):
            return table(True, b)
        return a if table(True, b) else self.negate(a)

    def atom_compare(self, f):
        left, op, right = f.left, f.op, f.right
        if op in _FLIPPED:
            left, op, right = right, _FLIPPED[op], left
        coeffs, const = _form_add(_term_form(left), _form_scale(_term_form(right), -1))
        if not coeffs:
            return _CMP_OPS[op](const, 0)
        k = self.need_base()
        if op in ("=", "!="):
            dfa, names = _linear_atom(k, coeffs, const, "eq", self.cfg)
            return (dfa if op == "=" else complement(dfa)), names
        # over the integers, sum < 0 is sum + 1 <= 0
        return _linear_atom(k, coeffs, const + (op == "<"), "le", self.cfg)

    def index_atom(self, readers, accept):
        """Atom on the values read at signed linear index terms.

        Each reader is (terms, table, initial): a DFA table over
        base^len(terms) symbols that reads the digits of its terms' values,
        one track per term.  The atom holds where every value is a natural
        and accept(*ends) is true, ends being the state each reader reaches.
        One carry automaton per reader (_carry_reader); two readers are
        paired by zipping their rows, as product does.
        """
        k = self.base
        readers = [([_term_form(t) for t in terms], table, initial)
                   for terms, table, initial in readers]
        forms = [form for fs, _, _ in readers for form in fs]
        if any(not coeffs and const < 0 for coeffs, const in forms):
            return False  # a negative constant index
        names = tuple(sorted({v for coeffs, _ in forms for v in coeffs}))
        if not names:
            return accept(*[_feed_carries(k, table, initial, [const for _, const in fs])
                            for fs, table, initial in readers])
        built = [_carry_reader(k, names, fs, table, initial, self.cfg)
                 for fs, table, initial in readers]
        if len(built) == 1:
            (ends, rows), = built
            labels = [(end,) for end in ends]
        else:
            (ends_a, rows_a), (ends_b, rows_b) = built
            pairs, rows = automata._explore(
                (0, 0), lambda p: zip(rows_a[p[0]], rows_b[p[1]]), self.cfg)
            labels = [(ends_a[a], ends_b[b]) for a, b in pairs]
        finals = {i for i, ends in enumerate(labels) if None not in ends and accept(*ends)}
        return minimize(Dfa._from_rows(k, len(names), rows, 0, finals)), names

    def atom_seqcmp(self, f):
        x = self.env[f.xname]
        y = self.env[f.yname]
        form = _term_form(f.t1)
        if x is y and form == _term_form(f.t2) and min([*form[0].values(), form[1]]) >= 0:
            # One natural index on both sides: identical values.
            return f.op in ("=", "<=", ">=")
        return self.index_atom(
            [((f.t1,), x.transitions, x.initial), ((f.t2,), y.transitions, y.initial)],
            lambda qx, qy: _cmp_outputs(x.outputs[qx], y.outputs[qy], f.op))

    def atom_seqis(self, f):
        x = self.env[f.xname]
        want = f.op == "="
        return self.index_atom([((f.t,), x.transitions, x.initial)],
                               lambda q: (x.outputs[q] == f.symbol) == want)

    def atom_call(self, f):
        dfa = f.dfa
        if len(f.args) != dfa.arity:
            raise CompileError(
                f"relation automaton has arity {dfa.arity}, got {len(f.args)} arguments")
        if self.base is None:
            self.base = dfa.base
        elif dfa.base != self.base:
            raise CompileError("relation automaton base mismatch")
        return self.index_atom([(f.args, dfa.transitions, dfa.initial)],
                               dfa.finals.__contains__)


def compile(f, env, config=None):
    """Compile a formula to a minimized, pad-closed DFA over its free variables.

    Tracks are sorted by variable name.  A closed formula does not compile
    to an automaton; use decide().
    """
    cfg = config or CompileConfig()
    _check_env(f, env)
    free = free_variables(f)
    if not free:
        raise CompileError("formula has no free variables; use decide()")
    value = _Compiler(env, cfg).compile(f)
    if isinstance(value, bool):
        # Constant truth over free variables the automaton never inspected.
        k = next(iter(env.values())).base if env else cfg.default_base
        nsym = k ** len(free)
        return Dfa(k, len(free), [[0] * nsym], 0, {0} if value else set())
    dfa, vars_ = value
    if set(vars_) != free:
        # Vacuous variables never reached an atom; add ignored tracks.
        comp = _Compiler(env, cfg)
        dfa = comp.align(dfa, vars_, tuple(sorted(free)))
        dfa = minimize(dfa)
    return dfa


class Decision:
    """Outcome of deciding a sentence."""

    def __init__(self, value, witness=None, counterexample=None):
        self.value = value
        self.witness = witness
        self.counterexample = counterexample

    def __bool__(self):
        return self.value

    def __repr__(self):
        extra = ""
        if self.witness is not None:
            extra = f" witness={self.witness}"
        if self.counterexample is not None:
            extra = f" counterexample={self.counterexample}"
        return f"<Decision {self.value}{extra}>"


def _leading_block(f, kind, internal=True):
    """Variables of the leading block of `kind` quantifiers, and its body.

    With internal false the block stops at the parser's own witnesses
    (fresh_var's `_s` names, which no user can type)."""
    names = []
    while isinstance(f, kind) and (internal or not f.var.startswith("_")):
        names.append(f.var)
        f = f.body
    return names, f


def _assignment_from_word(word, vars_):
    return {v: decode_lsd(project_track(word, i)) for i, v in enumerate(vars_)}


def decide(f, env, config=None):
    """Decide a sentence; attaches a witness (leading E block, true) or a
    counterexample (leading A block, false).

    A sentence that opens with a quantifier block compiles its body once
    (negated under A); one emptiness check on that automaton gives both
    the value and the assignment.
    """
    cfg = config or CompileConfig()
    _check_env(f, env)
    free = free_variables(f)
    if free:
        raise CompileError(f"decide() needs a sentence; free variables: {sorted(free)}")
    comp = _Compiler(env, cfg)
    kind = Forall if isinstance(f, Forall) else Exists
    # the assignment ranges over the user's variables only
    leading, body = _leading_block(f, kind, internal=False)
    if not leading:
        value = comp.compile(f)
        if not isinstance(value, bool):
            raise AssertionError("sentence compiled to an automaton")
        return Decision(value)
    inner = comp.compile(body)
    if kind is Forall:
        inner = comp.negate(inner)
    # inner holds for some assignment iff an E sentence is true, or an A
    # sentence is false.
    assignment = {}
    if isinstance(inner, bool):
        found = inner
    else:
        dfa, vars_ = inner
        empty, word = is_empty(dfa)
        found = not empty
        if found:
            assignment = _assignment_from_word(word, vars_)
    if not found:
        return Decision(kind is Forall)
    for v in leading:
        assignment.setdefault(v, 0)
    if kind is Exists:
        return Decision(True, witness=assignment)
    return Decision(False, counterexample=assignment)


def characteristic(f, env, config=None):
    """0/1 Dfao over the single free variable of f."""
    free = free_variables(f)
    if len(free) != 1:
        raise CompileError(f"characteristic() needs exactly one free variable, got {sorted(free)}")
    dfa = compile(f, env, config)
    outputs = [1 if q in dfa.finals else 0 for q in range(dfa.n_states)]
    return Dfao(dfa.base, dfa.transitions, dfa.initial, outputs)
