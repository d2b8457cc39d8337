"""The benchmark's workloads: queries into the engine and their checks.

Each Query has a `run` callable, the only part that is timed, and a `check`
that compares its result against an engine-independent reference (refs.py
and the tables under refs/).  The seed only shapes the generated inputs;
the engine sees nothing but those inputs.

compile  quantifier elimination: subset construction and minimization
         dominate (permutation complexity, a subset-heavy recurrence
         measure, a decision corpus, factor-set comparisons and seeded
         linear-arithmetic sentences).
count    the counting pipeline across every non-permutation measure kind:
         many small compilations, then epsilon saturation and the
         infinity locus.
series   exact series algebra: kernel relations, relation checks and
         evaluation of seeded linear representations.
"""

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from autoseq import analyses, cli, logic, regseq, seqgen

import refs

WORKLOADS = ("compile", "count", "series")
SEQUENCES = ("tm", "rs", "pd", "pf", "s3")
LINEAR_SENTENCES = 60
ROUND_TRIP_WORD_LENGTH = 7
# The round-trip batch is drawn until the squared NFA sizes sum to this
# budget, so its cost barely depends on the seed (a fixed count of draws
# varies in cost by a factor of 2 between seeds).
ROUND_TRIP_BUDGET = 20_000
WITNESS_PREFIX = 1 << 16


class Mismatch(Exception):
    """The engine's output differs from its reference."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # Outcome the seed code is known to produce instead of an answer
    # ("AttributeError", "deadline"); it is counted, not hidden.
    known_defect: Optional[str] = None
    quick: bool = False  # part of the self-test's reduced pass


class Prefixes:
    """Closed-form prefixes, made on first use, outside any timed region."""

    def __init__(self):
        self.words = {}
        self.factor_sets = {}

    def word(self, name, length=WITNESS_PREFIX):
        if (name, length) not in self.words:
            self.words[(name, length)] = refs.prefix(name, length)
        return self.words[(name, length)]

    def factors(self, name, n):
        if (name, n) not in self.factor_sets:
            self.factor_sets[(name, n)] = refs.factors(self.word(name), n)
        return self.factor_sets[(name, n)]


def _plain(value):
    return "inf" if value == regseq.INF else value


# -- measures (compile and count) ---------------------------------------------

def measure_query(ident, entry, corpus, quick=False):
    x = corpus[entry["sequence"]]
    y = corpus[entry["second"]] if entry["second"] else None
    want = {int(n): v for n, v in entry["values"].items()}

    def run():
        rep = analyses.measure(x, entry["kind"], y=y, anchor=entry["anchor"])
        return {n: rep.evaluate(n) for n in want}

    def check(got):
        bad = [n for n in sorted(want) if _plain(got[n]) != want[n]]
        expect(not bad, f"differs from the oracle at n={bad[:5]}")

    return Query("measure:" + ident, run, check, quick=quick)


# -- decisions (compile) -------------------------------------------------------

def _power_reach(prop, n):
    return {"square": n, "overlap": n + 1, "cube": 2 * n, "fourth-power": 3 * n}[prop]


def decision_query(entry, text, corpus, prefixes, quick=False):
    prop, name, verdict = entry["property"], entry["sequence"], entry["verdict"]
    x = corpus[name]

    def run():
        return logic.decide(logic.parse(text), {"x": x})

    def check(d):
        expect(d.value == verdict, f"verdict {d.value}, table says {verdict}")
        w = prefixes.word(name)
        if d.witness is not None and prop in ("square", "overlap", "cube", "fourth-power"):
            i, n = d.witness["i"], d.witness["n"]
            reach = _power_reach(prop, n)
            expect(n >= 1 and all(w[i + t] == w[i + n + t] for t in range(reach)),
                   f"witness {d.witness} is not a {prop} on the prefix")
        if d.counterexample is not None and prop == "reversal-closure":
            i, n = d.counterexample["i"], d.counterexample["n"]
            expect(w[i:i + n][::-1] not in prefixes.factors(name, n),
                   f"counterexample {d.counterexample}: the reversal occurs")

    return Query(f"decide:{prop}@{name}", run, check, quick=quick)


def analysis_query(entry, corpus, prefixes, quick=False):
    fn, name, verdict = entry["function"], entry["sequence"], entry["verdict"]
    x = corpus[name]

    def run():
        return getattr(analyses, fn)(x)

    def check(value):
        expect(value == verdict, f"{fn} is {value}, table says {verdict}")
        expect(refs.has_unbordered_factor(prefixes.word(name), entry["length"]),
               f"no unbordered factor of length {entry['length']} on the prefix")

    return Query(f"analysis:{fn}@{name}", run, check, quick=quick)


# -- factor-set comparison (compile) -------------------------------------------

def compare_query(key, ref, corpus, prefixes, known_defect=None, quick=False):
    xname, yname = key.split("|")
    x = corpus[xname]
    if yname == "tm-swapped":
        y = seqgen.Dfao(x.base, x.transitions, x.initial, [1 - o for o in x.outputs])
    else:
        y = corpus[yname]

    def run():
        return analyses.factor_set_compare(x, y)

    def check(r):
        expect((r.x_subset_of_y, r.y_subset_of_x) == (ref["x_subset_of_y"], ref["y_subset_of_x"]),
               f"containment {r.x_subset_of_y}, {r.y_subset_of_x}")
        expect(r.equal == (ref["x_subset_of_y"] and ref["y_subset_of_x"]), "equality flag")
        if r.equal:
            return
        n0 = ref["shortest_difference"]
        expect(r.distinguishing_length == n0, f"distinguishing length {r.distinguishing_length}")
        side, factor = r.distinguishing_factor
        here, there = (xname, yname) if side == "x" else (yname, xname)
        expect(len(factor) == n0 and tuple(factor) in prefixes.factors(here, n0)
               and tuple(factor) not in prefixes.factors(there, n0),
               f"factor {factor} does not separate the sequences")

    return Query(f"factor-set-compare:{key}", run, check, known_defect, quick)


# -- seeded linear-arithmetic sentences (compile) ------------------------------

def linear_sentences(rng, count):
    """(text, truth, witness check) triples whose truth is plain arithmetic."""
    out = []
    for i in range(count):
        form = i % 3
        if form == 0:
            a, b = rng.randint(2, 12), rng.randint(2, 12)
            c, n = rng.randint(0, 20), rng.randint(0, 300)
            text = f"E p E q {n} = {a}*p + {b}*q + {c}"
            truth = refs.representable(n, a, b, c)

            def ok(v, a=a, b=b, c=c, n=n):
                return a * v["p"] + b * v["q"] + c == n
        elif form == 1:
            a, b, t = rng.randint(2, 9), rng.randint(2, 9), rng.randint(0, 80)
            text = f"A n ({t} <= n) => (E p E q n = {a}*p + {b}*q)"
            truth = refs.all_representable_from(t, a, b)

            def ok(v, a=a, b=b, t=t):
                return v["n"] >= t and not refs.representable(v["n"], a, b)
        else:
            m1, m2 = rng.randint(2, 16), rng.randint(2, 16)
            r1, r2, lo = rng.randrange(m1), rng.randrange(m2), rng.randint(0, 500)
            text = f"E n ({lo} < n) & mod(n, {m1}, {r1}) & mod(n, {m2}, {r2})"
            truth = refs.crt_solution_above(lo, r1, m1, r2, m2) is not None

            def ok(v, m1=m1, m2=m2, r1=r1, r2=r2, lo=lo):
                return v["n"] > lo and v["n"] % m1 == r1 and v["n"] % m2 == r2
        out.append((text, truth, ok))
    return out


def sentence_query(index, text, truth, ok, quick=False):
    def run():
        return logic.decide(logic.parse(text), {})

    def check(d):
        expect(d.value == truth, f"verdict {d.value}, arithmetic says {truth}")
        found = d.witness if d.value else d.counterexample
        if found is not None:
            expect(ok(found), f"{'witness' if d.value else 'counterexample'} {found} is wrong")

    return Query(f"sentence:{index}", run, check, quick=quick)


# -- representation counts (count) ---------------------------------------------

def representation_query(digits, k, top=64, quick=False):
    want = refs.representation_counts(digits, k, top)

    def run():
        rep = regseq.representation_count(set(digits), k)
        return [rep.evaluate(n) for n in range(top + 1)]

    def check(got):
        bad = [n for n in range(top + 1) if got[n] != want[n]]
        expect(not bad, f"differs from direct counting at n={bad[:5]}")

    label = "".join(str(d) for d in digits)
    return Query(f"representation-count:{{{label}}}/base{k}", run, check, quick=quick)


# -- series ----------------------------------------------------------------------

def verify_conjecture_query(paper, quick=False):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-conjecture"])
        return code, out.getvalue()

    def check(result):
        code, text = result
        lines = text.splitlines()
        verified = sum(1 for ln in lines if ln.startswith("VERIFIED"))
        expect(code == 0, f"exit code {code}")
        expect(any(ln.startswith("EQUIVALENT") and paper["bordered_lengths_pattern"] in ln
                   for ln in lines), "pattern equivalence not reported")
        expect(verified == paper["recurrences_verified"] and "FAILS" not in text,
               f"{verified} recurrences verified")

    return Query("cli:verify-conjecture", run, check, quick=quick)


def kernel_query(tm, entry, depth=4, quick=False):
    f = {int(n): v for n, v in entry["values"].items()}

    def run():
        return regseq.kernel_relations(analyses.measure(tm, "unbordered-count"), depth)

    def check(system):
        expect(system.relations, "no relations found")
        for rel in system.relations:
            m, c = rel.lhs
            for n in itertools.count():
                idx = [m * n + c] + [mm * n + cc for mm, cc in rel.combo]
                if max(idx) > max(f):
                    break
                rhs = sum(coef * f[mm * n + cc] for (mm, cc), coef in rel.combo.items())
                expect(f[m * n + c] == rhs, f"relation {rel} fails at n={n}")

    return Query(f"kernel-relations:tm/unbordered-count/depth{depth}", run, check, quick=quick)


def unbordered_table_query(tm, paper, quick=False):
    want = paper["unbordered_count_1_to_16"]

    def run():
        rep = analyses.measure(tm, "unbordered-count")
        return [rep.evaluate(n) for n in range(1, 17)]

    def check(got):
        expect(got == want, f"f(1..16) = {got}")

    return Query("paper-table:tm/unbordered-count", run, check, quick=quick)


def random_linrep(rng, rank):
    def mat():
        return [[rng.randrange(3) for _ in range(rank)] for _ in range(rank)]
    return [rng.randrange(3) for _ in range(rank)], [mat(), mat()], [rng.randrange(3) for _ in range(rank)]


def round_trip_states(u, mats, v):
    """States of nfa_from_linrep's result, as its docstring defines them: the
    rank is padded by two (new first row uM, uMv; new last column Mv), and
    every state is copied once per unit of the largest padded entry."""
    r = len(u)
    top = 1
    for m in mats:
        um = [sum(u[i] * m[i][j] for i in range(r)) for j in range(r)]
        mv = [sum(m[i][j] * v[j] for j in range(r)) for i in range(r)]
        top = max([top, sum(a * b for a, b in zip(um, v))] + um + mv + [x for row in m for x in row])
    return (r + 2) * top


def round_trip_batch(rng):
    batch, spent = [], 0
    while spent < ROUND_TRIP_BUDGET:
        u, mats, v = random_linrep(rng, 1 + len(batch) % 3)
        cost = round_trip_states(u, mats, v) ** 2
        if cost <= ROUND_TRIP_BUDGET // 16:  # keep single draws small against the budget
            batch.append((u, mats, v))
            spent += cost
    return batch


def round_trip_query(index, u, mats, v, quick=False):
    words = [w for length in range(1, ROUND_TRIP_WORD_LENGTH + 1)
             for w in itertools.product(range(2), repeat=length)]
    want = [refs.series_value(u, mats, v, w) for w in words]

    def run():
        back = regseq.linrep_from_nfa(regseq.nfa_from_linrep(regseq.LinRep("nat", 2, u, mats, v)))
        return [back.eval_word(w) for w in words]

    def check(got):
        bad = [w for w, g, e in zip(words, got, want) if g != e]
        expect(not bad, f"round trip differs on {len(bad)} words, first {bad[:1]}")

    return Query(f"round-trip:{index}/rank{len(u)}", run, check, quick=quick)


# -- assembly --------------------------------------------------------------------

def build(workload, seed, corpus, tables):
    """The queries of one workload, in their fixed order."""
    rng = random.Random(f"{workload}:{seed}")
    measures = tables["measures"]
    prefixes = Prefixes()
    qs = []
    if workload == "compile":
        qs.append(measure_query("tm/permutation-complexity",
                                measures["tm/permutation-complexity"], corpus))
        qs.append(measure_query("rs/recurrence-R", measures["rs/recurrence-R"], corpus))
        decisions = tables["decisions"]
        for entry in decisions["entries"]:
            qs.append(decision_query(entry, decisions["sentences"][entry["property"]], corpus,
                                     prefixes, quick=entry["sequence"] == "tm"))
        for entry in decisions["analyses"]:
            qs.append(analysis_query(entry, corpus, prefixes, quick=True))
        defects = {"tm|rs": "AttributeError", "pd|pf": "AttributeError"}
        for key, ref in tables["factor_sets"].items():
            qs.append(compare_query(key, ref, corpus, prefixes, defects.get(key),
                                    quick=key == "tm|tm-swapped"))
        for i, (text, truth, ok) in enumerate(linear_sentences(rng, LINEAR_SENTENCES)):
            qs.append(sentence_query(i, text, truth, ok, quick=i < 3))
    elif workload == "count":
        for ident, entry in measures.items():
            if entry["sequence"] == "s3" or ident in (
                    "rs/recurrence-R", "tm/permutation-complexity", "kernel:tm/unbordered-count"):
                continue
            qs.append(measure_query(ident, entry, corpus,
                                    quick=ident in ("tm/subword-complexity", "pd/recurrence-R")))
        for kind in ("subword-complexity", "palindrome-complexity", "unbordered-count"):
            q = measure_query(f"s3/{kind}", measures[f"s3/{kind}"], corpus)
            if kind == "unbordered-count":
                q.known_defect = "deadline"
            qs.append(q)
        digit_sets = [((0, 1), 2), ((0, 1, 2), 2)]
        while len(digit_sets) < 4:  # two seeded sets, each new
            k = rng.choice((2, 3))
            extra = rng.sample(range(k, 2 * k + 2), 2)
            drawn = (tuple(sorted(set(range(k)) | set(extra))), k)
            if drawn not in digit_sets:
                digit_sets.append(drawn)
        for i, (digits, k) in enumerate(digit_sets):
            qs.append(representation_query(digits, k, quick=i == 1))
    elif workload == "series":
        tm = corpus["tm"]
        qs.append(verify_conjecture_query(tables["paper"], quick=True))
        qs.append(kernel_query(tm, measures["kernel:tm/unbordered-count"], quick=True))
        qs.append(unbordered_table_query(tm, tables["paper"], quick=True))
        for i, (u, mats, v) in enumerate(round_trip_batch(rng)):
            qs.append(round_trip_query(i, u, mats, v, quick=i < 2))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    assert len({q.name for q in qs}) == len(qs), "query names must be unique"
    return qs
