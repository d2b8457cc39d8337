"""Outside-in tracer: wraps each layer's public functions from the outside.

Engine modules bind each other's functions by name (`from .automata import
minimize`, `compile as compile_formula`), so wrapping only the defining
module would miss most call sites.  install() replaces every binding of an
original function in every autoseq module namespace, plus the listed
methods on their classes, and refuses to run if any binding survives.

Each call made while a query is active becomes a span: name, start, end,
parent span, query id, and a few sizes read off the arguments and result.
Spans stay in memory; run.py writes them out once, after the pass.  Self
time is a span's duration minus the durations of its direct children.
"""

import gc
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("numeration", "automata", "seqgen", "logic", "regseq", "analyses", "cli")
METHODS = {("regseq", "LinRep"): ("eval_word", "evaluate"), ("seqgen", "Dfao"): ("evaluate",)}

# Metric groups: the metric prefix and the traced functions it sums over.
GROUPS = {
    "automata.determinize": ("automata.determinize",),
    "automata.minimize": ("automata.minimize",),
    "automata.pad_closure": ("automata.pad_closure",),
    "automata.product": ("automata.product",),
    "automata.project_many": ("automata.project_many",),
    "automata.remap": ("automata.inflate", "automata.permute_tracks"),
    "automata.search": ("automata.is_empty", "automata.equivalent", "automata.is_finite"),
    "logic.parse": ("logic.parse",),
    "logic.compile": ("logic.compile",),
    "regseq.eps_saturate": ("regseq.eps_saturate",),
    "regseq.trim_nfa": ("regseq.trim_nfa",),
    "regseq.linrep_from_nfa": ("regseq.linrep_from_nfa",),
    "regseq.decompose_infinity": ("regseq.decompose_infinity",),
    "regseq.eval_word": ("regseq.LinRep.eval_word",),
    "regseq.kernel_relations": ("regseq.kernel_relations",),
    "regseq.verify_relation": ("regseq.verify_relation",),
    "regseq.nfa_from_linrep": ("regseq.nfa_from_linrep",),
    "regseq.normalize": ("regseq.normalize_leading", "regseq.normalize_trailing"),
}

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def metric_units(kind):
    """[(name, unit)] of BENCHMARK.json's "end_to_end" or "per_layer" list,
    in report order."""
    with open(SPEC, encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


NAME, START, END, PARENT, QUERY, INFO = range(6)


def _sizes(tracer, name, args, out):
    """Sizes a metric needs, read from outside; None for other functions."""
    if name == "automata.determinize":
        tracer.last_subset = out
        return (out.n_states, args[0].base ** args[0].arity)
    if name == "automata.minimize":
        return (args[0].n_states, out.n_states, out)
    if name == "automata.pad_closure":
        return (out.n_states, args[0] is tracer.last_subset)
    if name == "regseq.linrep_from_nfa":
        return (out.rank,)
    if name == "regseq.decompose_infinity":
        return (args[0].rank,)
    if name == "regseq.LinRep.eval_word":
        digits = args[1]
        return (len(digits) if hasattr(digits, "__len__") else 0, args[0].rank)
    size = getattr(out, "n_states", None)  # any automaton a function returns
    return None if size is None else (size,)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.query = None
        self.last_subset = None
        self.bindings = defaultdict(int)  # traced name -> bindings replaced
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[START] = clock()
                out = fn(*args, **kwargs)
                span[END] = clock()
            finally:
                if not span[END]:
                    span[END] = clock()
                stack.pop()
            span[INFO] = _sizes(self, name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every binding of every traced function; raise if one survives."""
        wrappers = {}  # original function -> (span name, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module("autoseq." + layer)
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = (name, self.wrap(name, obj))
        for (layer, cls_name), attrs in METHODS.items():
            cls = getattr(importlib.import_module("autoseq." + layer), cls_name)
            for attr in attrs:
                fn = vars(cls)[attr]
                name = f"{layer}.{cls_name}.{attr}"
                self._replace(cls, attr, fn, self.wrap(name, fn), name)
        for namespace in self._namespaces():
            for attr, obj in list(vars(namespace).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    name, wrapper = wrappers[obj]
                    self._replace(namespace, attr, obj, wrapper, name)
        survivors = _bound_anywhere(wrappers)
        missing = [fn for names in GROUPS.values() for fn in names if not self.bindings[fn]]
        if survivors or missing:
            self.uninstall()
            raise RuntimeError(f"tracer left bindings unwrapped: {survivors or missing}")

    def _replace(self, owner, attr, old, new, name):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))
        self.bindings[name] += 1

    @staticmethod
    def _namespaces():
        mods = [m for n, m in sys.modules.items() if n == "autoseq" or n.startswith("autoseq.")]
        classes = [obj for m in mods for obj in vars(m).values()
                   if isinstance(obj, type) and obj.__module__.startswith("autoseq")]
        return mods + classes

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def begin(self, query):
        self.stack.clear()
        self.query = query

    def end(self):
        self.query = None
        self.last_subset = None


def _bound_anywhere(originals):
    """Names still bound to an original function in any dict of the process
    (module and class namespaces included), found without the namespace
    walk that install() used."""
    ids = {id(fn): wrapper[0] for fn, wrapper in originals.items()}
    found = []
    for obj in gc.get_objects():
        if type(obj) is dict and obj.get("__wrapped__") is None:
            found += [f"{ids[id(v)]} as {k}" for k, v in obj.items() if id(v) in ids]
    return found


def _durations(spans):
    return [max(s[END] - s[START], 0.0) for s in spans]


def self_times(spans):
    """({traced name: self seconds}, {traced name: calls}); self time is a
    span's duration minus that of its direct children."""
    dur = _durations(spans)
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += dur[i] - child[i]
        calls[s[NAME]] += 1
    return self_s, calls


def layer_metrics(spans, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    self_s, calls = self_times(spans)

    def total(table, names):
        return sum(table[x] for x in names)

    def infos(fn):
        return [s[INFO] for s in spans if s[NAME] == fn and s[INFO] is not None]

    m = {}
    for layer in LAYERS:
        names = [x for x in self_s if x.startswith(layer + ".")]
        m[f"{layer}.self_s"] = total(self_s, names)
        if layer == "automata":
            m["automata.calls"] = total(calls, names)
    for group, names in GROUPS.items():
        m[f"{group}.calls"] = total(calls, names)
        m[f"{group}.self_s"] = total(self_s, names)

    det = infos("automata.determinize")
    m["automata.determinize.states_out"] = sum(i[0] for i in det)
    m["automata.determinize.states_out_max"] = max((i[0] for i in det), default=0)
    m["automata.determinize.symbols_max"] = max((i[1] for i in det), default=0)
    pads = infos("automata.pad_closure")
    built = sum(i[0] for i in det)
    m["automata.subset_useful_share"] = (
        sum(i[0] for i in pads if i[1]) / built if built else 0.0)
    mins = infos("automata.minimize")
    m["automata.minimize.states_in"] = sum(i[0] for i in mins)
    m["automata.minimize.states_out"] = sum(i[1] for i in mins)
    distinct = {i[2] for i in mins}
    m["automata.minimize.dup_share"] = 1 - len(distinct) / len(mins) if mins else 0.0
    m["automata.pad_closure.states_out"] = sum(i[0] for i in pads)
    m["automata.product.states_out"] = sum(i[0] for i in infos("automata.product"))
    m["automata.states_out_max"] = max(
        [i[0] for s in spans if s[NAME].startswith("automata.") and (i := s[INFO])] + [0])
    m["regseq.eps_saturate.states"] = sum(i[0] for i in infos("regseq.eps_saturate"))
    m["regseq.linrep_from_nfa.rank_out"] = sum(i[0] for i in infos("regseq.linrep_from_nfa"))
    m["regseq.decompose_infinity.rank_in"] = sum(
        i[0] for i in infos("regseq.decompose_infinity"))
    # The locus DFA is minimized right after exploration, so its input size
    # is the number of row vectors explored.
    m["regseq.decompose_infinity.rows"] = sum(
        s[INFO][0] for s in spans if s[NAME] == "automata.minimize" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "regseq.decompose_infinity" and s[INFO])
    words = infos("regseq.LinRep.eval_word")
    m["regseq.eval_word.digits"] = sum(i[0] for i in words)
    m["regseq.eval_word.row_ops"] = sum(i[0] * i[1] * i[1] for i in words)
    m["regseq.nfa_from_linrep.states_out"] = sum(i[0] for i in infos("regseq.nfa_from_linrep"))
    covered = sum(d for s, d in zip(spans, _durations(spans)) if s[PARENT] < 0)
    m["trace.coverage"] = covered / traced_wall if traced_wall else 0.0
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: (m[name], unit) for name, unit in metric_units("per_layer")}
