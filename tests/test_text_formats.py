"""The three stored text formats: DFAO (seqgen), automaton (automata) and
linear representation (regseq).  Loading is sized by the text read, and a
malformed text raises ValueError and nothing else."""

import random
import tracemalloc

import pytest

from autoseq import automata, regseq, seqgen
from autoseq.automata import Nfa
from autoseq.logic import compile as compile_formula, parse
from autoseq.regseq import INF, LinRep


@pytest.mark.parametrize("load, text, message", [
    (automata.load, "dfa base=2 arity=1 states=100000 initial=0 finals=",
     "state 0: transition table is not total"),
    (seqgen.load, "dfao base=2 states=100000 initial=0", "state 0: missing output"),
    # no other test builds the arity-18 alphabet, which a loader sized by
    # the header would allocate
    (automata.load, "dfa base=2 arity=18 states=1 initial=0 finals=",
     "state 0: transition table is not total"),
], ids=["dfa-states", "dfao-states", "dfa-arity"])
def test_a_header_alone_costs_no_table(load, text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _stored_texts():
    tm = seqgen.thue_morse()
    nfa = Nfa(2, 1, 3, initials=[0, 1], finals=[2])
    nfa.add_edge(0, 1, 2, mult=3)
    nfa.add_edge(2, 0, 2)
    nfa.add_eps(1, 2)
    nfa.add_eps(0, 1, mult=2)
    rep = LinRep("natinf", 2, (1, 0), (((1, 0), (0, 1)), ((0, 1), (INF, 0))), (0, 1))
    return [
        (seqgen.load, seqgen.store(tm)),
        (automata.load, automata.store(compile_formula(parse("tm[i] = tm[j]"), {"tm": tm}))),
        (automata.load, automata.store(nfa)),
        (regseq.load, regseq.store(rep)),
    ]


POOL = ("-1", "0", "7", "100000", "x", "inf", "1/0", "eps", "")


def _mutate(rng, text):
    """One random edit of a stored text: delete, duplicate or swap lines,
    drop a header field, or replace a token (a field's value in the header)
    from POOL."""
    lines = text.splitlines()
    if not lines:
        return text
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 0:
        del lines[i]
    elif edit == 1:
        lines.insert(i, lines[j])
    elif edit == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == 3:
        kind, *fields = lines[0].split()
        if fields:
            del fields[rng.randrange(len(fields))]
        lines[0] = " ".join([kind] + fields)
    else:
        tokens = lines[i].split() or [""]
        t = rng.randrange(len(tokens))
        key, eq, _ = tokens[t].rpartition("=")
        tokens[t] = key + eq + rng.choice(POOL)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_a_mutated_text_loads_or_raises_value_error():
    rng = random.Random(5)
    texts = _stored_texts()
    loaded = 0
    for _ in range(2000):
        load, text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        try:
            load(text)
        except ValueError:
            continue
        loaded += 1
    # some edits keep the text valid (a swap of two transitions, a
    # duplicated line), so the probe also walks the accepting paths
    assert 0 < loaded < 2000
