"""Regenerate the oracle tables refs/measures.json and refs/factor_sets.json.

Run from the repository root:  PYTHONPATH=src python3 bench/make_refs.py

Values come from autoseq.oracle.brute over prefixes made by the closed
forms in refs.py, never from the engine's DFAOs or compiler.  A value is
stored only where the oracle certifies it; a refusal leaves that n out.
The decision table and the paper's figures (decisions.json, paper.json)
are written by hand and are not touched here.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from autoseq import analyses, oracle  # noqa: E402
import refs  # noqa: E402

BASE2 = ("tm", "rs", "pd", "pf")
SECOND = {"tm": "rs", "rs": "pd", "pd": "pf", "pf": "tm"}  # y of two-sequence kinds
PREFIX = 3200            # certifies n <= 32 at the oracle's default safety factor
PERMUTATION_PREFIX = 10_000
KERNEL_PREFIX = 16_000   # tm unbordered count up to n = 160, for kernel relations
FACTOR_PREFIX = 1 << 16
FACTOR_MAX_N = 12
# Values the oracle cannot certify from a prefix, with the argument for each.
HAND = {
    "tm/palindrome-count-at/begin": "t[0, 4^k) is a palindrome for every k",
    "tm/longest-palindrome-at/begin": "t[0, 4^k) is a palindrome for every k",
    "pd/palindrome-count-at/begin": "pd[0, 2^k - 1) is a palindrome for every k",
    "pd/longest-palindrome-at/begin": "pd[0, 2^k - 1) is a palindrome for every k",
}


def measure_ids():
    """(id, sequence, kind, anchor, second, prefix length, largest n)."""
    out = []
    for kind in analyses.MEASURE_KINDS:
        if kind == "permutation-complexity":
            continue
        for anchor in analyses.ANCHORED_KINDS.get(kind, (None,)):
            for s in BASE2:
                y = SECOND[s] if kind in analyses.TWO_SEQUENCE_KINDS else None
                ident = "/".join(p for p in (s if y is None else f"{s}|{y}", kind, anchor) if p)
                out.append((ident, s, kind, anchor, y, PREFIX, PREFIX // 100))
    for kind in ("subword-complexity", "palindrome-complexity", "unbordered-count"):
        out.append((f"s3/{kind}", "s3", kind, None, None, PREFIX, PREFIX // 100))
    out.append(("tm/permutation-complexity", "tm", "permutation-complexity", None, None,
                PERMUTATION_PREFIX, 12))
    out.append(("kernel:tm/unbordered-count", "tm", "unbordered-count", None, None,
                KERNEL_PREFIX, KERNEL_PREFIX // 100))
    return out


def measures():
    words = {}
    table = {}
    for ident, s, kind, anchor, y, length, top in measure_ids():
        for name in (s, y):
            if name and (name, length) not in words:
                words[(name, length)] = refs.prefix(name, length)
        ctx = oracle.PrefixContext(words[(s, length)])
        ctx2 = oracle.PrefixContext(words[(y, length)]) if y else None
        values = {}
        for n in range(top + 1):
            try:
                values[str(n)] = oracle.brute(kind, ctx, n, ctx2=ctx2, anchor=anchor or "begin")
            except oracle.CertificationError:
                continue
        table[ident] = {"sequence": s, "kind": kind, "anchor": anchor, "second": y,
                        "prefix": length, "values": values}
        if ident in HAND:
            # infinitely many palindromes begin at 0, so the value there is inf
            values["0"] = "inf"
            table[ident]["note"] = HAND[ident]
        print(f"{ident}: {len(values)} certified values", file=sys.stderr)
    return table


def factor_sets():
    """Factor-set comparisons by scanning prefixes, for n <= FACTOR_MAX_N."""
    words = {name: refs.prefix(name, FACTOR_PREFIX) for name in ("tm", "rs", "pd", "pf")}
    words["tm-swapped"] = tuple(1 - b for b in words["tm"])
    table = {}
    for x, y in (("tm", "rs"), ("pd", "pf"), ("tm", "tm-swapped")):
        only_x = only_y = None
        for n in range(1, FACTOR_MAX_N + 1):
            fx, fy = refs.factors(words[x], n), refs.factors(words[y], n)
            if only_x is None and fx - fy:
                only_x = (n, sorted(fx - fy)[0])
            if only_y is None and fy - fx:
                only_y = (n, sorted(fy - fx)[0])
        lengths = [d[0] for d in (only_x, only_y) if d]
        table[f"{x}|{y}"] = {
            "x_subset_of_y": only_x is None,
            "y_subset_of_x": only_y is None,
            "shortest_difference": min(lengths) if lengths else None,
            "only_in_x": list(only_x[1]) if only_x else None,
            "only_in_y": list(only_y[1]) if only_y else None,
            "prefix": FACTOR_PREFIX,
            "max_n": FACTOR_MAX_N,
        }
    return table


def main():
    for name, table in (("factor_sets", factor_sets()), ("measures", measures())):
        with open(os.path.join(refs.REFS_DIR, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
