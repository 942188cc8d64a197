#!/usr/bin/env python3
"""Compare two `gblab run --json` reports.

Usage: python scripts/suite_diff.py A.json B.json

Byte-equal files print `identical` and exit 0.  Otherwise rows are paired
by (check_id, geometry, params) and the script prints the largest
|a - b| / max(|a|, 1) over the numeric leaves of each row's computed and
reference values, residuals and convergence samples, with the row and key
where it occurs.  After that summary line comes one indented line per
numeric leaf that moved, `<row> <key>: a -> b (rel d)`, largest first.
It exits 1 if a row is missing on one side or any other field differs
(pass flags, tolerances, notes, strings, the summary or the shape of a
value), and 0 if only numbers moved.  Standard library only.
"""

import json
import math
import sys
from pathlib import Path

MEASURED = ("computed", "reference", "residual_abs", "residual_rel", "convergence")


def _leaves(node, path=()):
    """(path, value) for every scalar leaf of a JSON value."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(a, b) -> bool:
    both_nan = _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b)
    return both_nan or (type(a) is type(b) and a == b)


def _rel_diff(a, b) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), 1.0)


def _rows(doc) -> dict:
    """Rows keyed by (check_id, geometry, params), a repeated key numbered."""
    out = {}
    for row in doc["results"]:
        key = (row["check_id"], row["geometry"], json.dumps(row["params"], sort_keys=True))
        n = sum(1 for k in out if k[:3] == key)
        out[key + (n,)] = row
    return out


def _name(key) -> str:
    check, geometry, params, n = key
    return f"{check} {geometry} {params}" + (f" #{n}" if n else "")


def compare(doc_a, doc_b, out=print) -> int:
    """Print how two parsed reports differ; 1 if anything but numbers moved."""
    problems = []
    head_a = dict(_leaves({k: v for k, v in doc_a.items() if k != "results"}))
    head_b = dict(_leaves({k: v for k, v in doc_b.items() if k != "results"}))
    for path in sorted(set(head_a) | set(head_b), key=repr):
        if path not in head_a or path not in head_b or not _same(head_a[path], head_b[path]):
            problems.append(f"report field {'.'.join(map(str, path))}: "
                            f"{head_a.get(path)!r} != {head_b.get(path)!r}")
    rows_a, rows_b = _rows(doc_a), _rows(doc_b)
    for key in rows_a.keys() - rows_b.keys():
        problems.append(f"row only in A: {_name(key)}")
    for key in rows_b.keys() - rows_a.keys():
        problems.append(f"row only in B: {_name(key)}")
    moved = []
    for key in sorted(rows_a.keys() & rows_b.keys()):
        la, lb = dict(_leaves(rows_a[key])), dict(_leaves(rows_b[key]))
        for path in sorted(set(la) | set(lb), key=repr):
            where = ".".join(map(str, path))
            if path not in la or path not in lb:
                problems.append(f"{_name(key)}: {where} only in {'A' if path in la else 'B'}")
                continue
            a, b = la[path], lb[path]
            if path[0] in MEASURED and _is_number(a) and _is_number(b):
                d = _rel_diff(a, b)
                if d > 0.0:
                    moved.append((d, key, where, a, b))
            elif not _same(a, b):
                problems.append(f"{_name(key)}: {where}: {a!r} != {b!r}")
    moved.sort(key=lambda m: -m[0])  # stable: the first of equal moves stays first
    if not moved:
        out(f"paired {len(rows_a.keys() & rows_b.keys())} rows; every numeric leaf is equal")
    else:
        d, key, where, a, b = moved[0]
        out(f"paired {len(rows_a.keys() & rows_b.keys())} rows; max rel diff {d:.3g} "
            f"at {_name(key)} {where}: {a!r} -> {b!r}")
    for d, key, where, a, b in moved:
        out(f"  {_name(key)} {where}: {a!r} -> {b!r} (rel {d:.3g})")
    for line in problems:
        out(line)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    raw_a, raw_b = (Path(p).read_bytes() for p in args)
    if raw_a == raw_b:
        print("identical")
        return 0
    return compare(json.loads(raw_a), json.loads(raw_b))


if __name__ == "__main__":
    raise SystemExit(main())
