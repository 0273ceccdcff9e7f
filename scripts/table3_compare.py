#!/usr/bin/env python3
"""Compare two `table3 --json` files on every non-timing field.

Usage: scripts/table3_compare.py EXPECTED.json ACTUAL.json

Rows are matched in order and must name the same benchmark and mode. Every
field present in both rows is compared recursively (subproblems, and the
`phases` counts and `counters` objects when both files were written with
`--metrics`), except the wall-clock fields `wall_ms`, `elapsed_ms` and a
phase's `ms`. Exits 0 when nothing differs, 1 otherwise, printing each
difference.
"""

import json
import sys

TIMING = {"wall_ms", "elapsed_ms", "ms"}


def diff(path, a, b, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() & b.keys()):
            if key not in TIMING:
                diff(f"{path}.{key}", a[key], b[key], out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} entries vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(f"{path}[{i}]", x, y, out)
    elif a != b:
        out.append(f"{path}: {a!r} vs {b!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    expected, actual = (json.load(open(p))["rows"] for p in sys.argv[1:])
    out = []
    if len(expected) != len(actual):
        out.append(f"rows: {len(expected)} vs {len(actual)}")
    for a, b in zip(expected, actual):
        name = f"{a['benchmark']}/{a['mode']}"
        if (a["benchmark"], a["mode"]) != (b["benchmark"], b["mode"]):
            out.append(f"{name}: row is {b['benchmark']}/{b['mode']}")
            continue
        diff(name, a, b, out)
    for line in out:
        print(line)
    print(f"{len(expected)} rows, {len(out)} differences")
    sys.exit(1 if out else 0)


if __name__ == "__main__":
    main()
