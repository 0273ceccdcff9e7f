#!/usr/bin/env python3
"""Render EXPERIMENTS.md's Table 3 block from a `table3 --json` file.

Usage:
  scripts/table3_block.py BENCH.json                    print the block
  scripts/table3_block.py BENCH.json --check DOC.md     exit 1 if DOC's block differs
  scripts/table3_block.py BENCH.json --write DOC.md     replace DOC's block

The block sits between the lines `<!-- table3:begin -->` and
`<!-- table3:end -->` of DOC and is a fenced code block with one line per
row, in the layout `table3` prints; the time column is the row's summed
engine wall (`wall_ms`) in milliseconds.
"""

import difflib
import json
import sys

BEGIN = "<!-- table3:begin -->"
END = "<!-- table3:end -->"
HEADER = (
    f"{'Program':<18} {'Mode':<8} {'Lines':>5} {'Space':>9} {'Time(ms)':>9} "
    f"{'Visits':>10} {'Rep':>4} {'Act':>4} {'Pruned':>6} {'Comps':>5} {'EstStructs':>12}"
)


def render(rows):
    out = ["```", HEADER, "-" * len(HEADER)]
    previous = None
    for r in rows:
        first = r["benchmark"] != previous
        if first and previous is not None:
            out.append("")
        previous = r["benchmark"]
        name, lines = (r["benchmark"], str(r["lines"])) if first else ("", "")
        rep = "-" if r["reported"] is None else str(r["reported"])
        marker = "" if r["complete"] else " (incomplete)"
        out.append(
            f"{name:<18} {r['mode']:<8} {lines:>5} {r['space']:>9} {r['wall_ms']:>9.2f} "
            f"{r['visits']:>10} {rep:>4} {r['actual']:>4} {r['pruned']:>6} "
            f"{r['components']:>5} {r['estimated_structures']:>12}{marker}"
        )
    out.append("```")
    return out


def split(doc_path):
    lines = open(doc_path).read().split("\n")
    begin, end = lines.index(BEGIN), lines.index(END)
    return lines[: begin + 1], lines[begin + 1 : end], lines[end:]


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 3) or (len(args) == 3 and args[1] not in ("--check", "--write")):
        sys.exit(__doc__.strip())
    block = render(json.load(open(args[0]))["rows"])
    if len(args) == 1:
        print("\n".join(block))
        return
    head, current, tail = split(args[2])
    if args[1] == "--write":
        open(args[2], "w").write("\n".join(head + block + tail))
    elif current != block:
        sys.stdout.writelines(
            difflib.unified_diff(
                [l + "\n" for l in current],
                [l + "\n" for l in block],
                f"{args[2]} (committed block)",
                f"{args[0]} (rendered)",
            )
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
