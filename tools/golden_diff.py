#!/usr/bin/env python3
"""Summarise how a golden file moved, for reviewing a golden update.

Usage:
  golden_diff.py OLD NEW       summary of the cells that changed
  golden_diff.py --self-test   run the fixture suite and exit

A golden (tests/core/golden_reports.txt, tests/bench/golden_figures.txt) has
one line per cell: `cell name=value ...`. A cell's family is the first two
`/`-separated parts of its name (`rmat/compress`, `fig5/RGG2D`).
For every family, and over all cells, the summary prints each field that
changed: in how many cells, and the median and range of its signed relative
change (new - old) / |old|. Hash fields (`*_hash`) and labels only count
changes. The last line names the fields that changed in no cell, so a
review can check that counts and hashes stayed put.

Exit codes: 0 summary printed, 2 usage error or unreadable file.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path


def parse(lines: list[str]) -> dict[str, dict[str, str]]:
    """Cell name -> {field: value text}, in file order."""
    cells: dict[str, dict[str, str]] = {}
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        fields = {}
        for token in tokens[1:]:
            name, _, value = token.partition("=")
            fields[name] = value
        cells[tokens[0]] = fields
    return cells


def number(field: str, text: str) -> float | None:
    """The value as a number, or None for a hash, a label or "OOM"."""
    if field.endswith("_hash"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


class FieldMoves:
    """The changes of one field within one group of cells."""

    def __init__(self) -> None:
        self.changed = 0
        self.relative: list[float] = []  # numeric changes from a non-zero value
        self.from_zero = 0               # numeric changes from 0: no ratio

    def add(self, field: str, old: str, new: str) -> None:
        self.changed += 1
        a, b = number(field, old), number(field, new)
        if a is None or b is None:
            return
        if a == 0:
            self.from_zero += 1
        else:
            self.relative.append((b - a) / abs(a))


class Summary:
    def __init__(self) -> None:
        self.cells = 0
        self.changed_cells = 0
        self.added: list[str] = []
        self.removed: list[str] = []
        self.fields: set[str] = set()
        # group ("all" or a family) -> field -> moves; families in file order
        self.groups: dict[str, dict[str, FieldMoves]] = {}
        self.family_cells: dict[str, list[int]] = {}  # family -> [changed, cells]


def family_of(cell: str) -> str:
    return "/".join(cell.split("/")[:2])


def diff(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> Summary:
    summary = Summary()
    summary.removed = [cell for cell in old if cell not in new]
    summary.added = [cell for cell in new if cell not in old]
    summary.groups["all"] = {}
    for cell, before in old.items():
        after = new.get(cell)
        if after is None:
            continue
        summary.cells += 1
        family = family_of(cell)
        counts = summary.family_cells.setdefault(family, [0, 0])
        counts[1] += 1
        summary.fields.update(before)
        summary.fields.update(after)
        moved = [f for f in sorted(set(before) | set(after))
                 if before.get(f) != after.get(f)]
        if not moved:
            continue
        summary.changed_cells += 1
        counts[0] += 1
        for group in (family, "all"):
            fields = summary.groups.setdefault(group, {})
            for field in moved:
                fields.setdefault(field, FieldMoves()).add(
                    field, before.get(field, ""), after.get(field, ""))
    return summary


def percent(value: float) -> str:
    return f"{100 * value:+.1f}%"


def render(summary: Summary) -> list[str]:
    out = [f"{summary.changed_cells} of {summary.cells} cells changed, "
           f"{len(summary.added)} added, {len(summary.removed)} removed"]
    for label, cells in (("added", summary.added), ("removed", summary.removed)):
        out.extend(f"  {label}: {cell}" for cell in cells)
    order = [group for group in summary.groups if group != "all"] + ["all"]
    for group in order:
        fields = summary.groups[group]
        if not fields:
            continue
        if group == "all":
            header = "all families"
        else:
            changed, cells = summary.family_cells[group]
            header = f"{group}: {changed} of {cells} cells"
        out.append(header)
        for field in sorted(fields):
            moves = fields[field]
            line = f"  {field}: {moves.changed} cells"
            if moves.relative:
                line += (f", median {percent(statistics.median(moves.relative))}, "
                         f"range {percent(min(moves.relative))} to "
                         f"{percent(max(moves.relative))}")
            if moves.from_zero:
                line += f", {moves.from_zero} from 0"
            out.append(line)
    still = sorted(summary.fields - set(summary.groups["all"]))
    out.append("unchanged in every cell: " + (", ".join(still) if still else "(none)"))
    return out


# --- self-test -------------------------------------------------------------

SELF_TEST_OLD = """\
rmat/default/a triangles=10 time=1.0 hash=00000000000000aa
rmat/default/b triangles=10 time=2.0 hash=00000000000000bb
rmat/harden/a triangles=10 time=4.0 msgs=0 hash=00000000000000cc
rgg/default/a triangles=7 time=1.0 hash=00000000000000dd
rgg/default/gone triangles=7 time=1.0 hash=00000000000000ee
"""
SELF_TEST_NEW = """\
rmat/default/a triangles=10 time=0.9 hash=00000000000000aa
rmat/default/b triangles=10 time=2.2 hash=00000000000000bb
rmat/harden/a triangles=10 time=3.0 msgs=3 hash=00000000000000cc
rgg/default/a triangles=7 time=1.0 hash=00000000000000dd
rgg/default/new triangles=7 time=1.0 hash=00000000000000ff
"""
SELF_TEST_EXPECTED = [
    "3 of 4 cells changed, 1 added, 1 removed",
    "  added: rgg/default/new",
    "  removed: rgg/default/gone",
    "rmat/default: 2 of 2 cells",
    "  time: 2 cells, median +0.0%, range -10.0% to +10.0%",
    "rmat/harden: 1 of 1 cells",
    "  msgs: 1 cells, 1 from 0",
    "  time: 1 cells, median -25.0%, range -25.0% to -25.0%",
    "all families",
    "  msgs: 1 cells, 1 from 0",
    "  time: 3 cells, median -10.0%, range -25.0% to +10.0%",
    "unchanged in every cell: hash, triangles",
]


def self_test() -> int:
    failures = 0
    got = render(diff(parse(SELF_TEST_OLD.splitlines()),
                      parse(SELF_TEST_NEW.splitlines())))
    if got != SELF_TEST_EXPECTED:
        print("self-test FAIL: summary differs\n  expected:")
        print("\n".join("    " + line for line in SELF_TEST_EXPECTED))
        print("  got:")
        print("\n".join("    " + line for line in got))
        failures += 1
    # A hash that happens to be all digits still only counts as changed.
    moves = FieldMoves()
    moves.add("delta_hash", "0000000000000001", "0000000000000002")
    if moves.changed != 1 or moves.relative:
        print("self-test FAIL: a hash change was given a relative change")
        failures += 1
    identical = render(diff(parse(SELF_TEST_OLD.splitlines()),
                            parse(SELF_TEST_OLD.splitlines())))
    if identical != ["0 of 5 cells changed, 0 added, 0 removed",
                     "unchanged in every cell: hash, msgs, time, triangles"]:
        print(f"self-test FAIL: identical files summarised as {identical}")
        failures += 1
    if failures:
        return 1
    print("self-test: 3 cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path, help="the golden before")
    parser.add_argument("new", nargs="?", type=Path, help="the golden after")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        old = parse(args.old.read_text(encoding="utf-8").splitlines())
        new = parse(args.new.read_text(encoding="utf-8").splitlines())
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print("\n".join(render(diff(old, new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
