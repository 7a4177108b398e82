#!/usr/bin/env python3
"""Line coverage of src/ from a gcc --coverage build, summed from gcov.

Usage (after the tests of a build configured with
-DCMAKE_CXX_FLAGS=--coverage have run):

    python3 tools/coverage/src_line_coverage.py --build build [--json out.json]

Every .gcda file under the build tree is read with
`gcov --json-format --stdout`: the library's objects and every test's, so a
src/ header function instantiated only in a test counts too. A src/ line is
executable if any object reports it and covered if any object ran it.
Prints one row per src/ directory and the total; needs no lcov or gcovr.
"""

import argparse
import collections
import json
import os
import subprocess
import sys


def gcov_documents(build_dir):
    """Yields gcov's JSON document for every .gcda file under build_dir."""
    by_dir = collections.defaultdict(list)
    for dirpath, _, filenames in os.walk(build_dir):
        for name in filenames:
            if name.endswith(".gcda"):
                by_dir[dirpath].append(name)
    for dirpath, names in sorted(by_dir.items()):
        result = subprocess.run(
            ["gcov", "--json-format", "--stdout", *sorted(names)],
            cwd=dirpath, capture_output=True, text=True, check=True)
        for line in result.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def src_lines(build_dir, root):
    """Maps each src/ file (relative to root) to {line: executed?}."""
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    lines = collections.defaultdict(dict)
    for document in gcov_documents(build_dir):
        cwd = document.get("current_working_directory", "")
        for entry in document["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, os.path.realpath(root))
            for line in entry["lines"]:
                number = line["line_number"]
                lines[rel][number] = lines[rel].get(number, False) or line["count"] > 0
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, help="the --coverage build tree")
    parser.add_argument("--root", default=".", help="the repository root (holds src/)")
    parser.add_argument("--json", help="also write the totals here as JSON")
    args = parser.parse_args()

    lines = src_lines(args.build, args.root)
    if not lines:
        sys.exit("no src/ lines found: is this a --coverage build whose tests ran?")
    per_dir = collections.defaultdict(lambda: [0, 0])
    for path, hits in lines.items():
        directory = os.path.dirname(path)
        per_dir[directory][0] += sum(hits.values())
        per_dir[directory][1] += len(hits)
    covered = sum(c for c, _ in per_dir.values())
    executable = sum(t for _, t in per_dir.values())
    for directory, (c, t) in sorted(per_dir.items()):
        print(f"{directory:<12} {c:>6} / {t:<6} {100.0 * c / t:6.2f}%")
    print(f"{'src total':<12} {covered:>6} / {executable:<6} {100.0 * covered / executable:6.2f}%")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"covered_lines": covered, "executable_lines": executable,
                       "line_coverage": covered / executable,
                       "per_directory": {d: {"covered": c, "executable": t}
                                         for d, (c, t) in sorted(per_dir.items())}},
                      out, indent=2)
            out.write("\n")


if __name__ == "__main__":
    main()
