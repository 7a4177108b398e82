#!/usr/bin/env python3
"""katric domain linter: repo-specific invariants no compiler flag enforces.

Rules (each finding names its rule id):

  nondeterminism     The counting paths must be bit-reproducible: no
                     std::rand/srand, no std::random_device, and no wall
                     clock reads (steady/system/high_resolution_clock,
                     gettimeofday, clock_gettime, ::time()) anywhere in
                     src/ outside the two audited timing homes
                     (util/timer.hpp's WallTimer and fault_plan.hpp's
                     CancelToken deadline). Every std::unordered_map/set in
                     src/ needs a waiver saying why its iteration order —
                     the standard library's, not the model's — cannot reach
                     a simulated metric.

  raw-throw          Errors leave the library typed. A `throw` in src/ may
                     only construct OomError, FaultError, CancelledError,
                     assertion_error (KATRIC_ASSERT/KATRIC_THROW) or its
                     subclass CliError; bare rethrow (`throw;`) is fine.

  raw-send           Algorithm code sends through the buffered aggregation
                     queues, never RankHandle::send/send_sized directly —
                     direct sends skip the message-size charging the cost
                     model depends on. Outside src/net/ a direct send needs
                     a waiver (the per-record send of the deliberately
                     unbuffered edge iterator in core/exchange.cpp is the
                     one legitimate site).

  host-isa           Simulated cost must not depend on the host's ISA: the
                     kernels' charged ops are a model, so every host runs
                     the same portable code. src/ may not include
                     <immintrin.h>, probe the CPU (__builtin_cpu_supports),
                     compile per-function ISA variants
                     (__attribute__((target(...)))) or read a
                     KATRIC_FORCE_SCALAR switch from the environment.

  umbrella-hygiene   Include discipline: library code never includes the
                     katric.hpp umbrella, the umbrella's includes all
                     exist, no `#include "../`, and every src/ header
                     opens with #pragma once.

  config-docs        Every Config flag and preset is documented: each
                     visit({"name", ...}) row of for_each_flag() in
                     src/config.cpp names a flag that docs/api.md spells
                     as `--name`, and each {"name", ...} row of
                     preset_table() a preset it spells as `name` in
                     backticks. A config.cpp with no flag rows is itself a
                     finding, so a renamed table cannot pass silently.

Waivers: append `// katric-lint: allow(<rule-id>): <reason>` to the
offending line (or the line just above). Waivers without a reason are
themselves findings.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

WAIVER_RE = re.compile(r"//\s*katric-lint:\s*allow\(([a-z-]+)\)(:\s*(\S.*))?")

# --- rule tables -----------------------------------------------------------

NONDETERMINISM_PATTERNS = [
    re.compile(r"\bstd::rand\b"),
    re.compile(r"\bsrand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bsteady_clock\b"),
    re.compile(r"\bsystem_clock\b"),
    re.compile(r"\bhigh_resolution_clock\b"),
    re.compile(r"\bgettimeofday\b"),
    re.compile(r"\bclock_gettime\b"),
    re.compile(r"::time\s*\("),
]
# The two audited homes of wall-clock access: host-side latency timing and
# the cooperative deadline check. Everything else derives time from them.
NONDETERMINISM_ALLOWED_FILES = {
    "src/util/timer.hpp",
    "src/fault/fault_plan.hpp",
}
# Hash containers: their iteration order depends on the standard library's
# bucket layout, so each one in src/ carries a waiver with the reason its
# order cannot reach a simulated metric (lookups only, or sorted on drain).
HASH_CONTAINER_RE = re.compile(r"\bstd::unordered_(multi)?(map|set)\b")

THROW_RE = re.compile(r"\bthrow\b\s*([A-Za-z_:]*)")
ALLOWED_THROW_TYPES = {"OomError", "FaultError", "CancelledError", "assertion_error",
                       "CliError"}

RAW_SEND_RE = re.compile(r"\.\s*(send|send_sized)\s*\(")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# Code patterns that make the executed kernel (and so its charge) depend
# on the host CPU. The intrinsics include and the environment switch carry
# their target in a literal, which scrub() blanks, so those two are matched
# on the raw line.
HOST_ISA_CODE_PATTERNS = [
    re.compile(r"\b__builtin_cpu_supports\b"),
    re.compile(r"__attribute__\s*\(\(\s*target\s*\("),
]
HOST_ISA_RAW_PATTERNS = [
    re.compile(r"^\s*#\s*include\s*<immintrin\.h>"),
    re.compile(r'\bgetenv\s*\(\s*"KATRIC_FORCE_SCALAR"'),
]


# Config's two tables, each from its opening line to its first closing
# line: the flag visitor (rows `visit({"name", ...`) and the preset vector
# (rows `{"name", ...`).
CONFIG_TABLES = [
    ("flag", re.compile(r"^void for_each_flag\("), re.compile(r"^}$"),
     re.compile(r'^\s*visit\(\{"([a-z0-9-]+)"')),
    ("preset", re.compile(r"static const std::vector<Preset> table = \{"),
     re.compile(r"^\s*};$"), re.compile(r'^\s*\{"([a-z0-9-]+)"')),
]


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def scrub(lines: list[str]) -> list[str]:
    """Lines with string/char literals and comments blanked, so patterns
    match only code. Block-comment state carries across lines."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote + quote)  # keep token boundaries
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[Finding] = []
        self.waivers_used: set[tuple[str, int]] = set()

    def emit(self, rule: str, rel: str, lineno: int, raw_lines: list[str],
             message: str) -> None:
        """Record a finding unless a waiver covers (same line or line above)."""
        for probe in (lineno, lineno - 1):
            if 1 <= probe <= len(raw_lines):
                match = WAIVER_RE.search(raw_lines[probe - 1])
                if match and match.group(1) == rule:
                    if not match.group(3):
                        self.findings.append(Finding(
                            "waiver", rel, probe,
                            f"waiver for '{rule}' is missing its reason"))
                    self.waivers_used.add((rel, probe))
                    return
        self.findings.append(Finding(rule, rel, lineno, message))

    # --- tree rules --------------------------------------------------------

    def check_config_docs(self) -> None:
        rel = "src/config.cpp"
        config = self.root / rel
        if not config.is_file():
            return
        raw = config.read_text(encoding="utf-8", errors="replace").splitlines()
        docs_path = self.root / "docs" / "api.md"
        docs = docs_path.read_text(encoding="utf-8") if docs_path.is_file() else ""
        table = None
        flag_rows = 0
        for lineno, line in enumerate(raw, 1):
            if table is None:
                table = next((t for t in CONFIG_TABLES if t[1].search(line)), None)
                continue
            kind, _, end, row_re = table
            if end.match(line):
                table = None
                continue
            row = row_re.match(line)
            if not row:
                continue
            name = row.group(1)
            if kind == "flag":
                flag_rows += 1
                documented = re.search(rf"(?<![\w-])--{re.escape(name)}(?![\w-])", docs)
                spelled = f"--{name}"
            else:
                documented = f"`{name}`" in docs
                spelled = f"preset `{name}`"
            if not documented:
                self.emit("config-docs", rel, lineno, raw,
                          f"{spelled} is missing from docs/api.md")
        if flag_rows == 0:
            self.emit("config-docs", rel, 1, raw,
                      "no for_each_flag() rows found — the config-docs rule "
                      "cannot check the flag list")

    # --- per-file rules ----------------------------------------------------

    def check_file(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
        code = scrub(raw)
        in_src = rel.startswith("src/")

        if in_src:
            self.check_nondeterminism(rel, raw, code)
            self.check_raw_throw(rel, raw, code)
            self.check_host_isa(rel, raw, code)
            self.check_umbrella(rel, raw, code, path)
        self.check_raw_send(rel, raw, code)
        self.check_unused_waivers(rel, raw)

    def check_nondeterminism(self, rel, raw, code) -> None:
        for lineno, line in enumerate(code, 1):
            if HASH_CONTAINER_RE.search(line):
                self.emit(
                    "nondeterminism", rel, lineno, raw,
                    "hash container — its iteration order is the standard "
                    "library's; use a flat or ordered container, or waive "
                    "with why its order cannot reach a simulated metric")
            if rel in NONDETERMINISM_ALLOWED_FILES:
                continue
            for pattern in NONDETERMINISM_PATTERNS:
                if pattern.search(line):
                    self.emit(
                        "nondeterminism", rel, lineno, raw,
                        f"nondeterminism primitive '{pattern.pattern}' — "
                        "counting paths must be reproducible; derive time "
                        "from util/timer.hpp")
                    break

    def check_raw_throw(self, rel, raw, code) -> None:
        for lineno, line in enumerate(code, 1):
            for match in THROW_RE.finditer(line):
                thrown = match.group(1)
                if not thrown:  # bare rethrow `throw;`
                    continue
                base = thrown.rsplit("::", 1)[-1]
                if base in ALLOWED_THROW_TYPES:
                    continue
                self.emit(
                    "raw-throw", rel, lineno, raw,
                    f"throw of '{thrown}' — errors leave the library typed "
                    "(OomError/FaultError/CancelledError/assertion_error; "
                    "use KATRIC_ASSERT/KATRIC_THROW)")

    def check_host_isa(self, rel, raw, code) -> None:
        for lineno, (line, code_line) in enumerate(zip(raw, code), 1):
            # A raw-line pattern only counts where the line still has code
            # (an include or a getenv call), not inside a comment.
            if any(p.search(code_line) for p in HOST_ISA_CODE_PATTERNS) or (
                    code_line.strip()
                    and any(p.search(line) for p in HOST_ISA_RAW_PATTERNS)):
                self.emit(
                    "host-isa", rel, lineno, raw,
                    "host-ISA dispatch — simulated cost must not depend on "
                    "the host CPU; write the kernel portably")

    def check_raw_send(self, rel, raw, code) -> None:
        if not rel.startswith(("src/",)) or rel.startswith("src/net/"):
            return
        for lineno, line in enumerate(code, 1):
            if RAW_SEND_RE.search(line):
                self.emit(
                    "raw-send", rel, lineno, raw,
                    "direct RankHandle send — route traffic through the "
                    "buffered aggregation queues, or waive with the reason "
                    "the charging model stays intact")

    def check_umbrella(self, rel, raw, code, path: Path) -> None:
        # Include directives carry their target in a string literal, which
        # scrub() blanks — match the raw line (INCLUDE_RE is anchored, so
        # commented-out includes in column 0 are the only false positives
        # and the tree has none).
        for lineno, line in enumerate(raw, 1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            target = match.group(1)
            if target == "katric.hpp" and rel != "src/katric.hpp":
                self.emit(
                    "umbrella-hygiene", rel, lineno, raw,
                    "library code must include what it uses, never the "
                    "katric.hpp umbrella")
            if target.startswith("../"):
                self.emit(
                    "umbrella-hygiene", rel, lineno, raw,
                    f'parent-relative include "{target}" — include paths '
                    "are rooted at src/")
            if rel == "src/katric.hpp" and not (self.root / "src" / target).is_file():
                self.emit(
                    "umbrella-hygiene", rel, lineno, raw,
                    f'umbrella names missing header "{target}"')
        if path.suffix == ".hpp":
            first_code = next((l.strip() for l in raw
                               if l.strip() and not l.strip().startswith("//")), "")
            if first_code != "#pragma once":
                self.emit(
                    "umbrella-hygiene", rel, 1, raw,
                    "src/ headers open with #pragma once")

    def check_unused_waivers(self, rel, raw) -> None:
        for lineno, line in enumerate(raw, 1):
            match = WAIVER_RE.search(line)
            if match and (rel, lineno) not in self.waivers_used:
                # A waiver that silenced nothing is stale — it would hide a
                # future regression on that line.
                self.findings.append(Finding(
                    "waiver", rel, lineno,
                    f"stale waiver for '{match.group(1)}' — nothing to allow "
                    "here any more"))


def lint_tree(root: Path) -> list[Finding]:
    linter = Linter(root)
    files = []
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.cpp")))
    linter.check_config_docs()
    for path in files:
        linter.check_file(path)
    return linter.findings


# --- self-test -------------------------------------------------------------

SELF_TEST_CASES = [
    # (rule expected in findings or None, filename, content)
    ("nondeterminism", "src/bad_clock.cpp",
     "void f() { auto t = std::chrono::system_clock::now(); }\n"),
    ("nondeterminism", "src/bad_rand.cpp",
     "int f() { return std::rand(); }\n"),
    (None, "src/ok_comment.cpp",
     "// std::rand() would break reproducibility\nint f() { return 4; }\n"),
    (None, "src/util/timer.hpp",
     "#pragma once\n#include <chrono>\nusing C = std::chrono::steady_clock;\n"),
    ("nondeterminism", "src/net/bad_hash_map.hpp",
     "#pragma once\n#include <unordered_map>\n"
     "struct Q { std::unordered_map<int, Buffer> buffers_; };\n"),
    (None, "src/seq/waived_hash_map.hpp",
     "#pragma once\n#include <unordered_set>\nstruct I {\n"
     "    // katric-lint: allow(nondeterminism): lookups only, never iterated\n"
     "    std::unordered_set<int> seen_;\n};\n"),
    ("raw-throw", "src/bad_throw.cpp",
     'void f() { throw std::runtime_error("boom"); }\n'),
    (None, "src/ok_throw.cpp",
     "void f() { throw OomError(1, 2); }\n"),
    (None, "src/ok_rethrow.cpp",
     "void f() { try { g(); } catch (...) { throw; } }\n"),
    ("raw-send", "src/core/bad_send.cpp",
     "void f(net::RankHandle& self) { self.send(0, r, kTag); }\n"),
    (None, "src/core/waived_send.cpp",
     "void f(net::RankHandle& self) {\n"
     "    // katric-lint: allow(raw-send): static mode is unbuffered by design\n"
     "    self.send(0, r, kTag);\n}\n"),
    ("waiver", "src/core/bare_waiver.cpp",
     "void f(net::RankHandle& self) {\n"
     "    self.send(0, r, kTag);  // katric-lint: allow(raw-send)\n}\n"),
    ("waiver", "src/core/stale_waiver.cpp",
     "// katric-lint: allow(raw-send): nothing here sends\nint f();\n"),
    ("host-isa", "src/seq/bad_intrinsics.cpp",
     "#include <immintrin.h>\nint f();\n"),
    ("host-isa", "src/seq/bad_dispatch.cpp",
     '__attribute__((target("avx2"))) int f();\n'
     'bool g() { return __builtin_cpu_supports("avx2") != 0; }\n'),
    ("host-isa", "src/seq/bad_env.cpp",
     'bool f() { return std::getenv("KATRIC_FORCE_SCALAR") != nullptr; }\n'),
    (None, "src/seq/ok_portable.cpp",
     "// No <immintrin.h>, no __attribute__((target(...))): one portable path.\n"
     "bool simd_available() noexcept { return false; }\n"),
    ("umbrella-hygiene", "src/bad_umbrella.cpp",
     '#include "katric.hpp"\nint f();\n'),
    ("umbrella-hygiene", "src/bad_parent.cpp",
     '#include "../tools/x.hpp"\nint f();\n'),
    ("umbrella-hygiene", "src/bad_pragma.hpp",
     "#ifndef GUARD\n#define GUARD\n#endif\n"),
    (None, "docs/api.md",
     "Flags: `--ranks --ranks-per-node`. Presets: `default`.\n"),
    ("config-docs", "src/config.cpp",
     "template <typename C, typename Visit>\n"
     "void for_each_flag(C& c, const Visit& visit) {\n"
     '    visit({"ranks", "simulated MPI ranks"}, c.num_ranks, at_least_one);\n'
     '    visit({"alpha", "undocumented", true}, c.network.alpha);\n'
     "}\n"
     "const std::vector<Preset>& preset_table() {\n"
     '    static const std::vector<Preset> table = {\n        {"default", {}},\n'
     "    };\n    return table;\n}\n"),
]


def self_test() -> int:
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for _, name, content in SELF_TEST_CASES:
            target = root / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        findings = lint_tree(root)
        by_file = {}
        for finding in findings:
            by_file.setdefault(finding.path, set()).add(finding.rule)
        for expected, name, _ in SELF_TEST_CASES:
            got = by_file.get(name, set())
            if expected is None and got:
                print(f"self-test FAIL: {name}: expected clean, got {sorted(got)}")
                failures += 1
            elif expected is not None and expected not in got:
                print(f"self-test FAIL: {name}: expected '{expected}', got {sorted(got)}")
                failures += 1
    if failures:
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repository root (default: the repo containing "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not (args.root / "src").is_dir():
        print(f"error: {args.root} has no src/ directory", file=sys.stderr)
        return 2

    findings = lint_tree(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
