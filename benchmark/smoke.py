#!/usr/bin/env python3
"""Smoke check: every workload at tiny sizes, untraced and traced.

Per run it checks that
  * the process exits 0 and its last stdout line is the summary object
    {"correct", "attempted", "failed", "metrics"} with correct true,
    attempted >= 1 and failed 0;
  * the metrics are exactly BENCHMARK.json's end_to_end names (untraced) or
    per_layer names (traced), each with its unit and a finite number, and
    each also printed as a "workload metric value unit" line;
  * traced: the benchmark's span trace and the engine's own trace parse as
    JSON, timestamps never go backwards, and begin/end events balance on
    every (pid, tid) lane.

Run through `benchmark/run.sh --smoke`, which builds the binary first.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

SMOKE_SECONDS = "0.2"


def trace_problems(path: Path) -> list[str]:
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        return [f"{path.name}: {error}"]
    events = document.get("traceEvents") if isinstance(document, dict) else None
    if not isinstance(events, list):
        return [f"{path.name}: no traceEvents array"]
    problems = []
    stacks: dict[tuple, list] = {}
    last_ts = -math.inf
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase not in ("B", "E"):
            problems.append(f"{path.name}: event {index} has phase {phase!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < last_ts:
            problems.append(f"{path.name}: event {index} timestamp {ts!r} goes backwards")
        else:
            last_ts = ts
        lane = (event.get("pid"), event.get("tid"))
        if phase == "B":
            stacks.setdefault(lane, []).append(event.get("name"))
        elif not stacks.get(lane):
            problems.append(f"{path.name}: event {index} ends a span never begun on lane {lane}")
        else:
            stacks[lane].pop()
    for lane, open_spans in stacks.items():
        if open_spans:
            problems.append(f"{path.name}: lane {lane} leaves {open_spans} open")
    return problems


def run_problems(binary: Path, out: Path, workload: str, traced: bool,
                 expected: dict[str, str]) -> list[str]:
    command = [str(binary), "--workload", workload, "--seed", "1", "--seconds", SMOKE_SECONDS,
               "--trace", "1" if traced else "0", "--smoke", "--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    where = f"{workload} trace={int(traced)}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        return [f"{where}: last line is not JSON: {lines[-1][:200]}"]
    problems = []
    if sorted(summary) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: summary keys {sorted(summary)}")
    if summary.get("correct") is not True or summary.get("failed") != 0 \
            or not isinstance(summary.get("attempted"), int) or summary["attempted"] < 1:
        problems.append(f"{where}: correct={summary.get('correct')} "
                        f"attempted={summary.get('attempted')} failed={summary.get('failed')}")
    metrics = summary.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"{where}: metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"{where}: metric {name} is not named in BENCHMARK.json")
    printed = {tuple(line.split()[1:4:2]) for line in lines[:-1] if line.startswith(workload + " ")}
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r}, "
                            f"BENCHMARK.json says {expected[name]!r}")
        if (name, metric.get("unit")) not in printed:
            problems.append(f"{where}: {name} missing from the printed lines")
    if traced:
        stem = out / f"{workload}-seed1-trace"
        problems += trace_problems(Path(f"{stem}.spans.json"))
        problems += trace_problems(Path(f"{stem}.engine-trace.json"))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(args.benchmark.read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (False, True):
            found = run_problems(args.binary, args.out, workload, traced, expected[traced])
            print(f"{workload:<15} trace={int(traced)}  {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print("  " + problem)
    print(f"smoke: {'FAILED' if problems else 'ok'} in {time.monotonic() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
