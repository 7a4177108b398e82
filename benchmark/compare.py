#!/usr/bin/env python3
"""Compare benchmark result sets by the rules in benchmark/README.md.

  compare.py PARENT_DIR CHANGE_DIR   parent vs change, runs paired by (workload, seed)
  compare.py --spread DIR            one commit's runs: median, quartiles, spread
  compare.py --self-test             check the rules on generated fixture sets

A result set is a directory of the <workload>-seed<n>.json files that
katric_benchmark writes (benchmark/out/ by default); traced runs are
ignored. Bounds, units and directions come from BENCHMARK.json.

Per (metric, workload), parent vs change:
  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither side), and the medians differ by more than the
              parent's interquartile range; void when the change has more
              failed operations than the parent
  regression  host metrics: the change's median is worse than the parent's
              by more than the metric's bound (as a share of the parent's
              median); exact metrics (sim_*): the change is worse on any
              pair at all, since a seed gives the same value on every run
  unresolved  not a regression, but the parent's own spread (IQR / median)
              exceeds the bound, and not every change run beats every
              parent run
  ok          none of the above
Two sets with no seed in common (two full run sets of one commit, say) are
compared by their medians alone: regression and unresolved only, and exact
metrics too get their bound, which covers how they vary across seeds.
Two runs of one commit with the same (workload, seed) that differ in an
exact metric are an error: those metrics are deterministic.

Exit status: 0 clean, 1 regression / error / spread over a bound, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_BENCHMARK = HERE.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark(path: Path) -> dict:
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory: Path) -> list[dict]:
    """Untraced result files of one directory."""
    runs = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith((".spans.json", ".engine-trace.json")):
            continue
        run = json.loads(path.read_text())
        if run.get("trace") or "metrics" not in run or "workload" not in run:
            continue
        run["_path"] = str(path)
        runs.append(run)
    return runs


def is_exact(name: str) -> bool:
    return name.startswith("sim_")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def exact_errors(runs: list[dict]) -> list[str]:
    """Same commit, same (workload, seed), different exact metric."""
    errors = []
    seen: dict[tuple, dict] = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        if key in seen:
            first = seen[key]
            for name, metric in run["metrics"].items():
                if is_exact(name) and name in first["metrics"] \
                        and metric["value"] != first["metrics"][name]["value"]:
                    errors.append(f"{run['workload']} seed {run['seed']}: exact metric {name} "
                                  f"differs between {first['_path']} and {run['_path']}")
        else:
            seen[key] = run
    return errors


def by_seed(runs: list[dict], workload: str, metric: str) -> dict[int, float]:
    """One value per seed (repeats of a seed: the first)."""
    values: dict[int, float] = {}
    for run in runs:
        if run["workload"] == workload and metric in run["metrics"]:
            values.setdefault(run["seed"], run["metrics"][metric]["value"])
    return values


def failed_ops(runs: list[dict], workload: str) -> int:
    return sum(run["failed"] for run in runs if run["workload"] == workload)


def judge(parent: dict[int, float], change: dict[int, float], direction: str, bound: float,
          more_failures: bool, exact: bool = False) -> dict:
    """Status of one (metric, workload). Runs pair by seed; two sets with no
    seed in common are compared by their medians alone and claim no gain.
    A paired exact metric regresses when any pair got worse."""
    seeds = sorted(set(parent) & set(change))
    p_values = [parent[s] for s in seeds] if seeds else list(parent.values())
    c_values = [change[s] for s in seeds] if seeds else list(change.values())
    pq1, pm, pq3 = quartiles(p_values)
    cq1, cm, cq3 = quartiles(c_values)
    wins = sum(better(change[s], parent[s], direction) for s in seeds)
    losses = sum(better(parent[s], change[s], direction) for s in seeds)
    worse_by = 0.0 if pm == 0 else ((cm - pm) if direction == "lower" else (pm - cm)) / abs(pm)
    spread = 0.0 if pm == 0 else (pq3 - pq1) / abs(pm)
    dominates = all(better(c, p, direction) for c in c_values for p in p_values)
    gain = (bool(seeds) and wins >= WIN_SHARE * len(seeds) and better(cm, pm, direction)
            and abs(cm - pm) > pq3 - pq1)
    if exact and seeds and losses > 0:
        status = f"regression (worse on {losses}/{len(seeds)} pairs)"
    elif worse_by > bound:
        status = "regression"
    elif spread > bound and not dominates:
        status = "unresolved"
    elif gain and len(seeds) < MIN_PAIRS:
        status = "ok (too few pairs to claim a gain)"
    elif gain:
        status = "gain (void: more failed ops)" if more_failures else "gain"
    else:
        status = "ok"
    return {"pairs": len(seeds), "n": (len(p_values), len(c_values)),
            "parent": (pq1, pm, pq3), "change": (cq1, cm, cq3), "wins": wins,
            "worse_by": worse_by, "spread": spread, "status": status}


def compare(parent_runs: list[dict], change_runs: list[dict],
            metrics: dict) -> tuple[list, list]:
    errors = exact_errors(parent_runs) + exact_errors(change_runs)
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs}
                       & {r["workload"] for r in change_runs})
    for workload in workloads:
        more_failures = failed_ops(change_runs, workload) > failed_ops(parent_runs, workload)
        for name, spec in metrics.items():
            parent = by_seed(parent_runs, workload, name)
            change = by_seed(change_runs, workload, name)
            if not parent or not change:
                errors.append(f"{workload}: {name} missing on one side")
                continue
            row = judge(parent, change, spec["better"], spec["bound"], more_failures,
                        exact=is_exact(name))
            row.update(workload=workload, metric=name, unit=spec["unit"], bound=spec["bound"])
            rows.append(row)
    return rows, errors


def spread_rows(runs: list[dict], metrics: dict) -> list[dict]:
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        for name, spec in metrics.items():
            values = list(by_seed(runs, workload, name).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = 0.0 if median == 0 else (q3 - q1) / abs(median)
            rows.append({"workload": workload, "metric": name, "n": len(values),
                         "quartiles": (q1, median, q3), "spread": spread,
                         "bound": spec["bound"], "unit": spec["unit"]})
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':<15} {'metric':<22} {'n':>5} {'parent median':>14} "
          f"{'change median':>14} {'worse by':>9} {'spread':>7} {'bound':>6} {'wins':>5}  status")
    for r in rows:
        n = f"{r['n'][0]}/{r['n'][1]}"
        wins = f"{r['wins']}/{r['pairs']}" if r["pairs"] else "unpaired"
        print(f"{r['workload']:<15} {r['metric']:<22} {n:>5} {r['parent'][1]:>14.6g} "
              f"{r['change'][1]:>14.6g} {r['worse_by']:>+9.2%} {r['spread']:>7.2%} "
              f"{r['bound']:>6.0%} {wins:>5}  {r['status']}")


def print_spread(rows: list[dict]) -> None:
    print(f"{'workload':<15} {'metric':<22} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for r in rows:
        verdict = ("within a third of the bound" if r["spread"] <= r["bound"] / 3
                   else "within the bound" if r["spread"] <= r["bound"] else "OVER THE BOUND")
        q1, median, q3 = r["quartiles"]
        print(f"{r['workload']:<15} {r['metric']:<22} {r['n']:>3} {q1:>12.6g} {median:>12.6g} "
              f"{q3:>12.6g} {r['spread']:>7.2%} {r['bound']:>6.0%}  {verdict}")


# --- self-test ---------------------------------------------------------------

FIXTURE_METRICS = {
    "latency_p50_s": {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.08},
    "throughput_ops_per_s": {"name": "throughput_ops_per_s", "unit": "1/s",
                             "better": "higher", "bound": 0.08},
    "sim_time_s": {"name": "sim_time_s", "unit": "s", "better": "lower", "bound": 0.05},
}


def write_fixture(directory: Path, workload: str, seed: int, latency: float,
                  throughput: float, sim: float, failed: int = 0, tag: str = "") -> None:
    directory.mkdir(parents=True, exist_ok=True)
    run = {"workload": workload, "seed": seed, "trace": False, "correct": failed == 0,
           "attempted": 100, "failed": failed,
           "metrics": {"latency_p50_s": {"value": latency, "unit": "s"},
                       "throughput_ops_per_s": {"value": throughput, "unit": "1/s"},
                       "sim_time_s": {"value": sim, "unit": "s"}}}
    (directory / f"{workload}-seed{seed}{tag}.json").write_text(json.dumps(run))


def fixture_set(directory: Path, seeds: int, scale: float = 1.0, noise: float = 0.01,
                failed: int = 0, first_seed: int = 1, sim_scale: dict | None = None) -> None:
    """Seeds first_seed.. with latency 0.1 * scale (± noise) and an exact
    sim_time_s that depends on the seed alone, times sim_scale[seed]."""
    for seed in range(first_seed, first_seed + seeds):
        wobble = 1.0 + noise * ((seed * 7) % 5 - 2) / 2  # deterministic, within ±noise
        sim = (0.002 + seed * 1e-6) * (sim_scale or {}).get(seed, 1.0)
        write_fixture(directory, "w", seed, 0.1 * scale * wobble, 10.0 / (scale * wobble), sim,
                      failed=failed)


def self_test() -> int:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def status_of(parent: Path, change: Path, metric: str) -> str:
            rows, errors = compare(load_runs(parent), load_runs(change), FIXTURE_METRICS)
            if errors:
                return "error"
            return next(r["status"] for r in rows if r["metric"] == metric)

        fixture_set(root / "base", 10)
        fixture_set(root / "same", 10)
        cases.append(("identical code", status_of(root / "base", root / "same",
                                                  "latency_p50_s"), "ok"))
        fixture_set(root / "faster", 10, scale=0.8)
        cases.append(("20% faster on every pair", status_of(root / "base", root / "faster",
                                                            "latency_p50_s"), "gain"))
        cases.append(("throughput up 25%", status_of(root / "base", root / "faster",
                                                     "throughput_ops_per_s"), "gain"))
        fixture_set(root / "slower", 10, scale=1.2)
        cases.append(("20% slower", status_of(root / "base", root / "slower", "latency_p50_s"),
                      "regression"))
        fixture_set(root / "few", 5, scale=0.8)
        cases.append(("gain on 5 pairs only", status_of(root / "base", root / "few",
                                                        "latency_p50_s"),
                      "ok (too few pairs to claim a gain)"))
        fixture_set(root / "noisy", 10, noise=0.5)
        fixture_set(root / "noisy-change", 10, scale=1.01, noise=0.5)
        cases.append(("parent spread over the bound",
                      status_of(root / "noisy", root / "noisy-change", "latency_p50_s"),
                      "unresolved"))
        fixture_set(root / "failing", 10, scale=0.8, failed=3)
        cases.append(("gain with more failed ops", status_of(root / "base", root / "failing",
                                                             "latency_p50_s"),
                      "gain (void: more failed ops)"))
        fixture_set(root / "repeat", 10)
        write_fixture(root / "repeat", "w", 3, 0.1, 10.0, 0.5, tag="-again")
        cases.append(("exact metric differs on a repeated seed",
                      status_of(root / "repeat", root / "same", "latency_p50_s"), "error"))
        fixture_set(root / "sim-worse", 10, sim_scale={4: 1.01})
        cases.append(("exact metric 1% worse on one pair, bound 5%",
                      status_of(root / "base", root / "sim-worse", "sim_time_s"),
                      "regression (worse on 1/10 pairs)"))
        fixture_set(root / "sim-better", 10, sim_scale={s: 0.99 for s in range(1, 11)})
        cases.append(("exact metric 1% better on every pair",
                      status_of(root / "base", root / "sim-better", "sim_time_s"), "gain"))
        fixture_set(root / "other-seeds", 10, first_seed=11)
        cases.append(("exact metric 0.5% worse across unpaired seeds, bound 5%",
                      status_of(root / "base", root / "other-seeds", "sim_time_s"), "ok"))
        spread = spread_rows(load_runs(root / "noisy"), FIXTURE_METRICS)
        noisy_latency = next(r for r in spread if r["metric"] == "latency_p50_s")
        cases.append(("spread of a noisy set exceeds the bound",
                      "over" if noisy_latency["spread"] > noisy_latency["bound"] else "within",
                      "over"))

    failures = 0
    for name, got, expected in cases:
        ok = got == expected
        failures += not ok
        note = "" if ok else f" (expected {expected})"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}{note}")
    print(f"self-test: {len(cases) - failures}/{len(cases)} cases passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path)
    parser.add_argument("--spread", action="store_true", help="summarize one result set")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--benchmark", type=Path, default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    metrics = load_benchmark(args.benchmark)
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one result directory")
        runs = load_runs(args.dirs[0])
        rows = spread_rows(runs, metrics)
        print_spread(rows)
        errors = exact_errors(runs)
        for error in errors:
            print("ERROR:", error)
        over = [r for r in rows if r["spread"] > r["bound"]]
        return 1 if errors or over else 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR (or --spread DIR, or --self-test)")
    rows, errors = compare(load_runs(args.dirs[0]), load_runs(args.dirs[1]), metrics)
    print_compare(rows)
    for error in errors:
        print("ERROR:", error)
    return 1 if errors or any(r["status"].startswith("regression") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
