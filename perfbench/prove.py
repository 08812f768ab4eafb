"""Repeat the benchmark over seeds, report each metric's spread, write the baseline.

    python3 perfbench/prove.py

Runs ``run.py`` untraced on seeds 0..9 for every workload in
``BENCHMARK.json``, with its run length, plus one traced run at seed 0. For
every end-to-end metric it prints the median, quartiles and quartile spread
(q3 - q1) / median next to a third of the metric's bound, the steadiness
target. Every raw value, the summary and the environment go to
``perfbench/baseline.json``. Exits 1 when a spread misses its target or an
operation failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    named = {line.split()[1]: float(line.split()[2]) for line in lines
             if line.startswith("metric ")}
    return {"seed": seed, "result": json.loads(lines[-1]), "named": named, "env": env}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"runs": runs, "summary": {}, "named_summary": {}}
        print(f"\n{workload}: {len(runs)} runs, seeds {SEEDS.start}..{SEEDS.stop - 1}")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'target':>8}")
        for name, bound in bounds.items():
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = s
            ok = s["spread"] < bound / 3
            steady = steady and ok
            print(f"  {name:<22} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {bound / 3:>8.4f} {'ok' if ok else 'WIDE'}")
            print("    by seed: " + " ".join(f"{r['result']['metrics'][name]['value']:.4g}"
                                            for r in runs))
        for name in runs[0]["named"]:
            entry["named_summary"][name] = summarize([r["named"][name] for r in runs])
        entry["trace"] = _run(workload, SEEDS.start, spec["run_seconds"], 1)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"  failed operations: {failed}")
        steady = steady and failed == 0
        report["workloads"][workload] = entry
        report["env"] = runs[-1]["env"]
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
