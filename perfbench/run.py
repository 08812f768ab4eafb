"""spikekit benchmark: five seeded workloads, measured from outside the program.

Run one workload::

    python3 perfbench/run.py --workload wide_train --seed 0 --seconds 15 --trace 0

or all of them, with a summary table of every named metric::

    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced tasks and reports the per-layer metrics of
the traced ones plus the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every output
check passed. The program is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # pin BLAS to one thread before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 11    # fresh interpreters timed per run for setup_s
MIN_TASKS = 3        # timed tasks per run, however short --seconds is
MIN_TRACED = 2

# The metric names and units come from BENCHMARK.json, the one place they
# are declared. A per-layer name ending in .s, .self_s or .calls is read
# from the span named by the rest.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def layout_error() -> str | None:
    for needed in ("src/spikekit/__init__.py", "configs/toy_poisson.json",
                   "configs/gradcheck_wide.json"):
        if not (ROOT / needed).is_file():
            return f"{ROOT / needed} not found: run from a spikekit checkout"
    return None


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
    }


def _make_workload(args):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](ROOT, args.seed, args.size)


def _setup_seconds(args) -> float:
    """Time from starting a fresh interpreter to the end of its set-up."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1]) - started


class Tally:
    """Attempted and failed operations, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, out) -> None:
        self.attempted += out.ops
        failing = {message.split(":", 1)[0] for message in out.failures}
        self.failed += min(out.ops, len(failing))
        for message in out.failures:
            print(f"check failed: {message}", file=sys.stderr)

    def run(self, wl, obs=None):
        """One task; an exception counts as one failed operation."""
        gc.collect()  # so no task pays for garbage an earlier one left
        try:
            out = wl.task(obs)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        self.add(out)
        return out


def _emit(tally: Tally, metrics: dict) -> int:
    correct = tally.failed == 0
    print(f"metric error_rate {tally.failed / max(tally.attempted, 1)!r} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def measure(args, wl, tally: Tally, work: Path) -> dict:
    """Untraced run: timed tasks with set-up probes among them, a memory pass.

    The probes are spread evenly over the run, so that their median, like
    the task times, samples the whole run and not one spell of host speed.
    A task's time is the sum of its phases, each at its median over the
    timed tasks: the host's speed swings both ways, and the fastest task
    of a run depends on whether a rare fast spell fell inside it.
    """
    wl.prepare(work)
    wl.setup()
    timed, setups = [], []
    started = time.perf_counter()
    while (len(timed) < MIN_TASKS or len(setups) < SETUP_PROBES
           or time.perf_counter() - started < args.seconds):
        if (len(setups) < SETUP_PROBES and
                len(setups) * args.seconds <= SETUP_PROBES * (time.perf_counter() - started)):
            setups.append(_setup_seconds(args))
            continue
        out = tally.run(wl)
        if out is not None:
            timed.append(out)
        elif time.perf_counter() - started >= args.seconds:
            break
    if not timed:
        raise RuntimeError("no task completed")
    seconds = sorted(out.seconds for out in timed)
    print(f"tasks {len(timed)} timed in {time.perf_counter() - started:.1f} s: "
          f"fastest {seconds[0]:.4f} s, median {statistics.median(seconds):.4f} s, "
          f"slowest {seconds[-1]:.4f} s")
    print(f"set-up probes {len(setups)}: fastest {min(setups):.4f} s, "
          f"median {statistics.median(setups):.4f} s, slowest {max(setups):.4f} s")
    tracemalloc.start()
    try:
        tally.run(wl)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    typical = {phase: statistics.median(out.phases[phase] for out in timed)
               for phase in timed[0].phases}
    for name, (value, unit) in wl.named(typical, peak_mb).items():
        print(f"metric {name} {value!r} {unit}")
    values = {
        "setup_s": statistics.median(setups),
        "task_s": sum(typical.values()),
        "throughput_per_s": wl.throughput(typical),
        "peak_mb": peak_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _layer_values(setup_tracer, tracer, traced: int) -> dict:
    """Per-layer figures of one set-up plus one average traced task."""
    setup, tasks = setup_tracer.figures(), tracer.figures()
    values = {name: setup.get(name, 0.0) + tasks.get(name, 0.0) / traced
              for name in PER_LAYER}
    values["bptt.tape_mb"] = max(setup.get("bptt.tape_mb", 0.0), tasks.get("bptt.tape_mb", 0.0))
    read = values["data.event_lines_read"]
    values["data.events_kept_pct"] = 100.0 * values["data.events_kept"] / read if read else 0.0
    values.update(tracer.layer_rates())
    return values


def trace(args, wl, tally: Tally, work: Path) -> dict:
    """Traced run: untraced and traced tasks alternate; per-layer metrics."""
    from spantrace import Tracer
    wl.prepare(work)
    setup_tracer, tracer = Tracer(), Tracer()
    with setup_tracer:
        wl.setup()
    tally.run(wl)  # warm-up
    plain, traced = [], []
    started = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - started < args.seconds:
        out = tally.run(wl)
        if out is not None:
            plain.append(out.seconds)
        with tracer:
            out = tally.run(wl, tracer)
        if out is not None:
            traced.append(out.seconds)
        if (not plain or not traced) and time.perf_counter() - started >= args.seconds:
            raise RuntimeError("no task completed")
    values = _layer_values(setup_tracer, tracer, len(traced))
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    print(f"tracing overhead: task_s {untraced_s:.4f} s untraced, {traced_s:.4f} s traced "
          f"({values['trace.overhead_pct']:+.1f}%), {len(traced)} traced tasks")
    for name, value in values.items():
        print(f"layer {name} {value!r} {PER_LAYER[name]}")
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def run_one(args) -> int:
    wl = _make_workload(args)
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        metrics = (trace if args.trace else measure)(args, wl, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _emit(tally, metrics)


def run_all(args) -> int:
    """Every workload in its own interpreter, then one summary table."""
    from workloads import WORKLOADS
    rows, status = [], 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        for line in done.stdout.splitlines():
            if line.startswith(("metric ", "layer ")):
                _, metric, value, unit = line.split()[:4]
                rows.append((name, metric, float(value), unit))
        if done.stdout.strip():
            result = json.loads(done.stdout.strip().splitlines()[-1])
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()
                     if not any(r[:2] == (name, metric) for r in rows)]
    print(f"\n{'workload':<14} {'metric':<34} {'value':>16}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<34} {value:>16.6g}  {unit}")
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the shapes for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    problem = layout_error()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _make_workload(args).setup()
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
