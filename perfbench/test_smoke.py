"""Tiny-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at ``--size tiny`` for a fraction of a second, traced
and untraced, and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import eventgen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "toy_cli", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_generator_is_seeded_and_mixed(tmp_path):
    _, first = eventgen.generate(tmp_path / "a", seed=5, n_files=20, mean_events=200)
    _, again = eventgen.generate(tmp_path / "b", seed=5, n_files=20, mean_events=200)
    assert [f.path.read_bytes() for f in first] == [f.path.read_bytes() for f in again]
    kinds = [f.kind for f in first]
    assert {k: kinds.count(k) / len(kinds) for k in eventgen.FILE_MIX} == eventgen.FILE_MIX
    for f in first:
        lines = f.path.read_text().splitlines()[1:]
        assert len(lines) == f.events + f.injected
        assert f.injected < 0.01 * len(lines)


def test_reference_binning_places_events_by_hand():
    f = eventgen.EventFile(path=Path("x.csv"), label=0, kind="clean",
                           t=np.array([100, 150, 200]), x=np.array([0, 5, 7]),
                           y=np.array([0, 3, 1]), p=np.array([0, 1, 0]), injected=0)
    frame = eventgen.reference_frame(f, grid_w=4, grid_h=2, timesteps=4)
    # extent 8 x 4 on a 4 x 2 grid: scale 2 in both axes; span 100 over 4 bins
    assert frame.shape == (16, 4)
    assert sorted(zip(*np.nonzero(frame))) == [(0, 0), (3, 3), (8 + 1 * 4 + 2, 2)]
