"""The outputs no GEMM touches match tests/golden/digests.json.

``tools/golden.py --check`` compares every output of the usual command set,
in the environment the record was written in. These tests recompute the
part that BLAS cannot change, in any environment: the datasets ``train``
builds from both configs (spikes, labels, class count, skipped samples and
the loader's warnings), the ``bin_events`` frames of tests/data/events and
the stdout, stderr and exit code of each bad config.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402

RECORD = json.loads(golden.RECORD.read_text(encoding="utf-8"))
POISSON_DRAWS = {f"dataset-toy/{split}.{part}" for split in ("train", "test")
                 for part in ("data", "labels")}


@pytest.fixture(scope="module")
def blas_free(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(ROOT)  # the configs name their inputs relative to the repository root
    try:
        recorder = golden.Recorder(tmp_path_factory.mktemp("golden"))
        recorder.blas_free()
    finally:
        os.chdir(cwd)
    return recorder


def _mismatches(got: dict, section: str) -> list[str]:
    want = RECORD[section]
    return [key for key in got if want.get(key) != got[key]]


def test_blas_free_outputs_match_the_record(blas_free):
    digests = {k: v for k, v in blas_free.sha256.items() if k not in POISSON_DRAWS}
    assert {"dataset-events/train.data", "dataset-events/train.labels",
            "dataset-events/counts", "dataset-events/warnings",
            "bin-events/frames", "bad-unknown-key/stderr"} <= digests.keys()
    assert len(blas_free.exit) == len(golden.BAD_CONFIGS)
    assert _mismatches(blas_free.exit, "exit") == []
    assert _mismatches(digests, "sha256") == []


@pytest.mark.skipif(np.__version__ != RECORD["env"]["numpy"],
                    reason="the Poisson tensors hold draws from numpy's random Generator, "
                           "whose streams may change between numpy versions; the record "
                           f"was written with numpy {RECORD['env']['numpy']}")
def test_poisson_tensors_match_the_record(blas_free):
    digests = {k: blas_free.sha256[k] for k in POISSON_DRAWS}
    assert _mismatches(digests, "sha256") == []


def test_the_pinned_kernel_needs_x86_64_with_avx2(tmp_path):
    # tools/golden.py exits 3 before forcing OPENBLAS_CORETYPE on any other host.
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse2 avx avx2 fma\n", encoding="utf-8")
    assert golden.runs_blas_core("x86_64", str(cpuinfo))
    assert golden.runs_blas_core("AMD64", str(cpuinfo))
    assert not golden.runs_blas_core("aarch64", str(cpuinfo))
    assert not golden.runs_blas_core("x86_64", str(tmp_path / "missing"))
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse2 avx avx2x avx512f\n", encoding="utf-8")
    assert not golden.runs_blas_core("x86_64", str(cpuinfo))
    assert RECORD["env"]["blas_core"] == golden.BLAS_CORE
