import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expected", [
    ("01_neuron_dynamics.py", ["leaky (leak 0.5)       .....|..........",
                               "non-leaky              ...|.|.......|..",
                               "learned leak (~0.88)   ...|.|.......|..",
                               "gain 2.2 on drive      ..|..|......|..|"]),
    ("02_event_binning.py", ["8 events",
                             "the two t~400 events in the same cell produced one spike"]),
    ("03_gradient_check.py", ["overall: pass (tolerance 0.001)"]),
    ("04_train_compare.py", ["cached-aia           8148     1142     9290"]),
    ("05_merge_gains.py", ["max readout deviation after folding: 0.000e+00"]),
], ids=["01_neuron_dynamics", "02_event_binning", "03_gradient_check", "04_train_compare",
        "05_merge_gains"])
def test_demo_runs(demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for line in expected:
        assert line in done.stdout
