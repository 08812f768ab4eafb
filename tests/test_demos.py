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
], ids=["01_neuron_dynamics", "02_event_binning"])
def test_demo_runs(demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    for line in expected:
        assert line in done.stdout
