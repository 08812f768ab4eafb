"""The package's public names and the benchmark's traced entry points exist.

``perfbench/spantrace.py`` wraps module attributes of the installed package
by name, so renaming one of them breaks ``perfbench/run.py --trace 1``.
The entry-point table is read from that file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

import spikekit

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"


def _entry_points():
    tree = ast.parse(SPANTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            table = ast.literal_eval(node.value)
            return sorted({place for places in table.values() for place in places})
    raise AssertionError(f"no ENTRY_POINTS table in {SPANTRACE}")


def test_every_exported_name_resolves():
    missing = [name for name in spikekit.__all__ if not hasattr(spikekit, name)]
    assert missing == []


def test_every_traced_entry_point_exists():
    missing = []
    for owner, attr in _entry_points():
        module, _, cls = owner.partition(".")
        target = importlib.import_module(f"spikekit.{module}")
        if cls:
            target = getattr(target, cls)
        if not callable(getattr(target, attr, None)):
            missing.append(f"spikekit.{owner}.{attr}")
    assert missing == []
