"""tools/src_lines.py counts each line once as code, docstring, comment or blank."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import src_lines  # noqa: E402

FIXTURE = '''"""A module docstring.

Its blank line above counts as docstring.
"""

# a comment-only line
width = 1  # a code line ending in a comment
total = max(
    width,
    2,
)
"a string statement that is not a docstring"
'''


def test_counts_a_fixture_of_every_kind(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert src_lines.count(path) == {"code": 6, "docstring": 4, "comment": 1, "blank": 1}
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["12", "6", "4", "1", "1", "total"]
