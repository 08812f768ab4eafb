"""Count the lines of ``src/`` as code, docstring, comment and blank.

    python tools/src_lines.py [paths ...]

Each line of every ``.py`` file under the given paths (default: ``src/``
next to this directory) is counted once, read with :mod:`tokenize`:

* docstring: inside a string that is a module's, class's or function's
  first statement, blank lines included;
* code: holding any other token, or inside a multi-line one, including a
  code line that ends in a comment;
* comment: no token but a comment;
* blank: nothing but whitespace.

Prints one line per file and a total line. It gates nothing.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
SKIP = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def count(path: Path) -> dict[str, int]:
    """The four counts of one source file."""
    with tokenize.open(path) as f:
        lines = f.read().splitlines()
    kind = {i: "blank" for i, line in enumerate(lines, 1) if not line.strip()}
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    # A docstring is a string statement that opens a file or follows the
    # ":" (and the indent) of a def or class header.
    opener = {tokenize.ENCODING, tokenize.INDENT}
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    for before, tok, after in zip(significant, significant[1:], significant[2:]):
        if (tok.type == tokenize.STRING and after.type == tokenize.NEWLINE
                and (before.type in opener or before.string == ":")):
            for i in range(tok.start[0], tok.end[0] + 1):
                kind[i] = "docstring"
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
    for tok in tokens:
        if tok.type not in SKIP and tok.type != tokenize.COMMENT:
            for i in range(tok.start[0], tok.end[0] + 1):
                if kind.get(i) != "docstring":
                    kind[i] = "code"
    counts = dict.fromkeys(KINDS, 0)
    for i in range(1, len(lines) + 1):
        counts[kind.get(i, "code")] += 1
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [ROOT / "src"]
    files = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'lines':>6} {'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}  file")
    for path in files:
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{sum(counts.values()):>6} {counts['code']:>6} {counts['docstring']:>6} "
              f"{counts['comment']:>7} {counts['blank']:>6}  {path}")
    print(f"{sum(total.values()):>6} {total['code']:>6} {total['docstring']:>6} "
          f"{total['comment']:>7} {total['blank']:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
