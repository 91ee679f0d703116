"""Count the code lines of the package, per module and in total.

    python scripts/code_lines.py [DIR]

A code line is a physical line that holds at least one token other than a
comment or a docstring.  Blank lines, comment lines and the lines of a
docstring (a string that is a whole statement) do not count; a line that
closes a bracket opened on a code line does.  DIR defaults to the
checkout's `src/delpezzo`, `__init__.py` included.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, t in enumerate(tokens):
        statement = k == 0 or tokens[k - 1].type in _LAYOUT
        docstring = t.type == tokenize.STRING and statement and tokens[k + 1].type in _LAYOUT
        if t.type not in _LAYOUT and not docstring:
            lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "delpezzo"
    counts = {p.stem: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<12} {n:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
