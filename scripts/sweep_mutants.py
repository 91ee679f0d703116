"""Operator mutation sweep: every operator mutant of a module must fail Tier-1.

    python scripts/sweep_mutants.py MODULE...

For each MODULE of `src/delpezzo` (e.g. `klt`), the script parses the
module with `ast` and makes one mutant per site, each a one-token edit of
the source:
- a comparison swapped with its partner: `<`/`<=`, `>`/`>=`, `==`/`!=`;
- an arithmetic operator swapped with its partner, in an expression or an
  augmented assignment: `+`/`-`, `*`/`//`; and `%` turned into `//`;
- an integer literal plus 1.
Sites inside f-strings are left alone: they only shape messages.

Each mutant runs, with `-x`, against the module's test file
(`tests/test_MODULE.py`, or the file `TEST_FILES` names), and each mutant
that survives it runs against the whole of Tier-1.  A failing or
uncollectable test kills a mutant, and so does a run past its time limit
(a mutant that loops).  A mutant that survives Tier-1 must be listed in
`scripts/equivalent_mutants.json` as reviewed equivalent: an object with
the module, the source line before and after the edit (stripped), and a
one-line reason.  The script exits 1 on any survivor the list does not
hold, and on any entry of a swept module that names no surviving mutant.
It copies `src/`, `tests/`, `scripts/` and `pyproject.toml` into a
temporary directory and edits the copy only.  It is not part of Tier-1:
the four modules `klt`, `topology`, `serialize` and `weights` take about
10 minutes on a 2-core host.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = ROOT / "scripts" / "equivalent_mutants.json"
TEST_FILES = {"serialize": "tests/test_cli.py"}  # the codec's tests sit with the CLI's
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
}
MODULE_TIMEOUT = 60  # s; the slowest module file passes in about 6
TIER1_TIMEOUT = 300  # s; Tier-1 passes in about 40


@dataclass(frozen=True)
class Mutant:
    module: str
    lineno: int
    line: str  # the source line, stripped
    mutant: str  # the same line after the edit, stripped
    source: str  # the whole mutated module


def _offsets(source: str) -> list[int]:
    """The offset in `source` of the start of each line, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _edits(tree: ast.AST, source: str):
    """(start, end, replacement) for each site, as offsets into `source`."""
    at = _offsets(source)

    def pos(line, col):
        # ast columns are UTF-8 byte offsets
        text = source[at[line]:at[line + 1]]
        return at[line] + len(text.encode()[:col].decode())

    def operator(before: ast.AST, after: ast.AST, op: ast.AST, suffix: str = ""):
        """The edit of the operator token between two nodes: outside a comment,
        between brackets and spaces only."""
        lo, hi = pos(before.end_lineno, before.end_col_offset), pos(after.lineno, after.col_offset)
        symbol = SYMBOLS[type(op)] + suffix
        gap = source[lo:hi]
        code = "\n".join(line.partition("#")[0] for line in gap.split("\n"))
        if "".join(code.split()).strip("()\\") != symbol:
            raise ValueError(f"line {before.end_lineno}: no lone {symbol!r} in {gap!r}")
        start = lo + code.index(symbol)
        return start, start + len(symbol), SYMBOLS[SWAPS[type(op)]] + suffix

    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.JoinedStr):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in SWAPS:
                    yield operator(left, right, op)
                left = right
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield operator(node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield operator(node.target, node.value, node.op, "=")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield (pos(node.lineno, node.col_offset), pos(node.end_lineno, node.end_col_offset),
                   str(node.value + 1))


def mutants(module: str, source: str) -> list[Mutant]:
    """One mutant of the module's source per site, in source order."""
    at = _offsets(source)
    out = []
    for start, end, new in sorted(_edits(ast.parse(source), source)):
        mutated = source[:start] + new + source[end:]
        lineno = next(n for n in range(1, len(at) - 1) if at[n + 1] > start)
        line = source[at[lineno]:at[lineno + 1]]
        edited = line[:start - at[lineno]] + new + line[end - at[lineno]:]
        ast.parse(mutated)  # each edit keeps the module valid Python
        out.append(Mutant(module, lineno, line.strip(), edited.strip(), mutated))
    return out


def _pytest(tmp: Path, args: list[str], timeout: int) -> str:
    """'survived', 'killed' (a test failed, or the tests could not be
    collected: the mutant breaks an import) or 'timeout' for one pytest run
    in the copy; 'pytest exit N' for any other outcome."""
    env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *args], cwd=tmp, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode, f"pytest exit {proc.returncode}")


def sweep(module: str, tmp: Path) -> list[Mutant]:
    """The mutants of a module that survive Tier-1, each printed with its outcome."""
    target = tmp / "src" / "delpezzo" / f"{module}.py"
    original = target.read_text()
    tests = TEST_FILES.get(module, f"tests/test_{module}.py")
    if _pytest(tmp, [tests], MODULE_TIMEOUT) != "survived":
        raise RuntimeError(f"{tests} does not pass on the unmutated checkout")
    survivors = []
    try:
        for m in mutants(module, original):
            target.write_text(m.source)
            outcome = _pytest(tmp, [tests], MODULE_TIMEOUT)
            if outcome == "survived":
                outcome = _pytest(tmp, ["tests"], TIER1_TIMEOUT)
                if outcome == "survived":
                    survivors.append(m)
                outcome += " by Tier-1"
            if outcome.startswith("pytest exit"):
                raise RuntimeError(f"{module}.py:{m.lineno} {m.mutant}: {outcome}")
            print(f"{module}.py:{m.lineno}: {m.line!r} -> {m.mutant!r}: {outcome}", flush=True)
    finally:
        target.write_text(original)
    return survivors


def main(modules: list[str]) -> int:
    if not modules:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    listed = {(e["module"], e["line"], e["mutant"]) for e in json.loads(EQUIVALENT.read_text())}
    found = set()
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "scripts"):  # Tier-1 runs scripts too
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for module in modules:
            found.update((m.module, m.line, m.mutant) for m in sweep(module, Path(tmp)))
    unlisted = sorted(found - listed)
    stale = sorted(k for k in listed - found if k[0] in modules)
    for module, line, mutant in unlisted:
        print(f"unlisted survivor: {module}: {line!r} -> {mutant!r}")
    for module, line, mutant in stale:
        print(f"listed, but no surviving mutant: {module}: {line!r} -> {mutant!r}")
    print(f"{len(found)} survivors, {len(found) - len(unlisted)} listed as equivalent")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
