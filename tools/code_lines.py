"""Print the code lines of the crmkit package, per module and in total.

A code line holds at least one token that is neither a comment nor part of a
module, class or function docstring.  A token that spans several lines, such
as a triple-quoted string that is not a docstring, counts every line it spans.

    python tools/code_lines.py [package directory, default src/crmkit]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> list[tuple]:
    """The (start, end) positions of every module, class and function docstring."""
    return [
        ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None
        for doc in node.body[:1]
    ]


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(lo <= tok.start and tok.end <= hi for lo, hi in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "crmkit")
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
