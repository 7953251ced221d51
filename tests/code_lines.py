"""Code lines of each module of ``src/projlind`` and their total.

A code line is a non-blank line outside comments and docstrings: a line
that holds at least one token other than a comment, where the string that
opens a module, class or function body does not count. Run

    python tests/code_lines.py

from anywhere; it prints one line per module and the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "projlind"

#: Tokens that make no line a code line on their own.
_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.relative_to(ROOT).as_posix()}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
