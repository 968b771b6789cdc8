"""Count code lines under ``src/`` and the net change against a git revision.

A code line is a line holding a Python token other than a comment; blank
lines, comment-only lines and docstring lines do not count.  Usage::

    python benchmarks/src_lines.py            # working tree only
    python benchmarks/src_lines.py <rev>      # <rev>, working tree, net

The working tree is read from disk; the revision from ``git show``.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of *source* holding code, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def count_tree() -> int:
    return sum(code_lines(p.read_text()) for p in (ROOT / "src").rglob("*.py"))


def count_rev(rev: str) -> int:
    paths = _git("ls-tree", "-r", "--name-only", rev, "src").split()
    return sum(code_lines(_git("show", f"{rev}:{p}")) for p in paths
               if p.endswith(".py"))


def main(argv: list) -> int:
    now = count_tree()
    if not argv:
        print(f"src/ code lines: {now}")
        return 0
    before = count_rev(argv[0])
    print(f"src/ code lines: {before} at {argv[0]}, {now} now, net {now - before:+d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
