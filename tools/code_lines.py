"""Print the code lines of each module of src/ncalg, and their total.

A code line holds at least one token that is neither a comment nor part of
a docstring (module, class or function), so blank lines, comments and
docstrings do not count; a statement spread over several lines counts each
of them. Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    root = Path(__file__).resolve().parents[1] / "src" / "ncalg"
    counts = {p.stem: code_lines(p.read_text()) for p in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{name:<12} {n:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
