"""Count total lines and code lines per Python module of a package directory.

    python scripts/count_lines.py [DIR]        (default: src/fedsim)

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function body).
Blank lines, comment-only lines and docstring lines count toward the total
only, so the code count cannot shrink by deleting comments.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join("src", "fedsim")
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    if not names:
        print(f"error: no .py files in {root}", file=sys.stderr)
        return 1
    total = code = 0
    print(f"{'module':<20} {'total':>6} {'code':>6}")
    for name in names:
        with open(os.path.join(root, name), encoding="utf-8") as f:
            t, c = count(f.read())
        total += t
        code += c
        print(f"{name:<20} {t:>6} {c:>6}")
    print(f"{'total':<20} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
