"""Count the code lines of ``src/paprsim`` and the names in ``paprsim.__all__``.

A code line is a line that holds part of a token other than a comment, a
docstring or a line break, so docstrings, comments and blank lines are
left out. Prints each module's count, the total and ``len(__all__)``.

Usage: python tools/src_size.py [source directory]
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paprsim"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def all_names(src: Path) -> int:
    """len(__all__) of the package's ``__init__.py``, read without importing it."""
    tree = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"no __all__ in {src / '__init__.py'}")


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<18}{count:>6}")
    print(f"{'total':<18}{total:>6}")
    print(f"{'__all__':<18}{all_names(src):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
