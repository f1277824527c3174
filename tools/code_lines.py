"""Count the code lines of each parasplit module.

    python3 tools/code_lines.py [DIR]

Prints one line per ``*.py`` module in DIR (default ``src/parasplit``):
its code lines and all its lines, then the totals.  A code line holds at
least one token that is not a comment; blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function)
do not count.  A statement that spans several lines counts each of them.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one Python file."""
    source = path.read_text()
    docs = docstring_lines(source)
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/parasplit")
    code = total = 0
    for path in sorted(root.glob("*.py")):
        n_code, n_all = code_lines(path), len(path.read_text().splitlines())
        code, total = code + n_code, total + n_all
        print(f"{path.name:24s} {n_code:5d} {n_all:5d}")
    print(f"{'total':24s} {code:5d} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
