"""Print the file lines and code lines of each module under src/, and their total.

Code lines are the lines that carry a token other than a comment, a newline
or an indent; the lines of module, class and function docstrings are left
out (`tokenize` finds the tokens, `ast` the docstrings).

    python tools/src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_file = total_code = 0
    for path in sorted(root.rglob("*.py")):
        n_file, n_code = len(path.read_text().splitlines()), code_lines(path)
        total_file += n_file
        total_code += n_code
        print(f"{path.relative_to(root)}  {n_file}  {n_code}")
    print(f"total  {total_file}  {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
