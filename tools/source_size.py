"""The lines of each src/courant_lab module and of all of them, split into
code, docstring, comment and blank lines.

A docstring line is one of a module's, class's or function's docstring (ast),
blank lines inside it included.  A comment line is one whose first token is a
comment (tokenize); a line of code with a trailing comment is code.  A blank
line outside a docstring is blank, and every other line is code.

    python tools/source_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "courant_lab"
KINDS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict:
    """The number of lines of each kind in the module source text."""
    lines = text.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comment = {row for kind, _, (row, col), _, _ in tokens
               if kind == tokenize.COMMENT and not lines[row - 1][:col].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        kind = ("docstring" if number in docstring else "comment" if number in comment
                else "blank" if not line.strip() else "code")
        counts[kind] += 1
    return counts


def main() -> None:
    rows = [(path.name, split(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {k: sum(counts[k] for _, counts in rows) for k in KINDS}))
    print(f"{'module':<24}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, counts in rows:
        print(f"{name:<24}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))


if __name__ == "__main__":
    main()
