"""Count the code lines of each module of ``src/shadowkit``.

A code line is a line that holds part of a token other than a comment, a
line break, an indent or a dedent, and that is not part of a docstring
(the string that opens a module, class or function body).  Run it from
anywhere as ``python3 tools/code_lines.py``; it prints one
``<module> <lines>`` line per module, then the total.
"""

import ast
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "shadowkit"

#: token kinds that carry no code
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree):
    """(line, column) of the first token of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    source = path.read_bytes()
    docs = docstring_starts(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in NON_CODE:
                continue
            if tok.type == tokenize.STRING and tok.start in docs:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
