"""Count the code lines of each module of ``src/shadowkit``.

A code line is a line that holds part of a token other than a comment, a
line break, an indent or a dedent, and that is not part of a docstring
(the string that opens a module, class or function body).  A function's
code lines are those of its span, decorators and nested functions
included; the functions are the module's own and its classes' methods.
Run it from anywhere as ``python3 tools/code_lines.py``; it prints one
``<module> <lines> <longest function> <its lines>`` line per module, with
``- 0`` for a module without functions, then the total.
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


def code_lines(path, tree):
    """The numbers of the code lines of the module at ``path``."""
    docs = docstring_starts(tree)
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in NON_CODE:
                continue
            if tok.type == tokenize.STRING and tok.start in docs:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def functions(tree):
    """``(name, first line, last line)`` of the module's functions and of
    its classes' methods, methods named ``Class.method``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = ([(f"{node.name}.", n) for n in node.body]
                   if isinstance(node, ast.ClassDef) else [("", node)])
        for prefix, fn in members:
            if isinstance(fn, defs):
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                yield prefix + fn.name, first, fn.end_lineno


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_bytes())
        lines = code_lines(path, tree)
        # the first in the file among functions of equal length
        longest = max(((len(lines.intersection(range(first, last + 1))), name)
                       for name, first, last in functions(tree)),
                      key=lambda pair: pair[0], default=(0, "-"))
        total += len(lines)
        print(f"{path.name} {len(lines)} {longest[1]} {longest[0]}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
