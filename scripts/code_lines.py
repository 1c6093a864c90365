#!/usr/bin/env python3
"""Count the code lines of Python files.

    python scripts/code_lines.py PATH...

A line is a code line when it holds a token other than a comment, a
docstring (the string that opens a module, class or function body) or
whitespace; a line inside a multi-line token that is not a docstring counts.
Each PATH is a Python file or a directory, searched for *.py files.  Prints
the count and the path of each file, in the order of the arguments (a
directory's files sorted), and then their total.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of each docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _python_files(path: str) -> list:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(root, name) for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv: list) -> int:
    if not argv:
        print("usage: python scripts/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in argv:
        for name in _python_files(path):
            with open(name, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
