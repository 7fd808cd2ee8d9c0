#!/usr/bin/env python3
"""Count the code lines of the package's modules.

Usage (from the root of a checkout):

    python3 tools/code_lines.py [DIR]

A code line is a physical line that holds at least one token other than a
comment and is not part of a docstring (the first statement of a module,
class or function, when it is a string). Blank lines, comment lines and
docstrings do not count; a statement spread over several lines counts each
of them. Prints one ``<module> <count>`` line per ``.py`` file under DIR
(default ``src/mscdlra``), in name order, then ``total <count>``.
"""

import argparse
import ast
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the file ``path``."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", nargs="?", default=str(ROOT / "src" / "mscdlra"))
    args = ap.parse_args(argv)
    paths = sorted(pathlib.Path(args.dir).glob("*.py"))
    if not paths:
        sys.exit(f"error: no .py files in {args.dir}")
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(path.stem, count)
    print("total", total)


if __name__ == "__main__":
    main()
