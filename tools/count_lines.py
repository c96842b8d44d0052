"""Count the code lines of Python files.

Usage: python tools/count_lines.py PATH...

A code line is a line that holds at least one token other than a comment,
a docstring (of a module, a class or a function) or whitespace.  Blank
lines, comment lines and docstring lines do not count; every line that a
multi-line statement or a non-docstring string spans does.  A PATH may be
a file or a directory, whose ``*.py`` files are counted recursively.
Prints each file's count, then the total.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import tokenize
from pathlib import Path

# tokens that hold no code: comments, line ends, indentation, the encoding and the end marker
_BLANK = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstrings(tree):
    """The ``(line, column)`` where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                starts.add((node.body[0].lineno, node.body[0].col_offset))
    return starts


def count_lines(path) -> int:
    """The number of code lines in the Python file ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = _docstrings(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _BLANK or (tok.type == tokenize.STRING and tok.start in docs):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    """Each path that is a file, and the ``*.py`` files under each that is a directory, sorted."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="PATH")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = count_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
