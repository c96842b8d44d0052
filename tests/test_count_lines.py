"""``tools/count_lines.py`` counts the lines that hold code, not comments, docstrings or blanks."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a comment after code


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,

        over three lines.
        """
        text = """not a docstring,
        so all three
        lines count"""
        return len(text)


async def fetch():
    \'\'\'Async function docstring.\'\'\'
    return (
        1,
    )


def bare():
    "one-line docstring"


def first_not_a_string():
    x = 1
    "a string after code is not a docstring"
    return x
'''

# import; class; def area; the three string lines; return; async def; return ( 1, );
# def bare; def first_not_a_string; x = 1; the later string; return x
CODE_LINES = 1 + 1 + 1 + 3 + 1 + 1 + 3 + 1 + 1 + 1 + 1 + 1


def test_synthetic_file(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    cmd = [sys.executable, "tools/count_lines.py", str(path), str(sub)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{CODE_LINES:6d} {path}",
        f"{0:6d} {sub / 'empty.py'}",
        f"{CODE_LINES:6d} total",
    ]
