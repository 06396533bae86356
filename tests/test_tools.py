"""The repository's own tools: tools/code_lines.py's counting rule."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# the lines marked 'code' count, and so do the two lines of the string
# that is not a docstring, which cannot carry the mark
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment line


class Thing:  # code
    """Class docstring."""

    size = (  # code
        1,  # code
        2,  # code
    )  # code

    def method(self):  # code
        """Method docstring,
        also over two lines.
        """
        text = """a string that is
not a docstring"""
        return text  # code


async def coroutine():  # code
    """Coroutine docstring."""
    return 1  # code


def undocumented():  # code
    return "a one-line string"  # code
'''


def test_code_lines_counts_code_and_each_line_of_a_multi_line_statement():
    marked = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert code_lines.code_lines(FIXTURE) == marked + 2
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 10, 18, 19, 20, 27}


def test_code_lines_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    count = code_lines.code_lines(FIXTURE)
    assert proc.stdout.splitlines() == [
        f"{count:6d}  {tmp_path / 'a.py'}", f"{4:6d}  {tmp_path / 'sub' / 'b.py'}", f"{count + 4:6d}  total",
    ]
