"""tools/code_lines.py: code lines are the lines outside comments and docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 11 code lines: the docstrings of the module, the class and both functions,
# the comments and the blank lines do not count; the multi-line call, the
# string that is not a docstring and the line with a trailing comment do
FIXTURE = '''"""Module docstring.

Two paragraphs.
"""
# a comment
import os

X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """One line."""
        return os.path.join(
            "a",
            "b")


def g():
    """Spans
    two lines."""
    # an indented comment
    s = """not a
    docstring"""
    return s
'''


def test_code_lines_of_an_inline_module():
    assert code_lines.code_lines(FIXTURE) == 11


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1  a.py\n    11  b.py\n    12  total\n"
