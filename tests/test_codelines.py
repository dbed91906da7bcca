"""tools/codelines.py, the code-line count: docstrings, comments and
blank lines aside, every line of a statement counts."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(a,
      b):
    """One line."""
    text = """a string
that is no docstring"""
    return os.path.join(a,
                        b, text)


class C:
    """A class docstring."""
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import; def over 2 lines; the string over 2; return over 2; class.
    assert codelines.code_lines(SAMPLE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
