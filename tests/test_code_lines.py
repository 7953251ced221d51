"""The rule of ``code_lines.py`` on a fixed snippet."""

from code_lines import code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

# A comment.
import math  # A trailing comment.


def f(x):
    """Function docstring."""
    s = """a string over two lines,
    not a docstring"""
    return math.sqrt(x) + len(s)


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''


def test_counts_non_blank_lines_outside_comments_and_docstrings():
    # import, def, the two lines of s, return, class, y.
    assert code_lines(SNIPPET) == 7
