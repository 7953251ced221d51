"""The rule of ``code_lines.py`` on a fixed snippet, and the package's
ceiling."""

from code_lines import PACKAGE, code_lines

#: Most code lines that ``src/projlind`` may hold (ROADMAP item 13).
CEILING = 937

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


def test_package_stays_within_the_ceiling():
    total = sum(code_lines(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py"))
    assert total <= CEILING
