"""The code-line counter (tests/code_lines.py) on a short inline source."""

import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts


def f(a,
      b):
    """A function docstring."""
    # a comment alone counts nothing

    return a + b


class C:
    """A class docstring."""
    text = """a string that is no docstring
spans two lines"""
'''


def test_code_lines_of_an_inline_source():
    # import, def and its continuation, return, class, and the string's two lines
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0
