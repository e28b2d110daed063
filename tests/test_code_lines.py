"""The code-line counter skips blanks, comments and docstrings only."""

from code_lines import SOURCE, code_lines

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
X = ("a string that is not a docstring, "
     "over two lines")   # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """a string
        that is returned"""
'''


def test_a_sample_counts_its_code_lines():
    # X (2 lines), class A, def f, the returned string (2 lines)
    assert code_lines(SAMPLE) == 6


def test_every_module_has_code():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert all(code_lines(path.read_text(encoding="utf-8")) > 0
               for path in modules)
