"""``tools/code_lines.py`` counts code lines by its rule: a line holding a token
that is neither a comment nor part of a module, class or function docstring."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,
        over two lines."""
        text = """a string that is no docstring
spans three lines
"""
        return math.pi


async def fetch():
    """Async function docstring."""
    "a second string is no docstring"
'''


def test_docstrings_and_comments_are_not_code_and_a_multi_line_token_counts_each_line(code_lines):
    # import, class, def, the three lines of text, return, async def, the second string
    assert code_lines(SNIPPET) == 9


def test_a_blank_or_comment_only_source_has_no_code_lines(code_lines):
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
