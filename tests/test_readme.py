"""The README's examples run as written.

The quick tour's ``python`` block is executed statement by statement; an
expression statement whose line ends in a comment must give that result:
its ``repr`` matches the comment, with ``...`` standing for any text, or
the comment is an expression of equal value.  Each ``json`` block is a
sample config that parses.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from crmkit.config import parse_sample_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_the_quick_tour_gives_its_commented_results():
    (block,) = _blocks("python")
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        _, hash_, comment = lines[node.end_lineno - 1].partition("#")
        if not hash_:
            continue
        comment = comment.strip()
        pattern = ".*".join(map(re.escape, comment.split("...")))
        if not re.fullmatch(pattern, repr(value)):
            assert value == pytest.approx(eval(comment, {"array": np.array})), comment
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("index", [0, 1])
def test_each_sample_config_example_parses(index):
    contexts, z_max = parse_sample_config(json.loads(_blocks("json")[index]))
    assert contexts and z_max > 0
