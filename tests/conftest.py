import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crmkit
from crmkit import BaseMeasure, LevyContext, ParameterPath, make_family
from crmkit.piecewise import Piece, PiecewiseFunction

# modules that cost import time and that crmkit loads only on first use
# (scipy.stats never); "scipy" itself loads with any of its submodules, so
# its absence means that no scipy module loaded at all
HEAVY_MODULES = ("mpmath", "scipy", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.stats")


@pytest.fixture
def fresh_interpreter():
    """Run code in a new interpreter on this checkout's crmkit and return its
    last line of output, read as a Python literal.

    A new interpreter, because pytest's ``filterwarnings`` setting imports
    ``scipy.integrate`` into this one, and the tests import ``scipy.special``.
    """
    src = Path(crmkit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}

    def run(code: str):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return ast.literal_eval(out.stdout.splitlines()[-1])

    return run


@pytest.fixture
def heavy_modules_after(fresh_interpreter):
    """Run code in a new interpreter and return the sorted names of
    ``HEAVY_MODULES`` loaded after it."""

    def run(code: str) -> list[str]:
        return fresh_interpreter(
            f"{code}\nimport sys\nprint(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
        )

    return run


@pytest.fixture
def crmkit_modules_after(fresh_interpreter):
    """Run code in a new interpreter and return the sorted names of crmkit's
    submodules loaded after it."""

    def run(code: str) -> list[str]:
        return fresh_interpreter(
            f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('crmkit.')))"
        )

    return run


@pytest.fixture
def gamma_const_ctx():
    """Constant eta=(2, 3) with base 1.5 * Lebesgue, weight = jump size."""
    return LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.5),
        k=2,
    )


@pytest.fixture
def gamma_unit_ctx():
    """Constant eta=(2, 3) with unit Lebesgue base, weight = jump size."""
    return LevyContext.build(
        make_family("gamma"),
        ParameterPath.constant([2.0, 3.0]),
        BaseMeasure.lebesgue(1.0),
        k=2,
    )


@pytest.fixture
def pareto_linear_ctx():
    """Shape alpha(z) = z (so eta = -(z+1)), unit base; fails closure checks."""
    path = ParameterPath(
        [PiecewiseFunction([Piece(0.0, math.inf, "affine", c0=-1.0, c1=-1.0)])]
    )
    return LevyContext.build(
        make_family("pareto", scale=1.0),
        path,
        BaseMeasure.lebesgue(1.0),
        k=1,
        require_conditions=False,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)


# (c0, c1, d0, d1, lo, hi): one ratio piece per shape of the closed-form
# mass, labelled by x0 = L h / K (see Piece._ratio_terms and Piece.locate)
RATIO_BRANCHES = {
    "K=0": (2.0, 2.0, 1.0, 1.0, 0.0, 2.0),
    "L=0": (1.0, 0.0, 0.0, 3.0, 0.25, 1.0),
    "x0>0": (3.0, 1.0, 1.0, 1.0, 0.0, 1.0),
    "-1<x0<0": (1.0, 1.0, 4.0, -1.0, 0.0, 2.0),
    "x0<-1": (1.0, 1.0, 3.0, 1.0, 0.0, 1.0),
    "x0=-1, density 0 at lo": (-1.0, 1.0, 1.0, 1.0, 1.0, 2.0),
    "x0=-8.9e3": (1.0, 1.0, 1.0 + 1.0 / 8.9e3, 1.0, 0.0, 1.2),
    "x0=-8.9e3, mass 2.4e3": (2e3, 2e3, 1.0 + 1.0 / 8.9e3, 1.0, 0.0, 1.2),
    "negative denominator": (-1.0, -2.0, -1.0, -0.5, 0.0, 1.5),
}


def pytest_generate_tests(metafunc):
    """Run a test taking ``ratio_branch`` once per labelled ratio piece, as (name, piece)."""
    if "ratio_branch" in metafunc.fixturenames:
        names = sorted(RATIO_BRANCHES)
        cases = []
        for name in names:
            c0, c1, d0, d1, lo, hi = RATIO_BRANCHES[name]
            cases.append((name, Piece(lo, hi, "ratio", c0=c0, c1=c1, d0=d0, d1=d1)))
        metafunc.parametrize("ratio_branch", cases, ids=names)
