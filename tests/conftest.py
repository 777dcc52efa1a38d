"""Shared fixtures: default parameter sets and captured CLI invocations."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qfrac import QParams


@pytest.fixture
def p_half() -> QParams:
    return QParams(0.5)


@pytest.fixture
def p_third() -> QParams:
    return QParams(0.3)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    from qfrac.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1.0)


def chain_wobble(q: float):
    """1 + 0.5 (-1)**k at s = q**k: along a chain of 1 the term ratios
    alternate, so no geometric tail settles and sums take the small-term stop."""
    return lambda s: 1.0 + 0.5 * (-1.0) ** round(math.log(s) / math.log(q))
