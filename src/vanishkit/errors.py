"""Exception types shared across the package."""

from __future__ import annotations

from typing import Iterable

import numpy as np


class VanishkitError(Exception):
    """Base class for all vanishkit-specific failures."""


class InvalidArgument(VanishkitError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class QuadratureError(VanishkitError):
    """Quadrature refinement failed to reach the requested tolerance.

    The residual attribute holds the last refinement delta actually observed.
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _refine(levels: Iterable, tol: float, what: str) -> tuple:
    """The value of the first level that agrees with the one before it to
    tol, and that difference.

    ``levels`` yields (estimate, value) pairs, finer and finer, each built
    only when asked for; two agree when max |estimate - previous| <= tol.
    If none does, QuadratureError names the ``what`` quadrature and carries
    the last difference as its residual.
    """
    prev, delta = None, np.inf
    for estimate, value in levels:
        if prev is not None:
            delta = float(np.max(np.abs(estimate - prev)))
            if delta <= tol:
                return value, delta
        prev = estimate
    raise QuadratureError(f"{what} quadrature did not converge", delta)


class TruncationTailError(VanishkitError):
    """A truncated series carries a tail bound too large for the request."""

    def __init__(self, message: str, tail_bound: float) -> None:
        super().__init__(f"{message} (tail bound {tail_bound:.3e})")
        self.tail_bound = tail_bound


class UnknownExample(VanishkitError, KeyError):
    """The example catalog has no entry under the requested name."""


class HypothesesNotSatisfied(VanishkitError):
    """A translated-block input failed validation; the report explains why."""

    def __init__(self, report) -> None:  # noqa: ANN001 - report typed in constructions
        super().__init__(f"block-sum hypotheses not satisfied: {report.summary()}")
        self.report = report
