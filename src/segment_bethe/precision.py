"""Switchable scalar backend: complex128 or mpmath extended precision.

The formula layer (kernels, eigenvalues, determinant formulas) is written in
plain arithmetic, so the same code runs on ``complex`` and on ``mpmath.mpc``
scalars.  Feeding it ``mpc`` scalars is not enough for extended precision:
mpmath computes at its global working precision, 15 digits unless changed.
Every extended entry point therefore lifts its inputs (:func:`lift_problem`,
:func:`lift_roots`) and evaluates inside :func:`working_precision`, which
sets ``DEFAULT_DPS = 60`` digits.  Operator matrices always stay in double
precision; only the scalar formulas suffer catastrophic cancellation near
coinciding root sets, and only they get the extended path.
"""

from __future__ import annotations

from contextlib import nullcontext

import mpmath

from .errors import ParameterError
from .params import BoundaryParams, ChainSpec

DEFAULT_DPS = 60

PRECISIONS = ("double", "extended")


def validate_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ParameterError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


def lift(z, precision: str = "extended"):
    """Lift one scalar into the requested backend (exact for doubles)."""
    if precision == "double":
        return complex(z)
    return mpmath.mpc(complex(z))


def lift_roots(roots, precision: str = "extended"):
    return tuple(lift(r, precision) for r in roots)


def lift_problem(cs: ChainSpec, bp: BoundaryParams, precision: str = "extended"):
    """Chain and boundary data with all scalars lifted."""
    if precision == "double":
        return cs, bp
    cs2 = ChainSpec(cs.sites, tuple(mpmath.mpc(complex(t)) for t in cs.thetas))
    bp2 = BoundaryParams(
        mpmath.mpc(complex(bp.p)),
        mpmath.mpc(complex(bp.q)),
        mpmath.mpc(complex(bp.xi_plus)),
        mpmath.mpc(complex(bp.xi_minus)),
    )
    return cs2, bp2


def workdps(dps: int = DEFAULT_DPS):
    """Context manager setting the mpmath working precision."""
    return mpmath.workdps(dps)


def working_precision(precision: str, dps: int = DEFAULT_DPS):
    """``workdps(dps)`` for ``extended``; a no-op context for ``double``."""
    return workdps(dps) if precision == "extended" else nullcontext()
