"""Rational exchange kernels and eigenvalue building blocks.

Single-letter names follow the conventional labelling of the exchange-relation
coefficients; all of them are plain rational functions of one or two spectral
parameters.  Every function is written in terms of ``+ - * /`` only, so the
same code path runs on ``complex`` and on the extended-precision
:class:`~segment_bethe.precision.DecimalComplex` scalars.

Denominators are guarded: an evaluation within ``POLE_TOL`` of a pole raises
:class:`~segment_bethe.errors.PoleError` naming the kernel, so parameter sweeps
can redraw instead of silently blowing up.  The kernels also run elementwise
on numpy arrays (complex, or ``object`` arrays of either scalar type); an
array raises if any of its entries is within ``POLE_TOL`` of a pole.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np

from .errors import PoleError
from .precision import DecimalComplex

POLE_TOL = 1e-9

# A decimal part at least this large puts the denominator at least POLE_TOL
# from the pole in double precision too (rounding to double is monotone).
_POLE_TOL_PART = Decimal(POLE_TOL)

__all__ = [
    "POLE_TOL",
    "f",
    "g",
    "w",
    "h",
    "k",
    "n",
    "x",
    "s",
    "q",
    "r",
    "y",
    "phi",
    "tilde_phi",
    "Q",
    "F",
    "fhq",
    "pair_numerators",
    "f_product",
    "h_product",
    "Q_product",
]


def _guard(name, point, *denominators):
    # The distance to the pole is only compared with POLE_TOL, so it is taken
    # in double precision: for extended-precision scalars that is two float
    # conversions instead of an extended-precision square root, and none at
    # all when one exact part already clears the tolerance.
    for d in denominators:
        if type(d) is complex:
            a = abs(d)
        elif type(d) is DecimalComplex and (
            d.real.copy_abs() >= _POLE_TOL_PART
            or d.imag.copy_abs() >= _POLE_TOL_PART
        ):
            continue
        elif isinstance(d, np.ndarray):
            if d.dtype == object:
                _guard(name, point, *d.ravel().tolist())
                continue
            a = float(np.minimum.reduce(np.abs(d), axis=None, initial=math.inf))
        else:
            a = abs(complex(d))
        if a < POLE_TOL:
            raise PoleError(name, point, a)


def f(u, v):
    _guard("f", (u, v), u - v, u + v + 1)
    return (u - v - 1) * (u + v) / ((u - v) * (u + v + 1))


def g(u, v):
    _guard("g", (u, v), 2 * v + 1, u - v)
    return 2 * v / ((2 * v + 1) * (u - v))


def w(u, v):
    _guard("w", (u, v), u + v + 1)
    return -1 / (u + v + 1)


def h(u, v):
    _guard("h", (u, v), u - v, u + v + 1)
    return (u - v + 1) * (u + v + 2) / ((u - v) * (u + v + 1))


def k(u, v):
    _guard("k", (u, v), u - v, 2 * u + 1)
    return -2 * (u + 1) / ((u - v) * (2 * u + 1))


def n(u, v):
    _guard("n", (u, v), u + v + 1, 2 * v + 1, 2 * u + 1)
    return 4 * v * (u + 1) / ((u + v + 1) * (2 * v + 1) * (2 * u + 1))


def x(u, v):
    _guard("x", (u, v), 2 * u + 1, u + v + 1, u - v)
    return 2 * u * (u - v + 1) / ((2 * u + 1) * (u + v + 1) * (u - v))


def s(u, v):
    _guard("s", (u, v), 2 * u + 1, 2 * v + 1, u - v)
    return -2 * u / ((2 * u + 1) * (2 * v + 1) * (u - v))


def q(u, v):
    _guard("q", (u, v), u + v + 1, u - v)
    return (u + v) / ((u + v + 1) * (u - v))


def r(u, v):
    _guard("r", (u, v), 2 * u + 1, u - v)
    return -2 * u / ((2 * u + 1) * (u - v))


def y(u, v):
    _guard("y", (u, v), u + v + 1, 2 * v + 1)
    return -1 / ((u + v + 1) * (2 * v + 1))


def phi(u):
    """2(u+1)/(2u+1); the reflected value phi(-u-1) = 2u/(2u+1)."""
    two = 2 * u + 1
    _guard("phi", u, two)
    return 2 * (u + 1) / two


def tilde_phi(u, p):
    plus, minus = p + u, p - u - 1
    _guard("tilde_phi", u, plus, minus)
    return (u + 1) * (2 * u + 1) / (plus * minus)


def Q(u, v):
    """(u-v)(u+v+1); symmetric under u -> -u-1 and v -> -v-1 up to sign."""
    return (u - v) * (u + v + 1)


def F(u, v):
    """Coupling of the unwanted terms in the off-shell transfer action."""
    _guard("F", (u, v), v + 1, u - v, u + v + 1)
    return -(u + 1) * (2 * v + 1) / ((v + 1) * Q(u, v))


def pair_numerators(u, v):
    """``(fn, hn, Q(u, v))`` with ``f = fn / Q`` and ``h = hn / Q``, under the
    pole guard of ``f``; ``u - v`` and ``u + v`` are formed once."""
    diff, total = u - v, u + v
    total1 = total + 1
    _guard("f", (u, v), diff, total1)
    return (diff - 1) * total, (diff + 1) * (total + 2), diff * total1


def fhq(u, v):
    """``(f(u, v), h(u, v), Q(u, v))`` sharing one ``Q`` and one pole guard."""
    fn, hn, qq = pair_numerators(u, v)
    return fn / qq, hn / qq, qq


# Kernels with their derivatives, for the per-root tables of ``bethe``.


def phi_and_derivative(u):
    """``(phi(u), phi'(u))`` sharing ``2u+1`` and one pole guard."""
    two = 2 * u + 1
    _guard("phi", u, two)
    return 2 * (u + 1) / two, -2 / (two * two)


def tilde_phi_and_derivative(u, p):
    """``(tilde_phi(u, p), d/du tilde_phi(u, p))`` from one numerator,
    denominator and pole guard."""
    plus, minus = p + u, p - u - 1
    _guard("tilde_phi", u, plus, minus)
    two = 2 * u + 1
    num = (u + 1) * two
    den = plus * minus
    d_num = 4 * u + 3
    return num / den, (d_num * den - num * -two) / (den * den)


# Trace coefficients of the transfer matrix in the plain and modified bases.
# ``bp`` is a BoundaryParams instance; only q, xi_plus/xi_minus and rho enter.


def alpha(u, bp):
    return phi(u) * (bp.q + u)


def delta(u, bp):
    return bp.q - (u + 1)


def beta(u, bp):
    return bp.xi_minus * (u + 1)


def gamma(u, bp):
    return bp.xi_plus * (u + 1)


def alpha_bar(u, bp):
    return phi(u) * (bp.q + u * (1 - bp.rho))


def delta_bar(u, bp):
    return bp.q - (1 + u) * (1 - bp.rho)


# Products over root sets.


def f_product(u, others):
    out = 1
    for v in others:
        out = out * f(u, v)
    return out


def h_product(u, others):
    out = 1
    for v in others:
        out = out * h(u, v)
    return out


def Q_product(u, others):
    out = 1
    for v in others:
        out = out * Q(u, v)
    return out
