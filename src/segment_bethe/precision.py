"""Switchable scalar backend: complex128 or 60-digit decimal complex numbers.

The formula layer (kernels, eigenvalues, determinant formulas) is written in
plain arithmetic, so the same code runs on ``complex`` and on
:class:`DecimalComplex` scalars, whose parts are ``decimal.Decimal`` numbers
(the standard library's C ``libmpdec``).  Decimal arithmetic rounds to the
digits of the current decimal context, 28 unless changed, so every extended
entry point lifts its inputs (:func:`lift_problem`, :func:`lift_roots`) and
evaluates inside :func:`working_precision`, which carries the fixed
``DEFAULT_DPS = 60`` digits plus ``GUARD_DIGITS`` (other digits need the
caller's own ``decimal.localcontext``).  Operator matrices stay in double
precision; only the scalar formulas suffer catastrophic cancellation near
coinciding root sets, and only they get the extended path.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from decimal import Context, Decimal, localcontext

import numpy as np

from .errors import ParameterError
from .params import BoundaryParams, ChainSpec

DEFAULT_DPS = 60

# Digits carried beyond the requested ones: 62 at DEFAULT_DPS, at least the
# 203 bits (about 61.1 digits) that a 60-digit binary context carries.
GUARD_DIGITS = 2

PRECISIONS = ("double", "extended")

_ZERO = Decimal(0)
_HASH_MODULUS = 1 << sys.hash_info.width


def validate_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ParameterError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


class DecimalComplex:
    """Complex number with ``decimal.Decimal`` real and imaginary parts.

    Arithmetic rounds to the current decimal context.  Operands may be
    ``int``, ``float``, ``complex`` or ``Decimal`` on either side; they are
    converted exactly.  With a numpy array on either side the array's
    operator runs, elementwise, so ``object`` arrays of these numbers
    combine with them as the scalars do.  ``abs()`` returns a ``float``:
    the formula layer only uses magnitudes as pivots, scales and
    tolerances, in double.
    Division by an exact zero raises ``ZeroDivisionError``.  The parts are
    ``Decimal`` numbers; :func:`lift` builds one from any other scalar.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __repr__(self):
        return f"DecimalComplex({self.real!r}, {self.imag!r})"

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    def __abs__(self):
        return math.hypot(float(self.real), float(self.imag))

    def __neg__(self):
        return DecimalComplex(-self.real, -self.imag)

    # Each operator reads a DecimalComplex operand directly and sends every
    # other type through ``_parts``: the formula layer's operands are mostly
    # DecimalComplex, and a call per operand costs as much as the arithmetic.
    # An ``int`` operand (the formulas' constants) enters the Decimal
    # arithmetic directly, which converts it exactly, as ``_parts`` would.
    # An array operand is left to the array's reflected operator.

    def __add__(self, other):
        if type(other) is DecimalComplex:
            return DecimalComplex(self.real + other.real, self.imag + other.imag)
        if type(other) is int:
            return DecimalComplex(self.real + other, self.imag + _ZERO)
        if isinstance(other, np.ndarray):
            return NotImplemented
        c, d = _parts(other)
        return DecimalComplex(self.real + c, self.imag + d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is DecimalComplex:
            return DecimalComplex(self.real - other.real, self.imag - other.imag)
        if type(other) is int:
            return DecimalComplex(self.real - other, self.imag - _ZERO)
        if isinstance(other, np.ndarray):
            return NotImplemented
        c, d = _parts(other)
        return DecimalComplex(self.real - c, self.imag - d)

    def __rsub__(self, other):
        if type(other) is int:
            return DecimalComplex(other - self.real, _ZERO - self.imag)
        if isinstance(other, np.ndarray):
            return NotImplemented
        c, d = _parts(other)
        return DecimalComplex(c - self.real, d - self.imag)

    def __mul__(self, other):
        a, b = self.real, self.imag
        if type(other) is DecimalComplex:
            c, d = other.real, other.imag
        elif type(other) is int:
            return DecimalComplex(a * other, b * other)
        elif isinstance(other, np.ndarray):
            return NotImplemented
        else:
            c, d = _parts(other)
            if not d:
                return DecimalComplex(a * c, b * c)
        return DecimalComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is DecimalComplex:
            return _divide(self.real, self.imag, other.real, other.imag)
        if isinstance(other, np.ndarray):
            return NotImplemented
        c, d = _parts(other)
        return _divide(self.real, self.imag, c, d)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        a, b = _parts(other)
        return _divide(a, b, self.real, self.imag)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        out, base, k = DecimalComplex(Decimal(1), _ZERO), self, abs(exponent)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return 1 / out if exponent < 0 else out

    def __eq__(self, other):
        try:
            c, d = _parts(other)
        except TypeError:
            return NotImplemented
        return self.real == c and self.imag == d

    def __hash__(self):
        # Equal to hash(complex(...)) whenever the value is a double.
        h = (hash(self.real) + sys.hash_info.imag * hash(self.imag)) % _HASH_MODULUS
        if h >= _HASH_MODULUS >> 1:
            h -= _HASH_MODULUS
        return -2 if h == -1 else h

    def sqrt(self):
        """Principal square root, on the branch of ``cmath.sqrt``."""
        a, b = self.real, self.imag
        if not a and not b:
            return DecimalComplex(_ZERO, b)
        r = (a * a + b * b).sqrt()
        if a >= 0:
            t = ((r + a) / 2).sqrt()
            return DecimalComplex(t, b / (2 * t))
        t = ((r - a) / 2).sqrt()
        return DecimalComplex(abs(b) / (2 * t), t.copy_sign(b))


def _parts(z):
    """``(real, imag)`` of an operand as ``Decimal`` numbers, exactly."""
    if type(z) is DecimalComplex:
        return z.real, z.imag
    if isinstance(z, complex):
        return Decimal(z.real), Decimal(z.imag)
    if isinstance(z, (int, float, Decimal)):
        return Decimal(z), _ZERO
    raise TypeError(f"cannot combine DecimalComplex with {type(z).__name__}")


def _divide(a, b, c, d):
    """``(a + ib) / (c + id)``."""
    if not d:
        if not c:
            raise ZeroDivisionError("DecimalComplex division by zero")
        return DecimalComplex(a / c, b / c)
    den = c * c + d * d
    return DecimalComplex((a * c + b * d) / den, (b * c - a * d) / den)


def lift(z, precision: str = "extended"):
    """Lift one scalar into the requested backend (exact for doubles; a
    :class:`DecimalComplex` keeps its digits, rounded to the context)."""
    if precision == "double":
        return complex(z)
    if type(z) is DecimalComplex:
        return DecimalComplex(+z.real, +z.imag)
    return DecimalComplex(Decimal(complex(z).real), Decimal(complex(z).imag))


def lift_roots(roots, precision: str = "extended"):
    return tuple(lift(r, precision) for r in roots)


def lift_problem(cs: ChainSpec, bp: BoundaryParams, precision: str = "extended"):
    """Chain and boundary data with all scalars lifted."""
    if precision == "double":
        return cs, bp
    cs2 = ChainSpec(cs.sites, lift_roots(cs.thetas))
    bp2 = BoundaryParams(
        lift(bp.p), lift(bp.q), lift(bp.xi_plus), lift(bp.xi_minus)
    )
    return cs2, bp2


def workdps():
    """A fresh decimal context (default rounding and traps) of ``DEFAULT_DPS``,
    read at the call, plus ``GUARD_DIGITS`` digits; the caller's is restored
    on exit."""
    return localcontext(Context(prec=DEFAULT_DPS + GUARD_DIGITS))


def working_precision(precision: str):
    """``workdps()`` for ``extended``; a no-op context for ``double``."""
    return workdps() if precision == "extended" else nullcontext()
