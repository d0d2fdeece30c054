"""Boundary couplings, chain data and the random draws used by the checks.

Parameters are immutable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import getcontext

import numpy as np

from .errors import ParameterError

# Rejection thresholds for degenerate parameter combinations.
RHO_ONE_TOL = 1e-8
GENERIC_TOL = 1e-9

# Spectral points are drawn uniformly from the disc |u| <= SPECTRAL_RADIUS
# and kept at least CLEARANCE away from every pole locus; inhomogeneities
# from |theta| <= THETA_RADIUS, so |theta_i +- theta_j| < 1 (is_generic).
SPECTRAL_RADIUS = 2.0
CLEARANCE = 1e-3
THETA_RADIUS = 0.4


def _sqrt(z):
    """Principal square root of a double or an extended-precision scalar."""
    if isinstance(z, (complex, float, int)):
        return cmath.sqrt(z)
    return z.sqrt()


@dataclass(frozen=True)
class BoundaryParams:
    """Left/right boundary couplings.

    ``p`` sits at the diagonal (right) end, ``q`` with the off-diagonal
    couplings ``xi_plus``/``xi_minus`` at the left end.  Either both ``xi``
    vanish (diagonal mode) or neither does.

    ``rho`` is memoised per instance and per decimal context precision, so
    couplings lifted to extended precision give a ``rho`` accurate to
    whatever precision is in force when it is read.  The memo and
    ``diagonal_mode``, set once at construction, are not fields: they take
    no part in equality, hashing or ``repr``.
    """

    p: complex
    q: complex
    xi_plus: complex = 0j
    xi_minus: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "_rho_memo", {})
        has_plus = self.xi_plus != 0
        has_minus = self.xi_minus != 0
        if has_plus != has_minus:
            raise ParameterError(
                "off-diagonal couplings must both vanish or both be nonzero"
            )
        object.__setattr__(self, "diagonal_mode", not has_plus)
        if has_plus and abs(self.rho - 1) <= RHO_ONE_TOL:
            # xi_plus*xi_minus = -1 makes the similarity transform singular.
            raise ParameterError("couplings give rho too close to 1")
        if has_plus and abs(self.xi_plus * self.xi_minus + self.rho**2) < 1e-12:
            # det Q = 2 rho (rho - 1): tiny couplings round rho to 0.
            raise ParameterError("similarity transform is singular for these couplings")

    @property
    def rho(self):
        """Root of rho^2 - 2 rho = xi_plus*xi_minus on the principal branch."""
        memo = self._rho_memo
        prec = getcontext().prec
        if prec not in memo:
            memo[prec] = 1 - _sqrt(1 + self.xi_plus * self.xi_minus)
        return memo[prec]


@dataclass(frozen=True)
class ChainSpec:
    """Number of sites and the inhomogeneity attached to each site."""

    sites: int
    thetas: tuple

    def __post_init__(self):
        if self.sites < 1:
            raise ParameterError("need at least one site")
        if len(self.thetas) != self.sites:
            raise ParameterError("one inhomogeneity per site required")

    @classmethod
    def homogeneous(cls, sites: int) -> "ChainSpec":
        return cls(sites, (0j,) * sites)

    @property
    def is_homogeneous(self) -> bool:
        return all(t == 0 for t in self.thetas)

    def is_generic(self) -> bool:
        """No ``theta_i +- theta_j`` within ``GENERIC_TOL`` of -1, 0 or 1 for
        i < j, nor ``2 theta_i`` of -1 or 1: the spectrum degenerates there."""
        ts = self.thetas
        for i, a in enumerate(ts):
            gaps = [2 * a - 1, 2 * a + 1]
            for b in ts[i + 1 :]:
                gaps += [a + s * b + k for s in (1, -1) for k in (-1, 0, 1)]
            if min(map(abs, gaps)) < GENERIC_TOL:
                return False
        return True


def _uniform_disc(rng: np.random.Generator, radius: float) -> complex:
    # rng.random() and 2 pi rng.random() are rng.uniform() and
    # rng.uniform(0, 2 pi) bit for bit, at a third of the cost.
    r = radius * math.sqrt(rng.random())
    phase = 2 * math.pi * rng.random()
    return complex(r * math.cos(phase), r * math.sin(phase))


def _annulus(rng: np.random.Generator, rmin: float, rmax: float) -> complex:
    r = rng.uniform(rmin, rmax)
    phase = rng.uniform(0.0, 2 * np.pi)
    return complex(r * np.cos(phase), r * np.sin(phase))


def draw_boundary_params(rng: np.random.Generator) -> BoundaryParams:
    """Draw boundary couplings away from every degenerate combination."""
    while True:
        p = complex(rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5))
        q = complex(rng.uniform(1.0, 3.0), rng.uniform(-0.5, 0.5))
        xi_plus = _annulus(rng, 0.2, 1.5)
        xi_minus = _annulus(rng, 0.2, 1.5)
        try:
            bp = BoundaryParams(p, q, xi_plus, xi_minus)
        except ParameterError:
            continue
        if abs(bp.rho) < 1e-3:
            continue  # keeps xi^2/rho coefficients tame
        return bp


def draw_chain_spec(rng: np.random.Generator, sites: int) -> ChainSpec:
    """Generic inhomogeneities in the disc ``|theta| <= THETA_RADIUS``,
    ``CLEARANCE`` apart from 0 and from +-each other."""
    thetas: list[complex] = []
    while len(thetas) < sites:
        cand = _uniform_disc(rng, THETA_RADIUS)
        gaps = [abs(cand + s * t) for t in thetas for s in (1, -1)]
        if min([abs(cand)] + gaps) >= CLEARANCE:
            thetas.append(cand)
    return ChainSpec(sites, tuple(thetas))


def draw_spectral_point(
    rng: np.random.Generator,
    avoid: tuple = (),
    cs: ChainSpec | None = None,
    bp: BoundaryParams | None = None,
) -> complex:
    """One spectral parameter keeping clear of kernel poles.

    Rejection is against ``2u+1 = 0``, against ``u - a`` and ``u + a + 1``
    for every ``a`` in ``avoid``, and against the parameter-dependent pole
    loci of the dressed/inhomogeneous eigenvalue terms.
    """
    for _ in range(10_000):
        u = _uniform_disc(rng, SPECTRAL_RADIUS)
        if abs(2 * u + 1) < CLEARANCE:
            continue
        if any(
            abs(u - a) < CLEARANCE or abs(u + a + 1) < CLEARANCE for a in avoid
        ):
            continue
        if cs is not None and any(
            min(abs(u - t), abs(u + t), abs(u + 1 - t), abs(u + 1 + t))
            < CLEARANCE
            for t in cs.thetas
        ):
            continue
        if bp is not None:
            if abs(u + bp.p) < CLEARANCE or abs(bp.p - u - 1) < CLEARANCE:
                continue
            if abs(u + bp.q) < CLEARANCE:
                continue
        return u
    raise ParameterError("could not draw a spectral point clear of poles")


def draw_spectral_points(
    rng: np.random.Generator,
    count: int,
    avoid: tuple = (),
    cs: ChainSpec | None = None,
    bp: BoundaryParams | None = None,
) -> list[complex]:
    points: list[complex] = []
    while len(points) < count:
        u = draw_spectral_point(
            rng,
            avoid=tuple(avoid) + tuple(points),
            cs=cs,
            bp=bp,
        )
        points.append(u)
    return points
