"""The extended-precision backend: ``DecimalComplex`` against mpmath.

mpmath is a test-only oracle here: the package itself runs without it, which
the last test checks in a fresh interpreter that cannot import it.
"""

import cmath
import decimal
import math
import operator
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest

import segment_bethe
from segment_bethe import kernels as kn
from segment_bethe import precision
from segment_bethe import scalar_products as sp
from segment_bethe.bethe import _newton, solve_bethe
from segment_bethe.errors import PoleError
from segment_bethe.params import draw_boundary_params, draw_chain_spec
from segment_bethe.precision import (
    DEFAULT_DPS,
    GUARD_DIGITS,
    DecimalComplex,
    lift,
    lift_problem,
    lift_roots,
    workdps,
)

# Agreement with mpmath at DEFAULT_DPS digits, relative to the result.
OP_TOL = 1e-58

OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _oracle(z):
    """``z`` as an mpmath number, exactly (call at a high mpmath precision)."""
    if isinstance(z, DecimalComplex):
        return mpmath.mpc(mpmath.mpf(str(z.real)), mpmath.mpf(str(z.imag)))
    if isinstance(z, Decimal):
        return mpmath.mpf(str(z))
    return mpmath.mpmathify(z)


def _random_operand(rng, kind):
    """One operand of the given type; extended ones carry all 62 digits."""
    z = complex(rng.normal(), rng.normal())
    if kind == "int":
        return int(rng.integers(1, 50)) * int(rng.choice([-1, 1]))
    if kind == "float":
        return z.real
    if kind == "complex":
        return z
    if kind == "numpy":
        return np.complex128(z)
    if kind == "decimal":
        return Decimal(z.real) / 7
    if kind == "lifted":
        return lift(z)
    return lift(z) / lift(complex(rng.normal(), rng.normal()) + 3)


KINDS = ["int", "float", "complex", "numpy", "decimal", "lifted", "extended"]


def _relative(got, ref):
    with mpmath.workdps(90):
        return float(abs(_oracle(got) - ref) / abs(ref))


def test_arithmetic_matches_mpmath_in_both_orders():
    rng = np.random.default_rng(11)
    pairs = 0
    with workdps():
        for _ in range(40):
            for kind in KINDS:
                x = _random_operand(rng, "extended")
                y = _random_operand(rng, kind)
                with mpmath.workdps(90):
                    mx, my = _oracle(x), _oracle(y)
                for op in OPERATORS:
                    for left, right, ml, mr in ((x, y, mx, my), (y, x, my, mx)):
                        got = op(left, right)
                        assert type(got) is DecimalComplex
                        with mpmath.workdps(DEFAULT_DPS):
                            ref = op(ml, mr)
                        assert _relative(got, ref) <= OP_TOL, (op, kind)
                        pairs += 1
    assert pairs >= 1000


def test_unary_power_abs_and_conversions_match_mpmath():
    rng = np.random.default_rng(12)
    with workdps():
        for _ in range(200):
            x = _random_operand(rng, "extended")
            with mpmath.workdps(90):
                mx = _oracle(x)
                assert _relative(-x, -mx) == 0
            for k in range(-3, 7):
                with mpmath.workdps(DEFAULT_DPS):
                    ref = mx**k
                assert _relative(x**k, ref) <= OP_TOL, k
            assert isinstance(abs(x), float)
            assert abs(abs(x) - float(abs(mx))) <= 4e-16 * abs(x)
            # Both conversions round each part correctly.
            assert complex(x) == complex(mx)


def test_sqrt_follows_the_cmath_branch():
    rng = np.random.default_rng(13)
    points = [complex(rng.normal(), rng.normal()) for _ in range(100)]
    # On and near the negative real axis, where the branch cut lies.
    for a in (0.1, 1.0, 4.0, 37.5):
        for b in (1e-1, 1e-8, 1e-20, 1e-40, 1e-300):
            points += [complex(-a, b), complex(-a, -b)]
    with workdps():
        for z in points:
            got = lift(z).sqrt()
            with mpmath.workdps(DEFAULT_DPS):
                ref = mpmath.sqrt(mpmath.mpc(z))
            assert _relative(got, ref) <= OP_TOL, z
            assert abs(complex(got) - cmath.sqrt(z)) <= 1e-15 * abs(z) ** 0.5
        # Signed zeros pick the side of the cut, as in cmath.
        for z in (complex(-4.0, 0.0), complex(-4.0, -0.0), 0j, complex(0.0, -0.0)):
            got = complex(lift(z).sqrt())
            assert got == cmath.sqrt(z)
            assert math.copysign(1, got.imag) == math.copysign(1, z.imag)


def test_lifting_is_exact(cs2, bp):
    rng = np.random.default_rng(14)
    for _ in range(100):
        z = complex(*rng.normal(size=2) * 10.0 ** rng.integers(-30, 30))
        lifted = lift(z)
        assert lifted.real == z.real and lifted.imag == z.imag
        assert lifted == z and complex(lifted) == z
        assert hash(lifted) == hash(z)
    assert lift(1.5) == 1.5 and hash(lift(1.5)) == hash(1.5)
    assert lift(3) == 3 and lift(3) != 3.5
    cs_l, bp_l = lift_problem(cs2, bp)
    assert cs_l.thetas == cs2.thetas
    assert (bp_l.p, bp_l.q, bp_l.xi_plus, bp_l.xi_minus) == (
        bp.p,
        bp.q,
        bp.xi_plus,
        bp.xi_minus,
    )


def test_lifting_keeps_sixty_digit_input():
    # A DecimalComplex keeps its digits, rounded to the context; the double
    # backend rounds it to complex.
    with workdps():
        z = DecimalComplex(Decimal(1) / Decimal(3), -Decimal(2) / Decimal(7))
        lifted = lift(z)
    assert lifted == z and lifted.real != Decimal(complex(z).real)
    with workdps(20):
        assert len(lift(z).real.as_tuple().digits) == 20 + GUARD_DIGITS
    assert lift(z, "double") == complex(z)


def test_extended_slavnov_reads_sixty_digit_roots(cs1, bp, solved1, rng):
    # Roots moved by 1e-30 round back to the same doubles; the extended
    # formula must see the move.
    from segment_bethe.params import draw_spectral_points

    on = solved1[1].roots
    free = tuple(draw_spectral_points(rng, 1, avoid=on, cs=cs1, bp=bp))
    with workdps():
        moved = tuple(lift(u) + Decimal("1e-30") for u in on)
    assert tuple(map(complex, moved)) == on
    value = sp.slavnov_modified(moved, free, cs1, bp, precision="extended")
    rounded = sp.slavnov_modified(on, free, cs1, bp, precision="extended")
    assert type(value) is DecimalComplex
    with workdps():
        gap = abs(value - rounded)
    assert 1e-35 * abs(rounded) < gap < 1e-25 * abs(rounded)


@pytest.mark.parametrize(
    "divide",
    [
        lambda x: x / 0,
        lambda x: x / 0.0,
        lambda x: x / 0j,
        lambda x: x / Decimal(0),
        lambda x: x / lift(0),
        lambda x: 1 / lift(0j),
        lambda x: 2.5j / lift(0),
    ],
)
def test_zero_divisor_raises(divide):
    with workdps(), pytest.raises(ZeroDivisionError):
        divide(lift(1 + 2j))


def test_newton_halves_past_a_pole():
    # x^2 - 2 from 1.5; the residual also carries 0 / (x - pole), with the
    # pole exactly at the first full Newton step, so that trial point
    # divides by an exact zero and Newton must halve the step.
    with workdps():
        x0 = lift(1.5)
        step = -(x0 * x0 - 2) / (2 * x0)
        pole = x0 + 1.0 * step
        tried = []

        def system(x):
            tried.append(x[0, 0])
            res = x * x - 2 + 0 / (x - pole)
            return res, np.ones(x.shape), lambda: 2 * x[:, :, None]

        start = np.empty((1, 1), dtype=object)
        start[0, 0] = x0
        x, err, _, _, failed = _newton(system, start, 1e-50)
        assert err[0] <= 1e-50 and not failed[0]
        assert tried[1] == pole
        assert tried[2] == x0 + 0.5 * step
        with mpmath.workdps(DEFAULT_DPS):
            assert _relative(x[0, 0], mpmath.sqrt(2)) <= 1e-50


def test_pole_guard_on_decimal_scalars():
    with workdps():
        near = lift(complex(-0.5, 1e-12))
        with pytest.raises(PoleError) as caught:
            kn.phi(near)
        assert isinstance(caught.value.distance, float)
        assert caught.value.distance == pytest.approx(2e-12)
        clear = lift(complex(-0.5, 1e-8))
        assert kn.phi(clear) == 2 * (clear + 1) / (2 * clear + 1)


def test_nested_contexts_restore_the_outer_precision():
    outer = decimal.getcontext().prec
    with workdps(80):
        assert decimal.getcontext().prec == 80 + GUARD_DIGITS
        with workdps():
            assert decimal.getcontext().prec == DEFAULT_DPS + GUARD_DIGITS
        assert decimal.getcontext().prec == 80 + GUARD_DIGITS
        with precision.working_precision("double"):
            assert decimal.getcontext().prec == 80 + GUARD_DIGITS
    assert decimal.getcontext().prec == outer


def _norms_at(digits, monkeypatch, on, cs, bp):
    """Unrounded norm limit and extended Gaudin-Korepin norm at ``digits``."""
    monkeypatch.setattr(precision, "DEFAULT_DPS", digits)
    # The limit rounds its result with ``complex``; shadow it in the module
    # so the extended value comes back as computed.
    monkeypatch.setattr(sp, "complex", lambda z: z, raising=False)
    limit = sp.norm_from_slavnov_limit(on, cs, bp)
    monkeypatch.undo()
    monkeypatch.setattr(precision, "DEFAULT_DPS", digits)
    norm = sp.gaudin_korepin_norm(on, cs, bp, precision="extended")
    monkeypatch.undo()
    return limit, norm


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_norms_agree_at_sixty_and_eighty_digits(sites, monkeypatch):
    bp = draw_boundary_params(np.random.default_rng(7 + sites))
    cs = draw_chain_spec(np.random.default_rng(70 + sites), sites)
    on = solve_bethe(cs, bp, rng=np.random.default_rng(sites))[0].roots
    at60 = _norms_at(60, monkeypatch, on, cs, bp)
    at80 = _norms_at(80, monkeypatch, on, cs, bp)
    for low, high in zip(at60, at80):
        assert isinstance(low, DecimalComplex)
        with mpmath.workdps(90):
            assert _relative(low, _oracle(high)) <= 1e-50
    # The two routes to the norm agree as the harness record requires.
    assert abs(complex(at60[0]) - complex(at60[1])) <= 1e-10 * abs(complex(at60[1]))


def test_lifted_roots_stay_lifted_through_the_formulas(cs2, bp, solved2):
    with workdps():
        cs_l, bp_l = lift_problem(cs2, bp)
        roots = lift_roots(solved2[0].roots)
        assert all(type(r) is DecimalComplex for r in roots)
        assert type(bp_l.rho) is DecimalComplex
        assert type(sp.gaudin_matrix(roots, cs_l, bp_l)[0][0]) is DecimalComplex


def test_package_runs_without_mpmath():
    code = "\n".join(
        [
            "import sys",
            "sys.modules['mpmath'] = None",
            "from segment_bethe import RunConfig, run",
            "norm = run('norm', RunConfig(sites=2, precision='extended'))",
            "n1 = run('n1', RunConfig())",
            "assert norm.checks and n1.checks",
            "sys.exit(0 if norm.all_passed and n1.all_passed else 1)",
        ]
    )
    src = str(Path(segment_bethe.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
