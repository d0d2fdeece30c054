"""Exchange kernels: spot values, rational identities, pole guards, derivatives.

Derivatives are cross-checked against central finite differences: those the
per-root tables use, and the pair and trace-coefficient derivatives of the
test-side ``oracles`` that certify the tables.  The kernels are rational, so
a 1e-6 step leaves plenty of headroom at 1e-7 tolerance.
"""

from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import d_alpha_bar, d_delta_bar, d_f_du, d_f_dv, d_h_du, d_h_dv

from segment_bethe import kernels as kn
from segment_bethe.errors import PoleError
from segment_bethe.params import BoundaryParams
from segment_bethe.precision import DecimalComplex

STEP = 1e-6
DTOL = 1e-7

spectral = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


def central(fn, z, step=STEP):
    return (fn(z + step) - fn(z - step)) / (2 * step)


def test_spot_values():
    assert kn.f(2, 1) == 0
    assert kn.h(1, 0) == 3
    assert kn.w(0, 0) == -1
    assert kn.Q(2, 1) == 4
    assert kn.phi(0) == 2


def test_phi_reflection():
    u = 0.37 + 0.21j
    assert np.isclose(kn.phi(-u - 1), 2 * u / (2 * u + 1))


@given(u=spectral, v=spectral)
@settings(max_examples=200, deadline=None)
def test_f_and_h_are_q_ratios(u, v):
    assume(abs(u - v) > 0.05 and abs(u + v + 1) > 0.05)
    qq = kn.Q(u, v)
    assert abs(kn.f(u, v) - kn.Q(-u, v) / qq) < 1e-10
    assert abs(kn.h(u, v) - kn.Q(u + 1, v) / qq) < 1e-10


def test_big_f_matches_definition():
    u, v = 0.8 + 0.3j, -0.2 + 0.5j
    expected = -(u + 1) * (2 * v + 1) / ((v + 1) * kn.Q(u, v))
    assert np.isclose(kn.F(u, v), expected)


@pytest.mark.parametrize(
    "fn,point",
    [
        (kn.f, (0.5, 0.5)),  # u = v
        (kn.f, (0.5, -1.5)),  # u + v + 1 = 0
        (kn.g, (0.3, -0.5)),  # 2v + 1 = 0
        (kn.k, (-0.5, 0.2)),  # 2u + 1 = 0
        (kn.w, (0.25, -1.25)),
        (kn.x, (-0.5, 0.1)),
        (kn.y, (0.3, -0.5)),
        (kn.F, (0.4, -1.0)),  # v = -1
    ],
)
def test_pole_guards(fn, point):
    with pytest.raises(PoleError):
        fn(*point)


def test_pole_error_names_kernel():
    with pytest.raises(PoleError, match="phi"):
        kn.phi(-0.5)
    with pytest.raises(PoleError, match="tilde_phi"):
        kn.tilde_phi(-1.2, 1.2)


def test_scalar_derivatives(rng):
    for _ in range(10):
        u = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
        assert abs(kn.phi_and_derivative(u)[1] - central(kn.phi, u)) < DTOL
        p = complex(rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3))
        got = kn.tilde_phi_and_derivative(u, p)[1]
        ref = central(lambda z: kn.tilde_phi(z, p), u)
        assert abs(got - ref) < DTOL * max(1.0, abs(got))


def test_pair_derivatives(rng):
    for _ in range(10):
        u = complex(rng.uniform(0.8, 1.6), rng.uniform(0.1, 0.5))
        v = complex(rng.uniform(-0.6, -0.1), rng.uniform(-0.5, -0.1))
        cases = [
            (d_f_du(u, v), lambda z: kn.f(z, v), u),
            (d_f_dv(u, v), lambda z: kn.f(u, z), v),
            (d_h_du(u, v), lambda z: kn.h(z, v), u),
            (d_h_dv(u, v), lambda z: kn.h(u, z), v),
        ]
        for got, fn, at in cases:
            assert abs(got - central(fn, at)) < DTOL * max(1.0, abs(got))


def test_trace_coefficient_derivatives(rng):
    bp = BoundaryParams(1.3 + 0.2j, 2.1 - 0.3j, 0.7 + 0.4j, -0.5 + 0.6j)
    for _ in range(5):
        u = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.4, 0.4))
        got = d_alpha_bar(u, bp)
        ref = central(lambda z: kn.alpha_bar(z, bp), u)
        assert abs(got - ref) < DTOL * max(1.0, abs(got))
        got = d_delta_bar(u, bp)
        ref = central(lambda z: kn.delta_bar(z, bp), u)
        assert abs(got - ref) < DTOL * max(1.0, abs(got))


def test_products():
    u = 1.1 + 0.3j
    others = (0.2 - 0.4j, -0.7 + 0.1j)
    assert np.isclose(kn.f_product(u, others), kn.f(u, others[0]) * kn.f(u, others[1]))
    assert np.isclose(kn.h_product(u, others), kn.h(u, others[0]) * kn.h(u, others[1]))
    assert np.isclose(kn.Q_product(u, others), kn.Q(u, others[0]) * kn.Q(u, others[1]))
    assert kn.f_product(u, ()) == 1
    assert kn.h_product(u, ()) == 1
    assert kn.Q_product(u, ()) == 1


def test_kernels_accept_mpmath_scalars():
    import mpmath

    u = mpmath.mpc("0.9", "0.2")
    v = mpmath.mpc("-0.3", "0.6")
    got = kn.f(u, v)
    ref = kn.f(complex(u), complex(v))
    assert abs(complex(got) - ref) < 1e-15


def test_pole_guard_on_mpmath_scalars():
    import mpmath

    with mpmath.workdps(60):
        near = mpmath.mpc("-0.5", "1e-12")
        with pytest.raises(PoleError) as caught:
            kn.phi(near)
        assert isinstance(caught.value.distance, float)
        assert caught.value.distance == pytest.approx(2e-12)
        clear = mpmath.mpc("-0.5", "1e-8")
        assert abs(kn.phi(clear) - 2 * (clear + 1) / (2 * clear + 1)) == 0


@pytest.mark.parametrize(
    "d, raises",
    [
        (0j, True),
        (5e-10 + 0j, True),
        (-5e-10j, True),
        (1e-9 + 0j, False),
        (-1e-9j, False),
        (8e-10 + 8e-10j, False),
        (-8e-10 + 8e-10j, False),
        (2e-9 + 0j, False),
        (-2e-9j, False),
    ],
)
def test_pole_guard_same_on_both_backends(d, raises):
    # A decimal denominator whose part clears POLE_TOL exactly skips the
    # float conversion; every other one takes the double-precision distance,
    # so both backends raise on exactly the same inputs.
    exact = DecimalComplex(Decimal(d.real), Decimal(d.imag))
    for denominator in (d, exact):
        if raises:
            with pytest.raises(PoleError) as caught:
                kn._guard("t", 0, 1 + 0j, denominator)
            assert caught.value.distance == abs(d)
        else:
            kn._guard("t", 0, 1 + 0j, denominator)


def test_pole_guard_decimal_just_below_tolerance():
    # Exactly below Decimal(POLE_TOL) but rounding to POLE_TOL in double:
    # the guard keeps the double-precision meaning and does not raise.
    below = Decimal(kn.POLE_TOL).next_minus(Context(prec=80))
    assert below < Decimal(kn.POLE_TOL) and float(below) == kn.POLE_TOL
    kn._guard("t", 0, DecimalComplex(below, Decimal(0)))


def test_fhq_matches_single_kernels(rng):
    for _ in range(20):
        u, v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert kn.fhq(u, v) == (kn.f(u, v), kn.h(u, v), kn.Q(u, v))
    with pytest.raises(PoleError):
        kn.fhq(0.5, -1.5)
