"""Curvature polynomials and transgression values against frozen oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gblab import invariants as inv
from gblab.doubleform import DoubleForm, ShapeError, berezin, power, wedge
from gblab.geometry import GaugePath

TWO_PI = 2 * math.pi


def round_curvature(n, c=1.0):
    h = DoubleForm.metric_form(n)
    return (c / 2.0) * wedge(h, h)


# -- coefficient table ----------------------------------------------------------

def test_double_factorial_convention():
    assert inv.double_factorial(-1) == 1
    assert inv.double_factorial(0) == 1
    assert inv.double_factorial(5) == 15
    with pytest.raises(ValueError):
        inv.double_factorial(-3)


def test_signed_double_factorial_values():
    assert inv.signed_double_factorial(0) == 1
    assert inv.signed_double_factorial(1) == -1
    assert inv.signed_double_factorial(2) == 3


@pytest.mark.parametrize("p", range(11))
def test_double_factorial_identity_exact(p):
    assert inv.double_factorial_identity_lhs(p) == Fraction((-1) ** p, 2 * p + 1)


def test_double_factorial_identity_p3_value():
    assert inv.double_factorial_identity_lhs(3) == Fraction(-1, 7)


@pytest.mark.parametrize("k", range(1, 11))
def test_moment_identity_exact(k):
    lhs, rhs = inv.beta_moment_identity(k)
    assert lhs == rhs


def test_chern_coefficient_exact():
    assert inv.chern_coefficient(0, 1) == 1
    assert inv.chern_coefficient(1, 2) == Fraction(-1, 6)
    with pytest.raises(ValueError):
        inv.chern_coefficient(2, 2)


# -- Pfaffian forms ---------------------------------------------------------------

def test_pfaffian_flat_and_spheres():
    assert inv.pfaffian_form(DoubleForm.zero(2, 2, 2)).norm_inf() == 0.0
    assert inv.pfaffian_form(round_curvature(2)).coeffs[0, 0] == pytest.approx(1.0)
    assert inv.pfaffian_form(round_curvature(4)).coeffs[0, 0] == pytest.approx(3.0)


def test_pfaffian_odd_dimension_rejected():
    with pytest.raises(ShapeError):
        inv.pfaffian_form(DoubleForm.zero(3, 2, 2))
    with pytest.raises(ShapeError):
        inv.odd_pfaffian_form(DoubleForm.zero(2, 2, 2))


def test_odd_pfaffian_frozen_values():
    # circle: -vol; flat 3-space: +vol; round 3-sphere: -2 vol
    v1 = inv.odd_pfaffian_form(DoubleForm.zero(1, 2, 2))
    assert v1.coeffs[0, 0] == pytest.approx(-1.0)
    v3flat = inv.odd_pfaffian_form(DoubleForm.zero(3, 2, 2))
    assert v3flat.coeffs[0, 0] == pytest.approx(1.0)
    v3 = inv.odd_pfaffian_form(round_curvature(3))
    assert v3.coeffs[0, 0] == pytest.approx(-2.0)


# -- Lipschitz-Killing and variation forms ------------------------------------------

def test_lk_level_zero_is_volume():
    for n in (1, 2, 3):
        form = inv.lipschitz_killing_form(0, DoubleForm.zero(n, 2, 2), DoubleForm.metric_form(n))
        assert form.coeffs[0, 0] == pytest.approx(1.0)


def test_lk_scalar_curvature_normalization():
    # level one equals scal/2 times the volume form
    for n, scal in ((2, 2.0), (3, 6.0), (4, 12.0)):
        form = inv.lipschitz_killing_form(1, round_curvature(n), DoubleForm.metric_form(n))
        assert form.coeffs[0, 0] == pytest.approx(scal / 2.0)


def test_lk_top_level_is_pfaffian():
    for n in (2, 4):
        lk = inv.lipschitz_killing_form(n // 2, round_curvature(n), DoubleForm.metric_form(n))
        pf = inv.pfaffian_form(round_curvature(n))
        assert (lk - pf).norm_inf() <= 1e-12


def test_lk_out_of_range():
    with pytest.raises(ShapeError):
        inv.lipschitz_killing_form(2, DoubleForm.zero(3, 2, 2), DoubleForm.metric_form(3))


def test_variation_form_cases():
    # the lipschitz_killing_form polynomial with a metric variation in place of h
    n = 3
    R = round_curvature(n)
    h = DoubleForm.metric_form(n)
    zero = DoubleForm.zero(n, 1, 1)
    assert inv.lipschitz_killing_form(0, R, zero).norm_inf() == 0.0
    got = inv.lipschitz_killing_form(0, R, 2.0 * h)
    want = (2.0 ** n) * inv.lipschitz_killing_form(0, R, h)
    assert (got - want).norm_inf() <= 1e-12
    # top curvature power forgets the variation entirely
    R2 = round_curvature(2)
    top = inv.lipschitz_killing_form(1, R2, 5.0 * DoubleForm.metric_form(2))
    lk = inv.lipschitz_killing_form(1, R2, DoubleForm.metric_form(2))
    assert (top - lk).norm_inf() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_variation_scaling_property(seed):
    rng = np.random.default_rng(seed)
    n, i = 3, 0
    R = round_curvature(n)
    c = float(rng.uniform(0.5, 2.0))
    h = DoubleForm.metric_form(n)
    got = inv.lipschitz_killing_form(i, R, c * h)
    want = c ** (n - 2 * i) * inv.lipschitz_killing_form(i, R, h)
    assert (got - want).norm_inf() <= 1e-10


# -- boundary correction --------------------------------------------------------------


def test_boundary_correction_vanishes_without_ii():
    assert inv.boundary_correction_form(DoubleForm.zero(3, 1, 1),
                                        round_curvature(3)).norm_inf() == 0.0


def test_boundary_correction_unit_circle():
    form = inv.boundary_correction_form(-1.0 * DoubleForm.metric_form(1), DoubleForm.zero(1, 2, 2))
    assert form.coeffs[0, 0] == pytest.approx(-1.0)


def test_boundary_correction_unit_three_sphere():
    form = inv.boundary_correction_form(-1.0 * DoubleForm.metric_form(3), round_curvature(3))
    assert form.coeffs[0, 0] == pytest.approx(-2.0)
    # integral over the unit 3-sphere is -(2 pi)^2
    assert form.coeffs[0, 0] * 2 * math.pi**2 == pytest.approx(-TWO_PI**2)


def test_boundary_correction_wrong_parity():
    # k = (II.n + 1)/2 comes from II, so an even-dimensional II is a shape error
    with pytest.raises(ShapeError):
        inv.boundary_correction_form(DoubleForm.metric_form(2), DoubleForm.zero(2, 2, 2))
    with pytest.raises(ShapeError):
        inv.boundary_correction_form(DoubleForm.metric_form(4), DoubleForm.zero(4, 2, 2))


def test_lk_needs_a_symmetric_1_1_form():
    R = round_curvature(3)
    with pytest.raises(ShapeError):
        inv.lipschitz_killing_form(0, R, DoubleForm.zero(3, 2, 2))
    with pytest.raises(ShapeError):
        inv.lipschitz_killing_form(1, R, DoubleForm.zero(3, 1, 0))
    # X and R must share the dimension
    with pytest.raises(ShapeError):
        inv.lipschitz_killing_form(0, R, DoubleForm.metric_form(2))


def test_path_transgression_needs_an_even_dimensional_gauge():
    # k = d/2 comes from the gauge's theta_dot; an odd d has no k
    s, w = np.linspace(0.0, 1.0, 3), np.array([1.0, 4.0, 1.0]) / 6.0
    odd = GaugePath(s_nodes=s, s_weights=w,
                    theta_dot=DoubleForm(3, 1, 2, np.zeros((3, 3, 3))),
                    curvature=DoubleForm(3, 2, 2, np.zeros((3, 3, 3))), frame=np.eye(3))
    with pytest.raises(ShapeError):
        inv.path_transgression_form(odd)
    # the s axis leads every node field and is summed away
    even = GaugePath(s_nodes=s, s_weights=w,
                     theta_dot=DoubleForm(4, 1, 2, np.zeros((3, 5, 4, 6))),
                     curvature=DoubleForm(4, 2, 2, np.zeros((3, 5, 6, 6))),
                     frame=np.broadcast_to(np.eye(4), (5, 4, 4)))
    assert inv.path_transgression_form(even).coeffs.shape == (5, 4, 1)


def test_boundary_correction_equals_double_factorial_combination():
    # same polynomial written through (-1)^j (2j-1)!! G_{k-1-j}
    rng = np.random.default_rng(3)
    n, k = 3, 2
    iic = rng.normal(size=(n, n))
    II = DoubleForm(n, 1, 1, 0.5 * (iic + iic.T))
    R = round_curvature(n, c=0.7)
    form = inv.boundary_correction_form(II, R)
    alt = DoubleForm.zero(n, n, 0)
    for j in range(k):
        coeff = (-1) ** j * inv.double_factorial(2 * j - 1) / (
            math.factorial(k - 1 - j) * math.factorial(2 * j + 1))
        alt = alt + coeff * berezin(wedge(power(R, k - 1 - j), power(II, 2 * j + 1)))
    assert (form - alt).norm_inf() <= 1e-12


# -- cone and fibration values -----------------------------------------------------------

def test_cone_value_zero_inclination():
    assert inv.cone_transgression_value(0.0, [TWO_PI]) == 0.0


def test_cone_value_circle():
    for theta in (0.3, 0.5, 1.0):
        assert inv.cone_transgression_value(theta, [TWO_PI]) == pytest.approx(TWO_PI * theta)


def test_cone_value_three_sphere():
    lk = [2 * math.pi**2, 6 * math.pi**2]
    got = inv.cone_transgression_value(1.0, lk)
    assert got == pytest.approx(TWO_PI**2)
    got = inv.cone_transgression_value(0.5, lk)
    assert got == pytest.approx(-2 * math.pi**2 * 0.125 + 6 * math.pi**2 * 0.5)


def test_edge_boundary_value_cases():
    assert inv.edge_boundary_value(4 * math.pi, -TWO_PI) == pytest.approx(-8 * math.pi**2)
    # flat 3-torus fiber: odd Pfaffian integrates to its volume
    assert inv.edge_boundary_value(4 * math.pi, (2 * math.pi) ** 3) == pytest.approx(
        4 * math.pi * TWO_PI**3)


def test_fibered_boundary_value_cases():
    assert inv.fibered_boundary_value(-TWO_PI, 1, 0) == pytest.approx(-TWO_PI)
    got = inv.fibered_boundary_value(-TWO_PI**2, 2, 2)
    assert got == pytest.approx(TWO_PI * 2 * (-TWO_PI**2))


def test_horizontal_edge_reduction_to_product():
    # no radial variation: only the top base power survives and the value is
    # -(Pf integral of the base) x (cone closed form of the fiber at one)
    got = inv.horizontal_edge_value({1: 4 * math.pi}, {0: TWO_PI}, 2, 2)
    assert got == pytest.approx(-8 * math.pi**2)
