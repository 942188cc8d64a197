"""Curvature polynomials and transgression integrands on double forms.

Conventions, fixed once and validated end to end by the BoundaryGB disk
rows of the default suite (test_a_negated_flag_fails_its_anchor_row in
tests/test_verify.py flips the boundary flag and sees the 2-disk row fail):

* Pfaffian of an even-dimensional metric: Pf = B((R)^k) / k!, integrating
  to (2pi)^k chi on closed oriented 2k-manifolds.
* Odd Pfaffian of a (2k-1)-dimensional metric:
      sum_j (-1)^(k+j) (2k-2j-3)!! B(R^j h^(2k-1-2j)) / (j! (2k-2j-1)!)
  written exactly as defined, with no sign adjustments inside; orientation
  reconciliation lives in the per-family epsilon flags of the verification
  layer.
* Boundary correction integrand: the coefficient
      (1/(k-1)!) C(k-1,j) (-1)^j / (2^j (2j+1))
  on B(II^(2j+1) R^(k-1-j)).  The alternative closed-form coefficient
  (-1)^(k+j) (2k-2j-3)!!/(j!(2k-2j-1)!) differs from this by an overall
  sign (-1)^(2j+1); the present one is canonical because it makes
  chi(D^2) = +1 come out of the disk check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .doubleform import (
    DoubleForm,
    ShapeError,
    berezin,
    power,
    wedge,
)

__all__ = [
    "double_factorial",
    "signed_double_factorial",
    "chern_coefficient",
    "double_factorial_identity_lhs",
    "beta_moment_identity",
    "pfaffian_form",
    "odd_pfaffian_form",
    "lipschitz_killing_form",
    "boundary_correction_form",
    "path_transgression_form",
    "cone_transgression_value",
    "edge_boundary_value",
    "fibered_boundary_value",
    "horizontal_edge_value",
]


# -- exact coefficient table -------------------------------------------------

def double_factorial(m: int) -> int:
    """m!! with the convention (-1)!! = 1."""
    if m < -1:
        raise ValueError("double factorial defined for m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def signed_double_factorial(l: int) -> int:
    """(-1)^l (2l-1)!!, the coefficient attached to each cone power."""
    if l < 0:
        raise ValueError("negative level")
    return (-1) ** l * double_factorial(2 * l - 1)


def chern_coefficient(j: int, k: int) -> Fraction:
    """Exact boundary-integrand coefficient (-1)^j / (2^j (2j+1) j! (k-1-j)!)."""
    if not (0 <= j <= k - 1):
        raise ValueError("need 0 <= j <= k-1")
    return Fraction((-1) ** j, 2**j * (2 * j + 1) * math.factorial(j) * math.factorial(k - 1 - j))


def double_factorial_identity_lhs(p: int) -> Fraction:
    """sum_j (-1)^j (2p)!! / ((2j)!! (2p-2j+1)!!); equals (-1)^p/(2p+1)."""
    if p < 0:
        raise ValueError("negative argument")
    total = Fraction(0)
    for j in range(p + 1):
        total += Fraction((-1) ** j * double_factorial(2 * p),
                          double_factorial(2 * j) * double_factorial(2 * p - 2 * j + 1))
    return total


def beta_moment_identity(k: int):
    """Exact pair (sum_j (-1)^j C(k-1,j)/(2j+1),  2^(2k-2)((k-1)!)^2/(2k-1)!).

    Both sides equal the moment integral of (1-x^2)^(k-1) over [0, 1].
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs = sum(Fraction((-1) ** j * math.comb(k - 1, j), 2 * j + 1) for j in range(k))
    rhs = Fraction(2 ** (2 * k - 2) * math.factorial(k - 1) ** 2, math.factorial(2 * k - 1))
    return lhs, rhs


# -- pointwise curvature polynomials ----------------------------------------
#
# Each polynomial reads its dimension from its forms: n = R.n, and the
# Berezin integral contracts with the frame's own orientation.

def pfaffian_form(R: DoubleForm) -> DoubleForm:
    """Pf = B(R^k)/k! as a (2k, 0) form; n must be even."""
    if R.n % 2:
        raise ShapeError("Pfaffian form needs even dimension")
    k = R.n // 2
    return (1.0 / math.factorial(k)) * berezin(power(R, k))


def odd_pfaffian_form(R: DoubleForm) -> DoubleForm:
    """Odd-dimensional Pfaffian volume form on a (2k-1)-manifold."""
    n = R.n
    if n % 2 == 0:
        raise ShapeError("odd Pfaffian needs odd dimension")
    k = (n + 1) // 2
    h = DoubleForm.metric_form(n)
    out = DoubleForm.zero(n, n, 0)
    for j in range(k):
        coeff = ((-1) ** (k + j) * double_factorial(2 * k - 2 * j - 3)
                 / (math.factorial(j) * math.factorial(2 * k - 2 * j - 1)))
        out = out + coeff * berezin(wedge(power(R, j), power(h, 2 * k - 1 - 2 * j)))
    return out


def lipschitz_killing_form(j: int, R: DoubleForm, X: DoubleForm) -> DoubleForm:
    """B(R^j X^(n-2j)) / (j!(n-2j)!) for a symmetric (1,1) form X.

    With X = h this is the level-j Lipschitz-Killing form; with X a metric
    variation gdot it is the base integrand of the horizontal edge value.
    """
    n = R.n
    if not (0 <= 2 * j <= n):
        raise ShapeError("need 0 <= 2j <= n")
    if (X.p, X.q) != (1, 1):
        raise ShapeError("X must be a (1,1) form")
    c = 1.0 / (math.factorial(j) * math.factorial(n - 2 * j))
    return c * berezin(wedge(power(R, j), power(X, n - 2 * j)))


def boundary_correction_form(II: DoubleForm, R: DoubleForm) -> DoubleForm:
    """Gauss-Bonnet boundary integrand on a (2k-1)-dimensional slice.

    II is the slice second fundamental form (normal +d_r convention) and R
    the induced curvature, in a common orthonormal frame; k = (II.n + 1)/2.
    """
    n = II.n
    if n % 2 == 0:
        raise ShapeError("slice dimension must be odd")
    k = (n + 1) // 2
    out = DoubleForm.zero(n, n, 0)
    for j in range(k):
        coeff = float(chern_coefficient(j, k))
        out = out + coeff * berezin(wedge(power(II, 2 * j + 1), power(R, k - 1 - j)))
    return out


def path_transgression_form(gauge) -> DoubleForm:
    """Transgression primitive along a gauged metric path in dimension d = 2k.

    The gauge's Simpson rule in s (weights s_weights) integrates
    B(theta_dot^s R_s^(k-1))/(k-1)!, returning a (2k-1, 0) form in the
    path's base orthonormal frame, with the batch axes of the gauge (one
    form per point of its block).  One wedge serves every node on the
    gauge's leading s axis, and the weighted nodes are summed in order.
    """
    d = gauge.theta_dot.n
    if d % 2:
        raise ShapeError("path transgression needs even dimension")
    k = d // 2
    terms = berezin(wedge(gauge.theta_dot, power(gauge.curvature, k - 1))).coeffs
    w = gauge.s_weights.reshape((-1,) + (1,) * (terms.ndim - 1))
    total = np.add.reduce(w * terms, axis=0)   # row by row, in node order
    return (1.0 / math.factorial(k - 1)) * DoubleForm(d, d - 1, 0, total)


# -- integrated closed forms -------------------------------------------------

def cone_transgression_value(theta: float, lk_integrals) -> float:
    """Closed-form cone transgression sum_j theta^(n-2j) c~((n-1)/2 - j) I_j.

    lk_integrals[j] is the integral of the level-j Lipschitz-Killing form
    over the link, j = 0..(n-1)/2, so the link dimension is n = 2 len - 1.
    """
    n = 2 * len(lk_integrals) - 1
    total = 0.0
    for j in range(len(lk_integrals)):
        total += theta ** (n - 2 * j) * signed_double_factorial((n - 1) // 2 - j) * lk_integrals[j]
    return total


def edge_boundary_value(pf_base_integral: float, odd_pf_fiber_integral: float) -> float:
    """Collapsing-fiber boundary term: Pf integral of the base times the
    odd-Pfaffian integral of the fiber.  verify.edge_value_for owns the
    parity rule: the term is zero when the base is odd."""
    return pf_base_integral * odd_pf_fiber_integral


def fibered_boundary_value(odd_pf_base_integral: float, chi_fiber: int,
                           fiber_dim: int) -> float:
    """Expanding-base boundary term (2pi)^(f/2) chi(F) * odd-Pf integral of
    the base.  verify.fibered_value_for owns the parity rule: the term is
    zero when the base is even."""
    if fiber_dim % 2:
        raise ShapeError("fiber dimension must be even when the base is odd")
    return (2.0 * math.pi) ** (fiber_dim // 2) * chi_fiber * odd_pf_base_integral


def horizontal_edge_value(q_integrals: dict, p_integrals: dict, k: int,
                          base_dim: int) -> float:
    """Closed-form slice-transgression limit with horizontal metric variation.

    q_integrals[i] integrates the base form lipschitz_killing_form(i, R, gdot),
    p_integrals[v] the fiber Lipschitz-Killing forms.  Returns the limit of
    the plus-convention slice transgression:

        - sum_{i,v} c~(k-1-i-v) 2^(2i-b) Q_i P_v

    which reduces to -(Pf base) x (cone closed form at inclination 1 of the
    fiber) when gdot = 0.
    """
    b = base_dim
    total = 0.0
    for i in q_integrals:
        for v in p_integrals:
            l = k - 1 - i - v
            if l < 0:
                continue
            total += (signed_double_factorial(l) * 2.0 ** (2 * i - b)
                      * q_integrals[i] * p_integrals[v])
    return -total
