"""Quadrature rules, deterministic reduction, refinement, extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gblab.geometry import Chart
from gblab.quadrature import (
    AxisRule,
    ConvergenceTable,
    MeshSpec,
    ResolutionError,
    geometric_schedule,
    integrate_chart,
    mesh_for_chart,
    pairwise_sum,
    refine_until,
    r_limit_extrapolate,
)

CIRCLE = Chart("circle", ((0.0, 2 * math.pi),), (True,))


def test_trapezoid_constant_exact():
    mesh = mesh_for_chart(CIRCLE, 1)
    assert integrate_chart(lambda x: 1.0, CIRCLE, mesh) == pytest.approx(2 * math.pi)


def test_sphere_volume_colatitude():
    chart = Chart("s2-classic", ((0.0, math.pi), (0.0, 2 * math.pi)), (False, True))
    mesh = mesh_for_chart(chart, 4)
    vol = integrate_chart(lambda x: math.sin(x[0]), chart, mesh)
    assert vol == pytest.approx(4 * math.pi, abs=1e-8)


def test_hyperspherical_three_sphere_volume():
    chart = Chart("s3-classic", ((0.0, math.pi), (0.0, math.pi), (0.0, 2 * math.pi)),
                  (False, False, True))
    mesh = mesh_for_chart(chart, 3)
    vol = integrate_chart(lambda x: math.sin(x[0]) ** 2 * math.sin(x[1]), chart, mesh)
    assert vol == pytest.approx(2 * math.pi**2, rel=1e-9)


def test_mesh_invariants():
    with pytest.raises(ResolutionError):
        MeshSpec(nodes=(3,), rules=("gauss",))
    with pytest.raises(ResolutionError):
        mesh_for_chart(CIRCLE, 9)


def test_node_counts_double_per_level():
    rule = AxisRule("gauss", 8)
    assert [rule.nodes_at(l) for l in (1, 2, 3)] == [8, 16, 32]
    fixed = AxisRule("trapezoid", 4, fixed=True)
    assert [fixed.nodes_at(l) for l in (1, 3)] == [4, 4]


def test_evaluator_failure_carries_node_coordinates():
    def bad(x):
        if x[0] > 3.0:
            raise ValueError("boom")
        return 1.0

    with pytest.raises(ValueError, match=r"boom \(at node \(3\."):
        integrate_chart(bad, CIRCLE, mesh_for_chart(CIRCLE, 1))


def test_pairwise_sum_fixed_tree():
    rng = np.random.default_rng(11)
    a = rng.normal(size=1037)
    assert pairwise_sum(a) == pairwise_sum(a.copy())
    assert pairwise_sum(a) == pytest.approx(float(np.sum(a)), abs=1e-10)


def test_product_volume_s2_x_s1():
    prod = Chart("s2xs1", ((0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                 (False, True, True))
    vol = integrate_chart(lambda x: math.sin(x[0]), prod, mesh_for_chart(prod, 3))
    assert vol == pytest.approx(8 * math.pi**2, rel=1e-8)


def test_refine_until_contract():
    calls = []

    def ev(level):
        calls.append(level)
        return 5.0 + 4.0 ** (-level)

    value, table, converged = refine_until(ev, tol=5e-3, max_levels=5)
    assert converged
    diffs = [row[3] for row in table.rows if row[3] is not None]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:])) or len(diffs) <= 1
    orders = [row[4] for row in table.rows if row[4] is not None]
    assert orders and orders[-1] == pytest.approx(2.0, abs=0.2)


def test_refine_until_immediate_and_budget():
    value, table, converged = refine_until(lambda level: 1.0, tol=1e-12, max_levels=3)
    assert converged and len(table.rows) == 2
    value, table, converged = refine_until(lambda level: 2.0 ** (-level), tol=1e-12,
                                           max_levels=2)
    assert not converged


def test_convergence_table_levels_strictly_increase():
    table = ConvergenceTable()
    table.add(1, 8, 1.0)
    with pytest.raises(ResolutionError):
        table.add(1, 16, 2.0)
    table.add(2, 16, 1.5)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "level,nodes,value,diff,order"
    assert len(csv.splitlines()) == 3


def test_extrapolate_linear_and_polynomial():
    samples = [(r, 3.0 + 2.0 * r) for r in geometric_schedule(0.4, 6)]
    value, warn = r_limit_extrapolate(samples, degree=1)
    assert value == pytest.approx(3.0, abs=1e-12)
    samples = [(r, 1.0 + r**2 + r**4) for r in geometric_schedule(0.4, 6)]
    value, _ = r_limit_extrapolate(samples, degree=4)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_extrapolate_schedule_validation():
    with pytest.raises(ResolutionError):
        r_limit_extrapolate([(0.4, 1.0), (0.39, 1.0), (0.38, 1.0), (0.37, 1.0),
                             (0.36, 1.0), (0.35, 1.0)], degree=3)
    with pytest.raises(ResolutionError):
        r_limit_extrapolate([(0.4, 1.0), (0.2, 1.0)], degree=3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10_000))
def test_extrapolate_recovers_polynomial(degree, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=degree + 1)
    samples = [(r, sum(c * r**m for m, c in enumerate(coeffs)))
               for r in geometric_schedule(0.5, degree + 3)]
    value, _ = r_limit_extrapolate(samples, degree=degree)
    assert value == pytest.approx(coeffs[0], abs=1e-9 * max(1.0, abs(coeffs[0])))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7), st.integers(0, 1000))
def test_gauss_exact_for_polynomials(deg, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=deg + 1)
    seg = Chart("seg", ((0.0, 1.0),), (False,))
    got = integrate_chart(lambda x: sum(c * x[0] ** m for m, c in enumerate(coeffs)),
                          seg, mesh_for_chart(seg, 1))
    want = sum(c / (m + 1) for m, c in enumerate(coeffs))
    assert got == pytest.approx(want, abs=1e-12)
