"""Geometry engine against closed-form oracles."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gblab import catalog, geometry, quadrature
from gblab.doubleform import MAX_DIM, DoubleForm, berezin, multi_indices, power, wedge
from gblab.geometry import (
    Chart,
    CollarMetric,
    DomainError,
    MetricError,
    MetricField,
    Slice,
    _along_axes,
    _block_diag,
    _central_diff,
    _christoffel_first,
    _collar_points,
    _collar_radii,
    _curvature_pairs,
    _diff_weights,
    _frame_of,
    _h_phi_matrix,
    _jet_plan,
    _metric_jet,
    _pair_minors,
    _pair_plan,
    _path_eigenbasis,
    _path_scalings,
    _second_kind,
    _spd_check,
    _sqrt_det,
    christoffel,
    metric_path_gauge,
    phi_conjugated_connection,
    phi_frame,
    riemann_double_form,
)
from gblab.invariants import path_transgression_form, pfaffian_form
from gblab.quadrature import block_size

POLAR = Chart("polar", ((0.1, 2.0), (0.0, 2 * math.pi)), (False, True))
TORUS2 = Chart("t2", ((0.0, 2 * math.pi), (0.0, 2 * math.pi)), (True, True))


def _diag2(a, b):
    out = np.zeros(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = a, b
    return out


def polar_metric(x):
    return _diag2(np.ones(x.shape[:-1]), x[..., 0] ** 2)


def s2_classic(x):
    return _diag2(np.ones(x.shape[:-1]), np.sin(x[..., 0]) ** 2)


# -- Christoffel symbols -------------------------------------------------------

def test_christoffel_euclidean_zero():
    m = MetricField(TORUS2, lambda x: np.eye(2))
    assert np.max(np.abs(christoffel(m, np.array([1.0, 2.0])))) == 0.0


def test_christoffel_polar_plane():
    m = MetricField(POLAR, polar_metric)
    x = np.array([1.3, 0.4])
    w = christoffel(m, x)                # w[mu, i, j] = Gamma^i_{mu j}
    assert w[1, 0, 1] == pytest.approx(-1.3, abs=1e-8)
    assert w[0, 1, 1] == pytest.approx(1 / 1.3, abs=1e-8)
    assert np.allclose(w, np.swapaxes(w, 0, 2))


def test_christoffel_round_sphere_cotangent():
    chart = Chart("s2", ((0.2, math.pi - 0.2), (0.0, 2 * math.pi)), (False, True))
    m = MetricField(chart, s2_classic, fd_order=4)
    x = np.array([1.1, 0.3])
    w = christoffel(m, x)
    assert w[0, 1, 1] == pytest.approx(1 / math.tan(1.1), abs=1e-9)


def test_stencil_domain_error():
    m = MetricField(POLAR, polar_metric)
    with pytest.raises(DomainError):
        christoffel(m, np.array([0.1, 0.0]))


def test_non_spd_metric_error():
    m = MetricField(TORUS2, lambda x: np.diag([1.0, -1.0]))
    with pytest.raises(MetricError):
        _frame_of(m.g(np.array([0.5, 0.5])))


def test_singular_metric_error():
    # singular or indefinite: christoffel's g^{-1} comes from _frame_of's Cholesky
    for sample in (np.ones((2, 2)), np.diag([1.0, -1.0])):
        m = MetricField(TORUS2, lambda x, sample=sample: sample)
        with pytest.raises(MetricError, match="metric sample is not positive definite"):
            christoffel(m, np.array([0.5, 0.5]))


# -- the metric sample check -------------------------------------------------------

def _spd_stack(seed, scales):
    """Exactly symmetric SPD 3x3 samples, sample k of magnitude about scales[k]."""
    a = np.random.default_rng(seed).normal(size=(len(scales), 3, 3))
    g = a + np.swapaxes(a, -1, -2) + 8.0 * np.eye(3)
    return g * np.array(scales, dtype=float)[:, None, None]


def test_spd_check_returns_an_exactly_symmetric_stack_unchanged():
    g = _spd_stack(0, [1.0, 1e3, 1e-3])
    assert np.array_equal(_spd_check(g), g)
    # the field hands the checked sample out read-only
    sample = MetricField(TORUS2, lambda x: g[0, :2, :2]).g(np.array([0.5, 0.5]))
    assert np.array_equal(sample, g[0, :2, :2]) and not sample.flags.writeable


def test_spd_check_symmetrizes_round_off():
    g = _spd_stack(1, [1.0, 1.0, 1.0])
    g[1, 0, 2] += 1e-12 * np.max(np.abs(g[1]))
    assert np.array_equal(_spd_check(g), 0.5 * (g + np.swapaxes(g, -1, -2)))


def test_spd_check_rejects_one_asymmetric_sample():
    g = _spd_stack(2, [1.0, 1.0, 1.0])
    g[2, 1, 0] += 1e-8 * np.max(np.abs(g[2]))
    with pytest.raises(MetricError, match="not symmetric"):
        _spd_check(g)


def test_spd_check_scale_is_per_sample():
    big, unit = _spd_stack(3, [1e6, 1.0])
    off = np.zeros((3, 3))
    off[0, 1] = 1e-5
    _spd_check(np.stack([big + off, unit]))
    with pytest.raises(MetricError, match="not symmetric"):
        _spd_check(np.stack([big, unit + off]))


def test_block_diag_matches_a_hand_assembly():
    # a batched block beside a constant one and two 1x1 blocks, batch axes broadcast
    rng = np.random.default_rng(5)
    batched = rng.standard_normal((4, 1, 2, 2))
    const = rng.standard_normal((3, 3))
    col = rng.standard_normal((5, 1, 1))
    want = np.zeros((4, 5, 7, 7))
    want[..., 0, 0] = 1.0
    want[..., 1:3, 1:3] = batched
    want[..., 3:6, 3:6] = const
    want[..., 6:, 6:] = col
    got = _block_diag(np.ones((1, 1)), batched, const, col)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(_block_diag(np.full((1, 1), 2.0), np.ones((1, 1))), np.diag([2.0, 1.0]))


# -- metric jet --------------------------------------------------------------------

def _per_offset_jet(m, x, want_second):
    """The metric jet with one evaluator call per stencil offset, as a reference."""
    d, h, order = m.chart.dim, m.steps(), m.fd_order
    ks = [k for k, _ in _diff_weights(order)]
    x = np.asarray(x, dtype=float)
    samples = {}

    def at(base, axis, k):
        off = list(base)
        off[axis] += k
        off = tuple(off)
        if off not in samples:
            samples[off] = m.g(x + h * np.array(off, dtype=float))
        return samples[off]

    zero = (0,) * d
    g = at(zero, 0, 0)
    dg = np.stack([_central_diff([at(zero, a, k) for k in ks], h[a], order)
                   for a in range(d)], axis=-3)
    if not want_second:
        return g, dg, None
    d2g = np.zeros(x.shape[:-1] + (d, d, d, d))
    for a in range(d):
        if order == 2:
            d2g[..., a, a, :, :] = (at(zero, a, 1) - 2.0 * g + at(zero, a, -1)) / h[a] ** 2
        else:
            d2g[..., a, a, :, :] = (-at(zero, a, 2) + 16.0 * at(zero, a, 1) - 30.0 * g
                                    + 16.0 * at(zero, a, -1) - at(zero, a, -2)) / (12.0 * h[a] ** 2)
        for b in range(a + 1, d):
            val = _central_diff(
                [_central_diff([at(zero[:a] + (j,) + zero[a + 1:], b, k) for k in ks], h[b], order)
                 for j in ks],
                h[a], order)
            d2g[..., a, b, :, :] = d2g[..., b, a, :, :] = val
    return g, dg, d2g


def _counting(ev):
    def wrapped(x):
        wrapped.calls += 1
        return ev(x)
    wrapped.calls = 0
    return wrapped


BOX3 = Chart("box3", ((0.2, 1.4), (0.1, 2.9), (-1.0, 1.0)), (False, False, True))
SPD3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


@pytest.mark.parametrize("shrink", [0.05, 0.2])
def test_interior_maps_unit_draws_as_the_generator_route_did(shrink):
    # the retired Chart.random_interior(rng, n, shrink) put rng.random((n, d))
    # through this expression; interior takes the draws, so no check needs a generator
    edge = catalog.get("edge_product", base="s2", fiber="s1").collar.boundary_chart
    for chart in (BOX3, edge):
        lo, hi = np.array(chart.bounds, dtype=float).T
        draws = np.random.default_rng(3).random((6, chart.dim))
        want = lo + (shrink + (1 - 2 * shrink) * draws) * (hi - lo)
        got = chart.interior(np.random.default_rng(3).random((6, chart.dim)), shrink)
        assert got.shape == (6, chart.dim) and got.tobytes() == want.tobytes()
        assert np.all((lo < got) & (got < hi))


def _wavy3(x):
    u, v, w = x[..., 0], x[..., 1], x[..., 2]
    out = np.zeros(x.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1.0 + u * u
    out[..., 1, 1] = np.exp(0.3 * np.sin(u * v))
    out[..., 2, 2] = 2.0 + np.cos(w) * v
    out[..., 0, 1] = out[..., 1, 0] = 0.1 * np.sin(v + w)
    out[..., 1, 2] = out[..., 2, 1] = 0.2 * u * np.cos(w)
    return out


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("want_second", [False, True])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
@pytest.mark.parametrize("ev", [_wavy3, lambda x: SPD3], ids=["wavy", "constant"])
def test_jet_is_one_call_and_equals_the_per_offset_reference(order, want_second, batch, ev):
    pts = BOX3.interior(np.random.default_rng(3).random((6, 3)), shrink=0.1)[:int(np.prod(batch))]
    x = pts.reshape(batch + (3,))
    counted = _counting(ev)
    got = _metric_jet(MetricField(BOX3, counted, fd_order=order), x, want_second)
    want = _per_offset_jet(MetricField(BOX3, ev, fd_order=order), x, want_second)
    assert counted.calls == 1
    for a, b in zip(got, want, strict=True):
        assert (a is None and b is None) or (a.shape == b.shape and np.array_equal(a, b))


@pytest.mark.parametrize("order", [2, 4])
def test_jet_diagonal_rounds_as_the_scalar_square(order):
    # a step at which pow(h, 2), as the scalar h[a] ** 2 rounds, and the
    # array square h * h can round apart (axis 1 here)
    m = MetricField(BOX3, _wavy3, fd_rel_step=1.00058e-4, fd_order=order)
    x = BOX3.interior(np.random.default_rng(4).random((5, BOX3.dim)), shrink=0.1)
    assert np.array_equal(_metric_jet(m, x, True)[2], _per_offset_jet(m, x, True)[2])


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_jet_plan_lists_offsets_in_the_documented_order(d, order):
    ks = [k for k, _ in _diff_weights(order)]

    def unit(a, k):
        return [k if i == a else 0 for i in range(d)]

    centre_and_axes = [[0] * d] + [unit(a, k) for a in range(d) for k in ks]
    mixed = [list(np.add(unit(a, j), unit(b, k)))
             for a in range(d) for b in range(a + 1, d) for j in ks for k in ks]
    for want_second, want in ((False, centre_and_axes), (True, centre_and_axes + mixed)):
        weights, offsets, (ia, ib) = _jet_plan(d, order, want_second)
        assert list(weights) == _diff_weights(order)
        assert offsets.shape == (len(want), d) and offsets.tolist() == want
        assert list(zip(ia, ib)) == [(a, b) for a in range(d) for b in range(a + 1, d)]
        assert not offsets.flags.writeable


def test_jet_plan_is_built_once_per_key():
    _jet_plan.cache_clear()
    m = MetricField(BOX3, _wavy3, fd_order=4)
    x = BOX3.interior(np.random.default_rng(5).random((4, BOX3.dim)), shrink=0.1)
    for block in (x, x[:2], x[0]):
        _metric_jet(m, block, want_second=True)
        _metric_jet(m, block, want_second=False)
    riemann_double_form(m, x)
    info = _jet_plan.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert _jet_plan(3, 4, True) is _jet_plan(3, 4, True)


# -- the stencil check: reach, periodic axes and the first failing axis --------------

# a non-periodic box (steps 1e-4 * (2, 4, 1)) with a periodic last axis
BOX_STENCIL = Chart("stencil", ((0.0, 2.0), (-1.0, 3.0), (0.0, 1.0), (0.0, 1.0)),
                    (False, False, False, True))


@pytest.mark.parametrize("order, reach", [(2, 1), (4, 2)])
def test_check_stencil_reach_is_one_or_two_steps(order, reach):
    counted = _counting(lambda x: np.eye(4))
    m = MetricField(BOX_STENCIL, counted, fd_order=order)
    h = m.steps()
    inside = np.array([1.0, 1.0, 0.5, 0.5])
    m.check_stencil(inside)                      # a single point of shape (d,)
    for a, (lo, hi) in enumerate(BOX_STENCIL.bounds[:3]):
        for edge, inward in ((lo, 1.0), (hi, -1.0)):
            pt = inside.copy()
            pt[a] = edge + inward * 1.5 * reach * h[a]
            m.check_stencil(pt)
            pt[a] = edge + inward * 0.5 * reach * h[a]
            with pytest.raises(DomainError, match=f"at axis {a}$"):
                m.check_stencil(pt)
    assert counted.calls == 0


def test_check_stencil_periodic_axis_never_raises():
    m = MetricField(BOX_STENCIL, lambda x: np.eye(4), fd_order=4)
    block = np.array([[1.0, 1.0, 0.5, t] for t in (0.0, 1.0, -5.0, 7.5)])
    m.check_stencil(block)
    m.check_stencil(block.reshape(2, 2, 4))


def test_check_stencil_names_the_first_axis_that_leaves():
    m = MetricField(BOX_STENCIL, lambda x: np.eye(4))
    block = np.array([[1.0, 1.0, 0.5, 0.5], [1.0, 3.0, 0.5, 0.5], [1.0, 1.0, 0.0, 0.5]])
    with pytest.raises(DomainError, match="leaves chart 'stencil' at axis 1$"):
        m.check_stencil(block)
    with pytest.raises(DomainError, match="at axis 2$"):
        m.check_stencil(block[[0, 2]])


def test_stencil_leaving_the_chart_calls_no_evaluator():
    counted = _counting(_wavy3)
    m = MetricField(BOX3, counted)
    block = np.array([[0.8, 1.0, 0.0], [0.2 + 1e-6, 1.0, 0.0]])
    with pytest.raises(DomainError):
        _metric_jet(m, block, want_second=True)
    with pytest.raises(DomainError):
        riemann_double_form(m, block)
    assert counted.calls == 0


def test_broken_evaluator_contract_is_named():
    block = np.array([[1.0, 0.5], [1.5, 2.0], [3.0, 1.0]])
    # a per-point evaluator that builds its batch from len(x)
    m = MetricField(TORUS2, lambda x: _diag2(np.ones(len(x)), 2.0))
    with pytest.raises(MetricError, match=r"\(\.\.\., d\) -> \(\.\.\., d, d\)") as err:
        riemann_double_form(m, block)
    assert "(9, 3, 2)" in str(err.value) and "(9, 2, 2)" in str(err.value)
    # a matrix of the wrong size
    m = MetricField(TORUS2, lambda x: np.eye(3))
    with pytest.raises(MetricError, match=r"points of shape \(2,\) gave a sample of shape \(3, 3\)"):
        m.g(np.zeros(2))


# -- curvature -------------------------------------------------------------------

def test_riemann_flat_zero():
    m = MetricField(POLAR, polar_metric, fd_order=4)
    R, _ = riemann_double_form(m, np.array([0.9, 1.0]))
    assert R.norm_inf() < 1e-8


def test_riemann_unit_sphere_is_half_h_squared():
    chart = Chart("s2", ((0.2, math.pi - 0.2), (0.0, 2 * math.pi)), (False, True))
    m = MetricField(chart, s2_classic, fd_order=4)
    R, _ = riemann_double_form(m, np.array([1.2, 0.5]))
    h = DoubleForm.metric_form(2)
    assert (R - 0.5 * wedge(h, h)).norm_inf() < 1e-8


def _einsum_curvature_coord(g, dg, d2g):
    """The product-rule einsum kernel (second-kind symbols, then lowered by g), as a reference."""
    def christoffel_first(dg):
        return 0.5 * (
            np.einsum("...ijk->...ijk", dg)
            + np.einsum("...jik->...ijk", dg)
            - np.einsum("...kij->...ijk", dg)
        )

    ginv = np.linalg.inv(g)
    g1 = christoffel_first(dg)          # [..., i, j, k]
    gamma = np.einsum("...km,...ijm->...kij", ginv, g1)
    # d_a Gamma^m_{ij} by the product rule; no stacked differencing.
    ginv_a = ginv[..., None, :, :]
    dginv = -(ginv_a @ dg @ ginv_a)       # [..., a, k, n]
    # dg1[..., a, i, j, k] = d_a Gamma1[i, j, k]
    dg1 = 0.5 * (
        np.einsum("...aijk->...aijk", d2g)   # d_a d_i g_{jk}
        + np.einsum("...ajik->...aijk", d2g)  # d_a d_j g_{ik}
        - np.einsum("...akij->...aijk", d2g)  # d_a d_k g_{ij}
    )
    dgamma = np.einsum("...akm,...ijm->...akij", dginv, g1) + np.einsum(
        "...km,...aijm->...akij", ginv, dg1
    )
    # R^m_{ijl} = d_i Gamma^m_{jl} - d_j Gamma^m_{il}
    #           + Gamma^m_{ie} Gamma^e_{jl} - Gamma^m_{je} Gamma^e_{il}
    rup = (
        np.einsum("...imjl->...mijl", dgamma)
        - np.einsum("...jmil->...mijl", dgamma)
        + np.einsum("...mie,...ejl->...mijl", gamma, gamma)
        - np.einsum("...mje,...eil->...mijl", gamma, gamma)
    )
    return np.einsum("...km,...mijl->...ijkl", g, rup)


def _on_pairs(F):
    """F[..., i, j, k, l] read on the pairs i < j, k < l, in the double forms' order."""
    i, j = np.array(multi_indices(F.shape[-1], 2), dtype=np.intp).reshape(-1, 2).T
    return F[..., i[:, None], j[:, None], i, j]


def _einsum_pair_coeffs(F, E):
    """The frame change as four one-index einsum contractions and a gather, as a reference."""
    for _ in range(4):
        F = np.einsum("...ijkl,...ia->...jkla", F, E)
    return _on_pairs(F)


def _from_pairs(F, d):
    """The full F[..., i, j, k, l], skew in (i, j) and in (k, l), of its pair form."""
    i, j = np.array(multi_indices(d, 2), dtype=np.intp).reshape(-1, 2).T
    out = np.zeros(F.shape[:-2] + (d,) * 4)
    for s1, (a, b) in ((1.0, (i, j)), (-1.0, (j, i))):
        for s2, (c, e) in ((1.0, (i, j)), (-1.0, (j, i))):
            out[..., a[:, None], b[:, None], c, e] = s1 * s2 * F
    return out


def _random_jet(seed, d, batch, log_cond):
    """SPD g with condition up to 10**log_cond, and dg, d2g with the symmetries of a jet."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=batch + (d, d)))
    g = (q * 10.0 ** rng.uniform(0.0, log_cond, size=batch + (1, d))) @ np.swapaxes(q, -1, -2)
    dg = rng.normal(size=batch + (d, d, d))
    d2g = rng.normal(size=batch + (d, d, d, d))
    d2g = d2g + np.swapaxes(d2g, -4, -3)
    return (0.5 * (g + np.swapaxes(g, -1, -2)), dg + np.swapaxes(dg, -1, -2),
            d2g + np.swapaxes(d2g, -2, -1))


_kernel_case = (st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
                st.sampled_from([(), (5,), (2, 3)]), st.floats(0.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(*_kernel_case)
def test_curvature_kernel_matches_the_einsum_reference(seed, d, batch, log_cond):
    g, dg, d2g = _random_jet(seed, d, batch, log_cond)
    F = _curvature_pairs(np.linalg.inv(g), dg, d2g)
    full = _einsum_curvature_coord(g, dg, d2g)
    want = _on_pairs(full)
    assert F.shape == want.shape == batch + (len(multi_indices(d, 2)),) * 2
    # F sums terms of size |d2g| and |dg|^2 |g^-1|; at d = 2 its one component
    # can cancel far below them, so round-off is measured on their scale
    terms = max(np.max(np.abs(d2g)), np.max(np.abs(dg)) ** 2 * np.max(np.abs(np.linalg.inv(g))))
    assert np.max(np.abs(F - want)) <= 1e-12 * max(np.max(np.abs(full)), terms)
    E = _frame_of(g)
    M = _pair_minors(E)
    got, ref = np.swapaxes(M, -1, -2) @ want @ M, _einsum_pair_coeffs(_from_pairs(want, d), E)
    assert got.shape == ref.shape == want.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(*_kernel_case)
def test_second_frame_equals_the_transported_einsum(seed, d, batch, log_cond):
    g, dg, d2g = _random_jet(seed, d, batch, log_cond)
    tau = np.eye(d) + 0.3 * np.random.default_rng(seed + 1).normal(size=batch + (d, d))
    F, E = _curvature_pairs(np.linalg.inv(g), dg, d2g), _frame_of(g)
    want = _einsum_pair_coeffs(np.einsum("...ijkl,...kc,...ld->...ijcd", _from_pairs(F, d),
                                         tau, tau), E)
    got = np.swapaxes(_pair_minors(E), -1, -2) @ F @ _pair_minors(tau @ E)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,rho", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 0.5), (4, 1.0)])
def test_constant_curvature_oracle(n, rho):
    (mf,) = catalog.get("sphere", n=n, rho=rho).fields
    mf = replace(mf, fd_order=4)
    rng = np.random.default_rng(5)
    h = DoubleForm.metric_form(n)
    target = (1.0 / (2.0 * rho**2)) * wedge(h, h)
    # sample away from the conformal tails, where the metric is
    # exponentially small and the relative finite-difference floor rises
    for x in mf.chart.interior(rng.random((3, mf.chart.dim)), shrink=0.33):
        R, _ = riemann_double_form(mf, x)
        assert (R - target).norm_inf() < 1e-5


def test_curvature_symmetries_across_catalog():
    rng = np.random.default_rng(9)
    for name, params in [("sphere", {"n": 2}), ("sphere", {"n": 3}),
                         ("sphere", {"n": 4}), ("disk", {"dim": 2}),
                         ("disk", {"dim": 4}), ("catenoid", {}),
                         ("flat_torus", {"n": 3}), ("cone", {"link": "s1", "theta": 0.7})]:
        (mf,) = catalog.get(name, **params).fields
        for x in mf.chart.interior(rng.random((100, mf.chart.dim)), shrink=0.1):
            R, _ = riemann_double_form(mf, x)
            gap = (R - DoubleForm(R.n, 2, 2, R.coeffs.T.copy())).norm_inf()
            assert gap < 1e-6, (name, params)


def test_first_bianchi_on_slices():
    from gblab.doubleform import index_rank

    spec = catalog.get("disk", dim=4)
    sl = Slice(spec.collar, 1.0)
    rng = np.random.default_rng(4)
    chart = spec.collar.boundary_chart
    for y in chart.interior(rng.random((10, chart.dim)), shrink=0.1):
        R = sl.at(y).curvature
        n = R.n

        def F(i, j, k, l):
            si = sj = 1
            if i == j or k == l:
                return 0.0
            if i > j:
                i, j, si = j, i, -1
            if k > l:
                k, l, sj = l, k, -1
            return si * sj * R.coeffs[index_rank(n, (i, j)), index_rank(n, (k, l))]

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        cyc = F(i, j, k, l) + F(j, k, i, l) + F(k, i, j, l)
                        assert abs(cyc) < 1e-6


# -- node blocks ---------------------------------------------------------------------

CUBE3 = Chart("cube3", ((-1.0, 1.0),) * 3, (False,) * 3)


def _rational_metric(c):
    """SPD metric with rational entries: exact elementwise arithmetic, so a
    block and single points see the same samples bit for bit."""
    def ev(x):
        x = np.asarray(x)
        g = np.einsum("...i,...j->...ij", x, x) * (c / (1.0 + np.sum(x * x, axis=-1)))[..., None, None]
        return g + (1.0 + x * x)[..., None, :] * np.eye(x.shape[-1])
    return ev


_block = st.lists(st.tuples(*[st.floats(-0.9, 0.9)] * 3), min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(_block, st.floats(0.0, 2.0), st.sampled_from([2, 4]))
def test_riemann_on_a_block_equals_per_point_calls(pts, c, order):
    m = MetricField(CUBE3, _rational_metric(c), fd_order=order)
    X = np.array(pts)
    R, E = riemann_double_form(m, X)
    assert R.coeffs.shape == (len(X), 3, 3) and E.shape == (len(X), 3, 3)
    for i, x in enumerate(X):
        Ri, Ei = riemann_double_form(m, x)
        scale = max(1.0, np.max(np.abs(Ri.coeffs)))
        assert np.max(np.abs(R.coeffs[i] - Ri.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(E[i] - Ei)) <= 1e-12 * np.max(np.abs(Ei))


@pytest.mark.parametrize("geometry", ["s4", "rational"])
def test_curvature_symmetries_on_a_block(geometry):
    rng = np.random.default_rng(11)
    if geometry == "s4":
        (mf,) = catalog.get("sphere", n=4).fields
        chart = mf.chart
    else:
        chart, mf = CUBE3, MetricField(CUBE3, _rational_metric(1.5))
    x = chart.interior(rng.random((64, chart.dim)), shrink=0.1)
    g, dg, d2g = _metric_jet(mf, x, want_second=True)
    pairs = _curvature_pairs(np.linalg.inv(g), dg, d2g)
    assert pairs.shape == (64,) + (len(multi_indices(chart.dim, 2)),) * 2
    scale = np.max(np.abs(pairs), axis=(-2, -1), keepdims=True)        # per node
    assert np.all(np.abs(pairs - np.swapaxes(pairs, -1, -2)) <= 1e-10 * scale)
    # R(d_i, d_j) d_l + R(d_j, d_l) d_i + R(d_l, d_i) d_j = 0, on the full F of
    # the pair form; at d = 4 its one component beyond pair symmetry is
    # F_(01)(23) - F_(02)(13) + F_(03)(12)
    F, scale = _from_pairs(pairs, chart.dim), scale[..., None, None]
    bianchi = F + np.einsum("...jlki->...ijkl", F) + np.einsum("...likj->...ijkl", F)
    assert np.all(np.abs(bianchi) <= 1e-10 * scale)


@pytest.mark.parametrize("d", [3, 4])
def test_riemann_double_form_equals_the_einsum_route_on_a_non_diagonal_metric(d):
    # the whole chain, pair kernel and minors of the returned triangular frame,
    # against the einsum kernel and frame change on the same jet
    chart = Chart("box", ((-1.0, 1.0),) * d, (False,) * d)
    mf = MetricField(chart, _rational_metric(1.5))
    x = chart.interior(np.random.default_rng(d).random((64, chart.dim)), shrink=0.1)
    R, E = riemann_double_form(mf, x)
    g, dg, d2g = _metric_jet(mf, x, want_second=True)
    ref = _einsum_pair_coeffs(_einsum_curvature_coord(g, dg, d2g), E)
    assert _amax(E - np.triu(E)) == 0.0 and _amax(E - np.diag(np.diagonal(E))) > 0.1
    assert _amax(R.coeffs - ref) <= 1e-12 * _amax(ref)


@settings(max_examples=30, deadline=None)
@given(_block, st.floats(0.0, 2.0), st.floats(0.2, 1.0))
def test_slice_on_a_block_equals_per_point_calls(pts, c, r):
    ev = _rational_metric(c)
    collar = CollarMetric(CUBE3, (0.0, 1.5),
                          lambda r: (lambda y: (1.0 + np.asarray(r) ** 2)[..., None, None] * ev(y)))
    Y = np.array(pts)
    block = Slice(collar, r).at(Y)
    for i, y in enumerate(Y):
        one = Slice(collar, r).at(y)
        for got, want in ((block.curvature.coeffs[i], one.curvature.coeffs),
                          (block.second_fundamental.coeffs[i], one.second_fundamental.coeffs),
                          (block.frame[i], one.frame), (block.sqrt_det[i], one.sqrt_det)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("order", [2, 4])
def test_slice_takes_its_frame_from_the_curvature_jet(order):
    ev = _counting(_rational_metric(0.7))
    collar = CollarMetric(CUBE3, (0.0, 1.5),
                          lambda r: (lambda y: (1.0 + np.asarray(r) ** 2)[..., None, None] * ev(y)),
                          fd_order=order)
    Y = CUBE3.interior(np.random.default_rng(2).random((6, CUBE3.dim)), shrink=0.1)
    sd = Slice(collar, 0.6).at(Y)
    # one evaluator call for the curvature jet (its center gives E), and one
    # for dh on the radial stencil's points stacked
    assert ev.calls == 2
    h = collar.radial_metric(0.6)(Y)
    assert np.max(np.abs(np.swapaxes(sd.frame, -1, -2) @ h @ sd.frame - np.eye(3))) < 1e-12
    assert np.max(np.abs(sd.sqrt_det / np.sqrt(np.linalg.det(h)) - 1.0)) < 1e-13


def test_one_bad_node_fails_the_block():
    pts = np.array([[1.0, 0.5], [1.5, 2.0], [0.6, 1.0]])
    # non-SPD at the last node only
    bent = MetricField(POLAR, lambda x: _diag2(np.ones(x.shape[:-1]), x[..., 0] - 0.8))
    with pytest.raises(MetricError):
        riemann_double_form(bent, pts)
    riemann_double_form(bent, pts[:2])
    # the stencil of the last node leaves the chart
    m = MetricField(POLAR, polar_metric)
    edge = np.vstack([pts[:2], [[0.1 + 1e-6, 1.0]]])
    with pytest.raises(DomainError):
        riemann_double_form(m, edge)
    riemann_double_form(m, edge[:2])


def test_bad_node_is_named_through_the_quadrature():
    from gblab.quadrature import integrate_chart, mesh_for_chart

    chart = Chart("strip", ((0.0, 2.0), (0.0, 2 * math.pi)), (False, True))
    # the metric loses positive definiteness past x0 = 1.9 (last Gauss panel)
    m = MetricField(chart, lambda x: _diag2(np.ones(x.shape[:-1]), 1.9 - x[..., 0]))

    def dens(x):
        R, _ = riemann_double_form(m, x)
        return R.coeffs[..., 0, 0]

    with pytest.raises(MetricError, match=r"\(at node \(1\.9"):
        integrate_chart(dens, chart, mesh_for_chart(chart, 1))


# -- frames ------------------------------------------------------------------------

def test_frame_identity_and_diagonal():
    m = MetricField(TORUS2, lambda x: np.eye(2))
    assert np.allclose(_frame_of(m.g(np.zeros(2))), np.eye(2))
    m = MetricField(TORUS2, lambda x: np.diag([4.0, 9.0]))
    E = _frame_of(m.g(np.zeros(2)))
    assert np.allclose(E, np.diag([0.5, 1.0 / 3.0]))


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_frame_solves_the_cholesky_factor_and_its_diagonal_gives_sqrt_det(d):
    # stacks of SPD g up to condition 1e6: E against the LAPACK inverse of
    # the same Cholesky factor, within 2 cond(g) eps of max |E| (at most
    # 0.14 cond eps measured), and E's diagonal against sqrt(det g) to 1e-13,
    # or to 4 cond eps where det g itself is that ill-conditioned (at most
    # 1.5 cond eps measured, 2.0e-11 at condition 1e6)
    rng = np.random.default_rng(100 + d)
    q, _ = np.linalg.qr(rng.normal(size=(50, d, d)))
    eig = 10.0 ** rng.uniform(-3.0, 3.0, size=(50, 1, d))
    eig[:6, 0, 0], eig[:6, 0, -1] = 1e-3, 1e3
    g = q * eig @ np.swapaxes(q, -1, -2)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    cond = np.linalg.cond(g)
    assert np.max(cond) <= 1.01e6 and (d == 1 or np.max(cond) > 1e5)
    E = _frame_of(g)
    want = np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
    assert np.array_equal(E, np.triu(E)) and np.all(np.diagonal(E, axis1=-2, axis2=-1) > 0)
    err = np.max(np.abs(E - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))
    eps = np.finfo(float).eps
    assert np.all(err <= 2.0 * cond * eps)
    rel = np.abs(_sqrt_det(E) / np.sqrt(np.linalg.det(g)) - 1.0)
    assert np.all(rel <= np.maximum(1e-13, 4.0 * cond * eps))


def test_frame_random_spd_residual():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    spd = A @ A.T + 4 * np.eye(4)
    chart = Chart("c4", (((-1.0, 1.0),) * 4), (False,) * 4)
    m = MetricField(chart, lambda x: spd)
    E = _frame_of(m.g(np.zeros(4)))
    assert np.max(np.abs(E.T @ spd @ E - np.eye(4))) < 1e-12
    assert np.linalg.det(E) > 0


# -- slices --------------------------------------------------------------------------

def test_slice_product_collar_vanishing_ii():
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    collar = CollarMetric(circle, (0.0, 1.0), lambda r: (lambda y: np.eye(1)))
    sd = Slice(collar, 0.5).at(np.array([1.0]))
    assert sd.second_fundamental.norm_inf() < 1e-12


def test_slice_flat_cone_ii():
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    collar = CollarMetric(circle, (0.0, 1.0),
                          lambda r: (lambda y: np.asarray(r)[..., None, None] ** 2 * np.eye(1)))
    r = 0.37
    sd = Slice(collar, r).at(np.array([2.0]))
    assert sd.second_fundamental.coeffs[0, 0] == pytest.approx(-1.0 / r, rel=1e-10)


def test_radial_rate_names_a_broken_r_contract():
    # r ** 2 * eye(1) turns an array r of shape (K,) into a (1, K) sample
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    collar = CollarMetric(circle, (0.0, 1.0), lambda r: (lambda y: r**2 * np.eye(1)))
    with pytest.raises(MetricError, match="not a square matrix"):
        Slice(collar, 0.37).at(np.array([2.0]))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("batch", [(), (4,), (2, 2)])
def test_radial_rate_equals_the_per_offset_reference(order, batch):
    collar = replace(catalog.get("edge_horizontal").collar, fd_order=order)
    d = collar.boundary_chart.dim
    y = collar.boundary_chart.interior(np.random.default_rng(6).random((4, d)), shrink=0.1)
    y = y[:int(np.prod(batch))].reshape(batch + (d,))
    for r in (0.0, 0.3):
        h = collar.radial_step(r)
        want = _central_diff([collar.radial_metric(r + k * h)(y) for k, _ in _diff_weights(order)],
                             h, order)
        assert np.array_equal(collar.radial_rate(r, y), want)


@pytest.mark.parametrize("call", [
    lambda c, y: c.radial_rate(0.0, y),
    lambda c, y: c.radial_rate(0.05, y),
    lambda c, y: Slice(c, 0.05).at(y),
    lambda c, y: phi_frame(c, 0.0, y),
    lambda c, y: phi_frame(c, 0.05, y),
    lambda c, y: phi_conjugated_connection(c, 0.05, y),
], ids=["radial_rate-0", "radial_rate", "Slice.at", "phi_frame-0", "phi_frame",
        "phi_conjugated_connection"])
def test_the_collars_relative_step_sets_every_radial_step(call, monkeypatch):
    # the radii each route samples, through radial_metric and through h^phi
    seen = {}
    collar = catalog.get("geometric_cone", link="s1", theta=1.0).collar
    radial_metric, h_phi = collar.radial_metric, geometry._h_phi_matrix

    def recorded_radial_metric(r):
        seen.setdefault("radial_metric", []).append(np.ravel(r))
        return radial_metric(r)

    def recorded_h_phi(c, r, y):
        seen.setdefault("h_phi", []).append(np.ravel(r))
        return h_phi(c, r, y)

    monkeypatch.setattr(geometry, "_h_phi_matrix", recorded_h_phi)
    collar = replace(collar, radial_metric=recorded_radial_metric)
    y = np.array([[1.0], [2.5]])

    def spreads(c):
        seen.clear()
        call(c, y)
        return {key: np.ptp(np.concatenate(rs)) for key, rs in seen.items()}

    coarse, fine = spreads(collar), spreads(replace(collar, fd_rel_step=5e-5))
    assert coarse.keys() == fine.keys() and all(v > 0.0 for v in coarse.values())
    for key, spread in coarse.items():
        assert fine[key] == pytest.approx(0.5 * spread, rel=1e-9), key


def test_slice_unit_sphere_boundary_of_disk():
    spec = catalog.get("disk", dim=4)
    sd = Slice(spec.collar, 1.0).at(np.array([0.7, 1.0, 2.0]))
    h = DoubleForm.metric_form(3)
    assert (sd.second_fundamental - (-1.0) * h).norm_inf() < 1e-9
    # Gauss relation on the slice: R = II ^ II / 2
    gauss = 0.5 * wedge(sd.second_fundamental, sd.second_fundamental)
    assert (sd.curvature - gauss).norm_inf() < 1e-5


def test_slice_ii_matches_full_metric_christoffels():
    spec = catalog.get("disk", dim=2)
    collar = spec.collar
    r, y = 0.8, np.array([1.3])
    sd = Slice(collar, r).at(y)
    full = collar.full_metric()
    x = np.concatenate(([r], y))
    gam = christoffel(full, x)
    gfull = full.g(x)
    # II(X, Y) = -<nabla_X d_r, Y> in the slice orthonormal frame
    ii_coord = -np.einsum("im,mj->ij", gam[1:, :, 0], gfull[:, 1:])
    E = sd.frame
    assert np.max(np.abs(E.T @ ii_coord @ E - sd.second_fundamental.coeffs)) < 1e-6


def test_slice_radius_near_ends_rejected():
    spec = catalog.get("disk", dim=2)
    with pytest.raises(DomainError):
        Slice(spec.collar, 1.2499999)


# -- metric path gauge -----------------------------------------------------------------

def test_gauge_constant_path_is_trivial():
    m = MetricField(TORUS2, lambda x: np.diag([1.0, 4.0]))
    gauge = metric_path_gauge(m, m, np.array([1.0, 2.0]))
    for td in gauge.theta_dot.coeffs:
        assert np.max(np.abs(td)) < 1e-12
    # the curvature is computed only for d > 2: a curved metric on a 4-box,
    # where every s node must give the metric's own curvature
    box4 = Chart("box4", ((-1.0, 1.0),) * 4, (False,) * 4)
    m4 = MetricField(box4, lambda x: (1.0 + 0.3 * np.sin(x[..., :1] + x))[..., None, :]
                     * np.eye(4))
    x = np.array([0.1, -0.3, 0.4, 0.2])
    gauge = metric_path_gauge(m4, m4, x)
    want = riemann_double_form(m4, x)[0]
    assert want.norm_inf() > 1e-2
    assert gauge.curvature.coeffs.shape == (geometry.PATH_STEPS + 1,) + want.coeffs.shape
    assert np.max(np.abs(gauge.theta_dot.coeffs)) < 1e-12
    assert _amax(gauge.curvature.coeffs - want.coeffs) < 1e-12 * want.norm_inf()


def test_gauge_frame_gives_sqrt_det_g0():
    # a non-diagonal g0 on a block: 1 / det E0 stands in for sqrt(det g0)
    box3 = Chart("box3", ((-1.0, 1.0),) * 3, (False,) * 3)

    def ev0(x):
        g = np.zeros(x.shape[:-1] + (3, 3)) + np.diag([1.5, 0.8, 2.0])
        g[..., 0, 1] = g[..., 1, 0] = 0.4 * np.sin(x[..., 0]) * x[..., 1]
        g[..., 2, 2] += x[..., 2] ** 2
        return g

    g0 = MetricField(box3, ev0)
    g1 = MetricField(box3, lambda x: 1.3 * ev0(x))
    block = np.array([[0.1, -0.3, 0.4], [0.5, 0.7, -0.6], [-0.8, 0.2, 0.9]])
    gauge = metric_path_gauge(g0, g1, block)
    assert gauge.frame.shape == (3, 3, 3)
    want = np.sqrt(np.linalg.det(ev0(block)))
    assert np.max(np.abs(1.0 / np.linalg.det(gauge.frame) - want)) <= 1e-14
    # the frame of the eigenbasis's centre row is the Cholesky frame, bit for bit
    assert np.array_equal(gauge.frame, _frame_of(g0.g(block)))


def test_collar_rejects_a_bad_radial_interval():
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    for interval in ((1.0, 0.4), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="radial interval"):
            CollarMetric(circle, interval, lambda r: (lambda y: np.eye(1)))


def test_gauge_linear_map_pair_flat():
    lam = np.array([[1.0, 0.3], [0.0, 0.8]])
    g1m = lam.T @ lam
    g0 = MetricField(TORUS2, lambda x: np.eye(2))
    g1 = MetricField(TORUS2, lambda x: g1m)
    gauge = metric_path_gauge(g0, g1, np.array([0.3, 0.4]))
    for td in gauge.theta_dot.coeffs:
        assert np.max(np.abs(td)) < 1e-12


def test_gauge_theta_skew_in_frame():
    g0 = MetricField(TORUS2, lambda x: np.eye(2))

    def g1_ev(x):
        return np.exp(0.4 * np.sin(x[..., 0]) * np.cos(x[..., 1]))[..., None, None] * np.eye(2)

    g1 = MetricField(TORUS2, g1_ev)
    x = np.array([0.9, 1.7])
    gauge = metric_path_gauge(g0, g1, x)
    # theta_dot is the (1,2) form of its pairs i < j, one per s node, and
    # the coordinate route's theta_dot is skew to round-off there
    td = gauge.theta_dot
    assert (td.n, td.p, td.q) == (2, 1, 2)
    assert td.coeffs.shape == (geometry.PATH_STEPS + 1, 2, 1)
    want = _first_variation_gauge(g0, g1, x)[0]
    assert _amax(want + np.swapaxes(want, -1, -2)) < 1e-8
    _assert_per_node([(td.coeffs, _skew_pairs(want))])
    assert _amax(td.coeffs) > 1e-2


def test_gauge_rejects_bad_paths():
    g0 = MetricField(TORUS2, lambda x: np.eye(2))
    g1 = MetricField(TORUS2, lambda x: -3.0 * np.eye(2))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, g1, np.array([0.1, 0.1]))
    # a g0 that is not positive definite fails its Cholesky frame (_frame_of)
    with pytest.raises(MetricError, match="positive definite"):
        metric_path_gauge(g1, g0, np.array([0.1, 0.1]))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, replace(g0, fd_order=4), np.array([0.1, 0.1]))
    # endpoints on charts with the same bounds but other periodic flags
    square = Chart("square", ((0.0, 1.0),) * 2, (True, True))
    flat = MetricField(square, lambda x: np.eye(2))
    open_square = replace(flat, chart=replace(square, periodic=(False, False)))
    with pytest.raises(MetricError, match="same chart"):
        metric_path_gauge(flat, open_square, np.array([0.5, 0.5]))
    # one non-SPD endpoint sample inside a block fails the whole block
    pts = np.array([[1.0, 0.5], [1.5, 2.0], [3.0, 1.0]])
    bent = MetricField(TORUS2, lambda x: _diag2(np.ones(x.shape[:-1]), 2.5 - x[..., 0]))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, bent, pts)
    metric_path_gauge(g0, bent, pts[:2])


def test_path_eigenbasis_turns_an_eigh_failure_into_a_metric_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(MetricError, match="positive definiteness along the path"):
        _path_eigenbasis(np.eye(2), np.eye(2))


@pytest.mark.parametrize("d", [2, 4])
def test_gauge_samples_each_stencil_point_once(d):
    # d = 2 skips the curvature jet, d = 4 takes second derivatives too
    torus = Chart(f"t{d}", ((0.0, 2 * math.pi),) * d, (True,) * d)
    ev0 = _counting(lambda x: np.eye(d))
    ev1 = _counting(lambda x: (1.5 + 0.2 * np.sin(x[..., 0]))[..., None, None] * np.eye(d))
    block = np.array([[0.9, 1.7, 0.2, 3.0], [2.0, 0.3, 1.1, 4.4], [4.1, 5.5, 2.6, 0.8]])[:, :d]
    gauge = metric_path_gauge(MetricField(torus, ev0), MetricField(torus, ev1), block)
    assert (ev0.calls, ev1.calls) == (1, 1)
    S = geometry.PATH_STEPS + 1
    assert gauge.theta_dot.coeffs.shape == (S, 3, d, math.comb(d, 2))
    assert gauge.curvature.coeffs.shape[:-2] == ((S, 3) if d == 4 else ())


def _spd_pair(seed, d, log_cond):
    """Two random SPD matrices, each with condition number up to 10**log_cond."""
    rng = np.random.default_rng(seed)

    def spd():
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return (q * 10.0 ** rng.uniform(0.0, log_cond, size=d)) @ q.T

    g0, g1 = spd(), spd()
    return 0.5 * (g0 + g0.T), 0.5 * (g1 + g1.T)


def _amax(a):
    return np.max(np.abs(a))


def _transport(g0, g1, s):
    """tau = A diag(q) A^{-1} and dtau/ds = A diag(p q) A^{-1} of a stack, A^{-1} = A^T g0."""
    A, lam = _path_eigenbasis(g0, g1)[:2]
    _, q, p = _path_scalings(lam, s)
    Ainv = np.swapaxes(A, -1, -2) @ g0
    return (A * q[..., None, :]) @ Ainv, (A * (p * q)[..., None, :]) @ Ainv


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 3.0),
       st.floats(0.0, 1.0))
def test_closed_form_transport_solves_the_transport_equation(seed, d, log_cond, s):
    # pairs up to condition 1e3 each, so the generalized eigenvalues spread
    # over up to six decades; a stack of two pairs
    pairs = [_spd_pair(seed + i, d, log_cond) for i in range(2)]
    g0 = np.stack([p[0] for p in pairs])
    g1 = np.stack([p[1] for p in pairs])
    tau, rate = _transport(g0, g1, s)
    gs = (1.0 - s) * g0 + s * g1
    for i in range(2):
        # tau^T g_s tau = g0: the transport is an isometry onto (TM, g0)
        iso = tau[i].T @ gs[i] @ tau[i] - g0[i]
        assert _amax(iso) <= 1e-12 * _amax(tau[i]) ** 2 * _amax(gs[i])
        # dtau/ds + 1/2 g_s^{-1} gdot tau = 0, multiplied through by g_s
        ode = gs[i] @ rate[i] + 0.5 * (g1[i] - g0[i]) @ tau[i]
        scale = _amax(gs[i]) * _amax(rate[i]) + max(_amax(g0[i]), _amax(g1[i])) * _amax(tau[i])
        assert _amax(ode) <= 1e-12 * scale
    if s == 0.0:
        assert _amax(tau - np.eye(d)) <= 1e-12 * _amax(tau)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_path_inverses_match_the_inverses_they_replace(d, seed):
    g0, g1 = _spd_pair(seed, d, 1.0)
    A, lam, E, Q = _path_eigenbasis(g0, g1)
    At = A.T
    Ainv = At @ g0
    eye = np.eye(d)
    # E = L^{-T} is the Cholesky frame of g0, Q = E^{-1} A is orthogonal,
    # and A^T g0 A = Id gives A^{-1} = A^T g0
    assert np.array_equal(E, _frame_of(g0))
    assert _amax(E.T @ g0 @ E - eye) <= 1e-12
    assert _amax(Q.T @ Q - eye) <= 1e-12
    assert _amax(np.linalg.inv(E) @ A - Q) <= 1e-12
    assert _amax(Ainv - np.linalg.inv(A)) <= 1e-12 * _amax(Ainv)

    def gs_inverse(s):
        return np.linalg.inv((1.0 - s) * g0 + s * g1)

    for s in np.linspace(0.0, 1.0, geometry.PATH_STEPS + 1):
        D, q, p = _path_scalings(lam, s)
        tau = (A * q) @ Ainv
        # g_s^{-1} = A diag(1/D) A^T and tau^{-1} = A diag(1/q) A^{-1}
        gs_inv, tauinv = (A / D) @ At, (A / q) @ Ainv
        assert _amax(gs_inv - gs_inverse(s)) <= 1e-12 * _amax(gs_inv)
        assert _amax(gs_inv @ ((1.0 - s) * g0 + s * g1) - eye) <= 1e-12
        assert _amax(tauinv - np.linalg.inv(tau)) <= 1e-12 * _amax(tauinv)
        assert _amax(tauinv @ tau - eye) <= 1e-12
        # d/ds g_s^{-1} = A diag(2p/D) A^T against the product formula it
        # replaces, and (to its truncation) a fourth-order central difference
        # of inv(g_s) in s
        gs_inv_dot = (A * (2.0 * p / D)) @ At
        want = -gs_inverse(s) @ (g1 - g0) @ gs_inverse(s)
        assert _amax(gs_inv_dot - want) <= 1e-12 * _amax(want)
        fd = _central_diff([gs_inverse(s + k * 5e-4) for k, _ in _diff_weights(4)], 5e-4, 4)
        assert _amax(gs_inv_dot - fd) <= 1e-8 * _amax(want)


BOX2 = Chart("box2", ((-1.0, 1.0),) * 2, (False,) * 2)
BOX4 = Chart("box4", ((-1.0, 1.0),) * 4, (False,) * 4)


def _scaled(ev, a):
    """ev times the rational factor 1 + a x_0^2."""
    return lambda x: (1.0 + a * np.asarray(x)[..., 0] ** 2)[..., None, None] * ev(x)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-0.9, 0.9)] * 4), min_size=1, max_size=4),
       st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.sampled_from([2, 4]))
def test_gauge_on_a_block_equals_per_point_calls(pts, c, a, d):
    chart = BOX2 if d == 2 else BOX4
    ev = _rational_metric(c)
    g0 = MetricField(chart, ev)
    g1 = MetricField(chart, _scaled(_rational_metric(c + 0.5), a))
    X = np.array(pts)[:, :d]
    block = metric_path_gauge(g0, g1, X)
    form = path_transgression_form(block)
    assert form.coeffs.shape[0] == len(X)
    for i, x in enumerate(X):
        one = metric_path_gauge(g0, g1, x)
        want = path_transgression_form(one).coeffs
        assert _amax(form.coeffs[i] - want) <= 1e-12 * max(1.0, _amax(want))
        pairs = [(block.theta_dot.coeffs[:, i], one.theta_dot.coeffs)]
        if d == 4:
            pairs.append((block.curvature.coeffs[:, i], one.curvature.coeffs))
        for gk, rk in pairs:
            assert gk.shape == rk.shape
            for n in range(geometry.PATH_STEPS + 1):
                assert _amax(gk[n] - rk[n]) <= 1e-12 * max(1.0, _amax(rk[n]))


def test_gauge_carries_its_composite_simpson_rule():
    g = MetricField(BOX2, _rational_metric(0.7))
    gauge = metric_path_gauge(g, g, np.array([0.3, -0.2]))
    s, n = gauge.s_nodes, geometry.PATH_STEPS
    assert s.tolist() == np.linspace(0.0, 1.0, n + 1).tolist()
    # weights (1, 4, 2, ..., 2, 4, 1) h / 3, rounded as w * h / 3.0
    want = [(1.0 if k in (0, n) else 4.0 if k % 2 else 2.0) * (s[1] - s[0]) / 3.0
            for k in range(n + 1)]
    assert gauge.s_weights.tolist() == want
    # exact on cubics, up to the rounding of the sum
    assert np.sum(gauge.s_weights * s**3) == pytest.approx(0.25, rel=1e-15)
    # one read-only rule, shared by every gauge
    assert s is geometry.S_NODES and gauge.s_weights is geometry.S_WEIGHTS
    assert not (s.flags.writeable or gauge.s_weights.flags.writeable)


def test_a_slice_takes_the_collar_radii_without_the_points():
    y = np.array([[0.3, 1.0, 2.0], [0.5, 2.0, 4.0]])
    for r in (0.4, np.array(quadrature.geometric_schedule(0.5))):
        got, want = _collar_radii(r, y), _collar_points(r, y)[:2]
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    with pytest.raises(DomainError, match="number or a 1-D array"):
        _collar_radii(np.ones((2, 2)), y)


# three points of a 4-box; a 2-box takes their first two coordinates
GAUGE_X = np.array([[0.3, -0.2, 0.5, 0.1], [-0.6, 0.4, 0.0, 0.7], [0.1, 0.8, -0.5, -0.3]])


def _first_variation_gauge(g0, g1, x):
    """theta_dot and curvature by the first variation of the connection, in coordinates.

    At each s node: g_s^{-1}, A^{-1} and tau^{-1} by np.linalg.inv, tau = A
    diag(D^(-1/2)) A^{-1}, X = -1/2 g_s^{-1} gdot with dX = 1/2 g_s^{-1} dg_s
    g_s^{-1} gdot - 1/2 g_s^{-1} d gdot, omega_s and its s-derivative from
    _second_kind; theta_dot = tau^{-1} (dX + [omega_s, X] + omega_dot_s) tau,
    moved to the g0 frame E0.
    """
    d = g0.chart.dim
    curved = d > 2
    c0, dg0, d2g0 = _metric_jet(g0, x, want_second=curved)
    c1, dg1, d2g1 = _metric_jet(g1, x, want_second=curved)
    A, lam, E0, _ = _path_eigenbasis(c0, c1)
    Ainv, E0inv = np.linalg.inv(A), np.linalg.inv(E0)
    g_dot, dg_dot = c1 - c0, dg1 - dg0

    def connection(ginv, dg):            # [..., a, i, j] = Gamma^i_aj
        return np.swapaxes(_second_kind(ginv, _christoffel_first(dg)), -1, -2)

    def on_a(m):                         # a matrix per point, broadcast over the direction a
        return m[..., None, :, :]

    thetas, curvs = [], []
    for s in np.linspace(0.0, 1.0, geometry.PATH_STEPS + 1):
        tau = (A * ((1.0 + s * (lam - 1.0)) ** -0.5)[..., None, :]) @ Ainv
        gs_inv = np.linalg.inv((1.0 - s) * c0 + s * c1)
        dg_s = (1.0 - s) * dg0 + s * dg1
        X = -0.5 * gs_inv @ g_dot
        dX = 0.5 * on_a(gs_inv) @ dg_s @ on_a(gs_inv @ g_dot) - 0.5 * on_a(gs_inv) @ dg_dot
        omega = connection(gs_inv, dg_s)
        omega_dot = connection(-gs_inv @ g_dot @ gs_inv, dg_s) + connection(gs_inv, dg_dot)
        inner = dX + omega @ on_a(X) - on_a(X) @ omega + omega_dot
        framed = on_a(E0inv @ np.linalg.inv(tau)) @ inner @ on_a(tau @ E0)
        on = np.swapaxes(E0, -1, -2) @ framed.reshape(framed.shape[:-3] + (d, d * d))
        thetas.append(on.reshape(framed.shape))
        if curved:
            F = _curvature_pairs(gs_inv, dg_s, (1.0 - s) * d2g0 + s * d2g1)
            curvs.append(np.swapaxes(_pair_minors(E0), -1, -2) @ F @ _pair_minors(tau @ E0))
    return np.stack(thetas), (np.stack(curvs) if curved else None)


def _inverting_gauge(g0, g1, x):
    """theta_dot by the per-node route the eigenbasis gauge replaced.

    At each s node: tau and dtau/ds on the centre and every first-derivative
    stencil point as A diag(D^(-1/2)) A^{-1} and its s-derivative,
    differenced by _along_axes; g_s^{-1} and tau^{-1} by np.linalg.inv;
    theta_dot = d/ds tau^{-1}(d tau + omega_s tau).  The difference of tau
    leaves its truncation error in the symmetric part of theta_dot.
    """
    d = g0.chart.dim
    h, order = g0.steps(), g0.fd_order
    _, dg0, _ = _metric_jet(g0, x, want_second=False)
    _, dg1, _ = _metric_jet(g1, x, want_second=False)
    offsets = _jet_plan(d, order, False)[1]
    stencil = x + h * offsets.reshape((len(offsets),) + (1,) * (x.ndim - 1) + (d,))
    rows0, rows1 = g0.g(stencil), g1.g(stencil)
    A, lam, E, _ = _path_eigenbasis(rows0, rows1)
    Ainv = np.linalg.inv(A)
    G0, G1, E0 = rows0[0], rows1[0], E[0]
    E0inv = np.linalg.inv(E0)

    def connection(ginv, gamma1):
        return np.swapaxes(_second_kind(ginv, gamma1), -1, -2)

    gamma1_dot = _christoffel_first(dg1 - dg0)
    thetas = []
    for s in np.linspace(0.0, 1.0, geometry.PATH_STEPS + 1):
        D = 1.0 + s * (lam - 1.0)
        taus = (A * (D ** -0.5)[..., None, :]) @ Ainv
        rates = (A * (-0.5 * (lam - 1.0) * D ** -1.5)[..., None, :]) @ Ainv
        tau, taudot = taus[0], rates[0]
        tauinv = np.linalg.inv(tau)
        gs_inv = np.linalg.inv((1.0 - s) * G0 + s * G1)
        gs_inv_dot = -gs_inv @ (G1 - G0) @ gs_inv
        gamma1_s = _christoffel_first((1.0 - s) * dg0 + s * dg1)
        omegas = connection(gs_inv, gamma1_s)
        omegas_dot = connection(gs_inv_dot, gamma1_s) + connection(gs_inv, gamma1_dot)
        T, Tinv = tau[..., None, :, :], tauinv[..., None, :, :]
        core = _along_axes(taus[1:], h, order) + omegas @ T
        tid = -(tauinv @ taudot @ tauinv)[..., None, :, :]
        rate_core = (_along_axes(rates[1:], h, order) + omegas_dot @ T
                     + omegas @ taudot[..., None, :, :])
        inner = E0inv[..., None, :, :] @ (tid @ core + Tinv @ rate_core) @ E0[..., None, :, :]
        on = np.swapaxes(E0, -1, -2) @ inner.reshape(inner.shape[:-3] + (d, d * d))
        thetas.append(on.reshape(inner.shape))
    return np.stack(thetas)


def _skew(theta):
    return 0.5 * (theta - np.swapaxes(theta, -1, -2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pair_basis_carries_skew_pairs_through_an_orthogonal_map(d):
    # the pairs run in the (1,2) forms' order, and the gauge's Lambda^2 Q,
    # the 2x2 minors of Q^T, maps the pairs of a skew X to those of Q X Q^T
    # and is itself orthogonal
    rng = np.random.default_rng(d)
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    X = rng.normal(size=(d, d))
    X -= X.T
    i, j = _pair_plan(d)[0]
    assert list(zip(i.tolist(), j.tolist())) == list(multi_indices(d, 2))
    rot = _pair_minors(Q.T)
    assert _amax(X[i, j] @ rot - (Q @ X @ Q.T)[i, j]) <= 1e-14 * _amax(X)
    assert _amax(rot.T @ rot - np.eye(i.size)) <= 1e-14


def _skew_pairs(theta):
    """The pairs i < j of theta's skew part [..., a, i, j], as (1,2) coefficients [..., a, i<j]."""
    i, j = np.array(multi_indices(theta.shape[-1], 2), dtype=np.intp).reshape(-1, 2).T
    return 0.5 * (theta[..., i, j] - theta[..., j, i])


def _assert_per_node(pairs):
    for gk, rk in pairs:
        assert gk.shape == rk.shape
        for n in range(geometry.PATH_STEPS + 1):
            assert _amax(gk[n] - rk[n]) <= 1e-12 * max(1.0, _amax(rk[n]))


def _assert_gauge_matches_the_references(g0, g1, x):
    """theta_dot's pairs and curvature against _first_variation_gauge; at stencil
    order 4, theta_dot's pairs against _inverting_gauge too."""
    got = metric_path_gauge(g0, g1, x)
    theta_dot, curvature = _first_variation_gauge(g0, g1, x)
    pairs = [(got.theta_dot.coeffs, _skew_pairs(theta_dot))]
    if curvature is not None:
        pairs.append((got.curvature.coeffs, curvature))
    _assert_per_node(pairs)
    if g0.fd_order == 4:
        _assert_per_node([(got.theta_dot.coeffs, _skew_pairs(_inverting_gauge(g0, g1, x)))])
    return got


def _box_block(d, order):
    """A path on a d-box whose endpoints are not conformal, at the three GAUGE_X points."""
    chart = BOX2 if d == 2 else BOX4
    g0 = MetricField(chart, _rational_metric(0.7), fd_order=order)
    g1 = MetricField(chart, _scaled(_rational_metric(1.3), 0.6), fd_order=order)
    return g0, g1, GAUGE_X[:, :d]


def test_gauge_matches_the_inverting_route():
    # both stencil orders; the inverting route's difference of tau is compared
    # on the skew part, at order 4 only, where its truncation is below 1e-12
    for d, order in itertools.product((2, 4), (2, 4)):
        got = _assert_gauge_matches_the_references(*_box_block(d, order))
        assert _amax(got.theta_dot.coeffs) > 1e-2
        if d == 4:
            assert _amax(got.curvature.coeffs[-1]) > 1e-2


def _conformal_d4():
    """g1 = e^{2u} g0 on a 4-box: every generalized eigenvalue at a point is e^{2u}."""
    ev = _rational_metric(0.7)
    return (MetricField(BOX4, ev),
            MetricField(BOX4, lambda x: np.exp(0.6 * np.sin(x[..., 0] + 2.0 * x[..., 3]))
                        [..., None, None] * ev(x)), GAUGE_X)


def _near_degenerate_d4():
    """g0 = S S^T and g1 = S diag(lam) S^T, whose first two lam are 1e-9 apart everywhere."""
    def factor(x):
        S = np.zeros(x.shape[:-1] + (4, 4))
        S[..., range(4), range(4)] = 1.0 + 0.3 * x ** 2
        S += 0.25 * np.sin(x[..., 0] + 2.0 * x[..., 1])[..., None, None] * np.tri(4, k=-1)
        return S

    def ev0(x):
        S = factor(x)
        return S @ np.swapaxes(S, -1, -2)

    def ev1(x):
        lam = np.stack(np.broadcast_arrays(1.3 + 0.2 * np.sin(x[..., 0]),
                                           1.3 + 1e-9 + 0.2 * np.sin(x[..., 0]),
                                           0.7 + 0.1 * x[..., 2], 2.0 + 0.1 * np.cos(x[..., 1])),
                       axis=-1)
        S = factor(x)
        return (S * lam[..., None, :]) @ np.swapaxes(S, -1, -2)

    return MetricField(BOX4, ev0), MetricField(BOX4, ev1), GAUGE_X


# the near-degenerate pair's ill-conditioned eigenvectors amplify the
# round-off of the inverting route's differenced tau to 8e-13 at order 4,
# too close to 1e-12 to hold it there
@pytest.mark.parametrize("block, inverting", [(lambda: _stokes_block(), True),
                                              (_conformal_d4, True),
                                              (_near_degenerate_d4, False)],
                         ids=["conformal_stokes_d2", "conformal_d4", "near_degenerate_d4"])
def test_gauge_with_degenerate_eigenvalues_matches_the_inverting_route(block, inverting):
    # eigh returns an arbitrary basis of a repeated eigenvalue's eigenspace,
    # and of a nearly repeated one an ill-conditioned pair of eigenvectors
    g0, g1, x = block()
    # at every point two generalized eigenvalues are at most 1e-9 apart
    lam = np.sort(_path_eigenbasis(g0.g(x), g1.g(x))[1], axis=-1)
    assert np.all(np.min(np.diff(lam, axis=-1), axis=-1) <= 1e-9 * lam[..., -1])
    got = _assert_gauge_matches_the_references(g0, g1, x)
    assert _amax(got.theta_dot.coeffs) > 1e-2
    if inverting:
        # the block's path at stencil order 4, so its skew part meets the inverting route
        _assert_gauge_matches_the_references(*(replace(g, fd_order=4) for g in (g0, g1)), x)


GAUGE_BLOCKS = {**{f"box_d{d}_o{order}": (lambda d=d, order=order: _box_block(d, order))
                   for d in (2, 4) for order in (2, 4)},
                "conformal_stokes_d2": lambda: _stokes_block(),
                "conformal_d4": _conformal_d4, "near_degenerate_d4": _near_degenerate_d4}


@pytest.mark.parametrize("block", GAUGE_BLOCKS.values(), ids=GAUGE_BLOCKS.keys())
def test_gauge_theta_dot_is_skew_in_the_g0_frame(block):
    # the gauge keeps only the pairs i < j of theta_dot; the coordinate
    # route's full theta_dot is g0-skew to round-off, so that drops nothing
    # (a route that differences tau on the stencil leaves its truncation in
    # the symmetric part: 3.5e-8 on box_d2_o2)
    for td in _first_variation_gauge(*block())[0]:
        assert _amax(td - _skew(td)) <= 1e-14 * max(1.0, _amax(td))


def _stokes_block(side=8):
    """TransgressionStokes's path on one side^2-point block of the 2-torus, with its 4 shifts."""
    (g0,) = catalog.get("flat_torus").fields
    g1 = replace(g0, evaluator=lambda x: np.exp(0.5 * np.sin(x[..., 0]) * np.cos(x[..., 1]))
                 [..., None, None] * np.eye(2))
    xs = np.linspace(0.0, 2.0 * math.pi, side, endpoint=False)
    p = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    return g0, g1, p + 1e-3 * _jet_plan(2, 2, False)[1][1:, None, :]


def _disk4_block(count):
    """BoundaryGB's two-route path on `count` collar points of disk dim=4."""
    spec = catalog.get("disk", dim=4)
    collar = spec.collar
    r_b = spec.params["rho"] * 0.98
    frozen = collar.radial_metric(r_b)
    g0 = replace(collar, radial_metric=lambda r: frozen).full_metric()
    y = collar.boundary_chart.interior(np.random.default_rng(0).random((count, 3)))
    return g0, collar.full_metric(), _collar_points(r_b, y)[2]


def _transgression_per_node(gauge):
    """The per-node accumulation the stacked sum replaced: one wedge per s node, summed in order."""
    d = gauge.theta_dot.n
    k = d // 2
    acc = None
    for n, w in enumerate(gauge.s_weights):
        R = gauge.curvature if d == 2 else DoubleForm(d, 2, 2, gauge.curvature.coeffs[n])
        theta_dot = DoubleForm(d, 1, 2, gauge.theta_dot.coeffs[n])
        term = w * berezin(wedge(theta_dot, power(R, k - 1)))
        acc = term if acc is None else acc + term
    return (1.0 / math.factorial(k - 1)) * acc


@pytest.mark.parametrize("block", [_stokes_block, lambda: _disk4_block(16)],
                         ids=["stokes_d2", "disk_d4"])
def test_path_transgression_equals_the_per_node_sum(block):
    gauge = metric_path_gauge(*block())
    got, want = path_transgression_form(gauge), _transgression_per_node(gauge)
    assert (got.n, got.p, got.q) == (want.n, want.p, want.q)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert _amax(got.coeffs) > 1e-3


def _gauge_per_node(g0, g1, x):
    """theta_dot and curvature coefficients by the per-node loop the s-axis pass replaced.

    At each Simpson node s: D, q and p from the scalar s, theta_dot's pairs
    in the basis A0 by one elementwise expression, and (d > 2) the
    curvature as M(E0)^T F M(tau E0), which rebuilds the minors of E0.
    theta_dot's pairs move by Lambda^2 Q0 written out as T_ia T_jb - T_ja T_ib, T = Q0^T.
    """
    d = g0.chart.dim
    curved = d > 2
    g0c, dg0, d2g0 = _metric_jet(g0, x, want_second=curved)
    g1c, dg1, d2g1 = _metric_jet(g1, x, want_second=curved)
    A0, lam, E0, Q0 = _path_eigenbasis(g0c, g1c)
    A0t, Q0t, E0t = (np.swapaxes(m, -1, -2) for m in (A0, Q0, E0))
    G = np.swapaxes(_christoffel_first(np.stack((dg0, dg1 - dg0))), -1, -2)
    H = A0t[..., None, :, :] @ G @ A0[..., None, :, :]
    i, j = np.array(multi_indices(d, 2), dtype=np.intp).reshape(-1, 2).T
    Qi, Qj = Q0t[..., i, :], Q0t[..., j, :]                   # [..., i<j, :]
    rot = Qi[..., :, i] * Qj[..., :, j] - Qj[..., :, i] * Qi[..., :, j]
    H_ij, H_ji = H[..., i, j], H[..., j, i]
    half_skew = 0.5 * (H_ij[1] - H_ji[1])
    pts, s_nodes = x.shape[:-1], np.linspace(0.0, 1.0, geometry.PATH_STEPS + 1)
    S = s_nodes.size
    eig = np.empty(pts + (d, S, i.size))
    curv = np.empty((S,) + pts + (i.size,) * 2) if curved else DoubleForm.zero(d, 2, 2).coeffs
    for n, s in enumerate(s_nodes):
        D = 1.0 + s * (lam - 1.0)
        q, p = D ** -0.5, -0.5 * (lam - 1.0) / D
        np.multiply((q[..., i] * q[..., j])[..., None, :],
                    p[..., None, i] * (H_ij[0] + s * H_ij[1])
                    - p[..., None, j] * (H_ji[0] + s * H_ji[1]) + half_skew,
                    out=eig[..., n, :])
        if curved:
            F = _curvature_pairs((A0 / D[..., None, :]) @ A0t, (1.0 - s) * dg0 + s * dg1,
                                 (1.0 - s) * d2g0 + s * d2g1)
            curv[n] = (np.swapaxes(_pair_minors(E0), -1, -2) @ F
                       @ _pair_minors((A0 * q[..., None, :]) @ Q0t))
    eig = eig.reshape(pts + (d * S, i.size)) @ rot
    eig = E0t @ eig.reshape(pts + (d, S * i.size))
    return np.moveaxis(eig.reshape(pts + (d, S, i.size)), -2, 0), curv


# the s nodes each curvature pass takes: a pass holds block_size(4) = 128
# samples, so disk dim=4 blocks of 16, 48 and block_size(3) = 128 points take
# 8, 2 and 1 of the 17 nodes a pass, and 16 points end on a partial pass
# (17 = 8 + 8 + 1); a surface's gauge has no curvature pass
S_AXIS_BLOCKS = {"stokes_d2": (_stokes_block, []),
                 "disk_d4": (lambda: _disk4_block(16), [8, 8, 1]),
                 "disk_d4_48": (lambda: _disk4_block(48), [2] * 8 + [1]),
                 "disk_d4_128": (lambda: _disk4_block(block_size(3)), [1] * 17),
                 "stokes_d2_256": (lambda: _stokes_block(16), [])}


@pytest.mark.parametrize("block, passes", S_AXIS_BLOCKS.values(), ids=S_AXIS_BLOCKS.keys())
def test_gauge_s_axis_pass_equals_the_per_node_loop(block, passes, monkeypatch):
    args = block()
    seen = []

    def counted(ginv, dg, d2g):
        seen.append(len(ginv))
        return _curvature_pairs(ginv, dg, d2g)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_curvature_pairs", counted)
        got = metric_path_gauge(*args)
    assert seen == passes
    theta_dot, curvature = _gauge_per_node(*args)
    assert np.array_equal(got.theta_dot.coeffs, theta_dot)
    assert np.array_equal(got.curvature.coeffs, curvature)
    assert _amax(got.theta_dot.coeffs) > 1e-2


def test_transgression_stokes_holds_on_a_non_conformal_path():
    # g1 = [[e^{2u}, 0.1 sin x2], [0.1 sin x2, e^{2u+v}]] with TransgressionStokes's
    # u and v = 0.2 cos(x1 + x2): the generalized eigenvalues differ, so the
    # gauge's p_i and p_j do too.  On this 8 x 8 block the gap is 5.4e-7 of
    # max |Delta Pf| clean and 8.1e-2 with p_i in place of p_j in the gauge's
    # pair expression (on the full 32 x 32 grid, 5.5e-7 and 4.3e-2 of 0.535)
    (g0,) = catalog.get("flat_torus").fields

    def g1_ev(x):
        u = 0.25 * np.sin(x[..., 0]) * np.cos(x[..., 1])
        off = 0.1 * np.sin(x[..., 1])
        return np.stack([np.stack([np.exp(2.0 * u), off], axis=-1),
                         np.stack([off, np.exp(2.0 * u + 0.2 * np.cos(x[..., 0] + x[..., 1]))],
                                  axis=-1)], axis=-2)

    g1 = replace(g0, evaluator=g1_ev)
    # TransgressionStokes's identity on one block: the curl of the transgression's
    # (1,0) form by the order-2 stencil at step 1e-3 is Pf(R^1) sqrt(det g1)
    hs = np.full(2, 1e-3)
    xs = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    p = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    gauge = metric_path_gauge(g0, g1, p + hs * _jet_plan(2, 2, False)[1][1:, None, :])
    d = _along_axes(path_transgression_form(gauge).coeffs, hs, 2)
    R1, E1 = riemann_double_form(g1, p)
    dpf = pfaffian_form(R1).coeffs[..., 0, 0] / np.linalg.det(E1)
    gap = d[:, 0, 1, 0] - d[:, 1, 0, 0] - dpf
    assert _amax(dpf) > 0.1
    assert _amax(gap) <= 1e-3 * _amax(dpf)


@pytest.mark.parametrize("block, bound_mib", [(_stokes_block, 2.0),
                                              (lambda: _stokes_block(16), 2.8),
                                              (lambda: _disk4_block(64), 5.0),
                                              (lambda: _disk4_block(block_size(3)), 5.0),
                                              (lambda: _disk4_block(48), 5.0)],
                         ids=["stokes_d2", "stokes_d2_256", "disk_d4_64", "disk_d4_128",
                              "disk_d4_48"])
def test_gauge_peak_memory_stays_bounded(block, bound_mib, traced_peak_mib):
    # the gauge measures 0.51 / 1.89 / 2.45 / 3.93 / 1.84 MiB on these rows,
    # in order, with theta_dot built in place on an [a, s, ..., i<j] buffer,
    # q_i q_j gathered and multiplied in the freed p_j temporary (0.54 / 2.15
    # on the Stokes rows with three temporaries for it), its H, p and
    # temporary freed before the frame change, and the curvature on as many
    # s nodes per pass as block_size(4) samples hold: 2 on BoundaryGB's
    # level-1 two-route block of 48 collar points, 1 on 64 or 128 (0.70 /
    # 2.28 / 2.16 / 4.32 / 1.62 with theta_dot on an [s, ..., a, i<j] view
    # and one node per curvature pass).  The disk dim=4 gauge rides
    # on blocks of its 3-dimensional slice chart, of block_size(3) = 128
    # points at most.  Earlier routes on the first row: 0.79 with a
    # temporary per operation, 0.80 with the full d x d theta_dot, 1.15 by
    # projectors, and about 4.5 for a per-row route that stacked all 17 s
    # nodes at once, curvature included (about 14 on a 64-point disk block)
    args = block()
    assert traced_peak_mib(lambda: metric_path_gauge(*args)) <= bound_mib


# -- the central stencil ----------------------------------------------------------------

def _weighted_diff(stack, h, order):
    """The weighted-sum route of a central difference: sum_k w_k stack[k] in stencil order, / h."""
    terms = [wt * f for (_, wt), f in zip(_diff_weights(order), stack, strict=True)]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out / h


# away from underflow, where halving a sample or a difference is exact
_sample = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-280)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_sample, _sample), min_size=1, max_size=4),
       st.floats(1e-8, 1.0))
@example(pairs=[(0.0, -0.0)], h=1.0)
@example(pairs=[(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (1.5, 1.5)], h=1e-3)
def test_central_diff_order_two_is_the_plain_quotient(pairs, h):
    # and it rounds as the weighted sum -minus/2 + plus/2 over h, signed zeros included
    minus, plus = (np.array(v) for v in zip(*pairs))
    got = _central_diff(np.stack([minus, plus]), h, 2)
    assert got.tobytes() == ((plus - minus) / (2 * h)).tobytes()
    assert got.tobytes() == _weighted_diff([minus, plus], h, 2).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       st.floats(-2.0, 2.0), st.floats(1e-3, 0.5))
@example(c=[0.0, 5e-324, 0.0, 0.0, 0.0], x=0.0, h=1e-3)
def test_central_diff_order_four_is_exact_on_quartics(c, x, h):
    def f(k):
        t = x + k * h
        return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3 + c[4] * t**4

    want = c[1] + 2 * c[2] * x + 3 * c[3] * x**2 + 4 * c[4] * x**3
    scale = sum(abs(ci) for ci in c) * (abs(x) + 2 * h + 1.0) ** 4
    samples = [f(k) for k, _ in _diff_weights(4)]
    # the absolute floor covers subnormal c, where 1e-13 * scale / h underflows to 0
    assert abs(_central_diff(samples, h, 4) - want) <= 1e-13 * scale / h + 1e-300


def test_central_diff_rejects_other_orders():
    with pytest.raises(MetricError):
        _central_diff(np.zeros(3), 0.1, 3)


def _jet_case(case):
    """(field, points) for the jet's layout checks: a block, a slice schedule, one point."""
    rng = np.random.default_rng(7)
    if case == "sphere_n4_block":
        (mf,) = catalog.get("sphere", n=4).fields
        return mf, mf.chart.interior(rng.random((128, mf.chart.dim)))
    if case == "cone_s3_slice":
        collar = catalog.get("geometric_cone", link="s3", theta=0.5).collar
        y = collar.boundary_chart.interior(rng.random((32, collar.boundary_chart.dim)))
        r, y, _ = _collar_points(np.array(quadrature.geometric_schedule(0.5)), y)
        return collar.slice_field(r), y                       # y is (1, 32, 3)
    (mf,) = catalog.get("football", p=2).fields
    return mf, mf.chart.interior(rng.random((1, mf.chart.dim)))[0]


@pytest.mark.parametrize("case", ["sphere_n4_block", "cone_s3_slice", "football_point"])
def test_the_jet_is_the_point_first_weighted_sum_route_bit_for_bit(case, monkeypatch):
    # the coordinate-first stencil buffer hands the evaluator the same points,
    # each coordinate one contiguous slab, and the jet keeps every bit of the
    # route over a contiguous (S, ..., d) stack differenced by weighted sums
    m, x = _jet_case(case)
    seen = []
    got = _metric_jet(replace(m, evaluator=lambda y: seen.append(y) or m.evaluator(y)), x, True)
    d, offsets = m.chart.dim, _jet_plan(m.chart.dim, m.fd_order, True)[1]
    pts = x + m.steps() * offsets.reshape((len(offsets),) + (1,) * (x.ndim - 1) + (d,))
    (y,) = seen
    assert y.shape == pts.shape and np.ascontiguousarray(y).tobytes() == pts.tobytes()
    assert all(y[..., a].flags.c_contiguous for a in range(d))
    monkeypatch.setattr(geometry, "_central_diff", _weighted_diff)
    want = _metric_jet(replace(m, evaluator=lambda _: m.evaluator(pts)), x, True)
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# -- connection difference ----------------------------------------------------------------

def test_connection_difference_conformal_closed_form():
    def u(x):
        return 0.3 * np.sin(x[..., 0]) * np.cos(x[..., 1])

    def du(x):
        return np.array([0.3 * math.cos(x[0]) * math.cos(x[1]),
                         -0.3 * math.sin(x[0]) * math.sin(x[1])])

    g0 = MetricField(TORUS2, lambda x: np.eye(2))
    g1 = MetricField(TORUS2, lambda x: np.exp(2 * u(x))[..., None, None] * np.eye(2))
    x = np.array([0.8, 1.9])
    # omega[mu, i, j] = (nabla^g1_mu d_j - nabla^g0_mu d_j)^i
    omega = christoffel(g1, x) - christoffel(g0, x)
    d = du(x)
    want = np.zeros((2, 2, 2))
    for a in range(2):
        for i in range(2):
            for j in range(2):
                want[a, i, j] = ((i == a) * d[j] + (i == j) * d[a]
                                 - (a == j) * d[i])
    assert np.max(np.abs(omega - want)) < 1e-7


# -- phi conjugation --------------------------------------------------------------------------

def test_phi_connection_rejects_r_zero():
    spec = catalog.get("geometric_cone", link="s1", theta=1.0)
    with pytest.raises(DomainError):
        phi_conjugated_connection(spec.collar, 0.0, np.array([1.0]))


def test_phi_connection_needs_fibration_data():
    spec = catalog.get("geometric_cone", link="s1", theta=1.0)
    with pytest.raises(MetricError, match="fibration"):
        phi_conjugated_connection(replace(spec.collar, fibration=None), 0.05, np.array([1.0]))


def test_phi_connection_model_cone_angular_block():
    spec = catalog.get("geometric_cone", link="s1", theta=1.0)
    omega = phi_conjugated_connection(spec.collar, 0.05, np.array([1.0]))
    # angular direction: rotation block; radial direction: vanishing
    assert omega[1, 0, 1] == pytest.approx(-1.0, abs=1e-6)
    assert omega[1, 1, 0] == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(omega[0])) < 1e-8


@pytest.mark.parametrize("name,params", [
    ("geometric_cone", {"link": "s1", "theta": 1.0}),
    ("edge_product", {"base": "s2", "fiber": "s1"}),
])
def test_phi_connection_on_a_block_equals_per_point_calls(name, params):
    collar = catalog.get(name, **params).collar
    chart = collar.boundary_chart
    ys = chart.interior(np.random.default_rng(2).random((4, chart.dim)), shrink=0.2)
    block = phi_conjugated_connection(collar, 0.05, ys)
    assert block.shape == (4,) + (collar.boundary_chart.dim + 1,) * 3
    for omega, y in zip(block, ys):
        want = phi_conjugated_connection(collar, 0.05, y)
        assert _amax(omega - want) <= 1e-12 * max(1.0, _amax(want))


def _per_axis_phi_frame(c, r, y):
    """phi_frame with one h^phi sample and one Cholesky per shifted point, as a reference."""
    y = np.asarray(y, dtype=float)
    steps = np.concatenate(([c.radial_step(r)], c.fd_rel_step * c.boundary_chart.extents))
    eye, order = np.eye(steps.size), c.fd_order
    dE = [_central_diff([_frame_of(_h_phi_matrix(c, r + sh[0], y + sh[1:]))
                         for sh in (k * h * eye[mu] for k, _ in _diff_weights(order))], h, order)
          for mu, h in enumerate(steps)]
    return _frame_of(_h_phi_matrix(c, r, y)), np.stack(dE, axis=-3)


@pytest.mark.parametrize("name,params", [
    ("geometric_cone", {"link": "s1", "theta": 1.0}),
    ("cone", {"link": "s3", "profile": "second_order"}),
    ("edge_product", {"base": "s2", "fiber": "s1"}),
    ("fibered_product", {"base": "s1", "fiber": "s2"}),
])
def test_phi_frame_is_one_sample_and_equals_the_per_axis_route(name, params, monkeypatch):
    collar = catalog.get(name, **params).collar
    chart = collar.boundary_chart
    ys = chart.interior(np.random.default_rng(7).random((4, chart.dim)), shrink=0.2)
    # the frame differences at the collar's own order
    for c in (collar, replace(collar, fd_order=4)):
        for r in (0.0, 0.05):
            for y in (ys, ys[0], ys.reshape(2, 2, -1)):
                got, want = phi_frame(c, r, y), _per_axis_phi_frame(c, r, y)
                assert all(a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(got, want))
    calls = {"_h_phi_matrix": 0, "_frame_of": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(geometry, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(geometry, fn, counted)
    phi_frame(collar, 0.05, ys)
    assert calls == {"_h_phi_matrix": 1, "_frame_of": 1}


@pytest.mark.parametrize("params", [
    {"link": "s1", "theta": 0.7},
    {"link": "s3", "profile": "second_order"},
    {"link": "s1", "profile": "first_order", "a": 0.3},
])
def test_cone_fiber_metric_takes_an_array_r(params):
    fib = catalog.get("cone", **params).collar.fibration
    rs = np.array([[0.0, 0.05], [-1e-4, 1.2]])
    chart = fib.fiber.chart
    ys = chart.interior(np.random.default_rng(8).random((4, chart.dim))).reshape(2, 2, -1)
    got = fib.fiber_metric(rs, ys)
    assert got.shape == (2, 2) + (fib.fiber_dim,) * 2
    for idx in np.ndindex(rs.shape):
        assert np.array_equal(got[idx], fib.fiber_metric(float(rs[idx]), ys[idx]))


def test_phi_connection_product_metric_identity():
    # with no collapsing fiber directions the conjugation is the identity:
    # compare against the plain connection of the product collar
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    from gblab.geometry import FibrationData

    fib = FibrationData(base=MetricField(circle, lambda y: np.eye(1)), chi_fiber=1)
    assert (fib.base_dim, fib.fiber_dim) == (1, 0)
    collar = CollarMetric(circle, (0.0, 2.0), lambda r: (lambda y: np.eye(1)),
                          fibration=fib)
    omega = phi_conjugated_connection(collar, 0.5, np.array([1.0]))
    assert np.max(np.abs(omega)) < 1e-9


@pytest.mark.parametrize("name,params,radii", [
    ("disk", {"dim": 4}, (0.3, 1.0, 0.05)),
    ("edge_horizontal", {}, (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)),
    ("catenoid", {}, (1.5, 40.0, 3.0)),
])
def test_a_stack_of_radii_equals_one_slice_per_radius(name, params, radii):
    collar = catalog.get(name, **params).collar
    chart = collar.boundary_chart
    Y = chart.interior(np.random.default_rng(9).random((5, chart.dim)), shrink=0.1)
    stacked = Slice(collar, np.array(radii))
    for y in (Y, Y[0]):
        sd = stacked.at(y)
        assert sd.sqrt_det.shape == (len(radii),) + y.shape[:-1]
        for k, r in enumerate(radii):
            one = Slice(collar, r).at(y)
            for got, want in ((sd.curvature.coeffs[k], one.curvature.coeffs),
                              (sd.second_fundamental.coeffs[k], one.second_fundamental.coeffs),
                              (sd.frame[k], one.frame), (sd.sqrt_det[k], one.sqrt_det)):
                assert np.array_equal(got, want), (name, r)


@pytest.mark.parametrize("order", [2, 4])
def test_a_slice_evaluates_each_stencil_point_once_for_the_whole_schedule(order, monkeypatch):
    # the s3 link's trig runs on each node's stencil points alone, with a
    # size-1 axis where the schedule's goes: the radii ride in the sample,
    # s(r) h(y), and every (stencil, radius, node) sample is still SPD-checked
    base = replace(catalog.get("geometric_cone", link="s3", theta=1.0).collar, fd_order=order)
    points, checked = [], []

    def recorded(r):
        ev = base.radial_metric(r)

        def on_points(y):
            points.append(np.array(y))
            return ev(y)

        return on_points

    spd_check = geometry._spd_check

    def recorded_check(g):
        checked.append(np.shape(g))
        return spd_check(g)

    monkeypatch.setattr(geometry, "_spd_check", recorded_check)
    collar = replace(base, radial_metric=recorded)
    radii = np.array([0.4, 0.2, 0.1, 0.05, 0.025, 0.0125])
    chart = collar.boundary_chart
    Y = chart.interior(np.random.default_rng(12).random((5, chart.dim)), shrink=0.1)
    S, K, R = len(_jet_plan(3, order, True)[1]), len(_diff_weights(order)), len(radii)
    for y in (Y, Y[0]):
        batch = y.shape[:-1]
        nodes, stencil = (1,) + batch + (3,), (S, 1) + batch + (3,)
        jet, rate = (S, R) + batch + (3, 3), (K, R) + batch + (3, 3)
        stacked_r = radii.reshape((-1,) + (1,) * len(batch))
        for call, want_points, want_checked in (
                (lambda: Slice(collar, radii).at(y), [stencil, nodes], [jet, rate]),
                (lambda: collar.radial_rate(stacked_r, y[None]), [nodes], [rate])):
            points.clear()
            checked.clear()
            call()
            assert [p.shape for p in points] == want_points
            assert all(len(np.unique(p.reshape(-1, 3), axis=0)) == p.size // 3 for p in points)
            assert np.array_equal(points[-1].reshape(y.shape), y)
            assert checked == want_checked


def test_a_sample_batch_that_does_not_broadcast_is_named():
    # an evaluator may add leading axes of its own, which broadcast against the points'
    m = MetricField(TORUS2, lambda x: np.broadcast_to(np.eye(2), (7, 2, 2)))
    assert m.g(np.zeros((1, 2))).shape == (7, 2, 2)
    with pytest.raises(MetricError, match=r"breaks the \(\.\.\., d\) -> \(\.\.\., d, d\) contract: "
                                          r"points of shape \(5, 2\) gave a sample of shape \(7, 2, 2\)"):
        m.g(np.zeros((5, 2)))
    # a radial metric that flattens its radii loses the size-1 axis of the points
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    collar = CollarMetric(circle, (0.0, 1.0),
                          lambda r: (lambda y: np.ravel(r)[:, None, None] * np.eye(1)))
    with pytest.raises(MetricError, match=r"points of shape \(3, 1, 2, 1\) gave a sample of "
                                          r"shape \(3, 1, 1\)"):
        Slice(collar, np.array([0.5, 0.25, 0.125])).at(np.array([[1.0], [2.0]]))


def test_each_radius_of_a_stack_keeps_its_own_radial_step():
    collar = catalog.get("edge_product").collar
    rs = np.array([0.4, 0.0, 0.05])
    assert collar.radial_step(rs).tolist() == [collar.radial_step(r) for r in rs.tolist()]


@pytest.mark.parametrize("radii", [(0.5, 1.2499999), (0.0, 0.5), (0.5, -0.1), (0.5, 2.0)])
def test_slice_stack_with_any_radius_near_an_end_is_rejected(radii):
    collar = catalog.get("disk", dim=2).collar
    Slice(collar, np.array([0.5, 1.0]))
    with pytest.raises(DomainError, match="too close to the collar interval ends"):
        Slice(collar, np.array(radii))


def test_slice_radii_must_be_a_number_or_a_1d_array():
    with pytest.raises(DomainError, match="1-D array"):
        Slice(catalog.get("disk", dim=2).collar, np.full((2, 2), 0.5))


@pytest.mark.parametrize("name,params", [
    ("geometric_cone", {"link": "s1", "theta": 1.0}),
    ("cone_perturbed_second_order", {}),
    ("edge_product", {"base": "s2", "fiber": "s1"}),
    ("edge_horizontal", {}),
])
def test_a_schedule_of_radii_equals_one_phi_call_per_radius(name, params):
    collar = catalog.get(name, **params).collar
    rs = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    chart = collar.boundary_chart
    Y = chart.interior(np.random.default_rng(5).random((3, chart.dim)), shrink=0.2)
    for y in (Y, Y[0]):
        omega, (E, dE) = phi_conjugated_connection(collar, rs, y), phi_frame(collar, rs, y)
        assert omega.shape == (len(rs),) + y.shape[:-1] + (collar.boundary_chart.dim + 1,) * 3
        for k, r in enumerate(rs.tolist()):
            one_E, one_dE = phi_frame(collar, r, y)
            assert np.array_equal(omega[k], phi_conjugated_connection(collar, r, y)), (name, r)
            assert np.array_equal(E[k], one_E) and np.array_equal(dE[k], one_dE), (name, r)


@pytest.mark.parametrize("call", [
    lambda c, y: phi_conjugated_connection(c, np.array([0.1, 0.0, 0.05]), y),
    lambda c, y: phi_conjugated_connection(c, np.full((2, 2), 0.1), y),
    lambda c, y: phi_frame(c, np.full((2, 2), 0.1), y),
], ids=["zero-in-schedule", "2d-connection", "2d-frame"])
def test_phi_radii_must_be_nonzero_numbers_or_a_1d_schedule(call):
    collar = catalog.get("geometric_cone", link="s1", theta=1.0).collar
    with pytest.raises(DomainError):
        call(collar, np.array([[1.0], [2.5]]))
