"""Geometry engine against closed-form oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gblab import catalog
from gblab.doubleform import DoubleForm, multi_indices, wedge
from gblab.geometry import (
    Chart,
    CollarMetric,
    DomainError,
    MetricError,
    MetricField,
    Slice,
    _central_diff,
    _curvature_coord,
    _diff_weights,
    _frame_of,
    _metric_jet,
    _pair_coeffs,
    _path_eigenbasis,
    _path_transport,
    christoffel,
    metric_path_gauge,
    phi_conjugated_connection,
    riemann_double_form,
)

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
    g = christoffel(m, x)
    assert g[0, 1, 1] == pytest.approx(-1.3, abs=1e-8)
    assert g[1, 0, 1] == pytest.approx(1 / 1.3, abs=1e-8)
    assert np.allclose(g, np.swapaxes(g, 1, 2))


def test_christoffel_round_sphere_cotangent():
    chart = Chart("s2", ((0.2, math.pi - 0.2), (0.0, 2 * math.pi)), (False, True))
    m = MetricField(chart, s2_classic, fd_order=4)
    x = np.array([1.1, 0.3])
    g = christoffel(m, x)
    assert g[1, 0, 1] == pytest.approx(1 / math.tan(1.1), abs=1e-9)


def test_stencil_domain_error():
    m = MetricField(POLAR, polar_metric)
    with pytest.raises(DomainError):
        christoffel(m, np.array([0.1, 0.0]))


def test_non_spd_metric_error():
    m = MetricField(TORUS2, lambda x: np.diag([1.0, -1.0]))
    with pytest.raises(MetricError):
        _frame_of(m.g(np.array([0.5, 0.5])))


# -- metric jet --------------------------------------------------------------------

def _per_offset_jet(m, x, want_second):
    """The metric jet with one evaluator call per stencil offset, as a reference."""
    d, h, order = m.chart.dim, m.steps(), m.fd_order
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
    dg = np.stack([_central_diff(lambda k, a=a: at(zero, a, k), h[a], order)
                   for a in range(d)], axis=-3)
    if not want_second:
        return g, dg, None, samples
    d2g = np.zeros(x.shape[:-1] + (d, d, d, d))
    for a in range(d):
        if order == 2:
            d2g[..., a, a, :, :] = (at(zero, a, 1) - 2.0 * g + at(zero, a, -1)) / h[a] ** 2
        else:
            d2g[..., a, a, :, :] = (-at(zero, a, 2) + 16.0 * at(zero, a, 1) - 30.0 * g
                                    + 16.0 * at(zero, a, -1) - at(zero, a, -2)) / (12.0 * h[a] ** 2)
        for b in range(a + 1, d):
            val = _central_diff(
                lambda j, a=a, b=b: _central_diff(
                    lambda k: at(zero[:a] + (j,) + zero[a + 1:], b, k), h[b], order),
                h[a], order)
            d2g[..., a, b, :, :] = d2g[..., b, a, :, :] = val
    return g, dg, d2g, samples


def _counting(ev):
    def wrapped(x):
        wrapped.calls += 1
        return ev(x)
    wrapped.calls = 0
    return wrapped


BOX3 = Chart("box3", ((0.2, 1.4), (0.1, 2.9), (-1.0, 1.0)), (False, False, True))
SPD3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


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
    pts = BOX3.random_interior(np.random.default_rng(3), 6, shrink=0.1)[:int(np.prod(batch))]
    x = pts.reshape(batch + (3,))
    counted = _counting(ev)
    got = _metric_jet(MetricField(BOX3, counted, fd_order=order), x, want_second)
    want = _per_offset_jet(MetricField(BOX3, ev, fd_order=order), x, want_second)
    assert counted.calls == 1
    for a, b in zip(got[:3], want[:3]):
        assert (a is None and b is None) or (a.shape == b.shape and np.array_equal(a, b))
    assert list(got[3]) == list(want[3])
    ks = len(_diff_weights(order))
    assert len(got[3]) == 1 + 3 * ks + (3 * ks * ks if want_second else 0)
    for off, sample in got[3].items():
        assert np.array_equal(sample, want[3][off])


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


def _einsum_pair_coeffs(F, E):
    """The frame change as four one-index einsum contractions and a gather, as a reference."""
    for _ in range(4):
        F = np.einsum("...ijkl,...ia->...jkla", F, E)
    a, b = np.array(multi_indices(E.shape[-1], 2), dtype=np.intp).reshape(-1, 2).T
    return F[..., a[:, None], b[:, None], a, b]


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
    F = _curvature_coord(g, dg, d2g)
    want = _einsum_curvature_coord(g, dg, d2g)
    assert F.shape == want.shape == batch + (d,) * 4
    # F sums terms of size |d2g| and |dg|^2 |g^-1|; at d = 2 its one component
    # can cancel far below them, so round-off is measured on their scale
    terms = max(np.max(np.abs(d2g)), np.max(np.abs(dg)) ** 2 * np.max(np.abs(np.linalg.inv(g))))
    assert np.max(np.abs(F - want)) <= 1e-12 * max(np.max(np.abs(want)), terms)
    E = _frame_of(g)
    got, ref = _pair_coeffs(want, E), _einsum_pair_coeffs(want, E)
    assert got.shape == ref.shape == batch + (len(multi_indices(d, 2)),) * 2
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(*_kernel_case)
def test_second_frame_equals_the_transported_einsum(seed, d, batch, log_cond):
    g, dg, d2g = _random_jet(seed, d, batch, log_cond)
    tau = np.eye(d) + 0.3 * np.random.default_rng(seed + 1).normal(size=batch + (d, d))
    F, E = _curvature_coord(g, dg, d2g), _frame_of(g)
    want = _einsum_pair_coeffs(np.einsum("...ijkl,...kc,...ld->...ijcd", F, tau, tau), E)
    got = _pair_coeffs(F, E, tau @ E)
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
    for x in mf.chart.random_interior(rng, 3, shrink=0.33):
        R, _ = riemann_double_form(mf, x)
        assert (R - target).norm_inf() < 1e-5


def test_curvature_symmetries_across_catalog():
    rng = np.random.default_rng(9)
    for name, params in [("sphere", {"n": 2}), ("sphere", {"n": 3}),
                         ("sphere", {"n": 4}), ("disk", {"dim": 2}),
                         ("disk", {"dim": 4}), ("catenoid", {}),
                         ("flat_torus", {"n": 3}), ("cone", {"link": "s1", "theta": 0.7})]:
        (mf,) = catalog.get(name, **params).fields
        for x in mf.chart.random_interior(rng, 100, shrink=0.1):
            R, _ = riemann_double_form(mf, x)
            gap = (R - DoubleForm(R.n, 2, 2, R.coeffs.T.copy())).norm_inf()
            assert gap < 1e-6, (name, params)


def test_first_bianchi_on_slices():
    from gblab.doubleform import index_rank

    spec = catalog.get("disk", dim=4)
    sl = Slice(spec.collar, 1.0)
    rng = np.random.default_rng(4)
    for y in spec.collar.boundary_chart.random_interior(rng, 10, shrink=0.1):
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

BOX3 = Chart("box3", ((-1.0, 1.0),) * 3, (False,) * 3)


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
    m = MetricField(BOX3, _rational_metric(c), fd_order=order)
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
        chart, mf = BOX3, MetricField(BOX3, _rational_metric(1.5))
    g, dg, d2g, _ = _metric_jet(mf, chart.random_interior(rng, 64, shrink=0.1), want_second=True)
    F = _curvature_coord(g, dg, d2g)
    assert F.shape == (64,) + (chart.dim,) * 4
    scale = np.max(np.abs(F), axis=(-4, -3, -2, -1), keepdims=True)   # per node
    assert np.array_equal(F, -np.swapaxes(F, -4, -3))
    assert np.all(np.abs(F + np.swapaxes(F, -2, -1)) <= 1e-12 * scale)
    assert np.all(np.abs(F - np.einsum("...klij->...ijkl", F)) <= 1e-10 * scale)
    # R(d_i, d_j) d_l + R(d_j, d_l) d_i + R(d_l, d_i) d_j = 0
    bianchi = F + np.einsum("...jlki->...ijkl", F) + np.einsum("...likj->...ijkl", F)
    assert np.all(np.abs(bianchi) <= 1e-10 * scale)


@settings(max_examples=30, deadline=None)
@given(_block, st.floats(0.0, 2.0), st.floats(0.2, 1.0))
def test_slice_on_a_block_equals_per_point_calls(pts, c, r):
    ev = _rational_metric(c)
    collar = CollarMetric(BOX3, (0.0, 1.5),
                          lambda r: (lambda y: (1.0 + np.asarray(r) ** 2)[..., None, None] * ev(y)))
    Y = np.array(pts)
    block = Slice(collar, r).at(Y)
    for i, y in enumerate(Y):
        one = Slice(collar, r).at(y)
        for got, want in ((block.curvature.coeffs[i], one.curvature.coeffs),
                          (block.second_fundamental.coeffs[i], one.second_fundamental.coeffs),
                          (block.frame[i], one.frame), (block.sqrt_det[i], one.sqrt_det)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("order,calls", [(2, 3), (4, 5)])
def test_slice_takes_its_frame_from_the_curvature_jet(order, calls):
    ev = _counting(_rational_metric(0.7))
    collar = CollarMetric(BOX3, (0.0, 1.5),
                          lambda r: (lambda y: (1.0 + np.asarray(r) ** 2)[..., None, None] * ev(y)),
                          fd_order=order)
    Y = BOX3.random_interior(np.random.default_rng(2), 6, shrink=0.1)
    sd = Slice(collar, 0.6).at(Y)
    # one evaluator call for the curvature jet (its center gives E), one per
    # radial stencil point for dh
    assert ev.calls == calls
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
                          lambda r: (lambda y: r**2 * np.eye(1)))
    r = 0.37
    sd = Slice(collar, r).at(np.array([2.0]))
    assert sd.second_fundamental.coeffs[0, 0] == pytest.approx(-1.0 / r, rel=1e-10)


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
    ii_coord = -np.einsum("mi,mj->ij", gam[:, 1:, 0], gfull[:, 1:])
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
    for td in gauge.theta_dot:
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
    for td, R in zip(gauge.theta_dot, gauge.curvature):
        assert np.max(np.abs(td)) < 1e-12
        assert (R - want).norm_inf() < 1e-12 * want.norm_inf()


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


def test_collar_rejects_a_bad_radial_interval():
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    for interval in ((1.0, 0.4), (0.5, 0.5), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="radial interval"):
            CollarMetric(circle, interval, lambda r: (lambda y: np.eye(1)))
    # a catenoid cutoff below asinh(1/4) would put the collar's top under its bottom
    with pytest.raises(DomainError, match=r"\(1.0, 0.40"):
        catalog.get("catenoid", cutoff=0.1)


def test_gauge_linear_map_pair_flat():
    lam = np.array([[1.0, 0.3], [0.0, 0.8]])
    g1m = lam.T @ lam
    g0 = MetricField(TORUS2, lambda x: np.eye(2))
    g1 = MetricField(TORUS2, lambda x: g1m)
    gauge = metric_path_gauge(g0, g1, np.array([0.3, 0.4]))
    for td in gauge.theta_dot:
        assert np.max(np.abs(td)) < 1e-12


def test_gauge_theta_skew_in_frame():
    g0 = MetricField(TORUS2, lambda x: np.eye(2))

    def g1_ev(x):
        return np.exp(0.4 * np.sin(x[..., 0]) * np.cos(x[..., 1]))[..., None, None] * np.eye(2)

    g1 = MetricField(TORUS2, g1_ev)
    gauge = metric_path_gauge(g0, g1, np.array([0.9, 1.7]))
    for td in gauge.theta_dot:
        skew_defect = np.max(np.abs(td + np.swapaxes(td, 1, 2)))
        assert skew_defect < 1e-8


def test_gauge_rejects_bad_paths():
    g0 = MetricField(TORUS2, lambda x: np.eye(2))
    g1 = MetricField(TORUS2, lambda x: -3.0 * np.eye(2))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, g1, np.array([0.1, 0.1]))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, replace(g0, fd_order=4), np.array([0.1, 0.1]))
    # one non-SPD endpoint sample inside a block fails the whole block
    pts = np.array([[1.0, 0.5], [1.5, 2.0], [3.0, 1.0]])
    bent = MetricField(TORUS2, lambda x: _diag2(np.ones(x.shape[:-1]), 2.5 - x[..., 0]))
    with pytest.raises(MetricError):
        metric_path_gauge(g0, bent, pts)
    metric_path_gauge(g0, bent, pts[:2])


@pytest.mark.parametrize("d", [2, 4])
def test_gauge_samples_each_stencil_point_once(d):
    # d = 2 skips the curvature jet, d = 4 takes second derivatives too
    torus = Chart(f"t{d}", ((0.0, 2 * math.pi),) * d, (True,) * d)
    ev0 = _counting(lambda x: np.eye(d))
    ev1 = _counting(lambda x: (1.5 + 0.2 * np.sin(x[..., 0]))[..., None, None] * np.eye(d))
    block = np.array([[0.9, 1.7, 0.2, 3.0], [2.0, 0.3, 1.1, 4.4], [4.1, 5.5, 2.6, 0.8]])[:, :d]
    gauge = metric_path_gauge(MetricField(torus, ev0), MetricField(torus, ev1), block)
    assert (ev0.calls, ev1.calls) == (1, 1)
    assert gauge.theta_dot[0].shape == (3, d, d, d)
    assert gauge.curvature[0].coeffs.shape[:-2] == ((3,) if d == 4 else ())


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 3.0),
       st.floats(0.0, 1.0))
def test_closed_form_transport_solves_the_transport_equation(seed, d, log_cond, s):
    # pairs up to condition 1e3 each, so the generalized eigenvalues spread
    # over up to six decades; the rows stack two pairs as a batch
    pairs = [_spd_pair(seed + i, d, log_cond) for i in range(2)]
    g0 = np.stack([p[0] for p in pairs])
    g1 = np.stack([p[1] for p in pairs])
    tau, rate = _path_transport(*_path_eigenbasis(g0, g1), s)
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


BOX2 = Chart("box2", ((-1.0, 1.0),) * 2, (False,) * 2)
BOX4 = Chart("box4", ((-1.0, 1.0),) * 4, (False,) * 4)


def _scaled(ev, a):
    """ev times the rational factor 1 + a x_0^2."""
    return lambda x: (1.0 + a * np.asarray(x)[..., 0] ** 2)[..., None, None] * ev(x)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-0.9, 0.9)] * 4), min_size=1, max_size=4),
       st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.sampled_from([2, 4]))
def test_gauge_on_a_block_equals_per_point_calls(pts, c, a, d):
    from gblab.invariants import path_transgression_form

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
        for gk, rk in zip(block.theta_dot, one.theta_dot):
            assert _amax(gk[i] - rk) <= 1e-12 * max(1.0, _amax(rk))
        if d == 4:
            for gk, rk in zip(block.curvature, one.curvature):
                assert _amax(gk.coeffs[i] - rk.coeffs) <= 1e-12 * max(1.0, _amax(rk.coeffs))


# -- the central stencil ----------------------------------------------------------------

# away from underflow, where halving a sample or a difference is exact
_sample = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-280)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_sample, _sample), min_size=1, max_size=4),
       st.floats(1e-8, 1.0))
def test_central_diff_order_two_is_the_plain_quotient(pairs, h):
    minus, plus = (np.array(v) for v in zip(*pairs))
    got = _central_diff({-1: minus, 1: plus}.__getitem__, h, 2)
    assert got.tobytes() == ((plus - minus) / (2 * h)).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       st.floats(-2.0, 2.0), st.floats(1e-3, 0.5))
def test_central_diff_order_four_is_exact_on_quartics(c, x, h):
    def f(k):
        t = x + k * h
        return c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3 + c[4] * t**4

    want = c[1] + 2 * c[2] * x + 3 * c[3] * x**2 + 4 * c[4] * x**3
    scale = sum(abs(ci) for ci in c) * (abs(x) + 2 * h + 1.0) ** 4
    assert abs(_central_diff(f, h, 4) - want) <= 1e-13 * scale / h


def test_central_diff_rejects_other_orders():
    with pytest.raises(MetricError):
        _central_diff(float, 0.1, 3)


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
    omega = np.swapaxes(christoffel(g1, x) - christoffel(g0, x), 0, 1)
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
    ys = np.array(collar.boundary_chart.random_interior(np.random.default_rng(2), 4, shrink=0.2))
    block = phi_conjugated_connection(collar, 0.05, ys)
    assert block.shape == (4,) + (collar.boundary_chart.dim + 1,) * 3
    for omega, y in zip(block, ys):
        want = phi_conjugated_connection(collar, 0.05, y)
        assert _amax(omega - want) <= 1e-12 * max(1.0, _amax(want))


def test_phi_connection_product_metric_identity():
    # with no collapsing fiber directions the conjugation is the identity:
    # compare against the plain connection of the product collar
    circle = Chart("s1", ((0.0, 2 * math.pi),), (True,))
    from gblab.geometry import FibrationData

    fib = FibrationData(base_chart=circle, fiber_chart=None,
                        base_metric=lambda y: np.eye(1), chi_fiber=1)
    assert (fib.base_dim, fib.fiber_dim) == (1, 0)
    collar = CollarMetric(circle, (0.0, 2.0), lambda r: (lambda y: np.eye(1)),
                          fibration=fib)
    omega = phi_conjugated_connection(collar, 0.5, np.array([1.0]))
    assert np.max(np.abs(omega)) < 1e-9
