"""Chart-based Riemannian engine.

Metrics are plain point -> SPD-matrix functions on coordinate boxes.  All
derivatives are central finite differences (order 2 or 4).  Curvature is
assembled from metric first and second derivatives through first-kind
Christoffel symbols, which is algebraically the same as differencing the
second-kind symbols but much better conditioned where coordinates degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .doubleform import DoubleForm, multi_indices

__all__ = [
    "Chart",
    "MetricField",
    "CollarMetric",
    "FibrationData",
    "Slice",
    "SliceData",
    "GaugePath",
    "PhiConnection",
    "DomainError",
    "MetricError",
    "christoffel",
    "riemann_double_form",
    "orthonormal_frame",
    "slice_data",
    "metric_path_gauge",
    "connection_difference",
    "phi_conjugated_connection",
]


class DomainError(ValueError):
    """Evaluation point or stencil leaves the chart."""


class MetricError(ValueError):
    """Metric sample fails to be symmetric positive definite."""


@dataclass(frozen=True)
class Chart:
    """A named coordinate box with per-axis periodicity flags.

    quad_hints optionally carries per-axis quadrature recipes consumed by
    the mesh builder.
    """

    name: str
    bounds: tuple
    periodic: tuple
    quad_hints: Optional[tuple] = None

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise DomainError(f"bad bounds for chart {self.name!r}")
        if len(self.periodic) != len(self.bounds):
            raise DomainError("periodic flags must match bounds")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def extents(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])

    def random_interior(self, rng, count: int, shrink: float = 0.05):
        pts = []
        for _ in range(count):
            pts.append(np.array([
                lo + (shrink + (1 - 2 * shrink) * rng.random()) * (hi - lo)
                for lo, hi in self.bounds
            ]))
        return pts


def _spd_check(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise MetricError("metric sample is not a square matrix")
    scale = max(1.0, float(np.max(np.abs(g))))
    if np.max(np.abs(g - g.T)) > 1e-10 * scale:
        raise MetricError("metric sample is not symmetric")
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class MetricField:
    """A symmetric positive-definite matrix field on a chart.

    fd_rel_step scales each axis extent to give the finite-difference step;
    fd_order selects the 2nd- or 4th-order central stencil.
    """

    chart: Chart
    evaluator: Callable
    fd_rel_step: float = 1e-4
    fd_order: int = 2

    def steps(self) -> np.ndarray:
        return self.fd_rel_step * self.chart.extents

    def g(self, x) -> np.ndarray:
        return _spd_check(self.evaluator(np.asarray(x, dtype=float)))

    def check_stencil(self, x):
        h = self.steps()
        order = self.fd_order
        reach = 2 if order == 4 else 1
        for i, (xi, (lo, hi), per) in enumerate(zip(x, self.chart.bounds, self.chart.periodic)):
            if per:
                continue
            if xi - reach * h[i] < lo or xi + reach * h[i] > hi:
                raise DomainError(
                    f"finite-difference stencil leaves chart {self.chart.name!r} at axis {i}"
                )

    def with_order(self, order: int) -> "MetricField":
        return MetricField(self.chart, self.evaluator, self.fd_rel_step, order)


def _diff_weights(order: int):
    if order == 2:
        return [(-1, -0.5), (1, 0.5)]
    if order == 4:
        return [(-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)]
    raise MetricError("fd_order must be 2 or 4")


class _StencilCache:
    """Caches metric samples at integer stencil offsets around a point."""

    def __init__(self, m: MetricField, x: np.ndarray):
        self.m = m
        self.x = np.asarray(x, dtype=float)
        self.h = m.steps()
        self.cache = {}

    def at(self, offset: tuple) -> np.ndarray:
        got = self.cache.get(offset)
        if got is None:
            p = self.x + self.h * np.array(offset, dtype=float)
            got = _spd_check(self.m.evaluator(p))
            self.cache[offset] = got
        return got

    def d1(self, axis: int, base: tuple) -> np.ndarray:
        """First derivative along axis at the point shifted by base."""
        out = 0.0
        for off, wt in _diff_weights(self.m.fd_order):
            shifted = list(base)
            shifted[axis] += off
            out = out + wt * self.at(tuple(shifted))
        return out / self.h[axis]

    def d2(self, a: int, b: int) -> np.ndarray:
        """Second derivative d_a d_b g at the center."""
        d = self.m.chart.dim
        zero = (0,) * d
        if a == b:
            if self.m.fd_order == 2:
                out = self.at(self._shift(zero, a, 1)) - 2.0 * self.at(zero) \
                    + self.at(self._shift(zero, a, -1))
                return out / self.h[a] ** 2
            out = (-self.at(self._shift(zero, a, 2)) + 16.0 * self.at(self._shift(zero, a, 1))
                   - 30.0 * self.at(zero) + 16.0 * self.at(self._shift(zero, a, -1))
                   - self.at(self._shift(zero, a, -2)))
            return out / (12.0 * self.h[a] ** 2)
        out = 0.0
        for off, wt in _diff_weights(self.m.fd_order):
            out = out + wt * self.d1(b, self._shift((0,) * d, a, off))
        return out / self.h[a]

    @staticmethod
    def _shift(base: tuple, axis: int, off: int) -> tuple:
        s = list(base)
        s[axis] += off
        return tuple(s)


def _metric_derivatives(m: MetricField, x, want_second: bool):
    d = m.chart.dim
    m.check_stencil(x)
    st = _StencilCache(m, x)
    g = st.at((0,) * d)
    dg = np.stack([st.d1(a, (0,) * d) for a in range(d)])
    d2g = None
    if want_second:
        d2g = np.zeros((d, d, d, d))
        for a in range(d):
            for b in range(a, d):
                val = st.d2(a, b)
                d2g[a, b] = val
                d2g[b, a] = val
    return g, dg, d2g


def christoffel(m: MetricField, x) -> np.ndarray:
    """Second-kind Levi-Civita coefficients Gamma[k, i, j] at x."""
    g, dg, _ = _metric_derivatives(m, x, want_second=False)
    return _christoffel_from(g, dg)


def _christoffel_first(dg: np.ndarray) -> np.ndarray:
    """First-kind symbols G1[i, j, k] = (d_i g_jk + d_j g_ik - d_k g_ij)/2."""
    return 0.5 * (
        np.einsum("ijk->ijk", dg)
        + np.einsum("jik->ijk", dg)
        - np.einsum("kij->ijk", dg)
    )


def _christoffel_from(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric sample is singular") from exc
    g1 = _christoffel_first(dg)
    return np.einsum("km,ijm->kij", ginv, g1)


def orthonormal_frame(m: MetricField, x) -> np.ndarray:
    """Cholesky-based frame E with E^T g E = Id and positive determinant."""
    g = m.g(x)
    return _frame_of(g)


def _frame_of(g: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric sample is not positive definite") from exc
    return np.linalg.inv(L).T


def _curvature_coord(g, dg, d2g) -> np.ndarray:
    """Lowered curvature F[i,j,k,l] = < d_k, R(d_i, d_j) d_l >."""
    ginv = np.linalg.inv(g)
    g1 = _christoffel_first(dg)          # [i, j, k]
    gamma = np.einsum("km,ijm->kij", ginv, g1)
    # d_a Gamma^m_{ij} by the product rule; no stacked differencing.
    dginv = -np.einsum("km,aml,ln->akn", ginv, dg, ginv)
    # dg1[a, i, j, k] = d_a Gamma1[i, j, k]
    dg1 = 0.5 * (
        np.einsum("aijk->aijk", d2g)   # d_a d_i g_{jk}
        + np.einsum("ajik->aijk", d2g)  # d_a d_j g_{ik}
        - np.einsum("akij->aijk", d2g)  # d_a d_k g_{ij}
    )
    dgamma = np.einsum("akm,ijm->akij", dginv, g1) + np.einsum(
        "km,aijm->akij", ginv, dg1
    )
    # R^m_{ijl} = d_i Gamma^m_{jl} - d_j Gamma^m_{il}
    #           + Gamma^m_{ie} Gamma^e_{jl} - Gamma^m_{je} Gamma^e_{il}
    rup = (
        np.einsum("imjl->mijl", dgamma)
        - np.einsum("jmil->mijl", dgamma)
        + np.einsum("mie,ejl->mijl", gamma, gamma)
        - np.einsum("mje,eil->mijl", gamma, gamma)
    )
    return np.einsum("km,mijl->ijkl", g, rup)


def riemann_double_form(m: MetricField, x, frame: Optional[np.ndarray] = None):
    """Curvature as a (2,2) double form in the orthonormal frame at x.

    Returns (form, frame).  The coefficient at (I; J) with I = (i<j),
    J = (k<l) is <e_k, R(e_i, e_j) e_l>.
    """
    d = m.chart.dim
    g, dg, d2g = _metric_derivatives(m, x, want_second=True)
    if frame is None:
        frame = _frame_of(g)
    form = DoubleForm.zero(d, 2, 2)
    if d < 2:
        return form, frame
    F = _curvature_coord(g, dg, d2g)
    Fon = np.einsum("ijkl,ia,jb,kc,ld->abcd", F, frame, frame, frame, frame)
    pairs = multi_indices(d, 2)
    for r, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            form.coeffs[r, c] = Fon[i, j, k, l]
    return form, frame


@dataclass(frozen=True)
class FibrationData:
    """Trivial-product fibration of the collar cross-section N = F x B.

    Coordinates on N are ordered fiber-first.  Euler characteristics of the
    pieces are stored reference data.
    """

    base_dim: int
    fiber_dim: int
    base_chart: Optional[Chart]
    fiber_chart: Optional[Chart]
    base_metric: Optional[Callable] = None     # y_b -> (b, b) matrix
    fiber_metric: Optional[Callable] = None    # r, y_f -> (f, f) matrix
    product_split: bool = True
    chi_base: Optional[int] = None
    chi_fiber: Optional[int] = None

    def __post_init__(self):
        if not self.product_split:
            raise MetricError("only trivial-product fibrations are supported")


@dataclass(frozen=True)
class CollarMetric:
    """Normal-form collar dr^2 + g(r) over a boundary chart.

    radial_metric(r) returns the y -> matrix evaluator of g(r) on N.  The
    orientation flag epsilon records how the slice-transgression sign relates
    to the plus convention (outward normal +d_r, slice oriented by the chart).
    singular_end marks where the degenerate locus sits: "lower" (r -> 0),
    "upper" (boundary at the top of the interval), or "infinity".
    """

    boundary_chart: Chart
    r_interval: tuple
    radial_metric: Callable
    epsilon: int = 1
    singular_end: str = "upper"
    fibration: Optional[FibrationData] = None
    fd_rel_step: float = 1e-4
    fd_order: int = 2

    def slice_field(self, r: float) -> MetricField:
        ev = self.radial_metric(r)
        return MetricField(self.boundary_chart, ev,
                           fd_rel_step=self.fd_rel_step, fd_order=self.fd_order)

    def full_chart(self) -> Chart:
        lo, hi = self.r_interval
        bounds = ((lo, hi),) + self.boundary_chart.bounds
        periodic = (False,) + self.boundary_chart.periodic
        return Chart(self.boundary_chart.name + "+r", bounds, periodic)

    def full_metric(self) -> MetricField:
        """The collar metric dr^2 + g(r) as one metric field."""
        n = self.boundary_chart.dim

        def ev(x):
            r, y = x[0], x[1:]
            out = np.zeros((n + 1, n + 1))
            out[0, 0] = 1.0
            out[1:, 1:] = self.radial_metric(r)(y)
            return out

        return MetricField(self.full_chart(), ev,
                           fd_rel_step=self.fd_rel_step, fd_order=self.fd_order)


@dataclass(frozen=True)
class SliceData:
    """Pointwise slice record: induced metric, II, curvature, frame."""

    r: float
    h: np.ndarray
    second_fundamental: DoubleForm   # (1,1), orthonormal frame, normal +d_r
    curvature: DoubleForm            # (2,2) of the induced metric
    frame: np.ndarray
    sqrt_det: float
    orientation: int


class Slice:
    """A fixed-radius slice of a collar; evaluates SliceData pointwise."""

    def __init__(self, collar: CollarMetric, r: float):
        lo, hi = collar.r_interval
        hr = 1e-3 * abs(r) if r != 0 else 1e-6
        reach = 2 if collar.fd_order == 4 else 1
        if not (lo < r - reach * hr and r + reach * hr < hi):
            raise DomainError("slice radius too close to the collar interval ends")
        self.collar = collar
        self.r = float(r)
        self.hr = hr
        self.field = collar.slice_field(r)

    def at(self, y) -> SliceData:
        c, r, hr = self.collar, self.r, self.hr
        y = np.asarray(y, dtype=float)
        h = _spd_check(c.radial_metric(r)(y))
        if c.fd_order == 4:
            dh = (-c.radial_metric(r + 2 * hr)(y) + 8.0 * c.radial_metric(r + hr)(y)
                  - 8.0 * c.radial_metric(r - hr)(y) + c.radial_metric(r - 2 * hr)(y)) / (12.0 * hr)
        else:
            dh = (c.radial_metric(r + hr)(y) - c.radial_metric(r - hr)(y)) / (2.0 * hr)
        E = _frame_of(h)
        ii_on = E.T @ (-0.5 * dh) @ E
        n = h.shape[0]
        ii = DoubleForm(n, 1, 1, 0.5 * (ii_on + ii_on.T))
        curv, _ = riemann_double_form(self.field, y, frame=E)
        return SliceData(
            r=r, h=h, second_fundamental=ii, curvature=curv, frame=E,
            sqrt_det=float(np.sqrt(np.linalg.det(h))), orientation=c.epsilon,
        )


def slice_data(c: CollarMetric, r: float) -> Slice:
    """Slice accessor at radius r; data at a point via .at(y)."""
    return Slice(c, r)


@dataclass
class GaugePath:
    """Pointwise gauge of the affine metric path at a point.

    All fields are expressed in the g0 orthonormal frame E0.  theta[k] and
    theta_dot[k] have shape (d, d, d): [frame direction, i, j].
    """

    x: np.ndarray
    s_nodes: np.ndarray
    frame: np.ndarray
    tau: list
    theta: list
    theta_dot: list
    curvature: list   # DoubleForm (2,2) per s node


def _transport_ode(g0_stack, g1_stack, s0: float, s1: float, tau0: np.ndarray,
                   substeps: int) -> np.ndarray:
    """Batched RK4 for dtau/ds = -1/2 g_s^{-1} gdot tau between s0 and s1.

    g0_stack, g1_stack, tau0 have shape (m, d, d); all m systems march
    together.
    """
    gdot = g1_stack - g0_stack

    def rhs(s, T):
        gs = (1.0 - s) * g0_stack + s * g1_stack
        return -0.5 * np.linalg.solve(gs, gdot @ T)

    T = tau0
    hs = (s1 - s0) / substeps
    s = s0
    for _ in range(substeps):
        k1 = rhs(s, T)
        k2 = rhs(s + 0.5 * hs, T + 0.5 * hs * k1)
        k3 = rhs(s + 0.5 * hs, T + 0.5 * hs * k2)
        k4 = rhs(s + hs, T + hs * k3)
        T = T + (hs / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s += hs
    return T


def metric_path_gauge(g0: MetricField, g1: MetricField, x, steps: int = 16,
                      substeps: int = 2, need_curvature: bool = True) -> GaugePath:
    """Gauge the path g_s = (1-s) g0 + s g1 to the fixed bundle (TM, g0).

    Solves the parallel-transport equation of the generalized cylinder
    pointwise and builds theta^s = nabla^s - nabla^0, its exact s-derivative,
    and the gauged curvature, all in the g0 orthonormal frame.  Since the
    path is affine, every g_s derivative is a combination of one stencil
    sweep per endpoint, and theta_dot follows from the transport equation
    with no differencing in s.  need_curvature=False skips the curvature
    samples (enough for surfaces, where the transgression integrand carries
    no curvature factor).
    """
    if steps < 8:
        raise MetricError("metric_path_gauge needs steps >= 8")
    if steps % 2:
        steps += 1
    x = np.asarray(x, dtype=float)
    if g0.chart is not g1.chart and g0.chart.bounds != g1.chart.bounds:
        raise MetricError("path endpoints must live on the same chart")
    d = g0.chart.dim
    h = g0.steps()
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    weights = _diff_weights(g0.fd_order)

    offsets = [(0,) * d]
    for a in range(d):
        for off, _ in weights:
            offsets.append(_StencilCache._shift((0,) * d, a, off))
    pts = {off: x + h * np.array(off, dtype=float) for off in offsets}
    g0_mats = {off: _spd_check(g0.evaluator(p)) for off, p in pts.items()}
    g1_mats = {off: _spd_check(g1.evaluator(p)) for off, p in pts.items()}
    for off in offsets:
        try:
            np.linalg.cholesky(g0_mats[off])
            np.linalg.cholesky(g1_mats[off])
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric loses positive definiteness along the path") from exc

    # parallel transport at the center and each stencil point, batched
    g0_stack = np.stack([g0_mats[off] for off in offsets])
    g1_stack = np.stack([g1_mats[off] for off in offsets])
    tau_stack = [np.broadcast_to(np.eye(d), g0_stack.shape).copy()]
    for k in range(steps):
        tau_stack.append(_transport_ode(g0_stack, g1_stack, s_nodes[k],
                                        s_nodes[k + 1], tau_stack[-1], substeps))
    pos = {off: idx for idx, off in enumerate(offsets)}
    taus = {off: [tau_stack[k][pos[off]] for k in range(steps + 1)] for off in offsets}

    def tau_rate(off, k):
        gs = (1.0 - s_nodes[k]) * g0_mats[off] + s_nodes[k] * g1_mats[off]
        return -0.5 * np.linalg.solve(gs, (g1_mats[off] - g0_mats[off]) @ taus[off][k])

    # first (and optionally second) metric derivatives at x, per endpoint
    _, dg0, d2g0 = _metric_derivatives(g0, x, want_second=need_curvature)
    _, dg1, d2g1 = _metric_derivatives(g1, x, want_second=need_curvature)
    g0c, g1c = g0_mats[(0,) * d], g1_mats[(0,) * d]
    gdot = g1c - g0c
    dgdot = dg1 - dg0
    gamma1_dot = _christoffel_first(dgdot)

    E0 = _frame_of(g0c)
    E0inv = np.linalg.inv(E0)
    # omega0[a][i][j]: connection form of g0 in coordinate direction a
    omega0 = np.einsum("km,ajm->akj", np.linalg.inv(g0c), _christoffel_first(dg0))

    def spatial_diff(series_at, k):
        out = np.zeros((d, d, d))
        for a in range(d):
            acc = 0.0
            for off, wt in weights:
                acc = acc + wt * series_at(_StencilCache._shift((0,) * d, a, off), k)
            out[a] = acc / h[a]
        return out

    center = (0,) * d
    thetas, theta_dots, curvs = [], [], []
    pairs = multi_indices(d, 2)
    for k, s in enumerate(s_nodes):
        gs = (1.0 - s) * g0c + s * g1c
        gs_inv = np.linalg.inv(gs)
        dgs = (1.0 - s) * dg0 + s * dg1
        gamma1_s = _christoffel_first(dgs)
        omegas = np.einsum("km,ajm->akj", gs_inv, gamma1_s)
        omegas_dot = (np.einsum("km,ajm->akj", -gs_inv @ gdot @ gs_inv, gamma1_s)
                      + np.einsum("km,ajm->akj", gs_inv, gamma1_dot))
        tau = taus[center][k]
        tauinv = np.linalg.inv(tau)
        taudot = tau_rate(center, k)
        dtau = spatial_diff(lambda off, kk: taus[off][kk], k)
        dtaudot = spatial_diff(tau_rate, k)
        theta_coord = np.stack([
            tauinv @ (dtau[mu] + omegas[mu] @ tau) - omega0[mu] for mu in range(d)
        ])
        # exact s-derivative of tau^{-1}(d tau + omega_s tau)
        tid = -tauinv @ taudot @ tauinv
        theta_dot_coord = np.stack([
            tid @ (dtau[mu] + omegas[mu] @ tau)
            + tauinv @ (dtaudot[mu] + omegas_dot[mu] @ tau + omegas[mu] @ taudot)
            for mu in range(d)
        ])

        def to_on(mat):
            return np.einsum("ma,mij->aij", E0,
                             np.einsum("ij,mjk,kl->mil", E0inv, mat, E0))

        thetas.append(to_on(theta_coord))
        theta_dots.append(to_on(theta_dot_coord))

        if need_curvature:
            d2gs = (1.0 - s) * d2g0 + s * d2g1
            F = _curvature_coord(gs, dgs, d2gs)
            Fg = np.einsum("ijkl,kc,ld->ijcd", F, tau, tau)
            Fon = np.einsum("ijkl,ia,jb,kc,ld->abcd", Fg, E0, E0, E0, E0)
            form = DoubleForm.zero(d, 2, 2)
            for rr, (i, j) in enumerate(pairs):
                for cc, (kk2, ll) in enumerate(pairs):
                    form.coeffs[rr, cc] = Fon[i, j, kk2, ll]
        else:
            form = DoubleForm.zero(d, 2, 2)
        curvs.append(form)

    return GaugePath(x=x, s_nodes=s_nodes, frame=E0,
                     tau=[taus[center][k] for k in range(len(s_nodes))],
                     theta=thetas, theta_dot=theta_dots, curvature=curvs)


def connection_difference(g0: MetricField, g1: MetricField, x):
    """omega(X)Y = nabla^{g1}_X Y - nabla^{g0}_X Y, computed two ways.

    Route (i) subtracts Christoffel tables.  Route (ii) solves the abstract
    Christoffel relation through C = g0^{-1} g1.  Returns (omega, residual)
    where omega[mu, i, j] = (omega(d_mu) d_j)^i and residual is the max
    disagreement between the routes.
    """
    d = g0.chart.dim
    gam0 = christoffel(g0, x)
    gam1 = christoffel(g1, x)
    direct = np.stack([gam1[:, mu, :] - gam0[:, mu, :] for mu in range(d)])

    g0m = g0.g(x)
    g1m = g1.g(x)
    C = np.linalg.solve(g0m, g1m)
    h = g0.steps()
    dC = np.zeros((d, d, d))
    for a in range(d):
        acc = 0.0
        for off, wt in _diff_weights(g0.fd_order):
            p = np.array(x, dtype=float)
            p[a] += off * h[a]
            acc = acc + wt * np.linalg.solve(_spd_check(g0.evaluator(p)),
                                             _spd_check(g1.evaluator(p)))
        dC[a] = acc / h[a]
    # covariant derivative of C in the g0 connection
    nablaC = np.zeros((d, d, d))
    for a in range(d):
        nablaC[a] = dC[a] + gam0[:, a, :] @ C - C @ gam0[:, a, :]
    # T[x, y, z] = g0((nabla_X C)Y, Z)
    T = np.einsum("aij,jz->aiz", nablaC, g0m)
    # rhs[a, b, z] = (T[a,b,z] + T[b,a,z] - T[z,a,b]) / 2
    rhs = 0.5 * (np.einsum("abz->abz", T) + np.einsum("baz->abz", T) - np.einsum("zab->abz", T))
    Cinv = np.linalg.inv(C)
    g0inv = np.linalg.inv(g0m)
    abstract = np.einsum("ik,kl,abl->aib", Cinv, g0inv, rhs)
    residual = float(np.max(np.abs(direct - abstract)))
    return direct, residual


@dataclass
class PhiConnection:
    """phi-conjugated connection sample in the h^phi orthonormal frame."""

    r: float
    y: np.ndarray
    omega: np.ndarray   # [mu, i, j], mu over (r,) + N coordinates
    frame: np.ndarray


def _phi_matrix(r: float, dim: int, fiber_dim: int) -> np.ndarray:
    phi = np.eye(dim)
    for a in range(1, 1 + fiber_dim):
        phi[a, a] = r
    return phi


def phi_conjugated_connection(c: CollarMetric, g: MetricField, r: float, y) -> PhiConnection:
    """phi nabla^g phi^{-1} in the h^phi orthonormal frame at (r, y).

    phi multiplies the vertical block by r and fixes the radial and
    horizontal directions; r must be nonzero.  The r -> 0 value is defined
    only through extrapolation of these samples.
    """
    if r == 0:
        raise DomainError("phi conjugation at r = 0 is defined only by extrapolation")
    fib = c.fibration
    if fib is None:
        raise MetricError("phi conjugation needs fibration data on the collar")
    y = np.asarray(y, dtype=float)
    x = np.concatenate(([r], y))
    d = g.chart.dim
    f = fib.fiber_dim

    gamma = christoffel(g, x)
    omega_coord = np.stack([gamma[:, mu, :] for mu in range(d)])  # [mu, i, j]
    phi = _phi_matrix(r, d, f)
    phiinv = np.linalg.inv(phi)
    conj = np.einsum("ik,mkl,lj->mij", phi, omega_coord, phiinv)
    # subtract (d phi) phi^{-1}: only the radial direction contributes 1/r
    for a in range(1, 1 + f):
        conj[0, a, a] -= 1.0 / r

    hphi = _h_phi_matrix(c, fib, r, y)
    E = _frame_of(hphi)
    Einv = np.linalg.inv(E)
    # frame derivative by central differences of the blockwise Cholesky
    h_r = 1e-3 * abs(r)
    steps = np.concatenate(([h_r], c.fd_rel_step * c.boundary_chart.extents))
    dE = np.zeros((d, d, d))
    for mu in range(d):
        acc = 0.0
        for off, wt in _diff_weights(2):
            p = x.copy()
            p[mu] += off * steps[mu]
            acc = acc + wt * _frame_of(_h_phi_matrix(c, fib, p[0], p[1:]))
        dE[mu] = acc / steps[mu]
    omega_on = np.stack([Einv @ (dE[mu] + conj[mu] @ E) for mu in range(d)])
    return PhiConnection(r=r, y=y, omega=omega_on, frame=E)


def _h_phi_matrix(c: CollarMetric, fib: FibrationData, r: float, y) -> np.ndarray:
    """h^phi = dr^2 + g^V(r) + g^B at (r, y), block diagonal, fiber first."""
    f, b = fib.fiber_dim, fib.base_dim
    d = 1 + f + b
    out = np.zeros((d, d))
    out[0, 0] = 1.0
    if f:
        out[1 : 1 + f, 1 : 1 + f] = fib.fiber_metric(r, y[:f])
    if b:
        out[1 + f :, 1 + f :] = fib.base_metric(y[f:])
    return _spd_check(out)
