"""Chart-based Riemannian engine.

Metrics are plain point -> SPD-matrix functions on coordinate boxes.  An
evaluator maps points of shape (..., d) to matrices of shape (..., d, d); a
constant metric may return one (d, d) matrix, which is broadcast.  The jet,
curvature, frame, slice, metric-path gauge and phi-connection functions take
the same leading batch axes, so one call serves a single point or a whole
block of points, and every per-sample check applies to each point of the
block.  The gauge's parallel transport along g_s = (1-s) g0 + s g1 is in
closed form: with g0 = L L^T and L^{-1} g1 L^{-T} = Q diag(lam) Q^T,
tau(s) = L^{-T} Q diag((1 + s(lam-1))^(-1/2)) Q^T L^T, one Cholesky and one
eigh per stencil point and no ODE steps.  Every first derivative goes
through one central stencil of order 2 or 4, _central_diff: the metric jet
(dg and the mixed d2g), the slice metric in r, the transported gauge, and
the h^phi frame.  The metric jet makes one evaluator call per jet: every
stencil offset of a block is stacked into one (S, ..., d) sample.  Its
diagonal second derivatives use the matching three- or five-point formula.
The lowered curvature comes straight from the first-kind symbols G_ij,k:
F_ijkl = d_i G_jl,k - d_j G_il,k - G_ik,m g^mn G_jl,n + G_jk,m g^mn G_il,n,
with no derivative of g^{-1} and no lowering by g.  The frame change is
P^T F P2 in the pair basis P[(i,j), (a<b)] = E_ia E_jb; every contraction
is a batched matmul.  Slices and the gauged path return only what the
transgression integrands read; orientation signs are verify.EPSILONS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    "DomainError",
    "MetricError",
    "christoffel",
    "riemann_double_form",
    "metric_path_gauge",
    "phi_frame",
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

    def random_interior(self, rng, count: int, shrink: float = 0.05) -> np.ndarray:
        """count points (count, d) drawn uniformly from the box shrunk by shrink per side."""
        lo, hi = np.array(self.bounds, dtype=float).T
        return lo + (shrink + (1 - 2 * shrink) * rng.random((count, self.dim))) * (hi - lo)


def _spd_check(g: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of metric samples, each checked on its own scale (one buffer)."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise MetricError("metric sample is not a square matrix")
    gt = np.swapaxes(g, -1, -2)
    buf = np.abs(g)
    scale = np.maximum(1.0, np.max(buf, axis=(-2, -1)))
    np.abs(np.subtract(g, gt, out=buf), out=buf)
    if np.any(np.max(buf, axis=(-2, -1)) > 1e-10 * scale):
        raise MetricError("metric sample is not symmetric")
    np.add(g, gt, out=buf)
    buf *= 0.5
    return buf


def _sample(ev: Callable, x: np.ndarray) -> np.ndarray:
    """ev at points x (..., d), checked and broadcast to (..., d, d)."""
    g = _spd_check(ev(x))
    try:
        return np.broadcast_to(g, x.shape[:-1] + (x.shape[-1],) * 2)
    except ValueError:
        raise MetricError(f"metric evaluator breaks the (..., d) -> (..., d, d) contract: "
                          f"points of shape {x.shape} gave a sample of shape {g.shape}") from None


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
        return _sample(self.evaluator, np.asarray(x, dtype=float))

    def check_stencil(self, x):
        x = np.asarray(x, dtype=float)
        h = self.steps()
        order = self.fd_order
        reach = 2 if order == 4 else 1
        for i, ((lo, hi), per) in enumerate(zip(self.chart.bounds, self.chart.periodic)):
            if per:
                continue
            xi = x[..., i]
            if np.any(xi - reach * h[i] < lo) or np.any(xi + reach * h[i] > hi):
                raise DomainError(
                    f"finite-difference stencil leaves chart {self.chart.name!r} at axis {i}"
                )


def _diff_weights(order: int):
    if order == 2:
        return [(-1, -0.5), (1, 0.5)]
    if order == 4:
        return [(-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)]
    raise MetricError("fd_order must be 2 or 4")


def _central_diff(f, h, order: int):
    """First derivative sum_k w_k f(k) / h by the central stencil of an order.

    f maps an integer offset k, in units of the step h, to a sample (a number
    or an array).  Samples are summed in stencil order starting from 0.0, so
    at order 2 the result rounds exactly as (f(1) - f(-1)) / (2 h).
    """
    out = 0.0
    for off, wt in _diff_weights(order):
        out = out + wt * f(off)
    return out / h


def _metric_jet(m: MetricField, x, want_second: bool):
    """g, dg and (if wanted) d2g at x from one evaluator call per jet.

    x has shape (..., d).  The center, the axis points and (if want_second)
    the mixed pairs are stacked into one (S, ..., d) sample: one evaluator
    call and one SPD check serve a block's whole stencil.  dg[..., a, i, j] =
    d_a g_ij, d2g[..., a, b, i, j].  Returns (g, dg, d2g, samples): samples
    maps each integer offset tuple, in units of m.steps(), to its metric.
    """
    d = m.chart.dim
    m.check_stencil(x)
    x = np.asarray(x, dtype=float)
    h = m.steps()
    order = m.fd_order
    ks = [k for k, _ in _diff_weights(order)]
    zero = (0,) * d
    offsets = [zero] + [zero[:a] + (k,) + zero[a + 1:] for a in range(d) for k in ks]
    if want_second:
        offsets += [zero[:a] + (j,) + zero[a + 1:b] + (k,) + zero[b + 1:]
                    for a in range(d) for b in range(a + 1, d) for j in ks for k in ks]
    stencil = np.array(offsets, dtype=float).reshape((len(offsets),) + (1,) * (x.ndim - 1) + (d,))
    samples = dict(zip(offsets, m.g(x + h * stencil)))

    def at(base, axis, k):
        return samples[base[:axis] + (base[axis] + k,) + base[axis + 1:]]

    g = samples[zero]
    dg = np.stack([_central_diff(partial(at, zero, a), h[a], order) for a in range(d)], axis=-3)
    d2g = None
    if want_second:
        d2g = np.zeros(x.shape[:-1] + (d, d, d, d))
        for a in range(d):
            if order == 2:
                d2g[..., a, a, :, :] = (at(zero, a, 1) - 2.0 * g + at(zero, a, -1)) / h[a] ** 2
            else:
                d2g[..., a, a, :, :] = (-at(zero, a, 2) + 16.0 * at(zero, a, 1) - 30.0 * g
                                        + 16.0 * at(zero, a, -1) - at(zero, a, -2)) / (12.0 * h[a] ** 2)
            for b in range(a + 1, d):
                # d_a of the d_b stencil, taken at the points shifted along a
                val = _central_diff(
                    lambda j, a=a, b=b: _central_diff(
                        partial(at, zero[:a] + (j,) + zero[a + 1:], b), h[b], order),
                    h[a], order)
                d2g[..., a, b, :, :] = val
                d2g[..., b, a, :, :] = val
    return g, dg, d2g, samples


def christoffel(m: MetricField, x) -> np.ndarray:
    """Second-kind Levi-Civita coefficients Gamma[k, i, j] at x."""
    g, dg, _, _ = _metric_jet(m, x, want_second=False)
    return _christoffel_from(g, dg)


def _christoffel_first(dg: np.ndarray) -> np.ndarray:
    """First-kind symbols G1[..., i, j, k] = (d_i g_jk + d_j g_ik - d_k g_ij)/2."""
    return 0.5 * (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))


def _second_kind(ginv: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Gamma^k_ij at [..., i, j, k] as G1 @ g^{-T}: one matmul over the flattened (i, j)."""
    d = g1.shape[-1]
    out = g1.reshape(g1.shape[:-3] + (d * d, d)) @ np.swapaxes(ginv, -1, -2)
    return out.reshape(out.shape[:-2] + (d, d, d))


def _christoffel_from(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric sample is singular") from exc
    return np.moveaxis(_second_kind(ginv, _christoffel_first(dg)), -1, -3)


def _frame_of(g: np.ndarray) -> np.ndarray:
    """Cholesky-based frame E with E^T g E = Id and det E = 1 / sqrt(det g) > 0."""
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric sample is not positive definite") from exc
    return np.swapaxes(np.linalg.inv(L), -1, -2)


def _curvature_coord(g, dg, d2g) -> np.ndarray:
    """Lowered curvature F[..., i,j,k,l] = < d_k, R(d_i, d_j) d_l > from first-kind symbols.

    With G_ij,k the first-kind symbols, F_ijkl = d_i G_jl,k - d_j G_il,k
    - G_ik,m g^mn G_jl,n + G_jk,m g^mn G_il,n: no derivative of g^{-1} or of
    the second-kind symbols, and no lowering by g.  X = d_i G_jl,k -
    G_ik,m Gamma^m_jl takes one matmul over the flattened pairs (i,k) and
    (j,l), and F = X - X^(i<->j) is exactly antisymmetric in (i, j).
    """
    d = g.shape[-1]
    g1 = _christoffel_first(dg)                             # [..., i, k, m] = G_ik,m
    gamma = _second_kind(np.linalg.inv(g), g1)              # [..., j, l, m] = Gamma^m_jl
    pairs = g1.shape[:-3] + (d * d, d)
    quad = g1.reshape(pairs) @ np.swapaxes(gamma.reshape(pairs), -1, -2)   # [(i,k), (j,l)]
    X = (np.swapaxes(_christoffel_first(d2g), -1, -2)       # d_i G_jl,k
         - np.swapaxes(quad.reshape(quad.shape[:-2] + (d,) * 4), -3, -2))
    return X - np.swapaxes(X, -4, -3)


def _pair_coeffs(F: np.ndarray, E: np.ndarray, E2: Optional[np.ndarray] = None) -> np.ndarray:
    """(2,2) coefficients <e2_c, R(e_a, e_b) e2_d>, a<b and c<d, of F in the frames E, E2.

    E2 (default E) frames the second pair.  The frame change is two matmuls
    in the pair basis P[(i,j), (a<b)] = E_ia E_jb: P^T F P2, with F flattened
    to a (d^2, d^2) matrix.
    """
    d = E.shape[-1]
    a, b = np.array(multi_indices(d, 2), dtype=np.intp).reshape(-1, 2).T

    def pair_basis(frame):
        P = frame[..., :, None, a] * frame[..., None, :, b]
        return P.reshape(P.shape[:-3] + (d * d, a.size))

    P = pair_basis(E)
    P2 = P if E2 is None else pair_basis(E2)
    return np.swapaxes(P, -1, -2) @ F.reshape(F.shape[:-4] + (d * d, d * d)) @ P2


def riemann_double_form(m: MetricField, x):
    """Curvature as a (2,2) double form in the orthonormal frame at x.

    x may carry leading batch axes (a block of nodes); the form's
    coefficients and the frame carry the same axes.  Returns (form, frame).
    The coefficient at (I; J) with I = (i<j), J = (k<l) is <e_k, R(e_i, e_j) e_l>.
    """
    g, dg, d2g, _ = _metric_jet(m, x, want_second=True)
    frame = _frame_of(g)
    coeffs = _pair_coeffs(_curvature_coord(g, dg, d2g), frame)
    return DoubleForm(m.chart.dim, 2, 2, coeffs), frame


@dataclass(frozen=True)
class FibrationData:
    """Trivial-product fibration of the collar cross-section N = F x B.

    Coordinates on N are ordered fiber-first; a factor without a chart has
    dimension 0.  The Euler characteristic of the fiber is stored reference
    data.
    """

    base_chart: Optional[Chart]
    fiber_chart: Optional[Chart]
    base_metric: Optional[Callable] = None     # y_b -> (b, b) matrix
    fiber_metric: Optional[Callable] = None    # r, y_f -> (f, f) matrix
    chi_fiber: Optional[int] = None

    @property
    def base_dim(self) -> int:
        return self.base_chart.dim if self.base_chart else 0

    @property
    def fiber_dim(self) -> int:
        return self.fiber_chart.dim if self.fiber_chart else 0


@dataclass(frozen=True)
class CollarMetric:
    """Normal-form collar dr^2 + g(r) over a boundary chart.

    radial_metric(r) returns the y -> matrix evaluator of g(r) on N; r is a
    number or an array of y's batch shape (as full_metric passes it).
    singular_end marks where the degenerate locus sits: "lower" (r -> 0),
    "upper" (boundary at the top of the interval), or "infinity".  The
    orientation sign is the geometry family's flag in verify.EPSILONS.
    """

    boundary_chart: Chart
    r_interval: tuple
    radial_metric: Callable
    singular_end: str = "upper"
    fibration: Optional[FibrationData] = None
    fd_rel_step: float = 1e-4
    fd_order: int = 2

    def __post_init__(self):
        lo, hi = self.r_interval
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DomainError(f"bad radial interval {self.r_interval!r} for a collar")

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
            r, y = x[..., 0], x[..., 1:]
            out = np.zeros(x.shape[:-1] + (n + 1, n + 1))
            out[..., 0, 0] = 1.0
            out[..., 1:, 1:] = self.radial_metric(r)(y)
            return out

        return MetricField(self.full_chart(), ev,
                           fd_rel_step=self.fd_rel_step, fd_order=self.fd_order)


@dataclass(frozen=True)
class SliceData:
    """Slice record at a point or a block: II and R in the orthonormal frame
    of the induced metric h, with the points' batch axes, and sqrt(det h)."""

    second_fundamental: DoubleForm   # (1,1), normal +d_r
    curvature: DoubleForm            # (2,2) of the induced metric
    frame: np.ndarray
    sqrt_det: np.ndarray             # batch shape of the points


class Slice:
    """A fixed-radius slice of a collar; evaluates SliceData at a point or a block."""

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
        curv, E = riemann_double_form(self.field, y)
        dh = _central_diff(lambda k: c.radial_metric(r + k * hr)(y), hr, c.fd_order)
        ii_on = np.swapaxes(E, -1, -2) @ (-0.5 * dh) @ E
        ii = DoubleForm(E.shape[-1], 1, 1, 0.5 * (ii_on + np.swapaxes(ii_on, -1, -2)))
        return SliceData(second_fundamental=ii, curvature=curv, frame=E,
                         sqrt_det=1.0 / np.linalg.det(E))


# Even number of Simpson steps in s on the affine metric path
PATH_STEPS = 16


@dataclass
class GaugePath:
    """Gauge of the affine metric path at a point or a block of points.

    theta_dot and curvature are at the Simpson nodes s_nodes, in the g0
    orthonormal frame E0 = frame (..., d, d), so 1 / det(frame) = sqrt(det g0).
    theta_dot[k] = d/ds theta^s has shape (..., d, d, d): [batch...,
    frame direction, i, j].  curvature[k] is the (2,2) double form with the
    same batch axes (the unbatched zero form when d = 2).
    """

    s_nodes: np.ndarray
    theta_dot: list
    curvature: list
    frame: np.ndarray


def _path_eigenbasis(g0: np.ndarray, g1: np.ndarray):
    """A, A^{-1} and lam with g1 A = g0 A diag(lam), for stacks of SPD pairs.

    With g0 = L L^T and L^{-1} g1 L^{-T} = Q diag(lam) Q^T, A = L^{-T} Q:
    one Cholesky and one eigh per pair.  Every g_s on the affine path is
    SPD exactly when g0 is and every lam > 0.
    """
    try:
        L = np.linalg.cholesky(g0)
        Linv = np.linalg.inv(L)
        lam, Q = np.linalg.eigh(Linv @ g1 @ np.swapaxes(Linv, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric loses positive definiteness along the path") from exc
    if not np.all(lam > 0.0):
        raise MetricError("metric loses positive definiteness along the path")
    return np.swapaxes(Linv, -1, -2) @ Q, np.swapaxes(Q, -1, -2) @ np.swapaxes(L, -1, -2), lam


def _path_transport(A, Ainv, lam, s: float):
    """Closed-form transport tau(s) and dtau/ds of the path g_s = (1-s) g0 + s g1.

    The matrices g_s^{-1} gdot commute for all s, so dtau/ds =
    -1/2 g_s^{-1} gdot tau with tau(0) = Id is solved exactly by
    tau(s) = A diag((1 + s(lam-1))^(-1/2)) A^{-1} = (g0^{-1} g_s)^(-1/2).
    """
    D = 1.0 + s * (lam - 1.0)
    tau = (A * (D ** -0.5)[..., None, :]) @ Ainv
    rate = (A * (-0.5 * (lam - 1.0) * D ** -1.5)[..., None, :]) @ Ainv
    return tau, rate


def _connection(ginv: np.ndarray, gamma1: np.ndarray) -> np.ndarray:
    """Connection matrices omega[..., a, k, j] = Gamma^k_{aj}: the transposed _second_kind."""
    return np.swapaxes(_second_kind(ginv, gamma1), -1, -2)


def metric_path_gauge(g0: MetricField, g1: MetricField, x) -> GaugePath:
    """Gauge the path g_s = (1-s) g0 + s g1 to the fixed bundle (TM, g0).

    x is a point or a block of points of shape (..., d); every field of the
    result carries the same leading axes, and one evaluator call per
    endpoint serves the whole stencil of the block.  The parallel
    transport of the generalized cylinder is exact: with g0 = L L^T and
    L^{-1} g1 L^{-T} = Q diag(lam) Q^T,
    tau(s) = L^{-T} Q diag((1 + s(lam-1))^(-1/2)) Q^T L^T, taken at the
    center and at each first-derivative stencil point.  From it come the
    exact s-derivative of theta^s = nabla^s - nabla^0 and the gauged
    curvature at the PATH_STEPS + 1 nodes s_k = k / PATH_STEPS, all in the
    g0 orthonormal frame; d/dx of tau is the shared central stencil over
    those points.  Since the path is affine, every g_s derivative is a
    combination of one stencil sweep per endpoint, and theta_dot uses
    dtau/ds = -1/2 g_s^{-1} gdot tau with no differencing in s.
    The curvature is computed exactly when d > 2: on a surface the
    transgression integrand B(theta_dot R^0) reads none, so the second
    derivatives are skipped and curvature holds zero forms.
    """
    x = np.asarray(x, dtype=float)
    if (g0.chart is not g1.chart and g0.chart.bounds != g1.chart.bounds) or \
            (g0.fd_rel_step, g0.fd_order) != (g1.fd_rel_step, g1.fd_order):
        raise MetricError("path endpoints must live on the same chart and stencil")
    d = g0.chart.dim
    h = g0.steps()
    order = g0.fd_order
    s_nodes = np.linspace(0.0, 1.0, PATH_STEPS + 1)
    curved = d > 2

    # one stencil sweep per endpoint; its center and first-derivative rows
    # also feed the transport
    g0c, dg0, d2g0, samples0 = _metric_jet(g0, x, want_second=curved)
    g1c, dg1, d2g1, samples1 = _metric_jet(g1, x, want_second=curved)
    # transport rows: the center (row 0) and the first-derivative stencil points
    offsets = [off for off in samples0 if off.count(0) >= d - 1]
    axis_rows = [{} for _ in range(d)]
    for row, off in enumerate(offsets):
        for a, k in enumerate(off):
            if k:
                axis_rows[a][k] = row
    A, Ainv, lam = _path_eigenbasis(np.stack([samples0[off] for off in offsets]),
                                    np.stack([samples1[off] for off in offsets]))
    del samples0, samples1   # the s loop needs only the rows; keeps peak memory down

    def along_axes(stack):
        """d_a of a quantity stacked over the rows, on axis -3 of the result."""
        return np.stack([_central_diff(lambda k, rows=rows: stack[rows[k]], h[a], order)
                         for a, rows in enumerate(axis_rows)], axis=-3)

    gdot = g1c - g0c
    dgdot = dg1 - dg0
    gamma1_dot = _christoffel_first(dgdot)

    E0 = _frame_of(g0c)
    E0inv = np.linalg.inv(E0)

    def to_on(mat):
        inner = E0inv[..., None, :, :] @ mat @ E0[..., None, :, :]
        out = np.swapaxes(E0, -1, -2) @ inner.reshape(inner.shape[:-3] + (d, d * d))
        return out.reshape(inner.shape)

    def gauged_curvature(s):
        """Curvature of g_s pulled back by tau(s), in the g0 orthonormal frame."""
        tau = _path_transport(A[0], Ainv[0], lam[0], s)[0]
        F = _curvature_coord((1.0 - s) * g0c + s * g1c, (1.0 - s) * dg0 + s * dg1,
                             (1.0 - s) * d2g0 + s * d2g1)
        return DoubleForm(d, 2, 2, _pair_coeffs(F, E0, tau @ E0))

    # the curvature goes first, while few other arrays are alive: at d = 4 its
    # temporaries set the peak memory
    curvs = [gauged_curvature(s) if curved else DoubleForm.zero(d, 2, 2)
             for s in s_nodes]
    theta_dots = []
    for s in s_nodes:
        gs = (1.0 - s) * g0c + s * g1c
        gs_inv = np.linalg.inv(gs)
        dgs = (1.0 - s) * dg0 + s * dg1
        gamma1_s = _christoffel_first(dgs)
        omegas = _connection(gs_inv, gamma1_s)
        omegas_dot = (_connection(-gs_inv @ gdot @ gs_inv, gamma1_s)
                      + _connection(gs_inv, gamma1_dot))
        taus, rates = _path_transport(A, Ainv, lam, s)
        tau, taudot = taus[0], rates[0]
        tauinv = np.linalg.inv(tau)
        T, Tinv = tau[..., None, :, :], tauinv[..., None, :, :]
        # the exact s-derivative of theta = tau^{-1}(d tau + omega_s tau) - omega_0
        core = along_axes(taus) + omegas @ T
        tid = -(tauinv @ taudot @ tauinv)[..., None, :, :]
        theta_dots.append(to_on(
            tid @ core
            + Tinv @ (along_axes(rates) + omegas_dot @ T + omegas @ taudot[..., None, :, :])))

    return GaugePath(s_nodes=s_nodes, theta_dot=theta_dots, curvature=curvs, frame=E0)


def _phi_matrix(r: float, dim: int, fiber_dim: int) -> np.ndarray:
    phi = np.eye(dim)
    for a in range(1, 1 + fiber_dim):
        phi[a, a] = r
    return phi


def phi_conjugated_connection(c: CollarMetric, r: float, y) -> np.ndarray:
    """phi nabla^g phi^{-1} in the h^phi orthonormal frame at (r, y).

    g is the collar's full metric c.full_metric(), at the collar's stencil.
    y is a point or a block of points (..., n) of the slice chart; returns
    omega[..., mu, i, j], mu over the (r,) + N coordinates.  phi multiplies
    the vertical block by r and fixes the radial and horizontal directions;
    r must be nonzero.  The r -> 0 value is defined only through
    extrapolation of these samples.
    """
    if r == 0:
        raise DomainError("phi conjugation at r = 0 is defined only by extrapolation")
    fib = c.fibration
    if fib is None:
        raise MetricError("phi conjugation needs fibration data on the collar")
    y = np.asarray(y, dtype=float)
    x = np.concatenate((np.full(y.shape[:-1] + (1,), r), y), axis=-1)
    d = x.shape[-1]
    f = fib.fiber_dim

    omega_coord = np.swapaxes(christoffel(c.full_metric(), x), -3, -2)  # [..., mu, i, j]
    phi = _phi_matrix(r, d, f)
    conj = phi @ omega_coord @ np.linalg.inv(phi)
    # subtract (d phi) phi^{-1}: only the radial direction contributes 1/r
    for a in range(1, 1 + f):
        conj[..., 0, a, a] -= 1.0 / r

    E, dE = phi_frame(c, r, y, 1e-3 * abs(r))
    return np.linalg.inv(E)[..., None, :, :] @ (dE + conj @ E[..., None, :, :])


def phi_frame(c: CollarMetric, r: float, y, h_r: float):
    """h^phi orthonormal frame E at (r, y) and its derivatives dE[..., mu, :, :].

    y is a point or a block (..., n).  dE differences the blockwise Cholesky
    frame at order 2, with step h_r along r and the collar's relative step
    along the slice axes.
    """
    y = np.asarray(y, dtype=float)
    steps = np.concatenate(([h_r], c.fd_rel_step * c.boundary_chart.extents))

    def frame_at(mu, k):
        shift = k * steps[mu] * np.eye(steps.size)[mu]   # along r or one slice axis
        return _frame_of(_h_phi_matrix(c, r + shift[0], y + shift[1:]))

    dE = np.stack([_central_diff(partial(frame_at, mu), steps[mu], 2)
                   for mu in range(steps.size)], axis=-3)
    return _frame_of(_h_phi_matrix(c, r, y)), dE


def _h_phi_matrix(c: CollarMetric, r: float, y) -> np.ndarray:
    """h^phi = dr^2 + g^V(r) + g^B at (r, y), block diagonal, fiber first."""
    fib = c.fibration
    f, b = fib.fiber_dim, fib.base_dim
    d = 1 + f + b
    out = np.zeros(np.shape(y)[:-1] + (d, d))
    out[..., 0, 0] = 1.0
    if f:
        out[..., 1 : 1 + f, 1 : 1 + f] = fib.fiber_metric(r, y[..., :f])
    if b:
        out[..., 1 + f :, 1 + f :] = fib.base_metric(y[..., f:])
    return _spd_check(out)
