"""Chart-based Riemannian engine.

Metrics are plain point -> SPD-matrix functions on coordinate boxes.  An
evaluator maps points of shape (..., d) to matrices of shape (..., d, d);
the sample's batch is the points' broadcast with the evaluator's own
leading axes, so a constant metric may return one (d, d) matrix and a
collar's radial_metric(r) a stack over the axes of r.  The jet,
curvature, frame, slice, metric-path gauge and phi-connection functions take
the same leading batch axes, so one call serves a single point or a whole
block of points, and every per-sample check applies to each point of the
block.  The gauge's parallel transport along g_s = (1-s) g0 + s g1 is in
closed form from one Cholesky and one eigh of the centre pair, with no ODE
steps, and its theta_dot comes from the first variation of the connection
on the two endpoint jets, with no difference of its own.  In the centre's
eigenbasis every s-dependent factor is diagonal, so theta_dot at all the
Simpson nodes in s is one broadcast expression, evaluated in place in one
buffer (with one temporary of its size) whose frame direction and s axes
lead, so each pass covers every direction, node and point of the block,
on the pairs i < j as the (1,2) form the transgression reads.  The
first-kind symbols it reads reach the eigenbasis by two matmuls per
point, over every (endpoint or rate, direction) pair at once.  The
curvature (d > 2) takes as many nodes per pass as a block of
quadrature.block_size(d) samples holds, to bound the memory.  Stencil
offsets and weights have one owner, the cached plan _jet_plan, and a
field's steps, reach and chart bounds another, the stencil plan of its
(chart, fd_order, fd_rel_step) (_stencil_plan, read-only arrays cached on
at most quadrature.PLANS keys), which MetricField.steps, check_stencil
and the jet read; every derivative is one evaluation on a sample stacked
over the plan's points, differenced along that axis by _central_diff or,
all axes at once, _along_axes: the metric jet (one evaluator call; the
diagonal of d2g by the three- or five-point formula), the slice metric in
r (CollarMetric.radial_rate), the h^phi frame (one Cholesky of one
stacked sample) and the Stokes curl in verify.  The jet builds its stencil points
coordinate-first, so each coordinate an evaluator reads is one contiguous
slab, and an order-2 difference is one subtraction over 2h.  The
curvature is built on the pairs i < j, k < l alone, the C(d,2)^2 entries
the (2,2) double form keeps (_curvature_pairs): half an alternating sum
of four d2g entries, gathered, minus G_ik,m g^mn G_jl,n plus G_jk,m g^mn
G_il,n from the first-kind symbols G_ij,k, with no derivative of g^{-1}
and no lowering by g.  Its
g^{-1}, and that of christoffel for the phi connection, comes from a
factorisation in hand: E E^T from the Cholesky frame E, or A diag(1/D) A^T
from the gauge's eigenbasis A of the pair (g0, g1).  The frame change is
M^T F M2 with the 2x2 minors M[(i<j), (a<b)] = E_ia E_jb - E_ib E_ja of
_pair_minors, which also rotate the gauge's pairs; every contraction is a
batched matmul or a gather from a plan cached per d (_pair_plan).
_frame_of owns the one Cholesky and solves for its triangular frame, whose
diagonal gives sqrt(det g) (_sqrt_det); the gauge's eigenbasis starts
from its frame.  Every block-diagonal metric (a collar's dr^2 + g(r),
h^phi and the catalog's diagonal and product metrics) is one _block_diag.
Slices and the gauged path return only what the transgression integrands
read.  A slice, the h^phi frame and the phi connection take a radius or a
1-D radius schedule through one path, the schedule's axis ahead of the
block.  A slice's radius is a shape of the metric sample, not of the
points: its nodes carry a size-1 axis in the schedule's place and
radial_metric(r)(y) broadcasts s(r) h(y), so each stencil point is
evaluated and checked once for the whole schedule.  Orientation signs are
verify.EPSILONS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .doubleform import DoubleForm, multi_indices
from .quadrature import PLANS, block_size

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

    def interior(self, u, shrink: float = 0.05) -> np.ndarray:
        """The points (..., d) of the box shrunk by shrink per side at unit coordinates u.

        u (..., d) in [0, 1) maps affinely onto each axis; a check passes
        fixed data (verify.PHI_PROBE) rather than a generator, so its points
        are the same on every run and no check path loads numpy.random.
        """
        lo, hi = np.array(self.bounds, dtype=float).T
        return lo + (shrink + (1 - 2 * shrink) * u) * (hi - lo)


def _flat(arr: np.ndarray, axes: int) -> np.ndarray:
    """arr with its last axes axes flattened into one."""
    return arr.reshape(arr.shape[:-axes] + (math.prod(arr.shape[-axes:]),))


def _transposed(arr: np.ndarray) -> np.ndarray:
    """arr with its last two axes swapped, as a C-contiguous copy.

    On stacks of small matrices a single-threaded matmul with a transposed
    view as an operand runs several times slower than with this copy.
    """
    return np.ascontiguousarray(np.swapaxes(arr, -1, -2))


@lru_cache(maxsize=None)
def _triangles(d: int) -> np.ndarray:
    """Flat (d, d) indices [2, T]: the upper triangle with the diagonal, then its mirror."""
    i, j = np.triu_indices(d)
    out = np.stack((i * d + j, j * d + i))
    out.flags.writeable = False
    return out


def _spd_check(g: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of metric samples, each checked on its own scale (one buffer).

    An exactly symmetric stack comes back as it is, after one comparison of
    the upper triangle with the lower, diagonals included, in one gather:
    (a + a)/2 = a, so only the sign of an exact zero can differ; a NaN
    anywhere fails the comparison and raises.  _sample hands the
    evaluator's own array out only as a read-only view.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise MetricError("metric sample is not a square matrix")
    tri = _flat(g, 2)[..., _triangles(g.shape[-1])]
    if (tri[..., 0, :] == tri[..., 1, :]).all():
        return g
    gt = np.swapaxes(g, -1, -2)
    buf = np.abs(g)
    if np.isnan(buf).any():
        raise MetricError("metric sample holds a NaN")
    scale = np.maximum(1.0, np.max(buf, axis=(-2, -1)))
    np.abs(np.subtract(g, gt, out=buf), out=buf)
    if np.any(np.max(buf, axis=(-2, -1)) > 1e-10 * scale):
        raise MetricError("metric sample is not symmetric")
    np.add(g, gt, out=buf)
    buf *= 0.5
    return buf


def _block_diag(*blocks) -> np.ndarray:
    """Square blocks (..., m, m) on the diagonal of one matrix; their batch axes broadcast."""
    d = sum(b.shape[-1] for b in blocks)
    out = np.zeros(np.broadcast_shapes(*(b.shape[:-2] for b in blocks)) + (d, d))
    lo = 0
    for b in blocks:
        hi = lo + b.shape[-1]
        out[..., lo:hi, lo:hi] = b
        lo = hi
    return out


def _sample(ev: Callable, x: np.ndarray) -> np.ndarray:
    """ev at points x (..., d), checked and broadcast to (..., d, d).

    The batch is that of x broadcast with the sample's own leading axes, so
    an evaluator may add axes of its own (a slice's radius schedule); a
    batch that does not broadcast against the points' raises MetricError.
    """
    g = _spd_check(ev(x))
    try:
        return np.broadcast_to(g, np.broadcast_shapes(x.shape[:-1], g.shape[:-2])
                               + (x.shape[-1],) * 2)
    except ValueError:
        raise MetricError(f"metric evaluator breaks the (..., d) -> (..., d, d) contract: "
                          f"points of shape {x.shape} gave a sample of shape {g.shape} "
                          f"(its batch must broadcast against the points', its matrices "
                          f"be {x.shape[-1]} x {x.shape[-1]})") from None


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
        """The read-only finite-difference steps (d,), fd_rel_step times the chart's extents."""
        return _stencil_plan(self.chart, self.fd_order, self.fd_rel_step)[0]

    def g(self, x) -> np.ndarray:
        return _sample(self.evaluator, np.asarray(x, dtype=float))

    def check_stencil(self, x):
        """Raise DomainError if the stencil at points x (..., d) leaves a non-periodic axis."""
        _check_reach(self.chart, _stencil_plan(self.chart, self.fd_order, self.fd_rel_step), x)


@lru_cache(maxsize=PLANS)
def _stencil_plan(chart: Chart, fd_order: int, fd_rel_step: float):
    """A field's stencil on its chart, built once per key as read-only arrays (d,).

    Returns the steps h = fd_rel_step * extents, the reach of the _jet_plan
    offsets (their largest step count times h), the chart's lower and upper
    bounds and its non-periodic axes.
    """
    h = fd_rel_step * chart.extents
    reach = _jet_plan(chart.dim, fd_order, False)[1].max() * h
    lo, hi = np.array(chart.bounds, dtype=float).T
    bounded = ~np.array(chart.periodic, dtype=bool)
    for arr in (h, reach, lo, hi, bounded):
        arr.flags.writeable = False
    return h, reach, lo, hi, bounded


def _check_reach(chart: Chart, plan, x):
    """Raise DomainError if the stencil of plan (_stencil_plan) at points x leaves chart."""
    _, reach, lo, hi, bounded = plan
    x = np.asarray(x, dtype=float).reshape(-1, chart.dim)
    out = ((x.min(axis=0, initial=np.inf) - reach < lo)
           | (x.max(axis=0, initial=-np.inf) + reach > hi))
    out &= bounded
    if out.any():
        raise DomainError(f"finite-difference stencil leaves chart {chart.name!r} "
                          f"at axis {int(np.argmax(out))}")


def _diff_weights(order: int):
    if order == 2:
        return [(-1, -0.5), (1, 0.5)]
    if order == 4:
        return [(-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)]
    raise MetricError("fd_order must be 2 or 4")


def _central_diff(stack, h, order: int):
    """First derivative sum_k w_k stack[k] / h by the central stencil of an order.

    Axis 0 of stack (an array, or a list of samples) runs over the stencil in
    _diff_weights order; h is a number or an array that broadcasts over the
    other axes.  At order 2 it is (stack[1] - stack[0]) / (2 h), one pass
    that rounds exactly as the weighted sum -stack[0]/2 + stack[1]/2 over h,
    signed zeros included.  At order 4 the weighted samples are summed in
    stencil order starting from the first, an order that carries weight
    (_metric_jet).
    """
    if order == 2:
        return (stack[1] - stack[0]) / (2.0 * h)
    terms = (wt * f for (_, wt), f in zip(_diff_weights(order), stack, strict=True))
    out = next(terms)
    for term in terms:
        out = out + term
    return out / h


@lru_cache(maxsize=None)
def _jet_plan(d: int, order: int, want_second: bool):
    """A jet's stencil, built once per key: _diff_weights, (S, d) offsets, pairs a < b.

    The read-only offsets, in steps, run: the centre; each axis a with k in
    weight order; if want_second, each pair (a, b) of np.triu_indices(d, 1)
    with j along a and k along b.
    """
    weights = tuple(_diff_weights(order))
    ks = [k for k, _ in weights]
    ia, ib = np.triu_indices(d, 1)
    zero = (0,) * d
    offsets = [zero] + [zero[:a] + (k,) + zero[a + 1:] for a in range(d) for k in ks]
    if want_second:
        offsets += [zero[:a] + (j,) + zero[a + 1:b] + (k,) + zero[b + 1:]
                    for a, b in zip(ia, ib) for j in ks for k in ks]
    offsets = np.array(offsets, dtype=float).reshape(-1, d)
    offsets.flags.writeable = ia.flags.writeable = ib.flags.writeable = False
    return weights, offsets, (ia, ib)


def _along_axes(rows, h, order: int):
    """d_a, on axis -3, of rows (d K, ..., m, n) stacked over a plan's axes; steps h (d, ...)."""
    per_axis = rows.reshape((len(h), -1) + rows.shape[1:])                  # [a, k, ...]
    h = h.reshape(h.shape + (1,) * (rows.ndim - h.ndim))
    out = _central_diff(per_axis.swapaxes(0, 1), h, order)                   # [a, ..., m, n]
    return out.transpose(*range(1, out.ndim - 2), 0, -2, -1)


def _metric_jet(m: MetricField, x, want_second: bool):
    """g, dg and (if wanted) d2g at x from one evaluator call per jet.

    x has shape (..., d).  The _jet_plan offsets are stacked into one (S, ...,
    d) sample: one evaluator call and one SPD check serve a block's stencil,
    and each derivative is a few array sums over the stencil axis.  The
    points x_a + h_a k are built by one addition into a coordinate-first
    buffer (d, S, ...), and the evaluator gets its (S, ..., d) view, so
    each coordinate x[..., a] it reads is one contiguous slab.  The
    batch is the checked sample's (_sample), so a slice's radius schedule,
    which its evaluator broadcasts over size-1 axes of x, rides in the jet
    while each stencil point is evaluated and checked once.  Returns (g,
    dg, d2g) with dg[..., a, i, j] = d_a g_ij and d2g[..., a, b, i, j].

    The summation order carries weight: the suite's OrbifoldGB football p=2
    row reads its Pfaffian chi part 3.96e-10 off 1 against a 1e-9 gate, and
    differencing through one weight matmul, with 1/(12 h^2) folded into the
    weights or integer weights divided after, moved it to -5.19e-9 or
    +1.76e-9.  At order 4 the second derivatives along orbit axes are
    round-off, not zero (up to 7.5e-10 on football p=3); at order 2 they
    are exactly 0.  Two byte-identical relayouts, a packed-triangle jet and
    compact d2g rows, measured no gain.
    """
    d, order = m.chart.dim, m.fd_order
    plan = _stencil_plan(m.chart, order, m.fd_rel_step)
    _check_reach(m.chart, plan, x)
    x, h = np.asarray(x, dtype=float), plan[0]
    weights, offsets, (ia, ib) = _jet_plan(d, order, want_second)
    # [a, k, ...] = x_a + h_a k, the same sum as at [k, ..., a]
    pts = np.empty((d, len(offsets)) + x.shape[:-1])
    np.add(np.moveaxis(x, -1, 0)[:, None],
           (h * offsets).T.reshape(pts.shape[:2] + (1,) * (x.ndim - 1)), out=pts)
    samples = m.g(np.moveaxis(pts, 0, -1))
    K, batch = len(weights), samples.shape[1:-2]
    dg = _along_axes(samples[1:1 + d * K], h, order)
    d2g = None
    if want_second:
        # over one flat point axis n: ax[a, k, n], mixed[pair, j, k, n], d2g[n, a, b]
        flat = samples.reshape((len(offsets), math.prod(batch), d, d))
        g, ax = flat[0], flat[1:1 + d * K].reshape((d, K) + flat.shape[1:])
        # float_power rounds each h[a] ** 2 as the scalar power does
        h2 = np.float_power(h, 2)[:, None, None, None]
        if order == 2:
            diag = (ax[:, 1] - 2.0 * g + ax[:, 0]) / h2
        else:
            diag = (-ax[:, 3] + 16.0 * ax[:, 2] - 30.0 * g
                    + 16.0 * ax[:, 1] - ax[:, 0]) / (12.0 * h2)
        d2g = np.empty(flat.shape[1:2] + (d,) * 4)
        d2g[:, range(d), range(d)] = diag.swapaxes(0, 1)
        # d_a of the d_b stencil, taken at the points shifted along a
        mixed = flat[1 + d * K:].reshape((len(ia), K, K) + flat.shape[1:])
        inner = _central_diff(mixed.transpose(2, 0, 1, 3, 4, 5), h[ib, None, None, None, None],
                              order)                                         # [pair, j, n]
        val = _central_diff(inner.swapaxes(0, 1), h[ia, None, None, None], order).swapaxes(0, 1)
        d2g[:, ia, ib] = val
        d2g[:, ib, ia] = val
        d2g = d2g.reshape(batch + (d,) * 4)
    return samples[0], dg, d2g


def christoffel(m: MetricField, x) -> np.ndarray:
    """Levi-Civita connection omega[..., mu, i, j] = Gamma^i_{mu j} at x.

    g^{-1} = E E^T from the Cholesky frame E of _frame_of, as the curvature
    takes it, so a sample that is not SPD raises _frame_of's MetricError.
    """
    g, dg, _ = _metric_jet(m, x, want_second=False)
    E = _frame_of(g)
    return np.swapaxes(_second_kind(E @ _transposed(E), _christoffel_first(dg)), -1, -2)


def _christoffel_first(dg: np.ndarray) -> np.ndarray:
    """First-kind symbols G1[..., i, j, k] = (d_i g_jk + d_j g_ik - d_k g_ij)/2."""
    return 0.5 * (dg + dg.swapaxes(-3, -2) - dg.swapaxes(-3, -2).swapaxes(-2, -1))


def _second_kind(ginv: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Gamma^k_ij at [..., i, j, k] as G1 @ g^{-T}: one matmul over the flattened (i, j)."""
    d = g1.shape[-1]
    out = g1.reshape(g1.shape[:-3] + (d * d, d)) @ _transposed(ginv)
    return out.reshape(out.shape[:-2] + (d, d, d))


def _frame_of(g: np.ndarray) -> np.ndarray:
    """Cholesky-based frame E = L^{-T}, upper triangular, with E^T g E = Id and E_ii > 0.

    np.linalg.cholesky is the positive-definiteness check; L^T E = Id is
    then solved by substitution over the d columns of E, each a few array
    operations over the whole stack.
    """
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric sample is not positive definite") from exc
    d = L.shape[-1]
    E = np.zeros_like(L)
    E[..., range(d), range(d)] = 1.0
    for k in range(d):
        # column k is final once divided by L_kk; every later column m then
        # drops its share L_mk E[:, k]
        E[..., :k + 1, k] /= L[..., k, k, None]
        E[..., :k + 1, k + 1:] -= E[..., :k + 1, k, None] * L[..., None, k + 1:, k]
    return E


def _sqrt_det(frame: np.ndarray) -> np.ndarray:
    """sqrt(det g) = 1 / det E for the triangular frame E of _frame_of: 1 / prod(E_ii)."""
    return 1.0 / np.prod(np.diagonal(frame, axis1=-2, axis2=-1), axis=-1)


@lru_cache(maxsize=None)
def _pair_plan(d: int):
    """Gathers onto the pairs P = (i<j), Q = (k<l) of d axes, built once per d.

    The pairs run in the double forms' colex order.  Returns (i, j) and three
    read-only flat index arrays of shape (n, C, C), C = d(d-1)/2: minors, into
    a flat (d, d) frame, the entries E_ik, E_jl, E_il, E_jk; second, into a
    flat d2g[a, b, m, n], d2g at (i,l,j,k), (i,k,j,l), (j,l,i,k), (j,k,i,l);
    quad, into a flat (d^2, d^2) matrix over ((m,n), (p,q)), its entries
    ((i,k), (j,l)) and ((j,k), (i,l)).
    """
    i, j = np.array(multi_indices(d, 2), dtype=np.intp).reshape(-1, 2).T
    I, J, K, L = i[:, None], j[:, None], i, j                # P = (I, J) down, Q = (K, L) across
    minors = np.stack([I * d + K, J * d + L, I * d + L, J * d + K])
    second = np.stack([((I * d + L) * d + J) * d + K, ((I * d + K) * d + J) * d + L,
                       ((J * d + L) * d + I) * d + K, ((J * d + K) * d + I) * d + L])
    quad = np.stack([(I * d + K) * d * d + J * d + L, (J * d + K) * d * d + I * d + L])
    for arr in (i, j, minors, second, quad):
        arr.flags.writeable = False
    return (i, j), minors, second, quad


def _curvature_pairs(ginv, dg, d2g) -> np.ndarray:
    """Lowered curvature F[..., (i<j), (k<l)] = < d_k, R(d_i, d_j) d_l > on the pairs alone.

    With G_ik,m the first-kind symbols and Gamma^m_jl = G_jl,n g^nm,

        F_ijkl = (d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik + d_j d_k g_il) / 2
                 - G_ik,m Gamma^m_jl + G_jk,m Gamma^m_il,

    no derivative of g^{-1} or of the second-kind symbols, and no lowering
    by g: the second derivatives are one gather from the flat d2g, and the
    quadratic part one matmul quad = G1 Gamma^T over the flattened (i,k)
    and (j,l), read at two gathers.  Only the C^2 entries the (2,2) double
    form keeps are built.  ginv comes from a factorisation the caller holds
    (E E^T, or A diag(1/D) A^T).
    """
    d = ginv.shape[-1]
    _, _, second, quads = _pair_plan(d)
    g1 = _christoffel_first(dg)                               # [..., i, k, m] = G_ik,m
    pairs = g1.shape[:-3] + (d * d, d)
    quad = g1.reshape(pairs) @ _transposed(_second_kind(ginv, g1).reshape(pairs))
    t = _flat(d2g, 4)[..., second]                            # [..., 4, P, Q]
    u = _flat(quad, 2)[..., quads]                            # [..., 2, P, Q]
    return (0.5 * (t[..., 0, :, :] - t[..., 1, :, :] - t[..., 2, :, :] + t[..., 3, :, :])
            - u[..., 0, :, :] + u[..., 1, :, :])


def _pair_minors(frame: np.ndarray) -> np.ndarray:
    """M[..., (i<j), (a<b)] = frame_ia frame_jb - frame_ib frame_ja: the 2x2 minors of frame.

    M is the matrix of Lambda^2 frame on the pairs, so the (2,2) coefficients
    of a pair form F in frames E, E2 are M(E)^T F M(E2).
    """
    t = _flat(frame, 2)[..., _pair_plan(frame.shape[-1])[1]]
    return t[..., 0, :, :] * t[..., 1, :, :] - t[..., 2, :, :] * t[..., 3, :, :]


def riemann_double_form(m: MetricField, x):
    """Curvature as a (2,2) double form in the orthonormal frame at x.

    x may carry leading batch axes (a block of nodes); the form's
    coefficients and the frame carry those axes broadcast with the
    evaluator's own (_sample).  Returns (form, frame).
    The coefficient at (I; J) with I = (i<j), J = (k<l) is <e_k, R(e_i, e_j) e_l>.
    """
    g, dg, d2g = _metric_jet(m, x, want_second=True)
    frame = _frame_of(g)                 # E = L^{-T}, so E E^T = g^{-1}
    M = _pair_minors(frame)
    coeffs = _transposed(M) @ _curvature_pairs(frame @ _transposed(frame), dg, d2g) @ M
    return DoubleForm(m.chart.dim, 2, 2, coeffs), frame


@dataclass(frozen=True)
class FibrationData:
    """Trivial-product fibration of the collar cross-section N = F x B.

    Coordinates on N are ordered fiber-first.  base and fiber are the factor
    metrics at r = 0 as fields (None: dimension 0); fiber_metric(r, y_f) is
    the vertical block at any r, r a number or an array of y_f's batch
    shape.  The Euler characteristic of the fiber is stored reference data.
    """

    base: Optional[MetricField] = None
    fiber: Optional[MetricField] = None
    fiber_metric: Optional[Callable] = None    # r, y_f -> (..., f, f) matrix
    chi_fiber: Optional[int] = None

    @property
    def base_dim(self) -> int:
        return self.base.chart.dim if self.base else 0

    @property
    def fiber_dim(self) -> int:
        return self.fiber.chart.dim if self.fiber else 0


@dataclass(frozen=True)
class CollarMetric:
    """Normal-form collar dr^2 + g(r) over a boundary chart.

    radial_metric(r) returns the y -> matrix evaluator of g(r) on N; r is a
    number or an array that broadcasts against y's batch shape, and the
    sample has the broadcast batch (full_metric passes r of y's batch
    shape; Slice and radial_rate pass radius axes against size-1 axes of
    y).  Every derivative on the collar takes its fd_order stencil.
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

    def slice_field(self, r) -> MetricField:
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

        def ev(x):
            return _block_diag(np.ones(x.shape[:-1] + (1, 1)),
                               self.radial_metric(x[..., 0])(x[..., 1:]))

        return MetricField(self.full_chart(), ev,
                           fd_rel_step=self.fd_rel_step, fd_order=self.fd_order)

    def radial_step(self, r) -> np.ndarray:
        """The finite-difference step in r at radius r: 10 fd_rel_step |r|, or fd_rel_step at 0.

        r is a number or an array; the steps come back with r's shape.
        """
        r = np.asarray(r, dtype=float)
        return np.where(r != 0, (10.0 * self.fd_rel_step) * np.abs(r), self.fd_rel_step)

    def radial_rate(self, r, y) -> np.ndarray:
        """d/dr g(r) at points y (..., n) by the collar's stencil, step radial_step(r).

        r is a number or an array that broadcasts against y's batch shape,
        each radius at its own step.  One radial_metric call on the radii
        r + k h of the plan, their axis ahead of r's, at y as it is: the
        evaluator broadcasts s(r) h(y) over both, so each point is evaluated
        once whatever the number of radii, and _sample checks the whole.
        """
        y, h = np.asarray(y, dtype=float), self.radial_step(r)
        ks = _jet_plan(1, self.fd_order, False)[1][1:]
        rs = r + h * ks.reshape((-1,) + (1,) * (y.ndim - 1))
        g = _sample(self.radial_metric(rs), y)
        # a g(r) constant in r comes back without the stencil axis
        g = np.broadcast_to(g, np.broadcast_shapes(rs.shape, g.shape[:-2]) + g.shape[-2:])
        return _central_diff(g, h[..., None, None], self.fd_order)


@dataclass(frozen=True)
class SliceData:
    """Slice record at a point or a block: II and R in the orthonormal frame
    of the induced metric h, with the points' batch axes, and sqrt(det h)."""

    second_fundamental: DoubleForm   # (1,1), normal +d_r
    curvature: DoubleForm            # (2,2) of the induced metric
    frame: np.ndarray
    sqrt_det: np.ndarray             # batch shape of the points


def _collar_radii(r, y=()):
    """Radii r (a number or a 1-D schedule, else DomainError) at points y of the slice chart.

    The one check of r.  A schedule's axis goes ahead of y's batch axes.
    Returns r shaped to broadcast against the batch, and y with a size-1
    axis in the schedule's place (not repeated per radius).
    """
    r = np.asarray(r, dtype=float)
    if r.ndim > 1:
        raise DomainError("collar radii must be a number or a 1-D array")
    y = np.asarray(y, dtype=float)
    r = r.reshape(r.shape + (1,) * (y.ndim - 1))
    return r, y.reshape((1,) * (r.ndim + 1 - y.ndim) + y.shape)


def _collar_points(r, y=()):
    """_collar_radii's r and y, and the collar points x = (r, y) over the whole batch."""
    r, y = _collar_radii(r, y)
    batch = np.broadcast_shapes(r.shape, y.shape[:-1])
    return r, y, np.concatenate((np.broadcast_to(r[..., None], batch + (1,)),
                                 np.broadcast_to(y, batch + y.shape[-1:])), axis=-1)


class Slice:
    """A fixed-radius slice of a collar, or a stack of them; evaluates SliceData at points.

    at(y) takes a point or a block.  r is a number or a 1-D schedule of
    radii, through one path: a schedule's axis leads every SliceData entry,
    ahead of the points' batch axes, so one call evaluates the block at
    every radius.  The points carry a size-1 axis in the schedule's place,
    and radial_metric(r)(y) broadcasts s(r) h(y) over it, so each stencil
    point of a node is evaluated and stencil-checked once, not once per
    radius.  Each radius keeps its own step (CollarMetric.radial_step) and
    must keep its stencil inside the collar interval.
    """

    def __init__(self, collar: CollarMetric, r):
        lo, hi = collar.r_interval
        r = _collar_radii(r)[0]
        reach = _jet_plan(1, collar.fd_order, False)[1].max() * collar.radial_step(r)
        if not (np.all(lo < r - reach) and np.all(r + reach < hi)):
            raise DomainError("slice radius too close to the collar interval ends")
        self.collar = collar
        self.r = r

    def at(self, y) -> SliceData:
        r, y = _collar_radii(self.r, y)
        curv, E = riemann_double_form(self.collar.slice_field(r), y)
        dh = self.collar.radial_rate(r, y)
        ii_on = _transposed(E) @ (-0.5 * dh) @ E
        ii = DoubleForm(E.shape[-1], 1, 1, 0.5 * (ii_on + np.swapaxes(ii_on, -1, -2)))
        return SliceData(second_fundamental=ii, curvature=curv, frame=E,
                         sqrt_det=_sqrt_det(E))


# Even number of steps of the composite Simpson rule in s on the affine
# metric path: nodes k / PATH_STEPS, weights (1, 4, 2, ..., 2, 4, 1) h / 3,
# read-only constants that every GaugePath shares
PATH_STEPS = 16
S_NODES = np.linspace(0.0, 1.0, PATH_STEPS + 1)
S_WEIGHTS = np.where(np.arange(PATH_STEPS + 1) % 2, 4.0, 2.0)
S_WEIGHTS[[0, -1]] = 1.0
S_WEIGHTS = S_WEIGHTS * (S_NODES[1] - S_NODES[0]) / 3.0
S_NODES.flags.writeable = S_WEIGHTS.flags.writeable = False


@dataclass
class GaugePath:
    """Gauge of the affine metric path at a point or a block of points.

    theta_dot and curvature are at the Simpson nodes s_nodes, whose weights
    are s_weights (metric_path_gauge's read-only S_NODES and S_WEIGHTS), in
    the g0 orthonormal frame E0 = frame (..., d, d), so
    _sqrt_det(frame) = sqrt(det g0).  Both are double forms of batch shape
    (S, ...), one entry per node: theta_dot = d/ds theta^s is the (1,2) form
    with <e_i, theta_dot(e_a) e_j> at (a; i<j), and curvature the (2,2) form
    (the unbatched zero form when d = 2).
    """

    s_nodes: np.ndarray
    s_weights: np.ndarray
    theta_dot: np.ndarray
    curvature: DoubleForm
    frame: np.ndarray


def _path_eigenbasis(g0: np.ndarray, g1: np.ndarray):
    """A, lam, E and Q with g1 A = g0 A diag(lam), for stacks of SPD pairs.

    With the Cholesky frame E = L^{-T} of g0 = L L^T (_frame_of, which
    rejects a g0 that is not SPD) and E^T g1 E = Q diag(lam) Q^T, A = E Q:
    one Cholesky and one eigh per pair, Q = E^{-1} A is orthogonal and
    A^T g0 A = Id.  Every g_s on the affine path is SPD exactly when g0 is
    and every lam > 0.  The gauge takes it once per call, on the centre
    samples of its two jets.
    """
    E = _frame_of(g0)
    try:
        lam, Q = np.linalg.eigh(_transposed(E) @ g1 @ E)
    except np.linalg.LinAlgError as exc:
        raise MetricError("metric loses positive definiteness along the path") from exc
    if not np.all(lam > 0.0):
        raise MetricError("metric loses positive definiteness along the path")
    return E @ Q, lam, E, Q


def _path_scalings(lam, s):
    """The path's diagonal factors at the nodes s: D, q = D^(-1/2) and p = -(lam-1)/(2D).

    s is one node or a 1-D vector of nodes, whose axis leads: D, q and p
    have shape s.shape + lam.shape.  A^T g_s A = diag(D), D = 1 + s(lam-1),
    for g_s = (1-s) g0 + s g1 in the eigenbasis A of _path_eigenbasis, whose
    inverse is A^T g0.  The matrices g_s^{-1} gdot commute for all s, so
    tau(0) = Id and dtau/ds = X tau with X = -1/2 g_s^{-1} gdot = A diag(p)
    A^{-1} give tau(s) = A diag(q) A^{-1} = (g0^{-1} g_s)^(-1/2); tau^{-1} =
    A diag(1/q) A^{-1}, g_s^{-1} = A diag(1/D) A^T and d/ds g_s^{-1} = A
    diag(2p/D) A^T.
    """
    D = 1.0 + np.multiply.outer(s, lam - 1.0)
    return D, D ** -0.5, -0.5 * (lam - 1.0) / D


def metric_path_gauge(g0: MetricField, g1: MetricField, x) -> GaugePath:
    """Gauge the path g_s = (1-s) g0 + s g1 to the fixed bundle (TM, g0).

    x is a point or a block of points of shape (..., d); every field of the
    result carries the same leading axes, and one evaluator call per
    endpoint serves the whole stencil of the block.  The parallel transport
    tau of the generalized cylinder is exact (_path_scalings), and with X =
    dtau/ds tau^{-1} = -1/2 g_s^{-1} gdot the first variation of the
    Levi-Civita connection (Besse, Einstein Manifolds, 1.174) gives the
    s-derivative of theta^s = tau^{-1}(d tau + omega_s tau) - omega_0 as

        theta_dot = tau^{-1} (dX + [omega_s, X] + omega_dot_s) tau,

    from the centre's g and dg of the two jets alone: no derivative of tau
    and no differencing in s.  It is taken at the Simpson nodes s_k =
    k / PATH_STEPS in the centre's eigenbasis A0 (_path_eigenbasis), where
    every s-dependent factor is diagonal (q = D^(-1/2), p = -(lam-1)/(2D)).
    With H = A0^T G^T A0 for the first-kind symbols G of the affine jet,
    affine in s and taken once per call, theta_dot at every node and frame
    direction is one broadcast expression on the pairs i < j:

        theta_dot_ij = q_i q_j (p_i (H_s)_ij - p_j (H_s)_ji + (Hdot - Hdot^T)_ij / 2).

    H is two matmuls per point, (d x d) @ (d x 2d^2) and (2d^2 x d) @ (d x
    d), each over every (endpoint or rate, direction) pair at once; each
    entry is the same sum of products as one d x d product per pair.
    theta_dot is built in place in a buffer laid out [a, s, ..., i<j], in
    that operation order, with one temporary of the same size for the p_j
    term and then the gathered q_i q_j, so each pass covers every
    direction, node and point at once.
    This is the first variation with A0^T d_a g A0 = H + H^T substituted
    (d_a g_jk = G_aj,k + G_ak,j on the jet), so it is skew by construction.
    One transposed copy to [..., a, s, i<j] then moves the pairs of all the
    nodes to the g0 orthonormal frame E0 through Lambda^2 Q0 of the
    orthogonal Q0 = E0^{-1} A0, and theta_dot is the (1,2) double form the
    transgression reads.  The curvature is computed exactly when d > 2 on
    as many nodes per pass as a block of quadrature.block_size(d) samples
    holds (two on a 48-point block, one from 65 points up; a stack of every
    node's curvature arrays would cost several times the memory), from
    g_s^{-1} = A0 diag(1/D) A0^T, tau E0 = A0 diag(q) Q0^T and the pair
    minors of E0, taken once: on a surface the transgression integrand
    B(theta_dot R^0) reads none, so the second derivatives are skipped and
    curvature is the zero form.
    """
    x = np.asarray(x, dtype=float)
    if g0.chart != g1.chart or (g0.fd_rel_step, g0.fd_order) != (g1.fd_rel_step, g1.fd_order):
        raise MetricError("path endpoints must live on the same chart and stencil")
    d = g0.chart.dim
    curved = d > 2

    g0c, dg0, d2g0 = _metric_jet(g0, x, want_second=curved)
    g1c, dg1, d2g1 = _metric_jet(g1, x, want_second=curved)
    A0, lam, E0, Q0 = _path_eigenbasis(g0c, g1c)
    A0t, Q0t, E0t = (_transposed(m) for m in (A0, Q0, E0))

    pts = x.shape[:-1]
    # H = A0^T G^T A0 [..., b, a, i, j] for g0 (b = 0) and the rate (b = 1): per point,
    # A0^T times G^T's rows k over every (b, a, j), then those rows (b, a, i) times A0
    H = _christoffel_first(np.stack((dg0, dg1 - dg0), axis=-4))      # [..., b, a, j, k]
    H = A0t @ np.ascontiguousarray(np.moveaxis(H, -1, -4)).reshape(pts + (d, 2 * d * d))
    H = np.ascontiguousarray(np.moveaxis(H.reshape(pts + (d, 2 * d, d)), -3, -2))
    H = (H.reshape(pts + (2 * d * d, d)) @ A0).reshape(pts + (2, d, d, d))
    i, j = _pair_plan(d)[0]
    # [b, a, 1 (s), ..., i<j], to broadcast over the theta_dot buffer's s axis
    H_ij, H_ji = (np.moveaxis(H[..., k, l], (-3, -2), (0, 1))[:, :, None]
                  for k, l in ((i, j), (j, i)))
    half_skew = 0.5 * (H_ij[1] - H_ji[1])

    S = S_NODES.size
    D, q, p = _path_scalings(lam, S_NODES)                # [s, ..., d]
    if not curved:
        del D                                # only the curvature reads it
    s_col = S_NODES.reshape((S,) + (1,) * (len(pts) + 1))
    # theta_dot in the basis A0 on a buffer [a, s, ..., i<j], so each pass covers
    # every direction, node and point at once
    eig, tmp = (np.empty((d, S) + pts + (i.size,)) for _ in range(2))
    for out, k, Hk in ((eig, i, H_ij), (tmp, j, H_ji)):
        np.multiply(s_col, Hk[1], out=out)
        out += Hk[0]
        out *= p[..., k]
    eig -= tmp
    eig += half_skew
    # q_i q_j, gathered and multiplied in the freed p_j term
    qi, qj = np.take(q, i, axis=-1, out=tmp[0]), np.take(q, j, axis=-1, out=tmp[1])
    eig *= np.multiply(qi, qj, out=qi)
    del H, H_ij, H_ji, half_skew, p, tmp, out, qi, qj    # free them before the frame change
    # to the g0 frame: Q0 X Q0^T on the pairs as Lambda^2 Q0, then E0^T on a
    eig = np.ascontiguousarray(np.moveaxis(eig, (0, 1), (-3, -2)))        # [..., a, s, i<j]
    eig = eig.reshape(pts + (d * S, i.size)) @ _pair_minors(Q0t)
    eig = E0t @ eig.reshape(pts + (d, S * i.size))
    theta_dot = np.ascontiguousarray(np.moveaxis(eig.reshape(pts + (d, S, i.size)), -2, 0))
    del eig
    curvature = DoubleForm.zero(d, 2, 2)
    if curved:
        # the curvature of g_s pulled back by tau(s), in the g0 orthonormal frame, on
        # as many nodes per pass as a block of block_size(d) samples holds
        curv = np.empty((S,) + pts + (i.size,) * 2)
        M0t = _transposed(_pair_minors(E0))
        step = max(1, block_size(d) // math.prod(pts))
        for lo in range(0, S, step):
            n = slice(lo, lo + step)
            s = S_NODES[n].reshape((-1,) + (1,) * dg0.ndim)
            F = _curvature_pairs((A0 / D[n, ..., None, :]) @ A0t, (1.0 - s) * dg0 + s * dg1,
                                 (1.0 - s[..., None]) * d2g0 + s[..., None] * d2g1)
            curv[n] = M0t @ F @ _pair_minors((A0 * q[n, ..., None, :]) @ Q0t)
        curvature = DoubleForm(d, 2, 2, curv)
    return GaugePath(S_NODES, S_WEIGHTS, DoubleForm(d, 1, 2, theta_dot), curvature, E0)


def phi_conjugated_connection(c: CollarMetric, r, y) -> np.ndarray:
    """phi nabla^g phi^{-1} in the h^phi orthonormal frame at (r, y).

    g is c.full_metric(), whose Christoffel symbols difference r at that
    chart's step fd_rel_step (hi - lo), not radial_step(r).  y is a point or
    a block (..., n) of the slice chart and r a number or a 1-D schedule,
    whose axis leads; returns omega[..., mu, i, j], mu over (r,) + N.  phi
    multiplies the vertical block by r and fixes the other directions;
    every r must be nonzero, and r -> 0 is defined only by extrapolation.
    """
    rs, _, x = _collar_points(r, y)
    if np.any(rs == 0):
        raise DomainError("phi conjugation at r = 0 is defined only by extrapolation")
    fib = c.fibration
    if fib is None:
        raise MetricError("phi conjugation needs fibration data on the collar")
    d = x.shape[-1]
    f = fib.fiber_dim

    omega_coord = christoffel(c.full_metric(), x)
    phi = np.ones(rs.shape + (d,))
    phi[..., 1:1 + f] = rs[..., None]
    conj = phi[..., None, :, None] * omega_coord * (1.0 / phi)[..., None, None, :]
    # subtract (d phi) phi^{-1}: only the radial direction contributes 1/r
    vert = np.arange(1, 1 + f)
    conj[..., 0, vert, vert] -= 1.0 / rs[..., None]

    E, dE = phi_frame(c, r, y)
    return np.linalg.inv(E)[..., None, :, :] @ (dE + conj @ E[..., None, :, :])


def phi_frame(c: CollarMetric, r, y):
    """h^phi orthonormal frame E at (r, y) and its derivatives dE[..., mu, :, :].

    y is a point or a block (..., n) and r a number or a 1-D schedule, whose
    axis leads.  dE differences the Cholesky frame of one h^phi sample on
    the collar's plan, at each radius's c.radial_step(r) along r and the
    collar's relative step along the slice axes.
    """
    r, _, x = _collar_points(r, y)
    steps = np.stack(np.broadcast_arrays(c.radial_step(r),
                                         *(c.fd_rel_step * c.boundary_chart.extents)))
    offsets = _jet_plan(len(steps), c.fd_order, False)[1]
    pts = x + np.moveaxis(steps, 0, -1) * np.expand_dims(offsets, tuple(range(1, x.ndim)))
    E = _frame_of(_h_phi_matrix(c, pts[..., 0], pts[..., 1:]))
    return E[0], _along_axes(E[1:], steps, c.fd_order)


def _h_phi_matrix(c: CollarMetric, r, y) -> np.ndarray:
    """Block-diagonal h^phi = dr^2 + g^V(r) + g^B at (r, y), fiber first; r as in fiber_metric."""
    fib, f = c.fibration, c.fibration.fiber_dim
    blocks = [np.ones(np.shape(y)[:-1] + (1, 1))]
    if f:
        blocks.append(fib.fiber_metric(r, y[..., :f]))
    if fib.base_dim:
        blocks.append(fib.base.evaluator(y[..., f:]))
    return _spd_check(_block_diag(*blocks))
