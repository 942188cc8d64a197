"""Deterministic quadrature over coordinate boxes, refinement, extrapolation.

Non-periodic axes use composite Gauss-Legendre panels with interior nodes,
so chart-edge coordinate degeneracies are never sampled.  Periodic axes use
the composite trapezoid rule, or the orbit rule (one node weighted by the
period) where every density on the chart is invariant along the axis; each
pass checks that invariance and raises ResolutionError where it fails.  A
density is called on consecutive blocks of the flattened node ordering
(points of shape (B, d), values of shape (B,), or (K, B) for K densities
integrated in one pass): the mesh nodes, then each orbit axis's check
sample, so the orbit check rides in the same pass.  A mesh's nodes are
each axis's nodes broadcast into one (n_1, ..., n_d, d) buffer, and its
weights the product of the axes' weights taken in axis order.  The
weighted values of each density over the mesh nodes are summed by a fixed
pairwise binary tree over that ordering (pairwise_sum, along the last
axis, so a stack of K densities is one sum), so a result depends only on
its inputs.  A pass reads its nodes (orbit samples included), weights and
sample indices from the plan of its (chart, mesh) (_mesh_plan), built on
the key's first pass and handed out as read-only arrays, so a density that
writes into its block raises; the plan depends on no metric.  The plans
are cached on at most PLANS keys, the least recently used dropped first,
so a large mesh is let go once PLANS other meshes have been planned after
it; mesh_for_chart caches the MeshSpec of each (chart, level) alike.  A
mesh is built at a refinement level of LEVELS, whose range check_level
alone states; which of them a chart integral may take (its node budget
and its stencil's reach of the chart's edge) is decided in
verify.chart_integral.
A block holds block_size(d) = max(2 * BLOCK, BLOCK * (4 // d) ** 2) nodes
on a chart of dimension d (1,024 on a circle, 256 on a surface, 2 * BLOCK =
128 from d = 3 up), not an option: the per-node curvature arrays grow like
d^4, so the rule bounds a block's memory while the fixed cost of a call
(of each stage of the jet, frame, curvature and wedge pipeline) is spread
over as many nodes as that allows.  block_size is the rule's one owner:
integrate_chart, the TransgressionStokes grid pass in verify and the
curvature pass of geometry.metric_path_gauge, which takes as many s nodes
at once as a block's samples allow, all read it.  A slice limit stacks its
radius schedule onto the block, so there a block's curvature arrays hold
its node count times the number of radii (six) samples; its points, and
their metric evaluations, are not repeated per radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AxisRule",
    "MeshSpec",
    "check_level",
    "mesh_for_chart",
    "mesh_corners",
    "integrate_chart",
    "block_size",
    "r_limit_extrapolate",
    "pairwise_sum",
    "geometric_schedule",
]

GL_PANEL = 8
BLOCK = 64
LEVELS = range(1, 8)   # the refinement levels a mesh is built at
# an orbit check moves nodes by an irrational fraction of the period and
# allows each density a change of ORBIT_RTOL of its largest sampled value
ORBIT_SHIFT = (math.sqrt(5.0) - 1.0) / 2.0
ORBIT_RTOL = 1e-10
# the most keys a plan cache holds (_mesh_plan, geometry's stencil plan and
# verify's admission scan): a cold default suite plans 19 meshes, and one
# mesh of sphere n=4 at level 5 (2,097,152 nodes) alone holds about 80 MiB
PLANS = 32


class ResolutionError(ValueError):
    """Too few nodes or levels for the requested operation."""


def pairwise_sum(values: np.ndarray):
    """Sum along the last axis by a fixed binary tree over its ordering.

    A 1-D array sums to a float; a stack (..., N) to an array (...,), each
    row summed by the same tree, so it rounds exactly as the row alone.
    """
    a = np.array(values, dtype=float)
    n = a.shape[-1]
    while n > 1:
        half = n // 2
        a[..., :half] += a[..., half : 2 * half]
        if n % 2:
            a[..., half] = a[..., 2 * half]
            n = half + 1
        else:
            n = half
    return float(a[0]) if a.ndim == 1 else a[..., 0].copy()


@lru_cache(maxsize=None)
def _gauss_nodes(npts: int):
    """The read-only Gauss-Legendre nodes and weights of npts points on (-1, 1)."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _axis_nodes(lo: float, hi: float, rule: str, nodes: int):
    """Nodes and weights for a single axis (MeshSpec guarantees the count suits the rule)."""
    if rule == "orbit":
        return np.array([lo]), np.array([hi - lo])
    if rule == "trapezoid":
        h = (hi - lo) / nodes
        x = lo + h * np.arange(nodes)
        w = np.full(nodes, h)
        return x, w
    if rule == "gauss":
        mid, rad, gx, gw = _gauss_panels(lo, hi, nodes)
        return (mid[:, None] + rad[:, None] * gx).ravel(), (rad[:, None] * gw).ravel()
    raise ResolutionError(f"unknown axis rule {rule!r}")


def _gauss_panels(lo: float, hi: float, nodes: int):
    """The midpoints and half-widths of a Gauss axis's panels, and one panel's rule."""
    per = min(nodes, GL_PANEL)
    edges = np.linspace(lo, hi, nodes // per + 1)
    return (0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])) + _gauss_nodes(per)


def _axis_corners(lo: float, hi: float, rule: str, nodes: int) -> tuple:
    """The smallest and the largest of _axis_nodes's nodes, by its expressions.

    A Gauss axis's come from its first and its last panel alone, so the
    admission scan builds no axis's full node array.
    """
    if rule == "orbit":
        return lo, lo
    if rule == "trapezoid":
        h = (hi - lo) / nodes
        return lo + h * 0, lo + h * (nodes - 1)
    if rule == "gauss":
        mid, rad, gx, _ = _gauss_panels(lo, hi, nodes)
        return (mid[0] + rad[0] * gx).min(), (mid[-1] + rad[-1] * gx).max()
    raise ResolutionError(f"unknown axis rule {rule!r}")


@dataclass(frozen=True)
class AxisRule:
    """Per-axis quadrature recipe: "gauss", "trapezoid" or "orbit".

    base_nodes is the level-1 node count of a gauss or trapezoid axis and
    doubles with each level; an orbit axis takes one node at every level.
    """

    rule: str
    base_nodes: int = GL_PANEL

    def nodes_at(self, level: int) -> int:
        return 1 if self.rule == "orbit" else max(4, self.base_nodes * 2 ** (level - 1))


@dataclass(frozen=True)
class MeshSpec:
    """Fully resolved mesh: nodes and rule per axis."""

    nodes: tuple
    rules: tuple

    def __post_init__(self):
        if any(n != 1 if rule == "orbit" else n < 4 for n, rule in zip(self.nodes, self.rules)):
            raise ResolutionError("MeshSpec requires 1 node per orbit axis and >= 4 per other")
        if any(rule == "gauss" and n > GL_PANEL and n % GL_PANEL
               for n, rule in zip(self.nodes, self.rules)):
            raise ResolutionError(f"a Gauss axis of more than {GL_PANEL} nodes needs "
                                  f"whole panels of {GL_PANEL}, got {self.nodes}")

    @property
    def total_nodes(self) -> int:
        return math.prod(self.nodes)


def default_axis_rules(chart) -> tuple:
    if chart.quad_hints is not None:
        return tuple(chart.quad_hints)
    return tuple(AxisRule("trapezoid" if per else "gauss") for per in chart.periodic)


def check_level(level: int, what: str = "refinement level") -> None:
    """ResolutionError, naming the level as what, unless level is one of LEVELS."""
    if level not in LEVELS:
        raise ResolutionError(f"{what} must be in {LEVELS.start}..{LEVELS.stop - 1}")


@lru_cache(maxsize=PLANS * len(LEVELS))
def mesh_for_chart(chart, level: int) -> MeshSpec:
    """The MeshSpec for a chart at a refinement level (one of LEVELS), built once per key.

    The cache holds every level of PLANS charts: verify's admission scan of
    a chart reads its mesh at each level up to its largest admissible one.
    """
    check_level(level)
    rules = default_axis_rules(chart)
    return MeshSpec(
        nodes=tuple(r.nodes_at(level) for r in rules),
        rules=tuple(r.rule for r in rules),
    )


def _mesh_axes(chart, mesh: MeshSpec) -> list:
    """Each axis's (nodes, weights) of a mesh on a chart."""
    return [_axis_nodes(lo, hi, rule, n)
            for (lo, hi), rule, n in zip(chart.bounds, mesh.rules, mesh.nodes)]


def mesh_corners(chart, level: int) -> np.ndarray:
    """(2, d): the smallest and the largest node of each axis of the chart's mesh at a level."""
    mesh = mesh_for_chart(chart, level)
    return np.array([_axis_corners(lo, hi, rule, n)
                     for (lo, hi), rule, n in zip(chart.bounds, mesh.rules, mesh.nodes)]).T


def _mesh_points(chart, mesh: MeshSpec):
    """The mesh's nodes (N, d) in C order over the axes, and their weights (N,).

    Each axis's nodes are broadcast into one (n_1, ..., n_d, d) buffer, and
    the weights are multiplied into ones in axis order.
    """
    shape = tuple(mesh.nodes)
    d = len(shape)
    pts, w = np.empty(shape + (d,)), np.ones(shape)
    for a, (x, wa) in enumerate(_mesh_axes(chart, mesh)):
        along = (1,) * a + (-1,) + (1,) * (d - a - 1)
        pts[..., a] = x.reshape(along)
        w *= wa.reshape(along)
    return pts.reshape(-1, d), w.ravel()


def block_size(d: int) -> int:
    """Nodes per density call on a chart of dimension d.

    1,024 on a circle, 256 on a surface and 128 from d = 3 up.  On a
    4-chart the time per node falls by about a fifth from 64 to 128 nodes
    and by about a tenth more at 256 (riemann_double_form on sphere n=4),
    while a block's memory keeps doubling; the s3 link's 32 mesh nodes with
    its two orbit samples (96 nodes) are one pass.
    """
    return max(2 * BLOCK, BLOCK * (4 // d) ** 2)


def _call_node(fn, pt):
    try:
        return fn(pt[None])
    except Exception as exc:  # noqa: BLE001 - annotate and re-raise
        raise type(exc)(f"{exc} (at node {tuple(float(v) for v in pt)})") from exc


@lru_cache(maxsize=PLANS)
def _mesh_plan(chart, mesh: MeshSpec):
    """A chart pass's read-only arrays, built once per (chart, mesh).

    Returns the nodes (N + k s, d): the mesh's N nodes of _mesh_points,
    then for each of the k orbit axes the sample idx of s = min(N, BLOCK)
    evenly spaced mesh nodes moved along it; the mesh's weights (N,); idx;
    and the orbit axes.
    """
    pts, w = _mesh_points(chart, mesh)
    n, d = pts.shape
    idx = np.linspace(0, n - 1, min(n, BLOCK)).astype(int)
    orbit = tuple(a for a, rule in enumerate(mesh.rules) if rule == "orbit")
    pts = np.concatenate([pts] + [pts[idx] + ORBIT_SHIFT * np.diff(chart.bounds[a])
                                  * (np.arange(d) == a) for a in orbit])
    for arr in (pts, w, idx):
        arr.flags.writeable = False
    return pts, w, idx, orbit


def integrate_chart(fn, chart, mesh: MeshSpec):
    """Integrate a scalar density (volume factor included) over a chart box.

    fn maps a block of nodes (B, d) to its values (B,), and the integral is
    a float; or to a stack (K, B) of K densities, and the K integrals come
    back as an array (K,) from one pairwise_sum, each row summed by the same
    tree, so it rounds exactly as its own (B,) density would.  When a block
    fails it is re-run node by node, so the error names the offending node.
    Each orbit axis appends to the node array an evenly spaced sample of
    min(n, BLOCK) mesh nodes moved along the axis, evaluated in the same
    block pass; its values must match the sample's own.  Only the mesh
    nodes are summed.  The nodes, weights and sample come from the plan of
    (chart, mesh), built on its first pass and kept, up to PLANS keys in
    least-recently-used order (_mesh_plan); its arrays are read-only, so a
    density that writes into its block raises.
    """
    pts, w, idx, orbit = _mesh_plan(chart, mesh)
    n = w.size
    size = block_size(pts.shape[1])
    vals = None
    for lo in range(0, pts.shape[0], size):
        block = pts[lo : lo + size]
        try:
            out = fn(block)
            if vals is None:
                vals = np.empty(np.shape(out)[:-1] + pts.shape[:1])
            vals[..., lo : lo + size] = out
        except Exception:
            for pt in block:
                _call_node(fn, pt)
            raise
    ref = vals[..., idx]
    for k, axis in enumerate(orbit):
        gap = np.max(np.abs(vals[..., n + k * idx.size : n + (k + 1) * idx.size] - ref), axis=-1)
        if np.any(gap > ORBIT_RTOL * np.max(np.abs(ref), axis=-1)):
            raise ResolutionError(f"the density on chart {chart.name!r} varies along "
                                  f"orbit axis {axis} (gap {np.max(gap):.3e})")
    return pairwise_sum(vals[..., :n] * w)


def geometric_schedule(r0: float, count: int = 6):
    """r_i = r0 * 2^-i, i = 0..count-1, the sample schedule for radial limits."""
    return [r0 * 0.5**i for i in range(count)]


def r_limit_extrapolate(samples, degree: int = 4):
    """Polynomial extrapolation of (r_i, v_i) samples to r = 0.

    Fits sum a_m r^m by least squares on the scaled variable r/r_max and
    returns the value at zero.  The v_i may also be arrays of one shape:
    each entry is fitted on its own and the value is an array of that
    shape.  Serves r -> infinity limits via the substitution u = 1/r on the
    caller's side.
    """
    rs = np.asarray([s[0] for s in samples], dtype=float)
    vs = np.asarray([s[1] for s in samples], dtype=float)
    if rs.size < degree + 2:
        raise ResolutionError("need at least degree+2 samples for extrapolation")
    ratios = rs[1:] / rs[:-1]
    if np.any(ratios <= 0.29) or np.any(ratios >= 0.71):
        raise ResolutionError("sample schedule must be geometric with ratio in [0.3, 0.7]")
    x = rs / rs.max()
    V = np.vander(x, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(V, vs.reshape(rs.size, -1), rcond=None)
    value = coef[0].reshape(vs.shape[1:])
    return float(value) if value.ndim == 0 else value
