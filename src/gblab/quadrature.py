"""Deterministic quadrature over coordinate boxes, refinement, extrapolation.

Periodic axes use the composite trapezoid rule; non-periodic axes use
composite Gauss-Legendre panels with interior nodes, so chart-edge
coordinate degeneracies are never sampled.  A density is called on
consecutive blocks of BLOCK nodes in the flattened node ordering (points of
shape (B, d), values of shape (B,)); the weighted values are summed by a
fixed pairwise binary tree over that ordering, so a result depends only on
its inputs.  The block size is fixed, not an option: it bounds the memory of
the per-block curvature arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "AxisRule",
    "MeshSpec",
    "ConvergenceTable",
    "mesh_for_chart",
    "integrate_chart",
    "r_limit_extrapolate",
    "pairwise_sum",
    "geometric_schedule",
]

GL_PANEL = 8
BLOCK = 64


class ResolutionError(ValueError):
    """Too few nodes or levels for the requested operation."""


def pairwise_sum(values: np.ndarray) -> float:
    """Sum by a fixed binary tree over the flattened ordering."""
    a = np.asarray(values, dtype=float).ravel().copy()
    n = a.size
    if n == 0:
        return 0.0
    while n > 1:
        half = n // 2
        a[:half] += a[half : 2 * half]
        if n % 2:
            a[half] = a[2 * half]
            n = half + 1
        else:
            n = half
    return float(a[0])


@lru_cache(maxsize=None)
def _gauss_nodes(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


def _axis_nodes(lo: float, hi: float, rule: str, nodes: int):
    """Nodes and weights for a single axis (MeshSpec guarantees >= 4 nodes)."""
    if rule == "trapezoid":
        h = (hi - lo) / nodes
        x = lo + h * np.arange(nodes)
        w = np.full(nodes, h)
        return x, w
    if rule == "gauss":
        panels = max(1, -(-nodes // GL_PANEL)) if nodes >= GL_PANEL else 1
        per = GL_PANEL if nodes >= GL_PANEL else nodes
        xs, ws = [], []
        edges = np.linspace(lo, hi, panels + 1)
        gx, gw = _gauss_nodes(per)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, rad = 0.5 * (a + b), 0.5 * (b - a)
            xs.append(mid + rad * gx)
            ws.append(rad * gw)
        return np.concatenate(xs), np.concatenate(ws)
    raise ResolutionError(f"unknown axis rule {rule!r}")


@dataclass(frozen=True)
class AxisRule:
    """Per-axis quadrature recipe.

    base_nodes is the level-1 node count; unless fixed, counts double with
    each refinement level.
    """

    rule: str
    base_nodes: int = GL_PANEL
    fixed: bool = False

    def nodes_at(self, level: int) -> int:
        n = self.base_nodes if self.fixed else self.base_nodes * 2 ** (level - 1)
        return max(4, n)


@dataclass(frozen=True)
class MeshSpec:
    """Fully resolved mesh: nodes and rule per axis."""

    nodes: tuple
    rules: tuple

    def __post_init__(self):
        if any(n < 4 for n in self.nodes):
            raise ResolutionError("MeshSpec requires >= 4 nodes per axis")

    @property
    def total_nodes(self) -> int:
        return int(np.prod(self.nodes))


def default_axis_rules(chart) -> tuple:
    hints = getattr(chart, "quad_hints", None)
    if hints is not None:
        return tuple(hints)
    return tuple(
        AxisRule("trapezoid" if per else "gauss") for per in chart.periodic
    )


def mesh_for_chart(chart, level: int) -> MeshSpec:
    """Build the MeshSpec for a chart at a refinement level (1..7)."""
    if not (1 <= level <= 7):
        raise ResolutionError("refinement level must be in 1..7")
    rules = default_axis_rules(chart)
    return MeshSpec(
        nodes=tuple(r.nodes_at(level) for r in rules),
        rules=tuple(r.rule for r in rules),
    )


def _mesh_points(chart, mesh: MeshSpec):
    axes = []
    for (lo, hi), rule, n in zip(chart.bounds, mesh.rules, mesh.nodes):
        axes.append(_axis_nodes(lo, hi, rule, n))
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w *= g.ravel()
    return pts, w


def _call_node(fn, pt):
    try:
        return fn(pt[None])
    except Exception as exc:  # noqa: BLE001 - annotate and re-raise
        raise type(exc)(f"{exc} (at node {tuple(float(v) for v in pt)})") from exc


def integrate_chart(fn, chart, mesh: MeshSpec) -> float:
    """Integrate a scalar density (volume factor included) over a chart box.

    fn maps a block of nodes (B, d) to its values (B,).  When a block fails
    it is re-run node by node, so the error names the offending node.
    """
    pts, w = _mesh_points(chart, mesh)
    vals = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], BLOCK):
        block = pts[lo : lo + BLOCK]
        try:
            vals[lo : lo + BLOCK] = fn(block)
        except Exception:
            for pt in block:
                _call_node(fn, pt)
            raise
    return pairwise_sum(vals * w)


@dataclass
class ConvergenceTable:
    """Rows of (level, nodes, value, successive diff, estimated order)."""

    rows: list = field(default_factory=list)

    def add(self, level: int, nodes: int, value: float):
        if self.rows and level <= self.rows[-1][0]:
            raise ResolutionError("levels must be strictly increasing")
        diff = order = None
        if self.rows:
            diff = abs(value - self.rows[-1][2])
            prev_diff = self.rows[-1][3]
            if prev_diff not in (None, 0.0) and diff > 0.0:
                order = math.log2(prev_diff / diff)
        self.rows.append((level, nodes, value, diff, order))

    def to_csv(self) -> str:
        lines = ["level,nodes,value,diff,order"]
        for level, nodes, value, diff, order in self.rows:
            d = "" if diff is None else repr(diff)
            o = "" if order is None else repr(order)
            lines.append(f"{level},{nodes},{value!r},{d},{o}")
        return "\n".join(lines) + "\n"


def geometric_schedule(r0: float, count: int = 6, ratio: float = 0.5):
    """r_i = r0 * ratio^i, the default sample schedule for radial limits."""
    return [r0 * ratio**i for i in range(count)]


def r_limit_extrapolate(samples, degree: int = 3):
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
