"""Theorem-residual harness.

Each registered check composes the geometry engine, the curvature
polynomials, and the quadrature layer into one named verification and
returns a CheckResult.  Orientation bookkeeping is concentrated in the
per-family epsilon flags below, frozen here.  The default suite pins each
one: negating a flag fails rows of its family (the BoundaryGB disk rows,
ConeGB and LensObstruction, EdgeGB on s2 x s1, FiberedGB on the catenoid),
as tests/test_verify.py's test_a_negated_flag_fails_its_anchor_row shows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import catalog
from . import invariants as inv
from . import quadrature as quad
from .doubleform import DoubleForm, berezin, index_rank, multi_indices, pfaffian_skew, power
from .geometry import (
    CollarMetric,
    DomainError,
    MetricField,
    Slice,
    _along_axes,
    _check_reach,
    _collar_points,
    _jet_plan,
    _sqrt_det,
    _stencil_plan,
    _transposed,
    christoffel,
    metric_path_gauge,
    phi_conjugated_connection,
    phi_frame,
    riemann_double_form,
)

__all__ = [
    "CheckResult",
    "SuiteResult",
    "CHECK_IDS",
    "DEFAULT_SUITE",
    "EPSILONS",
    "resolve_spec",
    "run_check",
    "run_suite",
    "suite_to_json_dict",
]

TWO_PI = 2.0 * math.pi
# the most mesh nodes one chart integral takes: integrate_chart builds every
# node's point and weight before its first block, so a larger mesh is refused
# (sphere4-polar-angles at level 6 has 16,777,216 nodes, every other chart
# of the default suite at most 786,432 at level 7)
MESH_NODE_BUDGET = 2**22

# Frozen slice-orientation flags, one per theorem family.  epsilon relates
# the "plus convention" slice transgression (normal +d_r, slice oriented by
# the chart) to the value entering each identity.
EPSILONS = {"boundary": 1, "cone": -1, "edge": 1, "fibered": 1}

SIGN_NOTE = (
    "sign ledger: the boundary integrand uses the coefficient "
    "(-1)^j/(2^j(2j+1)j!(k-1-j)!) on B(II^(2j+1) R^(k-1-j)); the alternative "
    "closed-form coefficient (-1)^(k+j)(2k-2j-3)!!/(j!(2k-2j-1)!) differs by "
    "an overall sign and is rejected by the chi(D^2)=+1 calibration."
)


class ConfigurationError(ValueError):
    """Check and geometry are incompatible."""


@dataclass
class CheckResult:
    """One verification outcome with residuals and diagnostics."""

    check_id: str
    geometry: str
    params: dict
    computed: dict
    reference: dict
    residual_abs: float
    residual_rel: float
    tolerance: float
    tolerance_kind: str           # "abs" or "rel", fixed per check by _RELATIVE_GATES
    passed: bool
    convergence: dict = field(default_factory=dict)
    epsilon_notes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    gates: dict = field(default_factory=dict)   # computed key -> residual, the headline first

    def to_json_dict(self) -> dict:
        """The report row: every field but gates, with passed written as "pass"."""
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        del doc["gates"]
        for key in ("params", "computed", "reference", "epsilon_notes"):
            doc[key] = {k: _jsonable(v) for k, v in sorted(doc[key].items())}
        return doc


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


@dataclass
class SuiteResult:
    results: list

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed


# -- shared numerics ----------------------------------------------------------


def chart_integral(field: MetricField, density, level: int) -> float:
    """Integral of a block density (see quadrature.integrate_chart) over field.chart.

    field is the metric whose finite-difference stencil the density takes.
    The one admission rule of a level, decided before any node is built: a
    level past the _admissible_top of field's chart and stencil raises
    ConfigurationError, naming the budget when its mesh has more than
    MESH_NODE_BUDGET nodes and the stencil's reach of a non-periodic edge
    otherwise.  Both lookups, the mesh and the top level, are cached.
    """
    mesh = quad.mesh_for_chart(field.chart, level)
    top = _admissible_top(field.chart, field.fd_order, field.fd_rel_step)
    if level > top:
        if mesh.total_nodes > MESH_NODE_BUDGET:
            raise ConfigurationError(
                f"level {level} meshes chart {field.chart.name!r} with {mesh.total_nodes:,} "
                f"nodes, over the budget of {MESH_NODE_BUDGET:,}; its largest level within "
                f"the budget is {top}")
        raise ConfigurationError(
            f"level {level} puts mesh nodes of chart {field.chart.name!r} within the "
            f"finite-difference stencil's reach of its edge; its largest clean level is {top}")
    return quad.integrate_chart(density, field.chart, mesh)


@lru_cache(maxsize=quad.PLANS)
def _admissible_top(chart, fd_order: int, fd_rel_step: float) -> int:
    """The largest of quad.LEVELS (0 if none) whose mesh on chart has at most
    MESH_NODE_BUDGET nodes, none within the finite-difference reach of a
    non-periodic edge of a field of that stencil (order and relative step).

    Both grow with the level (the outermost Gauss nodes near the edges), so
    every level up to this one is admitted.  Cached per chart and stencil.
    """
    stencil = _stencil_plan(chart, fd_order, fd_rel_step)
    for level in quad.LEVELS:
        if quad.mesh_for_chart(chart, level).total_nodes > MESH_NODE_BUDGET:
            return level - 1
        try:
            _check_reach(chart, stencil, quad.mesh_corners(chart, level))
        except DomainError:
            return level - 1
    return quad.LEVELS[-1]


def curvature_integral(mf: MetricField, level: int, top):
    """Integral of top(R, E, x) * sqrt(det g) over mf.chart.

    R is the curvature double form of mf, at mf's own stencil, in its
    orthonormal frame E at a block of nodes x; top returns one value per
    node, or a stack (K, B) of K tops, whose K integrals come back as an
    array from one curvature pass.  sqrt(det g) is _sqrt_det(E), read off
    the frame, so the metric is evaluated once per stencil point.  The level
    is admitted by chart_integral at mf's stencil.
    """

    def dens(x):
        R, E = riemann_double_form(mf, x)
        return top(R, E, x) * _sqrt_det(E)

    return chart_integral(mf, dens, level)


def _pf_top(R, E, x):
    return inv.pfaffian_form(R).coeffs[..., 0, 0]


def _odd_pf_top(R, E, x):
    return inv.odd_pfaffian_form(R).coeffs[..., 0, 0]


def pf_integral(spec, level: int) -> float:
    """Weighted integral of the Pfaffian form over all fields of a geometry."""
    total = 0.0
    for mf in spec.fields:
        total += curvature_integral(mf, level, _pf_top)
    return float(spec.symmetry_weight) * total


def _stacked_tops(x, tops) -> np.ndarray:
    """(K, B) stack of per-node tops; an unbatched top (a j = 0 form) is broadcast first."""
    return np.stack([np.broadcast_to(t, x.shape[:-1]) for t in tops])


def _lk_tops(R, E, x):
    h = DoubleForm.metric_form(R.n)
    return _stacked_tops(x, [inv.lipschitz_killing_form(j, R, h).coeffs[..., 0, 0]
                             for j in range((R.n + 1) // 2)])


def lk_integrals(mf: MetricField, level: int) -> list:
    """Lipschitz-Killing integrals, j = 0..(n-1)/2, of an odd-dimensional metric in one pass."""
    return curvature_integral(mf, level, _lk_tops).tolist()


def _slice_k(collar: CollarMetric) -> int:
    """k of the (2k-1)-dimensional slices of a collar."""
    return (collar.boundary_chart.dim + 1) // 2


def slice_transgression_plus(collar: CollarMetric, r, level: int):
    """Plus-convention transgression integral over the slice at radius r.

    r is a number (the integral is a float) or a 1-D array of radii: then
    one chart pass evaluates every node block at all of them (Slice) and
    the integrals come back as an array, each equal to its own scalar call.
    The level is admitted by chart_integral at the collar's stencil on the
    slice chart.
    """
    sl = Slice(collar, r)

    def dens(y):
        sd = sl.at(y)
        form = inv.boundary_correction_form(sd.second_fundamental, sd.curvature)
        return form.coeffs[..., 0, 0] * sd.sqrt_det

    return chart_integral(collar.slice_field(r), dens, level)


def _collapse_schedule(collar: CollarMetric) -> list:
    """The six offsets dr = 0.4 (hi - lo) 2^-i from the collar's lower end r = lo."""
    lo, hi = collar.r_interval
    return quad.geometric_schedule(0.4 * (hi - lo), 6)


def slice_limit(collar: CollarMetric, level: int):
    """Extrapolated r -> 0 (or r -> infinity) limit of the slice transgression.

    The singular_end flag picks the direction: collapsing collars sample
    _collapse_schedule toward the lower end, complete ends substitute u =
    1/r.  The whole schedule is integrated in one slice_transgression_plus
    call.  Returns (limit, samples).  The degree-4 fit on this schedule is
    well conditioned whatever r0 (cond 2.06e3).
    """
    lo = collar.r_interval[0]
    if collar.singular_end == "infinity":
        xs = quad.geometric_schedule(0.4 / lo, 6)
        rs = 1.0 / np.array(xs)
    else:
        xs = _collapse_schedule(collar)
        rs = lo + np.array(xs)
    samples = list(zip(xs, slice_transgression_plus(collar, rs, level).tolist()))
    return quad.r_limit_extrapolate(samples), samples


def _vanishing_gap(limit, samples, collar: CollarMetric):
    """(gap, scale) of an end term that vanishes: |limit| against the first
    sample's magnitude, with the absolute floor 1e-6 (2 pi)^k."""
    return abs(limit), max(abs(samples[0][1]), 1e-6 * TWO_PI**_slice_k(collar))


def edge_value_for(fib, level: int) -> float:
    """Closed-form collapsing-fiber boundary term for a product fibration."""
    if fib.base_dim % 2:
        return 0.0
    pf_base = 1.0 if fib.base is None else curvature_integral(fib.base, level, _pf_top)
    odd_fiber = curvature_integral(fib.fiber, level, _odd_pf_top)
    return inv.edge_boundary_value(pf_base, odd_fiber)


def fibered_value_for(fib, level: int) -> float:
    """Closed-form expanding-base boundary term for a product fibration."""
    if fib.base_dim % 2 == 0:
        return 0.0
    odd_base = curvature_integral(fib.base, level, _odd_pf_top)
    return inv.fibered_boundary_value(odd_base, fib.chi_fiber, fib.fiber_dim)


def horizontal_closed_value(collar: CollarMetric, level: int) -> float:
    """Closed-form slice-transgression limit with horizontal variation.

    Combines base integrals of B(R^i gdot^(b-2i)) with fiber
    Lipschitz-Killing integrals; reduces to the collapsing-fiber value when
    the base metric is radially constant.
    """
    fib = collar.fibration
    f, b = fib.fiber_dim, fib.base_dim

    def tops(R, E, y):
        # d/dr of the base block of the slice metric at r = 0, fiber coordinates 0
        yn = np.concatenate((np.zeros(y.shape[:-1] + (f,)), y), axis=-1)
        gdot = _transposed(E) @ collar.radial_rate(0.0, yn)[..., f:, f:] @ E
        gdot_form = DoubleForm(b, 1, 1, 0.5 * (gdot + np.swapaxes(gdot, -1, -2)))
        return _stacked_tops(y, [inv.lipschitz_killing_form(i, R, gdot_form).coeffs[..., 0, 0]
                                 for i in range(b // 2 + 1)])

    q_ints = dict(enumerate(curvature_integral(fib.base, level, tops).tolist()))
    p_ints = dict(enumerate(lk_integrals(fib.fiber, level)))
    return inv.horizontal_edge_value(q_ints, p_ints, _slice_k(collar), b)


def _phi_limit(collar: CollarMetric, rs, y) -> np.ndarray:
    """Entrywise r -> 0 extrapolation of the phi-conjugated connection at y.

    y is a point or a block of points of the slice chart; one stacked call
    samples the connection at every radius of the schedule rs.
    """
    return quad.r_limit_extrapolate(list(zip(rs, phi_conjugated_connection(collar, rs, y))))


def _phi_reference(collar: CollarMetric, y) -> np.ndarray:
    """Block-form limit of the conjugated connection at r = 0.

    y is a point or a block of points (..., n); returns omega[..., mu, i, j].
    Diagonal blocks are the component Levi-Civita connections of fiber and
    base; the only off-diagonal part pairs the radial direction with the
    vertical block through the fiber metric.  Assembled in the same
    orthonormal frame field as the samples, including frame derivatives,
    and differentiated at the collar's stencil, as the samples are.
    """
    fib = collar.fibration
    f, b = fib.fiber_dim, fib.base_dim
    d = 1 + f + b
    y = np.asarray(y, dtype=float)
    at_collar = partial(replace, fd_order=collar.fd_order, fd_rel_step=collar.fd_rel_step)

    # omega_coord[..., mu, i, j] = Gamma^i_{mu j} of the block connection
    omega_coord = np.zeros(y.shape[:-1] + (d, d, d))
    if f:
        vert = slice(1, 1 + f)
        omega_coord[..., vert, vert, vert] = christoffel(at_collar(fib.fiber), y[..., :f])
        omega_coord[..., vert, 0, vert] = -fib.fiber_metric(0.0, y[..., :f])
        omega_coord[..., vert, vert, 0] = np.eye(f)
    if b:
        hor = slice(1 + f, d)
        omega_coord[..., hor, hor, hor] = christoffel(at_collar(fib.base), y[..., f:])

    E0, dE = phi_frame(collar, 0.0, y)
    E0 = E0[..., None, :, :]
    return np.linalg.inv(E0) @ (dE + omega_coord @ E0)


# -- individual checks --------------------------------------------------------


# checks gated on residual_abs <= tol * scale; every other check on residual_abs <= tol
_RELATIVE_GATES = frozenset({"ConeGB", "EdgeGB", "EdgeHorizontal", "EdgeLimit", "FiberedGB",
                             "FirstOrderConic", "LensObstruction", "TransgressionStokes"})


def _result(check_id, spec, computed, reference, gates, scale, tol, bounds=None,
            samples=(), notes=(), eps=None):
    """The row of a check's gates: the one place that folds them into a verdict.

    gates maps keys of computed, the headline (the text report's value=)
    first, to each comparison's residual in the row's units.  residual_abs
    is their max, inf when one of them is not finite or there is none.
    bounds gives a gate a bound of its own, read as tol is (times scale on a
    relative row); a gate over it fails the row with a note, whatever tol.
    """
    kind = "rel" if check_id in _RELATIVE_GATES else "abs"
    unit = scale if kind == "rel" else 1.0
    finite = bool(gates) and all(math.isfinite(v) for v in gates.values())
    residual_abs = max(gates.values()) if finite else math.inf
    rel = residual_abs / scale if scale else float("inf") if residual_abs else 0.0
    over = [f"gate {key}: {gates[key] / unit:.3e} > {bound:g}"
            for key, bound in (bounds or {}).items() if not gates[key] <= bound * unit]
    convergence = {"slice_samples": [{"r": r, "value": v} for r, v in samples]} if samples else {}
    return CheckResult(
        check_id=check_id, geometry=spec.name, params=dict(spec.params),
        computed=computed, reference=reference,
        residual_abs=residual_abs, residual_rel=rel,
        tolerance=tol, tolerance_kind=kind,
        passed=bool(finite and residual_abs <= tol * unit and not over),
        convergence=convergence, epsilon_notes=dict(eps or {}), notes=[*notes, *over],
        gates=gates,
    )


def check_closed_gb(spec, level, tol):
    if spec.chi_ref is None:
        raise ConfigurationError("ClosedGB needs a reference Euler characteristic")
    dim = spec.fields[0].chart.dim
    if dim % 2:
        raise ConfigurationError("ClosedGB needs an even-dimensional geometry")
    k = dim // 2
    total = pf_integral(spec, level)
    chi = total / TWO_PI**k
    computed = {"pf_integral": total, "chi": chi}
    # flat metrics must integrate to exactly zero at machine precision
    gates = ({"pf_integral": abs(total)} if spec.name == "flat_torus"
             else {"chi": abs(chi - spec.chi_ref)})
    return _result("ClosedGB", spec, computed, {"chi": spec.chi_ref},
                   gates, max(1.0, abs(spec.chi_ref)), tol)


def check_boundary_gb(spec, level, tol):
    if spec.collar is None or spec.family != "boundary":
        raise ConfigurationError("BoundaryGB needs a boundary geometry")
    dim = spec.params["dim"]
    rho = spec.params["rho"]
    k = dim // 2
    interior = pf_integral(spec, level)
    boundary = slice_transgression_plus(spec.collar, rho, level)
    eps = EPSILONS["boundary"]
    chi = (interior - eps * boundary) / TWO_PI**k
    two_route = _boundary_two_route(spec, level)
    computed = {
        "pf_integral": interior, "boundary_integral": boundary, "chi": chi,
        "two_route_rel_gap": two_route,
    }
    reference = {"chi": spec.chi_ref, "boundary_integral": -(TWO_PI**k)}
    gates = {"chi": abs(chi - spec.chi_ref),
             "boundary_integral": abs(boundary - (-(TWO_PI**k))) / TWO_PI**k,
             "two_route_rel_gap": two_route}
    return _result("BoundaryGB", spec, computed, reference, gates, 1.0, tol,
                   bounds={"two_route_rel_gap": TWO_ROUTE_BUDGET},
                   notes=[SIGN_NOTE], eps={"boundary": eps})


# BoundaryGB's own bound on two_route_rel_gap, which tol tightens but never
# loosens: clean, the gap is at most 4.33e-13 on disk 2 and 5.4e-16 on disk 4
# at levels 1-4; with the trapezoid rule in s (S_WEIGHTS = h (1/2, 1, ..., 1, 1/2))
# disk 4 reads 9.77e-4 at every level
TWO_ROUTE_BUDGET = 1e-10


def _boundary_two_route(spec, level):
    """Path-transgression route against the slice integrand near the boundary.

    The affine path from the frozen product metric to the true collar metric
    is gauged on each block of slice nodes; its transgression integral over
    a nearby slice must match the closed-form boundary integrand there.
    """
    collar = spec.collar
    rho = spec.params["rho"]
    r_b = rho * (1.0 - 0.02)
    full = collar.full_metric()
    frozen = collar.radial_metric(r_b)
    g0 = replace(collar, radial_metric=lambda r: frozen).full_metric()
    nb = collar.boundary_chart.dim
    slice_rank = index_rank(nb + 1, tuple(range(1, nb + 1)))

    def dens(y):
        gauge = metric_path_gauge(g0, full, _collar_points(r_b, y)[2])
        c = inv.path_transgression_form(gauge).coeffs[..., slice_rank, 0]
        return c * _sqrt_det(gauge.frame)

    lvl = max(1, level - 1)
    path_route = chart_integral(collar.slice_field(r_b), dens, lvl)
    direct = slice_transgression_plus(collar, r_b, lvl)
    return abs(path_route - direct) / max(abs(direct), 1e-12)


def check_cone_gb(spec, level, tol):
    if spec.collar is None or spec.family != "cone":
        raise ConfigurationError("ConeGB needs a conical geometry")
    n = spec.collar.boundary_chart.dim
    theta = spec.params.get("theta", 1.0)
    lk = lk_integrals(spec.link, level)
    limit, samples = slice_limit(spec.collar, level)
    # a quotient's integrals are its cover's weighted by 1/|G|, as in LensObstruction
    weight = float(spec.symmetry_weight)
    closed, limit = weight * inv.cone_transgression_value(theta, lk), weight * limit
    eps = EPSILONS["cone"]
    scale = max(abs(closed), 1e-12)
    computed = {"closed_form": closed, "slice_limit": eps * limit,
                "slice_limit_plus": limit, "lk_integrals": tuple(lk)}
    gates = {"slice_limit": abs(eps * limit - closed)}
    reference = {"closed_form": closed}
    notes = [SIGN_NOTE]
    if n == 1:
        # the singular point contributes 1 + limit/(2 pi) to the completed
        # surface; at the 1e-3 relative gate the factor 10 enforces 1e-4
        contribution = 1.0 + limit / TWO_PI
        computed["singular_contribution"] = contribution
        reference["singular_contribution"] = 1.0 - theta
        gates["singular_contribution"] = 10.0 * scale * abs(contribution - (1.0 - theta))
    return _result("ConeGB", spec, computed, reference, gates, scale, tol,
                   samples=samples, notes=notes, eps={"cone": eps})


def _product_end(spec, check_id, family, needs):
    """The fibration of a product end of this family with odd-dimensional slices
    N = F x B, which the odd Pfaffian needs; any other geometry raises
    f"{check_id} {needs}"."""
    fib = spec.collar.fibration if spec.collar else None
    if fib is None or spec.family != family:
        raise ConfigurationError(f"{check_id} {needs}")
    if spec.collar.boundary_chart.dim % 2 == 0:
        raise ConfigurationError(f"{check_id} needs an odd-dimensional slice N = F x B")
    return fib


def check_edge_limit(spec, level, tol):
    fib = _product_end(spec, "EdgeLimit", "edge", "needs an edge geometry")
    limit, samples = slice_limit(spec.collar, level)
    closed = edge_value_for(fib, level)
    notes = []
    if fib.base_dim % 2 == 0:
        gap, scale = abs(limit - closed), max(abs(closed), 1e-12)
    else:
        gap, scale = _vanishing_gap(limit, samples, spec.collar)
        notes.append("odd-dimensional base: boundary term vanishes identically "
                     "for product data; residual measured against an absolute floor")
    computed = {"slice_limit_plus": limit, "closed_value": closed,
                "first_sample": samples[0][1]}
    return _result("EdgeLimit", spec, computed, {"closed_value": closed},
                   {"slice_limit_plus": gap}, scale, tol, samples=samples, notes=notes,
                   eps={"edge": EPSILONS["edge"]})


def check_edge_gb(spec, level, tol):
    # the identity integrates the interior too, so a field-less end is no EdgeGB geometry
    fib = _product_end(spec, "EdgeGB", "edge" if spec.fields else None,
                       "needs a charted edge geometry")
    if spec.chi_ref is None:
        raise ConfigurationError("EdgeGB needs a fiber whose cone closes smoothly (a sphere)")
    k = spec.fields[0].chart.dim // 2
    # the interior form of the product model vanishes pointwise; a reduced
    # level only changes how finely the numerical zero is sampled
    interior = pf_integral(spec, max(1, level - 1))
    edge_term = edge_value_for(fib, level)
    eps = EPSILONS["edge"]
    lhs = TWO_PI**k * spec.chi_ref
    rhs = interior - eps * edge_term
    computed = {"pf_integral": interior, "edge_term": edge_term, "identity_rhs": rhs}
    return _result("EdgeGB", spec, computed, {"identity_lhs": lhs},
                   {"identity_rhs": abs(lhs - rhs)}, max(abs(lhs), 1.0), tol,
                   notes=[SIGN_NOTE], eps={"edge": eps})


def check_edge_horizontal(spec, level, tol):
    _product_end(spec, "EdgeHorizontal", "edge", "needs an edge geometry")
    closed = horizontal_closed_value(spec.collar, level)
    limit, samples = slice_limit(spec.collar, level)
    scale = max(abs(closed), 1e-12)
    # reduction anchor: with the radial variation switched off the closed
    # form must reproduce the collapsing-fiber value
    plain = catalog.get("edge_product", base=spec.params["base"], fiber=spec.params["fiber"])
    reduction = horizontal_closed_value(plain.collar, level)
    reduction_ref = edge_value_for(plain.collar.fibration, level)
    red_gap = abs(reduction - reduction_ref) / max(abs(reduction_ref), 1e-12)
    computed = {"closed_value": closed, "slice_limit_plus": limit,
                "reduction_value": reduction, "reduction_rel_gap": red_gap}
    gates = {"slice_limit_plus": abs(limit - closed), "reduction_rel_gap": red_gap * scale}
    return _result("EdgeHorizontal", spec, computed, {"closed_value": closed},
                   gates, scale, tol, samples=samples, eps={"edge": EPSILONS["edge"]})


def check_fibered_gb(spec, level, tol):
    fib = _product_end(spec, "FiberedGB", "fibered", "needs a fibered-boundary geometry")
    k = _slice_k(spec.collar)
    eps = EPSILONS["fibered"]
    interior = pf_integral(spec, level)
    end_value = fibered_value_for(fib, level)
    limit, samples = slice_limit(spec.collar, level)
    computed = {"pf_integral": interior, "end_value": end_value,
                "slice_limit_plus": limit, "end_count": spec.end_count}
    if fib.base_dim % 2 == 0:
        gap, scale = _vanishing_gap(limit, samples, spec.collar)
        return _result("FiberedGB", spec, computed, {"end_value": 0.0},
                       {"slice_limit_plus": gap}, scale, tol,
                       notes=["even-dimensional base: boundary term vanishes"],
                       eps={"fibered": eps})
    # odd base: the slice limit and the closed form must agree; with fields
    # (catenoid family) the full identity must hold as well
    gates = {"slice_limit_plus": abs(limit - end_value)}
    scale = max(abs(end_value), 1e-12)
    reference = {"end_value": end_value}
    if spec.fields:
        lhs = TWO_PI**k * spec.chi_ref
        rhs = interior - eps * spec.end_count * end_value
        gates = {"identity_rhs": abs(lhs - rhs), **gates}
        scale = max(abs(interior), TWO_PI**k)
        computed["identity_rhs"] = rhs
        reference["identity_lhs"] = lhs
    return _result("FiberedGB", spec, computed, reference, gates, scale, tol,
                   samples=samples, eps={"fibered": eps})


def check_orbifold_gb(spec, level, tol):
    if spec.family != "orbifold":
        raise ConfigurationError("OrbifoldGB needs an orbifold geometry")
    p = spec.params["p"]
    total = pf_integral(spec, level)
    chi_int = total / TWO_PI
    defect = sum(s.chi * (s.group_order - 1) / s.group_order for s in spec.strata)
    t7 = chi_int + defect
    computed = {"pf_chi_part": chi_int, "stratum_defect": defect, "t7_total": t7}
    reference = {"pf_chi_part": 2.0 / p, "t7_total": spec.chi_ref}
    gates = {"t7_total": abs(t7 - spec.chi_ref), "pf_chi_part": abs(chi_int - 2.0 / p)}
    return _result("OrbifoldGB", spec, computed, reference, gates, 1.0, tol,
                   notes=[f"weighted cover: 1/{p} of the round cover integral"])


def check_perturbation_stability(spec, level, tol):
    if spec.name != "cone_perturbed_second_order":
        raise ConfigurationError("PerturbationStability runs on the second-order cone")
    model = catalog.get("geometric_cone", link="s1", theta=1.0)
    lim_model, _ = slice_limit(model.collar, level)
    lim_pert, samples = slice_limit(spec.collar, level)
    computed = {"model_limit": lim_model, "perturbed_limit": lim_pert}
    notes = ["second-order radial perturbation leaves the slice-transgression limit fixed"]
    return _result("PerturbationStability", spec, computed, {"model_limit": lim_model},
                   {"perturbed_limit": abs(lim_model - lim_pert)}, 1.0, tol,
                   samples=samples, notes=notes, eps={"cone": EPSILONS["cone"]})


# PhiLimit's probe: the first 3 * MAX_DIM (doubleform's) doubles of the random()
# stream of np.random.default_rng(20240801), whose random((3, d)) is their first 3 d
PHI_PROBE = (0.9781700079193695, 0.47622273716253627, 0.22036155197314777, 0.9852252721179169,
             0.13700373287537104, 0.9785292805876026, 0.16953882574660184, 0.2791294158007017,
             0.2106462593070214, 0.12834708672813577, 0.9270059596649924, 0.7129419575793265,
             0.05859837181378991, 0.6272870405675243, 0.6140388151664237, 0.40116459111773195,
             0.0939059496357928, 0.6771000343502376, 0.06910909869573512, 0.9909578156944765,
             0.7845577857981069, 0.3220882233001505, 0.4758686060030891, 0.14024820264459925)


def check_phi_limit(spec, level, tol):
    """The phi-conjugated connection's limit against the block connection at three points.

    The points are Chart.interior of the first 3 d values of PHI_PROBE on
    the d-dimensional boundary chart: data, not a generator call, so the
    points are the same as ever and the check never loads numpy.random
    (5.8 MiB resident and about 10 ms on its first call).
    """
    if spec.collar is None or spec.collar.fibration is None:
        raise ConfigurationError("PhiLimit needs a collar with fibration data")
    collar = spec.collar
    if collar.singular_end != "lower":
        raise ConfigurationError("PhiLimit needs a collapsing collar")
    rs = _collapse_schedule(collar)
    d = collar.boundary_chart.dim
    points = collar.boundary_chart.interior(np.reshape(PHI_PROBE[:3 * d], (3, d)), shrink=0.2)
    gap = _phi_limit(collar, rs, points) - _phi_reference(collar, points)
    worst = float(np.max(np.abs(gap)))
    computed = {"max_entry_gap": worst, "points": len(points)}
    return _result("PhiLimit", spec, computed, {"max_entry_gap": 0.0},
                   {"max_entry_gap": worst}, 1.0, tol,
                   notes=["limit compared entrywise to the block connection "
                          "(component connections plus radial-vertical pairing)"])


def check_first_order_conic(spec, level, tol):
    if spec.name != "cone_perturbed_first_order":
        raise ConfigurationError("FirstOrderConic runs on the first-order cone")
    k = _slice_k(spec.collar)
    interior = pf_integral(spec, level)
    outer = slice_transgression_plus(spec.collar, 1.0, level)
    # asymptotic second fundamental form from the extrapolated conjugated
    # connection; its boundary integral is the singular contribution
    f = spec.collar.fibration.fiber_dim
    rs = quad.geometric_schedule(0.32, 6)

    def gterm_density(y):
        lim = _phi_limit(spec.collar, rs, y)
        E0 = phi_frame(spec.collar, 0.0, y)[0]
        II = _transposed(E0[..., :, 1:1 + f]) @ lim[..., :, 0, 1:1 + f]
        II = DoubleForm(f, 1, 1, 0.5 * (II + np.swapaxes(II, -1, -2)))
        # the S^1 link (f = 1) has k of 1, so the integrand reads only R^0
        c = inv.boundary_correction_form(II, DoubleForm.zero(f, 2, 2)).coeffs[..., 0, 0]
        return c * _sqrt_det(E0)

    gterm = chart_integral(spec.collar.slice_field(rs[0]), gterm_density, level)
    singular = 1.0 + gterm / TWO_PI**k
    lhs = TWO_PI**k * spec.chi_ref
    rhs = interior - outer + TWO_PI**k * singular
    computed = {"pf_integral": interior, "outer_boundary": outer,
                "phi_boundary_term": gterm, "singular_contribution": singular,
                "identity_rhs": rhs}
    return _result("FirstOrderConic", spec, computed, {"identity_lhs": lhs},
                   {"identity_rhs": abs(lhs - rhs)}, TWO_PI**k, tol, notes=[SIGN_NOTE],
                   eps={"cone": EPSILONS["cone"]})


def check_transgression_stokes(spec, level, tol):
    if spec.name != "flat_torus" or spec.fields[0].chart.dim != 2:
        raise ConfigurationError("TransgressionStokes runs on the 2-torus")
    (g0,) = spec.fields
    amp = 0.25

    def g1_ev(x):
        u = amp * np.sin(x[..., 0]) * np.cos(x[..., 1])
        c = np.exp(2.0 * u)
        return catalog._diag(c, c)

    g1 = replace(g0, evaluator=g1_ev)
    hs = np.full(2, 1e-3)
    # the Stokes stencil: the order-2 plan's axis rows, in units of hs
    shifts = _jet_plan(2, 2, False)[1][1:, None, :]

    def gap_and_dpf(p):
        gauge = metric_path_gauge(g0, g1, p + hs * shifts)
        # flat frame = coordinate frame; d[point, a, i, 0] = d_a of the (1,0) form's e_i part
        d = _along_axes(inv.path_transgression_form(gauge).coeffs, hs, 2)
        R1, E1 = riemann_double_form(g1, p)
        # the flat reference term vanishes identically
        dpf = inv.pfaffian_form(R1).coeffs[..., 0, 0] * _sqrt_det(E1)
        return np.stack([d[:, 0, 1, 0] - d[:, 1, 0, 0] - dpf, dpf])

    # the trapezoid grid on the chart's box, 32 x 32 at level 2, in the chart
    # passes' blocks; a node's values do not depend on the block it rides in
    mesh = quad.MeshSpec((quad.AxisRule("trapezoid", 16).nodes_at(level),) * 2, ("trapezoid",) * 2)
    worst, max_dpf = np.abs(quad.mesh_values(gap_and_dpf, g0.chart, mesh)).max(-1).tolist()
    computed = {"max_pointwise_gap": worst, "max_delta_pf": max_dpf,
                "grid": mesh.nodes[0], "conformal_amplitude": amp}
    return _result("TransgressionStokes", spec, computed,
                   {"max_pointwise_gap": 0.0}, {"max_pointwise_gap": worst}, max_dpf, tol)


def check_algebra_identities(spec, level, tol):
    """Exact identities, and Pf(A)^2 = det A and the form-vs-matrix Pfaffian on random A.

    The random matrices come from np.random.default_rng(42), which this
    check alone in src/ calls: its computed leaves are that generator's
    draws, so it is the one check that loads numpy.random.
    """
    failures = []
    for p in range(11):
        if inv.double_factorial_identity_lhs(p) != Fraction((-1) ** p, 2 * p + 1):
            failures.append(f"double-factorial identity fails at p={p}")
    for k in range(1, 11):
        lhs, rhs = inv.beta_moment_identity(k)
        if lhs != rhs:
            failures.append(f"moment identity fails at k={k}")
    for n in range(1, 7):
        # a sum of n! products of +-1, so exact in float64
        val = berezin(power(DoubleForm.metric_form(n), n)).coeffs[0, 0]
        if val != math.factorial(n):
            failures.append(f"B(h^{n}) = {val} != {n}!")
    rng = np.random.default_rng(42)
    pf_gaps = []
    for n in (2, 4, 6, 8):
        for _ in range(4):
            A = rng.normal(size=(n, n))
            A = A - A.T
            pf_gaps.append(abs(pfaffian_skew(A) ** 2 - np.linalg.det(A)))
    # np.max keeps a NaN draw, which a running max(worst, gap) would drop
    worst_pf = float(np.max(pf_gaps))
    worst_cross = _pfaffian_cross_check(rng)
    computed = {"pf_squared_minus_det": worst_pf,
                "form_vs_matrix_pfaffian": worst_cross,
                "exact_identities": "ok" if not failures else "; ".join(failures)}
    gates = {"pf_squared_minus_det": worst_pf, "form_vs_matrix_pfaffian": worst_cross,
             "exact_identities": math.inf if failures else 0.0}
    return _result("AlgebraIdentities", spec, computed,
                   {"pf_squared_minus_det": 0.0}, gates, 1.0, tol)


def _pfaffian_cross_check(rng) -> float:
    """B(R^k)/k! against the matching-expansion Pfaffian of the 2-form matrix."""
    gaps = []
    for n in (2, 4, 6):
        pairs = multi_indices(n, 2)
        R = DoubleForm(n, 2, 2, rng.normal(size=(len(pairs), len(pairs))))
        # symmetrize in the pair sense so the matrix of 2-forms is skew-consistent
        R = 0.5 * (R + DoubleForm(n, 2, 2, R.coeffs.T.copy()))
        via_berezin = inv.pfaffian_form(R).coeffs[0, 0]
        mat = [[DoubleForm.zero(n, 2, 0) for _ in range(n)] for _ in range(n)]
        for c, (i, j) in enumerate(pairs):
            col = DoubleForm(n, 2, 0, R.coeffs[:, [c]])
            mat[i][j] = col
            mat[j][i] = -1.0 * col
        via_matrix = pfaffian_skew(mat)
        scale = max(1.0, abs(via_berezin))
        gaps.append(abs(via_matrix.coeffs[0, 0] - via_berezin) / scale)
    return float(np.max(gaps))


def check_lens_obstruction(spec, level, tol):
    if spec.name != "lens_cone":
        raise ConfigurationError("LensObstruction runs on lens_cone")
    order = spec.params["order"]
    k = _slice_k(spec.collar)
    limit, samples = slice_limit(spec.collar, level)
    eps = EPSILONS["cone"]
    value = float(spec.symmetry_weight) * eps * limit
    ref = TWO_PI**k / order
    computed = {"cone_transgression": value, "chi_would_be": value / TWO_PI**k}
    notes = [
        f"a flat metric with this cone end would force chi = 1/{order}"
        + ("" if order == 1 else ", which is not an integer: obstruction"),
    ]
    return _result("LensObstruction", spec, computed,
                   {"cone_transgression": ref}, {"cone_transgression": abs(value - ref)},
                   abs(ref), tol, samples=samples, notes=notes, eps={"cone": eps})


# -- registry and suite -------------------------------------------------------

CHECKS = {
    "ClosedGB": check_closed_gb,
    "BoundaryGB": check_boundary_gb,
    "ConeGB": check_cone_gb,
    "EdgeLimit": check_edge_limit,
    "EdgeGB": check_edge_gb,
    "EdgeHorizontal": check_edge_horizontal,
    "FiberedGB": check_fibered_gb,
    "OrbifoldGB": check_orbifold_gb,
    "PerturbationStability": check_perturbation_stability,
    "FirstOrderConic": check_first_order_conic,
    "TransgressionStokes": check_transgression_stokes,
    "PhiLimit": check_phi_limit,
    "AlgebraIdentities": check_algebra_identities,
    "LensObstruction": check_lens_obstruction,
}

CHECK_IDS = tuple(sorted(CHECKS))

# (check id, geometry, params, level, tolerance)
DEFAULT_SUITE = (
    ("AlgebraIdentities", "flat_torus", {"n": 2}, 1, 1e-9),
    ("BoundaryGB", "disk", {"dim": 2}, 3, 1e-6),
    ("BoundaryGB", "disk", {"dim": 4}, 2, 1e-3),
    ("ClosedGB", "flat_torus", {"n": 2}, 1, 1e-12),
    ("ClosedGB", "flat_torus", {"n": 4}, 1, 1e-12),
    ("ClosedGB", "sphere", {"n": 2}, 3, 1e-6),
    ("ClosedGB", "sphere", {"n": 4}, 1, 1e-3),
    ("ConeGB", "geometric_cone", {"link": "s1", "theta": 0.5}, 3, 1e-3),
    ("ConeGB", "geometric_cone", {"link": "s1", "theta": 1.0}, 3, 1e-3),
    ("ConeGB", "geometric_cone", {"link": "s3", "theta": 0.5}, 2, 1e-3),
    ("ConeGB", "geometric_cone", {"link": "s3", "theta": 1.0}, 2, 1e-3),
    ("ConeGB", "geometric_cone", {"link": "t3", "theta": 0.7}, 1, 1e-3),
    ("EdgeGB", "edge_product", {"base": "s2", "fiber": "s1"}, 2, 1e-3),
    ("EdgeHorizontal", "edge_horizontal", {"base": "s2", "fiber": "s1", "beta": 0.3}, 2, 1e-3),
    ("EdgeLimit", "edge_product", {"base": "s2", "fiber": "s1"}, 2, 1e-3),
    ("EdgeLimit", "edge_product", {"base": "s1", "fiber": "s2"}, 2, 1e-3),
    ("FiberedGB", "catenoid", {}, 3, 1e-3),
    ("FiberedGB", "fibered_product", {"base": "s2", "fiber": "s1"}, 1, 1e-3),
    ("FirstOrderConic", "cone_perturbed_first_order", {"a": 0.3}, 3, 1e-3),
    ("LensObstruction", "lens_cone", {"order": 2}, 2, 1e-4),
    ("LensObstruction", "lens_cone", {"order": 3}, 2, 1e-4),
    ("LensObstruction", "lens_cone", {"order": 4}, 2, 1e-4),
    ("OrbifoldGB", "football", {"p": 2}, 5, 1e-9),
    ("OrbifoldGB", "football", {"p": 3}, 5, 1e-9),
    ("OrbifoldGB", "football", {"p": 5}, 5, 1e-9),
    ("PerturbationStability", "cone_perturbed_second_order", {}, 3, 1e-3),
    ("PhiLimit", "geometric_cone", {"link": "s1", "theta": 1.0}, 2, 1e-4),
    ("PhiLimit", "cone_perturbed_second_order", {}, 2, 1e-4),
    ("PhiLimit", "edge_product", {"base": "s2", "fiber": "s1"}, 2, 1e-4),
    ("TransgressionStokes", "flat_torus", {"n": 2}, 2, 1e-3),
)


def _suite_rows(check_id: str) -> list:
    """The check's DEFAULT_SUITE rows (check id, geometry, params, level, tolerance)."""
    return [row for row in DEFAULT_SUITE if row[0] == check_id]


def resolve_spec(check_id: str, geometry=None, params=None):
    """The geometry a check runs on.

    geometry may be a name (resolved through the catalog with params) or a
    prepared GeometrySpec; None takes the check's first default row, with
    params overriding its parameters.
    """
    if check_id not in CHECKS:
        raise ConfigurationError(f"unknown check {check_id!r}")
    if geometry is None:
        _, geometry, defaults, _, _ = _suite_rows(check_id)[0]
        params = {**defaults, **(params or {})}
    if isinstance(geometry, str):
        return catalog.get(geometry, **(params or {}))
    return geometry


def run_check(check_id: str, geometry=None, params=None, level=None, tol=None) -> CheckResult:
    """Run one registered check; failures surface as failed results.

    geometry and params select the geometry as in resolve_spec.
    A level outside quadrature.LEVELS raises ResolutionError before the
    check runs.  Non-convergence or numeric trouble inside a check is
    captured into a failed CheckResult rather than raised.
    """
    spec = resolve_spec(check_id, geometry, params)
    # the row of this geometry and params, else its first row of this geometry
    # (a lens of order 5 runs as the lens rows do), else level 2 and tol 1e-3
    named = [row for row in _suite_rows(check_id) if row[1] == spec.name]
    row = next((r for r in named if all(spec.params.get(k) == v for k, v in r[2].items())),
               named[0] if named else (check_id, spec.name, {}, 2, 1e-3))
    level = row[3] if level is None else level
    tol = row[4] if tol is None else tol
    quad.check_level(level)
    try:
        return CHECKS[check_id](spec, level, tol)
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - diagnostics, never a crash
        return _result(check_id, spec, {}, {}, {}, 1.0, tol,
                       notes=[f"check failed: {type(exc).__name__}: {exc}"])


def run_suite(filter_text: str = "", level=None, tol=None) -> SuiteResult:
    """Run every matching default instance in this process, in stable order.

    A check is a pure function of its row (run_check resolves a None level
    or tol from it), so the report is the same in any process.  A filter
    that no check id contains is a ConfigurationError, not an empty pass.
    """
    needle = filter_text.casefold()
    if not any(needle in cid.casefold() for cid in CHECK_IDS):
        raise ConfigurationError(f"filter {filter_text!r} matches no check id")
    results = [run_check(cid, geometry, dict(params), level, tol)
               for cid, geometry, params, _, _ in DEFAULT_SUITE if needle in cid.casefold()]
    results.sort(key=lambda r: (r.check_id, r.geometry, sorted(r.params.items()).__repr__()))
    return SuiteResult(results)


def suite_to_json_dict(suite: SuiteResult, meta=None) -> dict:
    return {
        "meta": dict(meta or {}),
        "summary": {"passed": suite.passed, "failed": suite.failed,
                    "total": len(suite.results)},
        "epsilons": dict(EPSILONS),
        "results": [r.to_json_dict() for r in suite.results],
    }
