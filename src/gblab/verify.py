"""Theorem-residual harness.

Each registered check composes the geometry engine, the curvature
polynomials, and the quadrature layer into one named verification and
returns a CheckResult.  Orientation bookkeeping is concentrated in the
per-family epsilon flags below; they are derived once by the calibrate()
pass from three anchors (disk boundary, collapsing-fiber product, catenoid)
and frozen here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import catalog
from . import invariants as inv
from . import quadrature as quad
from .doubleform import (DoubleForm, OrientedFrameContext, berezin, multi_indices,
                         pfaffian_skew, power)
from .geometry import (
    CollarMetric,
    MetricField,
    SliceData,
    metric_path_gauge,
    phi_conjugated_connection,
    riemann_double_form,
    slice_data,
)

__all__ = [
    "CheckResult",
    "SuiteResult",
    "CHECK_IDS",
    "DEFAULT_SUITE",
    "EPSILONS",
    "run_check",
    "run_suite",
    "calibrate",
    "suite_to_json_dict",
]

TWO_PI = 2.0 * math.pi

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
    tolerance_kind: str           # "abs" or "rel"
    passed: bool
    convergence: dict = field(default_factory=dict)
    epsilon_notes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "geometry": self.geometry,
            "params": {k: _jsonable(v) for k, v in sorted(self.params.items())},
            "computed": {k: _jsonable(v) for k, v in sorted(self.computed.items())},
            "reference": {k: _jsonable(v) for k, v in sorted(self.reference.items())},
            "residual_abs": self.residual_abs,
            "residual_rel": self.residual_rel,
            "tolerance": self.tolerance,
            "tolerance_kind": self.tolerance_kind,
            "pass": self.passed,
            "convergence": self.convergence,
            "epsilon_notes": {k: _jsonable(v) for k, v in sorted(self.epsilon_notes.items())},
            "notes": list(self.notes),
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


@dataclass
class SuiteResult:
    results: list
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- shared numerics ----------------------------------------------------------


def _ctx(n: int) -> OrientedFrameContext:
    return OrientedFrameContext(n)


def _density_pf(mf: MetricField):
    ctx = _ctx(mf.chart.dim)

    def dens(x):
        R, _ = riemann_double_form(mf, x)
        return inv.pfaffian_form(R, ctx).coeffs[0, 0] * math.sqrt(np.linalg.det(mf.g(x)))

    return dens


def _density_pf_odd(mf: MetricField):
    n = mf.chart.dim
    ctx = _ctx(n)
    h = DoubleForm.metric_form(n)

    def dens(x):
        R, _ = riemann_double_form(mf, x)
        return inv.odd_pfaffian_form(R, h, ctx).coeffs[0, 0] * math.sqrt(np.linalg.det(mf.g(x)))

    return dens


def _tuned(mf: MetricField, order: int, fd_rel=None) -> MetricField:
    return MetricField(mf.chart, mf.evaluator,
                       fd_rel_step=mf.fd_rel_step if fd_rel is None else fd_rel,
                       fd_order=order)


def pf_integral(spec, level: int, order: int = 4, fd_rel=None) -> float:
    """Weighted integral of the Pfaffian form over all charts of a geometry."""
    total = 0.0
    for chart, mf in spec.charts:
        mesh = quad.mesh_for_chart(chart, level)
        total += quad.integrate_chart(_density_pf(_tuned(mf, order, fd_rel)), chart, mesh)
    return float(spec.symmetry_weight) * total


def chart_integral(chart, density, level: int) -> float:
    mesh = quad.mesh_for_chart(chart, level)
    return quad.integrate_chart(density, chart, mesh)


def odd_pf_integral(chart, mf: MetricField, level: int, order: int = 4) -> float:
    """Integral of the odd Pfaffian form of an odd-dimensional metric."""
    return chart_integral(chart, _density_pf_odd(_tuned(mf, order)), level)


def slice_transgression_plus(collar: CollarMetric, k: int, r: float, level: int) -> float:
    """Plus-convention transgression integral over the slice at radius r."""
    sl = slice_data(collar, r)
    ctx = _ctx(collar.boundary_chart.dim)

    def dens(y):
        sd = sl.at(y)
        c = inv.boundary_correction_form(sd, k, ctx).coeffs[0, 0]
        return c * sd.sqrt_det

    return chart_integral(collar.boundary_chart, dens, level)


def slice_limit(collar: CollarMetric, k: int, level: int, count: int = 6, degree: int = 4):
    """Extrapolated r -> 0 (or r -> infinity) limit of the slice transgression.

    The singular_end flag picks the direction: collapsing collars sample a
    geometric schedule toward 0, complete ends substitute u = 1/r.
    """
    lo, hi = collar.r_interval
    samples = []
    if collar.singular_end == "infinity":
        u0 = 0.4 / lo if lo > 0 else 0.1
        for u in quad.geometric_schedule(u0, count):
            samples.append((u, slice_transgression_plus(collar, k, 1.0 / u, level)))
    else:
        for dr in quad.geometric_schedule(0.4 * (hi - lo), count):
            samples.append((dr, slice_transgression_plus(collar, k, lo + dr, level)))
    value, warn = quad.r_limit_extrapolate(samples, degree=degree)
    return value, samples, warn


def lk_integrals(chart, mf: MetricField, level: int, order: int = 4) -> list:
    """Integrals of the Lipschitz-Killing forms of an odd-dimensional metric."""
    n = chart.dim
    ctx = _ctx(n)
    h = DoubleForm.metric_form(n)
    mf = _tuned(mf, order)
    out = []
    for j in range((n + 1) // 2):
        def dens(x, j=j):
            R, _ = riemann_double_form(mf, x)
            c = inv.lipschitz_killing_form(j, n, R, h, ctx).coeffs[0, 0]
            return c * math.sqrt(np.linalg.det(mf.g(x)))

        out.append(chart_integral(chart, dens, level))
    return out


def _fibration_fields(fib):
    base = fiber = None
    if fib.base_dim:
        base = MetricField(fib.base_chart, fib.base_metric)
    if fib.fiber_dim:
        fiber = MetricField(fib.fiber_chart, lambda y: fib.fiber_metric(0.0, y))
    return base, fiber


def edge_value_for(fib, level: int) -> float:
    """Closed-form collapsing-fiber boundary term for a product fibration."""
    if fib.base_dim % 2:
        return 0.0
    base, fiber = _fibration_fields(fib)
    pf_base = 1.0 if base is None else chart_integral(
        fib.base_chart, _density_pf(_tuned(base, 4)), level)
    odd_fiber = chart_integral(fib.fiber_chart, _density_pf_odd(_tuned(fiber, 4)), level)
    return inv.edge_boundary_value(pf_base, odd_fiber, fib.base_dim)


def fibered_value_for(fib, level: int) -> float:
    """Closed-form expanding-base boundary term for a product fibration."""
    if fib.base_dim % 2 == 0:
        return 0.0
    base, _ = _fibration_fields(fib)
    odd_base = chart_integral(fib.base_chart, _density_pf_odd(_tuned(base, 4)), level)
    return inv.fibered_boundary_value(odd_base, fib.chi_fiber, fib.base_dim, fib.fiber_dim)


def _base_metric_variation(collar: CollarMetric, y_base, h: float = 1e-4):
    """d/dr of the base block of the slice metric at r = 0."""
    fib = collar.fibration
    f = fib.fiber_dim
    y = np.concatenate((np.zeros(f), y_base))
    gp = collar.radial_metric(h)(y)[f:, f:]
    gm = collar.radial_metric(-h)(y)[f:, f:]
    return (gp - gm) / (2.0 * h)


def horizontal_closed_value(collar: CollarMetric, k: int, level: int) -> float:
    """Closed-form slice-transgression limit with horizontal variation.

    Combines base integrals of B(R^i gdot^(b-2i)) with fiber
    Lipschitz-Killing integrals; reduces to the collapsing-fiber value when
    the base metric is radially constant.
    """
    fib = collar.fibration
    b, f = fib.base_dim, fib.fiber_dim
    base, fiber = _fibration_fields(fib)
    ctxb = _ctx(b)
    basef = _tuned(base, 4)

    q_ints = {}
    for i in range(b // 2 + 1):
        def dens(y, i=i):
            R, E = riemann_double_form(basef, y)
            gdot = E.T @ _base_metric_variation(collar, y) @ E
            gdot_form = DoubleForm(b, 1, 1, 0.5 * (gdot + gdot.T))
            c = inv.variation_form(i, b, R, gdot_form, ctxb).coeffs[0, 0]
            return c * math.sqrt(np.linalg.det(basef.g(y)))

        q_ints[i] = chart_integral(fib.base_chart, dens, level)
    p_list = lk_integrals(fib.fiber_chart, fiber, level)
    p_ints = {v: p_list[v] for v in range(len(p_list))}
    return inv.horizontal_edge_value(q_ints, p_ints, k, b, f)


def _phi_samples(spec, points, count: int = 6):
    """phi-conjugated connection samples on a radial schedule at given points."""
    collar = spec.collar
    g_full = collar.full_metric()
    lo, hi = collar.r_interval
    rs = quad.geometric_schedule(0.4 * (hi - lo), count)
    out = []
    for y in points:
        series = [(r, phi_conjugated_connection(collar, g_full, r, y)) for r in rs]
        out.append((np.asarray(y, dtype=float), series))
    return out


def _phi_limit_matrix(series, degree: int = 4):
    rs = [r for r, _ in series]
    shape = series[0][1].omega.shape
    out = np.zeros(shape)
    for idx in np.ndindex(shape):
        vals = [(r, pc.omega[idx]) for r, pc in series]
        out[idx], _ = quad.r_limit_extrapolate(vals, degree=degree)
    return out


def _phi_reference(collar: CollarMetric, y) -> np.ndarray:
    """Block-form limit of the conjugated connection at r = 0.

    Diagonal blocks are the component Levi-Civita connections of fiber and
    base; the only off-diagonal part pairs the radial direction with the
    vertical block through the fiber metric.  Assembled in the same
    orthonormal frame field as the samples, including frame derivatives.
    """
    from .geometry import _frame_of, _h_phi_matrix, christoffel, _diff_weights  # noqa: PLC0415

    fib = collar.fibration
    f, b = fib.fiber_dim, fib.base_dim
    d = 1 + f + b
    y = np.asarray(y, dtype=float)
    x0 = np.concatenate(([0.0], y))

    omega_coord = np.zeros((d, d, d))
    if f:
        fiber_field = MetricField(fib.fiber_chart, lambda z: fib.fiber_metric(0.0, z))
        gam_f = christoffel(fiber_field, y[:f])
        gv = fib.fiber_metric(0.0, y[:f])
        for a in range(f):
            mu = 1 + a
            omega_coord[mu, 1 : 1 + f, 1 : 1 + f] = gam_f[:, a, :]
            for c in range(f):
                omega_coord[mu, 0, 1 + c] = -gv[a, c]
                omega_coord[mu, 1 + c, 0] = 1.0 if a == c else 0.0
    if b:
        base_field = MetricField(fib.base_chart, fib.base_metric)
        gam_b = christoffel(base_field, y[f:])
        for a in range(b):
            mu = 1 + f + a
            omega_coord[mu, 1 + f :, 1 + f :] = gam_b[:, a, :]

    E0 = _frame_of(_h_phi_matrix(collar, fib, 0.0, y))
    Einv = np.linalg.inv(E0)
    steps = np.concatenate(([1e-4], collar.fd_rel_step * collar.boundary_chart.extents))
    out = np.zeros((d, d, d))
    for mu in range(d):
        acc = 0.0
        for off, wt in _diff_weights(2):
            p = x0.copy()
            p[mu] += off * steps[mu]
            acc = acc + wt * _frame_of(_h_phi_matrix(collar, fib, p[0], p[1:]))
        dE = acc / steps[mu]
        out[mu] = Einv @ (dE + omega_coord[mu] @ E0)
    return out


# -- individual checks --------------------------------------------------------


def _result(check_id, spec, computed, reference, residual_abs, scale, tol, kind,
            convergence=None, notes=None, eps=None, t0=0.0):
    rel = residual_abs / scale if scale else float("inf") if residual_abs else 0.0
    bound = tol if kind == "abs" else tol * scale
    return CheckResult(
        check_id=check_id, geometry=spec.name, params=dict(spec.params),
        computed=computed, reference=reference,
        residual_abs=residual_abs, residual_rel=rel,
        tolerance=tol, tolerance_kind=kind, passed=bool(residual_abs <= bound),
        convergence=convergence or {},
        epsilon_notes=dict(eps or {}), notes=list(notes or []),
        elapsed=time.monotonic() - t0 if t0 else 0.0,
    )


def check_closed_gb(spec, level, tol):
    t0 = time.monotonic()
    if spec.chi_ref is None:
        raise ConfigurationError("ClosedGB needs a reference Euler characteristic")
    dim = spec.charts[0][0].dim
    if dim % 2:
        raise ConfigurationError("ClosedGB needs an even-dimensional geometry")
    k = dim // 2
    total = pf_integral(spec, level, order=2 if dim >= 4 else 4)
    chi = total / TWO_PI**k
    resid = abs(chi - spec.chi_ref)
    computed = {"pf_integral": total, "chi": chi}
    if spec.name == "flat_torus":
        # flat metrics must integrate to exactly zero at machine precision
        resid = abs(total)
    return _result("ClosedGB", spec, computed, {"chi": spec.chi_ref},
                   resid, max(1.0, abs(spec.chi_ref)), tol, "abs", t0=t0)


def check_boundary_gb(spec, level, tol):
    t0 = time.monotonic()
    if spec.collar is None or spec.name != "disk":
        raise ConfigurationError("BoundaryGB runs on disks")
    dim = spec.params["dim"]
    rho = spec.params["rho"]
    k = dim // 2
    interior = pf_integral(spec, level, order=2)
    boundary = slice_transgression_plus(spec.collar, k, rho, level)
    eps = EPSILONS["boundary"]
    chi = (interior - eps * boundary) / TWO_PI**k
    two_route = _boundary_two_route(spec, k, level)
    resid = max(abs(chi - spec.chi_ref), abs(boundary - (-(TWO_PI**k))) / TWO_PI**k,
                two_route)
    computed = {
        "pf_integral": interior, "boundary_integral": boundary, "chi": chi,
        "two_route_rel_gap": two_route,
    }
    reference = {"chi": spec.chi_ref, "boundary_integral": -(TWO_PI**k)}
    return _result("BoundaryGB", spec, computed, reference, resid, 1.0, tol, "abs",
                   notes=[SIGN_NOTE], eps={"boundary": eps}, t0=t0)


def _boundary_two_route(spec, k, level):
    """Path-transgression route against the slice integrand near the boundary.

    The affine path from the frozen product metric to the true collar metric
    is gauged pointwise; its transgression integral over a nearby slice must
    match the closed-form boundary integrand there.
    """
    collar = spec.collar
    rho = spec.params["rho"]
    r_b = rho * (1.0 - 0.02)
    full = collar.full_metric()
    frozen = collar.radial_metric(r_b)
    nb = collar.boundary_chart.dim

    def product_ev(x):
        out = np.zeros((nb + 1, nb + 1))
        out[0, 0] = 1.0
        out[1:, 1:] = frozen(x[1:])
        return out

    g0 = MetricField(full.chart, product_ev, fd_rel_step=full.fd_rel_step)
    ctx = _ctx(nb + 1)
    slice_rank = None

    def dens(y):
        nonlocal slice_rank
        x = np.concatenate(([r_b], y))
        gauge = metric_path_gauge(g0, full, x, steps=16)
        form = inv.path_transgression_form(gauge, k, ctx)
        if slice_rank is None:
            from .doubleform import index_rank
            slice_rank = index_rank(nb + 1, tuple(range(1, nb + 1)))
        c = form.coeffs[slice_rank, 0]
        h = frozen(y)
        return c * math.sqrt(np.linalg.det(h))

    lvl = max(1, level - 1)
    path_route = chart_integral(collar.boundary_chart, dens, lvl)
    direct = slice_transgression_plus(collar, k, r_b, lvl)
    return abs(path_route - direct) / max(abs(direct), 1e-12)


def check_cone_gb(spec, level, tol):
    t0 = time.monotonic()
    if spec.collar is None or spec.family != "cone":
        raise ConfigurationError("ConeGB needs a conical geometry")
    link_chart = spec.collar.boundary_chart
    n = link_chart.dim
    k = (n + 1) // 2
    theta = spec.params.get("theta", 1.0)
    link_field = MetricField(link_chart, _unit_link(spec))
    lk = lk_integrals(link_chart, link_field, level)
    closed = inv.cone_transgression_value(theta, lk, n)
    limit, samples, warn = slice_limit(spec.collar, k, level)
    eps = EPSILONS["cone"]
    gap = abs(eps * limit - closed)
    scale = max(abs(closed), 1e-12)
    computed = {"closed_form": closed, "slice_limit": eps * limit,
                "slice_limit_plus": limit, "lk_integrals": tuple(lk)}
    reference = {"closed_form": closed}
    notes = [SIGN_NOTE]
    if warn:
        notes.append("extrapolation condition warning")
    if n == 1:
        # the singular point contributes 1 + limit/(2 pi) to the completed
        # surface; at the 1e-3 relative gate the factor 10 enforces 1e-4
        contribution = 1.0 + limit / TWO_PI
        computed["singular_contribution"] = contribution
        reference["singular_contribution"] = 1.0 - theta
        gap = max(gap, 10.0 * scale * abs(contribution - (1.0 - theta)))
    return _result("ConeGB", spec, computed, reference, gap, scale, tol, "rel",
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"cone": eps}, t0=t0)


def _unit_link(spec):
    """Evaluator of the link metric h, with the cone profile divided out."""
    collar = spec.collar
    theta = spec.params.get("theta", 1.0)
    profile = spec.params.get("profile", "linear")
    a = spec.params.get("a", 0.0)
    r_ref = 1e-3
    f2 = {
        "linear": (theta * r_ref) ** 2,
        "second_order": r_ref**2 * (1.0 + r_ref**2),
        "first_order": (r_ref * (1.0 + a * r_ref)) ** 2,
    }.get(profile, (theta * r_ref) ** 2)

    def ev(y):
        return collar.radial_metric(r_ref)(y) / f2

    return ev


def check_edge_limit(spec, level, tol):
    t0 = time.monotonic()
    fib = spec.fibration or (spec.collar.fibration if spec.collar else None)
    if spec.collar is None or fib is None or spec.family != "edge":
        raise ConfigurationError("EdgeLimit needs an edge geometry")
    n = spec.collar.boundary_chart.dim
    k = (n + 1) // 2
    limit, samples, warn = slice_limit(spec.collar, k, level)
    closed = edge_value_for(fib, level)
    if fib.base_dim % 2 == 0:
        scale = max(abs(closed), 1e-12)
        gap = abs(limit - closed)
        kind = "rel"
    else:
        # odd base: the boundary term vanishes; compare against the first
        # sample magnitude with an absolute floor
        first = abs(samples[0][1])
        scale = max(first, 1e-6 * TWO_PI**k)
        gap = abs(limit)
        kind = "rel"
    computed = {"slice_limit_plus": limit, "closed_value": closed,
                "first_sample": samples[0][1]}
    notes = []
    if warn:
        notes.append("extrapolation condition warning")
    if fib.base_dim % 2:
        notes.append("odd-dimensional base: boundary term vanishes identically "
                     "for product data; residual measured against an absolute floor")
    return _result("EdgeLimit", spec, computed, {"closed_value": closed},
                   gap, scale, tol, kind,
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"edge": EPSILONS["edge"]}, t0=t0)


def check_edge_gb(spec, level, tol):
    t0 = time.monotonic()
    fib = spec.fibration
    if not spec.charts or fib is None or spec.family != "edge":
        raise ConfigurationError("EdgeGB needs a charted edge geometry")
    dim = spec.charts[0][0].dim
    k = dim // 2
    # the interior form of the product model vanishes pointwise; a reduced
    # level only changes how finely the numerical zero is sampled
    interior = pf_integral(spec, max(1, level - 1), order=2)
    edge_term = edge_value_for(fib, level)
    eps = EPSILONS["edge"]
    lhs = TWO_PI**k * spec.chi_ref
    rhs = interior - eps * edge_term
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), 1.0)
    computed = {"pf_integral": interior, "edge_term": edge_term, "identity_rhs": rhs}
    return _result("EdgeGB", spec, computed, {"identity_lhs": lhs}, gap, scale,
                   tol, "rel", notes=[SIGN_NOTE], eps={"edge": eps}, t0=t0)


def check_edge_horizontal(spec, level, tol):
    t0 = time.monotonic()
    if spec.collar is None or spec.name != "edge_horizontal":
        raise ConfigurationError("EdgeHorizontal runs on edge_horizontal")
    n = spec.collar.boundary_chart.dim
    k = (n + 1) // 2
    closed = horizontal_closed_value(spec.collar, k, level)
    limit, samples, warn = slice_limit(spec.collar, k, level)
    gap = abs(limit - closed)
    scale = max(abs(closed), 1e-12)
    # reduction anchor: with the radial variation switched off the closed
    # form must reproduce the collapsing-fiber value
    plain = catalog.get("edge_product", base=spec.params["base"], fiber=spec.params["fiber"])
    reduction = horizontal_closed_value(plain.collar, k, level)
    reduction_ref = edge_value_for(plain.collar.fibration, level)
    red_gap = abs(reduction - reduction_ref) / max(abs(reduction_ref), 1e-12)
    computed = {"closed_value": closed, "slice_limit_plus": limit,
                "reduction_value": reduction, "reduction_rel_gap": red_gap}
    notes = []
    if warn:
        notes.append("extrapolation condition warning")
    gap = max(gap, red_gap * scale)
    return _result("EdgeHorizontal", spec, computed, {"closed_value": closed},
                   gap, scale, tol, "rel",
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"edge": EPSILONS["edge"]}, t0=t0)


def check_fibered_gb(spec, level, tol):
    t0 = time.monotonic()
    fib = spec.collar.fibration if spec.collar else None
    if fib is None or spec.family != "fibered":
        raise ConfigurationError("FiberedGB needs a fibered-boundary geometry")
    n = spec.collar.boundary_chart.dim
    k = (n + 1) // 2
    eps = EPSILONS["fibered"]
    if spec.charts:
        interior = pf_integral(spec, level, order=4)
    else:
        interior = 0.0
    end_value = fibered_value_for(fib, level)
    limit, samples, warn = slice_limit(spec.collar, k, level)
    computed = {"pf_integral": interior, "end_value": end_value,
                "slice_limit_plus": limit, "end_count": spec.end_count}
    notes = []
    if warn:
        notes.append("extrapolation condition warning")
    if fib.base_dim % 2 == 0:
        scale = max(abs(samples[0][1]), 1e-6 * TWO_PI**k)
        gap = abs(limit)
        reference = {"end_value": 0.0}
        notes.append("even-dimensional base: boundary term vanishes")
        return _result("FiberedGB", spec, computed, reference, gap, scale, tol,
                       "rel", notes=notes, eps={"fibered": eps}, t0=t0)
    # odd base (catenoid family): full identity plus route agreement
    lhs = TWO_PI**k * spec.chi_ref
    rhs = interior - eps * spec.end_count * end_value
    gap_identity = abs(lhs - rhs)
    gap_routes = abs(limit - end_value)
    scale = max(abs(interior), TWO_PI**k)
    gap = max(gap_identity, gap_routes)
    computed["identity_rhs"] = rhs
    reference = {"identity_lhs": lhs, "end_value": end_value}
    return _result("FiberedGB", spec, computed, reference, gap, scale, tol, "rel",
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"fibered": eps}, t0=t0)


def check_orbifold_gb(spec, level, tol):
    t0 = time.monotonic()
    if spec.family != "orbifold":
        raise ConfigurationError("OrbifoldGB needs an orbifold geometry")
    p = spec.params["p"]
    total = pf_integral(spec, level, order=4, fd_rel=5e-5)
    chi_int = total / TWO_PI
    defect = sum(s.chi * (s.group_order - 1) / s.group_order for s in spec.strata)
    t7 = chi_int + defect
    gap = max(abs(chi_int - 2.0 / p), abs(t7 - spec.chi_ref))
    computed = {"pf_chi_part": chi_int, "stratum_defect": defect, "t7_total": t7}
    reference = {"pf_chi_part": 2.0 / p, "t7_total": spec.chi_ref}
    return _result("OrbifoldGB", spec, computed, reference, gap, 1.0, tol, "abs",
                   notes=[f"weighted cover: 1/{p} of the round cover integral"], t0=t0)


def check_perturbation_stability(spec, level, tol):
    t0 = time.monotonic()
    if spec.name != "cone_perturbed_second_order":
        raise ConfigurationError("PerturbationStability runs on the second-order cone")
    k = 1
    model = catalog.get("geometric_cone", link="s1", theta=1.0)
    lim_model, _, _ = slice_limit(model.collar, k, level)
    lim_pert, samples, warn = slice_limit(spec.collar, k, level)
    gap = abs(lim_model - lim_pert)
    computed = {"model_limit": lim_model, "perturbed_limit": lim_pert}
    notes = ["second-order radial perturbation leaves the slice-transgression limit fixed"]
    if warn:
        notes.append("extrapolation condition warning")
    return _result("PerturbationStability", spec, computed,
                   {"model_limit": lim_model}, gap, 1.0, tol, "abs",
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"cone": EPSILONS["cone"]}, t0=t0)


def check_phi_limit(spec, level, tol):
    t0 = time.monotonic()
    if spec.collar is None or spec.collar.fibration is None:
        raise ConfigurationError("PhiLimit needs a collar with fibration data")
    chart = spec.collar.boundary_chart
    rng = np.random.default_rng(20240801)
    points = chart.random_interior(rng, 3, shrink=0.2)
    samples = _phi_samples(spec, points)
    worst = 0.0
    for y, series in samples:
        lim = _phi_limit_matrix(series)
        ref = _phi_reference(spec.collar, y)
        worst = max(worst, float(np.max(np.abs(lim - ref))))
    computed = {"max_entry_gap": worst, "points": len(samples)}
    return _result("PhiLimit", spec, computed, {"max_entry_gap": 0.0}, worst,
                   1.0, tol, "abs",
                   notes=["limit compared entrywise to the block connection "
                          "(component connections plus radial-vertical pairing)"],
                   t0=t0)


def check_first_order_conic(spec, level, tol):
    t0 = time.monotonic()
    if spec.name != "cone_perturbed_first_order":
        raise ConfigurationError("FirstOrderConic runs on the first-order cone")
    k = 1
    interior = pf_integral(spec, level, order=2)
    outer = slice_transgression_plus(spec.collar, k, 1.0, level)
    # asymptotic second fundamental form from the extrapolated conjugated
    # connection; its boundary integral is the singular contribution
    g_full = spec.collar.full_metric()
    fib = spec.collar.fibration
    chartN = spec.collar.boundary_chart
    ctxN = _ctx(chartN.dim)
    rs = quad.geometric_schedule(0.32, 6)

    def gterm_density(y):
        series = [(r, phi_conjugated_connection(spec.collar, g_full, r, y)) for r in rs]
        lim = _phi_limit_matrix(series)
        f = fib.fiber_dim
        II = np.zeros((f, f))
        E0 = _phi_frame_at_zero(spec.collar, y)
        for a in range(f):
            for b in range(f):
                II[a, b] = sum(E0[mu, 1 + a] * lim[mu, 0, 1 + b] for mu in range(lim.shape[0]))
        II = 0.5 * (II + II.T)
        sd = SliceData(
            r=0.0, h=np.eye(f), second_fundamental=DoubleForm(f, 1, 1, II),
            curvature=_link_curvature(spec, y), frame=np.eye(f), sqrt_det=1.0,
            orientation=-1,
        )
        c = inv.boundary_correction_form(sd, k, ctxN).coeffs[0, 0]
        return c * math.sqrt(np.linalg.det(fib.fiber_metric(0.0, y)))

    gterm = chart_integral(chartN, gterm_density, level)
    singular = 1.0 + gterm / TWO_PI**k
    lhs = TWO_PI**k * spec.chi_ref
    rhs = interior - outer + TWO_PI**k * singular
    gap = abs(lhs - rhs)
    computed = {"pf_integral": interior, "outer_boundary": outer,
                "phi_boundary_term": gterm, "singular_contribution": singular,
                "identity_rhs": rhs}
    return _result("FirstOrderConic", spec, computed, {"identity_lhs": lhs},
                   gap, TWO_PI**k, tol, "rel", notes=[SIGN_NOTE],
                   eps={"cone": EPSILONS["cone"]}, t0=t0)


def _phi_frame_at_zero(collar, y):
    from .geometry import _frame_of, _h_phi_matrix  # noqa: PLC0415

    return _frame_of(_h_phi_matrix(collar, collar.fibration, 0.0, np.asarray(y, dtype=float)))


def _link_curvature(spec, y):
    f = spec.collar.fibration.fiber_dim
    if f < 2:
        return DoubleForm.zero(f, 2, 2)
    link_field = MetricField(spec.collar.boundary_chart, _unit_link(spec))
    R, _ = riemann_double_form(link_field, y)
    return R


def check_transgression_stokes(spec, level, tol):
    t0 = time.monotonic()
    if spec.name != "flat_torus" or spec.charts[0][0].dim != 2:
        raise ConfigurationError("TransgressionStokes runs on the 2-torus")
    chart, g0 = spec.charts[0]
    amp = 0.25
    u = lambda x: amp * math.sin(x[0]) * math.cos(x[1])

    def g1_ev(x):
        return math.exp(2.0 * u(x)) * np.eye(2)

    g1 = MetricField(chart, g1_ev, fd_rel_step=g0.fd_rel_step)
    ctx = _ctx(2)

    def tpf_components(x):
        gauge = metric_path_gauge(g0, g1, np.asarray(x, dtype=float), steps=16,
                                  need_curvature=False)
        form = inv.path_transgression_form(gauge, 1, ctx)
        return form.coeffs[:, 0].copy()   # flat frame = coordinate frame

    def delta_pf(x):
        R1, _ = riemann_double_form(g1, x)
        c1 = inv.pfaffian_form(R1, ctx).coeffs[0, 0] * math.sqrt(np.linalg.det(g1.g(x)))
        return c1  # flat reference term vanishes identically

    n_grid = 32
    hs = 1e-3
    xs = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    worst = 0.0
    max_dpf = 0.0
    pts = [(x, y) for x in xs for y in xs]

    def residual_at(p):
        x, y = p
        tpx_p = tpf_components((x + hs, y))
        tpx_m = tpf_components((x - hs, y))
        tpy_p = tpf_components((x, y + hs))
        tpy_m = tpf_components((x, y - hs))
        d01 = (tpx_p[1] - tpx_m[1]) / (2 * hs) - (tpy_p[0] - tpy_m[0]) / (2 * hs)
        return d01, delta_pf((x, y))

    vals = [residual_at(p) for p in pts]
    for d01, dpf in vals:
        max_dpf = max(max_dpf, abs(dpf))
    for d01, dpf in vals:
        worst = max(worst, abs(d01 - dpf))
    computed = {"max_pointwise_gap": worst, "max_delta_pf": max_dpf,
                "grid": n_grid, "conformal_amplitude": amp}
    return _result("TransgressionStokes", spec, computed,
                   {"max_pointwise_gap": 0.0}, worst, max_dpf, tol, "rel", t0=t0)


def check_algebra_identities(spec, level, tol):
    t0 = time.monotonic()
    failures = []
    for p in range(11):
        if inv.double_factorial_identity_lhs(p) != Fraction((-1) ** p, 2 * p + 1):
            failures.append(f"double-factorial identity fails at p={p}")
    for k in range(1, 11):
        lhs, rhs = inv.beta_moment_identity(k)
        if lhs != rhs:
            failures.append(f"moment identity fails at k={k}")
    for n in range(1, 7):
        he = DoubleForm.metric_form(n, exact=True)
        val = berezin(power(he, n), _ctx(n)).coeffs[0, 0]
        if val != math.factorial(n):
            failures.append(f"B(h^{n}) = {val} != {n}!")
    rng = np.random.default_rng(42)
    worst_pf = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(4):
            A = rng.normal(size=(n, n))
            A = A - A.T
            worst_pf = max(worst_pf, abs(pfaffian_skew(A) ** 2 - np.linalg.det(A)))
    worst_cross = _pfaffian_cross_check(rng)
    gap = worst_pf if not failures else float("inf")
    gap = max(gap, worst_cross)
    computed = {"pf_squared_minus_det": worst_pf,
                "form_vs_matrix_pfaffian": worst_cross,
                "exact_identities": "ok" if not failures else "; ".join(failures)}
    return _result("AlgebraIdentities", spec, computed,
                   {"pf_squared_minus_det": 0.0}, gap, 1.0, tol, "abs", t0=t0)


def _pfaffian_cross_check(rng) -> float:
    """B(R^k)/k! against the matching-expansion Pfaffian of the 2-form matrix."""
    worst = 0.0
    for n in (2, 4, 6):
        pairs = multi_indices(n, 2)
        ctx = _ctx(n)
        R = DoubleForm.zero(n, 2, 2)
        coeffs = rng.normal(size=(len(pairs), len(pairs)))
        for r, _ in enumerate(pairs):
            for c, _ in enumerate(pairs):
                R.coeffs[r, c] = coeffs[r, c]
        # symmetrize in the pair sense so the matrix of 2-forms is skew-consistent
        R = 0.5 * (R + DoubleForm(n, 2, 2, R.coeffs.T.copy()))
        via_berezin = inv.pfaffian_form(R, ctx).coeffs[0, 0]
        mat = [[DoubleForm.zero(n, 2, 0) for _ in range(n)] for _ in range(n)]
        for c, (i, j) in enumerate(pairs):
            col = DoubleForm.zero(n, 2, 0)
            col.coeffs[:, 0] = R.coeffs[:, c]
            mat[i][j] = col
            mat[j][i] = -1.0 * col
        via_matrix = pfaffian_skew(mat)
        scale = max(1.0, abs(via_berezin))
        worst = max(worst, abs(via_matrix.coeffs[0, 0] - via_berezin) / scale)
    return worst


def check_lens_obstruction(spec, level, tol):
    t0 = time.monotonic()
    if spec.name != "lens_cone":
        raise ConfigurationError("LensObstruction runs on lens_cone")
    order = spec.params["order"]
    k = 2
    limit, samples, warn = slice_limit(spec.collar, k, level)
    eps = EPSILONS["cone"]
    value = float(spec.symmetry_weight) * eps * limit
    ref = TWO_PI**k / order
    gap = abs(value - ref)
    computed = {"cone_transgression": value, "chi_would_be": value / TWO_PI**k}
    notes = [
        f"a flat metric with this cone end would force chi = 1/{order}"
        + ("" if order == 1 else ", which is not an integer: obstruction"),
    ]
    if warn:
        notes.append("extrapolation condition warning")
    return _result("LensObstruction", spec, computed,
                   {"cone_transgression": ref}, gap, abs(ref), tol, "rel",
                   convergence={"slice_samples": [{"r": r, "value": v} for r, v in samples]},
                   notes=notes, eps={"cone": eps}, t0=t0)


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

# (check id, geometry, params, level, tolerance, kind)
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


def run_check(check_id: str, geometry=None, params=None, level=None, tol=None) -> CheckResult:
    """Run one registered check; failures surface as failed results.

    geometry may be a name (resolved through the catalog) or a prepared
    GeometrySpec.  Non-convergence or numeric trouble inside a check is
    captured into a failed CheckResult rather than raised.
    """
    if check_id not in CHECKS:
        raise ConfigurationError(f"unknown check {check_id!r}")
    defaults = [row for row in DEFAULT_SUITE if row[0] == check_id]
    if geometry is None:
        if not defaults:
            raise ConfigurationError(f"no default geometry for {check_id}")
        geometry, dparams = defaults[0][1], dict(defaults[0][2])
        dparams.update(params or {})
        params = dparams
    if isinstance(geometry, str):
        spec = catalog.get(geometry, **(params or {}))
    else:
        spec = geometry
    match = [row for row in defaults if row[1] == spec.name
             and all(spec.params.get(k) == v for k, v in row[2].items())]
    if not match:
        match = [row for row in defaults if row[1] == spec.name]
    if level is None:
        level = match[0][3] if match else 2
    if tol is None:
        tol = match[0][4] if match else 1e-3
    try:
        return CHECKS[check_id](spec, level, tol)
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - diagnostics, never a crash
        return CheckResult(
            check_id=check_id, geometry=spec.name, params=dict(spec.params),
            computed={}, reference={}, residual_abs=float("inf"),
            residual_rel=float("inf"), tolerance=tol, tolerance_kind="abs",
            passed=False, notes=[f"check failed: {type(exc).__name__}: {exc}"],
        )


def _run_row(row, level, tol) -> CheckResult:
    check_id, geom, params, default_level, default_tol = row
    return run_check(check_id, geometry=geom, params=dict(params),
                     level=level or default_level,
                     tol=tol if tol is not None else default_tol)


def run_suite(filter_text: str = "", level=None, tol=None, workers: int = 1) -> SuiteResult:
    """Run every matching default instance, in stable order.

    With workers > 1 the instances are spread over that many processes.  A
    check is a pure function of its row, so the report does not depend on
    the process count.
    """
    needle = filter_text.casefold()
    rows = [row for row in DEFAULT_SUITE if needle in row[0].casefold()]
    if workers > 1:
        import multiprocessing  # noqa: PLC0415 - keeps the serial import lean
        from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            results = list(pool.map(partial(_run_row, level=level, tol=tol), rows))
    else:
        results = [_run_row(row, level, tol) for row in rows]
    results.sort(key=lambda r: (r.check_id, r.geometry, sorted(r.params.items()).__repr__()))
    passed = sum(1 for r in results if r.passed)
    return SuiteResult(results=results, passed=passed, failed=len(results) - passed)


def calibrate(level: int = 2) -> dict:
    """Re-derive the per-family orientation flags from the three anchors.

    boundary: chi(D^2) = 1; edge: the product identity on the collapsing
    collar over the 2-sphere base; fibered: the catenoid identity.  The cone
    flag follows from the boundary anchor applied to the inner slice of an
    annulus.  Returns the derived flags plus anchor residuals.
    """
    out = {"frozen": dict(EPSILONS), "derived": {}, "anchors": {}}

    disk = catalog.get("disk", dim=2)
    interior = pf_integral(disk, level, order=2)
    boundary = slice_transgression_plus(disk.collar, 1, 1.0, level)
    best_b = min((+1, -1), key=lambda e: abs((interior - e * boundary) / TWO_PI - 1.0))
    out["derived"]["boundary"] = best_b
    out["anchors"]["disk_chi"] = (interior - best_b * boundary) / TWO_PI

    cone = catalog.get("geometric_cone", link="s1", theta=0.5)
    lk = lk_integrals(cone.collar.boundary_chart,
                      MetricField(cone.collar.boundary_chart, _unit_link(cone)), level)
    closed = inv.cone_transgression_value(0.5, lk, 1)
    limit, _, _ = slice_limit(cone.collar, 1, level)
    best_c = min((+1, -1), key=lambda e: abs(e * limit - closed))
    out["derived"]["cone"] = best_c
    out["anchors"]["cone_gap"] = abs(best_c * limit - closed)

    edge = catalog.get("edge_product", base="s2", fiber="s1")
    edge_term = edge_value_for(edge.fibration, level)
    interior_e = 0.0  # product of a flat factor: the interior form vanishes
    best_e = min((+1, -1), key=lambda e: abs(TWO_PI**2 * edge.chi_ref - (interior_e - e * edge_term)))
    out["derived"]["edge"] = best_e
    out["anchors"]["edge_residual"] = abs(TWO_PI**2 * edge.chi_ref - (interior_e - best_e * edge_term))

    cat = catalog.get("catenoid")
    interior_c = pf_integral(cat, level, order=4)
    fib = cat.collar.fibration
    end_value = fibered_value_for(fib, level)
    best_f = min((+1, -1), key=lambda e: abs(0.0 - (interior_c - e * cat.end_count * end_value)))
    out["derived"]["fibered"] = best_f
    out["anchors"]["catenoid_residual"] = abs(interior_c - best_f * cat.end_count * end_value)

    out["consistent"] = out["derived"] == dict(EPSILONS)
    return out


def suite_to_json_dict(suite: SuiteResult, meta=None) -> dict:
    return {
        "meta": dict(meta or {}),
        "summary": {"passed": suite.passed, "failed": suite.failed,
                    "total": len(suite.results)},
        "epsilons": dict(EPSILONS),
        "results": [r.to_json_dict() for r in suite.results],
    }
