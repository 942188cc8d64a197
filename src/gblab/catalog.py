"""Built-in geometry registry.

Each entry packages charts, metric fields, optional collar and fibration
data, a symmetry weight for quotients, and reference Euler characteristics.
Chart parametrizations are chosen so metric evaluators stay smooth and
nondegenerate on the closed quadrature box:

* 2-spheres use the conformal cylinder chart g = rho^2 sech^2(t) (dt^2+dphi^2);
  the missed polar caps carry area 4 pi rho^2 (1 - tanh T) ~ 1e-11 at T = 14.
* 3-spheres use torus-fibration angles g = rho^2 (da^2 + cos^2 a dphi1^2 +
  sin^2 a dphi2^2) on (0, pi/2) x T^2.
* the catenoid uses the conformal coordinate r = sinh v, where the metric
  becomes cosh^2 v (dv^2 + dtheta^2).

Quotient geometries are weighted covers: integrals run over the cover and
are multiplied by 1/|G|, valid because every integrand in this laboratory
is isometry invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .geometry import Chart, CollarMetric, FibrationData, MetricField
from .quadrature import AxisRule

__all__ = [
    "GeometrySpec",
    "SingularStratum",
    "RegistryError",
    "get",
    "list_geometries",
    "register_from_config",
    "CONFIG_SCHEMA_VERSION",
]

CONFIG_SCHEMA_VERSION = 1

MERCATOR_CUTOFF = 14.0
CATENOID_CUTOFF = 7.0


class RegistryError(KeyError):
    """Unknown geometry name or invalid parameters."""


@dataclass(frozen=True)
class SingularStratum:
    """One connected component of an orbifold singular locus."""

    chi: int
    group_order: int


@dataclass(frozen=True)
class GeometrySpec:
    """A catalog geometry: charts, metric, collar, fibration, references."""

    name: str
    params: dict
    charts: tuple                     # ((Chart, MetricField), ...)
    collar: Optional[CollarMetric] = None
    fibration: Optional[FibrationData] = None
    symmetry_weight: Fraction = Fraction(1)
    chi_ref: Optional[int] = None
    chi_pieces: dict = field(default_factory=dict)
    strata: tuple = ()
    family: str = "closed"
    end_count: int = 1                # boundary/end multiplicity for collar terms
    notes: str = ""

    def key(self) -> str:
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.name}({items})"


# -- metric building blocks ---------------------------------------------------


def _sphere2_chart(tag: str) -> Chart:
    return Chart(
        f"{tag}-cylinder",
        ((-MERCATOR_CUTOFF, MERCATOR_CUTOFF), (0.0, 2.0 * math.pi)),
        (False, True),
        quad_hints=(AxisRule("gauss", 24), AxisRule("trapezoid", 4, fixed=True)),
    )


def _sphere2_metric(rho: float) -> Callable:
    def ev(x):
        s = 1.0 / np.cosh(x[0])
        return (rho * s) ** 2 * np.eye(2)

    return ev


def _sphere3_chart(tag: str) -> Chart:
    return Chart(
        f"{tag}-torus-angles",
        ((0.0, 0.5 * math.pi), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
        (False, True, True),
        quad_hints=(AxisRule("gauss", 16), AxisRule("trapezoid", 4, fixed=True),
                    AxisRule("trapezoid", 4, fixed=True)),
    )


def _sphere3_metric(rho: float) -> Callable:
    def ev(x):
        a = x[0]
        return rho**2 * np.diag([1.0, np.cos(a) ** 2, np.sin(a) ** 2])

    return ev


def _sphere4_chart(tag: str) -> Chart:
    return Chart(
        f"{tag}-polar-angles",
        ((0.0, math.pi), (0.0, math.pi), (0.0, math.pi), (0.0, 2.0 * math.pi)),
        (False, False, False, True),
        quad_hints=(AxisRule("gauss", 8), AxisRule("gauss", 8), AxisRule("gauss", 8),
                    AxisRule("trapezoid", 4, fixed=True)),
    )


def _sphere4_metric(rho: float) -> Callable:
    def ev(x):
        t1, t2, t3 = x[0], x[1], x[2]
        s1, s2, s3 = np.sin(t1), np.sin(t2), np.sin(t3)
        return rho**2 * np.diag([1.0, s1**2, (s1 * s2) ** 2, (s1 * s2 * s3) ** 2])

    return ev


def _circle_chart(tag: str) -> Chart:
    # every catalog integrand is rotation invariant along these circles,
    # so the trapezoid rule is exact and the node count stays fixed
    return Chart(f"{tag}-angle", ((0.0, 2.0 * math.pi),), (True,),
                 quad_hints=(AxisRule("trapezoid", 8, fixed=True),))


def _circle_metric(rho: float) -> Callable:
    return lambda x: np.array([[rho**2]])


_SPHERES = {
    1: (_circle_chart, _circle_metric),
    2: (_sphere2_chart, _sphere2_metric),
    3: (_sphere3_chart, _sphere3_metric),
    4: (_sphere4_chart, _sphere4_metric),
}


def _torus_chart(n: int, periods) -> Chart:
    return Chart(
        f"torus{n}",
        tuple((0.0, p) for p in periods),
        (True,) * n,
        quad_hints=tuple(AxisRule("trapezoid", 4, fixed=True) for _ in range(n)),
    )


def _link_data(link: str):
    """Chart, unit metric evaluator, and Lipschitz-Killing reference info."""
    if link == "s1":
        return _circle_chart("s1"), _circle_metric(1.0), 1
    if link == "s3":
        return _sphere3_chart("s3"), _sphere3_metric(1.0), 3
    if link == "t3":
        ch = _torus_chart(3, (2.0 * math.pi,) * 3)
        return ch, (lambda x: np.eye(3)), 3
    raise RegistryError(f"unsupported cone link {link!r}")


# -- builders ------------------------------------------------------------------


def _build_sphere(params):
    n = int(params.get("n", 2))
    rho = float(params.get("rho", 1.0))
    if n not in _SPHERES:
        raise RegistryError(f"sphere dimension {n} not in {sorted(_SPHERES)}")
    if rho <= 0:
        raise RegistryError("sphere radius must be positive")
    chart_fn, metric_fn = _SPHERES[n]
    chart = chart_fn(f"sphere{n}")
    mf = MetricField(chart, metric_fn(rho))
    return GeometrySpec(
        name="sphere", params={"n": n, "rho": rho},
        charts=((chart, mf),), chi_ref=2 if n % 2 == 0 else 0,
        family="closed",
    )


def _build_flat_torus(params):
    n = int(params.get("n", 2))
    if not (1 <= n <= 4):
        raise RegistryError("flat torus dimension must be 1..4")
    periods = params.get("periods", (2.0 * math.pi,) * n)
    if len(periods) != n or any(p <= 0 for p in periods):
        raise RegistryError("need one positive period per axis")
    chart = _torus_chart(n, periods)
    mf = MetricField(chart, lambda x: np.eye(n))
    return GeometrySpec(
        name="flat_torus", params={"n": n, "periods": tuple(float(p) for p in periods)},
        charts=((chart, mf),), chi_ref=0, family="closed",
    )


def _polar_disk_chart(k: int, rho: float) -> Chart:
    if k == 1:
        return Chart("disk2-polar", ((0.0, rho), (0.0, 2.0 * math.pi)), (False, True),
                     quad_hints=(AxisRule("gauss", 8), AxisRule("trapezoid", 4, fixed=True)))
    return Chart(
        "disk4-polar",
        ((0.0, rho), (0.0, 0.5 * math.pi), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
        (False, False, True, True),
        quad_hints=(AxisRule("gauss", 8), AxisRule("gauss", 8),
                    AxisRule("trapezoid", 4, fixed=True), AxisRule("trapezoid", 4, fixed=True)),
    )


def _build_disk(params):
    dim = int(params.get("dim", 2))
    rho = float(params.get("rho", 1.0))
    if dim not in (2, 4):
        raise RegistryError("disk dimension must be 2 or 4")
    if rho <= 0:
        raise RegistryError("disk radius must be positive")
    k = dim // 2
    link_chart, link_metric, _ = _link_data("s1" if dim == 2 else "s3")
    chart = _polar_disk_chart(k, rho)

    def ev(x):
        r = x[0]
        out = np.zeros((dim, dim))
        out[0, 0] = 1.0
        out[1:, 1:] = r**2 * link_metric(x[1:])
        return out

    mf = MetricField(chart, ev)
    collar = CollarMetric(
        boundary_chart=link_chart,
        r_interval=(0.0, 1.25 * rho),
        radial_metric=lambda r: (lambda y: r**2 * link_metric(y)),
        epsilon=+1, singular_end="upper",
    )
    return GeometrySpec(
        name="disk", params={"dim": dim, "rho": rho},
        charts=((chart, mf),), collar=collar, chi_ref=1, family="boundary",
    )


def _cone_collar(link: str, f_of_r: Callable, r_max: float = 1.25) -> CollarMetric:
    link_chart, link_metric, ldim = _link_data(link)

    def radial(r):
        s = f_of_r(r) ** 2
        return lambda y: s * link_metric(y)

    def cone_rate(r):
        # f(r)/r, continued through r = 0 by its limit f'(0)
        if r == 0.0:
            r = 1e-8
        return f_of_r(r) / r

    fib = FibrationData(
        base_dim=0, fiber_dim=ldim, base_chart=None, fiber_chart=link_chart,
        base_metric=None,
        fiber_metric=lambda r, y: cone_rate(r) ** 2 * link_metric(y),
        chi_base=1, chi_fiber=0 if ldim % 2 else 2,
    )
    return CollarMetric(
        boundary_chart=link_chart, r_interval=(0.0, r_max), radial_metric=radial,
        epsilon=-1, singular_end="lower", fibration=fib,
    )


def _build_cone(params):
    link = str(params.get("link", "s1"))
    profile = str(params.get("profile", "linear"))
    theta = float(params.get("theta", 1.0))
    a = float(params.get("a", 0.0))
    if profile == "linear":
        if not theta > 0:
            raise RegistryError(f"cone angle theta must be > 0, got {theta!r}")
        f = lambda r: theta * r
    elif profile == "second_order":
        f = lambda r: r * math.sqrt(1.0 + r**2)
    elif profile == "first_order":
        f = lambda r: r * (1.0 + a * r)
    else:
        raise RegistryError(f"unknown cone profile {profile!r}")
    collar = _cone_collar(link, f)
    link_chart, link_metric, ldim = _link_data(link)
    chart = Chart(
        f"cone-{link}", ((0.0, 1.0),) + link_chart.bounds,
        (False,) + link_chart.periodic,
        quad_hints=(AxisRule("gauss", 8),) + tuple(
            link_chart.quad_hints or (AxisRule("trapezoid", 8),) * link_chart.dim),
    )

    def ev(x):
        out = np.zeros((1 + ldim, 1 + ldim))
        out[0, 0] = 1.0
        out[1:, 1:] = f(x[0]) ** 2 * link_metric(x[1:])
        return out

    mf = MetricField(chart, ev)
    return GeometrySpec(
        name="cone", params={"link": link, "profile": profile, "theta": theta, "a": a},
        charts=((chart, mf),), collar=collar, chi_ref=1,
        chi_pieces={"completion": 1, "open": 0}, family="cone",
    )


def _build_geometric_cone(params):
    link = str(params.get("link", "s1"))
    theta = float(params.get("theta", 1.0))
    spec = _build_cone({"link": link, "profile": "linear", "theta": theta})
    return GeometrySpec(
        name="geometric_cone", params={"link": link, "theta": theta},
        charts=spec.charts, collar=spec.collar, chi_ref=1,
        chi_pieces=spec.chi_pieces, family="cone",
    )


def _build_football(params):
    p = int(params.get("p", 2))
    if p < 1:
        raise RegistryError("football order must be >= 1")
    base = _build_sphere({"n": 2, "rho": 1.0})
    return GeometrySpec(
        name="football", params={"p": p},
        charts=base.charts, symmetry_weight=Fraction(1, p), chi_ref=2,
        strata=(SingularStratum(chi=1, group_order=p), SingularStratum(chi=1, group_order=p)),
        family="orbifold",
        notes="round cover with rotation weight 1/p; two fixed points",
    )


def _build_lens_cone(params):
    order = int(params.get("order", 2))
    if order < 1:
        raise RegistryError("group order must be >= 1")
    base = _build_geometric_cone({"link": "s3", "theta": 1.0})
    return GeometrySpec(
        name="lens_cone", params={"order": order},
        charts=base.charts, collar=base.collar,
        symmetry_weight=Fraction(1, order), chi_ref=1, family="cone",
        notes="geometric cone over the round 3-sphere cover, weight 1/order",
    )


def _build_catenoid(params):
    cutoff = float(params.get("cutoff", CATENOID_CUTOFF))
    chart = Chart(
        "catenoid-conformal", ((-cutoff, cutoff), (0.0, 2.0 * math.pi)), (False, True),
        quad_hints=(AxisRule("gauss", 16), AxisRule("trapezoid", 4, fixed=True)),
    )

    def ev(x):
        c = np.cosh(x[0])
        return c**2 * np.eye(2)

    mf = MetricField(chart, ev)
    circle_chart, circle_metric, _ = _link_data("s1")
    r_hi = math.sinh(cutoff)
    collar = CollarMetric(
        boundary_chart=circle_chart, r_interval=(1.0, 4.0 * r_hi),
        radial_metric=lambda r: (lambda y: np.array([[1.0 + r**2]])),
        epsilon=+1, singular_end="infinity",
        fibration=FibrationData(
            base_dim=1, fiber_dim=0, base_chart=circle_chart, fiber_chart=None,
            base_metric=lambda y: np.array([[1.0]]), fiber_metric=None,
            chi_base=0, chi_fiber=1,
        ),
    )
    return GeometrySpec(
        name="catenoid", params={"cutoff": cutoff},
        charts=((chart, mf),), collar=collar, chi_ref=0,
        chi_pieces={"fiber": 1, "base": 0}, family="fibered", end_count=2,
        notes="two isometric ends; conformal coordinate r = sinh v",
    )


def _edge_cross_section(base: str, fiber: str):
    """Charts and metric evaluators for N = F x B, fiber coordinates first."""
    pieces = {
        "s1": (_circle_chart, _circle_metric, 1),
        "s2": (_sphere2_chart, _sphere2_metric, 2),
        "t3": (lambda tag: _torus_chart(3, (2.0 * math.pi,) * 3), lambda rho: (lambda x: np.eye(3)), 3),
    }
    if base not in pieces or fiber not in pieces:
        raise RegistryError("base/fiber must be one of s1, s2, t3")
    bch, bmet, bdim = pieces[base]
    fch, fmet, fdim = pieces[fiber]
    base_chart = bch(f"base-{base}")
    fiber_chart = fch(f"fiber-{fiber}")
    n_chart = Chart(
        f"N-{fiber}x{base}",
        fiber_chart.bounds + base_chart.bounds,
        fiber_chart.periodic + base_chart.periodic,
        quad_hints=(fiber_chart.quad_hints or ()) + (base_chart.quad_hints or ()),
    )
    return base_chart, bmet(1.0), bdim, fiber_chart, fmet(1.0), fdim, n_chart


_CHI = {"s1": 0, "s2": 2, "t3": 0}


def _build_edge_product(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    bch, bmet, bdim, fch, fmet, fdim, n_chart = _edge_cross_section(base, fiber)

    def radial(r):
        def ev(y):
            n = fdim + bdim
            out = np.zeros((n, n))
            out[:fdim, :fdim] = r**2 * fmet(y[:fdim])
            out[fdim:, fdim:] = bmet(y[fdim:])
            return out
        return ev

    fib = FibrationData(
        base_dim=bdim, fiber_dim=fdim, base_chart=bch, fiber_chart=fch,
        base_metric=bmet, fiber_metric=lambda r, y: fmet(y),
        chi_base=_CHI[base], chi_fiber=_CHI[fiber],
    )
    collar = CollarMetric(
        boundary_chart=n_chart, r_interval=(0.0, 1.0), radial_metric=radial,
        epsilon=-1, singular_end="lower", fibration=fib,
    )
    full_chart = Chart(
        f"edge-{fiber}x{base}", ((0.0, 1.0),) + n_chart.bounds,
        (False,) + n_chart.periodic,
        quad_hints=(AxisRule("gauss", 8),) + (n_chart.quad_hints or ()),
    )

    def ev_full(x):
        n = 1 + fdim + bdim
        out = np.zeros((n, n))
        out[0, 0] = 1.0
        out[1:, 1:] = radial(x[0])(x[1:])
        return out

    mf = MetricField(full_chart, ev_full)
    chi_ref = _CHI[base] * 1  # chi(B) x chi(cone over F)
    return GeometrySpec(
        name="edge_product", params={"base": base, "fiber": fiber},
        charts=((full_chart, mf),), collar=collar, fibration=fib,
        chi_ref=chi_ref, chi_pieces={"base": _CHI[base], "fiber": _CHI[fiber]},
        family="edge",
    )


def _build_edge_horizontal(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    beta = float(params.get("beta", 0.3))
    bch, bmet, bdim, fch, fmet, fdim, n_chart = _edge_cross_section(base, fiber)

    def radial(r):
        w = (1.0 + beta * r) ** 2

        def ev(y):
            n = fdim + bdim
            out = np.zeros((n, n))
            out[:fdim, :fdim] = r**2 * fmet(y[:fdim])
            out[fdim:, fdim:] = w * bmet(y[fdim:])
            return out
        return ev

    fib = FibrationData(
        base_dim=bdim, fiber_dim=fdim, base_chart=bch, fiber_chart=fch,
        base_metric=bmet, fiber_metric=lambda r, y: fmet(y),
        chi_base=_CHI[base], chi_fiber=_CHI[fiber],
    )
    collar = CollarMetric(
        boundary_chart=n_chart, r_interval=(0.0, 1.0), radial_metric=radial,
        epsilon=-1, singular_end="lower", fibration=fib,
    )
    return GeometrySpec(
        name="edge_horizontal", params={"base": base, "fiber": fiber, "beta": beta},
        charts=(), collar=collar, fibration=fib,
        chi_pieces={"base": _CHI[base], "fiber": _CHI[fiber]}, family="edge",
    )


def _build_fibered_product(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    r_lo = float(params.get("r_lo", 2.0))
    r_hi = float(params.get("r_hi", 200.0))
    bch, bmet, bdim, fch, fmet, fdim, n_chart = _edge_cross_section(base, fiber)

    def radial(r):
        def ev(y):
            n = fdim + bdim
            out = np.zeros((n, n))
            out[:fdim, :fdim] = fmet(y[:fdim])
            out[fdim:, fdim:] = r**2 * bmet(y[fdim:])
            return out
        return ev

    fib = FibrationData(
        base_dim=bdim, fiber_dim=fdim, base_chart=bch, fiber_chart=fch,
        base_metric=bmet, fiber_metric=lambda r, y: fmet(y),
        chi_base=_CHI[base], chi_fiber=_CHI[fiber],
    )
    collar = CollarMetric(
        boundary_chart=n_chart, r_interval=(r_lo, 4.0 * r_hi), radial_metric=radial,
        epsilon=+1, singular_end="infinity", fibration=fib,
    )
    return GeometrySpec(
        name="fibered_product", params={"base": base, "fiber": fiber},
        charts=(), collar=collar, fibration=fib,
        chi_pieces={"base": _CHI[base], "fiber": _CHI[fiber]}, family="fibered",
    )


def _build_cone_perturbed_second_order(params):
    spec = _build_cone({"link": "s1", "profile": "second_order"})
    return GeometrySpec(
        name="cone_perturbed_second_order", params={"link": "s1"},
        charts=spec.charts, collar=spec.collar, chi_ref=1,
        chi_pieces=spec.chi_pieces, family="cone",
        notes="fiber factor (1 + r^2) on the model flat cone",
    )


def _build_cone_perturbed_first_order(params):
    a = float(params.get("a", 0.3))
    spec = _build_cone({"link": "s1", "profile": "first_order", "a": a})
    return GeometrySpec(
        name="cone_perturbed_first_order", params={"a": a},
        charts=spec.charts, collar=spec.collar, chi_ref=1,
        chi_pieces=spec.chi_pieces, family="cone",
        notes="profile r (1 + a r); smooth vertex in the completed disk",
    )


def _build_surface_of_revolution(params):
    profile = str(params.get("profile", "cone"))
    if profile == "cone":
        theta = float(params.get("theta", 1.0))
        return _build_cone({"link": "s1", "profile": "linear", "theta": theta})
    if profile == "catenoid":
        return _build_catenoid(params)
    if profile == "first_order":
        return _build_cone_perturbed_first_order(params)
    if profile == "second_order":
        return _build_cone_perturbed_second_order(params)
    raise RegistryError(f"unknown revolution profile {profile!r}")


_BUILDERS = {
    "sphere": (_build_sphere, {"n": "int 1..4", "rho": "float > 0"}),
    "flat_torus": (_build_flat_torus, {"n": "int 1..4", "periods": "tuple of floats"}),
    "disk": (_build_disk, {"dim": "2 or 4", "rho": "float > 0"}),
    "cone": (_build_cone, {"link": "s1|s3|t3", "profile": "linear|first_order|second_order",
                           "theta": "float > 0", "a": "float"}),
    "geometric_cone": (_build_geometric_cone, {"link": "s1|s3|t3", "theta": "float > 0"}),
    "football": (_build_football, {"p": "int >= 1"}),
    "lens_cone": (_build_lens_cone, {"order": "int >= 1"}),
    "catenoid": (_build_catenoid, {"cutoff": "float > 0"}),
    "edge_product": (_build_edge_product, {"base": "s1|s2|t3", "fiber": "s1|s2|t3"}),
    "edge_horizontal": (_build_edge_horizontal, {"base": "s1|s2", "fiber": "s1", "beta": "float"}),
    "fibered_product": (_build_fibered_product, {"base": "s1|s2", "fiber": "s1|s2"}),
    "cone_perturbed_second_order": (_build_cone_perturbed_second_order, {}),
    "cone_perturbed_first_order": (_build_cone_perturbed_first_order, {"a": "float"}),
    "surface_of_revolution": (_build_surface_of_revolution,
                              {"profile": "cone|catenoid|first_order|second_order",
                               "theta": "float (cone)", "a": "float (first_order)",
                               "cutoff": "float (catenoid)"}),
}

_USER_ENTRIES: dict = {}


def _validated(builder_name: str, params: dict) -> dict:
    schema = _BUILDERS[builder_name][1]
    unknown = set(params) - set(schema)
    if unknown:
        raise RegistryError(
            f"unknown parameter(s) {sorted(unknown)} for {builder_name!r}; "
            f"valid keys: {sorted(schema)}")
    return params


def get(name: str, **params) -> GeometrySpec:
    """Construct a registered geometry with validated parameters."""
    if name in _USER_ENTRIES:
        builder_name, stored = _USER_ENTRIES[name]
        merged = dict(stored)
        merged.update(params)
        return _BUILDERS[builder_name][0](_validated(builder_name, merged))
    if name not in _BUILDERS:
        raise RegistryError(f"unknown geometry {name!r}")
    return _BUILDERS[name][0](_validated(name, params))


def list_geometries() -> list:
    """Deterministic registry listing with parameter schemas."""
    out = []
    for name in sorted(_BUILDERS):
        out.append({"name": name, "params": _BUILDERS[name][1]})
    for name in sorted(_USER_ENTRIES):
        builder_name, stored = _USER_ENTRIES[name]
        out.append({"name": name, "params": dict(stored), "builtin": builder_name})
    return out


def register_from_config(path) -> list:
    """Register user geometries from a JSON config file.

    Format: {"schema_version": 1, "geometries": [{"name": ..., "builtin":
    <registered builder>, "params": {...}}, ...]}.  Entries reference builtin
    metric expressions only; no user code is executed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise RegistryError(f"unsupported config schema_version {version!r}")
    added = []
    for entry in doc.get("geometries", []):
        name = entry["name"]
        builder = entry["builtin"]
        if builder not in _BUILDERS:
            raise RegistryError(f"config entry {name!r} references unknown builtin {builder!r}")
        if name in _BUILDERS:
            raise RegistryError(f"config entry {name!r} shadows a builtin")
        _USER_ENTRIES[name] = (builder, dict(entry.get("params", {})))
        added.append(name)
    return added
