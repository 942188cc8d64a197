"""Built-in geometry registry.

Each entry packages metric fields, optional collar and fibration data, a
symmetry weight for quotients, and reference Euler characteristics.  Each
field carries its own chart and finite-difference stencil, set here per
geometry; the checks read them and never override them.
Every metric evaluator maps points of shape (..., d) to matrices of shape
(..., d, d) (a constant metric returns one (d, d) matrix, which broadcasts),
and every collar's radial_metric(r) accepts r as a number or as an array of
the points' batch shape.  Chart parametrizations are chosen so metric
evaluators stay smooth and nondegenerate on the closed quadrature box:

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

import dataclasses
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

    def __str__(self) -> str:
        # KeyError would quote the message; show it as plain text
        return Exception.__str__(self)


@dataclass(frozen=True)
class SingularStratum:
    """One connected component of an orbifold singular locus."""

    chi: int
    group_order: int


@dataclass(frozen=True)
class GeometrySpec:
    """A catalog geometry: metric fields, collar, cone profile, references."""

    name: str
    params: dict
    fields: tuple                     # (MetricField, ...), each on its own chart
    collar: Optional[CollarMetric] = None
    cone_profile: Optional[Callable] = None   # f of a cone collar dr^2 + f(r)^2 h
    symmetry_weight: Fraction = Fraction(1)
    chi_ref: Optional[int] = None
    chi_pieces: dict = field(default_factory=dict)
    strata: tuple = ()
    family: str = "closed"
    end_count: int = 1                # boundary/end multiplicity for collar terms
    notes: str = ""


# -- metric building blocks ---------------------------------------------------


def _diag(*entries) -> np.ndarray:
    """Diagonal matrices (..., n, n) from n broadcastable diagonal entries."""
    entries = np.broadcast_arrays(*entries)
    out = np.zeros(entries[0].shape + (len(entries),) * 2)
    for i, e in enumerate(entries):
        out[..., i, i] = e
    return out


def _scalar_factor(s) -> np.ndarray:
    """A number or a batch of numbers, shaped to scale (..., n, n) matrices."""
    return np.asarray(s, dtype=float)[..., None, None]


def _sphere2_chart(tag: str) -> Chart:
    return Chart(
        f"{tag}-cylinder",
        ((-MERCATOR_CUTOFF, MERCATOR_CUTOFF), (0.0, 2.0 * math.pi)),
        (False, True),
        quad_hints=(AxisRule("gauss", 24), AxisRule("trapezoid", 4, fixed=True)),
    )


def _sphere2_metric(rho: float) -> Callable:
    def ev(x):
        s = 1.0 / np.cosh(x[..., 0])
        return _scalar_factor((rho * s) ** 2) * np.eye(2)

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
        a = x[..., 0]
        return rho**2 * _diag(1.0, np.cos(a) ** 2, np.sin(a) ** 2)

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
        s1, s2, s3 = np.sin(x[..., 0]), np.sin(x[..., 1]), np.sin(x[..., 2])
        return rho**2 * _diag(1.0, s1**2, (s1 * s2) ** 2, (s1 * s2 * s3) ** 2)

    return ev


def _circle_chart(tag: str) -> Chart:
    # every catalog integrand is rotation invariant along these circles,
    # so the trapezoid rule is exact and the node count stays fixed
    return Chart(f"{tag}-angle", ((0.0, 2.0 * math.pi),), (True,),
                 quad_hints=(AxisRule("trapezoid", 8, fixed=True),))


def _circle_metric(rho: float) -> Callable:
    return lambda x: np.array([[rho**2]])


def _torus_chart(n: int, periods) -> Chart:
    return Chart(
        f"torus{n}",
        tuple((0.0, p) for p in periods),
        (True,) * n,
        quad_hints=tuple(AxisRule("trapezoid", 4, fixed=True) for _ in range(n)),
    )


# Factor manifolds of spheres, cone links and product collars:
# name -> (chart builder taking a name tag, metric builder taking a radius,
# dimension, Euler characteristic).
_FACTORS = {
    "s1": (_circle_chart, _circle_metric, 1, 0),
    "s2": (_sphere2_chart, _sphere2_metric, 2, 2),
    "s3": (_sphere3_chart, _sphere3_metric, 3, 0),
    "s4": (_sphere4_chart, _sphere4_metric, 4, 2),
    "t3": (lambda tag: _torus_chart(3, (2.0 * math.pi,) * 3),
           lambda rho: (lambda x: np.eye(3)), 3, 0),
}


def _factor(name: str, tag: str, rho: float = 1.0):
    """Chart, metric evaluator, dimension and Euler characteristic of a factor."""
    chart_fn, metric_fn, dim, chi = _FACTORS[name]
    return chart_fn(tag), metric_fn(rho), dim, chi


# -- builders ------------------------------------------------------------------


def _build_sphere(params):
    n = int(params.get("n", 2))
    rho = float(params.get("rho", 1.0))
    if not 1 <= n <= 4:
        raise RegistryError(f"sphere dimension {n} not in [1, 2, 3, 4]")
    if rho <= 0:
        raise RegistryError("sphere radius must be positive")
    chart, metric, _, chi = _factor(f"s{n}", f"sphere{n}", rho)
    return GeometrySpec(
        name="sphere", params={"n": n, "rho": rho},
        fields=(MetricField(chart, metric, fd_order=4 if n < 4 else 2),), chi_ref=chi,
        family="closed",
    )


def _build_flat_torus(params):
    n = int(params.get("n", 2))
    if not (1 <= n <= 4):
        raise RegistryError("flat torus dimension must be 1..4")
    periods = params.get("periods", (2.0 * math.pi,) * n)
    if len(periods) != n or any(p <= 0 for p in periods):
        raise RegistryError("need one positive period per axis")
    mf = MetricField(_torus_chart(n, periods), lambda x: np.eye(n))
    return GeometrySpec(
        name="flat_torus", params={"n": n, "periods": tuple(float(p) for p in periods)},
        fields=(mf,), chi_ref=0, family="closed",
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
    link = "s1" if dim == 2 else "s3"
    link_chart, link_metric, _, _ = _factor(link, link)
    chart = _polar_disk_chart(dim // 2, rho)
    collar = CollarMetric(
        boundary_chart=link_chart,
        r_interval=(0.0, 1.25 * rho),
        radial_metric=lambda r: (lambda y: _scalar_factor(r) ** 2 * link_metric(y)),
        singular_end="upper",
    )
    mf = MetricField(chart, collar.full_metric().evaluator)
    return GeometrySpec(
        name="disk", params={"dim": dim, "rho": rho},
        fields=(mf,), collar=collar, chi_ref=1, family="boundary",
    )


def _cone_collar(link: str, f_of_r: Callable) -> CollarMetric:
    link_chart, link_metric, _, chi = _factor(link, link)

    def radial(r):
        s = _scalar_factor(f_of_r(r) ** 2)
        return lambda y: s * link_metric(y)

    def cone_rate(r):
        # f(r)/r, continued through r = 0 by its limit f'(0)
        if r == 0.0:
            r = 1e-8
        return f_of_r(r) / r

    fib = FibrationData(
        base_chart=None, fiber_chart=link_chart,
        fiber_metric=lambda r, y: cone_rate(r) ** 2 * link_metric(y),
        chi_fiber=chi,
    )
    return CollarMetric(
        boundary_chart=link_chart, r_interval=(0.0, 1.25), radial_metric=radial,
        singular_end="lower", fibration=fib,
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
        f = lambda r: r * np.sqrt(1.0 + r**2)
    elif profile == "first_order":
        # the profile r (1 + a r) must stay positive on the collar (0, 1.25]
        if not 1.0 + 1.25 * a > 0:
            raise RegistryError(f"first-order cone needs 1 + 1.25 a > 0, got a={a!r}")
        f = lambda r: r * (1.0 + a * r)
    collar = _cone_collar(link, f)
    link_chart = collar.boundary_chart
    chart = Chart(
        f"cone-{link}", ((0.0, 1.0),) + link_chart.bounds,
        (False,) + link_chart.periodic,
        quad_hints=(AxisRule("gauss", 8),) + tuple(
            link_chart.quad_hints or (AxisRule("trapezoid", 8),) * link_chart.dim),
    )
    mf = MetricField(chart, collar.full_metric().evaluator)
    return GeometrySpec(
        name="cone", params={"link": link, "profile": profile, "theta": theta, "a": a},
        fields=(mf,), collar=collar, cone_profile=f, chi_ref=1,
        chi_pieces={"completion": 1, "open": 0}, family="cone",
    )


def _build_geometric_cone(params):
    link = str(params.get("link", "s1"))
    theta = float(params.get("theta", 1.0))
    return dataclasses.replace(
        _build_cone({"link": link, "profile": "linear", "theta": theta}),
        name="geometric_cone", params={"link": link, "theta": theta})


def _build_football(params):
    p = int(params.get("p", 2))
    if p < 1:
        raise RegistryError("football order must be >= 1")
    (round_field,) = _build_sphere({"n": 2, "rho": 1.0}).fields
    return GeometrySpec(
        name="football", params={"p": p},
        fields=(dataclasses.replace(round_field, fd_rel_step=5e-5),),
        symmetry_weight=Fraction(1, p), chi_ref=2,
        strata=(SingularStratum(chi=1, group_order=p), SingularStratum(chi=1, group_order=p)),
        family="orbifold",
        notes="round cover with rotation weight 1/p; two fixed points",
    )


def _build_lens_cone(params):
    order = int(params.get("order", 2))
    if order < 1:
        raise RegistryError("group order must be >= 1")
    return dataclasses.replace(
        _build_cone({"link": "s3", "theta": 1.0}), name="lens_cone", params={"order": order},
        symmetry_weight=Fraction(1, order), chi_pieces={},
        notes="geometric cone over the round 3-sphere cover, weight 1/order")


def _build_catenoid(params):
    cutoff = float(params.get("cutoff", CATENOID_CUTOFF))
    chart = Chart(
        "catenoid-conformal", ((-cutoff, cutoff), (0.0, 2.0 * math.pi)), (False, True),
        quad_hints=(AxisRule("gauss", 16), AxisRule("trapezoid", 4, fixed=True)),
    )

    def ev(x):
        c = np.cosh(x[..., 0])
        return _scalar_factor(c**2) * np.eye(2)

    mf = MetricField(chart, ev, fd_order=4)
    circle_chart = _circle_chart("s1")
    r_hi = math.sinh(cutoff)
    collar = CollarMetric(
        boundary_chart=circle_chart, r_interval=(1.0, 4.0 * r_hi),
        radial_metric=lambda r: (lambda y: _scalar_factor(1.0 + r**2)),
        singular_end="infinity",
        fibration=FibrationData(
            base_chart=circle_chart, fiber_chart=None,
            base_metric=lambda y: np.array([[1.0]]), chi_fiber=1,
        ),
    )
    return GeometrySpec(
        name="catenoid", params={"cutoff": cutoff},
        fields=(mf,), collar=collar, chi_ref=0,
        chi_pieces={"fiber": 1, "base": 0}, family="fibered", end_count=2,
        notes="two isometric ends; conformal coordinate r = sinh v",
    )


def _product_collar(base: str, fiber: str, fiber_scale: Callable, base_scale: Callable,
                    r_interval: tuple, singular_end: str) -> CollarMetric:
    """Collar over N = F x B, fiber coordinates first, with metric
    g(r) = fiber_scale(r) g_F + base_scale(r) g_B."""
    bch, bmet, bdim, _ = _factor(base, f"base-{base}")
    fch, fmet, fdim, chi_fiber = _factor(fiber, f"fiber-{fiber}")
    n_chart = Chart(
        f"N-{fiber}x{base}", fch.bounds + bch.bounds, fch.periodic + bch.periodic,
        quad_hints=(fch.quad_hints or ()) + (bch.quad_hints or ()),
    )
    n = fdim + bdim

    def radial(r):
        sf, sb = _scalar_factor(fiber_scale(r)), _scalar_factor(base_scale(r))

        def ev(y):
            out = np.zeros(np.broadcast_shapes(y.shape[:-1], np.shape(r)) + (n, n))
            out[..., :fdim, :fdim] = sf * fmet(y[..., :fdim])
            out[..., fdim:, fdim:] = sb * bmet(y[..., fdim:])
            return out
        return ev

    fib = FibrationData(
        base_chart=bch, fiber_chart=fch, base_metric=bmet, fiber_metric=lambda r, y: fmet(y),
        chi_fiber=chi_fiber,
    )
    return CollarMetric(
        boundary_chart=n_chart, r_interval=r_interval, radial_metric=radial,
        singular_end=singular_end, fibration=fib,
    )


def _build_edge_product(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    collar = _product_collar(base, fiber, lambda r: r**2, lambda r: 1.0,
                             (0.0, 1.0), "lower")
    n_chart = collar.boundary_chart
    full_chart = Chart(
        f"edge-{fiber}x{base}", ((0.0, 1.0),) + n_chart.bounds,
        (False,) + n_chart.periodic,
        quad_hints=(AxisRule("gauss", 8),) + (n_chart.quad_hints or ()),
    )
    mf = MetricField(full_chart, collar.full_metric().evaluator)
    return GeometrySpec(
        name="edge_product", params={"base": base, "fiber": fiber},
        fields=(mf,), collar=collar,
        chi_ref=_FACTORS[base][3],  # chi(B) x chi(cone over F)
        chi_pieces={"base": _FACTORS[base][3], "fiber": _FACTORS[fiber][3]}, family="edge",
    )


def _build_edge_horizontal(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    beta = float(params.get("beta", 0.3))
    # the base block (1 + beta r)^2 g_B must not vanish on the collar (0, 1)
    if not 1.0 + beta > 0:
        raise RegistryError(f"edge_horizontal needs 1 + beta > 0, got beta={beta!r}")
    collar = _product_collar(base, fiber, lambda r: r**2, lambda r: (1.0 + beta * r) ** 2,
                             (0.0, 1.0), "lower")
    return GeometrySpec(
        name="edge_horizontal", params={"base": base, "fiber": fiber, "beta": beta},
        fields=(), collar=collar,
        chi_pieces={"base": _FACTORS[base][3], "fiber": _FACTORS[fiber][3]}, family="edge",
    )


def _build_fibered_product(params):
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    collar = _product_collar(base, fiber, lambda r: 1.0, lambda r: r**2,
                             (2.0, 800.0), "infinity")
    return GeometrySpec(
        name="fibered_product", params={"base": base, "fiber": fiber},
        fields=(), collar=collar,
        chi_pieces={"base": _FACTORS[base][3], "fiber": _FACTORS[fiber][3]}, family="fibered",
    )


def _build_cone_perturbed_second_order(params):
    return dataclasses.replace(
        _build_cone({"link": "s1", "profile": "second_order"}),
        name="cone_perturbed_second_order", params={"link": "s1"},
        notes="fiber factor (1 + r^2) on the model flat cone")


def _build_cone_perturbed_first_order(params):
    a = float(params.get("a", 0.3))
    return dataclasses.replace(
        _build_cone({"link": "s1", "profile": "first_order", "a": a}),
        name="cone_perturbed_first_order", params={"a": a},
        notes="profile r (1 + a r); smooth vertex in the completed disk")


_BUILDERS = {
    "sphere": (_build_sphere, {"n": "int 1..4", "rho": "float > 0"}),
    "flat_torus": (_build_flat_torus, {"n": "int 1..4", "periods": "tuple of floats"}),
    "disk": (_build_disk, {"dim": "2 or 4", "rho": "float > 0"}),
    "cone": (_build_cone, {"link": "s1|s3|t3", "profile": "linear|first_order|second_order",
                           "theta": "float > 0", "a": "float, 1 + 1.25 a > 0 (first_order)"}),
    "geometric_cone": (_build_geometric_cone, {"link": "s1|s3|t3", "theta": "float > 0"}),
    "football": (_build_football, {"p": "int >= 1"}),
    "lens_cone": (_build_lens_cone, {"order": "int >= 1"}),
    "catenoid": (_build_catenoid, {"cutoff": "float > 0"}),
    "edge_product": (_build_edge_product, {"base": "s1|s2|t3", "fiber": "s1|s2|t3"}),
    "edge_horizontal": (_build_edge_horizontal, {"base": "s1|s2", "fiber": "s1",
                                                     "beta": "float > -1"}),
    "fibered_product": (_build_fibered_product, {"base": "s1|s2", "fiber": "s1|s2"}),
    "cone_perturbed_second_order": (_build_cone_perturbed_second_order, {}),
    "cone_perturbed_first_order": (_build_cone_perturbed_first_order,
                                   {"a": "float, 1 + 1.25 a > 0"}),
}

_USER_ENTRIES: dict = {}


def _validated(builder_name: str, params: dict) -> dict:
    schema = _BUILDERS[builder_name][1]
    unknown = set(params) - set(schema)
    if unknown:
        raise RegistryError(
            f"unknown parameter(s) {sorted(unknown)} for {builder_name!r}; "
            f"valid keys: {sorted(schema)}")
    for key, value in params.items():
        # a schema entry without spaces, "a" or "a|b|c", lists the only values accepted
        if " " not in schema[key] and str(value) not in schema[key].split("|"):
            raise RegistryError(f"{builder_name} {key} must be one of {schema[key]}, got {value!r}")
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
