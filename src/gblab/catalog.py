"""Built-in geometry registry.

Each entry packages metric fields, optional collar and fibration data (the
fiber and base metrics at r = 0 as fields), a cone's link h, a symmetry
weight for quotients, and reference Euler characteristics.  Each field
carries its own chart and finite-difference stencil, set here per geometry;
the checks read them, and only the PhiLimit reference re-stencils them.
Every metric evaluator maps points of shape (..., d) to matrices of shape
(..., d, d) (a constant metric returns one (d, d) matrix, which broadcasts),
every collar's radial_metric(r) takes r as a number or as an array that
broadcasts against the points' batch shape (a slice's radius schedule
rides on size-1 axes of the points), and every fibration's
fiber_metric(r, y) takes r as a number or an array of y's batch shape.  Chart
parametrizations are chosen so metric evaluators stay smooth and
nondegenerate on the closed quadrature box:

* 2-spheres use the conformal cylinder chart g = rho^2 sech^2(t) (dt^2+dphi^2);
  the missed polar caps carry area 4 pi rho^2 (1 - tanh T) ~ 1e-11 at T = 14.
* 3-spheres use torus-fibration angles g = rho^2 (da^2 + cos^2 a dphi1^2 +
  sin^2 a dphi2^2) on (0, pi/2) x T^2.
* the catenoid uses the conformal coordinate r = sinh v, where the metric
  becomes cosh^2 v (dv^2 + dtheta^2).

Every chart is _chart of its axes or _chart_product of charts, axes in
order.  An axis is (lo, hi, n): n is the Gauss node count at level 1, or
None for an angle, which is periodic and takes the orbit rule.  A factor
(a sphere, a cone's link, a product's base or fiber) is a MetricField at the
order-4 reference stencil.  A cone dr^2 + f(r)^2 h is given by its profile
u(r) = f(r)/r.  Every collar but the catenoid's is one _warped, the one
collar builder, over blocks (field, u, conic): (r u(r))^2 g when conic,
else u(r)^2 g.  A fibration's vertical block is its fiber block's
u_F(r)^2 g_F, so a cone's needs no limit at r = 0.  Block-diagonal metrics
(diagonals, products, collars) are one geometry._block_diag.

Quotient geometries are weighted covers: integrals run over the cover and
are multiplied by 1/|G|, valid because every integrand in this laboratory
is isometry invariant.

Each builder's schema string, printed by ``gblab list``, is the one
statement of a parameter's type and domain, and ``get`` enforces it:

* ``a|b|c``: one of the listed values;
* ``int lo..hi`` or ``int >= lo``: an integer (not a bool) in that range;
* ``float > lo``: a finite real number above lo;
* ``tuple of floats``: a tuple or list of finite real numbers;
* ``float, <rule>`` or ``tuple of floats, <rule>``: only the type is
  checked here; the builder checks the rule, which may involve other
  parameters.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .geometry import Chart, CollarMetric, FibrationData, MetricField, _block_diag
from .quadrature import AxisRule

__all__ = [
    "GeometrySpec",
    "SingularStratum",
    "RegistryError",
    "get",
    "list_geometries",
]

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
    """A catalog geometry: metric fields, collar, cone link, references."""

    name: str
    params: dict
    fields: tuple                     # (MetricField, ...), each on its own chart
    collar: Optional[CollarMetric] = None
    link: Optional[MetricField] = None   # h of a cone collar dr^2 + f(r)^2 h
    symmetry_weight: Fraction = Fraction(1)
    chi_ref: Optional[int] = None
    chi_pieces: dict = field(default_factory=dict)
    strata: tuple = ()
    family: str = "closed"
    end_count: int = 1                # boundary/end multiplicity for collar terms
    notes: str = ""


# -- metric building blocks ---------------------------------------------------


def _scalar_factor(s) -> np.ndarray:
    """A number or a batch of numbers, shaped to scale (..., n, n) matrices."""
    return np.asarray(s, dtype=float)[..., None, None]


def _diag(*entries) -> np.ndarray:
    """Diagonal matrices (..., n, n) from n broadcastable diagonal entries."""
    return _block_diag(*map(_scalar_factor, entries))


def _chart(name: str, *axes) -> Chart:
    """The chart of axes (lo, hi, n): n is the level-1 Gauss node count, or None for an angle.

    An angle is periodic and takes the orbit rule, one node per axis: it is
    exact because every density integrated on a catalog chart is invariant
    under rotation along its angles, and integrate_chart raises on one that
    is not.
    """
    counts = [n for *_, n in axes]
    return Chart(name, tuple((lo, hi) for lo, hi, _ in axes), tuple(n is None for n in counts),
                 quad_hints=tuple(AxisRule("orbit") if n is None else AxisRule("gauss", n)
                                  for n in counts))


def _chart_product(name: str, *charts: Chart) -> Chart:
    """The product box of charts, their axes (bounds, periodic flags, quadrature hints) in order."""
    return Chart(name, sum((c.bounds for c in charts), ()), sum((c.periodic for c in charts), ()),
                 quad_hints=sum((c.quad_hints for c in charts), ()))


# the axis of an angle, and the radial axis (0, 1) of the cone and edge interiors
_ANGLE = (0.0, 2.0 * math.pi, None)
_UNIT_AXIS = _chart("unit", (0.0, 1.0, 8))


def _sphere2_metric(rho: float) -> Callable:
    def ev(x):
        c = (rho * (1.0 / np.cosh(x[..., 0]))) ** 2
        return _diag(c, c)

    return ev


def _sphere3_metric(rho: float) -> Callable:
    def ev(x):
        a, r2 = x[..., 0], rho**2
        return _diag(r2, r2 * np.cos(a) ** 2, r2 * np.sin(a) ** 2)

    return ev


def _sphere4_metric(rho: float) -> Callable:
    def ev(x):
        s1, s2, s3 = np.sin(x[..., 0]), np.sin(x[..., 1]), np.sin(x[..., 2])
        r2 = rho**2
        return _diag(r2, r2 * s1**2, r2 * (s1 * s2) ** 2, r2 * (s1 * s2 * s3) ** 2)

    return ev


def _circle_metric(rho: float) -> Callable:
    return lambda x: np.array([[rho**2]])


# Factor manifolds of spheres, cone links and product collars:
# name -> (chart builder taking a name tag, metric builder taking a radius,
# Euler characteristic).
_FACTORS = {
    "s1": (lambda tag: _chart(f"{tag}-angle", _ANGLE), _circle_metric, 0),
    "s2": (lambda tag: _chart(f"{tag}-cylinder", (-MERCATOR_CUTOFF, MERCATOR_CUTOFF, 24), _ANGLE),
           _sphere2_metric, 2),
    "s3": (lambda tag: _chart(f"{tag}-torus-angles", (0.0, 0.5 * math.pi, 16), _ANGLE, _ANGLE),
           _sphere3_metric, 0),
    "s4": (lambda tag: _chart(f"{tag}-polar-angles", *[(0.0, math.pi, 8)] * 3, _ANGLE),
           _sphere4_metric, 2),
    "t3": (lambda tag: _chart("torus3", _ANGLE, _ANGLE, _ANGLE),
           lambda rho: (lambda x: np.eye(3)), 0),
}


def _factor(name: str, tag: str, rho: float = 1.0):
    """A factor's metric field, at the order-4 reference stencil, and its Euler characteristic."""
    chart_fn, metric_fn, chi = _FACTORS[name]
    return MetricField(chart_fn(tag), metric_fn(rho), fd_order=4), chi


def _one(r) -> float:
    """The profile u = 1."""
    return 1.0


def _warped(chart: Chart, r_interval: tuple, singular_end: str, blocks: list,
            chi_fiber: Optional[int] = None) -> CollarMetric:
    """The collar dr^2 + g(r) over chart, g(r) block-diagonal in blocks (field, u, conic).

    A block is (r u(r))^2 g when conic, else u(r)^2 g, with g the field's
    metric on its own axes of chart, in order; r u(r) is squared as an
    array, as the disk squared r, so a radius rounds alike as a number and
    in a schedule.  With chi_fiber the first block is the fiber of a
    fibration: its vertical block is u(r)^2 g at every r (a cone's vertex
    r = 0 included, with no division and no limit taken), its fiber field
    that block at r = 0, and a second block is the base.
    """
    ends = np.cumsum([0] + [mf.chart.dim for mf, _, _ in blocks])
    cuts = [(mf.evaluator, slice(lo, hi)) for (mf, _, _), lo, hi in zip(blocks, ends, ends[1:])]
    (fiber, u_f, _), *rest = blocks

    def radial(r):
        s = [_scalar_factor(r * u(r)) ** 2 if conic else _scalar_factor(u(r) ** 2)
             for _, u, conic in blocks]
        if len(blocks) == 1:
            (s0,), ev = s, fiber.evaluator
            return lambda y: s0 * ev(y)
        return lambda y: _block_diag(*(si * ev(y[..., cut]) for si, (ev, cut) in zip(s, cuts)))

    def vertical(r, y):
        return _scalar_factor(u_f(r) ** 2) * fiber.evaluator(y)

    fib = None if chi_fiber is None else FibrationData(
        base=rest[0][0] if rest else None, chi_fiber=chi_fiber, fiber_metric=vertical,
        fiber=dataclasses.replace(fiber, evaluator=partial(vertical, 0.0)))
    return CollarMetric(boundary_chart=chart, r_interval=r_interval, radial_metric=radial,
                        singular_end=singular_end, fibration=fib)


# -- builders ------------------------------------------------------------------


def _build_sphere(params):
    n = int(params.get("n", 2))
    rho = float(params.get("rho", 1.0))
    mf, chi = _factor(f"s{n}", f"sphere{n}", rho)
    return GeometrySpec(
        name="sphere", params={"n": n, "rho": rho},
        fields=(dataclasses.replace(mf, fd_order=2) if n == 4 else mf,), chi_ref=chi,
        family="closed",
    )


def _build_flat_torus(params):
    n = int(params.get("n", 2))
    periods = params.get("periods", (2.0 * math.pi,) * n)
    if len(periods) != n or any(p <= 0 for p in periods):
        raise RegistryError("need one positive period per axis")
    mf = MetricField(_chart(f"torus{n}", *((0.0, p, None) for p in periods)), lambda x: np.eye(n))
    return GeometrySpec(
        name="flat_torus", params={"n": n, "periods": tuple(float(p) for p in periods)},
        fields=(mf,), chi_ref=0, family="closed",
    )


def _build_disk(params):
    dim = int(params.get("dim", 2))
    rho = float(params.get("rho", 1.0))
    link = "s1" if dim == 2 else "s3"
    h, _ = _factor(link, link)
    chart = (_chart("disk2-polar", (0.0, rho, 8), _ANGLE) if dim == 2 else
             _chart("disk4-polar", (0.0, rho, 8), (0.0, 0.5 * math.pi, 8), _ANGLE, _ANGLE))
    collar = _warped(h.chart, (0.0, 1.25 * rho), "upper", [(h, _one, True)])
    mf = MetricField(chart, collar.full_metric().evaluator)
    return GeometrySpec(
        name="disk", params={"dim": dim, "rho": rho},
        fields=(mf,), collar=collar, chi_ref=1, family="boundary",
    )


def _build_cone(params):
    link = str(params.get("link", "s1"))
    profile = str(params.get("profile", "linear"))
    theta = float(params.get("theta", 1.0))
    a = float(params.get("a", 0.0))
    # theta scales only the linear profile and a shapes only the first-order one
    if not theta > 0:
        raise RegistryError(f"cone theta must be > 0, got theta={theta!r}")
    if theta != 1.0 and profile != "linear":
        raise RegistryError(f"cone theta must be 1 unless profile=linear, got theta={theta!r}")
    if a != 0.0 and profile != "first_order":
        raise RegistryError(f"cone a must be 0 unless profile=first_order, got a={a!r}")
    if profile == "linear":
        u = lambda r: np.full(np.shape(r), theta)
    elif profile == "second_order":
        u = lambda r: np.sqrt(1.0 + r**2)
    elif profile == "first_order":
        # the profile r (1 + a r) must stay positive on the collar (0, 1.25]
        if not 1.0 + 1.25 * a > 0:
            raise RegistryError(f"first-order cone needs 1 + 1.25 a > 0, got a={a!r}")
        u = lambda r: 1.0 + a * r
    h, chi = _factor(link, link)
    collar = _warped(h.chart, (0.0, 1.25), "lower", [(h, u, True)], chi)
    chart = _chart_product(f"cone-{link}", _UNIT_AXIS, h.chart)
    mf = MetricField(chart, collar.full_metric().evaluator)
    return GeometrySpec(
        name="cone", params={"link": link, "profile": profile, "theta": theta, "a": a},
        fields=(mf,), collar=collar, link=h, chi_ref=1,
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
    return dataclasses.replace(
        _build_cone({"link": "s3", "theta": 1.0}), name="lens_cone", params={"order": order},
        symmetry_weight=Fraction(1, order), chi_pieces={},
        notes="geometric cone over the round 3-sphere cover, weight 1/order")


def _build_catenoid(params):
    cutoff = float(params.get("cutoff", CATENOID_CUTOFF))

    def ev(x):
        c = np.cosh(x[..., 0]) ** 2
        return _diag(c, c)

    mf = MetricField(_chart("catenoid-conformal", (-cutoff, cutoff, 16), _ANGLE), ev, fd_order=4)
    circle, _ = _factor("s1", "s1")
    # the collar is the end past the interior, whatever its cutoff: its r -> infinity
    # slices sample r up to 80
    collar = CollarMetric(
        boundary_chart=circle.chart, r_interval=(1.0, 4.0 * math.sinh(CATENOID_CUTOFF)),
        radial_metric=lambda r: (lambda y: _scalar_factor(1.0 + r**2)),
        singular_end="infinity",
        fibration=FibrationData(base=circle, chi_fiber=1),
    )
    return GeometrySpec(
        name="catenoid", params={"cutoff": cutoff},
        fields=(mf,), collar=collar, chi_ref=0,
        chi_pieces={"fiber": 1, "base": 0}, family="fibered", end_count=2,
        notes="two isometric ends; conformal coordinate r = sinh v",
    )


def _product_spec(name: str, family: str, params, fiber_block: tuple, base_block: tuple,
                  r_interval: tuple, singular_end: str, **extra_params) -> GeometrySpec:
    """A spec with no fields over the collar N = F x B of params' fiber and
    base, fiber axes first: the _warped blocks (g_F, *fiber_block) and
    (g_B, *base_block), each block's rest a profile and a conic flag."""
    base = str(params.get("base", "s2"))
    fiber = str(params.get("fiber", "s1"))
    (b, chi_base), (f, chi_fiber) = _factor(base, f"base-{base}"), _factor(fiber, f"fiber-{fiber}")
    collar = _warped(_chart_product(f"N-{fiber}x{base}", f.chart, b.chart), r_interval,
                     singular_end, [(f, *fiber_block), (b, *base_block)], chi_fiber)
    return GeometrySpec(
        name=name, params={"base": base, "fiber": fiber, **extra_params}, fields=(), collar=collar,
        chi_pieces={"base": chi_base, "fiber": chi_fiber}, family=family,
    )


def _build_edge_product(params):
    spec = _product_spec("edge_product", "edge", params, (_one, True), (_one, False),
                         (0.0, 1.0), "lower")
    base, fiber = spec.params["base"], spec.params["fiber"]
    chart = _chart_product(f"edge-{fiber}x{base}", _UNIT_AXIS, spec.collar.boundary_chart)
    return dataclasses.replace(
        spec, fields=(MetricField(chart, spec.collar.full_metric().evaluator),),
        # chi(B) x chi(cone over F), and the cone closes to a ball only over a sphere
        chi_ref=spec.chi_pieces["base"] if fiber.startswith("s") else None)


def _build_edge_horizontal(params):
    beta = float(params.get("beta", 0.3))
    # the base block (1 + beta r)^2 g_B must not vanish on the collar (0, 1)
    if not 1.0 + beta > 0:
        raise RegistryError(f"edge_horizontal needs 1 + beta > 0, got beta={beta!r}")
    return _product_spec("edge_horizontal", "edge", params, (_one, True),
                         (lambda r: 1.0 + beta * r, False), (0.0, 1.0), "lower", beta=beta)


def _build_fibered_product(params):
    return _product_spec("fibered_product", "fibered", params, (_one, False), (_one, True),
                         (2.0, 800.0), "infinity")


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
    "flat_torus": (_build_flat_torus, {"n": "int 1..4",
                                       "periods": "tuple of floats, one > 0 per axis"}),
    "disk": (_build_disk, {"dim": "2|4", "rho": "float > 0"}),
    "cone": (_build_cone, {"link": "s1|s3|t3", "profile": "linear|first_order|second_order",
                           "theta": "float, > 0, and 1 unless profile=linear",
                           "a": "float, 0 unless profile=first_order, where 1 + 1.25 a > 0"}),
    "geometric_cone": (_build_geometric_cone, {"link": "s1|s3|t3", "theta": "float > 0"}),
    "football": (_build_football, {"p": "int >= 1"}),
    "lens_cone": (_build_lens_cone, {"order": "int >= 1"}),
    "catenoid": (_build_catenoid, {"cutoff": "float > 0"}),
    "edge_product": (_build_edge_product, {"base": "s1|s2|t3", "fiber": "s1|s2|t3"}),
    "edge_horizontal": (_build_edge_horizontal, {"base": "s1|s2", "fiber": "s1",
                                                     "beta": "float, 1 + beta > 0"}),
    "fibered_product": (_build_fibered_product, {"base": "s1|s2", "fiber": "s1|s2"}),
    "cone_perturbed_second_order": (_build_cone_perturbed_second_order, {"link": "s1"}),
    "cone_perturbed_first_order": (_build_cone_perturbed_first_order,
                                   {"a": "float, 1 + 1.25 a > 0"}),
}


def _is_float(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _in_domain(schema: str, value) -> bool:
    """Whether value lies in the domain a schema string states (see the module docstring)."""
    kind, _, bound = schema.split(",")[0].partition(" ")
    if kind == "int":
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            return False
        lo, _, hi = bound.removeprefix(">= ").partition("..")
        return int(lo) <= value and (not hi or value <= int(hi))
    if kind == "float":
        return _is_float(value) and (not bound or value > float(bound.removeprefix("> ")))
    if kind == "tuple":
        return isinstance(value, (tuple, list)) and all(map(_is_float, value))
    return str(value) in kind.split("|")


def get(name: str, **params) -> GeometrySpec:
    """Construct a catalog geometry from parameters that its schema admits."""
    if name not in _BUILDERS:
        raise RegistryError(f"unknown geometry {name!r}")
    builder, schema = _BUILDERS[name]
    unknown = set(params) - set(schema)
    if unknown:
        raise RegistryError(f"unknown parameter(s) {sorted(unknown)} for {name!r}; "
                            f"valid keys: {sorted(schema)}")
    for key, value in params.items():
        if not _in_domain(schema[key], value):
            domain = schema[key] if " " in schema[key] else f"one of {schema[key]}"
            raise RegistryError(f"{name} {key} must be {domain}, got {value!r}")
    return builder(params)


def list_geometries() -> list:
    """Deterministic catalog listing with parameter schemas."""
    return [{"name": name, "params": dict(schema)}
            for name, (_, schema) in sorted(_BUILDERS.items())]
