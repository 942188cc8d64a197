"""Workloads of the gblab benchmark and the closed forms that check them.

A workload is a fixed list of verification instances, each pinned as
(check, geometry, params, level, tol).  Level and tolerance are always
passed to `verify.run_check` explicitly, so a change to `DEFAULT_SUITE` or
to the `run_check` defaults cannot change a workload silently.

Seed 0 gives the default-suite parameters.  Any other seed draws the free
parameters (s3 cone angles, football orders, lens orders, first-order cone
coefficient) from ranges on which every instance passes its tolerance, and
the closed forms are evaluated at the drawn values.  This module uses only
the standard library, so it can be imported before gblab.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PI = math.pi
TWO_PI = 2.0 * math.pi
PI2 = math.pi**2

WORKLOADS = ("interior", "slice_limits", "path_gauge")

# Seed ranges.  Each end was run at its instance's level and tolerance and
# passes with a wide margin (see README.md).
THETA_RANGE = (0.3, 1.2)
FOOTBALL_ORDERS = tuple(range(2, 13))
LENS_ORDERS = tuple(range(2, 13))
A_RANGE = (0.1, 0.5)

DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Instance:
    """One verification run: `verify.run_check(check, spec, level=, tol=)`."""

    check: str
    geometry: str
    params: tuple          # sorted (key, value) pairs
    level: int
    tol: float

    @property
    def kwargs(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.check} {self.geometry}{' ' + ps if ps else ''} L{self.level}"


def _inst(check, geometry, params, level, tol) -> Instance:
    return Instance(check, geometry, tuple(sorted(params.items())), level, tol)


@dataclass(frozen=True)
class Draw:
    """The free parameters of the workloads for one seed."""

    thetas: tuple      # two s3 cone angles
    footballs: tuple   # three football orders
    lens: tuple        # three distinct lens orders
    a: float           # first-order cone coefficient


def draw(seed: int) -> Draw:
    if seed == 0:
        return Draw(thetas=(0.5, 1.0), footballs=(2, 3, 5), lens=(2, 3, 4), a=0.3)
    rng = random.Random(seed)
    thetas = tuple(round(rng.uniform(*THETA_RANGE), 6) for _ in range(2))
    footballs = tuple(sorted(rng.sample(FOOTBALL_ORDERS, 3)))
    lens = tuple(sorted(rng.sample(LENS_ORDERS, 3)))
    a = round(rng.uniform(*A_RANGE), 6)
    return Draw(thetas=thetas, footballs=footballs, lens=lens, a=a)


def instances(workload: str, seed: int) -> list:
    """The instances of a workload, in run order."""
    d = draw(seed)
    s2s1 = {"base": "s2", "fiber": "s1"}
    if workload == "interior":
        return [
            _inst("ClosedGB", "sphere", {"n": 4}, 1, 1e-3),
            _inst("ClosedGB", "sphere", {"n": 2}, 3, 1e-6),
            _inst("ClosedGB", "flat_torus", {"n": 2}, 1, 1e-12),
            _inst("ClosedGB", "flat_torus", {"n": 4}, 1, 1e-12),
            *[_inst("OrbifoldGB", "football", {"p": p}, 5, 1e-9) for p in d.footballs],
            _inst("EdgeGB", "edge_product", s2s1, 2, 1e-3),
        ]
    if workload == "slice_limits":
        return [
            *[_inst("ConeGB", "geometric_cone", {"link": "s3", "theta": t}, 2, 1e-3)
              for t in d.thetas],
            *[_inst("LensObstruction", "lens_cone", {"order": o}, 2, 1e-4) for o in d.lens],
            _inst("EdgeLimit", "edge_product", s2s1, 2, 1e-3),
            _inst("FiberedGB", "catenoid", {}, 3, 1e-3),
            _inst("PerturbationStability", "cone_perturbed_second_order", {}, 3, 1e-3),
            _inst("FirstOrderConic", "cone_perturbed_first_order", {"a": d.a}, 3, 1e-3),
            _inst("PhiLimit", "edge_product", s2s1, 2, 1e-4),
            _inst("PhiLimit", "cone_perturbed_second_order", {}, 2, 1e-4),
        ]
    if workload == "path_gauge":
        return [
            _inst("TransgressionStokes", "flat_torus", {"n": 2}, 2, 1e-3),
            _inst("BoundaryGB", "disk", {"dim": 2}, 3, 1e-6),
            _inst("BoundaryGB", "disk", {"dim": 4}, 2, 1e-3),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- closed forms --------------------------------------------------------------

def euler_sphere(n: int) -> int:
    """chi(S^n) for even n."""
    return 2


def football_chi_part(p: int) -> float:
    """(2 pi)^-1 times the Pfaffian integral of the football S^2(p, p)."""
    return 2.0 / p


def cone_s3_transgression(theta: float) -> float:
    """Cone transgression over the round 3-sphere at inclination theta.

    theta^3 (-1) vol(S^3) + theta * 3 vol(S^3), with vol(S^3) = 2 pi^2.
    """
    return 6.0 * PI2 * theta - 2.0 * PI2 * theta**3


def lens_transgression(order: int) -> float:
    """Cone transgression of the flat cone over S^3 / Z_order: 4 pi^2 / order."""
    return 4.0 * PI2 / order


def edge_s2_s1() -> float:
    """Collapsing-fiber edge term of S^2 x S^1: (4 pi) * (-2 pi)."""
    return -8.0 * PI2


def disk_boundary(k: int) -> float:
    """Boundary integral of the flat 2k-disk: -(2 pi)^k."""
    return -(TWO_PI**k)


CATENOID_PF = -4.0 * PI          # total curvature of the catenoid
CATENOID_END = -2.0 * PI         # contribution of each planar end
FLAT_CONE_LIMIT = -2.0 * PI      # plus-convention slice limit of the flat plane
FIRST_ORDER_RHS = TWO_PI         # (2 pi) chi of the completed disk
STOKES_MAX_DELTA_PF = 0.5        # max |-Laplace u| for u = sin(x) cos(y) / 4


@dataclass(frozen=True)
class Quantity:
    """One computed value checked against its exact value."""

    name: str
    value: float
    exact: float
    tol: float
    kind: str      # "abs" or "rel" (relative to |exact|)

    @property
    def ok(self) -> bool:
        scale = abs(self.exact) if self.kind == "rel" else 1.0
        return abs(self.value - self.exact) <= self.tol * scale

    @property
    def digits(self) -> float:
        return accuracy_digits(self.value, self.exact)


def accuracy_digits(value: float, exact: float) -> float:
    """-log10(|value - exact| / max(|exact|, 1)), capped at DIGITS_CAP."""
    err = abs(value - exact) / max(abs(exact), 1.0)
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def quantities(inst: Instance, computed: dict) -> list:
    """The closed-form comparisons for one result.

    Raises KeyError when the result lacks a value the comparison needs.
    """
    c, p, tol = computed, inst.kwargs, inst.tol

    def q(name, exact, kind, value=None):
        return Quantity(name, float(c[name] if value is None else value), exact, tol, kind)

    if inst.check == "ClosedGB":
        if inst.geometry == "flat_torus":
            return [q("pf_integral", 0.0, "abs")]
        return [q("chi", euler_sphere(p["n"]), "abs")]
    if inst.check == "OrbifoldGB":
        return [q("pf_chi_part", football_chi_part(p["p"]), "abs"),
                q("t7_total", 2.0, "abs")]
    if inst.check == "EdgeGB":
        return [q("edge_term", edge_s2_s1(), "rel"),
                q("identity_rhs", TWO_PI**2 * euler_sphere(2), "rel")]
    if inst.check == "EdgeLimit":
        return [q("slice_limit_plus", edge_s2_s1(), "rel"),
                q("closed_value", edge_s2_s1(), "rel")]
    if inst.check == "ConeGB":
        exact = cone_s3_transgression(p["theta"])
        return [q("closed_form", exact, "rel"), q("slice_limit", exact, "rel")]
    if inst.check == "LensObstruction":
        return [q("cone_transgression", lens_transgression(p["order"]), "rel")]
    if inst.check == "FiberedGB":
        return [q("pf_integral", CATENOID_PF, "rel"),
                q("end_value", CATENOID_END, "rel"),
                q("slice_limit_plus", CATENOID_END, "rel")]
    if inst.check == "PerturbationStability":
        return [q("model_limit", FLAT_CONE_LIMIT, "abs"),
                q("perturbed_limit", FLAT_CONE_LIMIT, "abs")]
    if inst.check == "FirstOrderConic":
        return [q("identity_rhs", FIRST_ORDER_RHS, "rel")]
    if inst.check == "TransgressionStokes":
        rel_gap = float(c["max_pointwise_gap"]) / float(c["max_delta_pf"])
        return [q("max_delta_pf", STOKES_MAX_DELTA_PF, "rel"),
                q("rel_gap", 0.0, "abs", value=rel_gap)]
    if inst.check == "PhiLimit":
        return [q("max_entry_gap", 0.0, "abs")]
    if inst.check == "BoundaryGB":
        k = p["dim"] // 2
        return [q("chi", 1.0, "abs"),
                q("boundary_integral", disk_boundary(k), "rel"),
                q("two_route_rel_gap", 0.0, "abs")]
    raise KeyError(f"no closed form for {inst.check}")
