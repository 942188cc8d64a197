"""Geometry registry: construction, invariants, weighting, parameter schemas."""

import math

import numpy as np
import pytest

from gblab import catalog, verify
from gblab.geometry import Chart, _collar_radii
from gblab.quadrature import AxisRule, integrate_chart, mesh_for_chart


def _volume(spec, level=2):
    total = 0.0
    for mf in spec.fields:
        mesh = mesh_for_chart(mf.chart, level)
        total += integrate_chart(lambda x: np.sqrt(np.linalg.det(mf.g(x))),
                                 mf.chart, mesh)
    return float(spec.symmetry_weight) * total


def test_registry_listing():
    listing = catalog.list_geometries()
    names = [e["name"] for e in listing]
    assert len(names) >= 12
    assert "catenoid" in names
    assert "lens_cone" in names
    assert names == sorted(names)


def test_reference_data():
    assert catalog.get("sphere", n=2).chi_ref == 2
    assert catalog.get("sphere", n=3).chi_ref == 0
    assert catalog.get("football", p=3).symmetry_weight == catalog.Fraction(1, 3)
    assert catalog.get("football", p=3).chi_ref == 2
    assert catalog.get("disk", dim=4).chi_ref == 1
    assert catalog.get("edge_product", base="s2", fiber="s1").chi_ref == 2
    assert catalog.get("catenoid").chi_ref == 0
    assert catalog.get("catenoid").end_count == 2


def test_unknown_names_and_params():
    with pytest.raises(catalog.RegistryError):
        catalog.get("moebius")
    with pytest.raises(catalog.RegistryError):
        catalog.get("sphere", n=7)
    with pytest.raises(catalog.RegistryError):
        catalog.get("disk", dim=3)
    with pytest.raises(catalog.RegistryError):
        catalog.get("cone", profile="cubic")
    with pytest.raises(catalog.RegistryError):
        catalog.get("sphere", n=2, radius=1.0)  # key is rho


_FACTOR_KEYS = [(name, key) for name, (_, schema) in sorted(catalog._BUILDERS.items())
                for key in ("link", "base", "fiber") if key in schema]


@pytest.mark.parametrize("factor", ["s1", "s2", "s3", "t3"])
@pytest.mark.parametrize("name,key", _FACTOR_KEYS)
def test_schema_owns_the_factor_names(name, key, factor):
    # get accepts a factor name exactly when the builder's schema lists it
    if factor in catalog._BUILDERS[name][1][key].split("|"):
        assert catalog.get(name, **{key: factor}).params[key] == factor
    else:
        with pytest.raises(catalog.RegistryError, match=f"{name} {key} must be one of"):
            catalog.get(name, **{key: factor})


@pytest.mark.parametrize("name,params,vol", [
    ("sphere", {"n": 1}, 2 * math.pi),
    ("sphere", {"n": 2}, 4 * math.pi),
    ("sphere", {"n": 2, "rho": 2.0}, 16 * math.pi),
    ("sphere", {"n": 3}, 2 * math.pi**2),
    ("flat_torus", {"n": 2}, (2 * math.pi) ** 2),
])
def test_volumes(name, params, vol):
    spec = catalog.get(name, **params)
    assert _volume(spec, level=3) == pytest.approx(vol, rel=1e-6)


def test_sphere4_volume():
    spec = catalog.get("sphere", n=4)
    assert _volume(spec, level=1) == pytest.approx(8 * math.pi**2 / 3, rel=1e-5)


def test_metrics_spd_on_random_interior_points():
    rng = np.random.default_rng(77)
    for entry in catalog.list_geometries():
        spec = catalog.get(entry["name"])
        for mf in spec.fields:
            for x in mf.chart.interior(rng.random((1000, mf.chart.dim)), shrink=0.02):
                g = mf.g(x)
                assert np.all(np.linalg.eigvalsh(g) > 0), entry["name"]


def test_collar_radial_smoothness():
    # bounded second radial derivative on the sampled stencil
    for name, params in [("disk", {"dim": 2}), ("geometric_cone", {"link": "s1"}),
                         ("cone_perturbed_second_order", {}), ("catenoid", {}),
                         ("edge_product", {"base": "s2", "fiber": "s1"})]:
        spec = catalog.get(name, **params)
        collar = spec.collar
        lo, hi = collar.r_interval
        y = np.array([0.5] * collar.boundary_chart.dim)
        for frac in (0.3, 0.5, 0.7):
            r = lo + frac * min(hi - lo, 2.0)
            h = 1e-3 * max(r, 1e-2)
            gpp = (collar.radial_metric(r + h)(y) - 2 * collar.radial_metric(r)(y)
                   + collar.radial_metric(r - h)(y)) / h**2
            assert np.all(np.isfinite(gpp))
            assert np.max(np.abs(gpp)) < 1e3


def test_quotient_weighting_volume_and_pfaffian():
    from gblab.verify import pf_integral

    cover = catalog.get("sphere", n=2)
    for p in (2, 3, 5):
        quot = catalog.get("football", p=p)
        assert _volume(quot, level=3) == pytest.approx(_volume(cover, level=3) / p,
                                                       abs=1e-8)
        assert pf_integral(quot, 3) == pytest.approx(pf_integral(cover, 3) / p,
                                                     abs=1e-8)


def test_catenoid_metric_matches_revolution_form():
    (mf,) = catalog.get("catenoid").fields
    v = 0.8
    g = mf.g(np.array([v, 1.0]))
    r = math.sinh(v)
    # conformal form cosh^2 v (dv^2 + dtheta^2) carries the same area density
    # as dr^2 + (1 + r^2) dtheta^2 under r = sinh v
    assert g[0, 0] == pytest.approx(1.0 + r**2)
    assert g[1, 1] == pytest.approx(1.0 + r**2)


@pytest.mark.parametrize("name,theta", [
    ("cone", -0.5), ("cone", 0.0), ("geometric_cone", -0.5), ("geometric_cone", 0.0),
])
def test_cone_angle_must_be_positive(name, theta):
    with pytest.raises(catalog.RegistryError, match="theta"):
        catalog.get(name, theta=theta)


@pytest.mark.parametrize("name,params", [
    ("cone", {"profile": "first_order", "a": -1.0}),
    ("cone", {"profile": "first_order", "a": float("nan")}),
    ("cone_perturbed_first_order", {"a": -2.0}),
    ("cone_perturbed_first_order", {"a": -1.0}),
    ("cone_perturbed_first_order", {"a": -0.8}),
    ("cone_perturbed_first_order", {"a": float("nan")}),
])
def test_first_order_profile_must_stay_positive(name, params):
    # r (1 + a r) vanishes at r = -1/a, inside the collar (0, 1.25] for a <= -0.8
    with pytest.raises(catalog.RegistryError, match="1 \\+ 1.25 a > 0"):
        catalog.get(name, **params)


@pytest.mark.parametrize("params,key", [
    ({"profile": "first_order", "a": 0.3, "theta": 0.5}, "theta"),
    ({"profile": "second_order", "theta": 2.0}, "theta"),
    ({"profile": "linear", "a": -5.0}, "a"),
    ({"profile": "second_order", "a": 0.1}, "a"),
])
def test_cone_rejects_parameters_its_profile_ignores(params, key):
    # theta scales only the linear profile and a shapes only the first-order
    # one; accepting them elsewhere would record a closed form the collar lacks
    with pytest.raises(catalog.RegistryError, match=f"^cone {key} must be "):
        catalog.get("cone", **params)


@pytest.mark.parametrize("beta", [-3.0, -1.0, float("nan")])
def test_horizontal_base_factor_must_stay_positive(beta):
    # (1 + beta r)^2 vanishes at r = -1/beta, inside the collar (0, 1] for beta <= -1
    with pytest.raises(catalog.RegistryError, match="1 \\+ beta > 0"):
        catalog.get("edge_horizontal", beta=beta)


def test_valid_profiles_are_accepted():
    for a in (0.1, 0.3, 0.5, -0.79):
        catalog.get("cone_perturbed_first_order", a=a)
    catalog.get("cone", profile="first_order", a=-0.4)
    catalog.get("cone", profile="linear", theta=0.5, a=0.0)
    catalog.get("cone", profile="second_order", theta=1.0)
    for beta in (0.3, 0.0, -0.99):
        catalog.get("edge_horizontal", beta=beta)


@pytest.mark.parametrize("base,fiber", [("s2", "s1"), ("s1", "s1")])
def test_horizontal_edge_without_variation_is_the_product_edge(base, fiber):
    flat = catalog.get("edge_horizontal", base=base, fiber=fiber, beta=0.0).collar
    plain = catalog.get("edge_product", base=base, fiber=fiber).collar
    assert flat.r_interval == plain.r_interval
    rng = np.random.default_rng(5)
    for y in plain.boundary_chart.interior(rng.random((4, plain.boundary_chart.dim))):
        for r in (0.0, 1e-3, 0.37, 1.0):
            assert flat.radial_metric(r)(y).tobytes() == plain.radial_metric(r)(y).tobytes()


@pytest.mark.parametrize("name,key,value", [
    ("sphere", "n", 2.5), ("sphere", "n", True), ("sphere", "rho", float("nan")),
    ("lens_cone", "order", 2.7), ("football", "p", 2.5), ("disk", "dim", 2.5),
    ("catenoid", "cutoff", 0.0), ("catenoid", "cutoff", -1.0),
    ("catenoid", "cutoff", float("nan")),
])
def test_schema_rejects_values_outside_its_domain(name, key, value):
    with pytest.raises(catalog.RegistryError, match=f"^{name} {key} must be "):
        catalog.get(name, **{key: value})


@pytest.mark.parametrize("name", sorted(catalog._BUILDERS))
def test_each_builders_own_values_lie_in_its_schema(name):
    # every schema string is readable, and every value a builder records is
    # under a key of its schema and satisfies it
    schema = catalog._BUILDERS[name][1]
    for key, value in catalog.get(name).params.items():
        assert key in schema and catalog._in_domain(schema[key], value), key


@pytest.mark.parametrize("name,params,stencil", [
    ("sphere", {"n": 1}, (4, 1e-4)), ("sphere", {"n": 2}, (4, 1e-4)),
    ("sphere", {"n": 3}, (4, 1e-4)), ("sphere", {"n": 4}, (2, 1e-4)),
    ("football", {"p": 3}, (4, 5e-5)), ("catenoid", {}, (4, 1e-4)),
    ("flat_torus", {"n": 2}, (2, 1e-4)), ("disk", {"dim": 4}, (2, 1e-4)),
    ("geometric_cone", {"link": "s3"}, (2, 1e-4)), ("edge_product", {}, (2, 1e-4)),
])
def test_each_field_carries_its_stencil(name, params, stencil):
    (mf,) = catalog.get(name, **params).fields
    assert (mf.fd_order, mf.fd_rel_step) == stencil


@pytest.mark.parametrize("name,params,roles", [
    ("edge_product", {}, {"base", "fiber"}), ("fibered_product", {}, {"base", "fiber"}),
    ("catenoid", {}, {"base"}), ("geometric_cone", {"link": "s3"}, {"fiber", "link"}),
    ("lens_cone", {}, {"fiber", "link"}),
])
def test_each_reference_field_carries_its_stencil(name, params, roles):
    # the factor metrics the closed forms integrate take order 4, step 1e-4
    spec = catalog.get(name, **params)
    fib = spec.collar.fibration
    fields = {"base": fib.base, "fiber": fib.fiber, "link": spec.link}
    assert {role for role, mf in fields.items() if mf is not None} == roles
    for role in roles:
        assert (fields[role].fd_order, fields[role].fd_rel_step) == (4, 1e-4), role


def test_product_charts_keep_their_axes_in_order():
    # the cone, edge and N = F x B charts, as the catalog spelled them out axis by axis
    gauss, orbit, tau = (lambda n: AxisRule("gauss", n)), AxisRule("orbit"), 2.0 * math.pi
    cone = catalog.get("geometric_cone", link="s3")
    assert cone.fields[0].chart == Chart(
        "cone-s3", ((0.0, 1.0), (0.0, 0.5 * math.pi), (0.0, tau), (0.0, tau)),
        (False, False, True, True), quad_hints=(gauss(8), gauss(16), orbit, orbit))
    edge = catalog.get("edge_product")
    n_axes = ((0.0, tau), (-catalog.MERCATOR_CUTOFF, catalog.MERCATOR_CUTOFF), (0.0, tau))
    assert edge.collar.boundary_chart == Chart(
        "N-s1xs2", n_axes, (True, False, True), quad_hints=(orbit, gauss(24), orbit))
    assert edge.fields[0].chart == Chart(
        "edge-s1xs2", ((0.0, 1.0),) + n_axes, (False, True, False, True),
        quad_hints=(gauss(8), orbit, gauss(24), orbit))
    # and the charts of the disks, the catenoid, the 4-sphere and the 3-torus
    assert catalog.get("disk").fields[0].chart == Chart(
        "disk2-polar", ((0.0, 1.0), (0.0, tau)), (False, True), quad_hints=(gauss(8), orbit))
    assert catalog.get("disk", dim=4, rho=0.5).fields[0].chart == Chart(
        "disk4-polar", ((0.0, 0.5), (0.0, 0.5 * math.pi), (0.0, tau), (0.0, tau)),
        (False, False, True, True), quad_hints=(gauss(8), gauss(8), orbit, orbit))
    assert catalog.get("catenoid").fields[0].chart == Chart(
        "catenoid-conformal", ((-catalog.CATENOID_CUTOFF, catalog.CATENOID_CUTOFF), (0.0, tau)),
        (False, True), quad_hints=(gauss(16), orbit))
    assert catalog.get("sphere", n=4).fields[0].chart == Chart(
        "sphere4-polar-angles", ((0.0, math.pi),) * 3 + ((0.0, tau),),
        (False, False, False, True), quad_hints=(gauss(8),) * 3 + (orbit,))
    torus3 = Chart("torus3", ((0.0, tau),) * 3, (True,) * 3, quad_hints=(orbit,) * 3)
    assert catalog.get("cone", link="t3").link.chart == torus3
    assert catalog.get("flat_torus", n=3).fields[0].chart == torus3


@pytest.mark.parametrize("params,u0", [
    ({"profile": "linear", "theta": 0.7}, 0.7),
    ({"profile": "second_order"}, 1.0),
    ({"profile": "first_order", "a": 0.3}, 1.0),
])
def test_cone_vertical_block_at_the_vertex_is_the_profile_u_squared_times_h(params, u0):
    # the fibration's vertical block is u(r)^2 h with u(r) = f(r)/r, so at r = 0
    # it is u(0)^2 h exactly, with no limit taken
    spec = catalog.get("cone", link="s3", **params)
    fib = spec.collar.fibration
    y = spec.link.chart.interior(np.random.default_rng(4).random((4, spec.link.chart.dim)))
    h = spec.link.evaluator(y)
    assert np.array_equal(fib.fiber_metric(0.0, y), u0**2 * h)
    assert np.array_equal(fib.fiber_metric(np.zeros(len(y)), y), u0**2 * h)
    assert np.array_equal(fib.fiber.evaluator(y), u0**2 * h)


# every collar built from factors, with the profiles the catalog spelled out
# when the disk, the cone and the product ends built their own collars:
# (geometry, params, fiber or link, its form, base and s_B or None); the form
# is the disk's s(r) in s(r)^2 h, the cone's profile u in (r u(r))^2 h and
# u(r)^2 h, or the product's s_F in s_F(r) g_F + s_B(r) g_B
_HAND_BUILT = [
    ("disk", {"dim": 2}, "s1", ("disk", lambda r: r), None),
    ("disk", {"dim": 4}, "s3", ("disk", lambda r: r), None),
    *(("cone", {"link": link, **params}, link, ("cone", u), None) for link in ("s1", "s3", "t3")
      for params, u in (({"profile": "linear", "theta": 0.7}, lambda r: np.full(np.shape(r), 0.7)),
                        ({"profile": "second_order"}, lambda r: np.sqrt(1.0 + r**2)),
                        ({"profile": "first_order", "a": 0.3}, lambda r: 1.0 + 0.3 * r))),
    ("edge_product", {}, "s1", ("product", lambda r: r**2), ("s2", lambda r: 1.0)),
    ("edge_horizontal", {"beta": 0.3}, "s1", ("product", lambda r: r**2),
     ("s2", lambda r: (1.0 + 0.3 * r) ** 2)),
    ("fibered_product", {}, "s1", ("product", lambda r: 1.0), ("s2", lambda r: r**2)),
]


@pytest.mark.parametrize("name,params,fiber,form,base", _HAND_BUILT)
def test_collars_keep_the_bits_of_their_hand_built_forms(name, params, fiber, form, base):
    # the radial metric at a number and on a schedule, the full metric, the
    # vertical block and the fibration's fields, each against its hand-built form
    # (a conic block now squares r u(r) as an array; the cone and product forms
    # squared a number r with **, which rounds unlike x * x for about 1 radius
    # in 1,000, none of these)
    spec = catalog.get(name, **params)
    collar, fib = spec.collar, spec.collar.fibration
    sf, (kind, s) = catalog._scalar_factor, form
    fiber_field = catalog._factor(fiber, "f")[0]
    g_f, f = fiber_field.evaluator, fiber_field.chart.dim
    g_b = base and catalog._factor(base[0], "b")[0].evaluator

    def radial(r, y):
        if kind == "disk":
            return sf(s(r)) ** 2 * g_f(y)
        if kind == "cone":
            return sf((r * s(r)) ** 2) * g_f(y)
        return catalog._block_diag(sf(s(r)) * g_f(y[..., :f]), sf(base[1](r)) * g_b(y[..., f:]))

    def vertical(r, y):
        return sf(s(r) ** 2) * g_f(y) if kind == "cone" else g_f(y)

    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    lo, hi = collar.r_interval
    rs = lo + (hi - lo) * np.array([0.13, 0.41, 0.77])
    chart = collar.boundary_chart
    y = chart.interior(np.random.default_rng(9).random((5, chart.dim)))
    r_axis, y_axis = _collar_radii(rs, y)
    same(collar.radial_metric(float(rs[1]))(y), radial(float(rs[1]), y))
    same(collar.radial_metric(r_axis)(y_axis), radial(r_axis, y_axis))
    x = np.concatenate((rs[[0, 1, 2, 1, 0]][:, None], y), axis=-1)
    same(collar.full_metric().evaluator(x),
         catalog._block_diag(np.ones((5, 1, 1)), radial(x[:, 0], y)))
    if kind == "disk":
        assert fib is None
        return
    yf = y[:, :f]
    same(fib.fiber_metric(float(rs[1]), yf), vertical(float(rs[1]), yf))
    same(fib.fiber_metric(rs[[0, 1, 2, 1, 0]], yf), vertical(rs[[0, 1, 2, 1, 0]], yf))
    same(fib.fiber.evaluator(yf), vertical(0.0, yf))
    if base:
        same(fib.base.evaluator(y[:, f:]), g_b(y[:, f:]))
    else:
        assert fib.base is None


def _stokes_endpoint(monkeypatch):
    """TransgressionStokes's g1 evaluator, caught where the check hands it to the gauge."""

    class Caught(Exception):
        pass

    def catch(g0, g1, x):
        raise Caught(g1.evaluator)

    monkeypatch.setattr(verify, "metric_path_gauge", catch)
    with pytest.raises(Caught) as caught:
        verify.check_transgression_stokes(catalog.get("flat_torus", n=2), 2, 1e-3)
    return caught.value.args[0]


def test_diagonal_evaluators_keep_the_bits_of_their_scaled_identity_forms(monkeypatch):
    # each is one _diag of its diagonal entries, every entry the product that a
    # scalar times eye(2), or rho^2 times the diagonal stack, gives; +0.0 off it
    rho = 1.7

    def s(x, k):
        return np.sin(x[..., k])

    pairs = [
        (catalog._sphere2_metric(rho), lambda x: catalog._scalar_factor(
            (rho * (1.0 / np.cosh(x[..., 0]))) ** 2) * np.eye(2)),
        (catalog._sphere3_metric(rho), lambda x: rho**2 * catalog._diag(
            1.0, np.cos(x[..., 0]) ** 2, s(x, 0) ** 2)),
        (catalog._sphere4_metric(rho), lambda x: rho**2 * catalog._diag(
            1.0, s(x, 0) ** 2, (s(x, 0) * s(x, 1)) ** 2, (s(x, 0) * s(x, 1) * s(x, 2)) ** 2)),
        (catalog.get("catenoid").fields[0].evaluator,
         lambda x: catalog._scalar_factor(np.cosh(x[..., 0]) ** 2) * np.eye(2)),
        (_stokes_endpoint(monkeypatch), lambda x: np.exp(
            2.0 * (0.25 * s(x, 0) * np.cos(x[..., 1])))[..., None, None] * np.eye(2)),
    ]
    # coordinate-first points, as the jet hands them over
    x = np.moveaxis(np.random.default_rng(11).uniform(-3.0, 3.0, size=(4, 5, 6)), 0, -1)
    for ev, old in pairs:
        got, want = ev(x), old(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
