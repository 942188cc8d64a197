"""Geometry registry: construction, invariants, weighting, config loading."""

import json
import math

import numpy as np
import pytest

from gblab import catalog
from gblab.quadrature import integrate_chart, mesh_for_chart


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
            for x in mf.chart.random_interior(rng, 1000, shrink=0.02):
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


@pytest.mark.parametrize("beta", [-3.0, -1.0, float("nan")])
def test_horizontal_base_factor_must_stay_positive(beta):
    # (1 + beta r)^2 vanishes at r = -1/beta, inside the collar (0, 1] for beta <= -1
    with pytest.raises(catalog.RegistryError, match="1 \\+ beta > 0"):
        catalog.get("edge_horizontal", beta=beta)


def test_valid_profiles_are_accepted():
    for a in (0.1, 0.3, 0.5, -0.79):
        catalog.get("cone_perturbed_first_order", a=a)
    catalog.get("cone", profile="first_order", a=-0.4)
    catalog.get("cone", profile="linear", a=-5.0)  # a only shapes the first-order profile
    for beta in (0.3, 0.0, -0.99):
        catalog.get("edge_horizontal", beta=beta)


@pytest.mark.parametrize("base,fiber", [("s2", "s1"), ("s1", "s1")])
def test_horizontal_edge_without_variation_is_the_product_edge(base, fiber):
    flat = catalog.get("edge_horizontal", base=base, fiber=fiber, beta=0.0).collar
    plain = catalog.get("edge_product", base=base, fiber=fiber).collar
    assert flat.r_interval == plain.r_interval
    rng = np.random.default_rng(5)
    for y in plain.boundary_chart.random_interior(rng, 4):
        for r in (0.0, 1e-3, 0.37, 1.0):
            assert flat.radial_metric(r)(y).tobytes() == plain.radial_metric(r)(y).tobytes()


def test_config_registration(tmp_path):
    cfg = {
        "schema_version": catalog.CONFIG_SCHEMA_VERSION,
        "geometries": [
            {"name": "small_football", "builtin": "football", "params": {"p": 7}},
        ],
    }
    path = tmp_path / "geoms.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    added = catalog.register_from_config(path)
    assert added == ["small_football"]
    spec = catalog.get("small_football")
    assert spec.symmetry_weight == catalog.Fraction(1, 7)
    listing = [e["name"] for e in catalog.list_geometries()]
    assert "small_football" in listing
    catalog._USER_ENTRIES.clear()


def test_config_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "geometries": []}),
                    encoding="utf-8")
    with pytest.raises(catalog.RegistryError):
        catalog.register_from_config(path)


def test_config_rejects_shadowing(tmp_path):
    cfg = {"schema_version": 1,
           "geometries": [{"name": "sphere", "builtin": "sphere", "params": {}}]}
    path = tmp_path / "shadow.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(catalog.RegistryError):
        catalog.register_from_config(path)


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
