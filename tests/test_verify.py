"""Verification harness: registry, dispatch, result contracts, calibration."""

import json
import math

import numpy as np
import pytest

from gblab import catalog, verify


def test_check_registry_complete():
    assert set(verify.CHECK_IDS) == {
        "AlgebraIdentities", "BoundaryGB", "ClosedGB", "ConeGB", "EdgeGB",
        "EdgeHorizontal", "EdgeLimit", "FiberedGB", "FirstOrderConic",
        "LensObstruction", "OrbifoldGB", "PerturbationStability", "PhiLimit",
        "TransgressionStokes",
    }
    assert len(verify.DEFAULT_SUITE) >= 15


def test_unknown_check_rejected():
    with pytest.raises(verify.ConfigurationError):
        verify.run_check("NoSuchCheck")


def test_incompatible_geometry_rejected():
    with pytest.raises(verify.ConfigurationError):
        verify.run_check("BoundaryGB", "sphere", {"n": 2})
    with pytest.raises(verify.ConfigurationError):
        verify.run_check("OrbifoldGB", "sphere", {"n": 2})


def test_closed_gb_sphere_and_result_fields():
    r = verify.run_check("ClosedGB", "sphere", {"n": 2}, level=3)
    assert r.passed
    assert r.computed["chi"] == pytest.approx(2.0, abs=1e-6)
    assert r.reference["chi"] == 2
    assert r.tolerance_kind == "abs"
    doc = r.to_json_dict()
    assert doc["check_id"] == "ClosedGB" and doc["pass"] is True


def test_closed_gb_torus_exact_zero():
    r = verify.run_check("ClosedGB", "flat_torus", {"n": 2}, level=1)
    assert r.passed
    assert abs(r.computed["pf_integral"]) <= 1e-12


def test_cone_check_reports_two_routes():
    r = verify.run_check("ConeGB", "geometric_cone",
                         {"link": "s1", "theta": 0.5}, level=2)
    assert r.passed
    assert r.computed["closed_form"] == pytest.approx(math.pi, abs=1e-9)
    assert r.computed["slice_limit"] == pytest.approx(math.pi, rel=1e-6)
    assert r.computed["singular_contribution"] == pytest.approx(0.5, abs=1e-6)
    assert r.epsilon_notes == {"cone": -1}
    assert any("sign ledger" in n for n in r.notes)
    assert r.convergence["slice_samples"]


@pytest.mark.parametrize("name,params", [
    ("cone_perturbed_first_order", {"a": 0.3}),
    ("cone_perturbed_second_order", {}),
    ("geometric_cone", {"link": "s1", "theta": 0.5}),
    ("cone", {"profile": "first_order", "a": -0.4}),
])
def test_unit_link_divides_out_the_cone_profile(name, params):
    spec = catalog.get(name, **params)
    link_metric = catalog._factor("s1", "s1")[1]
    for y in (np.array([0.3]), np.array([4.0])):
        assert np.max(np.abs(verify._unit_link(spec).evaluator(y) - link_metric(y))) < 1e-12


def test_boundary_check_carries_sign_note():
    r = verify.run_check("BoundaryGB", "disk", {"dim": 2}, level=2)
    assert r.passed
    assert any("sign ledger" in n for n in r.notes)
    assert r.computed["boundary_integral"] == pytest.approx(-2 * math.pi, abs=1e-9)


def test_boundary_check_fails_when_path_route_is_off(monkeypatch):
    true_form = verify.inv.path_transgression_form
    monkeypatch.setattr(verify.inv, "path_transgression_form",
                        lambda *a, **kw: 1.01 * true_form(*a, **kw))
    r = verify.run_check("BoundaryGB", "disk", {"dim": 2}, level=2)
    assert r.computed["two_route_rel_gap"] == pytest.approx(0.01, rel=1e-3)
    assert not r.passed


def test_failures_are_captured_not_raised():
    # an impossible tolerance must yield a failed result, not an exception
    r = verify.run_check("ClosedGB", "sphere", {"n": 2}, level=1, tol=1e-18)
    assert not r.passed
    # and numeric trouble inside a check surfaces as a failed result
    import dataclasses

    from gblab.geometry import MetricField

    spec = catalog.get("sphere", n=2)
    bad = MetricField(spec.fields[0].chart, lambda x: np.diag([1.0, -1.0]))
    broken = dataclasses.replace(spec, fields=(bad,))
    r = verify.run_check("ClosedGB", broken, level=1)
    assert not r.passed
    assert any("check failed" in n for n in r.notes)


def test_run_suite_filter_and_order():
    suite = verify.run_suite(filter_text="cone", level=2)
    assert suite.results
    assert all("cone" in r.check_id.casefold() for r in suite.results)
    ids = [(r.check_id, r.geometry) for r in suite.results]
    assert ids == sorted(ids)


def test_suite_json_shape():
    suite = verify.run_suite(filter_text="algebra")
    doc = verify.suite_to_json_dict(suite, meta={"run": "test"})
    assert doc["summary"]["total"] == len(suite.results)
    assert doc["epsilons"] == verify.EPSILONS
    assert doc["results"][0]["check_id"] == "AlgebraIdentities"


def test_default_suite_covers_fifteen_checks():
    suite = verify.run_suite(filter_text="algebra")  # cheap sanity of plumbing
    assert len(verify.DEFAULT_SUITE) >= 15
    assert suite.passed + suite.failed == len(suite.results)


def test_edge_value_for_torus_fiber():
    # flat 3-torus fiber over the round 2-sphere
    spec = catalog.get("edge_product", base="s2", fiber="t3")
    val = verify.edge_value_for(spec.collar.fibration, level=2)
    assert val == pytest.approx(4 * math.pi * (2 * math.pi) ** 3, rel=1e-5)


def test_calibration_recovers_frozen_flags():
    report = verify.calibrate(level=1)
    assert report["consistent"]
    assert report["derived"] == verify.EPSILONS
    assert abs(report["anchors"]["disk_chi"] - 1.0) < 1e-6


def test_calibration_anchors_are_the_anchor_rows_own_values():
    report = verify.calibrate(level=1)

    def row(check_id, geometry, params):
        return verify.run_check(check_id, geometry, params, level=1)

    disk = row("BoundaryGB", "disk", {"dim": 2})
    cone = row("ConeGB", "geometric_cone", {"link": "s1", "theta": 0.5})
    edge = row("EdgeGB", "edge_product", {"base": "s2", "fiber": "s1"})
    cat = row("FiberedGB", "catenoid", {})
    assert report["anchors"] == {
        "disk_chi": disk.computed["chi"],
        "cone_gap": abs(cone.computed["slice_limit"] - cone.computed["closed_form"]),
        "edge_residual": abs(edge.reference["identity_lhs"] - edge.computed["identity_rhs"]),
        "catenoid_residual": abs(cat.reference["identity_lhs"] - cat.computed["identity_rhs"]),
    }
    # the edge anchor reads EdgeGB's computed interior, which is not exactly 0
    assert edge.computed["pf_integral"] != 0.0


def test_fibered_gb_on_a_chartless_odd_base_compares_the_two_routes():
    # S^1 base, S^2 fiber, no fields: no chi_ref, so only slice limit against end value
    r = verify.run_check("FiberedGB", "fibered_product", {"base": "s1", "fiber": "s2"},
                         level=2)
    assert r.passed
    assert r.computed["end_value"] == pytest.approx(-8 * math.pi**2, rel=1e-12)
    assert r.reference == {"end_value": r.computed["end_value"]}
    assert r.residual_abs == abs(r.computed["slice_limit_plus"] - r.computed["end_value"])
    assert r.residual_rel == pytest.approx(1.95e-4, rel=0.01)
    # level 1 is too coarse for the slice limit: a plain failed result, not a crash
    coarse = verify.run_check("FiberedGB", "fibered_product", {"base": "s1", "fiber": "s2"},
                              level=1)
    assert not coarse.passed
    assert set(coarse.computed) == {"pf_integral", "end_value", "slice_limit_plus", "end_count"}
    assert not any("check failed" in n for n in coarse.notes)


def test_workers_do_not_change_results():
    docs = [json.dumps(verify.suite_to_json_dict(
        verify.run_suite(filter_text="orbifold", workers=w)), sort_keys=True)
        for w in (1, 2)]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("check_id,geometry,params,message", [
    ("ClosedGB", "edge_horizontal", {}, "ClosedGB needs a reference Euler characteristic"),
    ("ClosedGB", "sphere", {"n": 3}, "ClosedGB needs an even-dimensional geometry"),
    ("ConeGB", "sphere", {"n": 2}, "ConeGB needs a conical geometry"),
    ("EdgeLimit", "disk", {"dim": 2}, "EdgeLimit needs an edge geometry"),
    ("EdgeGB", "edge_horizontal", {}, "EdgeGB needs a charted edge geometry"),
    ("EdgeHorizontal", "edge_product", {}, "EdgeHorizontal runs on edge_horizontal"),
    ("FiberedGB", "edge_product", {}, "FiberedGB needs a fibered-boundary geometry"),
    ("PerturbationStability", "geometric_cone", {}, "PerturbationStability runs on"),
    ("PhiLimit", "disk", {"dim": 2}, "PhiLimit needs a collar with fibration data"),
    ("FirstOrderConic", "geometric_cone", {}, "FirstOrderConic runs on"),
    ("TransgressionStokes", "flat_torus", {"n": 3}, "TransgressionStokes runs on the 2-torus"),
    ("LensObstruction", "geometric_cone", {"link": "s3"}, "LensObstruction runs on lens_cone"),
])
def test_each_check_rejects_a_geometry_it_cannot_run(check_id, geometry, params, message):
    with pytest.raises(verify.ConfigurationError, match=f"^{message}"):
        verify.run_check(check_id, geometry, params)


def test_resolve_spec_defaults_to_the_checks_first_row():
    spec = verify.resolve_spec("ConeGB")
    assert (spec.name, spec.params) == ("geometric_cone", {"link": "s1", "theta": 0.5})
    spec = verify.resolve_spec("ConeGB", params={"theta": 0.25})
    assert (spec.name, spec.params) == ("geometric_cone", {"link": "s1", "theta": 0.25})


@pytest.mark.parametrize("stencil", [{"fd_order": 2}, {"fd_rel_step": 5e-5}])
def test_pf_integral_reads_each_fields_own_stencil(stencil):
    import dataclasses

    spec = catalog.get("sphere", n=2)
    moved = dataclasses.replace(
        spec, fields=tuple(dataclasses.replace(mf, **stencil) for mf in spec.fields))
    value, moved_value = verify.pf_integral(spec, 2), verify.pf_integral(moved, 2)
    assert moved_value != value
    assert moved_value == pytest.approx(value, rel=1e-3)
