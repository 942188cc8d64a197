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
    chart, mf = spec.charts[0]
    bad = MetricField(chart, lambda x: np.diag([1.0, -1.0]))
    broken = dataclasses.replace(spec, charts=((chart, bad),))
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
    val = verify.edge_value_for(spec.fibration, level=2)
    assert val == pytest.approx(4 * math.pi * (2 * math.pi) ** 3, rel=1e-5)


def test_calibration_recovers_frozen_flags():
    report = verify.calibrate(level=1)
    assert report["consistent"]
    assert report["derived"] == verify.EPSILONS
    assert abs(report["anchors"]["disk_chi"] - 1.0) < 1e-6


def test_workers_do_not_change_results():
    docs = [json.dumps(verify.suite_to_json_dict(
        verify.run_suite(filter_text="orbifold", workers=w)), sort_keys=True)
        for w in (1, 2)]
    assert docs[0] == docs[1]
