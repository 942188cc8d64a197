"""Verification harness: registry, dispatch, result contracts, and the anchor rows
(BoundaryGB on the 2-disk among them) that fail when an orientation flag is negated."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from gblab import catalog, verify
from gblab import quadrature as quad
from gblab.doubleform import MAX_DIM
from gblab.geometry import phi_conjugated_connection


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


def test_report_row_is_every_field_with_passed_written_as_pass():
    r = verify.CheckResult(
        check_id="ConeGB", geometry="geometric_cone", params={"theta": 0.5, "link": "s1"},
        computed={"slice_limit_plus": np.float64(-3.25), "lk_integrals": (6.5, 0.0)},
        reference={"closed_form": 3.25}, residual_abs=1e-9, residual_rel=3e-10,
        tolerance=1e-3, tolerance_kind="rel", passed=True,
        convergence={"slice_samples": [{"r": 0.4, "value": -3.0}, {"r": 0.2, "value": -3.125}]},
        epsilon_notes={"cone": np.int64(-1)}, notes=["a note"])
    doc = r.to_json_dict()
    assert doc == {
        "check_id": "ConeGB", "geometry": "geometric_cone",
        "params": {"link": "s1", "theta": 0.5},
        "computed": {"lk_integrals": [6.5, 0.0], "slice_limit_plus": -3.25},
        "reference": {"closed_form": 3.25},
        "residual_abs": 1e-9, "residual_rel": 3e-10, "tolerance": 1e-3,
        "tolerance_kind": "rel", "pass": True,
        "convergence": {"slice_samples": [{"r": 0.4, "value": -3.0},
                                          {"r": 0.2, "value": -3.125}]},
        "epsilon_notes": {"cone": -1}, "notes": ["a note"],
    }
    names = [f.name for f in fields(verify.CheckResult)]
    assert sorted(doc) == sorted("pass" if n == "passed" else n for n in names)
    # numpy scalars become Python numbers, and the four dicts are sorted by key
    assert type(doc["computed"]["slice_limit_plus"]) is float
    assert type(doc["epsilon_notes"]["cone"]) is int
    assert list(doc["params"]) == ["link", "theta"]
    assert list(doc["computed"]) == ["lk_integrals", "slice_limit_plus"]
    json.dumps(doc)


def test_closed_gb_torus_exact_zero():
    r = verify.run_check("ClosedGB", "flat_torus", {"n": 2}, level=1)
    assert r.passed
    assert abs(r.computed["pf_integral"]) <= 1e-12


def test_closed_gb_sphere_converges_in_level():
    # a level study is one run per level; each refinement moves chi no more than the last
    chis = [verify.run_check("ClosedGB", "sphere", {"n": 2}, level=level).computed["chi"]
            for level in range(1, 5)]
    diffs = [abs(b - a) for a, b in zip(chis, chis[1:])]
    assert all(d2 <= d1 * 1.05 for d1, d2 in zip(diffs, diffs[1:]))


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
    ("lens_cone", {"order": 3}),
    ("geometric_cone", {"link": "s3", "theta": 0.5}),
    ("cone", {"link": "t3", "profile": "second_order"}),
])
def test_unit_link_divides_out_the_cone_profile(name, params):
    # ConeGB integrates spec.link: the link metric h itself, with no profile f in it
    spec = catalog.get(name, **params)
    link = spec.params.get("link", "s3" if name == "lens_cone" else "s1")
    link_metric = catalog._factor(link, link)[0].evaluator
    y = spec.link.chart.interior(np.random.default_rng(3).random((4, spec.link.chart.dim)))
    assert np.array_equal(spec.link.evaluator(y), link_metric(y))


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


def test_an_infinite_tolerance_does_not_pass_a_check_that_failed():
    import dataclasses

    from gblab.geometry import MetricField

    spec = catalog.get("sphere", n=2)
    bad = MetricField(spec.fields[0].chart, lambda x: np.diag([1.0, -1.0]))
    r = verify.run_check("ClosedGB", dataclasses.replace(spec, fields=(bad,)), level=1,
                         tol=float("inf"))
    assert r.residual_abs == float("inf") and not r.passed
    assert any("check failed" in n for n in r.notes)


def test_a_nan_metric_sample_fails_the_check_at_its_node():
    # a NaN fails the exact symmetry test, so the sample check's slow branch must reject it
    spec = catalog.get("sphere", n=2)
    (mf,) = spec.fields

    def holed(x):
        g = np.array(mf.evaluator(x), dtype=float)
        g[x[..., 0] > 1.0] = np.nan
        return g

    r = verify.run_check("ClosedGB", replace(spec, fields=(replace(mf, evaluator=holed),)),
                         level=1)
    assert r.residual_abs == float("inf") and not r.passed
    (note,) = r.notes
    assert note.startswith("check failed: MetricError: metric sample holds a NaN (at node (")


def _crash(spec, level, tol):
    raise RuntimeError("stub")


def test_a_crashed_row_states_its_checks_own_gate(monkeypatch):
    # the crash row reads the gate kind from the same statement as the check's result
    for check_id, geometry, params, _, _ in verify.DEFAULT_SUITE:
        kind = verify.run_check(check_id, geometry, dict(params)).tolerance_kind
        with monkeypatch.context() as m:
            m.setitem(verify.CHECKS, check_id, _crash)
            crashed = verify.run_check(check_id, geometry, dict(params))
        assert crashed.notes == ["check failed: RuntimeError: stub"] and not crashed.passed
        assert crashed.tolerance_kind == kind, (check_id, geometry, params)


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


def test_edge_value_for_an_odd_base_is_exactly_zero():
    # the base Pfaffian of an odd base vanishes, so no odd Pfaffian is integrated
    spec = catalog.get("edge_product", base="s1", fiber="s2")
    assert verify.edge_value_for(spec.collar.fibration, level=2) == 0.0


def test_fibered_value_for_an_even_base_is_exactly_zero():
    # an even base has no odd Pfaffian
    spec = catalog.get("fibered_product", base="s2", fiber="s1")
    assert verify.fibered_value_for(spec.collar.fibration, level=1) == 0.0


# one default-suite row per orientation flag: BoundaryGB on the 2-disk (chi = 1),
# ConeGB at angle 1/2 over the circle, EdgeGB on s2 x s1, FiberedGB on the catenoid
@pytest.mark.parametrize("family,row", [
    ("boundary", ("BoundaryGB", "disk", {"dim": 2})),
    ("cone", ("ConeGB", "geometric_cone", {"link": "s1", "theta": 0.5})),
    ("edge", ("EdgeGB", "edge_product", {"base": "s2", "fiber": "s1"})),
    ("fibered", ("FiberedGB", "catenoid", {})),
])
def test_a_negated_flag_fails_its_anchor_row(family, row, monkeypatch):
    assert row in [r[:3] for r in verify.DEFAULT_SUITE]
    assert verify.run_check(*row).passed
    monkeypatch.setitem(verify.EPSILONS, family, -verify.EPSILONS[family])
    flipped = verify.run_check(*row)
    # the identity fails on computed values; the check does not crash
    assert flipped.computed and not flipped.passed


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


@pytest.mark.parametrize("cutoff,residual", [(0.1, 1.80), (2.0, 3.73e-2)])
def test_a_short_catenoid_fails_on_its_truncation_not_on_its_collar(cutoff, residual):
    # the collar is the end past the interior whatever its cutoff, so the r -> infinity
    # slices (r up to 80) fit in it, and a short interior misses the identity by what
    # it leaves out
    spec = catalog.get("catenoid", cutoff=cutoff)
    assert spec.collar.r_interval == catalog.get("catenoid").collar.r_interval
    r = verify.run_check("FiberedGB", "catenoid", {"cutoff": cutoff})
    assert not r.passed and r.notes == []
    assert r.residual_rel == pytest.approx(residual, rel=0.01)


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
    *[(cid, "edge_product", {"base": base, "fiber": fiber},
       f"{cid} needs an odd-dimensional slice N = F x B")
      for cid in ("EdgeLimit", "EdgeGB")
      for base, fiber in (("t3", "s1"), ("s1", "s1"), ("s2", "s2"))],
    *[("FiberedGB", "fibered_product", {"base": b, "fiber": b},
       "FiberedGB needs an odd-dimensional slice N = F x B") for b in ("s1", "s2")],
    ("PhiLimit", "catenoid", {}, "PhiLimit needs a collapsing collar"),
    *[("PhiLimit", "fibered_product", {"base": base, "fiber": fiber},
       "PhiLimit needs a collapsing collar") for base, fiber in (("s1", "s2"), ("s2", "s1"))],
    ("EdgeGB", "edge_product", {"base": "s2", "fiber": "t3"},
     "EdgeGB needs a fiber whose cone closes smoothly"),
    ("EdgeHorizontal", "edge_horizontal", {"base": "s1", "fiber": "s1"},
     "EdgeHorizontal needs an odd-dimensional slice N = F x B"),
])
def test_each_check_rejects_a_geometry_it_cannot_run(check_id, geometry, params, message):
    with pytest.raises(verify.ConfigurationError, match=f"^{message}"):
        verify.run_check(check_id, geometry, params)


@pytest.mark.parametrize("check_id, geometry, params, chart", [
    ("ClosedGB", "sphere", {"n": 2}, "sphere2-cylinder"),
    ("ConeGB", "geometric_cone", {"link": "s3", "theta": 1.0}, "s3-torus-angles"),
    ("FiberedGB", "catenoid", {}, "catenoid-conformal"),
    ("EdgeLimit", "edge_product", {"base": "s2", "fiber": "s1"}, "base-s2-cylinder"),
])
def test_a_level_whose_nodes_crowd_the_stencil_is_refused(check_id, geometry, params, chart):
    # at level 7 the outermost Gauss node of the order-4 s2, s3 and catenoid
    # charts sits within the stencil's reach of the chart's edge
    with pytest.raises(verify.ConfigurationError,
                       match=f"^level 7 puts mesh nodes of chart '{chart}' within the "
                             f"finite-difference stencil's reach of its edge; its largest "
                             f"clean level is 6$"):
        verify.run_check(check_id, geometry, params, level=7)


def test_the_largest_clean_level_is_decided_once_per_chart_and_stencil(monkeypatch):
    calls = []
    corners = quad.mesh_corners

    def recorded(chart, level):
        calls.append((chart.name, level))
        return corners(chart, level)

    monkeypatch.setattr(quad, "mesh_corners", recorded)
    verify._admissible_top.cache_clear()
    sphere, football = catalog.get("sphere", n=2), catalog.get("football", p=3)
    for _ in range(2):
        verify.pf_integral(sphere, 1)
        verify.pf_integral(football, 1)
        verify.pf_integral(catalog.get("sphere", n=4), 1)
    # each stencil tries the levels once, in the first pass: the sphere's up
    # to its first unclean level (7), the football's halved step all seven,
    # and the 4-sphere's up to its first level over the node budget (6),
    # whose corners are never taken
    assert calls == ([("sphere2-cylinder", level) for level in range(1, 8)] * 2
                     + [("sphere4-polar-angles", level) for level in range(1, 6)])
    assert verify._admissible_top.cache_info().currsize == 3


def test_a_cold_suite_reuses_its_mesh_and_stencil_plans():
    # the plans serve distinct checks within one run: 51 chart passes over 19
    # meshes, 106 stencil lookups over 25 stencils, and no key is dropped
    caches = (quad._mesh_plan, verify._stencil_plan, quad.mesh_for_chart,
              verify._admissible_top)
    for cache in caches:
        cache.cache_clear()
    verify.run_suite()
    meshes, stencils, *_ = info = [cache.cache_info() for cache in caches]
    assert (meshes.misses, meshes.hits, stencils.misses, stencils.hits) == (19, 32, 25, 81)
    assert all(i.currsize == i.misses < i.maxsize for i in info)


def test_only_the_four_dimensional_sphere_outgrows_the_node_budget(monkeypatch):
    # the node counts of every chart the default suite integrates, at each level,
    # read off its MeshSpec; no mesh past level 1 is built
    integrate, mesh_integrate, fields, meshed = verify.chart_integral, quad.integrate_chart, [], []

    def record(field, density, level):
        fields.append(field)
        return integrate(field, density, level)

    def record_mesh(density, chart, mesh):
        meshed.append(chart)
        return mesh_integrate(density, chart, mesh)

    monkeypatch.setattr(verify, "chart_integral", record)
    monkeypatch.setattr(quad, "integrate_chart", record_mesh)
    verify.run_suite(level=1)
    # no pass skips the level rule: each chart integral names a field on the chart it meshes
    assert all(isinstance(f, verify.MetricField) for f in fields)
    assert meshed == [f.chart for f in fields]
    charts = {f.chart.name: f.chart for f in fields}
    over = {(name, level) for name, chart in charts.items() for level in quad.LEVELS
            if quad.mesh_for_chart(chart, level).total_nodes > verify.MESH_NODE_BUDGET}
    assert over == {("sphere4-polar-angles", 6), ("sphere4-polar-angles", 7)}
    assert max(quad.mesh_for_chart(chart, 7).total_nodes for name, chart in charts.items()
               if name != "sphere4-polar-angles") == 786_432


def test_a_mesh_over_the_node_budget_is_refused_before_it_is_built(monkeypatch):
    # level 6, the first over the budget (the CLI test takes level 7)
    def unbuilt(chart, mesh):
        raise AssertionError("a refused mesh was built")

    monkeypatch.setattr(quad, "_mesh_points", unbuilt)
    (field,) = catalog.get("sphere", n=4).fields
    with pytest.raises(verify.ConfigurationError,
                       match="^level 6 meshes chart 'sphere4-polar-angles' with 16,777,216 "
                             "nodes, over the budget of 4,194,304; its largest level within "
                             "the budget is 5$"):
        verify.chart_integral(field, None, 6)


@pytest.mark.parametrize("check_id, geometry, params, level", [
    ("ClosedGB", "flat_torus", {"n": 2}, 9),
    ("ClosedGB", "sphere", {"n": 2}, 0),
    ("AlgebraIdentities", None, None, 99),
])
def test_a_level_outside_levels_is_refused_before_any_check_runs(check_id, geometry, params,
                                                                 level, monkeypatch):
    # refused for its range, not for a chart's stencil or as a failed row
    def unrun(spec, level, tol):
        raise AssertionError("the check ran")

    monkeypatch.setitem(verify.CHECKS, check_id, unrun)
    with pytest.raises(quad.ResolutionError, match=r"^refinement level must be in 1\.\.7$"):
        verify.run_check(check_id, geometry, params, level=level)


def test_the_stokes_grid_values_do_not_depend_on_the_block_size(monkeypatch):
    # the 32 x 32 grid in blocks of the chart rule (256 nodes) or of 64
    gauge, blocks = verify.metric_path_gauge, []

    def record(g0, g1, x):
        blocks.append(x.shape)
        return gauge(g0, g1, x)

    monkeypatch.setattr(verify, "metric_path_gauge", record)
    ruled = verify.run_check("TransgressionStokes").computed
    monkeypatch.setattr(quad, "block_size", lambda d: 64)
    small = verify.run_check("TransgressionStokes").computed
    assert blocks == [(4, 256, 2)] * 4 + [(4, 64, 2)] * 16
    assert repr(ruled) == repr(small) and ruled == small


def test_a_slice_limit_does_not_depend_on_the_block_size(monkeypatch):
    # the s3 link's 96 nodes (32 mesh nodes and two orbit samples) in one
    # block of the chart rule (128 nodes) or in blocks of 64
    collar = catalog.get("geometric_cone", link="s3", theta=0.5).collar
    at, blocks = verify.Slice.at, []

    def record(sl, y):
        blocks.append(np.shape(y))
        return at(sl, y)

    monkeypatch.setattr(verify.Slice, "at", record)
    ruled = verify.slice_limit(collar, 2)
    monkeypatch.setattr(quad, "block_size", lambda d: 64)
    small = verify.slice_limit(collar, 2)
    assert blocks == [(96, 3), (64, 3), (32, 3)]
    assert repr(ruled) == repr(small) and ruled == small


def test_every_check_has_a_default_row():
    # resolve_spec(check_id) with no geometry takes the check's first row
    assert set(verify.CHECKS) <= {row[0] for row in verify.DEFAULT_SUITE}


def test_every_default_row_replays_from_its_recorded_params():
    # a report row's geometry and params rebuild the spec it ran on
    for check_id, geometry, params, _, _ in verify.DEFAULT_SUITE:
        spec = verify.resolve_spec(check_id, geometry, dict(params))
        assert catalog.get(spec.name, **spec.params).params == spec.params, (check_id, geometry)


def test_every_default_row_runs_at_its_own_level_and_tol(monkeypatch):
    # the suite passes no level or tol, so run_check must resolve each row's own
    seen = []
    for check_id in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, check_id,
                            lambda spec, level, tol: seen.append((level, tol)))
    for check_id, geometry, params, _, _ in verify.DEFAULT_SUITE:
        verify.run_check(check_id, geometry, dict(params))
    assert seen == [(row[3], row[4]) for row in verify.DEFAULT_SUITE]


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


def test_the_phi_probe_is_its_generator_stream_bit_for_bit():
    # PhiLimit once drew its points by default_rng(20240801).random((3, d)): the
    # stream's first 3 d values in row order, which PHI_PROBE holds for every d
    want = np.random.default_rng(20240801).random(3 * MAX_DIM)
    assert np.array(verify.PHI_PROBE).tobytes() == want.tobytes()
    for d in range(1, MAX_DIM + 1):
        draws = np.random.default_rng(20240801).random((3, d))
        assert draws.tobytes() == np.reshape(verify.PHI_PROBE[:3 * d], (3, d)).tobytes()


@pytest.mark.parametrize("name,params,schedule", [
    ("geometric_cone", {"link": "s1", "theta": 1.0}, "collapse"),
    ("cone_perturbed_second_order", {}, "collapse"),
    ("edge_product", {"base": "s2", "fiber": "s1"}, "collapse"),
    ("cone_perturbed_first_order", {"a": 0.3}, "first_order"),
])
def test_phi_limit_equals_the_per_radius_extrapolation(name, params, schedule):
    collar = catalog.get(name, **params).collar
    rs = (verify._collapse_schedule(collar) if schedule == "collapse"
          else quad.geometric_schedule(0.32, 6))
    # PhiLimit's own points
    d = collar.boundary_chart.dim
    ys = collar.boundary_chart.interior(np.reshape(verify.PHI_PROBE[:3 * d], (3, d)), shrink=0.2)
    for y in (ys, ys[0]):
        # the reference samples the connection one radius at a time
        want = quad.r_limit_extrapolate([(r, phi_conjugated_connection(collar, r, y))
                                         for r in rs])
        assert np.array_equal(verify._phi_limit(collar, rs, y), want), name


def test_phi_limit_still_runs_where_the_slice_is_even_dimensional():
    # the odd-slice guard belongs to the edge and fibered identities, not to PhiLimit
    r = verify.run_check("PhiLimit", "edge_product", {"base": "t3", "fiber": "s1"}, level=1)
    assert r.passed


@pytest.mark.parametrize("name,params", [
    ("geometric_cone", {"link": "s3", "theta": 0.5}),
    ("lens_cone", {"order": 3}),
    ("edge_product", {"base": "s2", "fiber": "s1"}),
    ("catenoid", {}),
    ("cone_perturbed_second_order", {}),
])
def test_slice_limit_samples_equal_the_per_radius_integrals(name, params):
    # one stacked pass over the schedule rounds exactly as one call per radius
    collar = catalog.get(name, **params).collar
    limit, samples = verify.slice_limit(collar, 1)
    lo = collar.r_interval[0]
    to_r = (lambda u: 1.0 / u) if collar.singular_end == "infinity" else (lambda dr: lo + dr)
    assert len(samples) == 6
    for x, value in samples:
        assert type(value) is float
        assert value == verify.slice_transgression_plus(collar, to_r(x), 1)
    assert limit == verify.quad.r_limit_extrapolate(samples)


@pytest.mark.parametrize("name,params", [
    ("geometric_cone", {"link": "s3", "theta": 0.5}),
    ("geometric_cone", {"link": "s1", "theta": 1.0}),
    ("geometric_cone", {"link": "t3", "theta": 0.7}),
])
def test_one_pass_lk_integrals_equal_the_per_j_integrals(name, params):
    link = catalog.get(name, **params).link
    h = verify.DoubleForm.metric_form(link.chart.dim)

    def per_j(j):
        return verify.curvature_integral(
            link, 1, lambda R, E, x: verify.inv.lipschitz_killing_form(j, R, h).coeffs[..., 0, 0])

    got = verify.lk_integrals(link, 1)
    assert all(type(v) is float for v in got)
    assert got == [per_j(j) for j in range((link.chart.dim + 1) // 2)]


def test_one_pass_horizontal_value_equals_the_per_i_integrals(monkeypatch):
    # the base's q integrals, one curvature pass for every i, against one pass per i
    collar = catalog.get("edge_horizontal").collar
    got = verify.horizontal_closed_value(collar, 1)
    integrate, b = verify.curvature_integral, collar.fibration.base_dim

    def per_row(mf, level, top):
        if mf is not collar.fibration.base:
            return integrate(mf, level, top)
        return np.array([integrate(mf, level, lambda R, E, x, i=i: top(R, E, x)[i])
                         for i in range(b // 2 + 1)])

    monkeypatch.setattr(verify, "curvature_integral", per_row)
    assert verify.horizontal_closed_value(collar, 1) == got


# the node counts the catalog fixed on the orbit axes of each chart the
# default suite integrates, before the orbit rule: 8 along a circle, else 4
_TRAPEZOID_COUNTS = {
    "s1-angle": (8,), "fiber-s1-angle": (8,), "cone-s1": (8,),
    "N-s1xs2": (8, 4), "edge-s1xs2": (8, 4), "N-s2xs1": (4, 8),
    "sphere2-cylinder": (4,), "base-s2-cylinder": (4,), "catenoid-conformal": (4,),
    "disk2-polar": (4,), "disk4-polar": (4, 4), "s3-torus-angles": (4, 4),
    "sphere4-polar-angles": (4,), "torus2": (4,) * 2, "torus3": (4,) * 3, "torus4": (4,) * 4,
}


def test_orbit_meshes_equal_the_full_trapezoid_meshes_of_the_default_suite(monkeypatch):
    # every field, link, fibration factor and slice integral of the suite at
    # level 1, against the tensor mesh with those counts on its orbit axes
    integrate, calls = quad.integrate_chart, []

    def record(fn, chart, mesh):
        value = integrate(fn, chart, mesh)
        if "orbit" in mesh.rules:
            calls.append((fn, chart, mesh, value))
        return value

    monkeypatch.setattr(quad, "integrate_chart", record)
    suite = verify.run_suite(level=1)
    assert not any("check failed" in note for r in suite.results for note in r.notes)
    assert {chart.name for _, chart, _, _ in calls} == set(_TRAPEZOID_COUNTS)
    for fn, chart, mesh, value in calls:
        counts = iter(_TRAPEZOID_COUNTS[chart.name])
        full = quad.MeshSpec(
            nodes=tuple(next(counts) if r == "orbit" else n
                        for n, r in zip(mesh.nodes, mesh.rules)),
            rules=tuple("trapezoid" if r == "orbit" else r for r in mesh.rules))
        np.testing.assert_allclose(value, integrate(fn, chart, full), rtol=1e-13, atol=1e-13,
                                   err_msg=chart.name)


def test_an_orbit_claim_on_a_metric_that_varies_along_it_raises():
    # TransgressionStokes's g1 on the flat 2-torus, whose chart has orbit axes
    (g0,) = catalog.get("flat_torus", n=2).fields
    u = lambda x: 0.25 * np.sin(x[..., 0]) * np.cos(x[..., 1])
    g1 = replace(g0, evaluator=lambda x: np.exp(2.0 * u(x))[..., None, None] * np.eye(2))
    with pytest.raises(quad.ResolutionError, match="chart 'torus2' varies along orbit axis 0"):
        verify.curvature_integral(g1, 1, verify._pf_top)
