"""Quadrature rules, deterministic reduction, refinement, extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gblab import catalog, geometry, verify
from gblab import quadrature as quad
from gblab.geometry import Chart, Slice, riemann_double_form
from gblab.invariants import boundary_correction_form
from gblab.quadrature import (
    ORBIT_SHIFT,
    AxisRule,
    MeshSpec,
    ResolutionError,
    block_size,
    geometric_schedule,
    integrate_chart,
    mesh_for_chart,
    r_limit_extrapolate,
)

CIRCLE = Chart("circle", ((0.0, 2 * math.pi),), (True,))


def test_trapezoid_constant_exact():
    mesh = mesh_for_chart(CIRCLE, 1)
    assert integrate_chart(lambda x: np.ones(len(x)), CIRCLE, mesh) == pytest.approx(2 * math.pi)


def test_sphere_volume_colatitude():
    chart = Chart("s2-classic", ((0.0, math.pi), (0.0, 2 * math.pi)), (False, True))
    mesh = mesh_for_chart(chart, 4)
    vol = integrate_chart(lambda x: np.sin(x[:, 0]), chart, mesh)
    assert vol == pytest.approx(4 * math.pi, abs=1e-8)


def test_hyperspherical_three_sphere_volume():
    chart = Chart("s3-classic", ((0.0, math.pi), (0.0, math.pi), (0.0, 2 * math.pi)),
                  (False, False, True))
    mesh = mesh_for_chart(chart, 3)
    vol = integrate_chart(lambda x: np.sin(x[:, 0]) ** 2 * np.sin(x[:, 1]), chart, mesh)
    assert vol == pytest.approx(2 * math.pi**2, rel=1e-9)


def test_mesh_invariants():
    with pytest.raises(ResolutionError):
        MeshSpec(nodes=(3,), rules=("gauss",))
    with pytest.raises(ResolutionError):
        mesh_for_chart(CIRCLE, 9)


def test_level_range_message_is_read_from_levels(monkeypatch):
    with pytest.raises(ResolutionError, match=r"refinement level must be in 1\.\.7$"):
        mesh_for_chart(CIRCLE, 8)
    monkeypatch.setattr(quad, "LEVELS", range(1, 4))
    with pytest.raises(ResolutionError, match=r"refinement level must be in 1\.\.3$"):
        mesh_for_chart(CIRCLE, 5)


@pytest.mark.parametrize("count", [9, 12, 20])
def test_gauss_counts_above_one_panel_need_whole_panels(count):
    # _axis_nodes would round such a count up to whole panels, so total_nodes
    # would not be the number of points integrated
    with pytest.raises(ResolutionError, match="whole panels"):
        MeshSpec(nodes=(count,), rules=("gauss",))
    seg = Chart("seg", ((0.0, 1.0),), (False,), quad_hints=(AxisRule("gauss", count),))
    with pytest.raises(ResolutionError, match="whole panels"):
        mesh_for_chart(seg, 1)
    assert MeshSpec(nodes=(count,), rules=("trapezoid",)).total_nodes == count
    assert MeshSpec(nodes=(5,), rules=("gauss",)).total_nodes == 5


def test_node_counts_double_per_level():
    rule = AxisRule("gauss", 8)
    assert [rule.nodes_at(l) for l in (1, 2, 3)] == [8, 16, 32]
    assert [AxisRule("orbit").nodes_at(l) for l in (1, 3, 7)] == [1, 1, 1]
    assert MeshSpec(nodes=(1, 8), rules=("orbit", "gauss")).total_nodes == 8
    for rule in ("gauss", "trapezoid"):
        with pytest.raises(ResolutionError, match="1 node per orbit axis and >= 4 per other"):
            MeshSpec(nodes=(1, 3), rules=("orbit", rule))
    with pytest.raises(ResolutionError, match="1 node per orbit axis"):
        MeshSpec(nodes=(4,), rules=("orbit",))


ORBIT_STRIP = Chart("orbit-strip", ((0.0, 1.0), (0.0, 2 * math.pi)), (False, True),
                    quad_hints=(AxisRule("gauss", 8), AxisRule("orbit")))


# a mesh of 240 nodes whose 64 orbit samples straddle the first block's end
STRADDLE = MeshSpec(nodes=(240, 1), rules=("gauss", "orbit"))


def test_an_orbit_axis_is_one_node_weighted_by_the_period():
    calls = []

    def dens(x):
        calls.append(x.copy())
        return 3.0 * x[:, 0] ** 2

    mesh = mesh_for_chart(ORBIT_STRIP, 2)
    assert mesh.nodes == (16, 1)
    assert integrate_chart(dens, ORBIT_STRIP, mesh) == pytest.approx(2 * math.pi, rel=1e-14)
    # one call: the 16 mesh nodes, then the same 16 moved along the orbit
    (x,) = calls
    assert len(x) == 32 and np.all(x[:16, 1] == 0.0)
    assert np.array_equal(x[16:, 0], x[:16, 0])
    assert np.all(x[16:, 1] == ORBIT_SHIFT * 2 * math.pi)


def test_a_density_that_varies_along_an_orbit_axis_raises():
    mesh = mesh_for_chart(ORBIT_STRIP, 1)
    for m in (mesh, STRADDLE):
        with pytest.raises(ResolutionError, match="chart 'orbit-strip' varies along orbit axis 1"):
            integrate_chart(lambda x: 1.0 + 1e-6 * np.cos(x[:, 1]), ORBIT_STRIP, m)
    # each density of a stack is held to its own scale, not to the stack's largest
    with pytest.raises(ResolutionError, match="orbit axis 1"):
        integrate_chart(lambda x: np.stack([np.ones(len(x)), 1e-9 * (2.0 + np.sin(x[:, 1]))]),
                        ORBIT_STRIP, mesh)
    # the full tensor mesh integrates it without a claim to check
    full = MeshSpec(nodes=(8, 8), rules=("gauss", "trapezoid"))
    got = integrate_chart(lambda x: np.cos(x[:, 1]), ORBIT_STRIP, full)
    assert got == pytest.approx(0.0, abs=1e-14)


def test_evaluator_failure_carries_node_coordinates():
    def bad(x):
        if np.any(x[:, 0] > 3.0):
            raise ValueError("boom")
        return np.ones(len(x))

    with pytest.raises(ValueError, match=r"boom \(at node \(3\."):
        integrate_chart(bad, CIRCLE, mesh_for_chart(CIRCLE, 1))


def test_density_sees_consecutive_blocks():
    for nodes, blocks in [((2 * 1024 + 8,), [1024, 1024, 8]),
                          ((8, 65), [256, 256, 8]),
                          ((5, 6, 9), [128, 128, 14]),
                          ((5, 5, 4, 4), [128] * 3 + [16])]:
        seen = []

        def dens(x):
            seen.append(x.copy())
            return x[:, 0]

        d = len(nodes)
        chart = Chart("box", ((0.0, 1.0),) * d, (False,) * d)
        mesh = MeshSpec(nodes=nodes, rules=("gauss",) + ("trapezoid",) * (d - 1))
        got = integrate_chart(dens, chart, mesh)
        assert [len(b) for b in seen] == blocks
        assert all(len(b) == block_size(d) for b in seen[:-1])
        # the flattened ordering is lexicographic, so sorting the distinct nodes changes nothing
        every = np.concatenate(seen)
        assert np.array_equal(np.unique(every, axis=0), every)
        assert got == pytest.approx(0.5, abs=1e-14)


def test_product_volume_s2_x_s1():
    prod = Chart("s2xs1", ((0.0, math.pi), (0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                 (False, True, True))
    vol = integrate_chart(lambda x: np.sin(x[:, 0]), prod, mesh_for_chart(prod, 3))
    assert vol == pytest.approx(8 * math.pi**2, rel=1e-8)


def test_extrapolate_linear_and_polynomial():
    samples = [(r, 3.0 + 2.0 * r) for r in geometric_schedule(0.4, 6)]
    value = r_limit_extrapolate(samples, degree=1)
    assert value == pytest.approx(3.0, abs=1e-12)
    samples = [(r, 1.0 + r**2 + r**4) for r in geometric_schedule(0.4, 6)]
    value = r_limit_extrapolate(samples, degree=4)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_extrapolate_schedule_validation():
    with pytest.raises(ResolutionError):
        r_limit_extrapolate([(0.4, 1.0), (0.39, 1.0), (0.38, 1.0), (0.37, 1.0),
                             (0.36, 1.0), (0.35, 1.0)], degree=3)
    with pytest.raises(ResolutionError):
        r_limit_extrapolate([(0.4, 1.0), (0.2, 1.0)], degree=3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10_000))
def test_extrapolate_recovers_polynomial(degree, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=degree + 1)
    samples = [(r, sum(c * r**m for m, c in enumerate(coeffs)))
               for r in geometric_schedule(0.5, degree + 3)]
    value = r_limit_extrapolate(samples, degree=degree)
    assert value == pytest.approx(coeffs[0], abs=1e-9 * max(1.0, abs(coeffs[0])))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(), (3,), (2, 3, 2)]))
def test_extrapolate_array_samples_entry_by_entry(seed, shape):
    rs = geometric_schedule(0.3, 6)
    vals = np.random.default_rng(seed).normal(size=(6,) + shape)
    value = r_limit_extrapolate(list(zip(rs, vals)), degree=4)
    assert np.shape(value) == shape
    for idx in np.ndindex(shape):
        one = r_limit_extrapolate([(r, v[idx]) for r, v in zip(rs, vals)], degree=4)
        assert abs(np.asarray(value)[idx] - one) <= 1e-12 * max(1.0, np.max(np.abs(vals)))
    if not shape:
        assert isinstance(value, float)


@settings(max_examples=50, deadline=None)
@given(st.floats(-6.0, 6.0), st.integers(0, 10_000))
def test_degree_four_on_the_six_point_schedule_is_well_conditioned(log_r0, seed):
    # the fit runs on r / r_max, which is the same six powers of two whatever
    # r0, so the slice limits' fixed fit sees one matrix (cond 2.06e3)
    rs = geometric_schedule(10.0**log_r0, 6)
    vals = np.random.default_rng(seed).normal(size=6)
    value = r_limit_extrapolate(list(zip(rs, vals)), degree=4)
    assert math.isfinite(value)
    assert value == r_limit_extrapolate(list(zip(geometric_schedule(1.0, 6), vals)), degree=4)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7), st.integers(0, 1000))
def test_gauss_exact_for_polynomials(deg, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=deg + 1)
    seg = Chart("seg", ((0.0, 1.0),), (False,))
    got = integrate_chart(lambda x: sum(c * x[:, 0] ** m for m, c in enumerate(coeffs)),
                          seg, mesh_for_chart(seg, 1))
    want = sum(c / (m + 1) for m, c in enumerate(coeffs))
    assert got == pytest.approx(want, abs=1e-12)


def test_a_stack_of_densities_equals_each_density_integrated_alone():
    # K densities in one pass: np.add.reduce sums each row pairwise as it sums the
    # row alone, on both sides of numpy's 8-wide unroll and 128-element block and
    # past 8,192 nodes
    interval = Chart("interval", ((0.0, 1.0),), (False,))
    strip = Chart("strip", ((0.0, 1.0), (0.0, 2 * math.pi)), (False, True))
    dens = [lambda x, m=m: np.cos(m * x[:, -1]) * x[:, 0] ** m + 1.0 / (1.0 + m * x[:, 0])
            for m in range(4)]
    calls = []

    def stacked(x):
        calls.append(len(x))
        return np.stack([f(x) for f in dens])

    # 7, 8, 120, 136, 192, 1,032 and 8,200 nodes
    for chart, nodes in [(interval, (7,)), (interval, (8,)), (strip, (8, 15)), (strip, (8, 17)),
                         (strip, (24, 8)), (strip, (8, 129)), (strip, (8, 1025))]:
        mesh = MeshSpec(nodes=nodes, rules=("gauss", "trapezoid")[:len(nodes)])
        calls.clear()
        got = integrate_chart(stacked, chart, mesh)
        assert got.shape == (4,)
        assert len(calls) == math.ceil(mesh.total_nodes / block_size(chart.dim)), nodes
        alone = np.array([integrate_chart(f, chart, mesh) for f in dens])
        assert got.tobytes() == alone.tobytes(), nodes
        assert integrate_chart(stacked, chart, mesh).tobytes() == got.tobytes(), nodes


def test_a_failing_stack_is_rerun_node_by_node_and_names_the_node():
    def bad(x):
        if np.any(x[:, 0] > 3.0):
            raise ValueError("boom")
        return np.stack([np.ones(len(x)), x[:, 0]])

    with pytest.raises(ValueError, match=r"boom \(at node \(3\."):
        integrate_chart(bad, CIRCLE, mesh_for_chart(CIRCLE, 1))


# -- the block layout ----------------------------------------------------------


def _one_node_at_a_time(density):
    return lambda x: np.concatenate([density(p[None]) for p in x], axis=-1)


S3_CONE = catalog.get("geometric_cone", link="s3", theta=0.5)
LAYOUT_CASES = {
    "football_p3_level5": lambda: verify.pf_integral(catalog.get("football", p=3), 5),
    "sphere_n4": lambda: verify.pf_integral(catalog.get("sphere", n=4), 1),
    "s3_cone_slices": lambda: verify.slice_limit(S3_CONE.collar, 2),
}


@pytest.mark.parametrize("run", LAYOUT_CASES.values(), ids=LAYOUT_CASES.keys())
def test_the_block_layout_changes_no_value(run, monkeypatch):
    # a node's value does not depend on the block it rides in, orbit samples included
    whole = run()
    charts = []

    def node_by_node(field, density, level):
        charts.append(field.chart.name)
        return integrate_chart(_one_node_at_a_time(density), field.chart,
                               mesh_for_chart(field.chart, level))

    monkeypatch.setattr(verify, "chart_integral", node_by_node)
    assert run() == whole and charts


def test_orbit_samples_share_a_block_with_mesh_nodes():
    calls = []

    def dens(x):
        calls.append(x.copy())
        return 3.0 * x[:, 0] ** 2

    assert integrate_chart(dens, ORBIT_STRIP, STRADDLE) == pytest.approx(2 * math.pi, rel=1e-13)
    assert [len(x) for x in calls] == [256, 48]
    every = np.concatenate(calls)
    assert np.all(every[:240, 1] == 0.0) and np.all(every[240:, 1] > 0.0)


def test_a_raising_orbit_sample_is_named_by_its_coordinates():
    def bad(x):
        if np.any(x[:, 1] > 0.0):
            raise ValueError("boom")
        return np.ones(len(x))

    shift = ORBIT_SHIFT * 2 * math.pi
    with pytest.raises(ValueError, match=rf"boom \(at node \([0-9.e-]+, {shift:.6f}"):
        integrate_chart(bad, ORBIT_STRIP, STRADDLE)


def test_each_orbit_axis_is_held_to_its_own_sample():
    # only the second of two orbit axes varies
    box = Chart("orbit-box", ((0.0, 1.0), (0.0, 2 * math.pi), (0.0, math.pi)),
                (False, True, True), quad_hints=(AxisRule("gauss"), AxisRule("orbit"),
                                                 AxisRule("orbit")))
    mesh = mesh_for_chart(box, 5)
    got = integrate_chart(lambda x: 3.0 * x[:, 0] ** 2, box, mesh)
    assert got == pytest.approx(2 * math.pi**2, rel=1e-14)
    with pytest.raises(ResolutionError, match="chart 'orbit-box' varies along orbit axis 2"):
        integrate_chart(lambda x: 1.0 + 1e-6 * np.cos(x[:, 2]), box, mesh)


def _pf_block(spec, count):
    """The Pfaffian density of spec's one field on `count` nodes inside its chart."""
    (mf,) = spec.fields
    x = np.stack([np.linspace(lo + 0.01, hi - 0.01, count) for lo, hi in mf.chart.bounds], -1)

    def block():
        R, E = riemann_double_form(mf, x)
        return verify._pf_top(R, E, x) / np.linalg.det(E)

    return block


def _s1_slice_block(count):
    """The s1 cone's slice density at its six radii on `count` nodes of the circle."""
    collar = catalog.get("geometric_cone", link="s1", theta=0.5).collar
    sl = Slice(collar, collar.r_interval[0] + np.array(verify._collapse_schedule(collar)))
    y = np.linspace(0.0, 2 * math.pi, count, endpoint=False)[:, None]

    def block():
        sd = sl.at(y)
        return boundary_correction_form(sd.second_fundamental, sd.curvature)

    return block


def test_a_full_block_holds_less_than_a_four_dimensional_one(traced_peak_mib):
    # a block's curvature arrays grow like d^4 per node, so the rule's larger
    # blocks on low-dimensional charts stay under a full d = 4 block (128
    # nodes, 1.53 MiB here), and under half of one too: against BLOCK = 64
    # nodes (0.79 MiB) the football's 256 read 0.61 and the s1 slice's 1,024
    # read 0.43 MiB, the margin they had when a d = 4 block held 64 nodes
    d4 = traced_peak_mib(_pf_block(catalog.get("sphere", n=4), quad.BLOCK))
    assert traced_peak_mib(_pf_block(catalog.get("football", p=3), block_size(2))) < d4
    assert traced_peak_mib(_s1_slice_block(block_size(1))) < d4


def _meshgrid_points(chart, mesh):
    """The mesh by np.meshgrid: each axis's grid raveled, the weights multiplied into ones in turn."""
    axes = quad._mesh_axes(chart, mesh)
    pts = np.stack([g.ravel() for g in np.meshgrid(*[x for x, _ in axes], indexing="ij")], axis=-1)
    w = np.ones(pts.shape[0])
    for g in np.meshgrid(*[wa for _, wa in axes], indexing="ij"):
        w *= g.ravel()
    return pts, w


def _suite_charts(specs=()) -> list:
    """Every chart a default-suite geometry, or one of specs, integrates on: its fields', its
    slices' and its factors'."""
    charts = {}
    suite = [catalog.get(geometry, **params) for _, geometry, params, *_ in verify.DEFAULT_SUITE]
    for spec in suite + list(specs):
        fib = spec.collar.fibration if spec.collar else None
        for mf in spec.fields + (spec.link,) + ((fib.base, fib.fiber) if fib else ()):
            if mf is not None:
                charts[mf.chart] = None
        if spec.collar:
            charts[spec.collar.boundary_chart] = None
    return list(charts)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_mesh_points_are_the_meshgrid_route_bit_for_bit(level):
    charts = _suite_charts()
    assert len(charts) > 10
    for chart in charts:
        mesh = mesh_for_chart(chart, level)
        pts, w = quad._mesh_points(chart, mesh)
        want_pts, want_w = _meshgrid_points(chart, mesh)
        assert pts.shape == want_pts.shape == (mesh.total_nodes, chart.dim)
        assert pts.tobytes() == want_pts.tobytes() and w.tobytes() == want_w.tobytes()


def test_mesh_corners_are_the_extremes_of_the_axes_nodes_bit_for_bit():
    # the admission scan reads each axis's corners as the extremes of the mesh
    # nodes in the plan every pass of the chart's mesh evaluates (its orbit
    # samples, past the first total_nodes rows, left out)
    charts = _suite_charts(catalog.get(e["name"]) for e in catalog.list_geometries())
    # no catalog chart has a trapezoid axis: a periodic axis without hints takes one
    charts.append(Chart("cylinder", ((-1.0, 2.0), (0.3, 0.3 + 2 * math.pi)), (False, True)))
    rules = {rule for chart in charts for rule in mesh_for_chart(chart, 1).rules}
    assert len(charts) > 10 and rules == {"gauss", "trapezoid", "orbit"}
    checked = 0
    for chart in charts:
        for level in quad.LEVELS:
            mesh = mesh_for_chart(chart, level)
            if mesh.total_nodes > 2**16:
                continue
            nodes = quad._mesh_plan(chart, mesh)[0][: mesh.total_nodes]
            want = np.array([nodes.min(axis=0), nodes.max(axis=0)])
            checked += 1
            got = quad.mesh_corners(chart, level)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (chart, level)
    assert checked > 3 * len(charts)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_the_mesh_plan_is_the_unplanned_route_bit_for_bit(level):
    # the plan's nodes, orbit rows, weights and sample are the arrays each pass
    # built before plans: _mesh_points, then np.linspace and np.concatenate
    charts = _suite_charts()
    assert sum("orbit" in mesh_for_chart(chart, level).rules for chart in charts) > 3
    for chart in charts:
        mesh = mesh_for_chart(chart, level)
        pts, w, idx, orbit = quad._mesh_plan(chart, mesh)
        want_pts, want_w = quad._mesh_points(chart, mesh)
        n, d = want_pts.shape
        want_idx = np.linspace(0, n - 1, min(n, quad.BLOCK)).astype(int)
        want_orbit = [a for a, rule in enumerate(mesh.rules) if rule == "orbit"]
        want_pts = np.concatenate([want_pts] + [
            want_pts[want_idx] + ORBIT_SHIFT * np.diff(chart.bounds[a]) * (np.arange(d) == a)
            for a in want_orbit])
        assert list(orbit) == want_orbit
        for got, want in ((pts, want_pts), (w, want_w), (idx, want_idx)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable


def test_a_density_that_writes_into_its_block_raises():
    # every pass of a mesh reads the same planned nodes
    def writes(x):
        x[:, 0] += 1.0
        return np.ones(len(x))

    mesh = mesh_for_chart(CIRCLE, 1)
    with pytest.raises(ValueError, match="read-only"):
        integrate_chart(writes, CIRCLE, mesh)
    planned, built = quad._mesh_plan(CIRCLE, mesh)[0], quad._mesh_points(CIRCLE, mesh)[0]
    assert planned.tobytes() == built.tobytes()


def test_planning_more_than_plans_keys_keeps_each_cache_at_its_bound():
    # a chart per key: each plan cache drops its least recently used key
    for k in range(quad.PLANS + 5):
        chart = Chart(f"segment-{k}", ((0.0, 1.0 + k),), (False,))
        geometry._stencil_plan(chart, 2, 1e-4)
        quad._mesh_plan(chart, mesh_for_chart(chart, 1))
    for cache in (quad._mesh_plan, geometry._stencil_plan):
        assert cache.cache_info().currsize == cache.cache_info().maxsize == quad.PLANS
    assert mesh_for_chart.cache_info().maxsize == quad.PLANS * len(quad.LEVELS)
