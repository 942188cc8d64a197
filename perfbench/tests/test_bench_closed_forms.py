import json
import math
from pathlib import Path

import pytest

import run
import workloads as wl


def test_closed_forms_against_hand_values():
    pi2 = math.pi**2
    assert wl.cone_s3_transgression(0.5) == pytest.approx(2.75 * pi2, rel=1e-15)
    assert wl.cone_s3_transgression(1.0) == pytest.approx(39.47841760435743, rel=1e-15)
    assert wl.lens_transgression(2) == pytest.approx(19.739208802178716, rel=1e-15)
    assert wl.lens_transgression(4) == pytest.approx(pi2, rel=1e-15)
    assert wl.edge_s2_s1() == pytest.approx(-78.95683520871486, rel=1e-15)
    assert wl.disk_boundary(1) == pytest.approx(-6.283185307179586, rel=1e-15)
    assert wl.disk_boundary(2) == pytest.approx(-39.47841760435743, rel=1e-15)
    assert wl.football_chi_part(5) == 0.4
    assert wl.CATENOID_PF == pytest.approx(-12.566370614359172, rel=1e-15)
    assert wl.euler_sphere(4) == 2


def test_accuracy_digits():
    assert wl.accuracy_digits(1.001, 1.0) == pytest.approx(3.0)
    assert wl.accuracy_digits(100.1, 100.0) == pytest.approx(3.0)
    assert wl.accuracy_digits(1e-5, 0.0) == pytest.approx(5.0)
    assert wl.accuracy_digits(2.0, 2.0) == wl.DIGITS_CAP
    assert wl.accuracy_digits(1e-30, 0.0) == wl.DIGITS_CAP


def test_quantity_tolerance_kinds():
    assert wl.Quantity("x", 100.05, 100.0, 1e-3, "rel").ok
    assert not wl.Quantity("x", 100.05, 100.0, 1e-4, "rel").ok
    assert wl.Quantity("x", 2.0 + 5e-10, 2.0, 1e-9, "abs").ok
    assert not wl.Quantity("x", 2.0 + 5e-9, 2.0, 1e-9, "abs").ok


def test_quantities_require_every_value():
    inst = wl.instances("interior", 0)[0]
    with pytest.raises(KeyError):
        wl.quantities(inst, {})


def test_seed_zero_is_the_default_suite():
    labels = [i.label() for i in wl.instances("slice_limits", 0)]
    assert labels[:5] == [
        "ConeGB geometric_cone link=s3 theta=0.5 L2",
        "ConeGB geometric_cone link=s3 theta=1.0 L2",
        "LensObstruction lens_cone order=2 L2",
        "LensObstruction lens_cone order=3 L2",
        "LensObstruction lens_cone order=4 L2",
    ]
    assert [i.kwargs.get("p") for i in wl.instances("interior", 0)][4:7] == [2, 3, 5]
    assert len(wl.instances("path_gauge", 0)) == 3


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_seeded_draws_stay_in_range(seed):
    d = wl.draw(seed)
    assert d == wl.draw(seed)
    assert all(wl.THETA_RANGE[0] <= t <= wl.THETA_RANGE[1] for t in d.thetas)
    assert set(d.footballs) <= set(wl.FOOTBALL_ORDERS)
    assert len(set(d.lens)) == 3 and set(d.lens) <= set(wl.LENS_ORDERS)
    assert wl.A_RANGE[0] <= d.a <= wl.A_RANGE[1]


def test_unknown_workload():
    with pytest.raises(ValueError):
        wl.instances("nope", 0)


def test_benchmark_json_matches_the_command():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] < setup["bound"] for m in bench["end_to_end"] if m is not setup)
