import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

CHEAP = {
    "interior": "ClosedGB flat_torus n=2 L1",
    "slice_limits": "PerturbationStability cone_perturbed_second_order L3",
    "path_gauge": "BoundaryGB disk dim=2 L3",
}


@pytest.fixture(scope="module")
def gblab():
    return run.import_gblab()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_cheap_instance_untraced_and_traced(gblab, workload):
    catalog, verify = gblab
    insts = [i for i in wl.instances(workload, 0) if i.label() == CHEAP[workload]]
    assert len(insts) == 1
    plain = run.Round(verify, insts, run.build_specs(catalog, insts))
    assert plain.failures == [] and plain.quantities
    traced, report = run.traced_round(verify, catalog, insts)
    assert traced.values == plain.values
    assert report["absent"] == []
    layers = run.layer_metrics(report, 0.0)
    assert set(layers) == {name for name, _ in run.PER_LAYER}
    assert layers["catalog.get.calls"] >= 1
    assert layers[f"verify.{insts[0].check}.s"] > 0
    # tracing leaves the package as it found it
    assert not hasattr(verify.run_check, "__wrapped__")


def test_layer_counts_of_cheap_instances(gblab):
    catalog, verify = gblab
    stab = [i for i in wl.instances("slice_limits", 0) if i.check == "PerturbationStability"]
    _, report = run.traced_round(verify, catalog, stab)
    layers = run.layer_metrics(report, 0.0)
    assert layers["verify.slice_limit.calls"] == 2
    assert layers["geometry.metric_path_gauge.calls"] == 0
    disk = [i for i in wl.instances("path_gauge", 0) if i.label() == CHEAP["path_gauge"]]
    _, report = run.traced_round(verify, catalog, disk)
    assert run.layer_metrics(report, 0.0)["geometry.metric_path_gauge.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "interior",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_setup_probe_reports_raw_and_reference_seconds():
    args = run.parse_args(["--workload", "slice_limits", "--seed", "3"])
    setup = run.measure_setup(args)
    assert 0.0 < setup["raw_s"] < 60.0 and 0.0 < setup["ref_s"] < 60.0
