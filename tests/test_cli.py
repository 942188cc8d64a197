"""Command-line interface: subcommands, exit codes, report determinism."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gblab import catalog, cli, geometry, quadrature, verify
from gblab.cli import main


def test_list_mentions_key_entries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "catenoid" in out
    assert "football" in out
    assert "ClosedGB" in out
    # one line per parameter, with the domain its schema states
    assert "  sphere\n    n: int 1..4\n    rho: float > 0\n" in out


def test_describe(capsys):
    assert main(["describe", "catenoid"]) == 0
    out = capsys.readouterr().out
    assert "fibered" in out
    assert main(["describe", "nonexistent"]) == 2


def test_describe_prints_the_frozen_orientation_flag(capsys):
    # the edge identities use EPSILONS["edge"] = +1
    assert main(["describe", "edge_product"]) == 0
    assert "epsilon=1," in capsys.readouterr().out
    for entry in catalog.list_geometries():
        spec = catalog.get(entry["name"])
        if spec.collar is not None:
            assert main(["describe", entry["name"]]) == 0
            assert f"epsilon={verify.EPSILONS[spec.family]}," in capsys.readouterr().out


def test_unknown_flags_exit_two(capsys):
    assert main(["run", "--frobnicate"]) == 2
    assert main(["no-such-command"]) == 2
    # a level study is one `run --level L --json` per level; converge is no command
    assert main(["converge", "--check", "ClosedGB", "--levels", "2"]) == 2
    assert "invalid choice: 'converge'" in capsys.readouterr().err
    # a geometry is a catalog name with key=value parameters, and --json is run's one file
    for argv in (["run", "--check", "ClosedGB", "--config", "x.json"], ["run", "--csv", "d"]):
        assert main(argv) == 2
        assert "unrecognized arguments: " in capsys.readouterr().err


def test_unknown_check_exit_two(capsys):
    assert main(["run", "--check", "Bogus"]) == 2


def test_run_single_check_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    result = doc["results"][0]
    assert result["check_id"] == "ClosedGB"
    assert abs(result["computed"]["chi"] - 2.0) < 1e-6
    assert result["pass"] is True
    text = capsys.readouterr().out
    assert "PASS" in text and "summary" in text


def test_the_text_report_prints_the_residual_its_gate_reads(tmp_path, capsys):
    # a relative gate compares residual_rel with tol: EdgeLimit s2 x s1 prints
    # 1.908e-04 next to "(rel tol 0.001)", not its residual_abs 1.506e-02
    out = tmp_path / "report.json"
    assert main(["run", "--filter", "Edge", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    printed = re.findall(r"residual=(\S+) \((rel|abs) tol", capsys.readouterr().out)
    assert len(printed) == len(rows) > 2
    assert {row["tolerance_kind"] for row in rows} == {"rel"}
    for row, (residual, kind) in zip(rows, printed):
        assert (residual, kind) == (f"{row['residual_rel']:.3e}", "rel")
    edge_limit = [i for i, row in enumerate(rows)
                  if row["check_id"] == "EdgeLimit" and row["params"]["base"] == "s2"]
    assert [printed[i][0] for i in edge_limit] == ["1.908e-04"]
    assert f"{rows[edge_limit[0]]['residual_abs']:.3e}" == "1.506e-02"


def test_a_cone_row_prints_its_gated_slice_limit_as_its_value(tmp_path, capsys):
    # ConeGB gates its slice limit against the closed form, so value= is the
    # slice limit: 27.1414059 on link=s3 theta=0.5, not the closed form 27.1414121
    out = tmp_path / "report.json"
    assert main(["run", "--filter", "ConeGB", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    printed = re.findall(r"value=(\S+)", capsys.readouterr().out)
    assert {row["check_id"] for row in rows} == {"ConeGB"}
    assert len(printed) == len(rows) == 5
    assert printed == [f"{row['computed']['slice_limit']:.9g}" for row in rows]
    assert "27.1414059" in printed


# each DEFAULT_SUITE row's gate keys in order, the headline (the text report's value=) first
GATE_TABLE = (
    ("AlgebraIdentities", ("pf_squared_minus_det", "form_vs_matrix_pfaffian", "exact_identities")),
    *[("BoundaryGB", ("chi", "boundary_integral", "two_route_rel_gap"))] * 2,
    *[("ClosedGB", ("pf_integral",))] * 2,
    *[("ClosedGB", ("chi",))] * 2,
    *[("ConeGB", ("slice_limit", "singular_contribution"))] * 2,
    *[("ConeGB", ("slice_limit",))] * 3,
    ("EdgeGB", ("identity_rhs",)),
    ("EdgeHorizontal", ("slice_limit_plus", "reduction_rel_gap")),
    *[("EdgeLimit", ("slice_limit_plus",))] * 2,
    ("FiberedGB", ("identity_rhs", "slice_limit_plus")),
    ("FiberedGB", ("slice_limit_plus",)),
    ("FirstOrderConic", ("identity_rhs",)),
    *[("LensObstruction", ("cone_transgression",))] * 3,
    *[("OrbifoldGB", ("t7_total", "pf_chi_part"))] * 3,
    ("PerturbationStability", ("perturbed_limit",)),
    *[("PhiLimit", ("max_entry_gap",))] * 3,
    ("TransgressionStokes", ("max_pointwise_gap",)),
)


def test_each_default_row_prints_its_first_gate_as_its_value(capsys):
    assert [cid for cid, _ in GATE_TABLE] == [row[0] for row in verify.DEFAULT_SUITE]
    for (check_id, geometry, params, _, _), (_, keys) in zip(verify.DEFAULT_SUITE, GATE_TABLE):
        r = verify.run_check(check_id, geometry, dict(params))
        assert r.passed and tuple(r.gates) == keys, (check_id, params)
        assert set(keys) <= set(r.computed)
        cli._print_result(r)
        assert re.findall(r"value=(\S+)", capsys.readouterr().out) == [
            f"{r.computed[keys[0]]:.9g}"]


def test_a_gate_over_its_own_bound_prints_its_note_and_exits_one(capsys, monkeypatch):
    # the trapezoid rule in s: disk 4's two routes part by 9.77e-4, inside the row's 1e-3
    h = geometry.S_NODES[1] - geometry.S_NODES[0]
    monkeypatch.setattr(geometry, "S_WEIGHTS", np.array([h / 2, *[h] * (geometry.S_NODES.size - 2),
                                                         h / 2]))
    assert main(["run", "--check", "BoundaryGB", "--geometry", "disk", "dim=4"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[FAIL] BoundaryGB") and "residual=9.766e-04 (abs tol" in printed[0]
    assert printed[1] == "        gate two_route_rel_gap: 9.766e-04 > 1e-10"


def test_a_report_rows_params_replay_on_the_command_line(capsys):
    # the PhiLimit row on cone_perturbed_second_order records link=s1
    argv = ["run", "--check", "PhiLimit", "--geometry", "cone_perturbed_second_order", "link=s1"]
    assert main(argv) == 0
    assert "[PASS] PhiLimit" in capsys.readouterr().out


def test_run_failure_exit_code(tmp_path):
    code = main(["run", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
                 "--level", "1", "--tol", "1e-18"])
    assert code == 1


def test_a_crashed_check_prints_its_note_and_exits_one(capsys, monkeypatch):
    # a check that raises is a failed row of value inf, with its note indented below
    def crash(spec, level, tol):
        raise FloatingPointError("no value at this level")

    monkeypatch.setitem(verify.CHECKS, "ClosedGB", crash)
    assert main(["run", "--check", "ClosedGB", "--geometry", "sphere", "n=2"]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[FAIL] ClosedGB") and "value=inf " in printed[0]
    assert printed[1] == "        check failed: FloatingPointError: no value at this level"


def test_tol_override_recorded(tmp_path):
    out = tmp_path / "r.json"
    main(["run", "--check", "ClosedGB", "--geometry", "flat_torus", "n=2",
          "--tol", "0.5", "--json", str(out)])
    doc = json.loads(out.read_text())
    assert doc["results"][0]["tolerance"] == 0.5
    assert doc["meta"]["tol"] == 0.5


def test_registry_error_prints_unquoted(capsys):
    code = main(["run", "--check", "EdgeHorizontal", "--geometry", "edge_horizontal",
                 "beta=-3"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: edge_horizontal needs 1 + beta > 0, got beta=-3.0"]


def test_cone_parameter_its_profile_ignores_exits_two(capsys):
    argv = ["run", "--check", "ConeGB", "--geometry", "cone", "profile=first_order", "a=0.3",
            "theta=0.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cone theta must be 1 unless profile=linear, got theta=0.5\n")


def test_a_level_whose_nodes_crowd_the_stencil_exits_two(capsys):
    argv = ["run", "--check", "ClosedGB", "--geometry", "sphere", "n=2", "--level", "7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: level 7 puts mesh nodes of chart 'sphere2-cylinder' within the "
        "finite-difference stencil's reach of its edge; its largest clean level is 6\n")


def test_a_mesh_over_the_node_budget_exits_two_before_it_is_built(monkeypatch, capsys):
    # sphere n=4 at level 7 would take 512^3 = 134,217,728 nodes
    def unbuilt(chart, mesh):
        raise AssertionError("a refused mesh was built")

    monkeypatch.setattr(quadrature, "_mesh_points", unbuilt)
    argv = ["run", "--check", "ClosedGB", "--geometry", "sphere", "n=4", "--level", "7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: level 7 meshes chart 'sphere4-polar-angles' with 134,217,728 nodes, over "
        "the budget of 4,194,304; its largest level within the budget is 5\n")


def test_level_range_is_read_from_quadrature_levels(monkeypatch, capsys):
    monkeypatch.setattr(quadrature, "LEVELS", range(1, 4))
    assert main(["run", "--check", "ClosedGB", "--level", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --level must be in 1..3\n" and captured.out == ""


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GBLAB_OUT", str(tmp_path))
    main(["run", "--check", "ClosedGB", "--geometry", "flat_torus", "n=2",
          "--json", "sub/report.json"])
    assert (tmp_path / "sub" / "report.json").exists()


# the whole message of a usage error that a row names by a fragment
_WHOLE = {"--geometry and key=value": "--geometry and key=value parameters apply to --check runs",
          "--filter apply to suite runs": "--filter applies to suite runs, not to --check"}


@pytest.mark.parametrize("argv,message", [
    (["--geometry", "sphere", "n=4", "--filter", "Orbifold"], "--geometry and key=value"),
    (["n=4"], "--geometry and key=value"),
    (["--check", "ClosedGB", "--filter", "Orbifold"], "--filter apply to suite runs"),
    (["--filter", "Orbifold", "--level", "0"], "--level must be in 1..7"),
    (["--check", "OrbifoldGB", "--level", "0"], "--level must be in 1..7"),
    (["--filter", "Orbifold", "--level", "9"], "--level must be in 1..7"),
    (["--check", "PhiLimit", "--geometry", "catenoid", "--tol", "inf"],
     "--tol must be finite and >= 0"),
    (["--check", "PhiLimit", "--geometry", "catenoid"], "PhiLimit needs a collapsing collar"),
    (["--filter", "Orbifold", "--tol", "nan"], "--tol must be finite and >= 0"),
    (["--check", "OrbifoldGB", "--tol=-1e-3"], "--tol must be finite and >= 0"),
    (["--check", "ConeGB", "--geometry", "wide_cone"], "unknown geometry 'wide_cone'"),
    (["--check", "EdgeHorizontal", "--geometry", "edge_horizontal", "base=s1", "fiber=s1"],
     "EdgeHorizontal needs an odd-dimensional slice N = F x B"),
    (["--filter", "Cones"], "filter 'Cones' matches no check id"),
])
def test_options_of_the_other_run_kind_exit_two(argv, message, capsys):
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_WHOLE.get(message, message)}\n" and captured.out == ""


def test_describe_prints_each_fields_stencil(capsys):
    assert main(["describe", "football"]) == 0
    (line,) = [row for row in capsys.readouterr().out.splitlines() if row.startswith("  field ")]
    assert line.startswith("  field sphere2-cylinder: bounds=((-14.0, 14.0), ")
    assert line.endswith(" periodic=(False, True) stencil=order 4, step 5e-05")
    # the fibration's factor fields and a cone's link print on lines of their own
    prefixes = ("  fibration base ", "  fibration fiber ", "  cone link ")
    for entry in catalog.list_geometries():
        assert main(["describe", entry["name"]]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [row for row in out if row.startswith("  field ")]
        spec = catalog.get(entry["name"])
        assert [row.split(" stencil=")[1] for row in rows] == [
            f"order {mf.fd_order}, step {mf.fd_rel_step:g}" for mf in spec.fields]
        fib = spec.collar.fibration if spec.collar else None
        refs = (fib and fib.base, fib and fib.fiber, spec.link)
        assert [row for row in out if row.startswith(prefixes)] == [
            f"{prefix}{mf.chart.name}: bounds={mf.chart.bounds} periodic={mf.chart.periodic} "
            f"stencil=order {mf.fd_order}, step {mf.fd_rel_step:g}"
            for prefix, mf in zip(prefixes, refs) if mf is not None]


def test_readme_command_block_names_exactly_the_registered_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("gblab ")]
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in commands} == set(sub.choices) == {
        "list", "describe", "run"}
    # every line parses as shown (an option the parser lacks exits 2); none is run
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
