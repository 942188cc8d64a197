"""Command-line interface: subcommands, exit codes, report determinism."""

import argparse
import json
from pathlib import Path

import pytest

from gblab import catalog, cli, verify
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


def test_a_report_rows_params_replay_on_the_command_line(capsys):
    # the PhiLimit row on cone_perturbed_second_order records link=s1
    argv = ["run", "--check", "PhiLimit", "--geometry", "cone_perturbed_second_order", "link=s1"]
    assert main(argv) == 0
    assert "[PASS] PhiLimit" in capsys.readouterr().out


def test_run_failure_exit_code(tmp_path):
    code = main(["run", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
                 "--level", "1", "--tol", "1e-18"])
    assert code == 1


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


def test_level_range_is_read_from_quadrature_levels(monkeypatch, capsys):
    monkeypatch.setattr(cli, "LEVELS", range(1, 4))
    assert main(["run", "--check", "ClosedGB", "--level", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --level must be in 1..3\n" and captured.out == ""


@pytest.mark.parametrize("argv,message", [
    (["--check", "NoSuchCheck", "--levels", "2"], "unknown check 'NoSuchCheck'"),
    (["--check", "ClosedGB", "--levels", "0"], "--levels must be in 1..7"),
    (["--check", "ClosedGB", "--levels", "8"], "--levels must be in 1..7"),
])
def test_converge_usage_errors_exit_two(argv, message, capsys):
    assert main(["converge", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_converge_writes_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--check", "ClosedGB", "--geometry", "sphere",
                 "n=2", "--levels", "3", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,value,diff,order"
    assert len(lines) == 4  # header + one row per level
    assert [int(row.split(",")[0]) for row in lines[1:]] == [1, 2, 3]
    # the value column is the check's chi at that level; level 1 has no diff or order
    chi = verify.run_check("ClosedGB", "sphere", {"n": 2}, level=1).computed["chi"]
    assert lines[1] == f"1,{chi!r},,"


def test_converge_writes_a_failed_levels_row_and_exits_one(tmp_path, capsys):
    # at level 7 the outermost Gauss node's order-4 stencil leaves the sphere's chart
    out = tmp_path / "c.csv"
    assert main(["converge", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
                 "--levels", "7", "--csv", str(out)]) == 1
    rows = out.read_text().splitlines()
    assert len(rows) == 8 and rows[-1] == "7,inf,inf,"
    assert all(row.split(",")[3] for row in rows[3:-1])  # levels 3..6 have an order
    printed = capsys.readouterr().out.splitlines()
    assert printed[-2] == "level 7: value=inf diff=inf"
    assert printed[-1].startswith("        check failed: DomainError: finite-difference stencil "
                                  "leaves chart 'sphere2-cylinder'")


def test_converge_diffs_shrink(tmp_path):
    out = tmp_path / "conv.csv"
    main(["converge", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
          "--levels", "4", "--csv", str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    diffs = [float(r.split(",")[2]) for r in rows if r.split(",")[2]]
    assert all(d2 <= d1 * 1.05 for d1, d2 in zip(diffs, diffs[1:]))


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GBLAB_OUT", str(tmp_path))
    main(["run", "--check", "ClosedGB", "--geometry", "flat_torus", "n=2",
          "--json", "sub/report.json"])
    assert (tmp_path / "sub" / "report.json").exists()


def test_config_file_geometry(tmp_path, capsys):
    cfg = tmp_path / "geoms.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "geometries": [{"name": "wide_cone", "builtin": "geometric_cone",
                        "params": {"link": "s1", "theta": 0.25}}],
    }), encoding="utf-8")
    code = main(["run", "--check", "ConeGB", "--geometry", "wide_cone",
                 "--level", "2", "--config", str(cfg)])
    assert code == 0
    # key=value parameters go on top of the alias's stored ones
    out = tmp_path / "r.json"
    assert main(["run", "--check", "ConeGB", "--geometry", "wide_cone", "theta=0.5",
                 "--level", "1", "--config", str(cfg), "--json", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert (result["geometry"], result["params"]) == (
        "geometric_cone", {"link": "s1", "theta": 0.5})
    # the aliases hold for that one call: the next call in the process has none
    capsys.readouterr()
    assert main(["run", "--check", "ConeGB", "--geometry", "wide_cone", "--level", "1"]) == 2
    assert capsys.readouterr().err == "error: unknown geometry 'wide_cone'\n"


@pytest.mark.parametrize("doc,message", [
    ({"schema_version": 1, "geometries": [{"builtin": "sphere"}]}, "config entry 0 ("),
    ([{"name": "x", "builtin": "sphere"}], "is not a JSON object"),
    ({"schema_version": 1, "geometries": [{"name": "x", "builtin": "sphere", "params": [1]}]},
     "config entry 0 ("),
    ({"schema_version": 1, "geometries": {"name": "x"}}, "must be a list"),
    ({"schema_version": 1, "geometries": [{"name": "x", "builtin": "sphere"}, "y"]},
     "config entry 1 ('y')"),
])
def test_malformed_config_exits_two(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--check", "ClosedGB", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["run", "--check", "ClosedGB", "--config", str(tmp_path / "none.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "none.json" in err


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
    (["--config", "x.json"], "--config applies to --check runs"),
    (["--check", "EdgeHorizontal", "--geometry", "edge_horizontal", "base=s1", "fiber=s1"],
     "EdgeHorizontal needs an odd-dimensional slice N = F x B"),
])
def test_options_of_the_other_run_kind_exit_two(argv, message, capsys):
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_WHOLE.get(message, message)}\n" and captured.out == ""


def test_run_csv_dir(tmp_path):
    csvdir = tmp_path / "tables"
    code = main(["run", "--check", "ConeGB", "--geometry", "geometric_cone",
                 "link=s1", "theta=1.0", "--level", "2", "--csv", str(csvdir)])
    assert code == 0
    files = list(csvdir.glob("*.csv"))
    assert files
    header = files[0].read_text().splitlines()[0]
    assert "r" in header and "value" in header


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
        "list", "describe", "run", "converge"}
    # every line parses as shown (an option the parser lacks exits 2); none is run
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
