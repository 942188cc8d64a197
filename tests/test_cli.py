"""Command-line interface: subcommands, exit codes, report determinism."""

import json

import pytest

from gblab import catalog, verify
from gblab.cli import main


def test_list_mentions_key_entries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "catenoid" in out
    assert "football" in out
    assert "ClosedGB" in out


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


def test_json_byte_identical_across_worker_counts(tmp_path):
    args = ["run", "--filter", "orbifold"]
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(args + ["--workers", "1", "--json", str(p1)]) == 0
    assert main(args + ["--workers", "2", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_registry_error_prints_unquoted(capsys):
    code = main(["run", "--check", "EdgeHorizontal", "--geometry", "edge_horizontal",
                 "beta=-3"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: edge_horizontal needs 1 + beta > 0, got beta=-3.0"]


def test_workers_with_single_check_exit_two(capsys):
    assert main(["run", "--check", "ClosedGB", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_converge_writes_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--check", "ClosedGB", "--geometry", "sphere",
                 "n=2", "--levels", "3", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,nodes,value,diff,order"
    assert len(lines) == 4  # header + one row per level
    # the cylinder chart of the 2-sphere has 24 x 4 nodes at level 1, and
    # each level doubles the count
    assert [int(row.split(",")[1]) for row in lines[1:]] == [96, 192, 384]
    # the value column is the check's chi at that level; level 1 has no diff or order
    chi = verify.run_check("ClosedGB", "sphere", {"n": 2}, level=1).computed["chi"]
    assert lines[1] == f"1,96,{chi!r},,"


def test_converge_diffs_shrink(tmp_path):
    out = tmp_path / "conv.csv"
    main(["converge", "--check", "ClosedGB", "--geometry", "sphere", "n=2",
          "--levels", "4", "--csv", str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    diffs = [float(r.split(",")[3]) for r in rows if r.split(",")[3]]
    assert all(d2 <= d1 * 1.05 for d1, d2 in zip(diffs, diffs[1:]))


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GBLAB_OUT", str(tmp_path))
    main(["run", "--check", "ClosedGB", "--geometry", "flat_torus", "n=2",
          "--json", "sub/report.json"])
    assert (tmp_path / "sub" / "report.json").exists()


def test_config_file_geometry(tmp_path):
    cfg = tmp_path / "geoms.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "geometries": [{"name": "wide_cone", "builtin": "geometric_cone",
                        "params": {"link": "s1", "theta": 0.25}}],
    }), encoding="utf-8")
    code = main(["run", "--check", "ConeGB", "--geometry", "wide_cone",
                 "--level", "2", "--config", str(cfg)])
    assert code == 0
    from gblab import catalog
    catalog._USER_ENTRIES.clear()


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
    for entry in catalog.list_geometries():
        assert main(["describe", entry["name"]]) == 0
        rows = [row for row in capsys.readouterr().out.splitlines() if row.startswith("  field ")]
        fields = catalog.get(entry["name"]).fields
        assert [row.split(" stencil=")[1] for row in rows] == [
            f"order {mf.fd_order}, step {mf.fd_rel_step:g}" for mf in fields]


@pytest.mark.parametrize("consistent,code", [(True, 0), (False, 1)])
def test_calibrate_writes_json_and_exits_on_consistency(tmp_path, monkeypatch, capsys,
                                                         consistent, code):
    derived = dict(verify.EPSILONS)
    if not consistent:
        derived["cone"] = -derived["cone"]
    report = {"frozen": dict(verify.EPSILONS), "derived": derived,
              "anchors": {"disk_chi": 1.0}, "consistent": consistent}
    levels = []
    monkeypatch.setattr(verify, "calibrate", lambda level: levels.append(level) or report)
    out = tmp_path / "cal.json"
    assert main(["calibrate", "--level", "1", "--json", str(out)]) == code
    assert levels == [1]
    assert json.loads(out.read_text(encoding="utf-8")) == report
    text = capsys.readouterr().out
    assert "  anchor disk_chi: 1\n" in text
    assert text.endswith(f"consistent: {consistent}\n")
