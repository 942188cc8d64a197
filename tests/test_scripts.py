"""The scripts under scripts/ run against the current API."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_slice_limit_profiles_prints_samples_and_limit(monkeypatch, capsys):
    script = _load("slice_limit_profiles")
    monkeypatch.setattr(script, "CASES", [("geometric_cone", {"link": "s1", "theta": 0.5}, 1)])
    script.run()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "geometric_cone(link=s1,theta=0.5)  (family cone)"
    assert [line.split("=")[0] for line in lines[1:7]] == ["  r "] * 6
    assert float(lines[1].split()[2]) == 0.5
    head, value = lines[7].split(":")
    assert head == "  extrapolated limit"
    # plus-convention limit of the flat cone of angle 1/2: -pi
    assert float(value) == pytest.approx(-math.pi, rel=1e-6)
    assert lines[8:] == [""]


def test_convergence_study_writes_csv(tmp_path, capsys):
    script = _load("convergence_study")
    out = tmp_path / "c.csv"
    script.study(2, 1, out)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("S^2 level 1: chi = ")
    fields = lines[0].split()
    chi, err = float(fields[5]), float(fields[8])
    # level 1 is the coarsest mesh: chi = 1.845 there
    assert chi == pytest.approx(2.0, abs=0.2)
    assert err == pytest.approx(abs(chi - 2.0), rel=1e-3)
    assert lines[1] == f"wrote {out}"
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2
    assert rows[0] == "level,nodes,value,diff,order"
    # the level-1 cylinder chart of the 2-sphere has 24 x 4 nodes
    level, nodes, value, diff, order = rows[1].split(",")
    assert (level, nodes, diff, order) == ("1", "96", "", "")
    assert float(value) == pytest.approx(chi, abs=1e-12)
