"""The scripts under scripts/ run against the current API."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_every_script_imports(name):
    # a script whose imports drift from the package API fails here
    assert _load(name).__doc__


def test_bench_records_every_run_of_a_stub_command(tmp_path, monkeypatch, capsys):
    script = _load("bench")
    # the stub prints some noise and then its arguments as the final JSON line
    stub = "import json, sys; print('# noise'); print(json.dumps({'argv': sys.argv[1:]}))"
    monkeypatch.setattr(script, "COMMAND", [sys.executable, "-c", stub])
    out = tmp_path / "BENCH.json"
    assert script.main([str(out), str(SCRIPTS.parent)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["machine"]) == {"cpu_count", "python", "numpy", "platform"}
    (record,) = doc["checkouts"]
    assert record["sha"] is None or (len(record["sha"]) == 40 and record["dirty"] in (True, False))
    assert record["wc_l"][-1].split()[-1] == "total"
    assert any(line.endswith("src/gblab/geometry.py") for line in record["wc_l"])
    runs = [(r["workload"], r["trace"]) for r in record["runs"]]
    assert runs == [(w, t) for w in ("interior", "slice_limits", "path_gauge") for t in (0, 1)]
    for r in record["runs"]:
        assert r["result"] == {"argv": ["--workload", r["workload"], "--seed", "0",
                                        "--trace", str(r["trace"])]}
    assert len(capsys.readouterr().out.splitlines()) == 6


def _report(rows, passed=None):
    results = [{"check_id": c, "geometry": g, "params": p, "computed": comp,
                "reference": {"chi": 2}, "residual_abs": res, "residual_rel": res / 2,
                "tolerance": 1e-3, "tolerance_kind": "abs", "pass": ok,
                "convergence": {}, "epsilon_notes": {}, "notes": ["n"]}
               for c, g, p, comp, res, ok in rows]
    n_pass = sum(r["pass"] for r in results) if passed is None else passed
    return {"meta": {"command": "run"}, "epsilons": {"cone": -1},
            "summary": {"passed": n_pass, "failed": len(results) - n_pass,
                        "total": len(results)},
            "results": results}


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def test_suite_diff_reports_identity_round_off_and_changed_fields(tmp_path, capsys):
    script = _load("suite_diff")
    rows = [("ClosedGB", "sphere", {"n": 2}, {"chi": 2.0000001, "label": "ok"}, 1e-7, True),
            ("ConeGB", "cone", {"theta": 0.5}, {"lk": [6.25, 3.0]}, 2e-5, True)]
    a = _write(tmp_path / "a.json", _report(rows))
    assert script.main([a, _write(tmp_path / "b.json", _report(rows))]) == 0
    assert capsys.readouterr().out == "identical\n"

    # round-off: only numbers move, so the exit code stays 0
    moved = [rows[0], rows[1][:3] + ({"lk": [6.25, 3.0 + 3e-12]}, 2e-5 * (1 + 1e-9), True)]
    assert script.main([a, _write(tmp_path / "c.json", _report(moved))]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("paired 2 rows; max rel diff 1e-12 at ConeGB cone")
    assert line.endswith("computed.lk.1: 3.0 -> 3.000000000003")

    # a flipped pass flag, a changed string and a missing row all exit 1
    flipped = [rows[0][:3] + ({"chi": 2.0000001, "label": "bad"}, 1e-7, False)]
    assert script.main([a, _write(tmp_path / "d.json", _report(flipped))]) == 1
    out = capsys.readouterr().out
    assert "every numeric leaf is equal" in out
    assert "row only in A: ConeGB cone" in out
    assert "ClosedGB sphere {\"n\": 2}: pass: True != False" in out
    assert "computed.label: 'ok' != 'bad'" in out
    assert "report field summary.passed: 2 != 0" in out


def test_line_coverage_lists_the_lines_a_run_never_reaches():
    from gblab import verify

    script = _load("line_coverage")
    paths = (str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "line_coverage.py"), "-m", "gblab.cli",
                           "run", "--filter", "AlgebraIdentities"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    (line,) = [row for row in proc.stdout.splitlines() if row.startswith("gblab.verify:")]
    not_run = set()
    for span in line.split(": ")[-1].split(", "):
        lo, _, hi = span.partition("-")
        not_run.update(range(int(lo), int(hi or lo) + 1))
    executable = script.executable_lines(verify.__file__)

    def body(fn):
        source, first = inspect.getsourcelines(fn)
        return {n for n in range(first + 1, first + len(source)) if n in executable}

    assert body(verify.check_closed_gb) <= not_run
    # only the branches that record a failed identity stay unreached
    source = Path(verify.__file__).read_text(encoding="utf-8").splitlines()
    missed = body(verify.check_algebra_identities) & not_run
    assert missed and all("failures.append" in source[n - 1] for n in missed)
