"""Batch interface: list geometries, run checks, convergence studies, reports.

Exit codes: 0 when every executed check passes, 1 on check failure, 2 on
usage or configuration errors.  JSON output is byte-stable for a fixed run
configuration, independent of the number of suite processes (--workers).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog, verify
from .quadrature import ConvergenceTable, mesh_for_chart

OUTPUT_DIR_ENV = "GBLAB_OUT"


def _out_path(raw: str) -> Path:
    p = Path(raw)
    if not p.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _parse_params(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"geometry parameter {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gblab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list geometries and checks")

    p_desc = sub.add_parser("describe", help="describe one geometry")
    p_desc.add_argument("geometry")

    p_run = sub.add_parser("run", help="run checks")
    p_run.add_argument("--check", action="append", default=None,
                       help="check id (repeatable); default: full suite")
    p_run.add_argument("--geometry", default=None, help="geometry name")
    p_run.add_argument("params", nargs="*", help="geometry parameters key=value")
    p_run.add_argument("--level", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--json", dest="json_path", default=None)
    p_run.add_argument("--csv", dest="csv_dir", default=None)
    p_run.add_argument("--workers", type=int, default=1,
                       help="processes for the suite run (not with --check)")
    p_run.add_argument("--config", default=None, help="geometry config file (JSON)")
    p_run.add_argument("--filter", default="", help="substring filter on check ids")

    p_conv = sub.add_parser("converge", help="refinement study for one check")
    p_conv.add_argument("--check", required=True)
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--geometry", default=None)
    p_conv.add_argument("params", nargs="*")
    p_conv.add_argument("--csv", dest="csv_path", default=None)

    p_cal = sub.add_parser("calibrate", help="re-derive the orientation flags")
    p_cal.add_argument("--level", type=int, default=2)
    p_cal.add_argument("--json", dest="json_path", default=None)
    return ap


def _print_result(r) -> None:
    mark = "PASS" if r.passed else "FAIL"
    primary = _primary_value(r)
    print(f"[{mark}] {r.check_id:<22s} {r.geometry}{_param_str(r.params)}  "
          f"value={primary:.9g}  residual={r.residual_abs:.3e} "
          f"({r.tolerance_kind} tol {r.tolerance:g})")
    for note in r.notes:
        if note.startswith("check failed"):
            print(f"        {note}")


def _param_str(params) -> str:
    if not params:
        return ""
    return "(" + ",".join(f"{k}={params[k]}" for k in sorted(params)) + ")"


def _primary_value(r) -> float:
    for key in ("chi", "closed_form", "t7_total", "cone_transgression",
                "identity_rhs", "max_pointwise_gap", "max_entry_gap",
                "perturbed_limit", "slice_limit_plus", "pf_squared_minus_det",
                "pf_integral"):
        v = r.computed.get(key)
        if isinstance(v, (int, float)):
            return float(v)
    return r.residual_abs


def _write_csvs(results, csv_dir: str) -> None:
    base = _out_path(csv_dir)
    base.mkdir(parents=True, exist_ok=True)
    for r in results:
        for name, rows in r.convergence.items():
            if not rows:
                continue
            fname = f"{r.check_id}_{r.geometry}{_param_str(r.params)}_{name}.csv"
            fname = fname.replace("/", "-").replace(" ", "")
            keys = sorted(rows[0])
            lines = [",".join(keys)]
            for row in rows:
                lines.append(",".join(repr(row[k]) for k in keys))
            (base / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_list() -> int:
    print("geometries:")
    for entry in catalog.list_geometries():
        keys = ", ".join(f"{k}: {v}" for k, v in sorted(entry["params"].items()))
        print(f"  {entry['name']:<28s} {keys}")
    print("checks:")
    for cid in verify.CHECK_IDS:
        print(f"  {cid}")
    return 0


def cmd_describe(args) -> int:
    try:
        spec = catalog.get(args.geometry)
    except catalog.RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.name}: family={spec.family} weight={spec.symmetry_weight} "
          f"chi_ref={spec.chi_ref}")
    for mf in spec.fields:
        print(f"  field {mf.chart.name}: bounds={mf.chart.bounds} periodic={mf.chart.periodic} "
              f"stencil=order {mf.fd_order}, step {mf.fd_rel_step:g}")
    if spec.collar is not None:
        print(f"  collar over {spec.collar.boundary_chart.name}: "
              f"r in {spec.collar.r_interval}, epsilon={verify.EPSILONS[spec.family]}, "
              f"singular_end={spec.collar.singular_end}")
    if spec.chi_pieces:
        print(f"  chi pieces: {spec.chi_pieces}")
    if spec.notes:
        print(f"  notes: {spec.notes}")
    return 0


def cmd_run(args) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.check and args.workers > 1:
        print("error: --workers applies to suite runs, not to --check", file=sys.stderr)
        return 2
    if args.config:
        catalog.register_from_config(args.config)
    params = _parse_params(args.params)
    results = []
    if args.check:
        for cid in args.check:
            if cid not in verify.CHECKS:
                print(f"error: unknown check {cid!r}", file=sys.stderr)
                return 2
            try:
                results.append(verify.run_check(
                    cid, geometry=args.geometry, params=params or None,
                    level=args.level, tol=args.tol))
            except (verify.ConfigurationError, catalog.RegistryError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        suite = verify.SuiteResult(results)
    else:
        suite = verify.run_suite(filter_text=args.filter, level=args.level,
                                 tol=args.tol, workers=args.workers)
        results = suite.results
    for r in results:
        _print_result(r)
    print(f"orientation flags: {verify.EPSILONS}")
    print(f"summary: {suite.passed} passed, {suite.failed} failed")
    if args.json_path:
        doc = verify.suite_to_json_dict(suite, meta={
            "command": "run", "level": args.level, "tol": args.tol,
            "filter": args.filter if not args.check else None,
            "checks": args.check, "geometry": args.geometry,
        })
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _out_path(args.json_path).write_text(payload, encoding="utf-8")
    if args.csv_dir:
        _write_csvs(results, args.csv_dir)
    return 0 if suite.failed == 0 else 1


def cmd_converge(args) -> int:
    if args.check not in verify.CHECKS:
        print(f"error: unknown check {args.check!r}", file=sys.stderr)
        return 2
    if not (1 <= args.levels <= 7):
        print("error: --levels must be in 1..7", file=sys.stderr)
        return 2
    params = _parse_params(args.params)
    table = ConvergenceTable()
    last = None
    spec = verify.resolve_spec(args.check, args.geometry, params or None)
    for level in range(1, args.levels + 1):
        last = verify.run_check(args.check, geometry=spec, level=level)
        nodes = sum(mesh_for_chart(mf.chart, level).total_nodes for mf in spec.fields)
        table.add(level, nodes, _primary_value(last))
        row = table.rows[-1]
        diff = "" if row[3] is None else f" diff={row[3]:.3e}"
        print(f"level {level}: value={row[2]:.12g}{diff}")
    if args.csv_path:
        _out_path(args.csv_path).write_text(table.to_csv(), encoding="utf-8")
    return 0 if last is not None and last.passed else 1


def cmd_calibrate(args) -> int:
    report = verify.calibrate(level=args.level)
    print("orientation flags (frozen):", report["frozen"])
    print("orientation flags (derived):", report["derived"])
    for name, value in sorted(report["anchors"].items()):
        print(f"  anchor {name}: {value:.6g}")
    print("consistent:", report["consistent"])
    if args.json_path:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        _out_path(args.json_path).write_text(payload, encoding="utf-8")
    return 0 if report["consistent"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "describe":
            return cmd_describe(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "converge":
            return cmd_converge(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
    except (catalog.RegistryError, verify.ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
