"""Batch interface: list geometries, run checks, convergence studies, reports.

Exit codes: 0 when every executed check passes, 1 on check failure, 2 on
usage or configuration errors.  JSON output is byte-stable for a fixed run
configuration: the suite runs in one process, and no process state enters a value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import catalog, verify
from .quadrature import LEVELS

OUTPUT_DIR_ENV = "GBLAB_OUT"


def _out_path(raw: str) -> Path:
    p = Path(raw)
    if not p.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _check_level(value: int, option: str) -> None:
    if value not in LEVELS:
        raise ValueError(f"{option} must be in {LEVELS.start}..{LEVELS.stop - 1}")


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

    sub.add_parser("list", help="list geometries and checks").set_defaults(func=cmd_list)

    p_desc = sub.add_parser("describe", help="describe one geometry")
    p_desc.add_argument("geometry")
    p_desc.set_defaults(func=cmd_describe)

    p_run = sub.add_parser("run", help="run checks")
    p_run.add_argument("--check", action="append", default=None,
                       help="check id (repeatable); default: full suite")
    p_run.add_argument("--geometry", default=None, help="geometry name")
    p_run.add_argument("params", nargs="*", help="geometry parameters key=value")
    p_run.add_argument("--level", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--json", dest="json_path", default=None)
    p_run.add_argument("--csv", dest="csv_dir", default=None)
    p_run.add_argument("--config", default=None,
                       help="geometry aliases (JSON) for the --check run")
    p_run.add_argument("--filter", default="", help="substring filter on check ids")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge", help="refinement study for one check")
    p_conv.add_argument("--check", required=True)
    p_conv.add_argument("--levels", type=int, required=True)
    p_conv.add_argument("--geometry", default=None)
    p_conv.add_argument("params", nargs="*")
    p_conv.add_argument("--csv", dest="csv_path", default=None)
    p_conv.set_defaults(func=cmd_converge)
    return ap


def _print_result(r) -> None:
    mark = "PASS" if r.passed else "FAIL"
    primary = _primary_value(r)
    print(f"[{mark}] {r.check_id:<22s} {r.geometry}{_param_str(r.params)}  "
          f"value={primary:.9g}  residual={r.residual_abs:.3e} "
          f"({r.tolerance_kind} tol {r.tolerance:g})")
    _print_failure_notes(r)


def _print_failure_notes(r) -> None:
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


def cmd_list(args) -> int:
    print("geometries:")
    for entry in catalog.list_geometries():
        print(f"  {entry['name']}")
        for key, domain in sorted(entry["params"].items()):
            print(f"    {key}: {domain}")
    print("checks:")
    for cid in verify.CHECK_IDS:
        print(f"  {cid}")
    return 0


def _field_str(mf) -> str:
    return (f"{mf.chart.name}: bounds={mf.chart.bounds} periodic={mf.chart.periodic} "
            f"stencil=order {mf.fd_order}, step {mf.fd_rel_step:g}")


def cmd_describe(args) -> int:
    spec = catalog.get(args.geometry)
    print(f"{spec.name}: family={spec.family} weight={spec.symmetry_weight} "
          f"chi_ref={spec.chi_ref}")
    for mf in spec.fields:
        print(f"  field {_field_str(mf)}")
    if spec.collar is not None:
        print(f"  collar over {spec.collar.boundary_chart.name}: "
              f"r in {spec.collar.r_interval}, epsilon={verify.EPSILONS[spec.family]}, "
              f"singular_end={spec.collar.singular_end}")
        fib = spec.collar.fibration
        for role, mf in (("base", fib and fib.base), ("fiber", fib and fib.fiber)):
            if mf is not None:
                print(f"  fibration {role} {_field_str(mf)}")
    if spec.link is not None:
        print(f"  cone link {_field_str(spec.link)}")
    if spec.chi_pieces:
        print(f"  chi pieces: {spec.chi_pieces}")
    if spec.notes:
        print(f"  notes: {spec.notes}")
    return 0


def cmd_run(args) -> int:
    if args.level is not None:
        _check_level(args.level, "--level")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and >= 0")
    if args.check and args.filter:
        raise ValueError("--filter applies to suite runs, not to --check")
    if not args.check and (args.geometry or args.params):
        raise ValueError("--geometry and key=value parameters apply to --check runs")
    if not args.check and args.config:
        raise ValueError("--config applies to --check runs")
    aliases = catalog.read_config(args.config) if args.config else {}
    geometry, params = args.geometry, _parse_params(args.params)
    if geometry in aliases:
        geometry, stored = aliases[geometry]
        params = {**stored, **params}
    if args.check:
        suite = verify.SuiteResult([
            verify.run_check(cid, geometry=geometry, params=params or None,
                             level=args.level, tol=args.tol) for cid in args.check])
    else:
        suite = verify.run_suite(filter_text=args.filter, level=args.level, tol=args.tol)
    for r in suite.results:
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
        _write_csvs(suite.results, args.csv_dir)
    return 0 if suite.failed == 0 else 1


def cmd_converge(args) -> int:
    _check_level(args.levels, "--levels")
    params = _parse_params(args.params)
    lines = ["level,value,diff,order"]
    prev = prev_diff = None
    spec = verify.resolve_spec(args.check, args.geometry, params or None)
    for level in range(1, args.levels + 1):
        last = verify.run_check(args.check, geometry=spec, level=level)
        value = _primary_value(last)
        diff = None if prev is None else abs(value - prev)
        # an order needs two finite, nonzero diffs; a failed level's value is inf
        pair = [d for d in (prev_diff, diff) if d is not None and 0.0 < d < math.inf]
        order = math.log2(pair[0] / pair[1]) if len(pair) == 2 else None
        cells = ("" if v is None else repr(v) for v in (diff, order))
        lines.append(f"{level},{value!r}," + ",".join(cells))
        print(f"level {level}: value={value:.12g}" + ("" if diff is None else f" diff={diff:.3e}"))
        _print_failure_notes(last)
        prev, prev_diff = value, diff
    if args.csv_path:
        _out_path(args.csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0 if last.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (catalog.RegistryError, verify.ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
