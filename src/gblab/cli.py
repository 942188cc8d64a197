"""Batch interface: list geometries, describe one, run checks and write reports.

A geometry is named one way, as a catalog name with key=value parameters,
and a run writes one report: its text lines and, with --json, the same rows
as JSON, each with its convergence samples.

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
from .quadrature import check_level

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
    p_run.add_argument("--filter", default="", help="substring filter on check ids")
    p_run.set_defaults(func=cmd_run)
    return ap


def _print_result(r) -> None:
    mark = "PASS" if r.passed else "FAIL"
    # the headline gate's computed value; a crashed row has no gates and prints its inf
    value = r.computed[next(iter(r.gates))] if r.gates else r.residual_abs
    # the residual its gate compares with tol
    residual = r.residual_rel if r.tolerance_kind == "rel" else r.residual_abs
    print(f"[{mark}] {r.check_id:<22s} {r.geometry}{_param_str(r.params)}  "
          f"value={value:.9g}  residual={residual:.3e} "
          f"({r.tolerance_kind} tol {r.tolerance:g})")
    for note in r.notes:
        if note.startswith(("check failed", "gate ")):
            print(f"        {note}")


def _param_str(params) -> str:
    if not params:
        return ""
    return "(" + ",".join(f"{k}={params[k]}" for k in sorted(params)) + ")"


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
        check_level(args.level, "--level")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and >= 0")
    if args.check and args.filter:
        raise ValueError("--filter applies to suite runs, not to --check")
    if not args.check and (args.geometry or args.params):
        raise ValueError("--geometry and key=value parameters apply to --check runs")
    params = _parse_params(args.params)
    if args.check:
        suite = verify.SuiteResult([
            verify.run_check(cid, geometry=args.geometry, params=params or None,
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
    return 0 if suite.failed == 0 else 1


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
