"""Benchmark of the gblab check engine.

    python3 perfbench/run.py --workload interior --seed 0 --seconds 10 --trace 0

Runs the workload's verification instances through `verify.run_check` in
whole rounds until --seconds have passed (at least one round), checks every
result against the closed forms in workloads.py, prints every metric with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced and
one traced round and reports the per-layer metrics; the spans and counters
go to perfbench/results/ when the run ends.  gblab is imported from the
src/ directory next to perfbench/; without it the command exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# One BLAS thread, set before numpy is first imported: the benchmark measures
# a single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SETUP_PROBES = 7
ENGINE_KERNEL = speed.make_engine_kernel()

# (metric, unit) reported with --trace 0.  setup_s, wall_ref_s and cpu_ref_s
# are normalised to the reference speed of speed.py; raw times are printed too.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_digits", "digits"),
)

# Wrapped functions: (name, module, attribute path, span, extra count).
TARGETS = (
    ("catalog.get", "catalog", "get", False, None),
    ("geometry.riemann_double_form", "geometry", "riemann_double_form", False, None),
    ("geometry.metric_path_gauge", "geometry", "metric_path_gauge", False, None),
    ("geometry.Slice.at", "geometry", "Slice.at", False, None),
    ("geometry.phi_conjugated_connection", "geometry", "phi_conjugated_connection", False, None),
    ("geometry.christoffel", "geometry", "christoffel", False, None),
    ("invariants.pfaffian_form", "invariants", "pfaffian_form", False, None),
    ("invariants.boundary_correction_form", "invariants", "boundary_correction_form", False, None),
    ("invariants.path_transgression_form", "invariants", "path_transgression_form", False, None),
    ("invariants.lipschitz_killing_form", "invariants", "lipschitz_killing_form", False, None),
    ("doubleform.wedge", "doubleform", "wedge", False, None),
    ("doubleform.berezin", "doubleform", "berezin", False, None),
    ("doubleform.power", "doubleform", "power", False, None),
    ("quadrature.integrate_chart", "quadrature", "integrate_chart", True,
     lambda args, kwargs: getattr(args[2] if len(args) > 2 else kwargs.get("mesh"),
                                  "total_nodes", 0)),
    ("quadrature.r_limit_extrapolate", "quadrature", "r_limit_extrapolate", False, None),
    ("verify.run_check", "verify", "run_check", True, None),
    ("verify.slice_limit", "verify", "slice_limit", True, None),
    ("verify.pf_integral", "verify", "pf_integral", True, None),
)
# Every registered check becomes a span verify.<CheckId>.
TABLES = (("verify", "verify", "CHECKS"),)

# The checks of all workloads, in workload order.
CHECK_IDS = tuple(dict.fromkeys(
    i.check for w in workloads.WORKLOADS for i in workloads.instances(w, 0)))

# (metric, unit) reported with --trace 1.  The suffix selects the figure:
# calls, s (inclusive), self_s, us_per_call (self), nodes, us_per_node (self).
PER_LAYER = (
    ("geometry.riemann_double_form.calls", "count"),
    ("geometry.riemann_double_form.self_s", "s"),
    ("geometry.riemann_double_form.us_per_call", "us"),
    ("geometry.metric_path_gauge.calls", "count"),
    ("geometry.metric_path_gauge.self_s", "s"),
    ("geometry.metric_path_gauge.us_per_call", "us"),
    ("geometry.Slice.at.calls", "count"),
    ("geometry.Slice.at.self_s", "s"),
    ("geometry.phi_conjugated_connection.calls", "count"),
    ("geometry.phi_conjugated_connection.s", "s"),
    ("geometry.christoffel.calls", "count"),
    ("invariants.pfaffian_form.calls", "count"),
    ("invariants.pfaffian_form.self_s", "s"),
    ("invariants.boundary_correction_form.calls", "count"),
    ("invariants.boundary_correction_form.self_s", "s"),
    ("invariants.path_transgression_form.calls", "count"),
    ("invariants.path_transgression_form.self_s", "s"),
    ("invariants.lipschitz_killing_form.calls", "count"),
    ("doubleform.wedge.calls", "count"),
    ("doubleform.wedge.s", "s"),
    ("doubleform.berezin.calls", "count"),
    ("doubleform.power.calls", "count"),
    ("quadrature.integrate_chart.calls", "count"),
    ("quadrature.integrate_chart.nodes", "count"),
    ("quadrature.integrate_chart.self_s", "s"),
    ("quadrature.integrate_chart.us_per_node", "us"),
    ("quadrature.r_limit_extrapolate.calls", "count"),
    ("quadrature.r_limit_extrapolate.s", "s"),
    ("verify.run_check.s", "s"),
    *((f"verify.{cid}.s", "s") for cid in CHECK_IDS),
    ("verify.slice_limit.calls", "count"),
    ("verify.slice_limit.s", "s"),
    ("verify.pf_integral.calls", "count"),
    ("verify.pf_integral.s", "s"),
    ("catalog.get.calls", "count"),
    ("catalog.get.s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_gblab():
    """Import gblab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from gblab import catalog, verify

    if Path(verify.__file__).resolve().parent != SRC / "gblab":
        raise ImportError(f"gblab imported from {verify.__file__}, not from {SRC}")
    return catalog, verify


def build_specs(catalog, insts) -> list:
    return [catalog.get(i.geometry, **i.kwargs) for i in insts]


def measure_setup(args) -> dict:
    """Seconds from starting a fresh process until gblab is imported and
    every geometry of the workload is built: {"raw_s": ..., "ref_s": ...}."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), repr(t0)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Round:
    """One pass over every instance of a workload."""

    def __init__(self, verify, insts, specs):
        self.values = []       # computed dict per instance, None on failure
        self.failures = []     # (label, reason)
        self.quantities = []
        self.times = []
        sampler = speed.SpeedSampler(ENGINE_KERNEL, speed.ENGINE_REF_S, speed.ENGINE_PERIOD_S)
        with sampler:
            c0, t0 = cpu_seconds(), time.perf_counter()
            for inst, spec in zip(insts, specs):
                t1 = time.perf_counter()
                self._one(verify, inst, spec)
                self.times.append(time.perf_counter() - t1)
            self.wall = time.perf_counter() - t0
            self.cpu = cpu_seconds() - c0
        self.wall_ref = sampler.normalise(self.wall)
        self.cpu_ref = sampler.normalise(self.cpu)
        self.kernel_us = 1e6 * sampler.kernel_s

    def _one(self, verify, inst, spec):
        try:
            res = verify.run_check(inst.check, spec, level=inst.level, tol=inst.tol)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed instance
            return self._fail(inst, f"raised {type(exc).__name__}: {exc}")
        if not res.passed:
            return self._fail(inst, f"passed=False ({'; '.join(res.notes)[:200]})")
        try:
            qs = workloads.quantities(inst, res.computed)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return self._fail(inst, f"no closed-form comparison: {exc!r}")
        bad = [q for q in qs if not q.ok]
        if bad:
            return self._fail(inst, "; ".join(
                f"{q.name}={q.value!r} misses {q.exact!r} (tol {q.tol} {q.kind})" for q in bad))
        self.values.append(repr(sorted(res.computed.items())))
        self.quantities.extend(qs)

    def _fail(self, inst, reason):
        self.values.append(None)
        self.failures.append((inst.label(), reason))


def traced_round(verify, catalog, insts):
    tracer = Tracer()
    tracer.install("gblab", TARGETS, TABLES)
    try:
        rnd = Round(verify, insts, build_specs(catalog, insts))
    finally:
        tracer.uninstall()
    return rnd, tracer.report()


def layer_metrics(report: dict, overhead: float) -> dict:
    counters = report["counters"]
    out = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            out[metric] = overhead
            continue
        name, _, figure = metric.rpartition(".")
        c = counters.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0})
        out[metric] = {
            "calls": c["calls"],
            "s": c["s"],
            "self_s": c["self_s"],
            "nodes": c["extra"],
            "us_per_call": 1e6 * c["self_s"] / c["calls"] if c["calls"] else 0.0,
            "us_per_node": 1e6 * c["self_s"] / c["extra"] if c["extra"] else 0.0,
        }[figure]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gblab" / "__init__.py").is_file():
        print(f"error: no gblab sources at {SRC}", file=sys.stderr)
        return 2
    catalog, verify = import_gblab()
    insts = workloads.instances(args.workload, args.seed)
    specs = build_specs(catalog, insts)

    rounds = []
    start = time.perf_counter()
    while not rounds or (not args.trace and time.perf_counter() - start < args.seconds):
        rounds.append(Round(verify, insts, specs))

    reference = rounds[0].values
    correct = all(r.values == reference for r in rounds)
    if args.trace:
        rnd, report = traced_round(verify, catalog, insts)
        rounds.append(rnd)
        # tracing must not change a single computed value
        correct = correct and rnd.values == reference
        untraced, traced = rounds[0], rnd
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        report.update(workload=args.workload, seed=args.seed,
                      untraced={"wall_s": untraced.wall, "wall_ref_s": untraced.wall_ref},
                      traced={"wall_s": traced.wall, "wall_ref_s": traced.wall_ref})
        path.write_text(json.dumps(report, indent=1) + "\n")
        metrics = layer_metrics(report, traced.wall_ref - untraced.wall_ref)
        units = dict(PER_LAYER)
    else:
        setups = [measure_setup(args) for _ in range(SETUP_PROBES)]
        print(f"# setup: raw_s median {statistics.median(s['raw_s'] for s in setups):.4f}")
        quantities = [q for r in rounds for q in r.quantities]
        metrics = {
            "setup_s": statistics.median(s["ref_s"] for s in setups),
            "wall_ref_s": statistics.median(r.wall_ref for r in rounds),
            "cpu_ref_s": statistics.median(r.cpu_ref for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": min((q.digits for q in quantities), default=0.0),
        }
        units = dict(END_TO_END)

    attempted = len(insts) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    for inst, t in zip(insts, rounds[0].times):
        print(f"# {inst.label():60s} {t:9.3f} s")
    for r in rounds:
        for label, reason in r.failures:
            print(f"# FAILED {label}: {reason}")
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for r in rounds:
        print(f"# round: wall_s {r.wall:.3f}  cpu_s {r.cpu:.3f}  wall_ref_s {r.wall_ref:.3f}  "
              f"kernel_us {r.kernel_us:.2f}")
    for name, value in metrics.items():
        print(f"{name:48s} {value!r:>24} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
