"""Acceptance suite: every headline identity at its stated tolerance.

Each test prints one [PASS]/[FAIL] line so the run doubles as a report;
run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gblab import catalog, verify
from gblab.doubleform import DoubleForm, berezin, pfaffian_skew, power
from gblab import invariants as inv

TWO_PI = 2.0 * math.pi


def _report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# 1 ---------------------------------------------------------------------------

def test_criterion_01_closed_gauss_bonnet_spheres():
    t0 = time.monotonic()
    r2 = verify.run_check("ClosedGB", "sphere", {"n": 2}, level=3)
    dt2 = time.monotonic() - t0
    ok2 = abs(r2.computed["chi"] - 2.0) <= 1e-6 and dt2 < 1.0
    _report("#1a sphere2", ok2, f"chi={r2.computed['chi']:.9f} in {dt2:.2f}s (abs 1e-6, <1s)")

    t0 = time.monotonic()
    r4 = verify.run_check("ClosedGB", "sphere", {"n": 4}, level=1)
    dt4 = time.monotonic() - t0
    ok4 = abs(r4.computed["chi"] - 2.0) / 2.0 <= 1e-3 and dt4 < 60.0
    _report("#1b sphere4", ok4, f"chi={r4.computed['chi']:.7f} in {dt4:.1f}s (rel 1e-3, <60s)")


# 2 ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4])
def test_criterion_02_flat_pfaffian(n):
    r = verify.run_check("ClosedGB", "flat_torus", {"n": n}, level=1)
    ok = abs(r.computed["pf_integral"]) <= 1e-12
    _report(f"#2 torus{n}", ok, f"|integral| = {abs(r.computed['pf_integral']):.2e} <= 1e-12")


# 3 ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,tol,level", [(2, 1e-6, 3), (4, 1e-3, 2)])
def test_criterion_03_boundary_gauss_bonnet(dim, tol, level):
    k = dim // 2
    r = verify.run_check("BoundaryGB", "disk", {"dim": dim}, level=level)
    chi_ok = abs(r.computed["chi"] - 1.0) <= tol
    bdry_ok = abs(r.computed["boundary_integral"] - (-(TWO_PI**k))) <= tol * TWO_PI**k
    _report(f"#3 disk{dim}", chi_ok and bdry_ok,
            f"chi={r.computed['chi']:.8f} boundary={r.computed['boundary_integral']:.8f} "
            f"(tol {tol:g})")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_odd_pfaffian_magnitudes():
    (mf1,) = catalog.get("sphere", n=1).fields
    val1 = verify.curvature_integral(mf1, 2, verify._odd_pf_top)
    ok1 = abs(abs(val1) - TWO_PI) <= 1e-8
    _report("#4a odd Pf circle", ok1, f"|integral| = {abs(val1):.12f} vs 2pi (abs 1e-8)")

    (mf3,) = catalog.get("sphere", n=3).fields
    val3 = verify.curvature_integral(mf3, 2, verify._odd_pf_top)
    ok3 = abs(abs(val3) - TWO_PI**2) / TWO_PI**2 <= 1e-4
    _report("#4b odd Pf 3-sphere", ok3, f"|integral| = {abs(val3):.8f} vs (2pi)^2 (rel 1e-4)")


# 5 ---------------------------------------------------------------------------

@pytest.mark.parametrize("link,theta,level", [
    ("s1", 0.5, 3), ("s1", 1.0, 3), ("s3", 0.5, 2), ("s3", 1.0, 2),
])
def test_criterion_05_cone_two_routes(link, theta, level):
    r = verify.run_check("ConeGB", "geometric_cone", {"link": link, "theta": theta},
                         level=level)
    closed = r.computed["closed_form"]
    gap = abs(r.computed["slice_limit"] - closed) / abs(closed)
    ok = gap <= 1e-3
    if link == "s1":
        contr = r.computed["singular_contribution"]
        ok = ok and abs(contr - (1.0 - theta)) <= 1e-4
        detail = f"route gap {gap:.2e}, contribution {contr:.7f} vs {1-theta}"
    else:
        detail = f"route gap {gap:.2e} (closed {closed:.6f})"
    _report(f"#5 cone {link} theta={theta}", ok, detail)


# 6 ---------------------------------------------------------------------------

def test_criterion_06_edge_limits_and_identity():
    r_odd = verify.run_check("EdgeLimit", "edge_product",
                             {"base": "s1", "fiber": "s2"}, level=2)
    first = abs(r_odd.computed["first_sample"])
    scale = max(first, 1e-6 * TWO_PI**2)
    ok_odd = abs(r_odd.computed["slice_limit_plus"]) <= 1e-3 * scale
    _report("#6a edge odd base", ok_odd,
            f"limit {r_odd.computed['slice_limit_plus']:.2e} vs floor {1e-3*scale:.2e}")

    r_even = verify.run_check("EdgeLimit", "edge_product",
                              {"base": "s2", "fiber": "s1"}, level=2)
    closed = r_even.computed["closed_value"]
    gap = abs(r_even.computed["slice_limit_plus"] - closed) / abs(closed)
    ok_even = gap <= 1e-3 and abs(closed - (-8 * math.pi**2)) <= 1e-3 * 8 * math.pi**2
    _report("#6b edge even base", ok_even,
            f"limit {r_even.computed['slice_limit_plus']:.5f} vs closed {closed:.5f} "
            f"(-8pi^2 = {-8*math.pi**2:.5f})")

    r_id = verify.run_check("EdgeGB", "edge_product", {"base": "s2", "fiber": "s1"},
                            level=2)
    resid = abs(TWO_PI**2 * 2 - r_id.computed["identity_rhs"])
    ok_id = resid <= 1e-3 * 8 * math.pi**2
    _report("#6c edge identity", ok_id, f"|(2pi)^2*2 - rhs| = {resid:.2e}")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_fibered_boundary():
    r = verify.run_check("FiberedGB", "catenoid", {}, level=3)
    total = r.computed["pf_integral"]
    ok_curv = abs(total - (-4 * math.pi)) <= 1e-4
    _report("#7a catenoid curvature", ok_curv, f"integral K = {total:.8f} vs -4pi (abs 1e-4)")
    resid = abs(0.0 - r.computed["identity_rhs"])
    ok_id = resid <= 1e-3 * 4 * math.pi
    _report("#7b catenoid identity", ok_id, f"residual {resid:.2e} <= 1e-3*4pi")

    r_even = verify.run_check("FiberedGB", "fibered_product",
                              {"base": "s2", "fiber": "s1"}, level=1)
    ok_even = r_even.passed and abs(r_even.computed["slice_limit_plus"]) <= 1e-6
    _report("#7c fibered even base", ok_even,
            f"boundary limit {r_even.computed['slice_limit_plus']:.2e}")


# 8 ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_08_orbifold(p):
    r = verify.run_check("OrbifoldGB", "football", {"p": p}, level=5)
    gap_pf = abs(r.computed["pf_chi_part"] - 2.0 / p)
    gap_t7 = abs(r.computed["t7_total"] - 2.0)
    ok = gap_pf <= 1e-9 and gap_t7 <= 1e-9
    _report(f"#8 football p={p}", ok,
            f"pf part gap {gap_pf:.2e}, identity gap {gap_t7:.2e} (abs 1e-9)")


# 9 ---------------------------------------------------------------------------

def test_criterion_09_second_order_perturbations():
    r = verify.run_check("PerturbationStability", "cone_perturbed_second_order", {},
                         level=3)
    gap = abs(r.computed["model_limit"] - r.computed["perturbed_limit"])
    _report("#9a perturbation stability", gap <= 1e-3,
            f"limit gap {gap:.2e} (abs 1e-3)")

    worst = 0.0
    for name, params in [("geometric_cone", {"link": "s1", "theta": 1.0}),
                         ("cone_perturbed_second_order", {}),
                         ("edge_product", {"base": "s2", "fiber": "s1"})]:
        r = verify.run_check("PhiLimit", name, params, level=2)
        worst = max(worst, r.computed["max_entry_gap"])
    _report("#9b phi-connection limit", worst <= 1e-4,
            f"max entry gap {worst:.2e} (abs 1e-4)")


# 10 --------------------------------------------------------------------------

def test_criterion_10_first_order_conic():
    r = verify.run_check("FirstOrderConic", "cone_perturbed_first_order",
                         {"a": 0.3}, level=3)
    resid = abs(TWO_PI - r.computed["identity_rhs"])
    _report("#10 first-order cone", resid <= 1e-3 * TWO_PI,
            f"residual {resid:.2e} <= 1e-3*2pi "
            f"(phi boundary term {r.computed['phi_boundary_term']:.6f})")


# 11 --------------------------------------------------------------------------

def test_criterion_11_transgression_stokes():
    r = verify.run_check("TransgressionStokes", "flat_torus", {"n": 2}, level=2)
    bound = 1e-3 * r.computed["max_delta_pf"]
    ok = r.computed["max_pointwise_gap"] <= bound and r.computed["grid"] == 32
    _report("#11 transgression Stokes", ok,
            f"max gap {r.computed['max_pointwise_gap']:.2e} <= {bound:.2e} on 32^2 grid")


# 12 --------------------------------------------------------------------------

def test_criterion_12_algebra_identities():
    from fractions import Fraction

    ok_df = all(inv.double_factorial_identity_lhs(p) == Fraction((-1) ** p, 2 * p + 1)
                for p in range(11))
    ok_mom = all(inv.beta_moment_identity(k)[0] == inv.beta_moment_identity(k)[1]
                 for k in range(1, 11))
    ok_fact = all(
        berezin(power(DoubleForm.metric_form(n), n)).coeffs[0, 0] == math.factorial(n)
        for n in range(1, 7))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(3):
            m = rng.normal(size=(n, n))
            m = m - m.T
            worst = max(worst, abs(pfaffian_skew(m) ** 2 - np.linalg.det(m)))
    ok_pf = worst <= 1e-9 * max(1.0, worst + 1.0) or worst <= 1e-9
    ok_pf = worst <= 1e-9
    _report("#12 algebra identities", ok_df and ok_mom and ok_fact and ok_pf,
            f"exact identities ok, worst |Pf^2 - det| = {worst:.2e}")


# 13 --------------------------------------------------------------------------

@pytest.mark.parametrize("order", [2, 3, 4])
def test_criterion_13_lens_obstruction(order):
    r = verify.run_check("LensObstruction", "lens_cone", {"order": order}, level=2)
    ref = TWO_PI**2 / order
    gap = abs(r.computed["cone_transgression"] - ref) / ref
    _report(f"#13 lens order={order}", gap <= 1e-4,
            f"transgression {r.computed['cone_transgression']:.8f} vs {ref:.8f} "
            f"(rel {gap:.2e})")


# 14 --------------------------------------------------------------------------

def test_criterion_14_determinism_across_processes(tmp_path):
    # no process state may leak into a value: a fresh interpreter writes the same bytes
    meta = {"command": "run", "level": 1, "tol": None, "filter": "", "checks": None,
            "geometry": None}
    doc = verify.suite_to_json_dict(verify.run_suite(level=1), meta=meta)
    here = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    paths = (str(Path(verify.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = tmp_path / "suite.json"
    proc = subprocess.run([sys.executable, "-m", "gblab.cli", "run", "--level", "1",
                           "--json", str(out)], env=env, capture_output=True, text=True)
    ok = proc.returncode in (0, 1) and out.read_text(encoding="utf-8") == here
    _report("#14 determinism", ok,
            f"suite JSON identical in-process and in a fresh process ({len(here)} bytes)")
