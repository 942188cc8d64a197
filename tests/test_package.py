"""Package surface: every exported name exists, and who may use the stencil weights."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import gblab
from gblab import catalog
from gblab import quadrature as quad

MODULES = ["gblab"] + [f"gblab.{m.name}" for m in pkgutil.iter_modules(gblab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _names(node):
    """The names node reads: a Name's id, an Attribute's attr or an ImportFrom's names."""
    return ({node.id} if isinstance(node, ast.Name)
            else {node.attr} if isinstance(node, ast.Attribute)
            else {a.name for a in node.names} if isinstance(node, ast.ImportFrom)
            else set())


def test_only_geometry_references_the_stencil_weights():
    # the stencil's offsets, weights and reach belong to geometry._jet_plan
    owned = {"_diff_weights", "_central_diff"}
    users = set()
    for path in Path(gblab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _names(node) & owned:
                users.add(path.name)
    assert users == {"geometry.py"}


def test_only_quadrature_reads_the_block_constant():
    # a block's node count is quadrature.block_size(d), the rule's one owner
    users = []
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "BLOCK" in _names(node) and path.name != "quadrature.py":
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_only_quadrature_and_the_path_gauge_call_block_size():
    # the block rule's callers: quadrature's own pass and the curvature pass of
    # geometry.metric_path_gauge; every other block rides in mesh_values
    callers = set()
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "block_size" in _names(node.func):
                    callers.add(path.name if path.name == "quadrature.py"
                                else f"{path.stem}.{getattr(top, 'name', top.lineno)}")
    assert callers == {"quadrature.py", "geometry.metric_path_gauge"}


def test_src_calls_no_einsum():
    # every contraction in src/ is a batched matmul or a broadcast product
    uses = []
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _names(node) & {"einsum", "einsum_path"}:
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_src_scatters_with_no_ufunc_at():
    # ufunc.at adds one element at a time; doubleform.wedge sums each output's
    # terms by one sequential np.add.accumulate down a term axis instead
    uses = []
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "at"
                    and any(isinstance(getattr(np, name, None), np.ufunc)
                            for name in _names(node.value))):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_no_matmul_takes_a_transposed_view():
    # a transposed operand is geometry._transposed's contiguous copy: on
    # stacks of small matrices a strided view makes the matmul several times slower
    def transposed_view(node):
        return (isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
                in {"swapaxes", "transpose", "moveaxis"}
                or isinstance(node, ast.Attribute) and node.attr in {"T", "mT"})

    uses = []
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                    and any(map(transposed_view, (node.left, node.right)))):
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def _factorisations(node, owner, found):
    """(file's function, name) for each cholesky or inv reference under node, innermost def first."""
    for child in ast.iter_child_nodes(node):
        names = ({child.attr} if isinstance(child, ast.Attribute)
                 else {a.name for a in child.names} if isinstance(child, ast.ImportFrom)
                 else set())
        found |= {(owner, name) for name in names & {"cholesky", "inv"}}
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        _factorisations(child, inner, found)
    return found


def test_no_metric_inverse_comes_from_inv():
    # g^{-1} is E E^T from the one Cholesky, whose frame E = L^{-T} is solved
    # for by substitution; inv inverts only two phi frames
    found = set()
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(f"{path.stem}.{fn}", name) for fn, name in _factorisations(tree, "", set())}
    assert found == {("geometry._frame_of", "cholesky"),
                     ("geometry.phi_conjugated_connection", "inv"),
                     ("verify._phi_reference", "inv")}


def test_verify_builds_no_metric_field():
    # every field a check integrates, with its stencil, is catalog data
    tree = ast.parse((Path(gblab.__file__).parent / "verify.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "MetricField"]
    assert calls == []


def _owners(node, hit, owner="", found=None):
    """The innermost def ("" at module level) of each node under node that hit accepts."""
    found = set() if found is None else found
    for child in ast.iter_child_nodes(node):
        if hit(child):
            found.add(owner)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        _owners(child, hit, inner, found)
    return found


def _module_tree(name):
    return ast.parse((Path(gblab.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))


def _package_owners(hit) -> set:
    """module.function of each def ("module." at module level) holding a node hit accepts."""
    found = set()
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{fn}" for fn in _owners(tree, hit)}
    return found


def test_only_result_folds_gates_into_a_row():
    # a check states its gates; _result alone turns them into residual_abs, residual_rel
    # and passed
    def builds_row(node):
        return isinstance(node, ast.Call) and "CheckResult" in _names(node.func)

    assert _package_owners(builds_row) == {"verify._result"}


def test_only_axis_nodes_reads_the_gauss_rule():
    # an axis's nodes are put in one place; mesh_corners and every pass read them there
    assert _package_owners(lambda node: "_gauss_nodes" in _names(node)) == {
        "quadrature._axis_nodes"}


def test_only_the_algebra_identities_take_a_determinant():
    # sqrt(det g) is geometry._sqrt_det of the triangular frame's diagonal;
    # linalg.det is read only by the Pf(A)^2 = det A identity
    def takes_det(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "det")
                or (isinstance(node, ast.ImportFrom) and any(a.name == "det" for a in node.names)))

    assert _package_owners(takes_det) == {"verify.check_algebra_identities"}


def test_only_the_algebra_identities_reach_numpy_random():
    # importing numpy.random costs 5.8 MiB resident; PhiLimit's probe is data
    # (verify.PHI_PROBE), and AlgebraIdentities' leaves are its generator's draws
    def reaches_random(node):
        if isinstance(node, ast.Attribute):
            return (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        return isinstance(node, ast.Import) and any(
            a.name.startswith("numpy.random") for a in node.names)

    assert _package_owners(reaches_random) == {"verify.check_algebra_identities"}


def test_catalog_builds_charts_only_from_axes_and_products():
    # a catalog chart is _chart of its axes or _chart_product of charts, so an
    # axis's periodicity and quadrature rule are stated once
    def builds_chart(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Chart")

    assert _owners(_module_tree("catalog"), builds_chart) == {"_chart", "_chart_product"}


@pytest.mark.parametrize("cls", ["CollarMetric", "FibrationData"])
def test_catalog_builds_collars_only_in_the_warped_product_builder(cls):
    # how a block scales with r and what a fibration reads are stated once, in
    # _warped; the catenoid's block 1 + r^2 is not the square of a profile
    def builds(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == cls)

    assert _owners(_module_tree("catalog"), builds) == {"_warped", "_build_catenoid"}


def _raises(*phrases):
    """A predicate: the node raises a message holding one of phrases."""
    def hit(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(c, ast.Constant) and any(p in str(c.value) for p in phrases)
            for c in ast.walk(node))
    return hit


def test_only_the_product_end_guard_refuses_an_even_slice():
    # the odd Pfaffian needs odd slices N = F x B; _product_end states it for every check
    assert _owners(_module_tree("verify"), _raises("odd-dimensional slice")) == {"_product_end"}


def test_only_chart_integral_refuses_a_level():
    # a level past the chart's node budget or clean levels is refused in one place
    assert _package_owners(_raises("largest clean level", "over the budget")) == {
        "verify.chart_integral"}


def test_only_the_quadrature_range_helper_states_the_level_range():
    # the CLI's --level, mesh_for_chart and run_check all read it
    assert _package_owners(_raises("must be in")) == {"quadrature.check_level"}


def test_only_suite_rows_and_run_suite_read_the_default_suite():
    # a check's default level, tol and geometry come from its rows by _suite_rows
    found = _package_owners(lambda node: isinstance(node, ast.Name)
                            and node.id == "DEFAULT_SUITE")
    assert found == {"verify.", "verify._suite_rows", "verify.run_suite"}


_MUTATORS = {"update", "append", "extend", "clear", "pop", "setdefault", "add", "insert",
             "remove"}


def _module_containers(tree) -> set:
    """Names that a module binds at top level to a dict, list or set."""
    names = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if not (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                   ast.SetComp))
                or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list", "set"))):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_no_function_changes_module_state():
    # a module-level table that a call can change is shared by every caller in
    # the process, so one run (or test) would see what another left behind
    offences = set()
    for path in sorted(Path(gblab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared = _module_containers(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)} | {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Store)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    offences.add(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _MUTATORS
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id in shared - local):
                    offences.add(f"{path.name}:{node.lineno} {node.func.value.id}."
                                 f"{node.func.attr}")
                elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                      and isinstance(node.value, ast.Name) and node.value.id in shared - local):
                    offences.add(f"{path.name}:{node.lineno} {node.value.id}[...] store")
    assert sorted(offences) == []


_WARM_FAULTS = """
import resource
from gblab import catalog, verify
spec = catalog.get("sphere", n=4)
verify.run_check("ClosedGB", spec, level=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    verify.run_check("ClosedGB", spec, level=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's heap thresholds")
def test_a_warm_check_faults_in_no_heap_pages():
    # MALLOC_TRIM_THRESHOLD_=0 trims the heap at every free, as a layout that
    # leaves a call's temporaries on top does; the thresholds gblab sets at
    # import keep them for the next call (without them: ~1,350 faults a call)
    env = {**os.environ, "MALLOC_TRIM_THRESHOLD_": "0",
           "PYTHONPATH": str(Path(gblab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _WARM_FAULTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 5 * 50


_NO_RANDOM = """
import json, sys
from gblab import verify
rows = [row for row in verify.DEFAULT_SUITE if row[0] != "AlgebraIdentities"]
passed = [verify.run_check(c, g, p, level=level, tol=tol).passed for c, g, p, level, tol in rows]
print(json.dumps({"rows": len(rows), "passed": sum(passed),
                  "numpy.random": "numpy.random" in sys.modules}))
"""


def test_no_check_but_the_algebra_identities_loads_numpy_random():
    # a fresh interpreter runs every other default-suite row; PhiLimit's points
    # come from verify.PHI_PROBE, not from a generator
    env = {**os.environ, "PYTHONPATH": str(Path(gblab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _NO_RANDOM], env=env, check=True,
                         capture_output=True, text=True).stdout
    from gblab import verify
    rows = sum(row[0] != "AlgebraIdentities" for row in verify.DEFAULT_SUITE)
    assert json.loads(out) == {"rows": rows, "passed": rows, "numpy.random": False}


def _cached_functions() -> dict:
    """module.name of every lru_cache function defined at module level in the package."""
    found = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr, fn in vars(mod).items():
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name:
                found[f"{name.removeprefix('gblab.')}.{attr}"] = fn
    return found


def _sample_keys() -> dict:
    """A few argument tuples for each cached function."""
    sphere = catalog.get("sphere", n=2).fields[0]
    link = catalog.get("geometric_cone", link="s3").link            # two orbit axes
    keys = [(f.chart, f.fd_order, f.fd_rel_step) for f in (sphere, link)]
    meshes = [(f.chart, quad.mesh_for_chart(f.chart, 2)) for f in (sphere, link)]
    return {
        "doubleform.multi_indices": [(4, 2), (3, 0)],
        "doubleform._rank_table": [(4, 2)],
        "doubleform._slot_table": [(4, 1, 2), (3, 0, 1)],
        "doubleform._wedge_table": [(4, 1, 1, 1, 1), (3, 0, 1, 2, 0)],
        "geometry._triangles": [(3,)],
        "geometry._jet_plan": [(3, 2, True), (2, 4, False)],
        "geometry._pair_plan": [(4,)],
        "geometry._stencil_plan": keys,
        "quadrature._gauss_nodes": [(8,), (4,)],
        "quadrature.mesh_for_chart": [(f.chart, 3) for f in (sphere, link)],
        "quadrature._mesh_plan": meshes,
        "verify._admissible_top": keys,
    }


def _changeable(value, path="result") -> list:
    """Paths of the writable arrays, lists, dicts and sets held in value."""
    if isinstance(value, np.ndarray):
        return [path] if value.flags.writeable else []
    if isinstance(value, (list, dict, set, bytearray)):
        return [path]
    if isinstance(value, MappingProxyType):
        return [p for k, v in value.items() for p in _changeable(v, f"{path}[{k!r}]")]
    if isinstance(value, tuple):
        return [p for k, v in enumerate(value) for p in _changeable(v, f"{path}[{k}]")]
    if dataclasses.is_dataclass(value):
        return [p for f in dataclasses.fields(value)
                for p in _changeable(getattr(value, f.name), f"{path}.{f.name}")]
    return []


def test_every_cached_function_returns_data_no_caller_can_change():
    # a cached result is handed to every caller of its key, so one caller's write
    # would reach all the others; a new cached function must join the table
    cached, keys = _cached_functions(), _sample_keys()
    assert sorted(cached) == sorted(keys)
    found = [f"{name} key {k}: {path}" for name, fn in sorted(cached.items())
             for k, args in enumerate(keys[name]) for path in _changeable(fn(*args))]
    assert found == []
