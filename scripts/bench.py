#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts in one JSON file.

    python3 scripts/bench.py BENCH_6.json [CHECKOUT ...]

For each workload that BENCHMARK.json names, plain (--trace 0) and traced
(--trace 1), runs

    python3 perfbench/run.py --workload W --seed 0 --trace T

in every checkout in turn (default: this repository), so that a slow spell
of the machine hits all checkouts alike.  The file records the machine (CPU
count, Python and numpy versions, and numpy's BLAS with its version and the
core it runs, on which the report's bits depend), and for each checkout its
git SHA (and whether tracked files differ from it), the output of `wc -l
src/gblab/*.py`, the code lines of each module and in total (lines that
hold a token other than a comment or a docstring, so blank lines and
docstrings do not move the count), `import_rss_mb` (the peak resident MiB,
ru_maxrss, of a fresh interpreter once it has imported gblab from the
checkout's src/: the floor under every workload's `peak_rss_mb`) and the
final JSON line of every run.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "perfbench/run.py"]
WORKLOADS = tuple(w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"])
SEED = 0
# prints the peak resident MiB of its interpreter after importing gblab from ./src
IMPORT_COMMAND = [sys.executable, "-c", "import resource, sys; sys.path.insert(0, 'src'); "
                  "import gblab; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"]
# tokens that make no line a code line; a docstring's STRING token is skipped by position
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def _output(cmd, cwd) -> str:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True).stdout


# numpy's version, its BLAS and the core that BLAS runs: OPENBLAS_CORETYPE when set,
# else the get_corename of the OpenBLAS bundled with numpy (null if there is none)
_NUMPY_PROBE = """
import ctypes, glob, json, os, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
root = os.path.dirname(numpy.__file__)
libs = sorted(glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.libs/*openblas*"))
names = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
         "openblas_get_corename64_", "openblas_get_corename")
found = [fn for fn in (getattr(ctypes.CDLL(p), n, None) for p in libs for n in names) if fn]
for fn in found:
    fn.argtypes, fn.restype = [], ctypes.c_char_p
core = os.environ.get("OPENBLAS_CORETYPE") or (found[0]().decode() if found else None)
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_core": core}))
"""


def machine() -> dict:
    numpy = json.loads(_output([sys.executable, "-c", _NUMPY_PROBE], ROOT))
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), **numpy}


def _revision(path: Path) -> dict:
    """HEAD's SHA and whether tracked files differ from it; None outside git."""
    try:
        sha = _output(["git", "rev-parse", "HEAD"], path).strip()
        changed = _output(["git", "status", "--porcelain", "--untracked-files=no"], path)
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(changed.strip())}


def _line_counts(path: Path) -> list:
    files = sorted(p.relative_to(path).as_posix() for p in (path / "src" / "gblab").glob("*.py"))
    return _output(["wc", "-l", *files], path).splitlines()


def _code_lines(path: Path) -> dict:
    """Code lines of each src/gblab module, by path, and their "total"."""
    counts = {}
    for file in sorted((path / "src" / "gblab").glob("*.py")):
        text = file.read_text(encoding="utf-8")
        docs = [(n.body[0].lineno, n.body[0].end_lineno) for n in ast.walk(ast.parse(text))
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(n, clean=False) is not None]
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in NOT_CODE or (tok.type == tokenize.STRING and any(
                    lo <= tok.start[0] and tok.end[0] <= hi for lo, hi in docs)):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
        counts[file.relative_to(path).as_posix()] = len(lines)
    counts["total"] = sum(counts.values())
    return counts


def _import_rss_mb(path: Path) -> float:
    """The peak resident MiB of a fresh interpreter after `import gblab` in the checkout."""
    return float(_output(IMPORT_COMMAND, path).split()[-1])


def bench(out, checkouts) -> dict:
    """Run every workload in every checkout and write the record to out."""
    paths = [Path(c).resolve() for c in checkouts]
    records = [{**_revision(p), "wc_l": _line_counts(p), "code_lines": _code_lines(p),
                "import_rss_mb": _import_rss_mb(p), "runs": []} for p in paths]
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(SEED), "--trace", str(trace)]
            for path, record in zip(paths, records):
                lines = _output(COMMAND + args, path).strip().splitlines()
                record["runs"].append({"workload": workload, "seed": SEED, "trace": trace,
                                       "result": json.loads(lines[-1])})
                label = f"{record['sha'] or path.name}{'+' if record['dirty'] else ''}"
                print(f"{label} {workload} trace={trace}: {lines[-1][:100]}", flush=True)
    doc = {"machine": machine(), "checkouts": records,
           "command": "python3 perfbench/run.py --workload W --seed 0 --trace T"}
    Path(out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="JSON file to write, e.g. BENCH_6.json")
    ap.add_argument("checkouts", nargs="*", default=[str(ROOT)],
                    help="checkouts to run, in this order (default: this repository)")
    args = ap.parse_args(argv)
    bench(args.out, args.checkouts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
