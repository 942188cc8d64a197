#!/usr/bin/env python3
"""List the lines of the gblab package that one run never reaches.

    python3 scripts/line_coverage.py -m MODULE [ARGS...]

runs MODULE as `python -m MODULE ARGS...` would, under a standard-library
line tracer (sys.settrace), and catches its SystemExit.  Then it prints, for
each module of gblab, the executable lines that never ran, as ranges:

    gblab.verify: 420 of 512 executable lines not run: 333-348, 351, ...

The executable lines are those of the module's compiled code objects; a line
ran when a 'call' or 'line' event of the trace reached it.  Only the calling
thread is traced.  The exit code is the module's own.
"""

import importlib.util
import os
import runpy
import sys
from pathlib import Path


def executable_lines(path) -> set:
    """Line numbers of every code object compiled from one source file."""
    todo = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def _ranges(lines) -> str:
    spans = []
    for n in sorted(lines):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in spans)


def run_traced(module: str, args, files) -> tuple:
    """Run module with args under the tracer; returns (exit code, lines hit per file)."""
    hit = {f: set() for f in files}
    seen_by_name = {}    # co_filename as the import system wrote it -> set or None

    def lines_of(frame):
        name = frame.f_code.co_filename
        if name not in seen_by_name:
            seen_by_name[name] = hit.get(os.path.realpath(name))
        return seen_by_name[name]

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        seen = lines_of(frame)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    sys.argv = [module, *args]
    sys.path[0] = ""     # as `python -m` puts the working directory first
    sys.settrace(on_call)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.settrace(None)
    return code, hit


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "-m":
        print(__doc__, file=sys.stderr)
        return 2
    package = Path(importlib.util.find_spec("gblab").submodule_search_locations[0])
    files = {os.path.realpath(p): p for p in sorted(package.glob("*.py"))}
    code, hit = run_traced(argv[1], argv[2:], files)
    print("# lines of gblab never run")
    for real, path in files.items():
        lines = executable_lines(path)
        missed = lines - hit[real]
        report = f"gblab.{path.stem}: {len(missed)} of {len(lines)} executable lines not run"
        print(report + (f": {_ranges(missed)}" if missed else ""))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
