"""In-memory tracer that wraps gblab's public functions from outside.

Every wrapped name gets aggregated counters: calls, inclusive time, self
time (inclusive time minus the time spent in wrapped callees) and an
optional extra count such as quadrature nodes.  Names marked as spans also
record one span per call (name, start, end, parent span).  Nothing is
written until the caller asks for `report()`.
"""

from __future__ import annotations

import functools
import sys
import time


class Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.spans = []
        self.absent = []
        self._child = [0.0]        # child-time accumulator per open call
        self._open_spans = [None]  # ids of open spans, innermost last
        self._undo = []
        self._t0 = clock()

    def wrap(self, name: str, fn, span: bool = False, count=None):
        """Return fn wrapped so that each call is counted under name.

        count(args, kwargs) -> int adds to the name's extra counter.
        """
        stat = self.stats.setdefault(name, Stat())
        clock, child, open_spans, spans = self.clock, self._child, self._open_spans, self.spans

        def traced(*args, **kwargs):
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if count is not None:
                    stat.extra += count(args, kwargs)
                if span:
                    open_spans.pop()
                    spans[sid] = {"id": sid, "parent": parent, "name": name,
                                  "label": _label(args),
                                  "start": t0 - self._t0, "end": t0 + dt - self._t0}

        return functools.wraps(fn)(traced)

    # -- installing into a package ---------------------------------------------

    def install(self, package: str, targets, tables=()):
        """Wrap each target in every module of package that binds it.

        targets: (name, module, attribute path, span, count); the attribute
        path may be "Class.method".  tables: (prefix, module, dict name) for
        registries of callables, each entry wrapped as a span prefix.key.
        A target or table that no longer exists is recorded in `absent`.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for name, module, path, span, count in targets:
            owner_name, _, attr = path.rpartition(".")
            mod = sys.modules.get(f"{package}.{module}")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, span=span, count=count)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        for prefix, module, table in tables:
            entries = getattr(sys.modules.get(f"{package}.{module}"), table, None)
            if not isinstance(entries, dict):
                self.absent.append(f"{prefix}.*")
                continue
            for key, fn in list(entries.items()):
                self._undo.append((entries.__setitem__, key, fn))
                entries[key] = self.wrap(f"{prefix}.{key}", fn, span=True)

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        return {
            "absent": list(self.absent),
            "counters": {
                name: {"calls": s.calls, "s": s.total, "self_s": s.self_time, "extra": s.extra}
                for name, s in sorted(self.stats.items())
            },
            "spans": list(self.spans),
        }


def _label(args) -> str:
    """A short description of a span's first two arguments."""
    out = []
    for a in args[:2]:
        if isinstance(a, (str, int, float)):
            out.append(str(a))
            continue
        name = getattr(a, "name", None) or getattr(a, "__name__", None)
        out.append(name if isinstance(name, str) else type(a).__name__)
    return " ".join(out)
