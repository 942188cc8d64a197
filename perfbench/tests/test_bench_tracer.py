import sys
import types

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        inner()
        clock.now += 2.0

    outer = tracer.wrap("outer", outer, span=True)
    outer()
    counters = tracer.report()["counters"]
    assert counters["outer"] == {"calls": 1, "s": 9.0, "self_s": 3.0, "extra": 0}
    assert counters["inner"] == {"calls": 2, "s": 6.0, "self_s": 6.0, "extra": 0}
    (span,) = tracer.report()["spans"]
    assert (span["name"], span["parent"], span["start"], span["end"]) == ("outer", None, 0.0, 9.0)


def test_spans_nest_and_count_extra():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda n: None, span=True, count=lambda a, k: a[0])
    root = tracer.wrap("root", lambda: [leaf(4), leaf(5)], span=True)
    root()
    spans = tracer.report()["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [("root", None), ("leaf", 0), ("leaf", 0)]
    assert tracer.report()["counters"]["leaf"]["extra"] == 9


def test_install_wraps_every_binding_and_reports_absent():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")

    def f(x):
        return x + 1

    class C:
        def m(self):
            return mod.f(1)

    mod.f, mod.C, mod.REG = f, C, {"A": lambda: 7}
    other.f = f
    names = ("fakepkg", "fakepkg.mod", "fakepkg.other")
    sys.modules.update(zip(names, (pkg, mod, other)))
    try:
        tracer = Tracer()
        tracer.install("fakepkg", [
            ("mod.f", "mod", "f", False, None),
            ("mod.C.m", "mod", "C.m", False, None),
            ("mod.gone", "mod", "gone", False, None),
        ], [("reg", "mod", "REG"), ("missing", "mod", "NOPE")])
        assert other.f(1) == 2 and mod.C().m() == 2 and mod.REG["A"]() == 7
        counters = tracer.report()["counters"]
        assert counters["mod.f"]["calls"] == 2      # direct call plus the one inside C.m
        assert counters["mod.C.m"]["calls"] == 1
        assert counters["reg.A"]["calls"] == 1
        assert "mod.gone" not in counters
        assert tracer.report()["absent"] == ["mod.gone", "missing.*"]
        tracer.uninstall()
        assert mod.f is f and other.f is f and "m" in vars(mod.C)
        assert vars(mod.C)["m"].__name__ == "m" and not hasattr(vars(mod.C)["m"], "__wrapped__")
    finally:
        for name in names:
            sys.modules.pop(name, None)
