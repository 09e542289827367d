"""Span recording, restoration of wrapped functions, and self times."""
import threading
import types
from concurrent.futures import ThreadPoolExecutor

from spans import Point, Tracer, self_times


def span(sid, start, end, parent=0, name="x"):
    return (sid, name, start, end, parent, None, 0)


def test_self_time_subtracts_children():
    spans = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 50, 60, 1)]
    assert self_times(spans) == {1: 70, 2: 20, 3: 10}


def test_self_time_merges_overlapping_children():
    # two worker threads overlap from 20 to 40: covered is 10..60, not 70
    spans = [span(1, 0, 100), span(2, 10, 40, 1), span(3, 20, 60, 1)]
    assert self_times(spans)[1] == 50


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, 10, 20), span(2, 0, 15, 1), span(3, 30, 40, 1)]
    assert self_times(spans)[1] == 5


def test_self_time_counts_only_direct_children():
    spans = [span(1, 0, 100), span(2, 0, 50, 1), span(3, 0, 50, 2)]
    assert self_times(spans) == {1: 50, 2: 0, 3: 50}


def _module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    return mod


def test_spans_nest_and_originals_come_back():
    mod = _module()
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    with tracer.installed([Point(mod, "inner", "inner", work=lambda a, k, r: r),
                           Point(mod, "outer", "outer")]):
        tracer.set_query(7)
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["inner"][5] == by_name["outer"][5] == 7
    assert by_name["inner"][6] == 2


def test_span_is_recorded_when_the_call_raises():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer = Tracer()
    with tracer.installed([Point(mod, "f", "f")]):
        try:
            mod.f()
        except ZeroDivisionError:
            pass
    assert [s[1] for s in tracer.spans] == ["f"]


def test_worker_thread_spans_hang_under_the_callers_span():
    registry = {"work": lambda x: x}
    mod = types.SimpleNamespace()

    def fan_out(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda x: registry["work"](x), range(n)))

    mod.fan_out = fan_out
    tracer = Tracer()
    with tracer.installed([Point(mod, "fan_out", "fan_out"),
                           Point(registry, "work", "work", new_query=True)]):
        assert mod.fan_out(4) == [0, 1, 2, 3]
    root = next(s for s in tracer.spans if s[1] == "fan_out")
    workers = [s for s in tracer.spans if s[1] == "work"]
    assert len(workers) == 4
    assert all(s[4] == root[0] for s in workers)
    assert len({s[5] for s in workers}) == 4  # each call got its own query id
    assert threading.current_thread() is threading.main_thread()
