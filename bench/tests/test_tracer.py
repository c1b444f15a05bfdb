import threading
import types

import pytest

from tracer import KEEP_SPANS, OBSERVE, Tracer, span_charge


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6].
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = tr.begin("outer")
    a = tr.begin("a")
    g = tr.begin("g")
    tr.end(g)
    tr.end(a)
    b = tr.begin("b")
    tr.end(b)
    tr.end(outer)
    assert tr.total("outer") == 10 and tr.self_time("outer") == 6
    assert tr.total("a") == 3 and tr.self_time("a") == 2
    assert tr.self_time("g") == 1 and tr.self_time("b") == 1
    assert tr.children("outer") == 2 and tr.children("a") == 1 and tr.children("g") == 0
    parents = {name: parent for _, name, _, _, parent in tr.spans}
    ids = {name: i for i, name, _, _, _ in tr.spans}
    assert parents == {"g": ids["a"], "a": ids["outer"], "b": ids["outer"], "outer": None}


def test_self_time_accumulates_over_calls():
    tr = Tracer(clock=fake_clock([0, 1, 3, 4, 10, 11, 12, 15]))
    for _ in range(2):
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.end(inner)
        tr.end(outer)
    assert tr.calls("outer") == 2 and tr.calls("inner") == 2
    assert tr.total("outer") == 4 + 5
    assert tr.self_time("outer") == (4 - 2) + (5 - 1)


def test_wrappers_are_restored_and_results_unchanged():
    mod = types.SimpleNamespace(double=lambda x: 2 * x, boom=lambda: 1 / 0)
    originals = dict(vars(mod))
    tr = Tracer()
    seen = []
    tr.wrap(mod, "double", "layer.double", observe=lambda args, result: seen.append(result))
    tr.wrap(mod, "boom", "layer.boom")
    assert mod.double is not originals["double"]
    assert mod.double(21) == 42 and seen == [42]
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    assert tr.stack == []  # the failing call's span was closed
    tr.restore()
    assert vars(mod) == originals
    assert tr.calls("layer.double") == 1 and tr.calls("layer.boom") == 1


def test_drain_times_the_generator_inside_the_span():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks))
    produced = []

    def gen(n):
        for i in range(n):
            produced.append(tr.clock())
            yield i

    mod = types.SimpleNamespace(gen=gen)
    tr.wrap(mod, "gen", "perm.gen", drain=True)
    it = mod.gen(3)
    assert len(produced) == 3  # drained before the wrapper returned
    assert list(it) == [0, 1, 2]
    assert tr.total("perm.gen") == 4  # begin, three yields, end
    tr.restore()


def test_observer_runs_in_its_own_span():
    # outer [0, 10] holds f [1, 2] and f's observer [3, 7].
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 7, 10]))
    mod = types.SimpleNamespace(f=lambda: None)
    tr.wrap(mod, "f", "layer.f", observe=lambda args, result: None)
    outer = tr.begin("outer")
    mod.f()
    tr.end(outer)
    tr.restore()
    assert tr.total(OBSERVE) == 4 and tr.total("layer.f") == 1
    assert tr.self_time("outer") == 10 - 1 - 4 and tr.children("outer") == 2


def test_spans_off_the_tracer_thread_raise():
    tr = Tracer()
    errors = []

    def run():
        try:
            tr.begin("x")
        except RuntimeError as exc:
            errors.append(exc)

    t = threading.Thread(target=run)
    t.start()
    t.join()
    assert len(errors) == 1 and tr.stack == []


def test_span_charge_is_positive():
    assert span_charge() > 0


def test_raw_spans_are_capped_but_totals_are_not():
    tr = Tracer()
    for _ in range(KEEP_SPANS + 1):
        with tr.span("x"):
            pass
    assert len(tr.spans) == KEEP_SPANS and tr.calls("x") == KEEP_SPANS + 1
