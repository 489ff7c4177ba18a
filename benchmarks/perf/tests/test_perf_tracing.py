import asyncio
import itertools

import pytest

from tracing import Tracer


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_nested_wraps_give_parent_self_time_and_shared_trace():
    tracer = Tracer(clock=fake_clock())
    inner = tracer.wrap(lambda: None, "inner")
    job = tracer.wrap(lambda: None, "job", root=True)

    def outer_body():
        inner()
        inner()
        job()

    outer = tracer.wrap(outer_body, "outer")
    outer()
    agg = tracer.aggregates()
    # Clock ticks: outer 0..7, inner 1..2 and 3..4, job 5..6.
    assert agg["outer"]["busy_s"] == 7.0
    assert agg["inner"]["count"] == 2 and agg["inner"]["busy_s"] == 2.0
    assert agg["outer"]["self_s"] == 4.0
    traces = {record[0]: record[4] for record in tracer.spans}
    assert traces["inner"] == traces["outer"]
    assert traces["job"] != traces["outer"]  # a root starts its own trace


def test_overlapping_children_are_subtracted_as_a_union():
    tracer = Tracer()
    parent = ["request", 0.0, 10.0, None, 1, False]
    tracer.spans += [["cache", 1.0, 4.0, parent, 1, False],
                     ["cache", 3.0, 6.0, parent, 1, False], parent]
    agg = tracer.aggregates()
    assert agg["request"]["self_s"] == 5.0
    assert agg["cache"]["busy_s"] == 6.0


def test_failures_are_flagged_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("out of domain")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "surrogate.query")()
    assert tracer.aggregates()["surrogate.query"]["failed"] == 1


def test_async_wrapper_records_the_awaited_span():
    tracer = Tracer(clock=fake_clock())

    async def submit(x):
        await asyncio.sleep(0)
        return x + 1

    assert asyncio.run(tracer.wrap(submit, "submit")(1)) == 2
    assert tracer.aggregates()["submit"]["count"] == 1


def test_after_hook_sees_args_and_result():
    tracer = Tracer()
    get = tracer.wrap(lambda key: (key == "hit", None), "cache.get",
                      after=lambda args, result: result[0]
                      and tracer.count("hits"))
    get("hit")
    get("miss")
    assert tracer.counters == {"hits": 1.0}


def test_patch_and_unpatch_restore_an_inherited_method():
    class Base:
        def observe(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(Child, "observe", "watchdog")
    assert Child().observe() == "base"
    assert "observe" in vars(Child)
    tracer.unpatch()
    assert "observe" not in vars(Child)
    assert tracer.aggregates()["watchdog"]["count"] == 1


def test_patching_a_missing_name_fails_loudly():
    with pytest.raises(AttributeError):
        Tracer().patch(object, "no_such_layer", "x")
