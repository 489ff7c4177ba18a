"""Tests for repro.obs: tracer, metrics, exporters, logging."""

import asyncio
import json
import logging
import pickle

import pytest

from repro import obs
from repro.runtime.report import JobRecord, utc_now_iso


def _remove_managed_handler():
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


@pytest.fixture(autouse=True)
def _clean_observer():
    """Never leak global tracer/logging state into (or out of) a test."""
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    _remove_managed_handler()
    yield
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    _remove_managed_handler()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_span_returns_null_singleton(self):
        a = obs.span("anything", k=1)
        b = obs.span("else")
        assert a is obs.NULL_SPAN
        assert b is obs.NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with obs.span("noop") as s:
            assert s.set(extra=1) is s
        assert obs.spans() == []

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with obs.span("noop"):
                raise RuntimeError("boom")

    def test_no_context_when_disabled(self):
        assert obs.current_context() is None
        assert obs.current_trace_id() is None


class TestSpanNesting:
    def test_enable_returns_trace_id(self):
        tid = obs.enable()
        assert isinstance(tid, str) and len(tid) == 16
        assert obs.current_trace_id() == tid

    def test_nested_parent_child(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        spans = {s["name"]: s for s in obs.spans()}
        assert spans["inner"]["parent_id"] == outer.span_id
        assert spans["outer"]["parent_id"] is None

    def test_siblings_share_parent(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        spans = {s["name"]: s for s in obs.spans()}
        assert spans["a"]["parent_id"] == root.span_id
        assert spans["b"]["parent_id"] == root.span_id
        assert spans["a"]["span_id"] != spans["b"]["span_id"]

    def test_attrs_and_set(self):
        obs.enable()
        with obs.span("work", items=3) as s:
            s.set(done=True)
        (rec,) = obs.spans()
        assert rec["attrs"] == {"items": 3, "done": True}

    def test_exception_records_error_attr(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("bad"):
                raise ValueError("nope")
        (rec,) = obs.spans()
        assert rec["attrs"]["error"] == "ValueError"

    def test_durations_nonnegative_and_nested_shorter(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = {s["name"]: s for s in obs.spans()}
        assert spans["inner"]["dur_ns"] >= 0
        assert spans["outer"]["dur_ns"] >= spans["inner"]["dur_ns"]

    def test_interleaved_tasks_do_not_nest(self):
        # Two requests on one event loop, each holding a span open
        # across an await: neither is the other's parent.
        obs.enable()

        async def request(name, entered, other_entered):
            with obs.span(name) as outer:
                entered.set()
                await other_entered.wait()
                with obs.span(name + ".inner"):
                    await asyncio.sleep(0)
            return outer

        async def main():
            a_in, b_in = asyncio.Event(), asyncio.Event()
            return await asyncio.gather(request("a", a_in, b_in),
                                        request("b", b_in, a_in))

        a, b = asyncio.run(main())
        spans = {s["name"]: s for s in obs.spans()}
        assert spans["a"]["parent_id"] is None
        assert spans["b"]["parent_id"] is None
        assert spans["a.inner"]["parent_id"] == a.span_id
        assert spans["b.inner"]["parent_id"] == b.span_id

    def test_drain_clears_collector(self):
        obs.enable()
        with obs.span("once"):
            pass
        assert len(obs.drain_spans()) == 1
        assert obs.spans() == []


class TestCrossProcessContext:
    def test_context_roundtrips_dict_and_pickle(self):
        ctx = obs.TraceContext(trace_id="cafe", span_id="1.2")
        assert obs.TraceContext.from_dict(ctx.as_dict()) == ctx
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_current_context_carries_open_span(self):
        obs.enable(trace_id="feed")
        with obs.span("outer") as s:
            ctx = obs.current_context()
        assert ctx.trace_id == "feed"
        assert ctx.span_id == s.span_id

    def test_activate_parents_remote_spans(self):
        # Simulate the worker side of the executor's ship-back protocol.
        ctx = obs.TraceContext(trace_id="beef", span_id="parent.1")
        obs.activate(ctx)
        with obs.span("worker.job"):
            pass
        shipped = obs.deactivate()
        assert not obs.enabled()
        (rec,) = shipped
        assert rec["trace_id"] == "beef"
        assert rec["parent_id"] == "parent.1"

    def test_ingest_merges_into_local_collector(self):
        obs.enable(trace_id="beef")
        with obs.span("local"):
            pass
        obs.ingest([{"name": "remote", "trace_id": "beef",
                     "span_id": "9.1", "parent_id": None,
                     "ts_ns": 0, "dur_ns": 10, "pid": 9, "tid": 1,
                     "attrs": {}}])
        names = {s["name"] for s in obs.spans()}
        assert names == {"local", "remote"}

    def test_executor_pool_ships_spans_back(self):
        from repro import Executor, JobSpec

        obs.enable()
        ex = Executor(workers=2)
        result = ex.run([JobSpec(
            "repro.micromag.experiments:run_gate_case",
            {"gate": "xor", "bits": [0, 1], "tier": "network"},
            label="xor-01")])
        record = result.outcomes[0].record
        spans = obs.spans()
        pids = {s["pid"] for s in spans}
        names = {s["name"] for s in spans}
        if record.mode == "pool":  # pool spawn can degrade to serial
            assert len(pids) >= 2
        assert {"executor.run", "executor.job", "gate_case"} <= names
        assert len({s["trace_id"] for s in spans}) == 1
        assert record.trace_id == obs.current_trace_id()
        job = next(s for s in spans if s["name"] == "executor.job")
        gate = next(s for s in spans if s["name"] == "gate_case")
        assert gate["parent_id"] == job["span_id"]


class TestMetrics:
    def test_counter_accumulates(self):
        obs.counter("t.hits").inc()
        obs.counter("t.hits").inc(4)
        assert obs.metrics_snapshot()["counters"]["t.hits"] == 5

    def test_gauge_holds_last_value(self):
        obs.gauge("t.rate").set(2.0)
        obs.gauge("t.rate").set(7.5)
        assert obs.metrics_snapshot()["gauges"]["t.rate"] == 7.5

    def test_histogram_stats(self):
        h = obs.histogram("t.lat")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        stats = obs.metrics_snapshot()["histograms"]["t.lat"]
        assert stats["count"] == 3
        assert stats["sum"] == pytest.approx(7.0)
        assert stats["min"] == 1.0 and stats["max"] == 4.0

    def test_reset_clears_everything(self):
        obs.counter("t.x").inc()
        obs.reset_metrics()
        snap = obs.metrics_snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}


class TestChromeExport:
    def _trace(self):
        obs.enable()
        with obs.span("parent", gate="xor"):
            with obs.span("child"):
                pass
        return obs.drain_spans()

    def test_schema(self):
        doc = obs.to_chrome_trace(self._trace(), metadata={"v": "1"})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"] == {"v": "1"}
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["cat"] == "repro"
            assert isinstance(ev["ts"], float)
            assert isinstance(ev["dur"], float)
            assert {"name", "pid", "tid", "args"} <= set(ev)

    def test_args_carry_span_identity(self):
        doc = obs.to_chrome_trace(self._trace())
        by_name = {ev["name"]: ev for ev in doc["traceEvents"]}
        parent, child = by_name["parent"], by_name["child"]
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert parent["args"]["gate"] == "xor"

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), self._trace())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_write_trace_file_dispatches_on_extension(self, tmp_path):
        spans = self._trace()
        jl = tmp_path / "trace.jsonl"
        assert obs.write_trace_file(str(jl), spans) == "jsonl"
        lines = jl.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] in {"parent", "child"}
        ch = tmp_path / "trace.json"
        assert obs.write_trace_file(str(ch), spans) == "chrome"
        assert "traceEvents" in json.loads(ch.read_text())

    def test_summary_aggregates_by_name(self):
        obs.enable()
        for _ in range(3):
            with obs.span("hot"):
                pass
        with obs.span("cold"):
            pass
        rows = obs.summarize_spans(obs.spans())
        by_name = {r["name"]: r for r in rows}
        assert by_name["hot"]["count"] == 3
        assert by_name["cold"]["count"] == 1
        text = obs.format_span_summary(obs.spans())
        assert "hot" in text and "cum" in text


class TestLogging:
    def test_package_root_has_null_handler(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)

    def test_get_logger_prefixes(self):
        assert obs.get_logger("runtime.cache").name == "repro.runtime.cache"
        assert obs.get_logger().name == "repro"

    def test_parse_level(self):
        assert obs.parse_level("debug") == logging.DEBUG
        assert obs.parse_level("WARNING") == logging.WARNING
        with pytest.raises(ValueError):
            obs.parse_level("loud")

    def test_setup_logging_idempotent(self):
        import io

        stream = io.StringIO()
        obs.setup_logging("info", stream=stream)
        obs.setup_logging("debug", stream=stream)
        root = logging.getLogger("repro")
        marked = [h for h in root.handlers
                  if getattr(h, "_repro_obs_handler", False)]
        assert len(marked) == 1
        assert root.level == logging.DEBUG


class TestInstrumentedSolvers:
    def test_fdtd_step_metrics_and_span(self):
        import numpy as np

        from repro.fdtd import ScalarWaveSimulator

        mask = np.ones((16, 16), dtype=bool)
        sim = ScalarWaveSimulator(mask=mask, dx=10e-9, wavelength=110e-9,
                                  frequency=2.282e9)
        obs.enable()
        sim.step(5)
        snap = obs.metrics_snapshot()
        assert snap["counters"]["fdtd.steps"] == 5
        assert snap["counters"]["fdtd.cell_updates"] == 5 * 256
        assert snap["gauges"]["fdtd.steps_per_s"] > 0
        (rec,) = obs.spans()
        assert rec["name"] == "fdtd.step"
        assert rec["attrs"]["cells"] == 256

    def test_fdtd_progress_heartbeat(self):
        import numpy as np

        from repro.fdtd import ScalarWaveSimulator

        beats = []
        mask = np.ones((8, 8), dtype=bool)
        sim = ScalarWaveSimulator(
            mask=mask, dx=10e-9, wavelength=110e-9, frequency=2.282e9,
            progress=lambda n, t: beats.append((n, t)), progress_every=2)
        sim.step(5)
        assert [n for n, _ in beats] == [2, 4]
        assert sim.step_count == 5

    def test_llg_step_counter_and_progress(self):
        import numpy as np

        from repro.micromag.llg import RK4Integrator

        m = np.zeros((3, 1, 1, 4))
        m[2] = 1.0

        def rhs(t, y, scale, out):
            out.fill(0.0)
            return out

        beats = []
        integ = RK4Integrator(rhs, progress=lambda t, dt: beats.append(t))
        obs.enable()
        integ.step(0.0, m, 1e-13)
        assert obs.metrics_snapshot()["counters"]["llg.steps"] == 1
        assert beats == [pytest.approx(1e-13)]


class TestJobRecordTelemetryFields:
    def test_as_dict_includes_started_at_and_trace_id(self):
        rec = JobRecord(label="l", key="k", status="ok", mode="serial",
                        wall_time=0.1,
                        started_at="2026-08-06T00:00:00+00:00",
                        trace_id="cafe")
        d = rec.as_dict()
        assert d["started_at"] == "2026-08-06T00:00:00+00:00"
        assert d["trace_id"] == "cafe"

    def test_utc_now_iso_shape(self):
        stamp = utc_now_iso()
        assert stamp.endswith("+00:00")
        assert "T" in stamp


class TestPrometheusExporter:
    def test_counters_gauges_histograms_render(self):
        obs.counter("serve.requests").inc(3)
        obs.gauge("serve.uptime_s").set(12.5)
        obs.histogram("serve.latency_ms").observe(0.8)
        obs.histogram("serve.latency_ms").observe(3.0)
        text = obs.render_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 3" in text
        assert "repro_serve_uptime_s 12.5" in text
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"} 2' in text
        assert "repro_serve_latency_ms_count 2" in text
        assert "repro_serve_latency_ms_sum 3.8" in text

    def test_bucket_counts_are_cumulative(self):
        for value in (0.5, 1.5, 3.0, 300.0):
            obs.histogram("h").observe(value)
        text = obs.render_prometheus()
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_h_bucket")]
        counts = [float(l.split()[-1]) for l in lines]
        assert counts == sorted(counts)  # monotone non-decreasing
        assert counts[-1] == 4  # +Inf sees every observation

    def test_unset_gauges_are_skipped(self):
        obs.gauge("never.set")
        assert "never_set" not in obs.render_prometheus()

    def test_metric_name_sanitized(self):
        from repro.obs.prometheus import metric_name

        assert metric_name("serve.latency-ms") == "repro_serve_latency_ms"
        assert metric_name("9lives") == "repro_9lives"
