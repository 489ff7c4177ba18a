"""Tests for the continuous-performance layer: thread-safe metrics,
bucketed histogram quantiles, Prometheus edge cases, the flight
recorder, solver-phase profiling helpers, resource probes, and the
``repro debug dump`` CLI."""

import json
import sys
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.obs import flight, prometheus
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.runtime.report import (
    MODE_POOL, STATUS_OK, JobRecord, RunReport)


@pytest.fixture(autouse=True)
def _clean_observer():
    """Never leak tracer/metrics/flight state across tests."""
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    flight.clear()
    yield
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    flight.clear()


# ---------------------------------------------------------------------------
# Thread safety


class TestRegistryContention:
    def test_counter_no_lost_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        threads_n, iters = 8, 5000

        def hammer():
            for _ in range(iters):
                counter.inc()

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == threads_n * iters

    def test_histogram_no_lost_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        threads_n, iters = 8, 2000

        def hammer():
            for i in range(iters):
                hist.observe(0.5 + (i % 7))

        threads = [threading.Thread(target=hammer)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * iters
        assert hist.count == total
        # Per-bucket tallies must add up too: a torn read-modify-write
        # on bucket_counts would break this even with count intact.
        assert sum(hist.bucket_counts) == total

    def test_same_name_same_instance_under_races(self):
        registry = MetricsRegistry()
        seen = []

        def grab():
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=grab) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1


# ---------------------------------------------------------------------------
# Histogram buckets and quantiles


class TestHistogramQuantiles:
    def test_default_buckets_sorted_finite(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(b > 0 for b in DEFAULT_BUCKETS)

    def test_empty_histogram_quantile_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_quantile_out_of_range_raises(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_quantiles_bracket_the_data(self):
        h = Histogram("h")
        for i in range(1, 101):
            h.observe(i / 10.0)  # 0.1 .. 10.0
        q10, q50, q90 = h.quantile(0.1), h.quantile(0.5), h.quantile(0.9)
        assert q10 <= q50 <= q90
        assert 0.1 <= q10 <= 2.0
        assert 4.0 <= q50 <= 6.0
        assert 8.0 <= q90 <= 10.0
        # Extremes clamp to the observed min/max, not bucket edges.
        assert h.quantile(0.0) == pytest.approx(0.1)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_custom_buckets_and_overflow(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]  # last is +Inf overflow
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_unsorted_buckets_normalised(self):
        h = Histogram("h", buckets=[2.0, 1.0])
        assert h.bounds == (1.0, 2.0)

    def test_non_finite_bucket_bound_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, float("inf")])

    def test_empty_buckets_fall_back_to_defaults(self):
        assert Histogram("h", buckets=[]).bounds == DEFAULT_BUCKETS

    def test_as_dict_has_percentiles(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        data = h.as_dict()
        assert data["count"] == 3
        assert data["p50"] is not None
        assert data["p50"] <= data["p95"] <= data["p99"]


# ---------------------------------------------------------------------------
# Prometheus rendering edge cases


class TestPrometheusEdges:
    def test_empty_registry_renders_bare_newline(self):
        assert prometheus.render_prometheus(snapshot={}) == "\n"

    def test_label_value_escaping(self):
        raw = 'say "hi"\\now\nthen'
        escaped = prometheus.escape_label_value(raw)
        assert '\\"' in escaped
        assert "\\\\" in escaped
        assert "\\n" in escaped
        assert "\n" not in escaped

    def test_nan_and_inf_values(self):
        obs.gauge("weird.nan").set(float("nan"))
        obs.gauge("weird.pos").set(float("inf"))
        obs.gauge("weird.neg").set(float("-inf"))
        out = prometheus.render_prometheus()
        assert "repro_weird_nan NaN" in out
        assert "repro_weird_pos +Inf" in out
        assert "repro_weird_neg -Inf" in out

    def test_help_line_precedes_type_line(self):
        obs.counter("serve.requests").inc()
        obs.histogram("serve.latency_ms").observe(1.0)
        lines = prometheus.render_prometheus().splitlines()
        for name in ("repro_serve_requests_total",
                     "repro_serve_latency_ms"):
            help_i = next(i for i, l in enumerate(lines)
                          if l.startswith(f"# HELP {name} "))
            type_i = next(i for i, l in enumerate(lines)
                          if l.startswith(f"# TYPE {name} "))
            assert help_i == type_i - 1

    def test_histogram_buckets_cumulative_and_conformant(self):
        h = obs.histogram("serve.latency_ms")
        for v in (0.5, 1.5, 3.0, 300.0):
            h.observe(v)
        out = prometheus.render_prometheus()
        counts = []
        for line in out.splitlines():
            if line.startswith("repro_serve_latency_ms_bucket"):
                counts.append(int(line.split()[-1]))
        assert counts == sorted(counts)  # cumulative => monotone
        assert counts[-1] == 4           # le="+Inf" sees everything
        assert "repro_serve_latency_ms_sum" in out
        assert "repro_serve_latency_ms_count 4" in out

    def test_exemplar_attached_to_bucket_line(self):
        h = obs.histogram("serve.latency_ms")
        h.observe(0.3, exemplar="trace-abc123")
        out = prometheus.render_prometheus()
        assert '# {trace_id="trace-abc123"} 0.3' in out


# ---------------------------------------------------------------------------
# Flight recorder


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        capacity = flight._RING.maxlen
        for i in range(capacity + 100):
            flight.record("tick", index=i)
        buffered = flight.events()
        assert len(buffered) == capacity
        assert buffered[0]["index"] == 100  # oldest fell off
        assert buffered[-1]["index"] == capacity + 99

    def test_record_stamps_kind_and_ts(self):
        flight.record("fault", site="fdtd.step")
        (event,) = flight.events()
        assert event["kind"] == "fault"
        assert event["site"] == "fdtd.step"
        assert isinstance(event["ts"], float)

    def test_dump_empty_buffer_returns_none(self, tmp_path):
        assert flight.dump(path=tmp_path / "f.jsonl") is None

    def test_dump_writes_header_then_events(self, tmp_path):
        flight.record("watchdog", solver="fdtd", step=7)
        path = flight.dump(path=tmp_path / "flight-1-now.jsonl",
                           reason="unit-test")
        lines = [json.loads(l) for l in
                 path.read_text().strip().splitlines()]
        assert lines[0]["kind"] == "flight.dump"
        assert lines[0]["reason"] == "unit-test"
        assert lines[0]["events"] == 1
        assert lines[1]["kind"] == "watchdog"
        assert lines[1]["step"] == 7

    def test_auto_dump_rate_limited(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(flight, "_last_auto_dump", 0.0)
        flight.record("crash", error="Boom")
        first = flight.auto_dump(reason="test")
        second = flight.auto_dump(reason="test")
        assert first is not None
        assert second is None  # inside the cooldown window

    def test_latest_dump_picks_newest(self, tmp_path):
        flight.record("a")
        p1 = flight.dump(path=tmp_path / "flight-1-a.jsonl")
        p2 = flight.dump(path=tmp_path / "flight-1-b.jsonl")
        import os
        os.utime(p1, (1, 1))
        assert flight.latest_dump(tmp_path) == p2

    def test_latest_dump_missing_dir(self, tmp_path):
        assert flight.latest_dump(tmp_path / "nope") is None

    def test_spans_feed_the_recorder_when_enabled(self):
        obs.enable()
        with obs.span("fdtd.step"):
            pass
        kinds = [e["kind"] for e in flight.events()]
        assert "span.open" in kinds
        assert "span.close" in kinds


# ---------------------------------------------------------------------------
# Phase timers and resource probes


class TestPhaseTimer:
    def test_laps_accumulate_and_flush_to_histograms(self):
        timer = obs.PhaseTimer("fdtd")
        t0 = timer.stamp()
        t0 = timer.lap("stencil", t0)
        timer.lap("boundary", t0)
        totals = timer.totals_ms()
        assert set(totals) == {"stencil", "boundary"}
        assert all(v >= 0 for v in totals.values())
        timer.flush()
        hists = obs.metrics_snapshot()["histograms"]
        assert hists["fdtd.phase.stencil_ms"]["count"] == 1
        assert hists["fdtd.phase.boundary_ms"]["count"] == 1
        assert timer.totals_ms() == {}  # flush clears

    def test_lap_is_chainable(self):
        timer = obs.PhaseTimer("x")
        t0 = timer.stamp()
        t1 = timer.lap("a", t0)
        assert isinstance(t1, int)
        assert t1 >= t0


class TestResourceProbe:
    def test_finish_reports_cpu_and_rss(self):
        probe = obs.ResourceProbe()
        sum(i * i for i in range(50000))
        usage = probe.finish()
        assert usage is not None
        assert usage["cpu_s"] >= 0.0
        assert usage["max_rss_kb"] > 0

    def test_tracemalloc_peak_is_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACEMALLOC", "1")
        probe = obs.ResourceProbe()
        blob = [bytes(1024) for _ in range(512)]
        usage = probe.finish()
        del blob
        assert "py_peak_kb" in usage
        assert usage["py_peak_kb"] > 0

    def test_no_tracemalloc_key_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACEMALLOC", raising=False)
        usage = obs.ResourceProbe().finish()
        if usage is not None:  # None only off-unix
            assert "py_peak_kb" not in usage


class TestJobResources:
    def test_set_resources_lands_in_as_dict(self):
        record = JobRecord(label="j", key="k", status=STATUS_OK,
                           mode=MODE_POOL)
        record.set_resources({"cpu_s": 1.25, "max_rss_kb": 4096})
        data = record.as_dict()
        assert data["cpu_s"] == 1.25
        assert data["max_rss_kb"] == 4096
        assert "py_peak_kb" not in data

    def test_run_report_aggregates_resources(self):
        report = RunReport()
        for cpu, rss in ((0.5, 1000), (1.5, 3000)):
            record = JobRecord(label="j", key="k", status=STATUS_OK,
                               mode=MODE_POOL)
            record.set_resources({"cpu_s": cpu, "max_rss_kb": rss})
            report.add(record)
        report.add(JobRecord(label="hit", key="k2", status="hit",
                             mode="cached"))
        assert report.total_cpu_time == pytest.approx(2.0)
        assert report.max_rss_kb == 3000
        summary = report.finish().to_dict()["summary"]
        assert summary["total_cpu_s"] == pytest.approx(2.0)
        assert summary["max_rss_kb"] == 3000


# ---------------------------------------------------------------------------
# CLI: repro debug dump


class TestDebugCli:
    def test_no_dumps_exits_one(self, tmp_path, capsys):
        code = main(["debug", "dump", "--dir", str(tmp_path)])
        assert code == 1
        assert "no flight dumps" in capsys.readouterr().err

    def test_dump_is_printed(self, tmp_path, capsys):
        flight.record("watchdog", solver="fdtd", step=5,
                      reason="non-finite field values")
        flight.dump(path=tmp_path / "flight-1-t.jsonl",
                    reason="divergence:fdtd")
        code = main(["debug", "dump", "--dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "divergence:fdtd" in out
        assert "watchdog" in out
        assert "solver=fdtd" in out

    def test_dump_json_passthrough(self, tmp_path, capsys):
        flight.record("breaker", name="llg", state="open")
        flight.dump(path=tmp_path / "flight-1-t.jsonl", reason="r")
        code = main(["debug", "dump", "--dir", str(tmp_path), "--json"])
        assert code == 0
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["kind"] == "flight.dump"
        assert lines[1]["kind"] == "breaker"


class TestExcepthook:
    def test_install_is_idempotent_and_chains(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(flight, "_last_auto_dump", 0.0)
        calls = []
        monkeypatch.setattr(flight, "_prev_excepthook", None)
        monkeypatch.setattr(sys, "excepthook", lambda *a: calls.append(a))
        flight.install_excepthook()
        first = sys.excepthook
        flight.install_excepthook()
        assert sys.excepthook is first  # second install is a no-op
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            sys.excepthook(*sys.exc_info())
        assert len(calls) == 1  # original hook still ran
        kinds = [e["kind"] for e in flight.events()]
        assert "crash" in kinds
        assert flight.latest_dump(tmp_path) is not None
