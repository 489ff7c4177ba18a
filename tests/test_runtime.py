"""Tests for the experiment-orchestration engine (``repro.runtime``).

Covers the contract promised in docs/RUNTIME.md: deterministic
content-addressed keys (stable across processes, sensitive to any
parameter change), both cache backends with hit/miss accounting, the
executor's timeout -> retry -> failure escalation and serial-fallback
paths, and an end-to-end cached truth-table sweep reproducing the
paper's Table I MAJ3 logic.
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.logic import input_patterns, majority
from repro.micromag.experiments import run_gate_case, sweep_gate_truth_table
from repro.runtime import (
    DiskCache,
    Executor,
    JobFailed,
    JobSpec,
    MemoryCache,
    RunReport,
    atomic_write,
    canonical_json,
    prune_cache,
)
from repro.runtime.executor import backoff_delay

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


# -- module-level job functions (portable to worker processes) --------------

def add(a, b):
    return a + b


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def always_fails():
    raise RuntimeError("intentional failure")


def flaky(marker_path):
    """Fails on the first call, succeeds after (state via the marker)."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("first attempt fails")
    return "recovered"


def make_array(n):
    return {"values": np.arange(n, dtype=float), "meta": (n, "cells")}


class TestJobKeys:
    def test_key_is_deterministic(self):
        spec = JobSpec(add, {"a": 1, "b": 2.5})
        assert spec.key() == spec.key()

    def test_callable_and_ref_give_same_key(self):
        by_callable = JobSpec(add, {"a": 1, "b": 2})
        by_ref = JobSpec("tests.test_runtime:add", {"a": 1, "b": 2})
        assert by_callable.key() == by_ref.key()

    def test_key_stable_across_processes(self):
        params = {"gate": "maj3", "bits": [0, 1, 1], "tier": "network"}
        spec = JobSpec("repro.micromag.experiments:run_gate_case", params)
        script = (
            "from repro.runtime import JobSpec;"
            "print(JobSpec('repro.micromag.experiments:run_gate_case',"
            f" {params!r}).key())")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == spec.key()

    def test_key_changes_on_param_change(self):
        base = JobSpec(add, {"a": 1, "b": 2})
        assert base.key() != JobSpec(add, {"a": 1, "b": 3}).key()
        assert base.key() != JobSpec(add, {"a": 1, "b": 2.0000001}).key()

    def test_key_changes_on_salt_change(self):
        spec = JobSpec(add, {"a": 1, "b": 2})
        assert spec.key("v1") != spec.key("v2")

    def test_tuple_and_list_params_are_equivalent(self):
        assert JobSpec(add, {"a": (1, 2), "b": 0}).key() == \
            JobSpec(add, {"a": [1, 2], "b": 0}).key()

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == \
            canonical_json(dict([("a", 2), ("b", 1)]))

    def test_numpy_params_canonicalise(self):
        assert JobSpec(add, {"a": np.int64(3), "b": 0}).key() == \
            JobSpec(add, {"a": 3, "b": 0}).key()

    def test_unsupported_param_rejected(self):
        with pytest.raises(TypeError):
            JobSpec(add, {"a": object(), "b": 0}).key()

    def test_portability_detection(self):
        assert JobSpec(add, {}).portable
        assert JobSpec("tests.test_runtime:add", {}).portable
        assert not JobSpec(lambda: 1, {}).portable

    def test_derived_seed_deterministic_and_distinct(self):
        spec = JobSpec(add, {"a": 1, "b": 2})
        other = JobSpec(add, {"a": 1, "b": 3})
        assert spec.seed() == spec.seed()
        assert spec.seed() != other.seed()
        assert spec.seed(stream=1) != spec.seed(stream=0)


class TestCaches:
    def test_memory_cache_roundtrip_and_stats(self):
        cache = MemoryCache()
        found, _ = cache.get("ab" * 20)
        assert not found and cache.stats.misses == 1
        cache.put("ab" * 20, {"x": 1})
        found, value = cache.get("ab" * 20)
        assert found and value == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.writes == 1
        assert cache.stats.hit_rate == 0.5

    def test_disk_cache_roundtrip_with_arrays(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        key = "cd" * 20
        value = {"field": np.linspace(0, 1, 7), "bits": (0, 1, 1),
                 "envelope": 0.5 - 0.25j, "nested": {"ok": True}}
        cache.put(key, value)
        # A fresh instance must read what the first one wrote.
        found, loaded = DiskCache(root=str(tmp_path)).get(key)
        assert found
        np.testing.assert_allclose(loaded["field"], value["field"])
        assert loaded["bits"] == (0, 1, 1)
        assert loaded["envelope"] == 0.5 - 0.25j
        assert loaded["nested"] == {"ok": True}

    def test_disk_cache_salt_namespaces(self, tmp_path):
        key = "ef" * 20
        DiskCache(root=str(tmp_path), salt="v1").put(key, 1)
        found, _ = DiskCache(root=str(tmp_path), salt="v2").get(key)
        assert not found

    def test_disk_cache_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        key = "aa" * 20
        cache.put(key, {"x": 1})
        json_path, _ = cache._paths(key)
        with open(json_path, "w") as handle:
            handle.write("{ truncated")
        found, _ = cache.get(key)
        assert not found

    def test_disk_cache_rejects_malformed_key(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCache(root=str(tmp_path)).put("../escape", 1)


class TestExecutor:
    def test_serial_run_and_cache_hits(self):
        executor = Executor(cache=MemoryCache())
        cold = executor.map(add, [{"a": i, "b": 1} for i in range(4)])
        assert cold.values == [1, 2, 3, 4]
        assert cold.report.cache_hits == 0
        warm = executor.map(add, [{"a": i, "b": 1} for i in range(4)])
        assert warm.values == [1, 2, 3, 4]
        assert warm.report.hit_rate == 1.0
        assert all(o.record.mode == "cached" for o in warm)

    def test_pool_execution(self):
        executor = Executor(workers=2)
        result = executor.map(add, [{"a": i, "b": 10} for i in range(4)])
        assert result.values == [10, 11, 12, 13]
        assert {o.record.mode for o in result} == {"pool"}

    def test_pool_overlaps_sleeps(self):
        # Sleeping jobs overlap even on one core: 4 x 0.3 s on 4
        # workers must beat the 1.2 s serial floor.
        executor = Executor(workers=4)
        t0 = time.perf_counter()
        result = executor.map(sleepy, [{"seconds": 0.3}] * 1
                              + [{"seconds": 0.30001 + i * 1e-5}
                                 for i in range(3)])
        elapsed = time.perf_counter() - t0
        assert all(o.ok for o in result)
        assert elapsed < 1.1

    def test_serial_fallback_for_unportable_jobs(self):
        captured = 5
        executor = Executor(workers=4)
        result = executor.run([JobSpec(lambda x: x + captured, {"x": 1})])
        assert result.values == [6]
        assert result.outcomes[0].record.mode == "serial"

    def test_failure_escalation_records_error(self):
        executor = Executor(retries=2, backoff=0.01)
        result = executor.map(always_fails, [{}])
        record = result.outcomes[0].record
        assert record.status == "failed"
        assert record.attempts == 3
        assert "intentional failure" in record.error
        assert result.values == [None]
        with pytest.raises(JobFailed):
            result.raise_on_failure()

    def test_retry_recovers_flaky_job(self, tmp_path):
        marker = str(tmp_path / "marker")
        executor = Executor(retries=1, backoff=0.01)
        result = executor.map(flaky, [{"marker_path": marker}])
        record = result.outcomes[0].record
        assert result.values == ["recovered"]
        assert record.status == "ok" and record.attempts == 2
        assert record.retries == 1

    def test_timeout_then_retry_then_failure_serial(self):
        executor = Executor(timeout=0.1, retries=1, backoff=0.01)
        result = executor.map(sleepy, [{"seconds": 0.5}])
        record = result.outcomes[0].record
        assert record.status == "failed"
        assert record.attempts == 2
        assert "timeout" in record.error.lower()

    def test_timeout_then_retry_then_failure_pool(self):
        executor = Executor(workers=2, timeout=0.15, retries=1,
                            backoff=0.01)
        result = executor.map(sleepy, [{"seconds": 1.0}])
        record = result.outcomes[0].record
        assert record.status == "failed"
        assert record.attempts == 2
        assert record.mode == "pool"
        assert "timeout" in record.error.lower()

    def test_timeout_within_budget_succeeds(self):
        executor = Executor(timeout=5.0, retries=0)
        result = executor.map(sleepy, [{"seconds": 0.01}])
        assert result.values == [0.01]

    def test_failed_jobs_are_not_cached(self):
        cache = MemoryCache()
        executor = Executor(cache=cache, retries=0, backoff=0.01)
        executor.map(always_fails, [{}])
        assert len(cache) == 0

    def test_array_results_roundtrip_disk_cache(self, tmp_path):
        executor = Executor(cache=DiskCache(root=str(tmp_path)))
        cold = executor.map(make_array, [{"n": 5}])
        warm = executor.map(make_array, [{"n": 5}])
        assert warm.report.hit_rate == 1.0
        np.testing.assert_allclose(warm.values[0]["values"],
                                   cold.values[0]["values"])
        assert warm.values[0]["meta"] == (5, "cells")


class TestRunReport:
    def test_summary_is_not_built_when_info_is_off(self, monkeypatch):
        import logging

        from repro.runtime.report import RunReport

        def exploding(self):
            raise AssertionError("summary built for a log line not logged")

        monkeypatch.setattr(RunReport, "summary", exploding)
        logger = logging.getLogger("repro")
        previous = logger.level
        logger.setLevel(logging.WARNING)
        try:
            result = Executor(retries=0).run([JobSpec(add, {"a": 1, "b": 2})])
        finally:
            logger.setLevel(previous)
        assert result.values == [3]

    def test_telemetry_aggregates_and_json(self, tmp_path):
        executor = Executor(cache=MemoryCache(), retries=0, backoff=0.01)
        executor.map(add, [{"a": 1, "b": 2}])
        result = executor.run([JobSpec(add, {"a": 1, "b": 2}),
                               JobSpec(add, {"a": 3, "b": 4}),
                               JobSpec(always_fails, {})])
        report = result.report
        assert report.n_jobs == 3
        assert report.cache_hits == 1 and report.cache_misses == 2
        assert report.n_computed == 1 and report.n_failed == 1
        table = report.format_table()
        assert "status" in table and "failed" in table
        path = tmp_path / "report.json"
        report.dump_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["summary"]["n_jobs"] == 3
        assert payload["summary"]["cache_hits"] == 1
        assert len(payload["jobs"]) == 3
        statuses = {job["status"] for job in payload["jobs"]}
        assert statuses == {"hit", "ok", "failed"}


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(str(target), lambda fh: fh.write(b'{"ok": true}'))
        assert json.loads(target.read_text()) == {"ok": True}

    def test_failure_preserves_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("original")

        def exploding_writer(handle):
            handle.write(b"partial garbage")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            atomic_write(str(target), exploding_writer)
        assert target.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.json"]  # no .part leftovers

    def test_dump_json_replaces_atomically(self, tmp_path):
        executor = Executor(cache=MemoryCache())
        report = executor.map(add, [{"a": 1, "b": 2}]).report
        path = tmp_path / "report.json"
        path.write_text("stale contents")
        report.dump_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["summary"]["n_jobs"] == 1
        assert os.listdir(tmp_path) == ["report.json"]

    def test_dump_json_serialization_failure_keeps_old_report(
            self, tmp_path, monkeypatch):
        """Regression: a crash while producing the new report must not
        truncate the previous one on disk."""
        executor = Executor(cache=MemoryCache())
        report = executor.map(add, [{"a": 1, "b": 2}]).report
        path = tmp_path / "report.json"
        report.dump_json(str(path))
        original = path.read_text()

        def exploding(self):
            raise RuntimeError("unserializable")

        monkeypatch.setattr(RunReport, "to_json", exploding)
        with pytest.raises(RuntimeError):
            report.dump_json(str(path))
        assert path.read_text() == original
        assert os.listdir(tmp_path) == ["report.json"]


class TestBackoffPolicy:
    def test_first_retry_is_immediate_base(self):
        assert backoff_delay(0.5, 1) == 0.5

    def test_doubles_per_subsequent_retry(self):
        assert [backoff_delay(0.25, i) for i in range(1, 5)] == \
            [0.25, 0.5, 1.0, 2.0]


class TestCacheConcurrency:
    def test_threaded_put_get_same_key(self, tmp_path):
        """Concurrent writers and readers of one key: readers must see
        either a miss or a complete, internally consistent value --
        never an exception or a torn read."""
        cache = DiskCache(root=str(tmp_path))
        key = "ab" * 20
        value = {"arr": np.arange(64, dtype=float), "n": 64}
        errors = []
        hits = {"n": 0}
        stop = threading.Event()

        def writer():
            try:
                while not stop.is_set():
                    cache.put(key, value)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    found, loaded = cache.get(key)
                    if found:
                        hits["n"] += 1
                        np.testing.assert_allclose(loaded["arr"],
                                                   value["arr"])
                        assert loaded["n"] == 64
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = ([threading.Thread(target=writer) for _ in range(2)]
                   + [threading.Thread(target=reader) for _ in range(2)])
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert hits["n"] > 0


class TestCacheMaintenance:
    @staticmethod
    def _fill(cache, n=4, mtime_step=10.0):
        """Store ``n`` entries and stagger their mtimes oldest-first."""
        keys = [format(i, "02x") * 20 for i in range(n)]
        for i, key in enumerate(keys):
            cache.put(key, {"payload": "x" * 256,
                            "arr": np.arange(16, dtype=float), "i": i})
        base = time.time() - 1000.0
        for i, key in enumerate(keys):
            json_path, _ = cache._paths(key)
            when = base + i * mtime_step
            os.utime(json_path, (when, when))
        return keys

    def test_usage_counts_entries_and_bytes(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        keys = self._fill(cache)
        usage = cache.usage()
        assert usage.entries == len(keys)
        assert usage.total_bytes > 0
        (salt_dir,) = usage.by_salt
        assert usage.by_salt[salt_dir] == (usage.entries, usage.total_bytes)
        payload = usage.as_dict()
        assert payload["entries"] == len(keys)

    def test_prune_to_zero_empties_cache(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        keys = self._fill(cache)
        result = cache.prune(max_bytes=0)
        assert result.scanned == len(keys)
        assert result.removed == len(keys)
        assert result.freed_bytes > 0
        assert cache.usage().entries == 0
        for key in keys:
            found, _ = cache.get(key)
            assert not found

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = DiskCache(root=str(tmp_path))
        keys = self._fill(cache)
        usage = cache.usage()
        # Room for all but one entry: only the single oldest goes.
        result = cache.prune(max_bytes=usage.total_bytes - 1)
        assert result.removed == 1
        assert not cache.get(keys[0])[0]
        for key in keys[1:]:
            assert cache.get(key)[0]

    def test_read_touch_promotes_entry(self, tmp_path):
        """A cache hit bumps the entry's mtime, so eviction order is
        true LRU rather than insertion order."""
        cache = DiskCache(root=str(tmp_path))
        keys = self._fill(cache)
        assert cache.get(keys[0])[0]  # the oldest entry becomes newest
        result = cache.prune(max_bytes=cache.usage().total_bytes - 1)
        assert result.removed == 1
        assert cache.get(keys[0])[0]      # promoted, survived
        assert not cache.get(keys[1])[0]  # now-oldest was evicted

    def test_prune_missing_root_is_a_noop(self, tmp_path):
        result = prune_cache(str(tmp_path / "nowhere"), max_bytes=0)
        assert result.scanned == 0 and result.removed == 0


class TestGateSweep:
    def test_cached_maj3_sweep_reproduces_table_i(self, tmp_path):
        from repro.core import PAPER_TABLE_I

        cache = DiskCache(root=str(tmp_path))
        executor = Executor(cache=cache)
        cold = sweep_gate_truth_table("maj3", tier="network",
                                      executor=executor)
        assert cold.report.n_jobs == 8
        assert cold.report.cache_hits == 0
        for bits in input_patterns(3):
            expected = majority(*bits)
            assert cold.logic_table[bits] == (expected, expected)
            assert cold.normalized_table[bits][0] == \
                pytest.approx(PAPER_TABLE_I[bits][0], abs=1e-6)
        assert cold.all_correct

        # Warm pass: every pattern served from the persistent cache,
        # across a *fresh* executor and cache instance.
        warm = sweep_gate_truth_table(
            "maj3", tier="network",
            executor=Executor(cache=DiskCache(root=str(tmp_path))))
        assert warm.report.hit_rate == 1.0
        assert warm.logic_table == cold.logic_table

    def test_xor_sweep(self):
        sweep = sweep_gate_truth_table("xor", tier="network")
        assert sweep.report.n_jobs == 4
        assert sweep.all_correct
        assert sweep.logic_table[(0, 1)] == (1, 1)
        assert sweep.logic_table[(1, 1)] == (0, 0)

    def test_sweep_formats_table(self):
        sweep = sweep_gate_truth_table("maj3", tier="network")
        text = sweep.format_table()
        assert "MAJ3" in text and "O1 (logic)" in text

    def test_run_gate_case_validates_inputs(self):
        with pytest.raises(ValueError):
            run_gate_case("maj7", [0, 1, 1])
        with pytest.raises(ValueError):
            run_gate_case("maj3", [0, 1])
        with pytest.raises(ValueError):
            run_gate_case("maj3", [0, 1, 1], tier="mumax3")

    def test_sweep_rejects_unknown_gate(self):
        with pytest.raises(ValueError):
            sweep_gate_truth_table("nand")
