"""Tests for the gate-evaluation service (``repro.serve``).

Covers the contract promised in docs/SERVING.md: single-flight
coalescing (a 64-way thundering herd of identical requests executes
exactly one job), micro-batching of network-tier requests into one
executor call, bounded-queue and token-bucket admission control with
429 semantics, corrupt cache entries recomputed through the coalescing
path, the hand-rolled HTTP layer end to end (``ServerThread`` +
``ServeClient``), and graceful drain -- including a real
``python -m repro serve`` subprocess stopped with SIGTERM.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor as _TP

import pytest

from repro import obs
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.runtime import DiskCache, Executor, JobSpec
from repro.serve import (
    GatePipeline,
    Overloaded,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    TokenBucket,
)
from repro.serve.pipeline import (
    SOURCE_BATCHED,
    SOURCE_CACHED,
    SOURCE_COALESCED,
    SOURCE_COMPUTED,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _clean_observer():
    """Never leak global tracer/metrics state into (or out of) a test."""
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    yield
    faults.uninstall()
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()


# -- module-level job functions (content-addressable by the cache) ----------

CALLS = {"n": 0}
_CALL_LOCK = threading.Lock()


def counted_add(a, b):
    """Records every real execution -- the coalescing tests assert on it."""
    with _CALL_LOCK:
        CALLS["n"] += 1
    time.sleep(0.02)  # long enough that the herd overlaps the leader
    return a + b


def quick_add(a, b):
    return a + b


def _pipeline(tmp_path, **kwargs):
    cache = DiskCache(root=str(tmp_path / "cache"))
    executor = Executor(cache=cache, workers=1)
    return GatePipeline(executor, cache=cache, **kwargs), executor


def _metric_value(text, name):
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    if name.endswith("_total"):
        return 0.0  # the exposition omits a counter never incremented
    raise AssertionError(f"metric {name} not found in:\n{text}")


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.take()
        assert bucket.take()
        assert not bucket.take()
        assert bucket.retry_after() > 0.0
        time.sleep(0.05)
        assert bucket.take()

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0)


class TestCoalescing:
    def test_64_identical_requests_execute_once(self, tmp_path):
        """ISSUE acceptance: 64 concurrent identical requests on a cold
        cache -> exactly one underlying execution, 63 coalesced."""
        obs.enable()
        CALLS["n"] = 0
        pipeline, _ = _pipeline(tmp_path)
        spec = JobSpec(counted_add, {"a": 1, "b": 2})

        async def herd():
            return await asyncio.gather(
                *(pipeline.submit(spec) for _ in range(64)))

        results = asyncio.run(herd())
        assert [r.value for r in results] == [3] * 64
        assert CALLS["n"] == 1
        assert obs.counter("executor.jobs").value == 1
        assert obs.counter("serve.coalesced").value == 63
        assert sum(r.source == SOURCE_COMPUTED for r in results) == 1
        assert sum(r.source == SOURCE_COALESCED for r in results) == 63

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path)
        specs = [JobSpec(quick_add, {"a": i, "b": 10}) for i in range(3)]

        async def main():
            return await asyncio.gather(
                *(pipeline.submit(s) for s in specs))

        results = asyncio.run(main())
        assert [r.value for r in results] == [10, 11, 12]
        assert obs.counter("serve.coalesced").value == 0

    def test_second_round_is_served_from_cache(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path)
        spec = JobSpec(quick_add, {"a": 4, "b": 5})
        first = asyncio.run(pipeline.submit(spec))
        second = asyncio.run(pipeline.submit(spec))
        assert first.source == SOURCE_COMPUTED
        assert second.source == SOURCE_CACHED
        assert second.value == 9
        assert obs.counter("serve.cache_fastpath").value == 1

    def test_corrupt_cache_entry_recomputes_not_500(self, tmp_path):
        """A corrupt on-disk entry read through the coalescing path must
        be treated as a miss and recomputed -- never surfaced as an
        error to any of the coalesced requests."""
        pipeline, executor = _pipeline(tmp_path)
        spec = JobSpec(quick_add, {"a": 6, "b": 7})
        asyncio.run(pipeline.submit(spec))  # populate the entry
        json_path, _ = executor.cache._paths(spec.key(pipeline.salt))
        with open(json_path, "w") as handle:
            handle.write("{ truncated")

        async def herd():
            return await asyncio.gather(
                *(pipeline.submit(spec) for _ in range(8)))

        results = asyncio.run(herd())
        assert [r.value for r in results] == [13] * 8
        leaders = [r for r in results if r.source != SOURCE_COALESCED]
        assert len(leaders) == 1
        assert leaders[0].source in (SOURCE_COMPUTED, SOURCE_BATCHED)
        # And the entry healed: the next lookup is a clean hit.
        repaired = asyncio.run(pipeline.submit(spec))
        assert repaired.source == SOURCE_CACHED


LANE_HOLD = threading.Event()


def held_add(a, b):
    """Blocks its executor thread until the test sets ``LANE_HOLD``."""
    LANE_HOLD.wait(timeout=30)
    return a + b


async def _wait_in_flight(pipeline, n):
    deadline = time.monotonic() + 10.0
    while pipeline.in_flight < n:
        assert time.monotonic() < deadline, f"never reached {n} in flight"
        await asyncio.sleep(0.005)


async def _hold_lane(pipeline, specs):
    """Occupy the fast lane with a ``held_add`` batch and queue ``specs``
    behind it; returns the holder and the queued submit futures with
    the lane still held (the caller sets ``LANE_HOLD``)."""
    LANE_HOLD.clear()
    holder = asyncio.ensure_future(pipeline.submit(
        JobSpec(held_add, {"a": 0, "b": len(specs)}), batchable=True))
    await _wait_in_flight(pipeline, 1)  # the holder's batch is running
    queued = [asyncio.ensure_future(pipeline.submit(s, batchable=True))
              for s in specs]
    await _wait_in_flight(pipeline, len(specs) + 1)
    assert len(pipeline._queue) == len(specs)  # all behind the lane
    return holder, queued


async def _queue_behind_held_lane(pipeline, specs):
    """Queue ``specs`` behind a held lane, release it and return their
    results."""
    try:
        holder, queued = await _hold_lane(pipeline, specs)
    finally:
        LANE_HOLD.set()
    assert (await holder).batch_size == 1
    return await asyncio.gather(*queued)


class TestBatching:
    def test_queue_behind_busy_lane_leaves_as_one_batch(self, tmp_path):
        obs.enable()
        pipeline, _ = _pipeline(tmp_path)
        specs = [JobSpec(quick_add, {"a": i, "b": 100}) for i in range(4)]

        results = asyncio.run(_queue_behind_held_lane(pipeline, specs))
        assert [r.value for r in results] == [100, 101, 102, 103]
        assert all(r.source == SOURCE_BATCHED for r in results)
        assert all(r.batch_size == 4 for r in results)
        assert obs.counter("serve.batches").value == 2  # holder + queue
        assert obs.counter("serve.batched").value == 4

    def test_batch_max_caps_each_batch(self, tmp_path):
        obs.enable()
        pipeline, _ = _pipeline(tmp_path, batch_max=2)
        specs = [JobSpec(quick_add, {"a": i, "b": 200}) for i in range(5)]

        results = asyncio.run(_queue_behind_held_lane(pipeline, specs))
        assert [r.value for r in results] == [200, 201, 202, 203, 204]
        assert sorted(r.batch_size for r in results) == [1, 2, 2, 2, 2]
        assert obs.counter("serve.batches").value == 4  # holder + 2 + 2 + 1

    def test_same_tick_requests_share_one_batch(self, tmp_path):
        """Without a cache lookup to await, a gather of submits enqueues
        in one loop tick: the idle lane takes them all at once."""
        cache = DiskCache(root=str(tmp_path / "cache"))
        pipeline = GatePipeline(Executor(cache=cache, workers=1))
        specs = [JobSpec(quick_add, {"a": i, "b": 400}) for i in range(3)]

        async def main():
            return await asyncio.gather(
                *(pipeline.submit(s, batchable=True) for s in specs))

        results = asyncio.run(main())
        assert [r.value for r in results] == [400, 401, 402]
        assert all(r.source == SOURCE_BATCHED for r in results)
        assert all(r.batch_size == 3 for r in results)

    def test_lone_batchable_request_is_computed(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path)
        result = asyncio.run(pipeline.submit(
            JobSpec(quick_add, {"a": 3, "b": 300}), batchable=True))
        assert result.value == 303
        assert result.source == SOURCE_COMPUTED
        assert result.batch_size == 1

    def test_idle_lane_never_sleeps(self, tmp_path, monkeypatch):
        """Group commit has no collection window: a request that finds
        the lane idle runs at once."""
        from repro.serve import pipeline as pipeline_module

        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            # Recorded, not raised: an error thrown into the lane task
            # would leave the request waiting instead of failing.
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(pipeline_module.asyncio, "sleep",
                            recording_sleep)
        pipeline, _ = _pipeline(tmp_path)
        result = asyncio.run(pipeline.submit(
            JobSpec(quick_add, {"a": 5, "b": 500}), batchable=True))
        assert sleeps == [], f"the fast lane slept {sleeps}"
        assert result.value == 505
        assert result.source == SOURCE_COMPUTED
        assert result.batch_size == 1

    def test_drain_runs_every_queued_batch(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path, batch_max=2)
        specs = [JobSpec(quick_add, {"a": i, "b": 600}) for i in range(3)]

        async def main():
            try:
                holder, queued = await _hold_lane(pipeline, specs)
            finally:
                threading.Timer(0.05, LANE_HOLD.set).start()
            await pipeline.drain()
            assert pipeline.in_flight == 0 and not pipeline._queue
            return await asyncio.gather(holder, *queued)

        results = asyncio.run(main())
        assert [r.value for r in results] == [3, 600, 601, 602]
        assert sorted(r.batch_size for r in results[1:]) == [1, 2, 2]


class TestBackpressure:
    def test_queue_full_rejects_with_overloaded(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path, max_queue=2)
        specs = [JobSpec(counted_add, {"a": i, "b": 0}) for i in range(6)]

        async def main():
            results = await asyncio.gather(
                *(pipeline.submit(s) for s in specs),
                return_exceptions=True)
            await pipeline.drain()
            return results

        results = asyncio.run(main())
        served = [r for r in results if not isinstance(r, Exception)]
        rejected = [r for r in results if isinstance(r, Overloaded)]
        assert len(served) == 2
        assert len(rejected) == 4
        assert all(r.retry_after > 0 for r in rejected)
        assert obs.counter("serve.rejected_queue").value == 4

    def test_rate_limit_rejects_with_retry_after(self, tmp_path):
        pipeline, _ = _pipeline(tmp_path, rate=1.0, burst=1.0)
        specs = [JobSpec(quick_add, {"a": i, "b": 1}) for i in range(2)]

        async def main():
            results = await asyncio.gather(
                *(pipeline.submit(s) for s in specs),
                return_exceptions=True)
            await pipeline.drain()
            return results

        results = asyncio.run(main())
        rejected = [r for r in results if isinstance(r, Overloaded)]
        assert len(rejected) == 1
        assert rejected[0].retry_after > 0
        assert obs.counter("serve.rejected_rate").value == 1

    def test_cache_hits_bypass_admission(self, tmp_path):
        """Warm keys are served even when the service sheds new work."""
        pipeline, _ = _pipeline(tmp_path, rate=1.0, burst=1.0)
        spec = JobSpec(quick_add, {"a": 8, "b": 9})
        asyncio.run(pipeline.submit(spec))  # consumes the only token
        for _ in range(5):                  # all hits, none rejected
            assert asyncio.run(pipeline.submit(spec)).source == SOURCE_CACHED
        assert obs.counter("serve.rejected_rate").value == 0


def _server(tmp_path, **overrides):
    settings = dict(port=0, cache_dir=str(tmp_path / "cache"),
                    access_log=str(tmp_path / "access.jsonl"))
    settings.update(overrides)
    return ServerThread(ServeConfig(**settings))


class TestHttpService:
    def test_healthz_gate_sweep_metrics(self, tmp_path):
        with _server(tmp_path) as server:
            client = ServeClient(server.base_url)
            health = client.health()
            assert health["status"] == "ok"
            assert "version" in health

            first = client.gate("xor", [1, 0])
            assert first["result"]["correct"] is True
            assert first["served"]["source"] in (SOURCE_COMPUTED,
                                                SOURCE_BATCHED)
            again = client.gate("xor", [1, 0])
            assert again["served"]["source"] == SOURCE_CACHED

            sweep = client.sweep("maj3")
            assert sweep["all_correct"] is True
            assert len(sweep["cases"]) == 8

            text = client.metrics()
            assert "repro_serve_requests_total" in text
            assert _metric_value(text, "repro_serve_requests_total") >= 4

    def test_validation_and_routing_errors(self, tmp_path):
        with _server(tmp_path) as server:
            client = ServeClient(server.base_url, retries=0)
            with pytest.raises(ServeError) as err:
                client.gate("flux", [0, 1])
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.gate("maj3", [0, 1])        # wrong arity
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.gate("maj3", [0, 1, 1], tier="mumax3")
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.gate("maj3", [0, 1, 1], bogus_param=3)
            assert err.value.status == 400
            # Malformed case values are refused before admission.
            for bad in ({"frequency": "abc"}, {"frequency": -1},
                        {"temperature": "hot"}, {"seed": "x"},
                        {"calibrated": "false"}):
                with pytest.raises(ServeError) as err:
                    client.gate("xor", [0, 1], **bad)
                assert err.value.status == 400, bad
                with pytest.raises(ServeError) as err:
                    client.sweep("xor", **bad)
                assert err.value.status == 400, bad
            with pytest.raises(ServeError) as err:
                client._request("POST", "/v1/nope", {})
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client._request("GET", "/v1/gate")
            assert err.value.status == 405

    def test_malformed_request_never_feeds_the_breaker(self, tmp_path):
        with _server(tmp_path, breaker_threshold=1,
                     breaker_reset_s=60.0) as server:
            status, _headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [0, 1], "frequency": "abc"})
            assert status == 400
            assert "frequency" in body["error"]
            status, _headers, body = _post(
                server.base_url, "/v1/gate", {"gate": "xor", "bits": [0, 1]})
            assert status == 200
            assert body["result"]["correct"] is True
            assert ServeClient(server.base_url).health()["status"] == "ok"

    def test_http_herd_executes_once(self, tmp_path):
        """The acceptance scenario over real HTTP: 64 concurrent
        identical POST /v1/gate requests, cold cache -> one execution
        (every non-leader answer is coalesced or cached)."""
        with _server(tmp_path) as server:
            client = ServeClient(server.base_url, timeout=60.0)

            def post(_):
                return client.gate("maj3", [1, 0, 1])

            with _TP(max_workers=64) as pool:
                answers = list(pool.map(post, range(64)))

            assert all(a["result"]["correct"] for a in answers)
            sources = [a["served"]["source"] for a in answers]
            leaders = [s for s in sources
                       if s in (SOURCE_COMPUTED, SOURCE_BATCHED)]
            assert len(leaders) == 1
            assert all(s in (SOURCE_COALESCED, SOURCE_CACHED)
                       for s in sources if s not in leaders)

            text = client.metrics()
            assert _metric_value(text, "repro_executor_jobs_total") == 1
            coalesced = _metric_value(text, "repro_serve_coalesced_total")
            cached = _metric_value(text, "repro_serve_cache_fastpath_total")
            assert coalesced + cached == 63

    def test_rate_limited_server_returns_429(self, tmp_path):
        with _server(tmp_path, rate=0.001, burst=1.0) as server:
            client = ServeClient(server.base_url, retries=0)
            first = client.gate("xor", [0, 1])
            assert first["result"]["correct"] is True
            with pytest.raises(ServeError) as err:
                client.gate("xor", [1, 1])  # different key, no tokens left
            assert err.value.status == 429
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1.0

    def test_client_retries_through_429(self, tmp_path):
        with _server(tmp_path, rate=2.0, burst=1.0) as server:
            client = ServeClient(server.base_url, retries=5, backoff=0.05)
            assert client.gate("xor", [0, 0])["result"]["correct"] is True
            # Token bucket is empty now; the client must absorb the 429
            # and succeed on a retry once it refills.
            assert client.gate("xor", [1, 0])["result"]["correct"] is True

    def test_graceful_drain_writes_access_log(self, tmp_path):
        server = _server(tmp_path)
        server.start()
        client = ServeClient(server.base_url)
        client.gate("xor", [1, 1])
        server.stop()
        lines = [json.loads(line) for line in
                 open(tmp_path / "access.jsonl", encoding="utf-8")]
        assert len(lines) >= 1
        gate_line = next(l for l in lines if l["path"] == "/v1/gate")
        assert gate_line["status"] == 200
        assert gate_line["method"] == "POST"
        assert gate_line["request_id"]
        assert gate_line["duration_ms"] >= 0
        # Port is released after drain.
        with pytest.raises(Exception):
            urllib.request.urlopen(server.base_url + "/healthz", timeout=0.5)


def _post(base, path, payload, headers=None, timeout=30.0):
    """Raw POST returning (status, headers, body) without raising."""
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


@pytest.fixture()
def surrogate_dir(tmp_path):
    """A characterized + fitted XOR surrogate model on disk."""
    from repro.surrogate import (
        AxisSpec,
        CharacterizationStore,
        characterize,
        clear_registry,
        fit_surrogate,
    )

    clear_registry()
    store = CharacterizationStore(str(tmp_path / "surrogate"))
    dataset = store.dataset("xor", axes=(
        AxisSpec("phase_noise", (0.0, 0.2)),
        AxisSpec("frequency_detune", (-0.02, 0.0, 0.02)),
        AxisSpec("geometry_jitter", (0.0,)),
        AxisSpec("temperature", (0.0,))), n_trials=2)
    fit_surrogate(characterize(dataset).values()).save(
        store.model_path("xor"))
    yield store.root
    clear_registry()


class TestSurrogateServing:
    def test_in_domain_answers_from_surrogate(self, tmp_path,
                                              surrogate_dir):
        with _server(tmp_path, surrogate_dir=surrogate_dir) as server:
            client = ServeClient(server.base_url)
            reply = client.gate("xor", [1, 0], tier="surrogate",
                                phase_noise=0.1)
            assert reply["served"]["source"] == "surrogate"
            assert reply["result"]["tier"] == "surrogate"
            assert reply["result"]["correct"] is True
            assert "degraded_from" not in reply["result"]

    def test_sweep_served_from_surrogate(self, tmp_path, surrogate_dir):
        with _server(tmp_path, surrogate_dir=surrogate_dir) as server:
            client = ServeClient(server.base_url)
            sweep = client.sweep("xor", tier="surrogate")
            assert sweep["all_correct"] is True
            assert all(case["tier"] == "surrogate"
                       for case in sweep["cases"])

    def test_out_of_domain_falls_back_with_annotation(self, tmp_path,
                                                      surrogate_dir):
        with _server(tmp_path, surrogate_dir=surrogate_dir) as server:
            client = ServeClient(server.base_url)
            reply = client.gate("xor", [1, 0], tier="surrogate",
                                frequency=12e9)  # outside the grid
            assert reply["result"]["tier"] == "network"
            assert reply["result"]["degraded_from"] == "surrogate"
            assert reply["result"]["correct"] is True
            assert reply["served"]["source"] != "surrogate"

            # The fallback is cached under the network spec; a second
            # hit must STILL carry the annotation (applied after
            # retrieval, not baked into the cached value).
            again = client.gate("xor", [1, 0], tier="surrogate",
                                frequency=12e9)
            assert again["served"]["source"] == SOURCE_CACHED
            assert again["result"]["degraded_from"] == "surrogate"

    def test_unfitted_model_falls_back(self, tmp_path):
        from repro.surrogate import clear_registry

        clear_registry()
        empty = str(tmp_path / "no-models")
        os.makedirs(empty)
        with _server(tmp_path, surrogate_dir=empty) as server:
            client = ServeClient(server.base_url)
            reply = client.gate("xor", [1, 0], tier="surrogate")
            assert reply["result"]["correct"] is True
            assert reply["result"]["degraded_from"] == "surrogate"

    def test_surrogate_params_rejected_on_physical_tier(self, tmp_path):
        with _server(tmp_path) as server:
            client = ServeClient(server.base_url, retries=0)
            with pytest.raises(ServeError) as err:
                client.gate("xor", [1, 0], tier="network",
                            phase_noise=0.1)
            assert err.value.status == 400


class TestDeadlines:
    def test_deadline_exceeded_returns_504(self, tmp_path):
        """A request whose deadline expires gets 504 while the
        computation keeps running for coalescers and the cache."""
        faults.install(FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="slow", at=1,
                      count=100, delay_s=1.0)]))
        with _server(tmp_path) as server:
            t0 = time.monotonic()
            status, _headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [0, 1]},
                headers={"x-deadline-ms": "150"})
            elapsed = time.monotonic() - t0
            assert status == 504
            assert "deadline" in body["error"]
            assert elapsed < 0.9  # answered well before the 1 s job
            faults.uninstall()
            # The shielded computation finished behind the 504: the
            # same key is now (or soon) a cache hit, not a recompute.
            status, _headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [0, 1]}, timeout=30.0)
            assert status == 200
            assert body["result"]["correct"] is True

    def test_configured_default_deadline_applies(self, tmp_path):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="slow", at=1,
                      count=100, delay_s=1.0)]))
        with _server(tmp_path, deadline_s=0.15) as server:
            status, _headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [1, 0]})
            assert status == 504
            faults.uninstall()

    def test_bad_deadline_header_is_400(self, tmp_path):
        with _server(tmp_path) as server:
            for bad in ("soon", "-5", "0", "inf"):
                status, _headers, body = _post(
                    server.base_url, "/v1/gate",
                    {"gate": "xor", "bits": [0, 1]},
                    headers={"x-deadline-ms": bad})
                assert status == 400, bad
                assert "x-deadline-ms" in body["error"]


class TestCircuitBreaker:
    def test_open_circuit_rejects_with_503_and_degrades_healthz(
            self, tmp_path):
        with _server(tmp_path, breaker_threshold=1,
                     breaker_reset_s=60.0) as server:
            client = ServeClient(server.base_url, retries=0)
            # Warm one key while the tier is healthy.
            assert client.gate("xor", [0, 0])["result"]["correct"] is True

            faults.install(FaultPlan(specs=[
                FaultSpec(site="executor.invoke", kind="error", at=1,
                          count=100)]))
            with pytest.raises(ServeError) as err:
                client.gate("xor", [0, 1])  # fails -> breaker opens
            assert err.value.status == 500

            status, headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [1, 1]})
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0
            assert "circuit" in body["error"]

            health = client.health()
            assert health["status"] == "degraded"
            assert health["circuits"]["tier:network"]["state"] == "open"

            # Cached keys are still served while the circuit is open.
            status, _headers, body = _post(
                server.base_url, "/v1/gate",
                {"gate": "xor", "bits": [0, 0]})
            assert status == 200
            assert body["served"]["source"] == SOURCE_CACHED

            text = client.metrics()
            assert _metric_value(
                text, "repro_serve_rejected_circuit_total") >= 1
            faults.uninstall()

    def test_circuit_recovers_through_half_open_probe(self, tmp_path):
        with _server(tmp_path, breaker_threshold=1,
                     breaker_reset_s=0.3) as server:
            client = ServeClient(server.base_url, retries=0)
            # Exactly enough fault hits to fail all three attempts
            # (retries=2 extra attempts) of one job, then go inert.
            faults.install(FaultPlan(specs=[
                FaultSpec(site="executor.invoke", kind="error", at=1,
                          count=3)]))
            with pytest.raises(ServeError) as err:
                client.gate("xor", [0, 1])
            assert err.value.status == 500
            assert client.health()["status"] == "degraded"

            time.sleep(0.4)  # past the reset timeout: probe admitted
            answer = client.gate("xor", [1, 0])
            assert answer["result"]["correct"] is True
            health = client.health()
            assert health["status"] == "ok"
            assert health["circuits"]["tier:network"]["state"] == "closed"


class TestServeSubprocess:
    def test_sigterm_drains_cleanly(self, tmp_path):
        """`python -m repro serve` exits 0 on SIGTERM after finishing
        in-flight work, leaving a flushed access log behind."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        access = tmp_path / "access.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--cache-dir", str(tmp_path / "cache"),
             "--access-log", str(access)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            base = f"http://127.0.0.1:{port}"
            client = ServeClient(base, retries=8, backoff=0.25)
            assert client.health()["status"] == "ok"
            assert client.gate("xor", [0, 1])["result"]["correct"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        lines = access.read_text().strip().splitlines()
        assert len(lines) >= 2  # healthz + gate at minimum
        assert any(json.loads(l)["path"] == "/v1/gate" for l in lines)

    def test_sigterm_drains_in_flight_microbatch(self, tmp_path):
        """SIGTERM while a micro-batch is queued behind a busy fast lane
        must run that batch and answer every waiter before the process
        exits."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        # The first job sleeps, holding the lane while two more queue.
        env["REPRO_FAULTS"] = FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="slow", at=1, count=1,
                      delay_s=2.0)]).to_json()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            base = f"http://127.0.0.1:{port}"
            client = ServeClient(base, retries=8, backoff=0.25)
            assert client.health()["status"] == "ok"

            answers = {}

            def post(bits):
                answers[tuple(bits)] = _post(
                    base, "/v1/gate", {"gate": "xor", "bits": bits},
                    timeout=30.0)

            def wait_in_flight(n):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.health()["in_flight"] >= n:
                        return
                    time.sleep(0.02)
                pytest.fail(f"never {n} jobs in flight")

            threads = [threading.Thread(target=post, args=([0, 0],))]
            threads[0].start()
            wait_in_flight(1)  # the slowed job holds the lane
            threads += [threading.Thread(target=post, args=([0, 1],)),
                        threading.Thread(target=post, args=([1, 0],))]
            for thread in threads[1:]:
                thread.start()
            wait_in_flight(3)  # both queued behind it
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=30)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert set(answers) == {(0, 0), (0, 1), (1, 0)}
        for status, _headers, body in answers.values():
            assert status == 200
            assert body["result"]["correct"] is True
        assert answers[(0, 0)][2]["served"]["source"] == SOURCE_COMPUTED
        for bits in ((0, 1), (1, 0)):
            served = answers[bits][2]["served"]
            assert served["source"] == SOURCE_BATCHED
            assert served["batch_size"] == 2
