"""Throughput/latency benchmark for the gate-evaluation service.

Hosts :class:`repro.serve.GateService` in-process (``ServerThread``)
and drives it over real HTTP with keep-alive connections from a pool
of load-generator threads, reporting p50/p95/p99 latency and requests
per second for two regimes:

* **cold**  -- every request is a distinct network-tier evaluation
  (distinct ``seed`` values force fresh cache keys), so each one runs
  through admission, micro-batching and the executor;
* **warm**  -- the requests repeat the paper's truth-table cases, so
  after the first round everything is served from the result cache's
  fast path.

The ISSUE acceptance floor is >= 500 req/s sustained on warm
network-tier requests; ``REPRO_SERVE_MIN_RPS`` overrides it (0
disables the gate, e.g. on a throttled CI runner).  Runnable
standalone (``python benchmarks/bench_serve_throughput.py`` exits
non-zero below the floor) or through pytest.
"""

import http.client
import json
import os
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import emit, write_bench_json  # noqa: E402

try:
    from repro.serve import ServeConfig, ServerThread
except ImportError:  # source checkout without an installed package
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from repro.serve import ServeConfig, ServerThread

MIN_WARM_RPS = float(os.environ.get("REPRO_SERVE_MIN_RPS", "500"))
THREADS = 8
COLD_REQUESTS = 200
WARM_REQUESTS = 2000

#: The paper's truth-table cases (Table I MAJ3 + Table II XOR).
CASES = ([{"gate": "maj3", "bits": [(i >> 2) & 1, (i >> 1) & 1, i & 1]}
          for i in range(8)]
         + [{"gate": "xor", "bits": [(i >> 1) & 1, i & 1]}
            for i in range(4)])


class _Worker(threading.Thread):
    """One load generator: a keep-alive connection posting its share of
    the workload and recording per-request latency."""

    def __init__(self, host, port, payloads):
        super().__init__(daemon=True)
        self.host, self.port = host, port
        self.payloads = payloads
        self.latencies_ms = []
        self.errors = 0

    def run(self):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            for payload in self.payloads:
                body = json.dumps(payload)
                t0 = time.perf_counter()
                conn.request("POST", "/v1/gate", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                self.latencies_ms.append(
                    (time.perf_counter() - t0) * 1e3)
                if resp.status != 200 or not json.loads(
                        data)["result"]["correct"]:
                    self.errors += 1
        finally:
            conn.close()


def _drive(host, port, payloads):
    """Fan ``payloads`` over the worker pool; return the stats dict."""
    shares = [payloads[i::THREADS] for i in range(THREADS)]
    workers = [_Worker(host, port, share) for share in shares if share]
    t0 = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    elapsed = time.perf_counter() - t0
    latencies = sorted(lat for w in workers for lat in w.latencies_ms)
    n = len(latencies)
    return {
        "requests": n,
        "errors": sum(w.errors for w in workers),
        "elapsed_s": elapsed,
        "rps": n / elapsed if elapsed else float("inf"),
        "p50_ms": statistics.quantiles(latencies, n=100)[49],
        "p95_ms": statistics.quantiles(latencies, n=100)[94],
        "p99_ms": statistics.quantiles(latencies, n=100)[98],
        "max_ms": latencies[-1],
    }


def measure():
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as scratch:
        config = ServeConfig(port=0,
                             cache_dir=os.path.join(scratch, "cache"))
        with ServerThread(config) as server:
            host, port = config.host, server.port
            cold_load = [dict(CASES[i % len(CASES)], tier="network",
                              seed=1000 + i)
                         for i in range(COLD_REQUESTS)]
            warm_load = [dict(CASES[i % len(CASES)], tier="network")
                         for i in range(WARM_REQUESTS)]
            cold = _drive(host, port, cold_load)
            _drive(host, port, warm_load[:len(CASES)])  # populate cache
            warm = _drive(host, port, warm_load)
    return {"cold": cold, "warm": warm}


def _report(result):
    lines = [f"{THREADS} keep-alive connections, network tier"]
    for regime in ("cold", "warm"):
        stats = result[regime]
        lines.append(
            f"{regime:5s}: {stats['requests']:5d} requests in "
            f"{stats['elapsed_s']:6.2f} s = {stats['rps']:8.0f} req/s | "
            f"p50 {stats['p50_ms']:6.2f} ms  p95 {stats['p95_ms']:6.2f} ms"
            f"  p99 {stats['p99_ms']:6.2f} ms  max {stats['max_ms']:6.2f}"
            f" ms | errors {stats['errors']}")
    verdict = ("PASS" if result["warm"]["rps"] >= MIN_WARM_RPS
               else "FAIL")
    lines.append(f"floor: warm >= {MIN_WARM_RPS:.0f} req/s -> {verdict}")
    return "\n".join(lines)


def _write_snapshot(result) -> None:
    metrics = {}
    for regime in ("cold", "warm"):
        stats = result[regime]
        metrics[f"{regime}_rps"] = (stats["rps"], "req/s")
        for quantile in ("p50_ms", "p95_ms", "p99_ms"):
            metrics[f"{regime}_{quantile[:-3]}"] = (stats[quantile], "ms")
    write_bench_json("serve_throughput", metrics)


def bench_serve_throughput(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("SERVE THROUGHPUT (warm cache must sustain the req/s floor)",
         _report(result))
    _write_snapshot(result)
    assert result["cold"]["errors"] == 0
    assert result["warm"]["errors"] == 0
    assert result["warm"]["rps"] >= MIN_WARM_RPS


def main() -> int:
    result = measure()
    emit("SERVE THROUGHPUT (warm cache must sustain the req/s floor)",
         _report(result))
    _write_snapshot(result)
    if result["cold"]["errors"] or result["warm"]["errors"]:
        return 1
    return 0 if result["warm"]["rps"] >= MIN_WARM_RPS else 1


if __name__ == "__main__":
    sys.exit(main())
