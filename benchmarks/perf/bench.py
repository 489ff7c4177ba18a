"""The repository benchmark: end-to-end and per-layer metrics.

    python benchmarks/perf/bench.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in fresh subprocesses from a fresh run directory
under ``benchmarks/perf/out/`` (its own result cache, no ``.repro_cache``
in the tree).  Every metric is printed as ``workload.metric value
unit``, every output is checked against ``golden.json``, a result
record with the host fingerprint is written to ``--out``, and the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output was correct.

``--seconds`` is how long one run measures; it defaults to
BENCHMARK.json's ``run_seconds``, is written into every record, and
compare.py refuses to compare records of different lengths.

``--trace 0`` (default) reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` (or a bare ``--trace``) runs each
workload once untraced and once with the layer wrappers of tracing.py
and reports the per-layer metrics, including the tracing overhead.
README.md defines every workload and metric.
"""

import argparse
import cmath
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

import loadgen
from fingerprint import host_fingerprint
from stats import finite, timing_summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RUNNER = os.path.join(HERE, "runner.py")
OUT = os.path.join(HERE, "out")

#: Set-up is timed over this many launches, half before the measured
#: operations and half after, and the median is reported.  The host's
#: speed drifts over seconds: launches in a row agree with each other,
#: so the two halves make a run's median span the run, not one moment.
SETUP_REPEATS = 6
#: Serve workloads: the closed loop takes this share of the run, in
#: this many equal windows; the open loop takes the rest.
CLOSED_SHARE = 0.4
CLOSED_WINDOWS = 6
PROCESS_TIMEOUT = 100.0
#: Traced runs write their summary here (and spans to <file>.spans.jsonl).
TRACE_FILE = "trace.json"


class BenchError(RuntimeError):
    """A workload could not be measured (a process failed or hung)."""


def _read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _env(run_dir: str) -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=run_dir,
               REPRO_FLIGHT_DIR=os.path.join(run_dir, "flight"))
    env.pop("REPRO_FAULTS", None)
    return env


def _stop(proc: subprocess.Popen, sig: int = signal.SIGTERM) -> int:
    """Signal ``proc`` and wait for it; kill it if it will not go."""
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        return proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


# -- solver workloads ---------------------------------------------------------

def _launch_runner(mode: str, run_dir: str, seed: int, seconds: float,
                   trace_out: Optional[str], setup_only: bool):
    """Start runner.py; returns (process, seconds until its ``ready``)."""
    cmd = [sys.executable, RUNNER, mode, "--seconds", str(seconds),
           "--seed", str(seed), "--run-dir", run_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    stderr = open(os.path.join(run_dir, f"{mode}.stderr"), "ab")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=run_dir, env=_env(run_dir),
                            stdout=subprocess.PIPE, stderr=stderr, text=True)
    stderr.close()
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc, signal.SIGKILL)
        raise BenchError(f"runner {mode} failed before ready; see "
                         f"{run_dir}/{mode}.stderr")
    return proc, ready_s


def _check_fdtd(out: Dict[str, Any], golden: Dict[str, Any]) -> bool:
    tol = golden["tolerances"]["fdtd_abs"]
    reference = golden["fdtd_xor"]
    return (out["all_correct"] and out["logic"] == reference["logic"]
            and out["normalized"].keys() == reference["normalized"].keys()
            and all(abs(a - b) <= tol
                    for key, values in out["normalized"].items()
                    for a, b in zip(values, reference["normalized"][key])))


def _check_llg(out: Dict[str, Any], golden: Dict[str, Any]) -> bool:
    """Each probe's envelope (amplitude and phase as one complex
    number) within the relative tolerance."""
    tol = golden["tolerances"]["llg_rel"]

    def envelopes(case):
        return {name: cmath.rect(amplitude, case["phases"][name])
                for name, amplitude in case["amplitudes"].items()}

    got, want = envelopes(out), envelopes(golden["llg_xor"][out["bits"]])
    return got.keys() == want.keys() and all(
        abs(got[name] - want[name]) <= tol * abs(want[name]) for name in want)


def solver_workload(mode: str, check: Callable[[Dict, Dict], bool]):
    """A workload whose operation runs in runner.py back to back: a
    cold FDTD sweep (``fdtd``) or a truncated LLG solve (``llg``)."""

    def spare_setup(run_dir: str, seed: int, seconds: float) -> float:
        proc, ready_s = _launch_runner(mode, run_dir, seed, seconds,
                                       None, True)
        try:
            proc.communicate(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            _stop(proc, signal.SIGKILL)
            raise BenchError(f"runner {mode} --setup-only did not exit")
        if proc.returncode != 0:
            raise BenchError(f"runner {mode} --setup-only failed")
        return ready_s

    def run(run_dir: str, seed: int, seconds: float, golden: Dict[str, Any],
            traced: bool, setups: int) -> Dict[str, Any]:
        spares = setups - 1
        ready = [spare_setup(run_dir, seed, seconds)
                 for _ in range(spares // 2)]
        trace_out = os.path.join(run_dir, TRACE_FILE) if traced else None
        proc, ready_s = _launch_runner(mode, run_dir, seed, seconds,
                                       trace_out, False)
        ready.append(ready_s)
        try:
            out, _ = proc.communicate(timeout=seconds + PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            _stop(proc, signal.SIGKILL)
            raise BenchError(f"runner {mode} did not finish")
        if proc.returncode != 0:
            raise BenchError(f"runner {mode} exited {proc.returncode}; see "
                             f"{run_dir}/{mode}.stderr")
        ready += [spare_setup(run_dir, seed, seconds)
                  for _ in range(spares - spares // 2)]
        result = json.loads(out.strip().splitlines()[-1])
        walls = result["walls_s"]
        failed = sum(1 for o in result["outputs"] if not check(o, golden))
        return {"attempted": len(walls), "failed": failed, "ops": len(walls),
                "e2e": {"setup_s": statistics.median(ready),
                        "latency_p50_ms": statistics.median(walls) * 1e3,
                        "peak_rss_mb": result["peak_rss_mb"]},
                "trace": _read_json(trace_out) if traced else None,
                "client": {},
                "detail": {"op_walls_s": walls, "setup_runs_s": ready}}

    return run


# -- serve workloads ----------------------------------------------------------

TABLE_CASES = ([("maj3", [(i >> 2) & 1, (i >> 1) & 1, i & 1]) for i in range(8)]
               + [("xor", [(i >> 1) & 1, i & 1]) for i in range(4)])


def _expected(gate: str, bits: List[int]) -> int:
    return int(sum(bits) >= 2) if gate == "maj3" else bits[0] ^ bits[1]


def gate_checker(golden: Dict[str, Any]) -> loadgen.Check:
    """Right answers: logic at every output; Table I/II values exactly
    for every network-tier answer (fallbacks included); surrogate
    answers from the surrogate, fallbacks marked as such."""
    tables = golden["network"]

    def check(request, status, body) -> bool:
        payload, kind = request
        if status != 200 or not isinstance(body, dict):
            return False
        result = body.get("result") or {}
        gate, bits = payload["gate"], payload["bits"]
        expected = _expected(gate, bits)
        outputs = result.get("outputs") or {}
        if (not outputs or result.get("correct") is not True
                or any(o.get("logic") != expected for o in outputs.values())):
            return False
        if kind == "surrogate":
            return result.get("tier") == "surrogate"
        if kind == "ood" and result.get("degraded_from") != "surrogate":
            return False
        key = "".join(map(str, bits))
        return result.get("normalized") == tables[gate][key]

    return check


class HotMix:
    """75 % Table I/II network repeats (12 keys), 20 % in-domain XOR
    surrogate queries, 5 % out-of-domain ones (phase noise beyond the
    fitted 0.2 rad, which fall back to the nominal network answer)."""

    rate = 400.0
    limit_ms = 10.0
    pair_frac = 0.0

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self):
        rng = self.rng
        u = rng.random()
        if u < 0.75:
            gate, bits = rng.choice(TABLE_CASES)
            return {"gate": gate, "bits": bits, "tier": "network"}, "table"
        bits = [rng.randint(0, 1), rng.randint(0, 1)]
        if u < 0.95:
            return {"gate": "xor", "bits": bits, "tier": "surrogate",
                    "phase_noise": rng.uniform(0.0, 0.2),
                    "frequency": 10e9 * (1.0 + rng.uniform(-0.02, 0.02)),
                    "temperature": rng.uniform(0.0, 300.0)}, "surrogate"
        return {"gate": "xor", "bits": bits, "tier": "surrogate",
                "phase_noise": rng.uniform(0.25, 0.6)}, "ood"

    def warmup(self):
        return ([({"gate": g, "bits": b, "tier": "network"}, "table")
                 for g, b in TABLE_CASES]
                + [({"gate": "xor", "bits": b, "tier": "surrogate",
                     "phase_noise": 0.5}, "ood") for _, b in TABLE_CASES[8:]]
                + [self() for _ in range(40)])


class ColdMix:
    """Every request a network-tier key never seen before (a distinct
    ``seed``); 10 % of the open loop goes out as simultaneous duplicate
    pairs, one on each connection."""

    rate = 100.0
    limit_ms = 50.0
    pair_frac = 0.1

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seeds = itertools.count(1)

    def __call__(self):
        gate, bits = self.rng.choice(TABLE_CASES)
        return {"gate": gate, "bits": bits, "tier": "network",
                "seed": next(self.seeds)}, "fresh"

    def warmup(self):
        return [self() for _ in range(40)]


def open_schedule(mix, duration_s: float) -> List[tuple]:
    """Due offsets at ``mix.rate``; duplicate pairs start on an even
    index so the two copies leave on different connections."""
    n = int(mix.rate * duration_s)
    schedule = []
    while len(schedule) < n:
        index = len(schedule)
        request = mix()
        schedule.append((index / mix.rate, request))
        if (index % 2 == 0 and index + 1 < n
                and mix.rng.random() < mix.pair_frac):
            schedule.append((index / mix.rate, request))
    return schedule


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve`` (through runner.py) in a subprocess."""

    def __init__(self, run_dir: str, trace_out: Optional[str]):
        self.port = _free_port()
        self.trace_out = trace_out
        cmd = [sys.executable, RUNNER, "serve"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "--port", str(self.port),
                "--cache-dir", os.path.join(run_dir, "cache"),
                "--surrogate-dir", os.path.join(run_dir, "surrogate")]
        log = open(os.path.join(run_dir, "serve.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=run_dir, env=_env(run_dir),
                                     stdout=log, stderr=log)
        log.close()
        try:
            self._wait_healthy()
        except BaseException:
            _stop(self.proc, signal.SIGKILL)
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} "
                                 "before it was healthy; see serve.log")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=2)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise BenchError("server not healthy within 60 s")

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as f:
            return f.read()

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> Optional[Dict[str, Any]]:
        """Drain and stop; returns the trace summary of a traced server."""
        code = _stop(self.proc)
        if code != 0:
            raise BenchError(f"server exited {code} on SIGTERM")
        return _read_json(self.trace_out) if self.trace_out else None


def _served_stats(samples: List[loadgen.Sample]) -> Dict[str, float]:
    """Where answers came from, and time split around the handler."""
    served = [s for s in samples if s.served]
    n = len(served) or 1
    sources = [s.served["source"] for s in served]
    computed = [s.served["batch_size"] for s in served
                if s.served["source"] in ("batched", "computed")]
    handler = [s.served["duration_ms"] for s in served]
    http = [(s.done - s.sent) * 1e3 - s.served["duration_ms"] for s in served]
    return {"handler_ms_p50": timing_summary(handler)["p50"],
            "http_ms_p50": timing_summary(http)["p50"],
            "cached_frac": sources.count("cached") / n,
            "surrogate_frac": sources.count("surrogate") / n,
            "batched_frac": sources.count("batched") / n,
            "coalesced_frac": sources.count("coalesced") / n,
            "batch_size_mean": (statistics.fmean(computed)
                                if computed else 0.0)}


def gate_workload(mix_class):
    """A ``repro serve`` workload driven by :mod:`loadgen`: warm-up,
    closed loop for capacity, open loop at the mix's fixed rate."""

    def run(run_dir: str, seed: int, seconds: float, golden: Dict[str, Any],
            traced: bool, setups: int) -> Dict[str, Any]:
        check = gate_checker(golden)
        mix = mix_class(random.Random(seed))
        if mix_class is HotMix:
            # The fit is the user's one-off preparation, not set-up.
            subprocess.run([sys.executable, RUNNER, "fit", "--dir",
                            os.path.join(run_dir, "surrogate")],
                           cwd=run_dir, env=_env(run_dir), check=True,
                           timeout=PROCESS_TIMEOUT,
                           stdout=subprocess.DEVNULL)

        def spare_setup() -> float:
            spare = Server(run_dir, None)
            spare.stop()
            return spare.ready_s

        spares = setups - 1
        ready = [spare_setup() for _ in range(spares // 2)]
        server = Server(run_dir, os.path.join(run_dir, TRACE_FILE)
                        if traced else None)
        ready.append(server.ready_s)
        try:
            connection = loadgen.Connection(server.port)
            warm = [loadgen.send(connection, r, check, time.perf_counter())
                    for r in mix.warmup()]
            connection.close()
            window_s = seconds * CLOSED_SHARE / CLOSED_WINDOWS
            rates, closed = loadgen.closed_loop(server.port, mix, check,
                                                CLOSED_WINDOWS, window_s)
            open_s = seconds * (1.0 - CLOSED_SHARE)
            schedule = open_schedule(mix, open_s)
            cpu0 = server.cpu_s()
            opened = loadgen.open_loop(server.port, schedule, check)
            cpu1 = server.cpu_s()
            peak_rss_mb = server.peak_rss_mb()
        finally:
            summary = server.stop()
        ready += [spare_setup() for _ in range(spares - spares // 2)]
        stats = loadgen.open_loop_stats(opened, mix.limit_ms, open_s)
        every = warm + closed + opened
        client = _served_stats(opened)
        client.update(
            cpu_ms_per_req=(cpu1 - cpu0) * 1e3 / len(opened),
            capacity_rps=statistics.median(rates),
            sent=stats["sent"], late_tail_ms=stats["late_tail_ms"],
            latency_tail_ms=stats["latency_tail_ms"],
            goodput_frac=stats["goodput_frac"])
        return {"attempted": len(every),
                "failed": sum(1 for s in every if not s.ok),
                "ops": len(every),
                "e2e": {"setup_s": statistics.median(ready),
                        "latency_p50_ms": finite(stats["latency_p50_ms"]),
                        "peak_rss_mb": peak_rss_mb},
                "trace": summary, "client": client,
                "detail": {"window_rates": rates, "open_loop": stats,
                           "setup_runs_s": ready,
                           "closed_requests": len(closed)}}

    return run


WORKLOADS = {
    "fdtd_sweep_cold": solver_workload("fdtd", _check_fdtd),
    "llg_case": solver_workload("llg", _check_llg),
    "gate_hot": gate_workload(HotMix),
    "gate_cold": gate_workload(ColdMix),
}


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(traced: Dict[str, Any],
                  untraced: Dict[str, Any]) -> Dict[str, float]:
    """The per_layer metrics of BENCHMARK.json from one traced and one
    untraced measurement of the same workload.  Counts and busy times
    are per operation (a sweep, a solve, a request); a layer the
    workload bypasses reads 0."""
    spans = traced["trace"]["spans"]
    counters = traced["trace"]["counters"]
    ops = traced["ops"]

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    def per_op(value: float) -> float:
        return value / ops

    def busy_ms(name: str) -> float:
        return per_op(get(name, "busy_s")) * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fdtd_busy = get("fdtd.solve", "busy_s")
    llg_busy = get("micromag.llg.solve", "busy_s")
    client, base = traced["client"], untraced["client"]
    metrics = {
        "fdtd.solves": per_op(get("fdtd.solve", "count")),
        "fdtd.steps": per_op(counters.get("fdtd.steps", 0.0)),
        "fdtd.cell_updates": per_op(counters.get("fdtd.cell_updates", 0.0)),
        "fdtd.settle_ms": busy_ms("fdtd.settle"),
        "fdtd.lockin_ms": busy_ms("fdtd.lockin"),
        "fdtd.watchdog_ms": busy_ms("fdtd.watchdog"),
        "fdtd.cell_updates_per_s": ratio(
            counters.get("fdtd.cell_updates", 0.0), fdtd_busy),
        "core.fabricate_calls": per_op(get("core.fabricate", "count")),
        "core.fabricate_ms": busy_ms("core.fabricate"),
        "core.build_wave_simulator_ms": busy_ms("core.build_wave_simulator"),
        "core.network.propagate_calls": per_op(
            get("core.network.propagate", "count")),
        "core.network.propagate_us_p50": get("core.network.propagate",
                                             "p50_s") * 1e6,
        "micromag.llg.solves": per_op(get("micromag.llg.solve", "count")),
        "micromag.llg.steps": per_op(get("micromag.llg.step", "count")),
        "micromag.llg.rhs_evals": per_op(get("micromag.llg.rhs", "count")),
        "micromag.llg.step_us_p50": get("micromag.llg.step", "p50_s") * 1e6,
        "micromag.llg.cell_steps_per_s": ratio(
            counters.get("micromag.llg.cell_steps", 0.0), llg_busy),
        "micromag.llg.integrator_self_ms": per_op(
            get("micromag.llg.step", "self_s")) * 1e3,
        "micromag.experiments.cases": per_op(
            get("micromag.experiments.case", "count")),
        "micromag.experiments.case_ms_p50": get("micromag.experiments.case",
                                                "p50_s") * 1e3,
        "micromag.experiments.degraded": per_op(
            counters.get("micromag.experiments.degraded", 0.0)),
        "runtime.executor.run_calls": per_op(
            get("runtime.executor.run", "count")),
        "runtime.executor.run_ms_p50": get("runtime.executor.run",
                                           "p50_s") * 1e3,
        "runtime.executor.self_ms": per_op(
            get("runtime.executor.run", "self_s")) * 1e3,
        "runtime.cache.get_calls": per_op(get("runtime.cache.get", "count")),
        "runtime.cache.get_ms_p50": get("runtime.cache.get", "p50_s") * 1e3,
        "runtime.cache.hit_ratio": ratio(
            counters.get("runtime.cache.hits", 0.0),
            get("runtime.cache.get", "count")),
        "runtime.cache.put_calls": per_op(get("runtime.cache.put", "count")),
        "runtime.cache.put_ms_p50": get("runtime.cache.put", "p50_s") * 1e3,
        "runtime.cache.put_ms_tail": get("runtime.cache.put", "tail_s") * 1e3,
        "surrogate.query_calls": per_op(get("surrogate.query", "count")),
        "surrogate.query_us_p50": get("surrogate.query", "p50_s") * 1e6,
        "surrogate.fallback_ratio": ratio(get("surrogate.query", "failed"),
                                          get("surrogate.query", "count")),
        "serve.pipeline.submit_ms_p50": get("serve.pipeline.submit",
                                            "p50_s") * 1e3,
        "trace.spans": per_op(traced["trace"]["n_spans"]),
        "trace.overhead_frac": (traced["e2e"]["latency_p50_ms"]
                                / untraced["e2e"]["latency_p50_ms"] - 1.0),
    }
    for field in ("exchange", "demag", "anisotropy", "zeeman", "rhs",
                  "probe", "watchdog", "build"):
        metrics[f"micromag.llg.{field}_ms"] = busy_ms(f"micromag.llg.{field}")
    for field in ("handler_ms_p50", "http_ms_p50", "cpu_ms_per_req",
                  "cached_frac", "surrogate_frac", "batched_frac",
                  "coalesced_frac", "batch_size_mean"):
        metrics[f"serve.{field}"] = client.get(field, 0.0)
    for field in ("sent", "capacity_rps", "late_tail_ms", "latency_tail_ms",
                  "goodput_frac"):
        metrics[f"loadgen.{field}"] = finite(base.get(field, 0.0))
    return metrics


# -- command line -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: Dict[str, Any], spans_to: str) -> Dict[str, Any]:
    """Measure one workload in a scratch run directory; a traced run's
    spans are kept at ``spans_to``."""
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT)
    try:
        workload = WORKLOADS[name]
        if not trace:
            result = workload(run_dir, seed, seconds, golden, False,
                              SETUP_REPEATS)
            result["metrics"] = result["e2e"]
            return result
        passes = {}
        for label in ("untraced", "traced"):
            pass_dir = os.path.join(run_dir, label)
            os.makedirs(pass_dir)
            passes[label] = workload(pass_dir, seed, seconds, golden,
                                     label == "traced", 1)
        untraced, traced = passes["untraced"], passes["traced"]
        shutil.move(os.path.join(run_dir, "traced",
                                 TRACE_FILE + ".spans.jsonl"), spans_to)
        return {"attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "metrics": layer_metrics(traced, untraced),
                "detail": {"untraced": dict(untraced["detail"],
                                            e2e=untraced["e2e"]),
                           "traced": dict(traced["detail"],
                                          e2e=traced["e2e"]),
                           "trace": traced["trace"]}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    spec = _read_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(OUT, "results"),
                        help="directory for the result records")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    golden = _read_json(os.path.join(HERE, "golden.json"))
    fingerprint = host_fingerprint(ROOT)
    names = args.workload or list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        stem = os.path.join(args.out, f"{name}-seed{args.seed}-trace"
                                      f"{args.trace}-"
                                      f"{time.strftime('%Y%m%dT%H%M%S')}-"
                                      f"{os.getpid()}")
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), golden,
                                  stem + ".spans.jsonl")
            if set(result["metrics"]) != set(units):
                raise BenchError(f"metrics {sorted(result['metrics'])} do "
                                 f"not match BENCHMARK.json")
        except (BenchError, subprocess.SubprocessError, OSError, ValueError):
            traceback.print_exc()
            print(f"bench: workload {name} could not be measured",
                  file=sys.stderr)
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            break
        correct = result["failed"] == 0
        record = {"workload": name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "fingerprint": fingerprint, "correct": correct,
                  "attempted": result["attempted"],
                  "failed": result["failed"],
                  "metrics": {m: {"value": result["metrics"][m],
                                  "unit": units[m]} for m in units},
                  "detail": result.get("detail", {})}
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        for metric, entry in record["metrics"].items():
            print(f"{name}.{metric} {entry['value']!r} {entry['unit']}")
        print(f"{name}.fail_frac "
              f"{result['failed'] / max(1, result['attempted'])!r} ratio")
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + m: e
                                   for m, e in record["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
