"""HTTP load for the serve workloads: one process, two threads, two
keep-alive connections (the host gives about one core of throughput,
so more generator threads would only steal it from the server).

* :func:`closed_loop` -- each connection sends its next request when
  the previous answer arrives; the rate per fixed window is the
  service's capacity.
* :func:`open_loop` -- request *i* is due at ``t0 + offset_i`` and goes
  on connection ``i mod 2`` whether or not the service keeps up; its
  latency is timed from the due time, so a stall also charges the
  requests queued behind it, and the generator's own lateness is
  recorded.
"""

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import timing_summary

CONNECTIONS = 2
HOST = "127.0.0.1"
TIMEOUT_S = 10.0


@dataclass
class Sample:
    """One request as the generator saw it (perf_counter seconds)."""

    due: float
    sent: float
    done: float
    ok: bool                      # 200 and a correct answer
    served: Optional[Dict[str, Any]] = None  # the response's "served"


class Connection:
    """A keep-alive HTTP/1.1 connection posting JSON to ``/v1/gate``."""

    def __init__(self, port: int):
        self._port = port
        self._conn = self._open()

    def _open(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self._port, timeout=TIMEOUT_S)

    def post(self, payload: Dict[str, Any]
             ) -> Tuple[int, Optional[Dict[str, Any]]]:
        """(status, decoded body); status 0 is a transport failure,
        after which the connection is re-opened."""
        try:
            self._conn.request("POST", "/v1/gate", json.dumps(payload),
                               {"Content-Type": "application/json"})
            response = self._conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            self._conn.close()
            self._conn = self._open()
            return 0, None

    def close(self) -> None:
        self._conn.close()


#: check(request, status, body) -> True when the answer is right.
Check = Callable[[Any, int, Optional[Dict[str, Any]]], bool]


def send(connection: Connection, request: Any, check: Check,
         due: float) -> Sample:
    """Post one ``(payload, kind)`` request and judge the answer."""
    sent = time.perf_counter()
    status, body = connection.post(request[0])
    done = time.perf_counter()
    ok = check(request, status, body)
    served = body.get("served") if ok and isinstance(body, dict) else None
    return Sample(due=due, sent=sent, done=done, ok=ok, served=served)


def _run_threads(target: Callable[[int, Connection, List[Sample]], None],
                 port: int) -> List[Sample]:
    per_thread: List[List[Sample]] = [[] for _ in range(CONNECTIONS)]
    connections = [Connection(port) for _ in range(CONNECTIONS)]
    threads = [threading.Thread(target=target, args=(k, connections[k],
                                                     per_thread[k]))
               for k in range(CONNECTIONS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for connection in connections:
            connection.close()
    return [sample for samples in per_thread for sample in samples]


def closed_loop(port: int, next_request: Callable[[], Any], check: Check,
                windows: int, window_s: float
                ) -> Tuple[List[float], List[Sample]]:
    """Back-to-back requests on both connections for ``windows``
    windows; returns the per-window rate of correct answers [1/s] and
    every sample."""
    lock = threading.Lock()
    t0 = time.perf_counter()
    stop = t0 + windows * window_s

    def worker(_k: int, connection: Connection, out: List[Sample]) -> None:
        while time.perf_counter() < stop:
            with lock:
                request = next_request()
            out.append(send(connection, request, check,
                            time.perf_counter()))

    samples = _run_threads(worker, port)
    return window_rates(samples, t0, windows, window_s), samples


def window_rates(samples: Sequence[Sample], t0: float, windows: int,
                 window_s: float) -> List[float]:
    """Correct answers completed in each window, per second."""
    counts = [0] * windows
    for sample in samples:
        index = int((sample.done - t0) // window_s)
        if sample.ok and 0 <= index < windows:
            counts[index] += 1
    return [count / window_s for count in counts]


def open_loop(port: int, schedule: Sequence[Tuple[float, Any]],
              check: Check) -> List[Sample]:
    """Send ``schedule[i] = (offset_s, request)`` at ``t0 + offset_s``
    on connection ``i mod 2``."""
    t0 = time.perf_counter() + 0.05  # both threads ready before the first

    def worker(k: int, connection: Connection, out: List[Sample]) -> None:
        for offset, request in schedule[k::CONNECTIONS]:
            due = t0 + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.append(send(connection, request, check, due))

    return _run_threads(worker, port)


def open_loop_stats(samples: Sequence[Sample], limit_ms: float,
                    duration_s: float) -> Dict[str, float]:
    """Latency from the due time (a failed or refused request counts as
    infinitely late, so it misses every limit), generator lateness and
    goodput against ``limit_ms``."""
    latency = [(s.done - s.due) * 1e3 if s.ok else math.inf
               for s in samples]
    lateness = [(s.sent - s.due) * 1e3 for s in samples]
    good = sum(1 for value in latency if value <= limit_ms)
    lat, late = timing_summary(latency), timing_summary(lateness)
    n = len(samples)
    return {"sent": n, "failed": sum(1 for s in samples if not s.ok),
            "latency_p50_ms": lat["p50"], "latency_tail_ms": lat["tail"],
            "latency_tail_p": lat["tail_p"], "late_tail_ms": late["tail"],
            "late_tail_p": late["tail_p"],
            "goodput_frac": good / n if n else 0.0,
            "goodput_rps": good / duration_s}
