"""Outside-in layer tracing for the benchmark.

The program is not edited: :func:`install` replaces the public entry
points of each layer -- at the name the caller looks up, e.g.
``repro.core.gates.fabricate`` or ``repro.micromag.sim.llg_rhs`` --
with wrappers that record a span per call.  A span is
``[name, start, end, parent, trace_id, failed]``; spans stay in memory
and are aggregated (count, busy, self time, p50, tail) and written out
when the workload ends.

Parents come from a :class:`contextvars.ContextVar`, so nesting is
tracked per thread and per asyncio task.  Work handed to a thread pool
(``run_in_executor``) starts a new root there.  Spans of one job
(``run_gate_case``) or one ``GatePipeline.submit`` call share a trace
id.

Named ``tracing`` rather than ``trace`` so it never shadows the
standard library module of that name.
"""

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from stats import self_time, timing_summary

_CURRENT: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "perf_span", default=None)

# Span record fields.
NAME, START, END, PARENT, TRACE, FAILED = range(6)
#: write_spans keeps at most this many spans of each name.
SPANS_PER_NAME = 5000


class Tracer:
    """Span buffer plus named counters; safe across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._patched: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def _begin(self, name: str, root: bool) -> list:
        parent = _CURRENT.get()
        trace_id = (next(self._trace_ids) if root or parent is None
                    else parent[TRACE])
        return [name, self.clock(), 0.0, parent, trace_id, False]

    def _end(self, record: list, token: contextvars.Token) -> None:
        record[END] = self.clock()
        _CURRENT.reset(token)
        self.spans.append(record)  # list.append is atomic under the GIL

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn: Callable, name: str, root: bool = False,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, result)``
        runs on success, outside the span.  The bodies are inlined (no
        context manager) because the LLG layer makes ~20 traced calls
        per integrator step."""
        begin, end = self._begin, self._end
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                record = begin(name, root)
                token = _CURRENT.set(record)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    record[FAILED] = True
                    raise
                finally:
                    end(record, token)
                if after is not None:
                    after(args, result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = begin(name, root)
            token = _CURRENT.set(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                end(record, token)
            if after is not None:
                after(args, result)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str, root: bool = False,
              after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` (a module function or a method) with
        its traced wrapper.  A missing name is an error: the layer map
        in :func:`install` must follow the program."""
        original = getattr(owner, attr)  # AttributeError if renamed
        own = attr in vars(owner)
        setattr(owner, attr, self.wrap(original, name, root, after))
        self._patched.append((owner, attr, original, own))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------------

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, failed, busy_s, self_s, p50_s, tail_s,
        tail_p."""
        children: Dict[int, list] = defaultdict(list)
        for record in self.spans:
            if record[PARENT] is not None:
                children[id(record[PARENT])].append(
                    (record[START], record[END]))
        durations: Dict[str, list] = defaultdict(list)
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0})
        for record in self.spans:
            name, start, end = record[NAME], record[START], record[END]
            entry = totals[name]
            entry["count"] += 1
            entry["failed"] += int(record[FAILED])
            entry["busy_s"] += end - start
            entry["self_s"] += self_time(start, end,
                                         children.get(id(record), []))
            durations[name].append(end - start)
        for name, entry in totals.items():
            summary = timing_summary(durations[name])
            entry.update(p50_s=summary["p50"], tail_s=summary["tail"],
                         tail_p=summary["tail_p"])
        return dict(totals)

    def summary(self) -> Dict[str, Any]:
        return {"spans": self.aggregates(), "counters": dict(self.counters),
                "n_spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        """JSONL of the spans (times relative to the first span).  At
        most :data:`SPANS_PER_NAME` spans of each name are written; the
        aggregates always cover every span."""
        origin = min((record[START] for record in self.spans), default=0.0)
        ids = {id(record): index for index, record in enumerate(self.spans)}
        written: Dict[str, int] = defaultdict(int)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                name = record[NAME]
                if written[name] >= SPANS_PER_NAME:
                    continue
                written[name] += 1
                parent = record[PARENT]
                handle.write(json.dumps({
                    "id": index, "name": name,
                    "start_us": round((record[START] - origin) * 1e6, 1),
                    "end_us": round((record[END] - origin) * 1e6, 1),
                    "parent": None if parent is None else ids.get(id(parent)),
                    "trace": record[TRACE], "failed": record[FAILED]}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on.

    The span names are the per-layer metric prefixes in BENCHMARK.json;
    bench.py turns the aggregates into those metrics.
    """
    import repro.core.gates as gates
    import repro.fdtd.scalar as scalar
    import repro.micromag.experiments as experiments
    import repro.micromag.gate_experiment as gate_experiment
    import repro.micromag.sim as sim
    import repro.surrogate.tier as surrogate_tier
    from repro.core.network import WaveNetwork
    from repro.micromag.fields.anisotropy import UniaxialAnisotropyField
    from repro.micromag.fields.demag import DemagField, ThinFilmDemagField
    from repro.micromag.fields.exchange import ExchangeField
    from repro.micromag.fields.zeeman import ZeemanField
    from repro.micromag.llg import RK4Integrator
    from repro.micromag.probes import Probe
    from repro.resilience.guardrails import FieldWatchdog, MagnetisationWatchdog
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import Executor
    from repro.serve.pipeline import GatePipeline

    def fdtd_steps(args, _result):
        solver = args[0]
        tracer.count("fdtd.steps", solver.step_count)
        tracer.count("fdtd.cell_updates",
                     solver.step_count * int(solver.mask.sum()))

    def llg_cells(args, result):
        simulation = args[0]
        tracer.count("micromag.llg.cell_steps",
                     result["result"].n_steps * int(simulation.mask.sum()))

    def cache_hit(_args, result):
        if result[0]:
            tracer.count("runtime.cache.hits")

    def degraded(_args, result):
        if isinstance(result, dict) and result.get("degraded_from"):
            tracer.count("micromag.experiments.degraded")

    layers = [
        (scalar, "run_steady_state", "fdtd.solve", False, fdtd_steps),
        (scalar.ScalarWaveSimulator, "run_until", "fdtd.settle", False, None),
        (scalar.ScalarWaveSimulator, "steady_state_envelope", "fdtd.lockin",
         False, None),
        (FieldWatchdog, "observe", "fdtd.watchdog", False, None),
        (gates, "fabricate", "core.fabricate", False, None),
        (gate_experiment, "fabricate", "core.fabricate", False, None),
        (gates, "build_wave_simulator", "core.build_wave_simulator", False,
         None),
        (WaveNetwork, "propagate", "core.network.propagate", False, None),
        (sim.Simulation, "run", "micromag.llg.solve", False, llg_cells),
        (RK4Integrator, "step", "micromag.llg.step", False, None),
        (sim, "llg_rhs", "micromag.llg.rhs", False, None),
        (ExchangeField, "field", "micromag.llg.exchange", False, None),
        (ThinFilmDemagField, "field", "micromag.llg.demag", False, None),
        (DemagField, "field", "micromag.llg.demag", False, None),
        (UniaxialAnisotropyField, "field", "micromag.llg.anisotropy", False,
         None),
        (ZeemanField, "field", "micromag.llg.zeeman", False, None),
        (Probe, "record", "micromag.llg.probe", False, None),
        (MagnetisationWatchdog, "observe", "micromag.llg.watchdog", False,
         None),
        (gate_experiment.LlgGateExperiment, "_build_simulation",
         "micromag.llg.build", False, None),
        (experiments, "run_gate_case", "micromag.experiments.case", True,
         degraded),
        (Executor, "run", "runtime.executor.run", False, None),
        (ResultCache, "get", "runtime.cache.get", False, cache_hit),
        (ResultCache, "put", "runtime.cache.put", False, None),
        (surrogate_tier, "evaluate_surrogate", "surrogate.query", False,
         None),
        (GatePipeline, "submit", "serve.pipeline.submit", True, None),
    ]
    for owner, attr, name, root, after in layers:
        tracer.patch(owner, attr, name, root=root, after=after)
