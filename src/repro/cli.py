"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the headline reproductions without writing
Python:

* ``truth-table maj3|xor|maj5|and|or|nand|nor|xnor`` -- evaluate a gate
  on all input patterns (network tier);
* ``table1`` / ``table2`` / ``table3`` -- print the reproduced paper
  tables;
* ``design [--wavelength-nm X]`` -- gate dimensions and operating point
  for a given wavelength;
* ``adder WIDTH`` -- circuit-level comparison of an n-bit adder;
* ``sweep maj3|xor`` -- the full 2^n truth-table grid through the
  orchestration engine (:mod:`repro.runtime`): parallel across input
  patterns, content-addressed-cached across invocations; with
  ``--resume`` (and optionally ``--journal PATH``) a killed sweep
  restarts from its write-ahead job journal, skipping completed jobs
  (see docs/RESILIENCE.md);
* ``profile maj3|xor [--tier ...]`` -- run one gate case under the
  span tracer (:mod:`repro.obs`) and print the top spans by
  cumulative time;
* ``serve [--port --workers --max-queue --rate ...]`` -- the HTTP
  gate-evaluation service (:mod:`repro.serve`): single-flight
  coalescing, micro-batching, 429 backpressure, ``/metrics`` and
  graceful drain on SIGTERM; ``--prefork N`` forks N SO_REUSEPORT
  processes on one port, ``--backend tcp://...`` runs solver tiers on
  a cluster;
* ``cluster start|status|stop`` -- run or inspect a
  :mod:`repro.cluster` coordinator that shards sweep jobs over TCP
  workers with a shared cache, single-flight brokering and
  heartbeat-based rescheduling (docs/CLUSTER.md);
* ``worker tcp://HOST:PORT [--capacity N]`` -- join a coordinator and
  execute its jobs;
* ``characterize maj3|xor [--axis NAME=V1,V2,...]`` -- sweep a gate
  over the characterization axes through the engine, store the
  records content-addressed (:mod:`repro.surrogate`), fit the
  surrogate model and save it where the ``surrogate`` tier loads it;
* ``cache stats|prune [--max-bytes N] [--json]`` -- inspect the
  on-disk result cache (``--json`` prints the machine-readable usage
  report, quarantine counts included) or evict least-recently-used
  entries down to a byte budget;
* ``bench report|compare`` -- sparkline history of the accumulated
  benchmark trajectory, and a regression gate (exit 1 when the latest
  commit moved a metric beyond ``--threshold`` against the rolling
  baseline of earlier commits).  A missing/empty trajectory prints a
  clear pointer and exits 0 from ``report`` (nothing to show) but
  exits 3 from ``compare`` (``EXIT_NO_TRAJECTORY``) so CI can tell
  "no data yet" from "no regressions";
* ``debug dump`` -- print the most recent flight-recorder dump (the
  last-N-events black box written on crashes,
  ``NumericalDivergenceError`` and SIGUSR2);
* ``compile SPEC [--characterize]`` -- the spin-wave circuit compiler
  (:mod:`repro.compiler`): synthesize an arbitrary boolean function
  (builtin name, inline JSON spec, equation list like
  ``'s = a ^ b; c = maj(a, b, 0)'``, or a spec file) into a placed
  triangle-gate fabric, design-rule check it, and optionally push it
  through the energy/delay/error-rate characterizer (exit 1 on DRC
  violations; see docs/COMPILER.md).

Global flags (before the subcommand): ``--workers N`` fans cache
misses out over N worker processes (0 = one per CPU); ``--no-cache``
disables the on-disk result cache; ``--trace FILE`` writes a span
trace of the command (Chrome trace-event JSON for Perfetto, or a JSONL
span log when FILE ends in ``.jsonl``); ``--log-level LEVEL`` turns on
``repro`` logging; ``--version`` prints the package version.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_truth_table(args: argparse.Namespace) -> int:
    from .core import DerivedTriangleGate, TriangleMajorityGate, TriangleXorGate
    from .core.extended import TriangleMajority5Gate
    from .core.logic import input_patterns
    from .io import format_truth_table

    name = args.gate.lower()
    if name == "maj3":
        gate = TriangleMajorityGate()
        n = 3
        evaluate = lambda bits: gate.evaluate(bits).outputs
    elif name == "nmaj3":
        gate = TriangleMajorityGate(invert_output=True)
        n = 3
        evaluate = lambda bits: gate.evaluate(bits).outputs
    elif name == "xor":
        gate = TriangleXorGate()
        n = 2
        evaluate = lambda bits: gate.evaluate(bits).outputs
    elif name == "xnor":
        gate = TriangleXorGate(xnor=True)
        n = 2
        evaluate = lambda bits: gate.evaluate(bits).outputs
    elif name == "maj5":
        gate = TriangleMajority5Gate()
        n = 5
        evaluate = gate.evaluate
    elif name in ("and", "or", "nand", "nor"):
        gate = DerivedTriangleGate(name)
        n = 2
        evaluate = lambda bits: gate.evaluate(*bits).outputs
    else:
        print(f"unknown gate {args.gate!r}; choose from maj3, nmaj3, "
              "xor, xnor, maj5, and, or, nand, nor", file=sys.stderr)
        return 2

    patterns = input_patterns(n)
    rows = []
    for bits in patterns:
        outputs = evaluate(bits)
        rows.append([outputs["O1"].logic_value,
                     outputs["O2"].logic_value])
    print(format_truth_table(patterns, ["O1", "O2"], rows,
                             [f"I{i + 1}" for i in range(n)],
                             title=f"{args.gate.upper()} "
                                   "(triangle FO2, network tier)"))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .core import PAPER_TABLE_I, paper_table_i_gate
    from .core.logic import input_patterns
    from .io import format_truth_table

    table = paper_table_i_gate().normalized_output_table()
    patterns = sorted(input_patterns(3), key=lambda b: (b[2], b[1], b[0]))
    rows = [[f"{table[b][0]:.3f}", f"{table[b][1]:.3f}",
             str(PAPER_TABLE_I[b][0]), str(PAPER_TABLE_I[b][1])]
            for b in patterns]
    print(format_truth_table(
        [tuple(reversed(b)) for b in patterns],
        ["O1 (ours)", "O2 (ours)", "O1 (paper)", "O2 (paper)"],
        rows, ["I3", "I2", "I1"],
        title="TABLE I -- FO2 MAJ3 normalised outputs"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .core import PAPER_TABLE_II, paper_table_ii_gate
    from .core.logic import input_patterns
    from .io import format_truth_table

    table = paper_table_ii_gate().normalized_output_table()
    patterns = sorted(input_patterns(2), key=lambda b: (b[1], b[0]))
    rows = [[f"{table[b][0]:.3f}", f"{table[b][1]:.3f}",
             str(PAPER_TABLE_II[b][0]), str(PAPER_TABLE_II[b][1])]
            for b in patterns]
    print(format_truth_table(
        [tuple(reversed(b)) for b in patterns],
        ["O1 (ours)", "O2 (ours)", "O1 (paper)", "O2 (paper)"],
        rows, ["I2", "I1"],
        title="TABLE II -- FO2 XOR normalised outputs"))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .evaluation import format_table_iii, headline_ratios

    print(format_table_iii())
    print()
    for name, value in headline_ratios().as_dict().items():
        if "saving" in name:
            print(f"  {name}: {value * 100:.0f} %")
        else:
            print(f"  {name}: {value:.1f}x")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    import math

    from .core import paper_maj3_dimensions, paper_xor_dimensions
    from .physics import FECOB, DispersionRelation, FilmStack

    lam = args.wavelength_nm * 1e-9
    width = min(0.9 * lam, 50e-9) if args.wavelength_nm != 55 else 50e-9
    maj = paper_maj3_dimensions(wavelength=lam, width=width)
    xor = paper_xor_dimensions(wavelength=lam, width=width)
    film = FilmStack(material=FECOB, thickness=1e-9)
    disp = DispersionRelation(film)
    k = 2.0 * math.pi / lam
    print(f"design wavelength : {lam * 1e9:.1f} nm "
          f"(k = {k * 1e-6:.1f} rad/um)")
    print(f"waveguide width   : {width * 1e9:.1f} nm")
    print(f"frequency (KS)    : {float(disp.frequency(k)) / 1e9:.2f} GHz "
          f"on 1 nm Fe60Co20B20")
    print(f"group velocity    : {float(disp.group_velocity(k)):.0f} m/s")
    print(f"attenuation length: "
          f"{float(disp.attenuation_length(k)) * 1e6:.2f} um")
    print("MAJ3 dimensions   : "
          f"d1 = {maj.d1 * 1e9:.0f} nm, d2 = {maj.d2 * 1e9:.0f} nm, "
          f"d3 = {maj.d3 * 1e9:.0f} nm, d4 = {maj.d4 * 1e9:.0f} nm, "
          f"stem = {maj.stem * 1e9:.0f} nm")
    print(f"XOR dimensions    : d1 = {xor.d1 * 1e9:.0f} nm, "
          f"output offset = {xor.d2_xor * 1e9:.0f} nm")
    return 0


def _cmd_adder(args: argparse.Namespace) -> int:
    from .evaluation.circuit_level import adder_comparison, format_comparison

    figures = adder_comparison(args.width)
    print(f"{args.width}-bit ripple-carry adder comparison")
    print(format_comparison(figures))
    sw = figures["SW (this work)"]
    c7 = figures["7nm CMOS"]
    print(f"\nSW vs 7nm CMOS: energy {c7.energy / sw.energy:.2f}x, "
          f"delay {sw.delay / c7.delay:.1f}x slower, "
          f"area x energy {c7.area_delay_power_product / sw.area_delay_power_product:.1f}x better")
    return 0


def _build_tls(args: argparse.Namespace):
    """Resolve ``--tls-cert/--tls-key/--tls-ca`` into a TlsConfig.

    Returns ``None`` when no TLS flag was given; raises
    :class:`~repro.errors.ClusterConfigError` on a partial pair or
    missing PEM files (callers map it to exit code 2).
    """
    from .cluster import tls_config

    return tls_config(cert=getattr(args, "tls_cert", None),
                      key=getattr(args, "tls_key", None),
                      ca=getattr(args, "tls_ca", None))


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from .errors import ClusterConfigError
    from .micromag.experiments import sweep_gate_truth_table
    from .resilience import JobJournal
    from .runtime import DiskCache, Executor, JobFailed, create_backend

    try:
        tls = _build_tls(args)
        backend = create_backend(args.backend, secret=args.secret,
                                 tls=tls)
        if args.backend and args.backend.startswith("tcp://"):
            # Fail fast with a typed, actionable error -- not a socket
            # traceback mid-sweep -- when the coordinator is down or
            # has no workers attached.
            from .cluster import ClusterClient

            with ClusterClient(args.backend, secret=args.secret,
                               tls=tls) as client:
                n = client.require_ready()
            print(f"cluster backend {args.backend}: {n} worker(s) ready")
    except ClusterConfigError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else DiskCache(root=args.cache_dir)
    journal = None
    if args.resume or args.journal:
        journal_path = args.journal or os.path.join(
            args.cache_dir, f"journal-{args.gate}-{args.tier}.jsonl")
        journal = JobJournal(journal_path, resume=args.resume)
        if args.resume:
            print(f"resuming from {journal_path}: "
                  f"{journal.state.summary()}")
    executor = Executor(workers=args.workers, cache=cache,
                        timeout=args.timeout, retries=args.retries,
                        journal=journal, backend=backend)
    try:
        sweep = sweep_gate_truth_table(args.gate, tier=args.tier,
                                       executor=executor)
    except JobFailed as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if journal is not None:
            journal.close()
    print(sweep.format_table())
    print()
    print(sweep.report.format_table())
    print()
    print(sweep.report.summary())
    if cache is not None:
        stats = cache.stats
        print(f"cache: {stats.hits} hits / {stats.misses} misses "
              f"({stats.hit_rate * 100:.0f} % hit rate), "
              f"{stats.writes} writes"
              + (f", {stats.quarantined} quarantined"
                 if stats.quarantined else ""))
    else:
        print("cache: disabled")
    if journal is not None:
        print(f"journal: {journal.path} ({journal.state.summary()})")
    if args.json:
        sweep.report.dump_json(args.json)
        print(f"telemetry written to {args.json}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    import json
    import os

    from .runtime import DiskCache, Executor, JobFailed
    from .surrogate import (
        AxisSpec,
        CharacterizationStore,
        characterize,
        fit_surrogate,
    )

    axes = None
    if args.axis:
        parsed = []
        for text in args.axis:
            name, _, values = text.partition("=")
            if not values:
                print(f"characterize: bad --axis {text!r}; expected "
                      "NAME=V1,V2,...", file=sys.stderr)
                return 2
            try:
                parsed.append(AxisSpec(
                    name.strip(),
                    tuple(float(v) for v in values.split(","))))
            except ValueError as exc:
                print(f"characterize: {exc}", file=sys.stderr)
                return 2
        axes = tuple(parsed)

    store = CharacterizationStore(args.store)
    dataset = store.dataset(args.gate, tier=args.tier, axes=axes,
                            n_trials=args.n_trials)
    cache = None if args.no_cache else DiskCache(root=args.cache_dir)
    executor = Executor(workers=args.workers, cache=cache)
    known = len(dataset.records())
    print(f"characterizing {args.gate}@{args.tier}: "
          f"{dataset.grid_size} grid corners "
          f"({known} already on disk) -> {dataset.directory}")
    try:
        records = characterize(dataset, executor=executor)
    except JobFailed as exc:
        print(f"characterize failed: {exc}", file=sys.stderr)
        return 1
    model = fit_surrogate(records.values(), kind=args.kind,
                          residual_threshold=args.residual_threshold)
    path = args.model or store.model_path(args.gate)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    model.save(path)
    max_residual = float(model.residual.max()) if model.residual.size \
        else 0.0
    print(f"fitted {args.kind} surrogate over {len(records)} records "
          f"({len(model.response_names)} responses) in "
          f"{model.meta['fit_ms']:.1f} ms; "
          f"max leave-one-out residual {max_residual:.4g} "
          f"(threshold {args.residual_threshold:g})")
    print(f"model saved to {path} "
          f"(the surrogate tier loads it from there; set "
          f"REPRO_SURROGATE_DIR={args.store} if it is not the default)")
    if args.json:
        summary = {
            "gate": args.gate, "tier": args.tier,
            "dataset_id": dataset.id, "directory": dataset.directory,
            "grid_size": dataset.grid_size, "n_records": len(records),
            "kind": args.kind, "fit_ms": model.meta["fit_ms"],
            "max_residual": max_residual,
            "residual_threshold": args.residual_threshold,
            "responses": len(model.response_names),
            "model_path": path,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from . import obs
    from .micromag.experiments import GATE_ARITY, run_gate_case

    arity = GATE_ARITY[args.gate]
    bits_text = args.bits if args.bits is not None else "1" * arity
    if len(bits_text) != arity or set(bits_text) - {"0", "1"}:
        print(f"profile: --bits must be {arity} binary digits for "
              f"{args.gate}, got {bits_text!r}", file=sys.stderr)
        return 2
    bits = tuple(int(c) for c in bits_text)

    # Under a global ``--trace`` the observer is already attached and
    # owned by main(); otherwise attach one for the duration.
    own_observer = not obs.enabled()
    if own_observer:
        obs.enable()
    try:
        with obs.span("profile", gate=args.gate, tier=args.tier,
                      bits=bits_text):
            case = run_gate_case(args.gate, bits, tier=args.tier)
        outputs = " ".join(
            f"{name}={case['outputs'][name]['logic']}"
            for name in sorted(case["outputs"]))
        verdict = "correct" if case["correct"] else "WRONG"
        print(f"{args.gate.upper()} {bits_text} @ {args.tier} tier: "
              f"{outputs} (expected {case['expected']}, {verdict})")
        print()
        print(obs.format_span_summary(obs.spans(), top=args.top))
        counters = obs.metrics_snapshot()["counters"]
        if counters:
            print()
            print("counters: " + ", ".join(
                f"{name}={value}" for name, value in counters.items()))
    finally:
        if own_observer:
            obs.drain_spans()
            obs.disable()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import ClusterConfigError
    from .serve import GateService, ServeConfig

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        max_queue=args.max_queue, rate=args.rate, burst=args.burst,
        batch_window_ms=args.batch_window_ms, batch_max=args.batch_max,
        timeout=args.timeout, access_log=args.access_log,
        drain_timeout=args.drain_timeout,
        deadline_s=args.deadline_s,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset_s,
        surrogate_dir=args.surrogate_dir,
        backend=args.backend, prefork=args.prefork)
    try:
        if config.prefork:
            from .serve import run_prefork

            return run_prefork(config)
        return GateService(config).run()
    except ClusterConfigError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    from .errors import ClusterAuthError, ClusterConfigError
    from .cluster import run_worker

    try:
        run_worker(args.url, secret=args.secret, capacity=args.capacity,
                   name=args.name or "",
                   dial_timeout=args.dial_timeout,
                   dial_backoff=args.dial_backoff,
                   reconnect_window=args.reconnect_window,
                   tls=_build_tls(args))
    except ClusterConfigError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    except ClusterAuthError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json

    from .errors import ClusterAuthError, ClusterConfigError, ClusterError
    from .io.tables import format_table

    try:
        tls = _build_tls(args)
    except ClusterConfigError as exc:
        print(f"cluster {args.action}: {exc}", file=sys.stderr)
        return 2

    if args.action == "supervise":
        from .cluster import run_supervised

        try:
            return run_supervised(
                host=args.host, port=args.port,
                cache_dir=None if args.no_cache else args.cache_dir,
                journal_path=args.journal, secret=args.secret,
                retries=args.retries,
                heartbeat_timeout=args.heartbeat_timeout, tls=tls,
                max_restarts=args.max_restarts, pid_file=args.pid_file)
        except ClusterConfigError as exc:
            print(f"cluster supervise: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            return 0

    if args.action == "start":
        from .cluster import Coordinator
        from .resilience import JobJournal
        from .runtime import DiskCache

        cache = None if args.no_cache else DiskCache(root=args.cache_dir)
        journal = None
        if args.journal:
            # resume=True: a restarted coordinator replays the journal
            # instead of truncating it, requeueing interrupted jobs.
            journal = JobJournal(args.journal, resume=True)
        coordinator = Coordinator(
            host=args.host, port=args.port, cache=cache, journal=journal,
            secret=args.secret, retries=args.retries,
            heartbeat_timeout=args.heartbeat_timeout, tls=tls)
        print(f"cluster coordinator on {coordinator.url} "
              f"(cache={'off' if cache is None else args.cache_dir}, "
              f"journal={args.journal or 'off'}); workers join with:\n"
              f"  python -m repro worker {coordinator.url}")
        replayed = coordinator.journal_replayed
        if replayed["completed"] or replayed["interrupted"]:
            print(f"journal replay: {replayed['completed']} completed, "
                  f"{replayed['interrupted']} interrupted job(s) "
                  f"requeued")
        try:
            coordinator.serve_forever()
        finally:
            if journal is not None:
                journal.close()
        return 0

    from .cluster import ClusterClient

    if not args.url:
        print(f"cluster {args.action}: coordinator URL required, e.g. "
              f"python -m repro cluster {args.action} tcp://127.0.0.1:7421",
              file=sys.stderr)
        return 2
    try:
        with ClusterClient(args.url, secret=args.secret,
                           tls=tls) as client:
            if args.action == "stop":
                client.shutdown()
                print(f"coordinator at {args.url} asked to stop")
                return 0
            status = client.status()
    except (ClusterConfigError, ClusterAuthError, ClusterError) as exc:
        print(f"cluster {args.action}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(f"coordinator {status['url']}: up {status['uptime_s']:.0f} s, "
          f"{len(status['workers'])} worker(s)")
    print(f"jobs: {status['inflight']} inflight, {status['queued']} "
          f"queued (depth {status.get('queue_depth', 0)}), "
          f"{status['completed']} completed, "
          f"{status['failed']} failed, {status['rescheduled']} "
          f"rescheduled, {status['coalesced']} coalesced, "
          f"{status['cache_hits']} cache hits")
    replayed = status.get("journal_replayed") or {}
    if replayed.get("completed") or replayed.get("interrupted"):
        print(f"journal replay: {replayed['completed']} completed, "
              f"{replayed['interrupted']} interrupted")
    if status["workers"]:
        rows = [[str(w["id"]), w["name"], w["addr"], str(w["capacity"]),
                 str(w["inflight"]), str(w["jobs_done"]),
                 f"{w['last_heartbeat_age_s']:.2f}"]
                for w in status["workers"]]
        print(format_table(
            ["id", "name", "addr", "cap", "inflight", "done", "beat (s)"],
            rows, title="workers"))
    return 0


def _parse_size(text: str) -> int:
    """Byte count with optional K/M/G suffix (binary units)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = text.strip().lower().rstrip("b")
    factor = 1
    if text and text[-1] in units:
        factor = units[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; use e.g. 500000, 500K, 64M, 2G")


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .io.tables import format_table
    from .runtime.cache import cache_stats, prune_cache

    if args.json and args.action != "stats":
        print("cache: --json only applies to 'stats'", file=sys.stderr)
        return 2
    if args.action == "prune":
        if args.max_bytes is None:
            print("cache prune: --max-bytes is required "
                  "(0 empties the cache)", file=sys.stderr)
            return 2
        result = prune_cache(args.cache_dir, args.max_bytes)
        print(f"pruned {result.removed} of {result.scanned} entries "
              f"({result.freed_bytes} bytes freed); "
              f"{result.kept} entries / {result.kept_bytes} bytes kept")
        return 0

    usage = cache_stats(args.cache_dir)
    if args.json:
        print(json.dumps(usage.as_dict(), indent=2, sort_keys=True))
        return 0
    rows = [[salt, str(n), f"{size / 1024:.1f}"]
            for salt, (n, size) in sorted(usage.by_salt.items())]
    rows.append(["total", str(usage.entries),
                 f"{usage.total_bytes / 1024:.1f}"])
    print(format_table(["salt", "entries", "KiB"], rows,
                       title=f"result cache at {usage.root}"))
    print(f"quarantined entries: {usage.quarantined}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    import json
    import os

    from .compiler import DesignRules, compile_spec, write_report
    from .runtime.cache import atomic_write

    if args.report is not None and not args.characterize:
        print("compile: --report requires --characterize",
              file=sys.stderr)
        return 2
    overrides = {}
    if args.rules is not None:
        text = args.rules
        if not text.strip().startswith("{") and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            parsed = json.loads(text)
        except ValueError as exc:
            print(f"compile: bad --rules JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(parsed, dict):
            print("compile: --rules must be a JSON object",
                  file=sys.stderr)
            return 2
        overrides.update(parsed)
    for name in ("gate_clearance", "row_clearance", "col_clearance"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    try:
        rules = DesignRules.from_dict(overrides) if overrides else None
    except (TypeError, ValueError) as exc:
        print(f"compile: bad rule deck: {exc}", file=sys.stderr)
        return 2

    executor = None
    if args.characterize:
        from .runtime import DiskCache, Executor

        cache = None if args.no_cache else DiskCache(root=args.cache_dir)
        executor = Executor(workers=args.workers, cache=cache)
    try:
        result = compile_spec(args.spec, rules=rules,
                              characterize_circuit=args.characterize,
                              tier=args.tier, executor=executor,
                              raise_on_violation=False)
    except ValueError as exc:
        print(f"compile: {exc}", file=sys.stderr)
        return 2

    stats = result.placement.stats()
    kinds = ", ".join(f"{kind} x{count}"
                      for kind, count in stats["gate_kinds"].items())
    print(f"compiled {result.spec.name!r}: {stats['gates']} gates "
          f"({kinds}), {stats['columns']} columns, "
          f"{stats['wires']} wires")
    print(f"fabric: {stats['width_lambda']:.0f} x "
          f"{stats['height_lambda']:.0f} lambda "
          f"({stats['area_um2']:.3f} um^2), wire length "
          f"{stats['wire_length_lambda']:.0f} lambda")
    drc = result.drc
    if drc.clean:
        print(f"DRC: clean ({len(drc.checks_run)} checks, "
              f"{drc.crossings} crossings)")
    else:
        print(f"DRC: {len(drc.violations)} violation(s)")
        for violation in drc.violations:
            print(f"  {violation}")

    if result.characterization is not None:
        report = result.characterization
        functional = report.functional
        verdict = ("equivalent" if functional["equivalent"]
                   else f"{len(functional['mismatches'])} MISMATCHES")
        print(f"functional: {verdict} over "
              f"{functional['patterns']} patterns")
        sw = report.spin_wave
        print(f"spin wave: energy {sw['energy_j']:.3e} J, delay "
              f"{sw['delay_s'] * 1e9:.2f} ns, area {sw['area_m2']:.3e} m^2")
        rates = report.error_rates
        print(f"error rate @ {rates['tier']} tier: "
              f"{rates['circuit_error_rate']:.4f}")
        if args.report is not None:
            write_report(report, args.report)
            print(f"characterization report written to {args.report}")

    if args.out is not None:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        atomic_write(args.out,
                     lambda handle: handle.write(payload.encode("utf-8")))
        print(f"compile result written to {args.out}")
    return 0 if drc.clean else 1


#: ``bench compare`` exit code when there is no trajectory to gate on.
#: Distinct from 0 ("no regressions") and 1 ("regressed") so CI can
#: treat a first-run repo as skip-not-pass.  ``bench report`` still
#: exits 0 on an empty trajectory: an empty report is a valid report.
EXIT_NO_TRAJECTORY = 3


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs import trajectory

    records = trajectory.load_trajectory(args.trajectory)
    if not records:
        print(f"bench {args.action}: no trajectory at {args.trajectory} "
              "(run any benchmarks/bench_*.py to start one)")
        return 0 if args.action == "report" else EXIT_NO_TRAJECTORY
    comparisons = trajectory.compare(records, threshold=args.threshold,
                                     baseline_window=args.baseline_window,
                                     bench=args.bench)
    print(trajectory.format_report(
        comparisons,
        title=f"bench trajectory: {len(records)} records, "
              f"latest commit {comparisons[0].commit if comparisons else '?'}"))
    if args.action == "report":
        return 0
    regressions = [c for c in comparisons if c.regressed]
    print()
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{args.threshold * 100:.0f} %:")
        for c in regressions:
            print(f"  {c.bench}.{c.metric}: {c.baseline:.6g} -> "
                  f"{c.latest:.6g} {c.unit} ({c.change * 100:+.1f} %)")
        return 1
    print(f"no regressions beyond {args.threshold * 100:.0f} % "
          f"across {len(comparisons)} series")
    return 0


def _cmd_debug(args: argparse.Namespace) -> int:
    import datetime
    import json

    from .obs import flight

    directory = args.dir or flight.default_dir()
    path = flight.latest_dump(directory)
    if path is None:
        print(f"debug dump: no flight dumps under {directory} "
              "(they appear on crashes, divergences and SIGUSR2)",
              file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(path.read_text(encoding="utf-8"))
        return 0
    with open(path, "r", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    header = events[0] if events and events[0].get("kind") == "flight.dump" \
        else {}
    print(f"flight dump {path}")
    print(f"reason: {header.get('reason', '?')}, "
          f"pid {header.get('pid', '?')}, "
          f"{header.get('events', len(events))} events")
    for event in events[1:]:
        stamp = event.pop("ts", None)
        kind = event.pop("kind", "?")
        when = (datetime.datetime.fromtimestamp(stamp).strftime("%H:%M:%S.%f")
                [:-3] if isinstance(stamp, (int, float)) else "?")
        detail = " ".join(f"{k}={v}" for k, v in sorted(event.items())
                          if v is not None)
        print(f"  {when} {kind:<12} {detail}")
    return 0


def _add_tls_flags(parser: argparse.ArgumentParser) -> None:
    """Shared ``--tls-*`` flags for cluster-facing subcommands.

    cert+key are a pair (partial config is a typed error); --tls-ca
    additionally pins the peer certificate on both sides.
    """
    parser.add_argument("--tls-cert", metavar="PEM", default=None,
                        help="TLS certificate chain for this endpoint "
                             "(requires --tls-key)")
    parser.add_argument("--tls-key", metavar="PEM", default=None,
                        help="private key for --tls-cert")
    parser.add_argument("--tls-ca", metavar="PEM", default=None,
                        help="CA bundle; peers must present a "
                             "certificate it signed")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Triangle FO2 spin-wave gate reproduction "
                    "(Mahmoud et al., DATE 2021)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}",
                        help="print the package version (correlates "
                             "trace files and .repro_cache/ salts)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for engine-backed commands "
                             "(default serial; 0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache "
                             "(.repro_cache/)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a span trace of the command: Chrome "
                             "trace-event JSON (open in Perfetto), or a "
                             "JSONL span log when FILE ends in .jsonl")
    parser.add_argument("--log-level", metavar="LEVEL", default=None,
                        help="enable repro logging at LEVEL "
                             "(debug, info, warning, ...)")
    sub = parser.add_subparsers(dest="command")

    p_tt = sub.add_parser("truth-table",
                          help="evaluate a gate on all input patterns")
    p_tt.add_argument("gate", help="maj3 | nmaj3 | xor | xnor | maj5 | "
                                   "and | or | nand | nor")
    p_tt.set_defaults(func=_cmd_truth_table)

    for name, func, help_text in (
            ("table1", _cmd_table1, "reproduce Table I"),
            ("table2", _cmd_table2, "reproduce Table II"),
            ("table3", _cmd_table3, "reproduce Table III")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)

    p_design = sub.add_parser("design",
                              help="gate dimensions for a wavelength")
    p_design.add_argument("--wavelength-nm", type=float, default=55.0)
    p_design.set_defaults(func=_cmd_design)

    p_adder = sub.add_parser("adder",
                             help="n-bit adder comparison vs CMOS")
    p_adder.add_argument("width", type=int)
    p_adder.set_defaults(func=_cmd_adder)

    p_sweep = sub.add_parser(
        "sweep",
        help="truth-table grid through the parallel/cached engine")
    p_sweep.add_argument("gate", choices=["maj3", "xor"])
    p_sweep.add_argument("--tier",
                         choices=["surrogate", "network", "fdtd", "llg"],
                         default="fdtd",
                         help="evaluation tier (default fdtd: real wave "
                              "solves, seconds per cold input; "
                              "surrogate needs a fitted model -- run "
                              "'characterize' first)")
    p_sweep.add_argument("--cache-dir", default=".repro_cache",
                         help="result-cache directory")
    p_sweep.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-time bound [s]")
    p_sweep.add_argument("--retries", type=int, default=2,
                         help="retry attempts per failed job")
    p_sweep.add_argument("--json", metavar="PATH",
                         help="dump the telemetry RunReport as JSON")
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay the job journal and skip completed "
                              "jobs (restarting interrupted ones)")
    p_sweep.add_argument("--journal", metavar="PATH", default=None,
                         help="write-ahead job journal path (default "
                              "<cache-dir>/journal-<gate>-<tier>.jsonl "
                              "when journalling is on; --resume implies "
                              "journalling)")
    p_sweep.add_argument("--backend", metavar="URL", default=None,
                         help="execution backend: 'local' (default) or "
                              "tcp://host:port of a cluster coordinator "
                              "(docs/CLUSTER.md)")
    p_sweep.add_argument("--secret", default=None,
                         help="cluster shared secret (default "
                              "$REPRO_CLUSTER_SECRET)")
    _add_tls_flags(p_sweep)
    # Accept the global engine flags after the subcommand too
    # (``sweep maj3 --no-cache``); SUPPRESS keeps the subparser from
    # clobbering values parsed at the top level.
    p_sweep.add_argument("--workers", type=int, metavar="N",
                         default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    p_sweep.add_argument("--no-cache", action="store_true",
                         default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_profile = sub.add_parser(
        "profile",
        help="run one gate case under the span tracer; print top spans")
    p_profile.add_argument("gate", choices=["maj3", "xor"])
    p_profile.add_argument("--tier",
                           choices=["surrogate", "network", "fdtd", "llg"],
                           default="fdtd",
                           help="evaluation tier to profile "
                                "(default fdtd)")
    p_profile.add_argument("--bits", default=None, metavar="PATTERN",
                           help="input pattern, e.g. 011 "
                                "(default: all ones)")
    p_profile.add_argument("--top", type=int, default=12, metavar="N",
                           help="span names to show in the summary "
                                "(default 12)")
    p_profile.set_defaults(func=_cmd_profile)

    p_char = sub.add_parser(
        "characterize",
        help="sweep a gate over the characterization axes and fit the "
             "surrogate tier's model (docs/SURROGATE.md)")
    p_char.add_argument("gate", choices=["maj3", "xor"])
    p_char.add_argument("--tier", choices=["network", "fdtd"],
                        default="network",
                        help="source tier the corners are evaluated "
                             "through (default network; llg corners "
                             "are minutes each)")
    p_char.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                        default=None,
                        help="override one axis grid, e.g. "
                             "--axis phase_noise=0,0.1,0.2 (repeatable; "
                             "axes: phase_noise, frequency_detune, "
                             "geometry_jitter, temperature)")
    p_char.add_argument("--n-trials", type=int, default=64, metavar="N",
                        help="Monte-Carlo trials per corner for the "
                             "error-rate response (default 64)")
    p_char.add_argument("--store", default=".repro_characterization",
                        metavar="DIR",
                        help="characterization store root (default "
                             ".repro_characterization/; the surrogate "
                             "tier reads $REPRO_SURROGATE_DIR or the "
                             "default)")
    p_char.add_argument("--kind", choices=["multilinear", "rbf"],
                        default="multilinear",
                        help="surrogate model family (default "
                             "multilinear; rbf accepts scattered "
                             "records)")
    p_char.add_argument("--residual-threshold", type=float, default=0.25,
                        metavar="R",
                        help="leave-one-out residual above which "
                             "queries fall back to the network tier "
                             "(default 0.25)")
    p_char.add_argument("--model", metavar="PATH", default=None,
                        help="write the fitted model here instead of "
                             "<store>/<gate>.surrogate.npz")
    p_char.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable fit summary")
    p_char.add_argument("--cache-dir", default=".repro_cache",
                        help="result-cache directory")
    p_char.add_argument("--workers", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    p_char.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    p_char.set_defaults(func=_cmd_characterize)

    p_serve = sub.add_parser(
        "serve",
        help="HTTP gate-evaluation service (coalescing, batching, "
             "backpressure; see docs/SERVING.md)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8077,
                         help="TCP port (default 8077; 0 = ephemeral)")
    p_serve.add_argument("--max-queue", type=int, default=64, metavar="N",
                         help="jobs queued-or-running before new work "
                              "is rejected with 429 (default 64)")
    p_serve.add_argument("--rate", type=float, default=None, metavar="R",
                         help="token-bucket admission rate in new "
                              "jobs/s (default unlimited)")
    p_serve.add_argument("--burst", type=float, default=None, metavar="B",
                         help="token-bucket burst capacity "
                              "(default max(1, rate))")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         metavar="MS",
                         help="micro-batch collection window for "
                              "network-tier requests (default 2 ms)")
    p_serve.add_argument("--batch-max", type=int, default=16, metavar="N",
                         help="flush a micro-batch at this many jobs "
                              "(default 16)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-time bound for solver "
                              "tiers [s]")
    p_serve.add_argument("--cache-dir", default=".repro_cache",
                         help="result-cache directory")
    p_serve.add_argument("--access-log", metavar="PATH", default=None,
                         help="write a JSONL access log to PATH")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="S",
                         help="max seconds to wait for in-flight work "
                              "on shutdown (default 30)")
    p_serve.add_argument("--deadline-s", type=float, default=None,
                         metavar="S",
                         help="default per-request deadline [s] "
                              "(504 on expiry; the x-deadline-ms "
                              "header overrides it)")
    p_serve.add_argument("--breaker-threshold", type=int, default=5,
                         metavar="N",
                         help="consecutive failures that open a tier's "
                              "circuit breaker (default 5)")
    p_serve.add_argument("--breaker-reset-s", type=float, default=30.0,
                         metavar="S",
                         help="seconds an open circuit waits before "
                              "admitting a probe (default 30)")
    p_serve.add_argument("--surrogate-dir", metavar="DIR", default=None,
                         help="characterization store the surrogate "
                              "tier loads fitted models from (default "
                              "$REPRO_SURROGATE_DIR or "
                              ".repro_characterization/)")
    p_serve.add_argument("--backend", metavar="URL", default=None,
                         help="execution backend for solver tiers: "
                              "'local' (default) or tcp://host:port of "
                              "a cluster coordinator")
    p_serve.add_argument("--prefork", type=int, default=0, metavar="N",
                         help="fork N SO_REUSEPORT serve processes on "
                              "one port (default 0 = single process; "
                              "needs a fixed --port)")
    p_serve.add_argument("--workers", type=int, metavar="N",
                         default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    p_serve.add_argument("--no-cache", action="store_true",
                         default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="join a repro.cluster coordinator and execute jobs "
             "(see docs/CLUSTER.md)")
    p_worker.add_argument("url", metavar="tcp://HOST:PORT",
                          help="coordinator address, e.g. "
                               "tcp://127.0.0.1:7421")
    p_worker.add_argument("--capacity", type=int, default=1, metavar="N",
                          help="jobs this worker runs concurrently "
                               "(default 1)")
    p_worker.add_argument("--name", default="",
                          help="worker name shown in `cluster status` "
                               "(default <hostname>:<pid>)")
    p_worker.add_argument("--secret", default=None,
                          help="cluster shared secret (default "
                               "$REPRO_CLUSTER_SECRET)")
    p_worker.add_argument("--dial-timeout", type=float, default=10.0,
                          metavar="S",
                          help="seconds to keep redialling an absent "
                               "coordinator at startup (default 10)")
    p_worker.add_argument("--dial-backoff", type=float, default=0.2,
                          metavar="S",
                          help="base delay between dial attempts; "
                               "doubles per retry with jitter, capped "
                               "at 2 s (default 0.2)")
    p_worker.add_argument("--reconnect-window", type=float, default=60.0,
                          metavar="S",
                          help="seconds to redial a lost coordinator "
                               "before the worker gives up "
                               "(default 60)")
    _add_tls_flags(p_worker)
    p_worker.set_defaults(func=_cmd_worker)

    p_cluster = sub.add_parser(
        "cluster",
        help="run or inspect a cluster coordinator "
             "(see docs/CLUSTER.md)")
    p_cluster.add_argument("action",
                           choices=["start", "supervise", "status",
                                    "stop"],
                           help="start a coordinator (supervise: under "
                                "a restart-on-crash supervisor), or "
                                "query/stop a running one")
    p_cluster.add_argument("url", nargs="?", default=None,
                           metavar="tcp://HOST:PORT",
                           help="coordinator address (status/stop)")
    p_cluster.add_argument("--host", default="127.0.0.1",
                           help="bind address for start "
                                "(default 127.0.0.1)")
    p_cluster.add_argument("--port", type=int, default=7421,
                           help="TCP port for start (default 7421; "
                                "0 = ephemeral)")
    p_cluster.add_argument("--cache-dir", default=".repro_cache",
                           help="shared result-cache directory "
                                "(default .repro_cache)")
    p_cluster.add_argument("--no-cache", action="store_true",
                           help="run the coordinator without a shared "
                                "cache tier")
    p_cluster.add_argument("--journal", metavar="PATH", default=None,
                           help="write-ahead job journal path")
    p_cluster.add_argument("--secret", default=None,
                           help="cluster shared secret (default "
                                "$REPRO_CLUSTER_SECRET)")
    p_cluster.add_argument("--retries", type=int, default=2, metavar="N",
                           help="attempts per failing job beyond the "
                                "first (default 2; worker deaths do "
                                "not consume attempts)")
    p_cluster.add_argument("--heartbeat-timeout", type=float, default=3.0,
                           metavar="S",
                           help="seconds without a heartbeat before a "
                                "worker is declared lost and its jobs "
                                "rescheduled (default 3.0)")
    p_cluster.add_argument("--max-restarts", type=int, default=20,
                           metavar="N",
                           help="supervise: restart budget before "
                                "giving up; 5 s of healthy uptime "
                                "refills it (default 20)")
    p_cluster.add_argument("--pid-file", metavar="PATH", default=None,
                           help="supervise: write the live "
                                "coordinator pid here after every "
                                "(re)spawn")
    _add_tls_flags(p_cluster)
    p_cluster.add_argument("--json", action="store_true",
                           help="machine-readable status output")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or prune the on-disk result cache")
    p_cache.add_argument("action", choices=["stats", "prune"])
    p_cache.add_argument("--cache-dir", default=".repro_cache",
                         help="result-cache directory")
    p_cache.add_argument("--max-bytes", type=_parse_size, default=None,
                         metavar="N",
                         help="prune: evict least-recently-used entries "
                              "until at most N bytes remain (suffixes "
                              "K/M/G accepted; 0 empties the cache)")
    p_cache.add_argument("--json", action="store_true",
                         help="stats: print the machine-readable usage "
                              "report (entries, bytes, per-salt split, "
                              "quarantine count)")
    p_cache.set_defaults(func=_cmd_cache)

    p_compile = sub.add_parser(
        "compile",
        help="compile a boolean-function spec into a placed, "
             "DRC-checked triangle-gate fabric (docs/COMPILER.md)")
    p_compile.add_argument(
        "spec",
        help="builtin name (maj3, xor2, full_adder, parity4, and_or), "
             "inline JSON spec, equation list ('s = a ^ b; ...'), or "
             "a spec file path")
    p_compile.add_argument("--characterize", action="store_true",
                           help="run the energy/delay/error-rate "
                                "characterizer on the compiled circuit")
    p_compile.add_argument("--tier", choices=["network", "fdtd", "llg"],
                           default="network",
                           help="simulation tier for the characterizer's "
                                "error sweeps (default network)")
    p_compile.add_argument("--rules", metavar="JSON", default=None,
                           help="design-rule deck overrides: inline JSON "
                                "or a JSON file path")
    p_compile.add_argument("--gate-clearance", type=float, default=None,
                           metavar="L",
                           help="required minimum gate spacing [lambda]")
    p_compile.add_argument("--row-clearance", type=float, default=None,
                           metavar="L",
                           help="placer vertical packing target [lambda]")
    p_compile.add_argument("--col-clearance", type=float, default=None,
                           metavar="L",
                           help="placer horizontal packing target "
                                "[lambda]")
    p_compile.add_argument("--out", metavar="PATH", default=None,
                           help="write the full compile result "
                                "(netlist + placement + DRC) as JSON")
    p_compile.add_argument("--report", metavar="PATH", default=None,
                           help="write the characterization report as "
                                "JSON (requires --characterize)")
    p_compile.add_argument("--cache-dir", default=".repro_cache",
                           help="result-cache directory for "
                                "characterization sweeps")
    p_compile.add_argument("--workers", type=int, metavar="N",
                           default=argparse.SUPPRESS,
                           help=argparse.SUPPRESS)
    p_compile.add_argument("--no-cache", action="store_true",
                           default=argparse.SUPPRESS,
                           help=argparse.SUPPRESS)
    p_compile.set_defaults(func=_cmd_compile)

    p_bench = sub.add_parser(
        "bench",
        help="report or gate on the accumulated benchmark trajectory "
             "(benchmarks/output/BENCH_TRAJECTORY.jsonl)")
    p_bench.add_argument("action", choices=["report", "compare"],
                         help="report: sparkline history per metric "
                              "(exit 0 even when the trajectory is "
                              "missing); compare: exit 1 when the "
                              "latest commit regressed beyond "
                              "--threshold, exit 3 when there is no "
                              "trajectory to gate on")
    p_bench.add_argument("--trajectory", metavar="PATH",
                         default="benchmarks/output/BENCH_TRAJECTORY.jsonl",
                         help="trajectory JSONL file (default "
                              "benchmarks/output/BENCH_TRAJECTORY.jsonl)")
    p_bench.add_argument("--threshold", type=float, default=0.15,
                         metavar="R",
                         help="relative regression threshold "
                              "(default 0.15 = 15 %%)")
    p_bench.add_argument("--baseline-window", type=int, default=5,
                         metavar="N",
                         help="earlier-commit records forming the rolling "
                              "baseline median (default 5)")
    p_bench.add_argument("--bench", default=None, metavar="NAME",
                         help="restrict to one benchmark name")
    p_bench.set_defaults(func=_cmd_bench)

    p_debug = sub.add_parser(
        "debug",
        help="inspect the flight recorder (docs/OBSERVABILITY.md)")
    p_debug.add_argument("action", choices=["dump"],
                         help="dump: print the most recent flight-"
                              "recorder dump")
    p_debug.add_argument("--dir", metavar="PATH", default=None,
                         help="dump directory (default .repro_flight/ "
                              "or $REPRO_FLIGHT_DIR)")
    p_debug.add_argument("--json", action="store_true",
                         help="print the raw JSONL instead of the "
                              "formatted timeline")
    p_debug.set_defaults(func=_cmd_debug)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on usage errors such as an unknown
        # subcommand (code 2, usage already printed).  Convert those to
        # a return so embedders -- and the ``python -m repro`` entry --
        # see one int-returning contract.  The clean --help/--version
        # exit (code 0) stands: callers expect argparse's behaviour
        # there.
        code = exc.code
        if code in (0, None):
            raise
        return code if isinstance(code, int) else 2
    if getattr(args, "func", None) is None:
        # No subcommand: print usage, conventional CLI misuse code.
        parser.print_usage(sys.stderr)
        print("repro: error: a subcommand is required "
              "(see 'python -m repro --help')", file=sys.stderr)
        return 2

    from . import obs
    from .resilience import faults

    # Black-box recording: an unhandled crash or a SIGUSR2 poke dumps
    # the flight recorder's recent events (``repro debug dump`` reads
    # them back).  Both installs are idempotent no-ops off-unix.
    obs.flight.install_excepthook()
    obs.flight.install_signal_handler()

    try:
        # Chaos testing: a JSON fault plan in $REPRO_FAULTS arms
        # deterministic fault injection for this process and (via the
        # inherited environment) its pool workers.
        faults.install_from_env()
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    if args.log_level is not None:
        try:
            obs.setup_logging(args.log_level)
        except ValueError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
    tracing = args.trace is not None
    if tracing:
        obs.enable()
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early -- not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    finally:
        if tracing:
            spans = obs.drain_spans()
            obs.disable()
            try:
                from . import __version__

                fmt = obs.write_trace_file(
                    args.trace, spans,
                    metadata={"repro_version": __version__,
                              "command": args.command})
                print(f"trace written to {args.trace} "
                      f"({len(spans)} spans, {fmt} format)",
                      file=sys.stderr)
            except OSError as exc:
                print(f"repro: could not write trace file: {exc}",
                      file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
