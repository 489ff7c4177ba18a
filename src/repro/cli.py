"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the headline reproductions (the paper's tables,
truth tables, design points), the engine-backed sweeps, the HTTP
service, the cluster and the circuit compiler without writing Python.
``python -m repro --help`` lists the commands and ``python -m repro
COMMAND --help`` their flags.

Global flags (before the subcommand): ``--workers N`` fans cache
misses out over N worker processes (0 = one per CPU); ``--no-cache``
disables the on-disk result cache (both are also accepted after the
engine-backed subcommands); ``--trace FILE`` writes a span
trace of the command (Chrome trace-event JSON for Perfetto, or a JSONL
span log when FILE ends in ``.jsonl``); ``--log-level LEVEL`` turns on
``repro`` logging; ``--version`` prints the package version.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional


def _fail(message: str, code: int = 2) -> int:
    """Report an error on stderr; returns the exit code."""
    print(message, file=sys.stderr)
    return code


def _cache(args: argparse.Namespace):
    """The result cache the engine flags select (None with --no-cache)."""
    from .runtime import DiskCache

    return None if args.no_cache else DiskCache(root=args.cache_dir)


def _cmd_truth_table(args: argparse.Namespace) -> int:
    from functools import partial

    from .core import DerivedTriangleGate, TriangleMajorityGate, TriangleXorGate
    from .core.extended import TriangleMajority5Gate
    from .core.logic import input_patterns
    from .io import format_truth_table

    gates = {  # name -> (inputs, gate factory)
        "maj3": (3, TriangleMajorityGate),
        "nmaj3": (3, partial(TriangleMajorityGate, invert_output=True)),
        "xor": (2, TriangleXorGate),
        "xnor": (2, partial(TriangleXorGate, xnor=True)),
        "maj5": (5, TriangleMajority5Gate),
        **{name: (2, partial(DerivedTriangleGate, name))
           for name in ("and", "or", "nand", "nor")},
    }
    if args.gate.lower() not in gates:
        return _fail(f"unknown gate {args.gate!r}; choose from "
                     f"{', '.join(gates)}")
    n, factory = gates[args.gate.lower()]
    gate = factory()
    patterns = input_patterns(n)
    rows = []
    for bits in patterns:
        result = (gate.evaluate(*bits)
                  if isinstance(gate, DerivedTriangleGate)
                  else gate.evaluate(bits))
        outputs = getattr(result, "outputs", result)
        rows.append([outputs["O1"].logic_value, outputs["O2"].logic_value])
    print(format_truth_table(patterns, ["O1", "O2"], rows,
                             [f"I{i + 1}" for i in range(n)],
                             title=f"{args.gate.upper()} "
                                   "(triangle FO2, network tier)"))
    return 0


def _print_paper_table(gate, reference, title: str) -> int:
    """Our normalised outputs of a paper gate beside the published
    ones, rows ordered with the last input most significant."""
    from .core.logic import input_patterns
    from .io import format_truth_table

    n = len(next(iter(reference)))
    table = gate.normalized_output_table()
    patterns = sorted(input_patterns(n), key=lambda b: b[::-1])
    rows = [[f"{table[b][0]:.3f}", f"{table[b][1]:.3f}",
             str(reference[b][0]), str(reference[b][1])]
            for b in patterns]
    print(format_truth_table(
        [b[::-1] for b in patterns],
        ["O1 (ours)", "O2 (ours)", "O1 (paper)", "O2 (paper)"],
        rows, [f"I{i}" for i in range(n, 0, -1)], title=title))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .core import PAPER_TABLE_I, paper_table_i_gate

    return _print_paper_table(paper_table_i_gate(), PAPER_TABLE_I,
                              "TABLE I -- FO2 MAJ3 normalised outputs")


def _cmd_table2(args: argparse.Namespace) -> int:
    from .core import PAPER_TABLE_II, paper_table_ii_gate

    return _print_paper_table(paper_table_ii_gate(), PAPER_TABLE_II,
                              "TABLE II -- FO2 XOR normalised outputs")


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
    if not (args.tls_cert or args.tls_key or args.tls_ca):
        return None  # without loading the cluster's socket/ssl stack
    from .cluster import tls_config

    return tls_config(cert=args.tls_cert, key=args.tls_key, ca=args.tls_ca)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from .errors import ClusterConfigError
    from .micromag.experiments import sweep_gate_truth_table
    from .resilience import JobJournal
    from .runtime import Executor, JobFailed, create_backend

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
        return _fail(f"sweep: {exc}")
    cache = _cache(args)
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
        return _fail(f"sweep failed: {exc}", 1)
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

    from .runtime import Executor, JobFailed
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
                return _fail(f"characterize: bad --axis {text!r}; "
                             "expected NAME=V1,V2,...")
            try:
                parsed.append(AxisSpec(
                    name.strip(),
                    tuple(float(v) for v in values.split(","))))
            except ValueError as exc:
                return _fail(f"characterize: {exc}")
        axes = tuple(parsed)

    store = CharacterizationStore(args.store)
    dataset = store.dataset(args.gate, tier=args.tier, axes=axes,
                            n_trials=args.n_trials)
    executor = Executor(workers=args.workers, cache=_cache(args))
    known = len(dataset.records())
    print(f"characterizing {args.gate}@{args.tier}: "
          f"{dataset.grid_size} grid corners "
          f"({known} already on disk) -> {dataset.directory}")
    try:
        records = characterize(dataset, executor=executor)
    except JobFailed as exc:
        return _fail(f"characterize failed: {exc}", 1)
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
    from .defaults import GATE_ARITY
    from .micromag.experiments import run_gate_case

    arity = GATE_ARITY[args.gate]
    bits_text = args.bits if args.bits is not None else "1" * arity
    if len(bits_text) != arity or set(bits_text) - {"0", "1"}:
        return _fail(f"profile: --bits must be {arity} binary digits "
                     f"for {args.gate}, got {bits_text!r}")
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
    import dataclasses

    from .errors import ClusterConfigError
    from .serve import GateService, ServeConfig, run_prefork

    # Every serve flag is named after the ServeConfig field it sets;
    # the global --trace is the CLI's own span file, not the service's
    # periodic flush target.
    config = ServeConfig(**{field.name: getattr(args, field.name)
                            for field in dataclasses.fields(ServeConfig)
                            if field.name != "trace"
                            and hasattr(args, field.name)})
    if args.no_cache:
        config.cache_dir = None
    try:
        if config.prefork:
            return run_prefork(config)
        return GateService(config).run()
    except ClusterConfigError as exc:
        return _fail(f"serve: {exc}")


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
        return _fail(f"worker: {exc}")
    except ClusterAuthError as exc:
        return _fail(f"worker: {exc}", 3)
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
        return _fail(f"cluster {args.action}: {exc}")

    if args.action in ("start", "supervise"):
        from .cluster import run_supervised, serve_coordinator

        cache_dir = None if args.no_cache else args.cache_dir
        coordinator_args = dict(
            host=args.host, port=args.port, cache_dir=cache_dir,
            journal_path=args.journal, secret=args.secret,
            retries=args.retries, heartbeat_timeout=args.heartbeat_timeout,
            tls=tls)

        def announce(coordinator) -> None:
            print(f"cluster coordinator on {coordinator.url} "
                  f"(cache={cache_dir or 'off'}, "
                  f"journal={args.journal or 'off'}); workers join with:\n"
                  f"  python -m repro worker {coordinator.url}")
            replayed = coordinator.journal_replayed
            if replayed["completed"] or replayed["interrupted"]:
                print(f"journal replay: {replayed['completed']} completed, "
                      f"{replayed['interrupted']} interrupted job(s) "
                      f"requeued")

        try:
            if args.action == "start":
                return serve_coordinator(**coordinator_args,
                                         on_ready=announce)
            return run_supervised(**coordinator_args,
                                  max_restarts=args.max_restarts,
                                  pid_file=args.pid_file)
        except ClusterConfigError as exc:
            return _fail(f"cluster {args.action}: {exc}")
        except KeyboardInterrupt:
            return 0

    from .cluster import ClusterClient

    if not args.url:
        return _fail(f"cluster {args.action}: coordinator URL required, "
                     f"e.g. python -m repro cluster {args.action} "
                     "tcp://127.0.0.1:7421")
    try:
        with ClusterClient(args.url, secret=args.secret,
                           tls=tls) as client:
            if args.action == "stop":
                client.shutdown()
                print(f"coordinator at {args.url} asked to stop")
                return 0
            status = client.status()
    except (ClusterConfigError, ClusterAuthError, ClusterError) as exc:
        return _fail(f"cluster {args.action}: {exc}")
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
        size = float(text) * factor
    except ValueError:
        size = math.nan
    if not 0 <= size < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}; use e.g. 500000, 500K, 64M, 2G")
    return int(size)


def _number(kind: type, zero: bool = False):
    """argparse ``type``: a finite ``kind`` (int or float) above zero,
    or at least zero with ``zero``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (value >= 0 if zero else value > 0) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a {'non-negative' if zero else 'positive'} "
                f"{kind.__name__}, got {text!r}")
        return value

    return parse


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .io.tables import format_table
    from .runtime.cache import cache_stats, prune_cache

    if args.json and args.action != "stats":
        return _fail("cache: --json only applies to 'stats'")
    if args.action == "prune":
        if args.max_bytes is None:
            return _fail("cache prune: --max-bytes is required "
                         "(0 empties the cache)")
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
        return _fail("compile: --report requires --characterize")
    overrides = {}
    if args.rules is not None:
        text = args.rules
        if not text.strip().startswith("{") and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        try:
            parsed = json.loads(text)
        except ValueError as exc:
            return _fail(f"compile: bad --rules JSON: {exc}")
        if not isinstance(parsed, dict):
            return _fail("compile: --rules must be a JSON object")
        overrides.update(parsed)
    for name in ("gate_clearance", "row_clearance", "col_clearance"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    try:
        rules = DesignRules.from_dict(overrides) if overrides else None
    except (TypeError, ValueError) as exc:
        return _fail(f"compile: bad rule deck: {exc}")

    executor = None
    if args.characterize:
        from .runtime import Executor

        executor = Executor(workers=args.workers, cache=_cache(args))
    try:
        result = compile_spec(args.spec, rules=rules,
                              characterize_circuit=args.characterize,
                              tier=args.tier, executor=executor,
                              raise_on_violation=False)
    except ValueError as exc:
        return _fail(f"compile: {exc}")

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


def _cmd_debug(args: argparse.Namespace) -> int:
    import datetime
    import json

    from .obs import flight

    directory = args.dir or flight.default_dir()
    path = flight.latest_dump(directory)
    if path is None:
        return _fail(f"debug dump: no flight dumps under {directory} "
                     "(they appear on crashes, divergences and SIGUSR2)",
                     1)
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


def _add_flags(parser: argparse.ArgumentParser, rows) -> None:
    """Declare valued flags from ``(flag, type, default, metavar,
    help)`` rows."""
    for flag, kind, default, metavar, help_text in rows:
        parser.add_argument(flag, type=kind, default=default,
                            metavar=metavar, help=help_text)


def _shared_flags():
    """argparse parents for the flags several subcommands share:
    ``(engine, cache, cluster)``."""
    from .defaults import DEFAULT_CACHE_ROOT

    # The global engine flags, accepted after the subcommand too
    # (``sweep maj3 --no-cache``); SUPPRESS keeps the subparser from
    # clobbering values parsed at the top level.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--workers", type=int, metavar="N",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    engine.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_ROOT,
                       help="result-cache directory (default %(default)s)")
    # Cluster-facing flags: cert+key are a pair (partial config is a
    # typed error); --tls-ca additionally pins the peer certificate on
    # both sides.
    cluster = argparse.ArgumentParser(add_help=False)
    _add_flags(cluster, (
        ("--secret", None, None, None,
         "cluster shared secret (default $REPRO_CLUSTER_SECRET)"),
        ("--tls-cert", None, None, "PEM",
         "TLS certificate chain for this endpoint (requires --tls-key)"),
        ("--tls-key", None, None, "PEM", "private key for --tls-cert"),
        ("--tls-ca", None, None, "PEM",
         "CA bundle; peers must present a certificate it signed")))
    return engine, cache, cluster


def build_parser() -> argparse.ArgumentParser:
    from . import __version__
    from .defaults import GATE_ARITY, TIERS, ServeConfig

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
    _add_flags(parser, (
        ("--trace", None, None, "FILE",
         "write a span trace of the command: Chrome trace-event JSON "
         "(open in Perfetto), or a JSONL span log when FILE ends in "
         ".jsonl"),
        ("--log-level", None, None, "LEVEL",
         "enable repro logging at LEVEL (debug, info, warning, ...)")))
    sub = parser.add_subparsers(dest="command")
    engine, cache, cluster = _shared_flags()
    gates = list(GATE_ARITY)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(func=func)
        return p

    command("truth-table", _cmd_truth_table,
            "evaluate a gate on all input patterns"
            ).add_argument("gate", help="maj3 | nmaj3 | xor | xnor | maj5 "
                                        "| and | or | nand | nor")
    command("table1", _cmd_table1, "reproduce Table I")
    command("table2", _cmd_table2, "reproduce Table II")
    command("table3", _cmd_table3, "reproduce Table III")
    command("design", _cmd_design, "gate dimensions for a wavelength"
            ).add_argument("--wavelength-nm", type=_number(float),
                           default=55.0)
    command("adder", _cmd_adder, "n-bit adder comparison vs CMOS"
            ).add_argument("width", type=_number(int))

    p_sweep = command("sweep", _cmd_sweep,
                      "truth-table grid through the parallel/cached engine",
                      engine, cache, cluster)
    p_sweep.add_argument("gate", choices=gates)
    p_sweep.add_argument("--tier", choices=TIERS, default="fdtd",
                         help="evaluation tier (default fdtd: real wave "
                              "solves, seconds per cold input; "
                              "surrogate needs a fitted model -- run "
                              "'characterize' first)")
    _add_flags(p_sweep, (
        ("--timeout", float, None, None, "per-job wall-time bound [s]"),
        ("--retries", int, 2, None, "retry attempts per failed job"),
        ("--json", None, None, "PATH",
         "dump the telemetry RunReport as JSON")))
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay the job journal and skip completed "
                              "jobs (restarting interrupted ones)")
    _add_flags(p_sweep, (
        ("--journal", None, None, "PATH",
         "write-ahead job journal path (default "
         "<cache-dir>/journal-<gate>-<tier>.jsonl when journalling is "
         "on; --resume implies journalling)"),
        ("--backend", None, None, "URL",
         "execution backend: 'local' (default) or tcp://host:port of a "
         "cluster coordinator (docs/CLUSTER.md)")))

    p_profile = command(
        "profile", _cmd_profile,
        "run one gate case under the span tracer; print top spans")
    p_profile.add_argument("gate", choices=gates)
    p_profile.add_argument("--tier", choices=TIERS, default="fdtd",
                           help="evaluation tier to profile "
                                "(default fdtd)")
    _add_flags(p_profile, (
        ("--bits", None, None, "PATTERN",
         "input pattern, e.g. 011 (default: all ones)"),
        ("--top", int, 12, "N",
         "span names to show in the summary (default %(default)s)")))

    p_char = command(
        "characterize", _cmd_characterize,
        "sweep a gate over the characterization axes and fit the "
        "surrogate tier's model (docs/SURROGATE.md)", engine, cache)
    p_char.add_argument("gate", choices=gates)
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
    p_char.add_argument("--kind", choices=["multilinear", "rbf"],
                        default="multilinear",
                        help="surrogate model family (default "
                             "multilinear; rbf accepts scattered "
                             "records)")
    _add_flags(p_char, (
        ("--n-trials", int, 64, "N",
         "Monte-Carlo trials per corner for the error-rate response "
         "(default %(default)s)"),
        ("--store", None, ".repro_characterization", "DIR",
         "characterization store root (default %(default)s/; the "
         "surrogate tier reads $REPRO_SURROGATE_DIR or the default)"),
        ("--residual-threshold", float, 0.25, "R",
         "leave-one-out residual above which queries fall back to the "
         "network tier (default %(default)s)"),
        ("--model", None, None, "PATH",
         "write the fitted model here instead of "
         "<store>/<gate>.surrogate.npz"),
        ("--json", None, None, "PATH",
         "write a machine-readable fit summary")))

    # Every serve flag sets the ServeConfig field of its name and
    # defaults to it.
    p_serve = command(
        "serve", _cmd_serve,
        "HTTP gate-evaluation service (coalescing, batching, "
        "backpressure; see docs/SERVING.md)", engine, cache)
    config = ServeConfig()
    _add_flags(p_serve, [
        (flag, kind, getattr(config, flag[2:].replace("-", "_")), metavar,
         help_text) for flag, kind, metavar, help_text in (
            ("--host", None, None, "bind address (default %(default)s)"),
            ("--port", int, None,
             "TCP port (default %(default)s; 0 = ephemeral)"),
            ("--max-queue", int, "N",
             "jobs queued-or-running before new work is rejected with "
             "429 (default %(default)s)"),
            ("--rate", _number(float, zero=True), "R",
             "token-bucket admission rate in new jobs/s (default "
             "unlimited)"),
            ("--burst", float, "B",
             "token-bucket burst capacity (default max(1, rate))"),
            ("--batch-window-ms", float, "MS",
             "micro-batch collection window for network-tier requests "
             "(default %(default)s ms)"),
            ("--batch-max", int, "N",
             "flush a micro-batch at this many jobs (default "
             "%(default)s)"),
            ("--timeout", float, None,
             "per-job wall-time bound for solver tiers [s]"),
            ("--access-log", None, "PATH",
             "write a JSONL access log to PATH"),
            ("--drain-timeout", float, "S",
             "max seconds to wait for in-flight work on shutdown "
             "(default %(default)s)"),
            ("--deadline-s", float, "S",
             "default per-request deadline [s] (504 on expiry; the "
             "x-deadline-ms header overrides it)"),
            ("--breaker-threshold", int, "N",
             "consecutive failures that open a tier's circuit breaker "
             "(default %(default)s)"),
            ("--breaker-reset-s", float, "S",
             "seconds an open circuit waits before admitting a probe "
             "(default %(default)s)"),
            ("--surrogate-dir", None, "DIR",
             "characterization store the surrogate tier loads fitted "
             "models from (default $REPRO_SURROGATE_DIR or "
             ".repro_characterization/)"),
            ("--backend", None, "URL",
             "execution backend for solver tiers: 'local' (default) or "
             "tcp://host:port of a cluster coordinator"),
            ("--prefork", int, "N",
             "fork N SO_REUSEPORT serve processes on one port (default "
             "%(default)s = single process; needs a fixed --port)"))])

    p_worker = command(
        "worker", _cmd_worker,
        "join a repro.cluster coordinator and execute jobs "
        "(see docs/CLUSTER.md)", cluster)
    p_worker.add_argument("url", metavar="tcp://HOST:PORT",
                          help="coordinator address, e.g. "
                               "tcp://127.0.0.1:7421")
    _add_flags(p_worker, (
        ("--capacity", int, 1, "N",
         "jobs this worker runs concurrently (default %(default)s)"),
        ("--name", None, "", None,
         "worker name shown in `cluster status` (default "
         "<hostname>:<pid>)"),
        ("--dial-timeout", float, 10.0, "S",
         "seconds to keep redialling an absent coordinator at startup "
         "(default %(default)s)"),
        ("--dial-backoff", float, 0.2, "S",
         "base delay between dial attempts; doubles per retry with "
         "jitter, capped at 2 s (default %(default)s)"),
        ("--reconnect-window", float, 60.0, "S",
         "seconds to redial a lost coordinator before the worker gives "
         "up (default %(default)s)")))

    p_cluster = command(
        "cluster", _cmd_cluster,
        "run or inspect a cluster coordinator (see docs/CLUSTER.md)",
        cache, cluster)
    p_cluster.add_argument("action",
                           choices=["start", "supervise", "status",
                                    "stop"],
                           help="start a coordinator (supervise: under "
                                "a restart-on-crash supervisor), or "
                                "query/stop a running one")
    p_cluster.add_argument("url", nargs="?", default=None,
                           metavar="tcp://HOST:PORT",
                           help="coordinator address (status/stop)")
    p_cluster.add_argument("--no-cache", action="store_true",
                           help="run the coordinator without a shared "
                                "cache tier")
    p_cluster.add_argument("--json", action="store_true",
                           help="machine-readable status output")
    _add_flags(p_cluster, (
        ("--host", None, "127.0.0.1", None,
         "bind address for start (default %(default)s)"),
        ("--port", int, 7421, None,
         "TCP port for start (default %(default)s; 0 = ephemeral)"),
        ("--journal", None, None, "PATH", "write-ahead job journal path"),
        ("--retries", int, 2, "N",
         "attempts per failing job beyond the first (default "
         "%(default)s; worker deaths do not consume attempts)"),
        ("--heartbeat-timeout", float, 3.0, "S",
         "seconds without a heartbeat before a worker is declared lost "
         "and its jobs rescheduled (default %(default)s)"),
        ("--max-restarts", int, 20, "N",
         "supervise: restart budget before giving up; 5 s of healthy "
         "uptime refills it (default %(default)s)"),
        ("--pid-file", None, None, "PATH",
         "supervise: write the live coordinator pid here after every "
         "(re)spawn")))

    p_cache = command("cache", _cmd_cache,
                      "inspect or prune the on-disk result cache", cache)
    p_cache.add_argument("action", choices=["stats", "prune"])
    p_cache.add_argument("--max-bytes", type=_parse_size, default=None,
                         metavar="N",
                         help="prune: evict least-recently-used entries "
                              "until at most N bytes remain (suffixes "
                              "K/M/G accepted; 0 empties the cache)")
    p_cache.add_argument("--json", action="store_true",
                         help="stats: print the machine-readable usage "
                              "report (entries, bytes, per-salt split, "
                              "quarantine count)")

    p_compile = command(
        "compile", _cmd_compile,
        "compile a boolean-function spec into a placed, DRC-checked "
        "triangle-gate fabric (docs/COMPILER.md)", engine, cache)
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
    _add_flags(p_compile, (
        ("--rules", None, None, "JSON",
         "design-rule deck overrides: inline JSON or a JSON file path"),
        ("--gate-clearance", float, None, "L",
         "required minimum gate spacing [lambda]"),
        ("--row-clearance", float, None, "L",
         "placer vertical packing target [lambda]"),
        ("--col-clearance", float, None, "L",
         "placer horizontal packing target [lambda]"),
        ("--out", None, None, "PATH",
         "write the full compile result (netlist + placement + DRC) as "
         "JSON"),
        ("--report", None, None, "PATH",
         "write the characterization report as JSON (requires "
         "--characterize)")))

    p_debug = command("debug", _cmd_debug,
                      "inspect the flight recorder (docs/OBSERVABILITY.md)")
    p_debug.add_argument("action", choices=["dump"],
                         help="dump: print the most recent flight-"
                              "recorder dump")
    p_debug.add_argument("--dir", metavar="PATH", default=None,
                         help="dump directory (default .repro_flight/ "
                              "or $REPRO_FLIGHT_DIR)")
    p_debug.add_argument("--json", action="store_true",
                         help="print the raw JSONL instead of the "
                              "formatted timeline")
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
        return _fail("repro: error: a subcommand is required "
                     "(see 'python -m repro --help')")

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
        if args.log_level is not None:
            obs.setup_logging(args.log_level)
    except ValueError as exc:
        return _fail(f"repro: error: {exc}")
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
