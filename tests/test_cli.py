"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro import __version__, obs
from repro.cli import main


@pytest.fixture(autouse=True)
def _clean_observer():
    """--trace/--log-level toggle process-global observer state; never
    leak it across tests."""
    yield
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()
    import logging

    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


class TestTruthTable:
    @pytest.mark.parametrize("gate", ["maj3", "nmaj3", "xor", "xnor",
                                      "and", "or", "nand", "nor", "maj5"])
    def test_gate_prints_table(self, gate, capsys):
        assert main(["truth-table", gate]) == 0
        out = capsys.readouterr().out
        assert "O1" in out and "O2" in out

    def test_unknown_gate(self, capsys):
        assert main(["truth-table", "flux"]) == 2
        assert "unknown gate" in capsys.readouterr().err

    def test_maj3_values_correct(self, capsys):
        main(["truth-table", "maj3"])
        out = capsys.readouterr().out
        # (1,1,0) row must decode to 1 at both outputs.
        for line in out.splitlines():
            if line.startswith("1  | 1  | 0"):
                assert line.strip().endswith("1  | 1")
                break
        else:
            pytest.fail("pattern row not found")


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.083" in out and "0.164" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "This work" in out
        assert "10.3" in out


class TestDesign:
    def test_default_design_point(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "d1 = 330 nm" in out
        assert "d2 = 880 nm" in out

    def test_rescaled(self, capsys):
        assert main(["design", "--wavelength-nm", "110"]) == 0
        out = capsys.readouterr().out
        assert "d1 = 660 nm" in out


class TestAdder:
    def test_adder_comparison(self, capsys):
        assert main(["adder", "4"]) == 0
        out = capsys.readouterr().out
        assert "SW (this work)" in out
        assert "7nm CMOS" in out


class TestNoSubcommand:
    def test_usage_and_exit_code_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "subcommand is required" in err

    def test_global_flags_alone_still_exit_2(self, capsys):
        assert main(["--workers", "2", "--no-cache"]) == 2
        assert "usage:" in capsys.readouterr().err


class TestUnknownSubcommand:
    def test_usage_and_exit_code_2(self, capsys):
        # argparse raises SystemExit(2) for an invalid choice; main()
        # must convert it to a return code instead of letting it
        # propagate out of the entry point.
        assert main(["decompile", "maj3"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestSweep:
    def test_sweep_maj3_network_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["--workers", "1", "sweep", "maj3", "--tier", "network",
                "--cache-dir", cache_dir,
                "--json", str(tmp_path / "report.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "MAJ3 FO2 truth-table sweep" in out
        assert "run telemetry" in out
        assert "8 jobs: 0 cached" in out
        # Second invocation: the on-disk cache serves every pattern.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "8 jobs: 8 cached (100 % hits)" in out
        import json
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["summary"]["hit_rate"] == 1.0

    def test_sweep_no_cache(self, capsys):
        assert main(["--no-cache", "sweep", "xor",
                     "--tier", "network"]) == 0
        out = capsys.readouterr().out
        assert "4 jobs: 0 cached" in out

    def test_sweep_rejects_unknown_gate(self, capsys):
        # Usage errors no longer escape as SystemExit: main() returns
        # the conventional misuse code instead.
        assert main(["sweep", "nand"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_prints_cache_line(self, tmp_path, capsys):
        argv = ["--workers", "1", "sweep", "xor", "--tier", "network",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits / 4 misses" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: 4 hits / 0 misses (100 % hit rate), 0 writes" in out

    def test_sweep_no_cache_prints_disabled(self, capsys):
        assert main(["--no-cache", "sweep", "xor",
                     "--tier", "network"]) == 0
        assert "cache: disabled" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestLogLevel:
    def test_log_level_enables_repro_logging(self, tmp_path, capsys):
        argv = ["--log-level", "info", "--workers", "1",
                "sweep", "xor", "--tier", "network",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "repro.runtime.executor" in err

    def test_unknown_level_exits_2(self, capsys):
        assert main(["--log-level", "loud", "truth-table", "maj3"]) == 2
        assert "unknown log level" in capsys.readouterr().err


class TestTraceAndProfile:
    def test_profile_network_tier(self, capsys):
        assert main(["profile", "maj3", "--tier", "network"]) == 0
        out = capsys.readouterr().out
        assert "MAJ3 111 @ network tier" in out
        assert "gate_case" in out

    def test_profile_rejects_bad_bits(self, capsys):
        assert main(["profile", "maj3", "--bits", "01"]) == 2
        assert "must be 3 binary digits" in capsys.readouterr().err

    def test_trace_jsonl_from_sweep(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["--trace", str(trace), "--no-cache", "--workers", "1",
                     "sweep", "xor", "--tier", "network"]) == 0
        err = capsys.readouterr().err
        assert "trace written to" in err and "jsonl format" in err
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert {"sweep", "executor.run", "gate_case"} <= names

    def test_trace_profile_fdtd_nested_spans(self, tmp_path, capsys):
        # The ISSUE acceptance criterion: a Chrome trace with nested
        # fdtd.step spans under the gate-case span (slow: real FDTD run).
        trace = tmp_path / "trace.json"
        assert main(["--trace", str(trace),
                     "profile", "xor", "--tier", "fdtd"]) == 0
        out = capsys.readouterr().out
        assert "fdtd.step" in out  # top-spans table
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert all(ev["ph"] == "X" for ev in events)
        by_id = {ev["args"]["span_id"]: ev for ev in events}
        step = next(ev for ev in events if ev["name"] == "fdtd.step")
        chain = []
        while step is not None:
            chain.append(step["name"])
            step = by_id.get(step["args"].get("parent_id"))
        assert chain[0] == "fdtd.step"
        assert "gate_case" in chain and chain[-1] == "profile"


class TestCacheCommand:
    @staticmethod
    def _fill(root, n=2):
        from repro.runtime import DiskCache

        cache = DiskCache(root=root)
        for i in range(n):
            cache.put(format(i, "02x") * 20, {"payload": "x" * 128, "i": i})
        return cache

    def test_stats_reports_entries(self, tmp_path, capsys):
        self._fill(str(tmp_path))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result cache at" in out
        assert "total" in out and "entries" in out

    def test_stats_on_missing_root(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nowhere")]) == 0
        assert "total" in capsys.readouterr().out

    def test_prune_requires_max_bytes(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_empties_cache(self, tmp_path, capsys):
        cache = self._fill(str(tmp_path))
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 of 2 entries" in out
        assert cache.usage().entries == 0

    def test_stats_json_includes_quarantine(self, tmp_path, capsys):
        cache = self._fill(str(tmp_path))
        # Tear one entry so the JSON report has a quarantine to count.
        json_path, _npz = cache._paths("00" * 20)
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        cache.get("00" * 20)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["quarantined"] == 1
        assert payload["total_bytes"] > 0
        assert payload["root"] == str(tmp_path)
        assert "by_salt" in payload

    def test_stats_json_on_empty_root(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nowhere"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0
        assert payload["quarantined"] == 0

    def test_json_rejected_for_prune(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0", "--json"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_parse_size_suffixes(self):
        import argparse

        from repro.cli import _parse_size

        assert _parse_size("512") == 512
        assert _parse_size("10K") == 10 * 1024
        assert _parse_size("64M") == 64 * (1 << 20)
        assert _parse_size("2G") == 2 * (1 << 30)
        assert _parse_size("1.5k") == 1536
        assert _parse_size("10KB") == 10 * 1024
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("lots")


class TestCharacterizeCommand:
    AXIS_FLAGS = ["--axis", "phase_noise=0,0.2",
                  "--axis", "frequency_detune=-0.02,0,0.02",
                  "--axis", "geometry_jitter=0",
                  "--axis", "temperature=0"]

    def test_characterize_fits_and_saves_model(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        summary = tmp_path / "fit.json"
        code = main(["characterize", "xor", "--store", store,
                     "--n-trials", "2", "--no-cache",
                     "--json", str(summary), *self.AXIS_FLAGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "6/6" in out or "6 of 6" in out or "grid" in out
        payload = json.loads(summary.read_text())
        assert payload["gate"] == "xor"
        assert payload["grid_size"] == 6
        assert payload["n_records"] == 6
        assert payload["kind"] == "multilinear"
        assert payload["max_residual"] <= payload["residual_threshold"]
        import os

        assert os.path.exists(payload["model_path"])
        from repro.surrogate import load_model

        assert load_model(payload["model_path"]).gate == "xor"

    def test_characterize_is_idempotent(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["characterize", "xor", "--store", store,
                "--n-trials", "2", "--no-cache", *self.AXIS_FLAGS]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # all corners already on disk

    def test_bad_axis_spec_exits_2(self, tmp_path, capsys):
        assert main(["characterize", "xor", "--store", str(tmp_path),
                     "--axis", "voltage=1,2"]) == 2
        assert "axis" in capsys.readouterr().err

    def test_unknown_gate_exits_2(self, tmp_path, capsys):
        assert main(["characterize", "maj7",
                     "--store", str(tmp_path)]) == 2


class TestSweepSurrogateTier:
    def test_sweep_answers_from_fitted_model(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.surrogate import (
            AxisSpec,
            CharacterizationStore,
            characterize,
            clear_registry,
            fit_surrogate,
        )

        store = CharacterizationStore(str(tmp_path))
        dataset = store.dataset("xor", axes=(
            AxisSpec("phase_noise", (0.0, 0.2)),
            AxisSpec("frequency_detune", (-0.02, 0.0, 0.02)),
            AxisSpec("geometry_jitter", (0.0,)),
            AxisSpec("temperature", (0.0,))), n_trials=2)
        fit_surrogate(characterize(dataset).values()).save(
            store.model_path("xor"))
        clear_registry()
        monkeypatch.setenv("REPRO_SURROGATE_DIR", store.root)
        try:
            assert main(["sweep", "xor", "--tier", "surrogate",
                         "--no-cache"]) == 0
        finally:
            clear_registry()
        out = capsys.readouterr().out
        assert "all cases correct" in out or "correct" in out


def _load_golden_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent / "golden" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliSurface:
    def test_surface_matches_golden(self):
        """Flags, choices, defaults and handlers of every subcommand are
        those pinned in tests/golden/cli_surface.json."""
        surface = _load_golden_script("make_cli_surface")
        with open(surface.SURFACE, encoding="utf-8") as handle:
            golden = json.load(handle)
        current = json.loads(surface.canonical(surface.surface()))
        assert current["options"] == golden["options"]
        for got, want in zip(current["parses"], golden["parses"]):
            assert surface.canonical(got) == surface.canonical(want)
        assert len(current["parses"]) == len(golden["parses"])

    @pytest.mark.parametrize("argv", [
        ["cache", "prune", "--max-bytes", "inf"],
        ["cache", "prune", "--max-bytes", "-5"],
        ["cache", "prune", "--max-bytes", "nan"],
        ["design", "--wavelength-nm", "0"],
        ["design", "--wavelength-nm", "inf"],
        ["adder", "0"],
        ["adder", "-3"],
        ["serve", "--rate", "-5"],
        ["serve", "--rate", "nan"],
    ])
    def test_bad_numeric_argument_is_a_usage_error(self, argv, tmp_path,
                                                   capsys):
        if argv[0] == "cache":
            argv = argv + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum(line.startswith("usage:")
                   for line in err.splitlines()) == 1
        assert "error: argument" in err


class TestServeParserWiring:
    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.port == 8077
        assert args.max_queue == 64
        assert not hasattr(args, "batch_window_ms")
        assert args.batch_max == 16
        assert args.rate is None
        assert args.drain_timeout == 30.0
        assert callable(args.func)

    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--max-queue", "8", "--rate", "250", "--burst", "50",
             "--batch-max", "32",
             "--access-log", "a.jsonl", "--drain-timeout", "5"])
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.max_queue == 8
        assert args.rate == 250.0 and args.burst == 50.0
        assert args.batch_max == 32
        assert args.access_log == "a.jsonl"
        assert args.drain_timeout == 5.0

    def test_batch_window_flag_is_gone(self, capsys):
        """Micro-batches form by group commit; there is no window."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--batch-window-ms", "5"])
        assert exc.value.code == 2
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_zero_rate_still_means_unlimited(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["serve", "--rate", "0"]).rate == 0.0
