"""Regenerate ``cli_surface.json`` next to this script.

    PYTHONPATH=src python tests/golden/make_cli_surface.py

The file pins what ``python -m repro`` accepts, without rendering help
(help text wraps differently across Python versions):

* ``options`` -- per parser (``""`` is the top level, then every
  subcommand): each argument's option strings (or positional dest)
  and its choices, sorted (the order arguments are declared in shows
  only in rendered help);
* ``parses`` -- for representative argv lists, ``vars()`` of the
  parsed namespace, the handler recorded by its function name.  Engine
  flags appear both before and after the subcommand.

Run it only when a change is meant to alter the command line, and say
so in the change.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SURFACE = os.path.join(HERE, "cli_surface.json")

#: Representative command lines; each must parse without error.
ARGVS = [
    ["truth-table", "maj3"],
    ["table1"], ["table2"], ["table3"],
    ["design"], ["design", "--wavelength-nm", "80"],
    ["adder", "8"],
    ["sweep", "maj3"],
    ["--workers", "2", "--no-cache", "sweep", "xor", "--tier", "network"],
    ["sweep", "xor", "--workers", "3", "--no-cache", "--tier", "llg",
     "--cache-dir", "c", "--timeout", "1.5", "--retries", "0",
     "--json", "r.json", "--resume", "--journal", "j.jsonl",
     "--backend", "tcp://127.0.0.1:7421", "--secret", "s",
     "--tls-cert", "c.pem", "--tls-key", "k.pem", "--tls-ca", "ca.pem"],
    ["--trace", "t.jsonl", "--log-level", "info", "profile", "xor",
     "--tier", "network", "--bits", "01", "--top", "3"],
    ["profile", "maj3"],
    ["characterize", "xor"],
    ["--workers", "1", "characterize", "maj3", "--tier", "fdtd",
     "--axis", "phase_noise=0,0.1", "--axis", "temperature=0",
     "--n-trials", "4", "--store", "s", "--kind", "rbf",
     "--residual-threshold", "0.5", "--model", "m.npz", "--json", "f.json",
     "--cache-dir", "c", "--no-cache"],
    ["serve"],
    ["--no-cache", "serve", "--workers", "2"],
    ["serve", "--host", "0.0.0.0", "--port", "0", "--max-queue", "8",
     "--rate", "250", "--burst", "50", "--batch-max", "32",
     "--timeout", "9", "--cache-dir", "c",
     "--access-log", "a.jsonl", "--drain-timeout", "5",
     "--deadline-s", "2", "--breaker-threshold", "3",
     "--breaker-reset-s", "7", "--surrogate-dir", "sd",
     "--backend", "local", "--prefork", "2", "--no-cache"],
    ["worker", "tcp://127.0.0.1:7421"],
    ["worker", "tcp://127.0.0.1:7421", "--capacity", "2", "--name", "w",
     "--secret", "s", "--dial-timeout", "3", "--dial-backoff", "0.5",
     "--reconnect-window", "9", "--tls-ca", "ca.pem"],
    ["cluster", "start"],
    ["--no-cache", "cluster", "supervise", "--host", "0.0.0.0",
     "--port", "7431", "--cache-dir", "c", "--journal", "j.jsonl",
     "--secret", "s", "--retries", "1", "--heartbeat-timeout", "1.5",
     "--max-restarts", "3", "--pid-file", "p.pid",
     "--tls-cert", "c.pem", "--tls-key", "k.pem"],
    ["cluster", "status", "tcp://127.0.0.1:7421", "--json"],
    ["cluster", "stop", "tcp://127.0.0.1:7421", "--no-cache"],
    ["cache", "stats"],
    ["cache", "prune", "--cache-dir", "c", "--max-bytes", "64M", "--json"],
    ["compile", "maj3"],
    ["--workers", "2", "compile", "full_adder", "--characterize",
     "--tier", "fdtd", "--rules", "{}", "--gate-clearance", "1",
     "--row-clearance", "2", "--col-clearance", "3", "--out", "o.json",
     "--report", "r.json", "--cache-dir", "c", "--no-cache",
     "--workers", "4"],
    ["debug", "dump"],
    ["debug", "dump", "--dir", "d", "--json"],
    ["--workers", "0"],
]


def _parsers(parser):
    """The top-level parser and every subcommand parser, by name."""
    found = {"": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            found.update(action.choices)
    return found


def _options(parser):
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        rows.append({"flags": list(action.option_strings) or [action.dest],
                     "dest": action.dest,
                     "choices": (list(action.choices)
                                 if action.choices is not None else None)})
    return sorted(rows, key=lambda row: row["flags"])


def _namespace(parser, argv):
    values = vars(parser.parse_args(argv))
    if "func" in values:
        values["func"] = values["func"].__name__
    return values


def surface():
    """The CLI surface as a JSON-shaped dict."""
    from repro.cli import build_parser

    parser = build_parser()
    return {
        "options": {name: _options(sub)
                    for name, sub in sorted(_parsers(parser).items())},
        "parses": [{"argv": argv, "namespace": _namespace(parser, argv)}
                   for argv in ARGVS],
    }


def canonical(payload) -> str:
    """Key-sorted JSON text: ``2.0`` and ``2`` stay distinct."""
    return json.dumps(payload, indent=1, sort_keys=True)


def main() -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
    with open(SURFACE, "w", encoding="utf-8") as handle:
        handle.write(canonical(surface()) + "\n")
    print(f"wrote {SURFACE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
