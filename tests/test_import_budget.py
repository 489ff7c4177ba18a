"""Import budget: each entry point loads only the layers it runs.

The start-up checks run in fresh interpreters under ``-X importtime``,
which names every module a command imports, so they do not depend on
what this test process has already loaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What benchmarks/perf/runner.py imports as the solver stack.
SOLVER_STACK = ("import repro.core.gates, repro.micromag.experiments, "
                "repro.micromag.gate_experiment, repro.runtime")

#: Neither solver needs the service, the cluster, the compiler, the
#: surrogate tier, the circuit layers or the event loop and the
#: process pool behind them.
NOT_IN_SOLVER_STACK = (
    "asyncio", "multiprocessing", "concurrent.futures.process", "ssl",
    "socket", "repro.serve", "repro.cluster", "repro.compiler",
    "repro.surrogate", "repro.circuits", "repro.evaluation",
)


def _imported(*args, cwd=None):
    """Modules a fresh ``python -X importtime ARGS`` imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    assert "repro" in names
    return names


def _hits(names, packages):
    """Members of ``names`` that are one of ``packages`` or inside it."""
    return sorted(n for n in names for p in packages
                  if n == p or n.startswith(p + "."))


def test_solver_stack_loads_no_service_layers():
    names = _imported("-c", SOLVER_STACK)
    assert _hits(names, NOT_IN_SOLVER_STACK) == []
    assert "numpy" in names  # the probe does see the solvers' imports


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(flag):
    names = _imported("-m", "repro", flag)
    assert _hits(names, ("numpy", "asyncio")) == []


def test_sweep_loads_no_event_loop_or_service(tmp_path):
    names = _imported("-m", "repro", "--no-cache", "sweep", "xor",
                      "--tier", "network", cwd=str(tmp_path))
    assert _hits(names, ("asyncio", "repro.serve")) == []


def test_sweep_imports_nothing_the_stack_did_not():
    # No import is deferred into an operation: a cold FDTD sweep after
    # the solver stack is imported loads no further repro module.
    code = SOLVER_STACK + """
import sys
from repro.micromag.experiments import sweep_gate_truth_table
before = set(sys.modules)
sweep_gate_truth_table("xor", "fdtd")
print(sorted(m for m in set(sys.modules) - before if m.startswith("repro")))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()),
                         ids=lambda package: package.__name__)
def test_every_public_name_resolves_and_is_listed(package):
    listing = dir(package)
    for name in package.__all__:
        assert name in listing, name
        getattr(package, name)


def test_export_named_like_its_submodule_stays_the_export():
    # compiler/place.py defines place(); importing the submodule must
    # not rebind repro.compiler.place to the module.
    import repro.compiler.place  # noqa: F401
    from repro.compiler import characterize, place

    assert not isinstance(place, types.ModuleType)
    assert not isinstance(characterize, types.ModuleType)
    from repro.micromag import minimize

    assert callable(minimize)


def test_submodules_resolve_as_attributes_and_unknown_names_raise():
    import repro.runtime

    assert isinstance(repro.runtime.aio, types.ModuleType)
    from repro.runtime import run_async

    assert callable(run_async)
    with pytest.raises(AttributeError):
        repro.runtime.no_such_name
    with pytest.raises(ImportError):
        from repro.core import no_such_name  # noqa: F401
