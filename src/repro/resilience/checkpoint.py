"""Atomic solver checkpoints.

A checkpoint is a single ``.npz`` file holding the solver's state
arrays plus one JSON metadata blob (step count, simulation time,
solver tag) stored under the reserved ``__meta__`` entry.  Writes go
through a temp file + ``os.replace`` (the same discipline as the disk
cache), so a checkpoint on disk is always either the complete previous
snapshot or the complete new one -- a crash mid-write can never leave
a half-written file behind for resume to trip over.

:class:`CheckpointManager` is the solver-facing handle: constructed
with a path and a period, it asks the solver for its state only on the
steps it actually persists, so the hot loop pays one modulo per step.
Both :class:`~repro.fdtd.ScalarWaveSimulator` (at construction) and
:meth:`repro.micromag.Simulation.run` accept a manager; both solvers
expose ``state_dict()`` / ``load_state()``, the FDTD one also
``restore_checkpoint()``.  Every snapshot names its geometry
(:func:`geometry_meta`) and loading checks it (:func:`check_geometry`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import CheckpointError

__all__ = [
    "CheckpointManager",
    "check_geometry",
    "geometry_meta",
    "load_checkpoint",
    "save_checkpoint",
]

_META_KEY = "__meta__"

#: ``state_dict`` contract: (arrays, metadata).
StateDict = Tuple[Dict[str, np.ndarray], Dict[str, Any]]


def geometry_meta(mask: np.ndarray) -> Dict[str, Any]:
    """Checkpoint metadata naming a solver's geometry: the cell count
    and a SHA-256 of the mask.  A grid shape alone does not tell two
    geometries on the same grid apart."""
    return {"cells": int(np.count_nonzero(mask)),
            "mask_sha256": hashlib.sha256(
                np.packbits(mask).tobytes()).hexdigest()}


def check_geometry(meta: Dict[str, Any], mask: np.ndarray) -> None:
    """Raise :class:`CheckpointError` unless ``meta`` carries
    :func:`geometry_meta` of ``mask``: a snapshot of another geometry,
    or one that does not name its geometry, must not resume on these
    cells."""
    expected = geometry_meta(mask)
    if any(meta.get(name) != value for name, value in expected.items()):
        raise CheckpointError(
            f"checkpoint geometry ({meta.get('cells')} cells) does not "
            f"match the simulator mask ({expected['cells']} cells)")


def save_checkpoint(path: str, arrays: Dict[str, np.ndarray],
                    meta: Dict[str, Any]) -> None:
    """Atomically persist ``arrays`` + JSON-compatible ``meta``."""
    if _META_KEY in arrays:
        raise ValueError(f"{_META_KEY!r} is reserved for metadata")
    from ..runtime.cache import atomic_write  # lazy: avoids an import cycle

    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                         dtype=np.uint8)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    atomic_write(path, lambda fh: np.savez(
        fh, **dict(arrays, **{_META_KEY: blob})))
    if obs.enabled():
        obs.counter("resilience.checkpoint_saved").inc()
        obs.counter("resilience.checkpoint_bytes").inc(
            os.path.getsize(path))


def load_checkpoint(path: str) -> StateDict:
    """Read a checkpoint; raises :class:`CheckpointError` when the file
    is missing, unreadable or lacks its metadata record."""
    try:
        with np.load(path) as npz:
            if _META_KEY not in npz.files:
                raise CheckpointError(
                    f"checkpoint {path} has no {_META_KEY} record")
            meta = json.loads(bytes(npz[_META_KEY]).decode("utf-8"))
            arrays = {name: npz[name] for name in npz.files
                      if name != _META_KEY}
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: "
            f"{type(exc).__name__}: {exc}") from exc
    if obs.enabled():
        obs.counter("resilience.checkpoint_loaded").inc()
    return arrays, meta


class CheckpointManager:
    """Periodic checkpointing policy bound to one file path.

    Parameters
    ----------
    path:
        Checkpoint file (``.npz``); overwritten atomically each save.
    every_steps:
        Persist every this many solver steps.  The solver calls
        :meth:`maybe_save` each step with a zero-argument state
        provider, which is only invoked on persisting steps.
    """

    def __init__(self, path: str, every_steps: int = 1000):
        if every_steps < 1:
            raise ValueError("checkpoint period must be >= 1 step")
        self.path = str(path)
        self.every_steps = int(every_steps)
        self.saves = 0
        self.last_step: Optional[int] = None

    def maybe_save(self, step: int,
                   state: Callable[[], StateDict]) -> bool:
        """Persist when ``step`` hits the period; returns True on save."""
        if step % self.every_steps:
            return False
        self.save(state, step=step)
        return True

    def save(self, state: Callable[[], StateDict],
             step: Optional[int] = None) -> None:
        arrays, meta = state()
        save_checkpoint(self.path, arrays, meta)
        self.saves += 1
        self.last_step = step if step is not None else meta.get("step")

    def load(self) -> StateDict:
        return load_checkpoint(self.path)

    def exists(self) -> bool:
        return os.path.exists(self.path)
