"""repro.surrogate: characterization store + instant surrogate tier.

The OpenRAM-style characterize-then-lookup flow over the triangle FO2
gates:

1. **Characterize** (:mod:`repro.surrogate.store`,
   :mod:`repro.surrogate.jobs`) -- sweep the ablation axes (phase
   noise, frequency detuning, geometry jitter, temperature) through
   the runtime engine into a versioned, content-addressed on-disk
   dataset with a manifest and incremental append.
2. **Fit** (:mod:`repro.surrogate.model`) -- pure-NumPy multilinear
   (grid) or Gaussian-RBF/ridge (scattered) interpolation over the
   per-pattern output envelopes, margins and truth-table error rate,
   with ``save``/``load`` round-trip to a single ``.npz``.
3. **Query** (:mod:`repro.surrogate.tier`) -- microsecond gate-case
   answers guarded by grid-bounds and leave-one-out-residual checks;
   domain misses raise :class:`repro.errors.SurrogateDomainError` and
   the degradation ladder re-answers from the network tier with
   ``degraded_from="surrogate"`` recorded.

Quickstart
----------
>>> from repro.surrogate import (CharacterizationStore, characterize,
...                              fit_surrogate, register)
>>> store = CharacterizationStore("/tmp/char")      # doctest: +SKIP
>>> ds = store.dataset("maj3")                      # doctest: +SKIP
>>> records = characterize(ds)                      # doctest: +SKIP
>>> model = fit_surrogate(records.values())         # doctest: +SKIP
>>> model.save(store.model_path("maj3"))            # doctest: +SKIP
>>> register(model)                                 # doctest: +SKIP
>>> # run_gate_case(..., tier="surrogate") now answers in microseconds

See ``docs/SURROGATE.md``.
"""

from .._lazy import lazy_exports

lazy_exports(__name__, {
    "..errors": ("SurrogateDomainError",),
    ".jobs": (
        "AXIS_NAMES", "build_gate", "characterize_point", "thermal_phase_sigma",
    ),
    ".model": (
        "MultilinearSurrogate", "RbfSurrogate", "fit_surrogate", "load_model",
        "response_names", "response_vector",
    ),
    ".store": (
        "DEFAULT_AXES", "DEFAULT_ROOT", "AxisSpec", "CharacterizationDataset",
        "CharacterizationStore", "characterize", "dataset_id", "point_key",
    ),
    ".tier": (
        "clear_registry", "evaluate_surrogate", "get_model", "model_path",
        "query_point", "register", "surrogate_root",
    ),
})

__all__ = [
    "AXIS_NAMES",
    "AxisSpec",
    "CharacterizationDataset",
    "CharacterizationStore",
    "DEFAULT_AXES",
    "DEFAULT_ROOT",
    "MultilinearSurrogate",
    "RbfSurrogate",
    "SurrogateDomainError",
    "build_gate",
    "characterize",
    "characterize_point",
    "clear_registry",
    "dataset_id",
    "evaluate_surrogate",
    "fit_surrogate",
    "get_model",
    "load_model",
    "model_path",
    "point_key",
    "query_point",
    "register",
    "response_names",
    "response_vector",
    "surrogate_root",
    "thermal_phase_sigma",
]
