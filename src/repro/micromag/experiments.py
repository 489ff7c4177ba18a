"""Turnkey micromagnetic experiments validating the solver.

These wrap complete workflows the magnonics community runs in MuMax3
scripts, exposing them as single function calls used by the validation
benches and the examples:

* :func:`extract_dispersion` -- the classic numerical dispersion
  measurement: broadband (sinc) excitation of a long waveguide,
  space-time FFT of the recorded magnetisation, ridge extraction, and
  comparison against the analytic Kalinikos-Slavin branch.  This is
  the strongest single validation of the LLG solver as a MuMax3
  substitute: it exercises exchange, demag, anisotropy, the integrator
  and the probe pipeline at once.
* :func:`run_gate_case` / :func:`sweep_gate_truth_table` -- one gate
  input pattern as a portable, cacheable job, and the full 2^n
  truth-table grid fanned out through the orchestration engine
  (:mod:`repro.runtime`).  This is exactly how the paper validates its
  gates: one independent MuMax3 run per input combination (Tables
  I-II).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..defaults import GATE_ARITY, TIER_LADDERS, TIERS
from ..physics.dispersion import DispersionRelation, FilmStack
from ..physics.materials import Material
from ..runtime.executor import Executor
from ..runtime.spec import JobSpec
from .analysis import DispersionMap, space_time_fft
from .excitation import Envelope, ExcitationSource
from .geometry import rectangle
from .mesh import Mesh
from .sim import Simulation


class SincSource(ExcitationSource):
    """Broadband sinc-pulse source: flat spectrum up to a cutoff.

    ``h(t) = A sinc(2 f_max (t - t0))`` excites all frequencies below
    ``f_max`` with equal weight -- the standard drive for dispersion
    extraction runs.
    """

    def __init__(self, region, amplitude: float, f_max: float,
                 t0: float = 0.5e-9,
                 direction: Tuple[float, float, float] = (1.0, 0.0, 0.0)):
        if f_max <= 0:
            raise ValueError("cutoff frequency must be positive")
        super().__init__(region=region, amplitude=amplitude,
                         frequency=f_max, direction=direction)
        self.f_max = f_max
        self.t0 = t0

    def waveform(self, t: float) -> float:
        """sinc envelope (overrides the CW waveform)."""
        x = 2.0 * self.f_max * (t - self.t0)
        if x == 0.0:
            return self.amplitude
        return self.amplitude * math.sin(math.pi * x) / (math.pi * x)


@dataclass
class DispersionExperiment:
    """Result of a numerical dispersion extraction."""

    dispersion_map: DispersionMap
    k_values: np.ndarray        # ridge wavenumbers [rad/m]
    f_measured: np.ndarray      # ridge frequencies [Hz]
    f_analytic: np.ndarray      # Kalinikos-Slavin at the same k
    relative_error: np.ndarray

    @property
    def max_relative_error(self) -> float:
        return float(np.max(np.abs(self.relative_error)))

    @property
    def mean_relative_error(self) -> float:
        return float(np.mean(np.abs(self.relative_error)))


#: Samples per :meth:`Simulation.run` call in :func:`extract_dispersion`.
_SNAPSHOTS_PER_RUN = 256


def extract_dispersion(material: Material,
                       thickness: float = 1e-9,
                       length: float = 2e-6,
                       cell: float = 5e-9,
                       f_max: float = 40e9,
                       duration: float = 4e-9,
                       dt: float = 2.5e-14,
                       sample_every: int = 8,
                       amplitude: float = 5e3,
                       k_band: Tuple[float, float] = (3e7, 3e8),
                       demag: str = "thin_film",
                       rng: Optional[np.random.Generator] = None
                       ) -> DispersionExperiment:
    """Measure the FVSW dispersion of a waveguide with the LLG solver.

    A narrow line antenna at the waveguide centre is driven with a
    broadband sinc pulse; m_x(t, x) is recorded along the guide and
    2-D-FFT'd; the spectral ridge is compared with the analytic
    dispersion on the wavenumber band ``k_band``.

    Returns
    -------
    DispersionExperiment
        Including per-k relative frequency errors.
    """
    nx = int(round(length / cell))
    mesh = Mesh(cell_size=(cell, cell, thickness), shape=(nx, 4, 1))
    sim = Simulation(mesh, material, demag=demag,
                     absorber_width=0.15 * length, absorber_axes=(0,),
                     rng=rng)
    sim.initialize((0, 0, 1))
    centre = length / 2.0
    sim.add_source(SincSource(
        region=rectangle(centre - cell, 0.0, centre + cell, 4 * cell),
        amplitude=amplitude, f_max=f_max))

    # m_x along the centre row every ``sample_every`` steps, from
    # snapshots of runs of at most _SNAPSHOTS_PER_RUN samples each, so
    # only that many canvases are alive at once.
    n_samples = int(round(duration / dt)) // sample_every
    signal = np.empty((n_samples, nx))
    interval = sample_every * dt
    for first in range(0, n_samples, _SNAPSHOTS_PER_RUN):
        count = min(_SNAPSHOTS_PER_RUN, n_samples - first)
        times = [sim.t + (j + 1) * interval for j in range(count)]
        snapshots = sim.run(duration=count * interval, dt=dt,
                            snapshot_times=times)["snapshots"]
        for j, when in enumerate(times):
            signal[first + j] = snapshots[when][0, 0, 2, :]

    dmap = space_time_fft(signal, dx=cell, dt=interval)
    ks, fs = dmap.ridge(k_min=k_band[0])
    keep = (ks >= k_band[0]) & (ks <= k_band[1])
    ks, fs = ks[keep], fs[keep]

    film = FilmStack(material=material, thickness=thickness)
    analytic = np.asarray(DispersionRelation(film).frequency(ks))
    # Drop ridge points beyond the excited band: the sinc source puts
    # no energy above f_max, so the ridge is noise there.
    excited = analytic < 0.8 * f_max
    ks, fs, analytic = ks[excited], fs[excited], analytic[excited]
    error = (fs - analytic) / analytic
    return DispersionExperiment(dispersion_map=dmap, k_values=ks,
                                f_measured=fs, f_analytic=analytic,
                                relative_error=error)


# -- truth-table sweeps through the orchestration engine --------------------

#: Characterization axes only the surrogate tier models.  The physical
#: tiers refuse nonzero values; a surrogate request that falls back to
#: the network tier drops them and gets the nominal case.
SURROGATE_ONLY_KNOBS = ("phase_noise", "geometry_jitter")

_INTEGER = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)


def _finite(value: Any, kinds: Tuple[type, ...] = _REAL) -> bool:
    """A number of ``kinds`` (never a bool) that is finite as a float."""
    try:
        return (isinstance(value, kinds) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


#: The case parameters beyond gate/bits/tier: the test each value must
#: pass and how the refusal describes it.
_CASE_CHECKS = {
    "calibrated": (lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
    "frequency": (lambda v: v is None or _finite(v) and v > 0,
                  "null or a finite positive number"),
    "n_d1": (lambda v: _finite(v, _INTEGER) and v > 0,
             "a positive integer"),
    "cells_per_wavelength": (lambda v: _finite(v, _INTEGER) and v > 0,
                             "a positive integer"),
    "temperature": (lambda v: _finite(v) and v >= 0,
                    "a finite non-negative number"),
    "seed": (lambda v: v is None or _finite(v, _INTEGER),
             "null or an integer"),
    "phase_noise": (lambda v: _finite(v) and v >= 0,
                    "a finite non-negative number"),
    "geometry_jitter": (lambda v: _finite(v) and v >= 0,
                        "a finite non-negative number"),
}
CASE_PARAMS = tuple(_CASE_CHECKS)
_CASE_NAMES = frozenset(("gate", "bits", "tier") + CASE_PARAMS)


def gate_arity(gate: Any) -> int:
    """The number of inputs of ``gate``; ``ValueError`` if unknown."""
    if not isinstance(gate, str) or gate not in GATE_ARITY:
        raise ValueError(f"unknown gate {gate!r}; choose from "
                         f"{sorted(GATE_ARITY)}")
    return GATE_ARITY[gate]


def check_gate_case(case: Mapping[str, Any]) -> int:
    """Validate one gate case; return the gate's arity.

    The contract every front door shares (:func:`run_gate_case`,
    :func:`sweep_gate_truth_table`, ``POST /v1/gate`` and
    ``/v1/sweep``).  ``case`` maps :func:`run_gate_case` parameter
    names to values: ``gate`` is required, ``tier`` defaults to
    ``"network"``, ``bits`` (when present) must be the gate's arity of
    0/1 values, and each of :data:`CASE_PARAMS` must pass its type and
    range check.  The :data:`SURROGATE_ONLY_KNOBS` must be zero off the
    surrogate tier.  Values are checked, never rewritten; the first
    violation raises ``ValueError``.
    """
    unknown = case.keys() - _CASE_NAMES
    if unknown:
        raise ValueError(f"unknown parameter(s): {sorted(unknown, key=str)}")
    gate = case.get("gate")
    arity = gate_arity(gate)
    tier = case.get("tier", "network")
    if not isinstance(tier, str) or tier not in TIER_LADDERS:
        raise ValueError(f"unknown tier {tier!r}; choose from {list(TIERS)}")
    if "bits" in case:
        bits = case["bits"]
        if (not isinstance(bits, (list, tuple, np.ndarray))
                or len(bits) != arity
                or any(b not in (0, 1) for b in bits)):
            raise ValueError(f"bits must be {arity} values of 0/1 for "
                             f"{gate}, got {bits!r}")
    for name, value in case.items():
        check = _CASE_CHECKS.get(name)
        if check is not None and not check[0](value):
            raise ValueError(f"{name} must be {check[1]}, got {value!r}")
    if tier != "surrogate" and any(case.get(name)
                                   for name in SURROGATE_ONLY_KNOBS):
        raise ValueError(f"{list(SURROGATE_ONLY_KNOBS)} are "
                         "characterization axes of the surrogate tier; "
                         "the physical tiers do not model them")
    return arity


def run_gate_case(gate: str, bits: Sequence[int], tier: str = "network",
                  calibrated: bool = False,
                  frequency: Optional[float] = None,
                  n_d1: int = 2, cells_per_wavelength: int = 10,
                  temperature: float = 0.0,
                  seed: Optional[int] = None,
                  phase_noise: float = 0.0,
                  geometry_jitter: float = 0.0,
                  remediate: bool = True) -> Dict[str, Any]:
    """Evaluate ONE input pattern of a triangle gate -- as a job.

    This is the unit of work the paper's validation grid is made of
    (one MuMax3 run per input combination).  It is module-level, takes
    only JSON-canonicalisable parameters and returns a JSON-shaped
    dict, so :class:`repro.runtime.JobSpec` can ship it to worker
    processes and cache the result content-addressed.

    Parameters
    ----------
    gate:
        ``"maj3"`` or ``"xor"``.
    bits:
        The input pattern (3 bits for MAJ3, 2 for XOR).
    tier:
        ``"surrogate"`` (fitted characterization lookup, microseconds),
        ``"network"`` (analytic, instantaneous), ``"fdtd"`` (rasterised
        wave solver, seconds) or ``"llg"`` (scaled micromagnetics,
        minutes).
    calibrated:
        Network tier only: use the damping-calibrated arrival model
        that reproduces Table I exactly.
    frequency / n_d1 / cells_per_wavelength:
        LLG tier scaling knobs (see :func:`scaled_maj3_experiment`);
        ``frequency`` defaults to 28 GHz there and to the gates' 10 GHz
        paper point elsewhere.
    temperature:
        LLG tier only: finite temperature [K] for the stochastic
        thermal field.
    seed:
        RNG seed for thermal noise.  Defaults to a seed derived
        deterministically from the job's identifying parameters
        (:func:`repro.micromag.fields.thermal.seed_from_key`), so
        cached thermal runs reproduce bit-exact across processes.
    phase_noise / geometry_jitter:
        Surrogate tier only: input phase jitter sigma [rad] and
        relative fabrication length error -- characterization axes the
        fitted model interpolates over.  The physical tiers model
        neither knob, so nonzero values there raise ``ValueError``
        (and a surrogate fallback answers the *nominal* case).
    remediate:
        Degradation policy (default True): an LLG run that trips its
        magnetisation watchdog is retried with a halved dt (bounded by
        :class:`~repro.resilience.RemediationPolicy`), and a tier
        whose retry budget is exhausted degrades down its ladder
        (llg -> fdtd -> network; surrogate -> network -> fdtd),
        recording ``degraded_from`` (the requested tier) and
        ``degradation_path`` (every rung walked) in the result.  The
        surrogate rung additionally degrades on
        :class:`~repro.errors.SurrogateDomainError` -- an accuracy
        guardrail miss is handled exactly like a numerical failure --
        and the two instant rungs degrade on injected faults
        (chaos drills).  ``remediate=False`` lets the error propagate.
        The default is deliberately not part of sweep cache keys.

    Returns
    -------
    dict
        ``{"gate", "tier", "bits", "outputs": {name: {"logic",
        "amplitude", "phase", "margin"}}, "normalized": [...],
        "expected", "correct", "fanout_matched"}``, plus
        ``"degraded_from"`` / ``"dt_halvings"`` when remediation acted.
    """
    from ..core.logic import majority, xor as xor_fn

    check_gate_case({
        "gate": gate, "bits": bits, "tier": tier, "calibrated": calibrated,
        "frequency": frequency, "n_d1": n_d1,
        "cells_per_wavelength": cells_per_wavelength,
        "temperature": temperature, "seed": seed,
        "phase_noise": phase_noise, "geometry_jitter": geometry_jitter})
    bits = tuple(int(b) for b in bits)
    expected = majority(*bits) if gate == "maj3" else xor_fn(*bits)

    from ..errors import (
        FaultInjected,
        NumericalDivergenceError,
        SurrogateDomainError,
    )
    from ..resilience.guardrails import run_with_dt_remediation

    with obs.span("gate_case", gate=gate, tier=tier,
                  bits="".join(map(str, bits))):
        ladder = TIER_LADDERS[tier]
        rung = 0
        failed: Dict[str, Exception] = {}  # tier -> why it failed
        while True:
            attempt_tier = ladder[rung]
            try:
                case = _evaluate_tier(gate, bits, expected, attempt_tier,
                                      calibrated, frequency, n_d1,
                                      cells_per_wavelength, temperature,
                                      seed, phase_noise, geometry_jitter,
                                      remediate, run_with_dt_remediation)
                break
            except (NumericalDivergenceError, SurrogateDomainError,
                    FaultInjected) as exc:
                # The physical rungs (fdtd/llg) only degrade on genuine
                # numerical divergence -- an injected fault there is
                # meant to propagate, as it always has.  The instant
                # rungs (surrogate/network) degrade on anything
                # handled, including chaos-drill faults and surrogate
                # domain misses.
                degradable = (isinstance(exc, NumericalDivergenceError)
                              or attempt_tier in ("surrogate", "network"))
                if (not remediate or not degradable
                        or rung + 1 >= len(ladder)):
                    raise
                failed[attempt_tier] = exc
                rung += 1
        if failed:
            _mark_degraded(case, [*failed, attempt_tier], gate, bits,
                           next(iter(failed.values())))
        return case


def _mark_degraded(case: Dict[str, Any], path: Sequence[str], gate: str,
                   bits: Tuple[int, ...], reason: Any) -> Dict[str, Any]:
    """Record that ``case`` was answered down the degradation ladder
    ``path`` (requested tier first) because of ``reason``: the
    ``degraded_from``/``degradation_path`` fields, the
    ``resilience.degraded`` counter and a warning."""
    obs.get_logger("micromag.experiments").warning(
        "%s tier failed for %s %s (%s); degraded to %s",
        path[0], gate, tuple(bits), reason, path[-1])
    if obs.enabled():
        obs.counter("resilience.degraded").inc()
    case["degraded_from"] = path[0]
    case["degradation_path"] = list(path)
    return case


def _evaluate_tier(gate: str, bits: Tuple[int, ...], expected: int,
                   tier: str, calibrated: bool, frequency: Optional[float],
                   n_d1: int, cells_per_wavelength: int, temperature: float,
                   seed: Optional[int], phase_noise: float,
                   geometry_jitter: float, remediate: bool,
                   run_with_dt_remediation: Any) -> Dict[str, Any]:
    """One tier of the degradation ladder, with LLG dt remediation."""
    if tier == "surrogate":
        from ..surrogate.tier import evaluate_surrogate, query_point

        return evaluate_surrogate(
            gate, bits, query_point(phase_noise=phase_noise,
                                    frequency=frequency,
                                    geometry_jitter=geometry_jitter,
                                    temperature=temperature))
    if tier in ("network", "fdtd"):
        return _evaluate_model_tier(gate, bits, tier, calibrated, frequency)

    def run(dt: Optional[float]) -> Dict[str, Any]:
        return _evaluate_llg_tier(gate, bits, expected,
                                  frequency or 28e9, n_d1,
                                  cells_per_wavelength, temperature, seed,
                                  dt=dt)

    if not remediate:
        return run(None)
    from .gate_experiment import LlgGateExperiment

    base_dt = LlgGateExperiment.dt  # dataclass field default
    case, dt_used, halvings = run_with_dt_remediation(run, base_dt)
    if halvings:
        case["dt_halvings"] = halvings
        case["dt"] = dt_used
    return case


def _model_gate(gate: str, calibrated: bool, frequency: Optional[float]):
    """The gate instance the network/FDTD tiers evaluate."""
    from ..core.gates import (
        TriangleMajorityGate,
        TriangleXorGate,
        paper_table_i_gate,
    )

    kwargs = {} if frequency is None else {"frequency": frequency}
    if gate == "maj3":
        return paper_table_i_gate() if calibrated and not kwargs \
            else TriangleMajorityGate(**kwargs)
    return TriangleXorGate(**kwargs)


def _evaluate_model_tier(gate: str, bits: Tuple[int, ...], tier: str,
                         calibrated: bool, frequency: Optional[float],
                         instance: Any = None) -> Dict[str, Any]:
    """Network/FDTD evaluation plus the Table I/II normalisation, as a
    case in the shape :func:`run_gate_case` returns.  ``instance`` is a
    gate whose FDTD basis is already seeded; without one, a fresh gate
    is built behind the ``{tier}.evaluate`` fault site."""
    if instance is None:
        from ..resilience import faults

        faults.trip(f"{tier}.evaluate")
        instance = _model_gate(gate, calibrated, frequency)
    result = instance.evaluate(bits, backend=tier)
    if (gate == "maj3" and instance.calibration is not None
            and tier == "network"):
        result.normalized = dict.fromkeys(
            result.outputs, instance.calibration.normalized_output(bits))
    return {"gate": gate, "tier": tier, "bits": list(bits),
            **result.record()}


def run_fdtd_basis(gate: str, input_name: str,
                   frequency: Optional[float] = None,
                   remediate: bool = True) -> Dict[str, Any]:
    """ONE FDTD basis solve as a job, the unit FDTD sweeps compose
    every pattern from: input ``input_name`` driven alone at phase 0,
    behind the ``fdtd.evaluate`` fault site.  Returns ``{"gate",
    "input", "envelopes": {output: [re, im]}}`` (no field map).  When
    the field watchdog trips it returns ``"diverged": {"step", "t",
    "reason"}`` in place of ``envelopes`` or, with ``remediate=False``,
    raises :class:`~repro.errors.NumericalDivergenceError` (the job
    fails and is not cached)."""
    from ..errors import NumericalDivergenceError
    from ..resilience import faults

    faults.trip("fdtd.evaluate")
    instance = _model_gate(gate, False, frequency)
    try:
        envelopes = instance.solve_basis(names=[input_name])[input_name]
    except NumericalDivergenceError as exc:
        if not remediate:
            raise
        return {"gate": gate, "input": input_name,
                "diverged": {"step": exc.step, "t": exc.t,
                             "reason": exc.reason}}
    return {"gate": gate, "input": input_name,
            "envelopes": {name: [env.real, env.imag]
                          for name, env in envelopes.items()}}


def _compose_fdtd_cases(gate: str, instance: Any, result: Any,
                        calibrated: bool, frequency: Optional[float]
                        ) -> Dict[Tuple[int, ...], Dict[str, Any]]:
    """Every pattern's case from the basis jobs' results, in-process.

    A diverged basis job answers every pattern from the network rung,
    so one table never mixes tiers; a failed job leaves the table
    empty.
    """
    from ..core.logic import input_patterns

    values = [outcome.value for outcome in result if outcome.ok]
    if len(values) < len(result):
        return {}
    diverged = [value["diverged"] for value in values if "diverged" in value]
    patterns = input_patterns(GATE_ARITY[gate])
    if diverged:
        return {bits: _mark_degraded(
                    _evaluate_model_tier(gate, bits, "network", calibrated,
                                         frequency),
                    ["fdtd", "network"], gate, bits,
                    f"diverged: {diverged[0]['reason']}")
                for bits in patterns}
    for value in values:
        instance.seed_basis(value["input"], {
            name: complex(*re_im)
            for name, re_im in value["envelopes"].items()})
    return {bits: _evaluate_model_tier(gate, bits, "fdtd", calibrated,
                                       frequency, instance)
            for bits in patterns}


def _evaluate_llg_tier(gate: str, bits: Tuple[int, ...], expected: int,
                       frequency: float, n_d1: int,
                       cells_per_wavelength: int, temperature: float,
                       seed: Optional[int],
                       dt: Optional[float] = None) -> Dict[str, Any]:
    """Scaled micromagnetic evaluation of one pattern.

    Runs the pattern *and* the all-zeros reference (the paper's
    "predefined phase" / unanimous normalisation), then decodes with
    the same detectors as the model tiers.  A
    :class:`~repro.resilience.MagnetisationWatchdog` rides along both
    runs; ``dt`` overrides the experiment's integrator step (the
    dt-halving remediation knob).
    """
    from ..core.detection import (
        GATE_READOUTS,
        GateResult,
        decode,
        normalized_levels,
    )
    from ..resilience.guardrails import MagnetisationWatchdog
    from .fields.thermal import seed_from_key
    from .gate_experiment import scaled_maj3_experiment, scaled_xor_experiment

    if seed is None and temperature > 0:
        seed = seed_from_key(
            f"llg:{gate}:{''.join(map(str, bits))}"
            f":f={frequency!r}:T={temperature!r}")

    def build():
        factory = scaled_maj3_experiment if gate == "maj3" \
            else scaled_xor_experiment
        experiment = factory(frequency=frequency, n_d1=n_d1,
                             cells_per_wavelength=cells_per_wavelength)
        experiment.temperature = temperature
        if dt is not None:
            experiment.dt = dt
        if seed is not None:
            experiment.rng = np.random.default_rng(seed)
        return experiment

    reference = build().run_case(
        (0,) * len(bits), watchdog=MagnetisationWatchdog())
    case = build().run_case(bits, watchdog=MagnetisationWatchdog())

    names = sorted(case.amplitudes)
    envelopes, references = (
        {name: cmath.rect(run.amplitudes[name], run.phases[name])
         for name in names} for run in (case, reference))
    result = GateResult(
        inputs={f"I{i + 1}": bit for i, bit in enumerate(bits)},
        outputs=decode(GATE_READOUTS[gate], envelopes, references,
                       frequency),
        expected=expected, backend="llg",
        normalized=normalized_levels(envelopes, references))
    return {"gate": gate, "tier": "llg", "bits": list(bits),
            **result.record()}


@dataclass
class GateSweep:
    """All 2^n patterns of one gate, evaluated through the engine."""

    gate: str
    tier: str
    cases: "Dict[Tuple[int, ...], Dict[str, Any]]"
    report: Any  # RunReport

    @property
    def logic_table(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """pattern -> decoded output bits (O1, O2)."""
        return {bits: tuple(case["outputs"][name]["logic"]
                            for name in sorted(case["outputs"]))
                for bits, case in self.cases.items()}

    @property
    def normalized_table(self) -> Dict[Tuple[int, ...], Tuple[float, ...]]:
        """pattern -> Table I/II normalised output amplitudes."""
        return {bits: tuple(case["normalized"])
                for bits, case in self.cases.items()}

    @property
    def all_correct(self) -> bool:
        return all(case["correct"] for case in self.cases.values())

    def format_table(self) -> str:
        """The paper-style truth table (rows ordered I_n..I_1)."""
        from ..io.tables import format_truth_table

        n = GATE_ARITY[self.gate]
        patterns = sorted(self.cases,
                          key=lambda b: tuple(reversed(b)))
        rows = []
        for bits in patterns:
            case = self.cases[bits]
            rows.append([str(case["outputs"][name]["logic"])
                         for name in sorted(case["outputs"])]
                        + [f"{value:.3f}" for value in case["normalized"]]
                        + ["yes" if case["correct"] else "NO"])
        names = sorted(next(iter(self.cases.values()))["outputs"])
        return format_truth_table(
            [tuple(reversed(b)) for b in patterns],
            [f"{n} (logic)" for n in names]
            + [f"{n} (norm)" for n in names] + ["correct"],
            rows, [f"I{i}" for i in range(n, 0, -1)],
            title=f"{self.gate.upper()} FO2 truth-table sweep "
                  f"({self.tier} tier)")


def sweep_gate_truth_table(gate: str = "maj3", tier: str = "network",
                           calibrated: Optional[bool] = None,
                           executor: Optional[Any] = None,
                           workers: Optional[int] = None,
                           cache: Optional[Any] = None,
                           raise_on_failure: bool = True,
                           **case_kwargs: Any) -> GateSweep:
    """Evaluate every input combination of a gate through the engine.

    Builds one :class:`repro.runtime.JobSpec` per input pattern (8 for
    MAJ3, 4 for XOR) on :func:`run_gate_case` and submits the batch to
    an :class:`repro.runtime.Executor` -- parallel across patterns,
    content-addressed-cached across invocations.

    The FDTD tier is linear, so there the jobs are one
    :func:`run_fdtd_basis` solve per *input* (3 for MAJ3, 2 for XOR);
    every pattern is composed from them and decoded in-process as
    :func:`run_gate_case` would (docs/PHYSICS.md section 6).  Of the
    case parameters only ``frequency`` and ``remediate`` apply there
    (the LLG knobs are ignored, as by the FDTD rung of
    :func:`run_gate_case`).  A diverged basis job degrades the whole
    table to network; with ``remediate=False`` it fails its job.

    Parameters
    ----------
    gate / tier:
        As for :func:`run_gate_case`.
    calibrated:
        Defaults to True on the network tier (reproducing the paper's
        Table I numbers) and False elsewhere.
    executor:
        A preconfigured :class:`repro.runtime.Executor`; when omitted
        one is built from ``workers`` and ``cache``.
    raise_on_failure:
        Raise :class:`repro.runtime.JobFailed` if any pattern failed
        after retries (default); otherwise failed patterns are simply
        missing from :attr:`GateSweep.cases`.
    **case_kwargs:
        Extra :func:`run_gate_case` parameters (``frequency``,
        ``temperature``, ``n_d1``...), becoming part of the cache key.
        The case is checked by :func:`check_gate_case` before any job
        runs, on every tier.
    """
    from ..core.logic import input_patterns

    if calibrated is None:
        calibrated = tier == "network"
    case = {"gate": gate, "tier": tier, "calibrated": calibrated,
            **case_kwargs}
    case.pop("remediate", None)  # execution policy, not part of the case
    arity = check_gate_case(case)
    if executor is None:
        executor = Executor(workers=workers, cache=cache)

    frequency = case_kwargs.get("frequency")
    if tier == "fdtd":
        instance = _model_gate(gate, calibrated, frequency)
        basis_params = {"frequency": frequency}
        if not case_kwargs.get("remediate", True):
            basis_params["remediate"] = False
        specs = [JobSpec(
            fn="repro.micromag.experiments:run_fdtd_basis",
            params={"gate": gate, "input_name": name, **basis_params},
            label=f"{gate}:{name}@fdtd") for name in instance.input_names]
    else:
        specs = []
        for bits in input_patterns(arity):
            params = {"gate": gate, "bits": list(bits), "tier": tier,
                      "calibrated": calibrated}
            params.update(case_kwargs)
            specs.append(JobSpec(
                fn="repro.micromag.experiments:run_gate_case",
                params=params,
                label=f"{gate}:{''.join(map(str, bits))}@{tier}"))
    with obs.span("sweep", gate=gate, tier=tier, n_jobs=len(specs)):
        result = executor.run(specs)
    if raise_on_failure:
        result.raise_on_failure()
    for outcome in result:
        # Surface graceful tier degradation in the RunReport telemetry.
        if outcome.ok and ("diverged" in outcome.value
                           or outcome.value.get("degraded_from")):
            note = f"degraded_from={tier}"
            outcome.record.notes = (f"{outcome.record.notes}; {note}"
                                    if outcome.record.notes else note)
    if tier == "fdtd":
        cases = _compose_fdtd_cases(gate, instance, result, calibrated,
                                    frequency)
    else:
        cases = {tuple(outcome.value["bits"]): outcome.value
                 for outcome in result if outcome.ok}
    return GateSweep(gate=gate, tier=tier, cases=cases,
                     report=result.report)
