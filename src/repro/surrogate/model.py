"""Pure-NumPy interpolating surrogates over characterization records.

Two model kinds, one interface:

* :class:`MultilinearSurrogate` -- RegularGridInterpolator-style
  multilinear interpolation on the full axis grid.  Queries cost a few
  microseconds (bisect per axis + a 2^d-corner weighted sum), which is
  what makes the surrogate an "instant" tier.
* :class:`RbfSurrogate` -- Gaussian radial-basis ridge regression for
  scattered (non-grid) records, with exact leave-one-out residuals via
  the ridge hat matrix.

Responses interpolated per record: the complex output envelope per
(pattern, output) as re/im components (no phase-wrap artefacts -- the
phase is reconstructed with atan2 at query time), the decision margin,
and the dataset-level truth-table ``error_rate`` / ``min_margin``.

Accuracy guardrails (:class:`repro.errors.SurrogateDomainError`):

* **bounds** -- the query point leaves the characterized axis ranges
  (grid bounding box; the convex hull of a full grid);
* **residual** -- the fit's leave-one-out residual around the query
  exceeds ``residual_threshold``.  For the multilinear fit the LOO
  residual at a grid sample is the interpolation from its axis
  neighbours with the sample removed (exact for this model class,
  computed per grid point at fit time); for the RBF fit it is the
  ridge-regression LOO error per center;
* **sparse** (RBF only) -- no characterized sample lies near the
  query, so the kernel sum would extrapolate through a data hole.

``save``/``load`` round-trip through a single ``.npz`` written
atomically.
"""

from __future__ import annotations

import bisect
import json
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .. import obs
from ..core.detection import (
    GATE_READOUTS,
    DetectionResult,
    GateResult,
    decode,
    normalized_levels,
)
from ..core.logic import majority, xor as xor_fn
from ..errors import SurrogateDomainError
from ..runtime.cache import atomic_write
from .jobs import AXIS_NAMES

#: Responses appended after the per-(pattern, output) triples.
_SCALAR_RESPONSES = ("error_rate", "min_margin")

#: Relative slack on the grid bounds check: queries numerically *on*
#: the boundary must not be rejected.
_BOUNDS_RTOL = 1e-9


def response_names(record: Mapping[str, Any]) -> List[str]:
    """Deterministic response layout of one characterization record."""
    names = []
    for pattern in sorted(record["patterns"]):
        row = record["patterns"][pattern]
        for output in sorted(k for k in row if k != "correct"):
            for quantity in ("re", "im", "margin"):
                names.append(f"{pattern}.{output}.{quantity}")
    names.extend(_SCALAR_RESPONSES)
    return names


def response_vector(record: Mapping[str, Any],
                    names: Sequence[str]) -> np.ndarray:
    """Flatten one record into the response vector."""
    vector = np.empty(len(names))
    for i, name in enumerate(names):
        if name in _SCALAR_RESPONSES:
            vector[i] = float(record[name])
            continue
        pattern, output, quantity = name.split(".")
        vector[i] = float(record["patterns"][pattern][output][quantity])
    return vector


class _SurrogateBase:
    """Shared query-side surface of both model kinds."""

    kind = "base"

    def __init__(self, gate: str, tier: str, axis_names: Sequence[str],
                 resp_names: Sequence[str],
                 residual_threshold: float,
                 meta: Optional[Dict[str, Any]] = None):
        self.gate = gate
        self.tier = tier
        self.axis_names = list(axis_names)
        self.response_names = list(resp_names)
        self.residual_threshold = float(residual_threshold)
        self.meta: Dict[str, Any] = dict(meta or {})
        self._index = {name: i for i, name in enumerate(self.response_names)}
        self._build_case_slots()

    # -- decoding -----------------------------------------------------------

    def _build_case_slots(self) -> None:
        """Precompute response indices per (pattern, output) so the hot
        :meth:`query_case` path does no string work."""
        patterns: Dict[str, List[str]] = {}
        for name in self.response_names:
            if name in _SCALAR_RESPONSES:
                continue
            pattern, output, _ = name.split(".")
            outputs = patterns.setdefault(pattern, [])
            if output not in outputs:
                outputs.append(output)
        self._arity = len(next(iter(patterns))) if patterns else 0
        zeros_key = "0" * self._arity
        idx = self._index
        self._case_slots: Dict[str, List[tuple]] = {}
        for pattern, outputs in patterns.items():
            slots = []
            for output in sorted(outputs):
                slots.append((
                    output,
                    idx[f"{pattern}.{output}.re"],
                    idx[f"{pattern}.{output}.im"],
                    idx[f"{pattern}.{output}.margin"],
                    idx[f"{zeros_key}.{output}.re"],
                    idx[f"{zeros_key}.{output}.im"],
                ))
            self._case_slots[pattern] = slots
        self._error_rate_idx = idx["error_rate"]
        self._min_margin_idx = idx["min_margin"]

    def query(self, point: Mapping[str, float]) -> np.ndarray:
        raise NotImplementedError

    def query_responses(self, point: Mapping[str, float]
                        ) -> Dict[str, float]:
        """Named response values at a point (diagnostics-friendly)."""
        vector = self.query(point)
        return {name: float(vector[i])
                for i, name in enumerate(self.response_names)}

    def query_case(self, bits: Sequence[int],
                   point: Optional[Mapping[str, float]] = None
                   ) -> Dict[str, Any]:
        """Answer one gate case in :func:`run_gate_case`'s result shape.

        The logic value is re-decoded from the interpolated envelope
        against the interpolated all-zeros reference -- the same
        detection semantics as the real tiers, so a surrogate answer
        and a network answer agree wherever the fit is faithful.
        """
        key = "".join(str(int(b)) for b in bits)
        slots = self._case_slots.get(key)
        if slots is None:
            raise ValueError(f"pattern {key!r} is not part of the "
                             f"characterized truth table of {self.gate}")
        vector = self.query(point or {}).tolist()
        envelopes, references, margins = {}, {}, {}
        for name, i_re, i_im, i_margin, i_zre, i_zim in slots:
            envelopes[name] = complex(vector[i_re], vector[i_im])
            references[name] = complex(vector[i_zre], vector[i_zim])
            margins[name] = vector[i_margin]
        # Each output keeps its interpolated margin, not one recomputed
        # from the interpolated envelopes.
        outputs = {name: DetectionResult(r.logic_value, r.amplitude, r.phase,
                                         margins[name])
                   for name, r in decode(GATE_READOUTS[self.gate],
                                         envelopes, references).items()}
        bits = [int(b) for b in bits]
        result = GateResult(
            inputs={f"I{i + 1}": bit for i, bit in enumerate(bits)},
            outputs=outputs,
            expected=(majority if self.gate == "maj3" else xor_fn)(*bits),
            backend="surrogate",
            normalized=normalized_levels(envelopes, references))
        return {
            "gate": self.gate, "tier": "surrogate", "bits": bits,
            **result.record(),
            "surrogate": {
                "source_tier": self.tier,
                "dataset": self.meta.get("dataset_id"),
                "error_rate": vector[self._error_rate_idx],
                "min_margin": vector[self._min_margin_idx],
            },
        }

    # -- persistence --------------------------------------------------------

    def _meta_payload(self) -> Dict[str, Any]:
        return {"kind": self.kind, "gate": self.gate, "tier": self.tier,
                "axis_names": self.axis_names,
                "response_names": self.response_names,
                "residual_threshold": self.residual_threshold,
                "meta": self.meta}

    def _arrays(self) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def save(self, path: str) -> None:
        """Atomic single-file ``.npz`` snapshot of the fitted model."""
        arrays = dict(self._arrays())
        arrays["meta"] = np.asarray(json.dumps(self._meta_payload()))
        atomic_write(path, lambda fh: np.savez(fh, **arrays))


class MultilinearSurrogate(_SurrogateBase):
    """Multilinear interpolation on the full characterization grid."""

    kind = "multilinear"

    def __init__(self, gate: str, tier: str, axis_names: Sequence[str],
                 axis_values: Sequence[np.ndarray], table: np.ndarray,
                 residual: np.ndarray, resp_names: Sequence[str],
                 residual_threshold: float = 0.25,
                 meta: Optional[Dict[str, Any]] = None):
        super().__init__(gate, tier, axis_names, resp_names,
                         residual_threshold, meta)
        self.axis_values = [np.asarray(v, dtype=float)
                            for v in axis_values]
        self.table = np.asarray(table, dtype=float)
        self.residual = np.asarray(residual, dtype=float)
        # Hot-path precomputation: python-scalar axis lists for bisect,
        # flat strides for corner addressing, python-float residuals.
        self._axes = [v.tolist() for v in self.axis_values]
        self._bounds = []
        for values in self._axes:
            lo, hi = values[0], values[-1]
            tol = _BOUNDS_RTOL * max(abs(lo), abs(hi), 1.0)
            self._bounds.append((lo - tol, hi + tol))
        shape = tuple(len(v) for v in self._axes)
        n_resp = len(self.response_names)
        if self.table.shape != shape + (n_resp,):
            raise ValueError(f"table shape {self.table.shape} does not "
                             f"match grid {shape} x {n_resp} responses")
        strides = []
        stride = 1
        for n in reversed(shape):
            strides.append(stride)
            stride *= n
        self._strides = list(reversed(strides))
        self._flat = np.ascontiguousarray(
            self.table.reshape(-1, n_resp))
        self._residual_flat = self.residual.reshape(-1).tolist()

    def query(self, point: Mapping[str, float]) -> np.ndarray:
        """Interpolated response vector at ``point``.

        Raises :class:`SurrogateDomainError` outside the grid bounds or
        where the leave-one-out residual of the enclosing cell exceeds
        the threshold.
        """
        base = 0
        active: List[tuple] = []
        for k, name in enumerate(self.axis_names):
            value = point.get(name)
            x = 0.0 if value is None else float(value)
            values = self._axes[k]
            lo, hi = self._bounds[k]
            if x < lo or x > hi:
                raise SurrogateDomainError(
                    self.gate, "bounds",
                    f"{name}={x:.6g} outside the characterized range "
                    f"[{values[0]:.6g}, {values[-1]:.6g}]",
                    point=dict(point))
            n = len(values)
            if n == 1:
                continue
            if x <= values[0]:
                i, t = 0, 0.0
            elif x >= values[-1]:
                i, t = n - 2, 1.0
            else:
                i = bisect.bisect_right(values, x) - 1
                if i > n - 2:
                    i = n - 2
                t = (x - values[i]) / (values[i + 1] - values[i])
            base += i * self._strides[k]
            if t > 0.0:
                active.append((self._strides[k], t))

        corners = [base]
        weights = [1.0]
        for stride, t in active:
            if t >= 1.0:
                corners = [c + stride for c in corners]
                continue
            corners = corners + [c + stride for c in corners]
            weights = [w * (1.0 - t) for w in weights] \
                + [w * t for w in weights]

        residual_flat = self._residual_flat
        worst = max(residual_flat[c] for c in corners)
        if worst > self.residual_threshold:
            raise SurrogateDomainError(
                self.gate, "residual",
                f"leave-one-out residual {worst:.3g} around the query "
                f"exceeds the threshold {self.residual_threshold:.3g}",
                point=dict(point))
        flat = self._flat
        if len(corners) == 1:
            return flat[corners[0]].copy()
        return np.asarray(weights) @ flat[corners]

    def _arrays(self) -> Dict[str, np.ndarray]:
        arrays = {"table": self.table, "residual": self.residual}
        for k, values in enumerate(self.axis_values):
            arrays[f"axis{k}"] = values
        return arrays


class RbfSurrogate(_SurrogateBase):
    """Gaussian RBF + ridge fit for scattered characterization points."""

    kind = "rbf"

    def __init__(self, gate: str, tier: str, axis_names: Sequence[str],
                 points: np.ndarray, weights: np.ndarray,
                 residual: np.ndarray, resp_names: Sequence[str],
                 scale_lo: np.ndarray, scale_hi: np.ndarray,
                 epsilon: float, neighbor_radius: float,
                 residual_threshold: float = 0.25,
                 meta: Optional[Dict[str, Any]] = None):
        super().__init__(gate, tier, axis_names, resp_names,
                         residual_threshold, meta)
        self.points = np.asarray(points, dtype=float)       # (N, d) unit box
        self.weights = np.asarray(weights, dtype=float)     # (N, R)
        self.residual = np.asarray(residual, dtype=float)   # (N,)
        self.scale_lo = np.asarray(scale_lo, dtype=float)   # (d,)
        self.scale_hi = np.asarray(scale_hi, dtype=float)
        self.epsilon = float(epsilon)
        self.neighbor_radius = float(neighbor_radius)
        span = self.scale_hi - self.scale_lo
        self._span = np.where(span > 0, span, 1.0)

    def _normalize(self, point: Mapping[str, float]) -> np.ndarray:
        x = np.empty(len(self.axis_names))
        for k, name in enumerate(self.axis_names):
            value = point.get(name)
            x[k] = 0.0 if value is None else float(value)
        lo, hi = self.scale_lo, self.scale_hi
        tol = _BOUNDS_RTOL * np.maximum(np.maximum(np.abs(lo),
                                                   np.abs(hi)), 1.0)
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            k = int(np.argmax(np.maximum(lo - x, x - hi)))
            raise SurrogateDomainError(
                self.gate, "bounds",
                f"{self.axis_names[k]}={x[k]:.6g} outside the "
                f"characterized range [{lo[k]:.6g}, {hi[k]:.6g}]",
                point=dict(point))
        return (x - lo) / self._span

    def query(self, point: Mapping[str, float]) -> np.ndarray:
        u = self._normalize(point)
        delta = self.points - u
        dist_sq = np.einsum("ij,ij->i", delta, delta)
        nearest = int(np.argmin(dist_sq))
        if dist_sq[nearest] > self.neighbor_radius ** 2:
            raise SurrogateDomainError(
                self.gate, "sparse",
                f"no characterized sample within {self.neighbor_radius:.3g} "
                "(unit box) of the query", point=dict(point))
        if self.residual[nearest] > self.residual_threshold:
            raise SurrogateDomainError(
                self.gate, "residual",
                f"leave-one-out residual {self.residual[nearest]:.3g} at "
                "the nearest sample exceeds the threshold "
                f"{self.residual_threshold:.3g}", point=dict(point))
        phi = np.exp(-dist_sq / (self.epsilon ** 2))
        return phi @ self.weights

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {"points": self.points, "weights": self.weights,
                "residual": self.residual, "scale_lo": self.scale_lo,
                "scale_hi": self.scale_hi,
                "epsilon": np.asarray(self.epsilon),
                "neighbor_radius": np.asarray(self.neighbor_radius)}


# -- fitting ----------------------------------------------------------------

def _normalized(values: np.ndarray) -> np.ndarray:
    """Column-normalised |values| scale (floor 1e-9) per response."""
    return np.maximum(np.abs(values).max(axis=0), 1e-9)


def _grid_loo_residual(table: np.ndarray,
                       axis_values: Sequence[np.ndarray]) -> np.ndarray:
    """Per-grid-point leave-one-out residual of the multilinear fit.

    Removing an interior grid sample, the multilinear model predicts
    it by linear interpolation between its two axis neighbours; the
    normalised worst-case mismatch over responses and axes is the
    sample's LOO residual.  Boundary samples inherit their nearest
    interior neighbour's residual (conservative: the boundary cannot
    be cross-validated).  Axes with < 3 samples contribute nothing.
    """
    n_resp = table.shape[-1]
    scale = _normalized(table.reshape(-1, n_resp))
    residual = np.zeros(table.shape[:-1])
    for k, values in enumerate(axis_values):
        n = len(values)
        if n < 3:
            continue
        v = np.moveaxis(table, k, 0)
        t = ((values[1:-1] - values[:-2])
             / (values[2:] - values[:-2]))
        t = t.reshape((n - 2,) + (1,) * (v.ndim - 1))
        predicted = v[:-2] * (1.0 - t) + v[2:] * t
        err = (np.abs(v[1:-1] - predicted) / scale).max(axis=-1)
        full = np.empty(v.shape[:-1])
        full[1:-1] = err
        full[0] = err[0]
        full[-1] = err[-1]
        residual = np.maximum(residual, np.moveaxis(full, 0, k))
    return residual


def fit_surrogate(records: Iterable[Mapping[str, Any]],
                  kind: str = "multilinear",
                  residual_threshold: float = 0.25,
                  ridge: float = 1e-8,
                  meta: Optional[Dict[str, Any]] = None) -> _SurrogateBase:
    """Fit a surrogate over characterization records.

    ``kind="multilinear"`` requires the records to cover the full axis
    grid (every combination of observed axis values); ``kind="rbf"``
    accepts any scattered point set.  Fit wall time lands in the
    ``surrogate.fit_ms`` gauge and the returned model's metadata.
    """
    t0 = time.perf_counter()
    records = list(records)
    if not records:
        raise ValueError("cannot fit a surrogate on zero records")
    first = records[0]
    gate = first["gate"]
    tier = first["tier"]
    names = response_names(first)
    axis_names = [name for name in AXIS_NAMES if name in first["point"]]
    points = np.array([[float(r["point"][a]) for a in axis_names]
                       for r in records])
    values = np.array([response_vector(r, names) for r in records])

    if kind == "multilinear":
        model = _fit_multilinear(gate, tier, axis_names, points, values,
                                 names, residual_threshold, meta)
    elif kind == "rbf":
        model = _fit_rbf(gate, tier, axis_names, points, values, names,
                         residual_threshold, ridge, meta)
    else:
        raise ValueError(f"unknown surrogate kind {kind!r}; choose "
                         "'multilinear' or 'rbf'")
    fit_ms = (time.perf_counter() - t0) * 1e3
    model.meta["fit_ms"] = round(fit_ms, 3)
    model.meta["n_records"] = len(records)
    if obs.enabled():
        obs.gauge("surrogate.fit_ms").set(round(fit_ms, 3))
        obs.counter("surrogate.fit").inc()
    return model


def _fit_multilinear(gate, tier, axis_names, points, values, names,
                     residual_threshold, meta) -> MultilinearSurrogate:
    axis_values = [np.unique(points[:, k])
                   for k in range(len(axis_names))]
    shape = tuple(len(v) for v in axis_values)
    expected = int(np.prod(shape))
    if len(points) != expected:
        raise ValueError(
            f"multilinear fit needs the full {shape} grid "
            f"({expected} points), got {len(points)}; use kind='rbf' "
            "for scattered records")
    table = np.full(shape + (values.shape[1],), np.nan)
    for row, vector in zip(points, values):
        idx = tuple(int(np.searchsorted(axis_values[k], row[k]))
                    for k in range(len(axis_names)))
        table[idx] = vector
    if np.isnan(table).any():
        raise ValueError("characterization grid has holes (duplicate "
                         "corners elsewhere?); use kind='rbf'")
    residual = _grid_loo_residual(table, axis_values)
    return MultilinearSurrogate(
        gate, tier, axis_names, axis_values, table, residual, names,
        residual_threshold=residual_threshold, meta=meta)


def _fit_rbf(gate, tier, axis_names, points, values, names,
             residual_threshold, ridge, meta) -> RbfSurrogate:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    unit = (points - lo) / span
    n = len(unit)
    delta = unit[:, None, :] - unit[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", delta, delta)
    # Nearest-neighbour spacing sets both the kernel width and the
    # sparse-domain radius.
    off_diag = dist_sq + np.eye(n) * 1e9
    nn = np.sqrt(off_diag.min(axis=1))
    spacing = float(np.median(nn)) if n > 1 else 1.0
    epsilon = max(2.0 * spacing, 1e-6)
    neighbor_radius = max(1.5 * float(nn.max()) if n > 1 else 1.0, 1e-6)
    kernel = np.exp(-dist_sq / (epsilon ** 2))
    a = kernel + ridge * np.eye(n)
    weights = np.linalg.solve(a, values)
    # Exact ridge leave-one-out residuals via the hat matrix.
    hat = kernel @ np.linalg.inv(a)
    fitted = kernel @ weights
    denom = np.maximum(1.0 - np.diag(hat), 1e-9)[:, None]
    loo = np.abs(values - fitted) / denom
    residual = (loo / _normalized(values)).max(axis=1)
    return RbfSurrogate(
        gate, tier, axis_names, unit, weights, residual, names,
        scale_lo=lo, scale_hi=hi, epsilon=epsilon,
        neighbor_radius=neighbor_radius,
        residual_threshold=residual_threshold, meta=meta)


def load_model(path: str) -> _SurrogateBase:
    """Load a saved surrogate (dispatching on its ``kind``)."""
    with np.load(path, allow_pickle=False) as data:
        payload = json.loads(str(data["meta"][()]))
        kind = payload["kind"]
        common = dict(
            gate=payload["gate"], tier=payload["tier"],
            axis_names=payload["axis_names"],
            resp_names=payload["response_names"],
            residual_threshold=payload["residual_threshold"],
            meta=payload.get("meta") or {})
        if kind == "multilinear":
            axis_values = []
            k = 0
            while f"axis{k}" in data:
                axis_values.append(data[f"axis{k}"])
                k += 1
            return MultilinearSurrogate(
                axis_values=axis_values, table=data["table"],
                residual=data["residual"], **common)
        if kind == "rbf":
            return RbfSurrogate(
                points=data["points"], weights=data["weights"],
                residual=data["residual"], scale_lo=data["scale_lo"],
                scale_hi=data["scale_hi"],
                epsilon=float(data["epsilon"]),
                neighbor_radius=float(data["neighbor_radius"]),
                **common)
    raise ValueError(f"unknown surrogate kind {kind!r} in {path}")
