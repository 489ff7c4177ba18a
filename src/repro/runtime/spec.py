"""Declarative job specifications with content-addressed keys.

A :class:`JobSpec` names *what* to compute -- a callable reference plus
a parameter mapping -- without computing it.  Its :meth:`JobSpec.key`
is a deterministic SHA-256 digest of the canonicalised (function,
params, salt) triple, so the same experiment requested twice (in the
same process, another process, or another machine) maps to the same
cache entry, and any parameter change maps to a different one.

The salt defaults to the package version: bumping ``repro.__version__``
invalidates every cached result at once, which is the coarse but safe
answer to "the code changed under the cache".
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Union

import numpy as np


def default_salt() -> str:
    """Code-version salt mixed into every job key."""
    from .. import __version__

    return f"repro-{__version__}"


def callable_ref(fn: Callable) -> Optional[str]:
    """``"module:qualname"`` for a module-level callable, else None.

    Lambdas, closures (``<locals>`` in the qualname) and ``__main__``
    functions are not addressable by name from a worker process, so
    they get no reference -- the executor runs them in-process instead.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or module == "__main__":
        return None
    return f"{module}:{qualname}"


def resolve_ref(ref: str) -> Callable:
    """Import the callable named by a ``"module:qualname"`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed callable reference {ref!r}; "
                         "expected 'module:qualname'")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{ref!r} resolved to non-callable {obj!r}")
    return obj


def _canonicalize(obj: Any) -> Any:
    """Reduce a parameter value to deterministic pure-JSON structure.

    Tuples and lists collapse to lists, numpy scalars to Python
    scalars, arrays and complex numbers to tagged dicts, dataclasses to
    their field dict.  Anything else is rejected so an unhashable
    parameter fails loudly at submission instead of silently producing
    an unstable key.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, numbers.Complex):
        return {"__complex__": [float(obj.real), float(obj.imag)]}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype),
                "shape": list(obj.shape)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__qualname__,
                "fields": _canonicalize(dataclasses.asdict(obj))}
    if isinstance(obj, Mapping):
        if all(isinstance(k, str) for k in obj):
            return {k: _canonicalize(v) for k, v in obj.items()}
        items = [[_canonicalize(k), _canonicalize(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True,
                                             default=str))
        return {"__items__": items}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = [_canonicalize(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            seq.sort(key=lambda v: json.dumps(v, sort_keys=True, default=str))
        return seq
    raise TypeError(
        f"job parameter of type {type(obj).__name__!r} is not "
        "canonicalisable; use JSON-compatible values, numpy arrays or "
        "dataclasses")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text of a parameter structure (sorted, compact)."""
    return json.dumps(_canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


def job_key(ref: str, params: Mapping, salt: Optional[str] = None) -> str:
    """SHA-256 content key of a (callable ref, params, salt) triple."""
    if salt is None:
        salt = default_salt()
    payload = canonical_json({"fn": ref, "params": dict(params),
                              "salt": salt})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a callable reference plus keyword parameters.

    Parameters
    ----------
    fn:
        Either a ``"module:qualname"`` string or a callable.  A
        module-level callable is converted to its reference so the job
        can ship to a worker process; lambdas and closures stay
        in-process (the executor degrades them to serial execution).
    params:
        Keyword arguments for the callable.  Must canonicalise (see
        :func:`canonical_json`): plain JSON values, numpy scalars /
        arrays, tuples and dataclasses are all fine.
    label:
        Optional human-readable name used in telemetry.
    """

    fn: Union[str, Callable]
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    @property
    def ref(self) -> Optional[str]:
        """``"module:qualname"`` when addressable by name, else None."""
        if isinstance(self.fn, str):
            return self.fn
        return callable_ref(self.fn)

    @property
    def portable(self) -> bool:
        """True if the job can be shipped to another process.

        A string reference is trusted (it fails at execution time if
        wrong); a callable must round-trip through its reference.
        """
        if isinstance(self.fn, str):
            return True
        ref = self.ref
        if ref is None:
            return False
        try:
            return resolve_ref(ref) is self.fn
        except Exception:
            return False

    def resolve(self) -> Callable:
        """The concrete callable to invoke."""
        if callable(self.fn):
            return self.fn
        return resolve_ref(self.fn)

    @property
    def _key_ref(self) -> str:
        """Identity string used inside the key, defined for any fn."""
        ref = self.ref
        if ref is not None:
            return ref
        return (f"{getattr(self.fn, '__module__', '?')}:"
                f"{getattr(self.fn, '__qualname__', repr(self.fn))}")

    def key(self, salt: Optional[str] = None) -> str:
        """Deterministic content-addressed cache key.

        Computed once per salt and memoized on the instance, outside
        the dataclass fields (so ``==``, ``hash`` and ``repr`` ignore
        it): ``params`` must not change after the first call.
        """
        if salt is None:
            salt = default_salt()
        memo = self.__dict__.setdefault("_key_memo", {})
        key = memo.get(salt)
        if key is None:
            key = memo[salt] = job_key(self._key_ref, self.params, salt)
        return key

    def seed(self, salt: Optional[str] = None, stream: int = 0) -> int:
        """A 64-bit RNG seed derived from the job key.

        Jobs with stochastic physics (thermal field, edge roughness)
        should seed their generators from this so a cached result and a
        recomputed one are bit-identical across processes.  See
        :func:`repro.micromag.fields.thermal.seed_from_key`.
        """
        from ..micromag.fields.thermal import seed_from_key

        return seed_from_key(self.key(salt), stream=stream)

    @property
    def display_label(self) -> str:
        """Telemetry name: explicit label, else the callable reference."""
        return self.label or self._key_ref

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)
