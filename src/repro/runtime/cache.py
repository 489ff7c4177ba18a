"""Pluggable result caches keyed by :meth:`JobSpec.key` digests.

Two stores are provided:

* :class:`MemoryCache` -- a per-process dict, for benches and tests;
* :class:`DiskCache` -- an on-disk store under ``.repro_cache/`` that
  survives processes.  Each value is a JSON document; numpy arrays are
  split out into an ``.npz`` sidecar so large fields stay binary.

Both count hits, misses and writes (:class:`CacheStats`), which the
:class:`~repro.runtime.report.RunReport` telemetry surfaces.

Disk layout::

    .repro_cache/
      <salt>/                 # one namespace per code-version salt
        ab/                   # first two hex digits of the key
          <key>.json          # tagged-JSON payload
          <key>.npz           # ndarray sidecar (only when needed)

Corrupt or half-written entries are treated as misses, never errors:
writes go through a temp file + ``os.replace`` (:func:`atomic_write`)
so concurrent sweeps on the same cache directory are safe.

Long-lived consumers (``python -m repro serve``) keep the store from
growing unboundedly with :func:`prune_cache` / :meth:`DiskCache.prune`
-- mtime-LRU eviction down to a byte budget; reads touch the entry's
mtime so recently-served results survive a prune.  ``python -m repro
cache stats|prune`` exposes both from the command line.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # non-POSIX: store() falls back to rename-only safety
    fcntl = None  # type: ignore[assignment]

import numpy as np

from .. import obs
from ..defaults import DEFAULT_CACHE_ROOT
from ..errors import CacheCorrupt
from ..resilience import faults

#: Namespace directory (under the cache root) holding quarantined
#: corrupt entries; excluded from scans, stats and pruning.
QUARANTINE_DIR = "quarantine"

_LOG = obs.get_logger("runtime.cache")


def atomic_write(path: str, writer: Callable[[Any], Any]) -> None:
    """Write a file atomically: temp file in the same directory, then
    ``os.replace``.  A reader never sees a half-written file and a
    killed writer leaves at worst an orphaned ``.tmp-*.part``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupt entries moved aside (DiskCache only).
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "quarantined": self.quarantined,
                "hit_rate": self.hit_rate}


class ResultCache:
    """Interface: ``get`` -> (found, value), ``put``, ``stats``."""

    def __init__(self) -> None:
        self.stats = CacheStats()

    def get(self, key: str) -> Tuple[bool, Any]:
        found, value = self._load(key)
        if found:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if obs.enabled():
            obs.counter("cache.hit" if found else "cache.miss").inc()
        return found, value

    def put(self, key: str, value: Any) -> None:
        self._store(key, value)
        self.stats.writes += 1
        if obs.enabled():
            obs.counter("cache.write").inc()

    def __contains__(self, key: str) -> bool:
        found, _ = self._load(key)
        return found

    # Subclass surface ------------------------------------------------------

    def _load(self, key: str) -> Tuple[bool, Any]:
        raise NotImplementedError

    def _store(self, key: str, value: Any) -> None:
        raise NotImplementedError


class MemoryCache(ResultCache):
    """In-process dict cache.

    Values are returned by reference -- treat cached results as
    immutable.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def _load(self, key: str) -> Tuple[bool, Any]:
        if key in self._data:
            return True, self._data[key]
        return False, None

    def _store(self, key: str, value: Any) -> None:
        self._data[key] = value


# -- tagged JSON <-> value codec (ndarrays split into the npz sidecar) ------

def _encode(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, np.generic):
        return _encode(value.item(), arrays)
    if isinstance(value, np.ndarray):
        name = f"a{len(arrays)}"
        arrays[name] = value
        return {"__npz__": name}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v, arrays) for v in value]}
    if isinstance(value, (list,)):
        return [_encode(v, arrays) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _encode(v, arrays) for k, v in value.items()}
        return {"__items__": [[_encode(k, arrays), _encode(v, arrays)]
                              for k, v in value.items()]}
    raise TypeError(f"cannot persist value of type {type(value).__name__!r} "
                    "to the disk cache; return JSON-compatible structures, "
                    "tuples, complex numbers or numpy arrays")


def _decode(node: Any, arrays: Optional[Any]) -> Any:
    if isinstance(node, list):
        return [_decode(v, arrays) for v in node]
    if isinstance(node, dict):
        if "__complex__" in node and len(node) == 1:
            real, imag = node["__complex__"]
            return complex(real, imag)
        if "__tuple__" in node and len(node) == 1:
            return tuple(_decode(v, arrays) for v in node["__tuple__"])
        if "__items__" in node and len(node) == 1:
            return {_freeze(_decode(k, arrays)): _decode(v, arrays)
                    for k, v in node["__items__"]}
        if "__npz__" in node and len(node) == 1:
            if arrays is None:
                raise KeyError("ndarray payload without npz sidecar")
            return np.asarray(arrays[node["__npz__"]])
        return {k: _decode(v, arrays) for k, v in node.items()}
    return node


def _freeze(key: Any) -> Any:
    """Dict keys must be hashable: lists decoded from JSON -> tuples."""
    if isinstance(key, list):
        return tuple(_freeze(k) for k in key)
    return key


class DiskCache(ResultCache):
    """Persistent cache under ``root`` (default ``.repro_cache/``).

    Parameters
    ----------
    root:
        Cache directory; created on first write.
    salt:
        Namespace sub-directory.  Defaults to the package code-version
        salt so results cached by one version of the code are never
        served to another.
    """

    _KEY_RE = re.compile(r"^[0-9a-f]{8,64}$")

    def __init__(self, root: str = DEFAULT_CACHE_ROOT,
                 salt: Optional[str] = None) -> None:
        super().__init__()
        if salt is None:
            from .spec import default_salt

            salt = default_salt()
        self.root = root
        self.salt = salt
        safe_salt = re.sub(r"[^A-Za-z0-9._-]", "_", salt)
        self.directory = os.path.join(root, safe_salt)
        self.quarantine_directory = os.path.join(
            root, QUARANTINE_DIR, safe_salt)

    def _paths(self, key: str) -> Tuple[str, str]:
        if not self._KEY_RE.match(key):
            raise ValueError(f"malformed cache key {key!r}")
        shard = os.path.join(self.directory, key[:2])
        return (os.path.join(shard, key + ".json"),
                os.path.join(shard, key + ".npz"))

    def __len__(self) -> int:
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.directory):
            count += sum(1 for f in filenames if f.endswith(".json"))
        return count

    def _load(self, key: str) -> Tuple[bool, Any]:
        json_path, npz_path = self._paths(key)
        if faults.active():
            faults.trip("cache.load")
        try:
            with open(json_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return False, None  # no entry: a plain miss
        bytes_read = len(text)
        try:
            document = json.loads(text)
            arrays = None
            if document.get("arrays"):
                bytes_read += os.path.getsize(npz_path)
                with np.load(npz_path) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            value = _decode(document["value"], arrays)
        except (OSError, ValueError, KeyError) as exc:
            # Corrupt or half-written entry: a miss for the caller, but
            # the damaged files are preserved under quarantine/ for
            # post-mortem instead of being recomputed over silently.
            corrupt = CacheCorrupt(key, f"{type(exc).__name__}: {exc}")
            _LOG.warning("%s; quarantining", corrupt)
            if obs.enabled():
                obs.counter("cache.corrupt").inc()
            self._quarantine(key, json_path, npz_path)
            return False, None
        try:
            # Touch the entry so mtime-LRU pruning keeps hot results.
            os.utime(json_path)
        except OSError:
            pass
        if obs.enabled():
            obs.counter("cache.bytes_read").inc(bytes_read)
        return True, value

    def _quarantine(self, key: str, json_path: str,
                    npz_path: str) -> None:
        """Move a corrupt entry's files into the quarantine namespace."""
        os.makedirs(self.quarantine_directory, exist_ok=True)
        moved = 0
        for path in (json_path, npz_path):
            target = os.path.join(self.quarantine_directory,
                                  os.path.basename(path))
            try:
                os.replace(path, target)
                moved += 1
            except OSError:
                pass  # sidecar absent, or a concurrent reader moved it
        if moved:
            self.stats.quarantined += 1
            if obs.enabled():
                obs.counter("cache.quarantined").inc()

    @contextlib.contextmanager
    def _store_lock(self, json_path: str) -> Iterator[None]:
        """Serialize writers of one key across *processes*.

        Two cluster workers (or prefork serve children) materialising
        the same key used to race: each wrote its own temp files and
        the renames interleaved, briefly pairing one writer's ``.json``
        with the other's ``.npz`` sidecar -- a decode failure the
        quarantine counted as a loss.  An ``fcntl.flock`` on a 0-byte
        ``<key>.lock`` beside the entry makes the whole
        npz-then-json sequence exclusive.  The lock file is invisible
        to :func:`scan_cache` (it only looks at ``.json``) and inert
        where ``fcntl`` does not exist (Windows), which degrades to
        the old rename-only behaviour.
        """
        if fcntl is None:
            yield
            return
        lock_path = json_path[:-len(".json")] + ".lock"
        handle = open(lock_path, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    def _store(self, key: str, value: Any) -> None:
        json_path, npz_path = self._paths(key)
        corrupt_fault = None
        if faults.active():
            corrupt_fault = faults.trip("cache.store")
        arrays: Dict[str, np.ndarray] = {}
        payload = _encode(value, arrays)
        document = {"key": key, "salt": self.salt,
                    "arrays": sorted(arrays), "value": payload}
        os.makedirs(os.path.dirname(json_path), exist_ok=True)
        text = json.dumps(document).encode("utf-8")
        if corrupt_fault is not None and corrupt_fault.kind == "corrupt":
            text = text[:max(1, len(text) // 2)]  # torn write
        with self._store_lock(json_path):
            if arrays:
                atomic_write(npz_path, lambda fh: np.savez(fh, **arrays))
            atomic_write(json_path, lambda fh: fh.write(text))
        if obs.enabled():
            written = os.path.getsize(json_path)
            if arrays:
                written += os.path.getsize(npz_path)
            obs.counter("cache.bytes_written").inc(written)

    # Kept as a method alias: external writers of cache-adjacent
    # artifacts used this before atomic_write became module-level.
    _atomic_write = staticmethod(atomic_write)

    def usage(self) -> "CacheUsage":
        """On-disk footprint of this cache's salt namespace."""
        return cache_stats(self.root, salts=[os.path.basename(
            self.directory)])

    def prune(self, max_bytes: int) -> "PruneResult":
        """mtime-LRU eviction of this salt namespace down to
        ``max_bytes`` (see :func:`prune_cache`)."""
        return prune_cache(self.root, max_bytes,
                           salts=[os.path.basename(self.directory)])


# -- maintenance: usage accounting and mtime-LRU pruning --------------------

@dataclass
class CacheEntry:
    """One on-disk result: the JSON document plus its npz sidecar."""

    key: str
    salt_dir: str               # namespace directory name under root
    json_path: str
    npz_path: Optional[str]     # None when the entry has no sidecar
    size_bytes: int             # json + sidecar
    mtime: float                # of the JSON document (touched on read)

    @property
    def paths(self) -> List[str]:
        return [self.json_path] + ([self.npz_path] if self.npz_path else [])


@dataclass
class CacheUsage:
    """Aggregate on-disk cache footprint (``repro cache stats``)."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_salt: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (entries, bytes) per salt namespace.
    quarantined: int = 0
    #: Corrupt entries parked under ``quarantine/`` (JSON documents).

    def as_dict(self) -> Dict[str, Any]:
        return {"root": self.root, "entries": self.entries,
                "total_bytes": self.total_bytes,
                "quarantined": self.quarantined,
                "by_salt": {salt: {"entries": n, "bytes": size}
                            for salt, (n, size) in
                            sorted(self.by_salt.items())}}


@dataclass
class PruneResult:
    """Outcome of one :func:`prune_cache` pass."""

    scanned: int = 0
    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"scanned": self.scanned, "removed": self.removed,
                "freed_bytes": self.freed_bytes, "kept": self.kept,
                "kept_bytes": self.kept_bytes}


def scan_cache(root: str = DEFAULT_CACHE_ROOT,
               salts: Optional[List[str]] = None) -> List[CacheEntry]:
    """Enumerate cache entries under ``root`` (all salt namespaces, or
    the named subset).  Orphaned temp files and sidecars without their
    JSON document are ignored; a vanished file mid-scan is skipped."""
    entries: List[CacheEntry] = []
    try:
        namespaces = sorted(os.listdir(root))
    except OSError:
        return entries
    for salt_dir in namespaces:
        if salt_dir == QUARANTINE_DIR:
            continue  # quarantined entries are not servable results
        if salts is not None and salt_dir not in salts:
            continue
        directory = os.path.join(root, salt_dir)
        if not os.path.isdir(directory):
            continue
        for dirpath, _dirnames, filenames in os.walk(directory):
            for name in filenames:
                if not name.endswith(".json"):
                    continue
                json_path = os.path.join(dirpath, name)
                npz_path: Optional[str] = os.path.join(
                    dirpath, name[:-len(".json")] + ".npz")
                try:
                    stat = os.stat(json_path)
                    size = stat.st_size
                    if os.path.exists(npz_path):
                        size += os.path.getsize(npz_path)
                    else:
                        npz_path = None
                except OSError:
                    continue  # deleted under us (concurrent prune)
                entries.append(CacheEntry(
                    key=name[:-len(".json")], salt_dir=salt_dir,
                    json_path=json_path, npz_path=npz_path,
                    size_bytes=size, mtime=stat.st_mtime))
    return entries


def cache_stats(root: str = DEFAULT_CACHE_ROOT,
                salts: Optional[List[str]] = None) -> CacheUsage:
    """Entry count and byte footprint of the on-disk cache."""
    usage = CacheUsage(root=root)
    for entry in scan_cache(root, salts=salts):
        usage.entries += 1
        usage.total_bytes += entry.size_bytes
        n, size = usage.by_salt.get(entry.salt_dir, (0, 0))
        usage.by_salt[entry.salt_dir] = (n + 1, size + entry.size_bytes)
    usage.quarantined = count_quarantined(root, salts=salts)
    return usage


def count_quarantined(root: str = DEFAULT_CACHE_ROOT,
                      salts: Optional[List[str]] = None) -> int:
    """Number of quarantined entries (JSON documents) under ``root``."""
    base = os.path.join(root, QUARANTINE_DIR)
    count = 0
    try:
        namespaces = sorted(os.listdir(base))
    except OSError:
        return 0
    for salt_dir in namespaces:
        if salts is not None and salt_dir not in salts:
            continue
        directory = os.path.join(base, salt_dir)
        if not os.path.isdir(directory):
            continue
        for _dirpath, _dirnames, filenames in os.walk(directory):
            count += sum(1 for f in filenames if f.endswith(".json"))
    return count


def prune_cache(root: str = DEFAULT_CACHE_ROOT,
                max_bytes: int = 0,
                salts: Optional[List[str]] = None) -> PruneResult:
    """Evict least-recently-used entries until ``root`` holds at most
    ``max_bytes``.

    "Recently used" is the JSON document's mtime: :class:`DiskCache`
    touches it on every hit, so the eviction order is true LRU, not
    insertion order.  ``max_bytes=0`` empties the cache.  Safe against
    concurrent readers (they treat a vanished entry as a miss) and
    concurrent pruners (already-deleted files are skipped).
    """
    entries = scan_cache(root, salts=salts)
    result = PruneResult(scanned=len(entries))
    total = sum(e.size_bytes for e in entries)
    for entry in sorted(entries, key=lambda e: e.mtime):
        if total <= max_bytes:
            break
        freed = 0
        for path in entry.paths:
            try:
                size = os.path.getsize(path)
                os.unlink(path)
                freed += size
            except OSError:
                pass  # concurrent prune got it first
        try:  # the 0-byte store-lock file, when one was ever taken
            os.unlink(entry.json_path[:-len(".json")] + ".lock")
        except OSError:
            pass
        total -= entry.size_bytes
        result.removed += 1
        result.freed_bytes += freed
    result.kept = result.scanned - result.removed
    result.kept_bytes = max(0, total)
    if obs.enabled() and result.removed:
        obs.counter("cache.pruned").inc(result.removed)
        obs.counter("cache.pruned_bytes").inc(result.freed_bytes)
    _LOG.info("pruned %d of %d entries (%d bytes freed)",
              result.removed, result.scanned, result.freed_bytes)
    return result
