"""Result caching for simulation sweeps: content-addressed SimResults.

Sweeps and figure series re-run identical configurations constantly —
bisection probes revisit rates, figure grids share baselines, and repeated
benchmark invocations redo the whole grid.  Every run is a pure function of
``(SimConfig, code version)``: the model draws all randomness from a
:class:`~repro.des.random_streams.StreamFactory` seeded by ``config.seed``,
so a completed :class:`~repro.sim.model.SimResult` can be replayed from
disk bit-for-bit.

The cache key is a SHA-256 digest over the canonical JSON form of the
config plus the cache format number, the serialisation schema (dataclass
field names), and a digest of the ``repro`` package sources, so *any*
source or schema change invalidates every entry — coarse, but sound: no
stale results can survive a model change.  Entries only exist for plain runs (no
``storage_factory``, no ``trace``): callables and traces are not part of
the key, so runs using them are never cached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from ..simdisk import DiskSpec
from .model import SimResult
from .workload import SimConfig

__all__ = ["ResultCache", "config_key", "code_version", "cache_schema"]

#: Bumping this invalidates every cache entry even without a source change
#: (e.g. when the serialisation format itself evolves).
CACHE_FORMAT = 1

_code_version_cache: dict[str, str] = {}


def _digest_sources(root: Path, sources) -> str:
    """Digest path-relative names + contents of ``sources`` (iterated in
    the order given; callers sort).  Factored out so tests can prove the
    digest is a function of the *set* of (name, bytes) pairs and nothing
    else — not of enumeration order, not of the absolute checkout path.
    """
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(source.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def code_version(root: Optional[Path] = None) -> str:
    """Digest of every ``repro`` source file; memoised per process.

    Hashes path-relative names and file contents of all ``.py`` files
    under the package root in sorted order, so the result is independent
    of filesystem enumeration order and of where the tree is checked out.
    ``root`` overrides the package root (tests digest scratch trees
    without touching the memo).
    """
    if root is not None:
        return _digest_sources(root, sorted(Path(root).rglob("*.py")))
    cached = _code_version_cache.get("digest")
    if cached is not None:
        return cached
    package_root = Path(__file__).resolve().parents[1]
    version = _digest_sources(package_root,
                              sorted(package_root.rglob("*.py")))
    _code_version_cache["digest"] = version
    return version


def cache_schema() -> dict:
    """The serialisation schema: field names of every dataclass a cache
    entry round-trips through.

    Folded into :func:`config_key` so adding/renaming/removing a field on
    :class:`SimResult`, :class:`SimConfig` or :class:`DiskSpec` changes
    every key even when no source byte under ``repro/`` changed (e.g. a
    field injected by test monkey-patching, or a future schema loaded
    from config) — and so the *schema* dependency is explicit rather
    than riding along with the code digest.
    """
    return {
        "result": [f.name for f in dataclasses.fields(SimResult)],
        "config": [f.name for f in dataclasses.fields(SimConfig)],
        "disk": [f.name for f in dataclasses.fields(DiskSpec)],
    }


def config_key(config: SimConfig, version: Optional[str] = None) -> str:
    """The cache key of one run: sha256 of (format, schema, code,
    canonical config).

    ``version`` defaults to :func:`code_version`; tests inject fixed
    strings to probe key stability without hashing the tree.
    """
    payload = {
        "format": CACHE_FORMAT,
        "schema": cache_schema(),
        "code": code_version() if version is None else version,
        "config": dataclasses.asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_to_jsonable(result: SimResult) -> dict:
    """A SimResult as a plain JSON-serialisable dict (nested dataclasses
    included)."""
    return dataclasses.asdict(result)


def result_from_jsonable(payload: dict) -> SimResult:
    """Inverse of :func:`result_to_jsonable`: rebuild the frozen dataclass
    chain (DiskSpec inside SimConfig inside SimResult)."""
    config_fields = dict(payload["config"])
    config_fields["disk"] = DiskSpec(**config_fields["disk"])
    rest = {key: value for key, value in payload.items() if key != "config"}
    return SimResult(config=SimConfig(**config_fields), **rest)


class ResultCache:
    """A directory of ``<key>.json`` files, one completed run each.

    Safe for concurrent writers: entries are written to a per-process
    temporary name and atomically renamed into place, and a torn or
    corrupt entry is treated as a miss (and removed) rather than an error.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result under ``key``, or None on a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            result = result_from_jsonable(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            # Torn write or stale format: drop the entry, report a miss.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Store ``result`` under ``key`` (atomic rename; last writer
        wins, which is harmless because all writers store the same
        deterministic result)."""
        path = self._path(key)
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        temporary.write_text(json.dumps(result_to_jsonable(result),
                                        sort_keys=True))
        os.replace(temporary, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
