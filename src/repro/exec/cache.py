"""Content-keyed on-disk cache for simulation results.

A cell's cache key is a SHA-256 over everything its result depends on: the
workload and system names, every :class:`~repro.sim.config.SimulationConfig`
field, the primer factory's qualified name, and a code-version tag hashed
from the ``repro`` package sources — so editing the simulator invalidates
the whole cache instead of serving stale results.

The cache directory comes from the ``REPRO_CACHE_DIR`` environment
variable (or an explicit :class:`ResultCache`); without it, caching is
off.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from dataclasses import asdict, dataclass

from repro.exec.cells import Cell
from repro.sim.results import RunResult

__all__ = ["CacheStats", "ResultCache", "cell_key", "code_version"]

_code_version: str | None = None


def code_version() -> str:
    """Digest of the ``repro`` package sources (computed once per process)."""
    global _code_version
    if _code_version is None:
        digest = hashlib.sha256()
        root = pathlib.Path(__file__).resolve().parent.parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def cell_key(cell: Cell) -> str:
    """Content key of one cell: same key == same simulation result."""
    config = asdict(cell.config)
    primer = None
    if cell.primer_factory is not None:
        primer = (
            f"{cell.primer_factory.__module__}:{cell.primer_factory.__qualname__}"
        )
    payload = {
        "workload": cell.workload,
        "system": cell.system,
        "config": config,
        "primer": primer,
        "code": code_version(),
    }
    raw = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(raw).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def __str__(self) -> str:
        return (
            f"{self.hits}/{self.requests} hits ({self.hit_rate:.0%}), "
            f"{self.stores} stored"
        )


class ResultCache:
    """Pickled result records under a cache directory.

    *expected* is the type a loaded entry must have to count as a hit;
    the default (:class:`RunResult`) serves the cell executor, while the
    cluster engine opens the same directory with its fleet result type —
    keys never collide because they hash disjoint payloads.
    """

    def __init__(
        self, directory: str | os.PathLike, expected: type | tuple = RunResult
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.expected = expected
        self.stats = CacheStats()

    @classmethod
    def from_env(cls, expected: type | tuple = RunResult) -> "ResultCache | None":
        """Cache at ``$REPRO_CACHE_DIR``, or None when the variable is
        unset/empty (caching disabled)."""
        directory = os.environ.get("REPRO_CACHE_DIR", "").strip()
        return cls(directory, expected=expected) if directory else None

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self.stats.misses += 1
            return None
        if not isinstance(result, self.expected):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent workers may store the same key.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stats.stores += 1
