"""JSON result cache for moment computations.

Keys encode (method, L, the series/enumeration index, the truncation
setting, eps); values store the formatted decimal strings exactly as first
emitted, so a cache hit reproduces the original output byte for byte.

Several processes may share one cache file: `put` holds an exclusive
lock on a sibling `<file>.lock` (POSIX `flock`) while it reads the file,
merges its entry and atomically replaces the file, so no writer drops
another's entries.  A file that is not a JSON object (a directory, other
text, a list) raises DomainError, both on load and on that re-read, so it
is never overwritten.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
from pathlib import Path

from .errors import DomainError

ENV_CACHE = "MINKQM_CACHE"


def cache_key(method: str, L: int, index, trunc, eps) -> str:
    return f"{method}:L={L}:idx={index}:trunc={trunc}:eps={eps}"


class ResultCache:
    def __init__(self, path: str | os.PathLike | None):
        self.path = Path(path) if path else None
        self._data: dict[str, dict] = self._load() if self.path else {}

    def _load(self) -> dict[str, dict]:
        if not self.path.exists():
            return {}
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cache file {self.path} is unreadable: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError(f"cache file {self.path} does not hold a JSON object")
        return data

    def get(self, key: str) -> dict | None:
        return self._data.get(key)

    def put(self, key: str, entry: dict):
        if not self.path:
            self._data[key] = entry
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lock = self.path.with_name(self.path.name + ".lock")
        with open(lock, "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX)  # released when `held` closes
            self._data = self._load()
            self._data[key] = entry
            self._save()

    def _save(self):
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._data, fh, sort_keys=True, indent=1)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def resolve_cache_path(cli_value: str | None) -> str | None:
    if cli_value:
        return cli_value
    return os.environ.get(ENV_CACHE)
