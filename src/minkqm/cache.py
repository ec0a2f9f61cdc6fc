"""JSON result cache of the moments commands' output.

A `moments compute` or `moments table` run with a cache file stores the
text it printed, and only when it exits 0.  The key is `result_key`: the
digest of minkqm's own sources (`code_digest`) and the parsed arguments
that reach the printed text, as canonical JSON.  A later run of the same
code with the same such arguments prints the stored text again, byte for
byte; any change to the sources, the version string included, makes every
older entry a miss, so the cache never serves what different code computed.

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


def code_digest() -> str:
    """BLAKE2b-256 over the name and bytes of each of minkqm's own modules,
    each followed by a NUL byte, which Python source cannot hold.

    `_blake2` ships with every supported CPython and maps no OpenSSL, which
    `hashlib` loads through `_hashlib` (3.6 MB of RSS); `_sha256` was
    renamed `_sha2` in 3.12.
    """
    from _blake2 import blake2b  # here, so a run without a cache loads no hash module

    h = blake2b(digest_size=32)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def result_key(arguments: dict) -> str:
    """The code digest and the arguments as canonical JSON."""
    return code_digest() + ":" + json.dumps(arguments, sort_keys=True, separators=(",", ":"))


class ResultCache:
    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._data: dict[str, dict] = self._load()

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
