"""Content-addressed artifact store: SHA-256 over canonical bytes.

The one artifact the service keeps per finished job — its canonical
result set — is stored once under the SHA-256 digest of its bytes,
git-object style::

    store/
      objects/ab/cdef0123...    (62 hex chars after the 2-char fan-out)

JSON artifacts are hashed over their **canonical encoding** (sorted
keys, minimal separators, UTF-8), so two runs that produce the same
logical result — a re-submitted campaign, the same seed on another
machine — map to the same digest and are stored exactly once.  Writes
go through :func:`~repro.telemetry.campaign.write_atomic`, so a crashed
writer never leaves a partial object; an object, once present, is
immutable.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..telemetry.campaign import write_atomic

_HEX = set("0123456789abcdef")


def canonical_json_bytes(obj) -> bytes:
    """The canonical (digest-stable) encoding of a JSON value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ContentStore:
    """A directory of immutable objects keyed by content digest."""

    def __init__(self, root: str, observer=None) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        #: optional ServiceObserver; hooks cost a pointer test.
        self.observer = observer
        os.makedirs(self.objects_dir, exist_ok=True)

    # -- addressing -----------------------------------------------------------

    def path(self, digest: str) -> str:
        if len(digest) != 64 or not set(digest) <= _HEX:
            raise ValueError(f"not a SHA-256 digest: {digest!r}")
        return os.path.join(self.objects_dir, digest[:2], digest[2:])

    def has(self, digest: str) -> bool:
        return os.path.exists(self.path(digest))

    # -- writing --------------------------------------------------------------

    def put_bytes(self, data: bytes) -> str:
        """Store *data*, returning its digest.  Idempotent: an object
        that already exists is not rewritten (dedup)."""
        digest = digest_bytes(data)
        path = self.path(digest)
        if os.path.exists(path):
            if self.observer is not None:
                self.observer.inc("store.dedup_hits")
            return digest
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, data)
        if self.observer is not None:
            self.observer.inc("store.writes")
            self.observer.inc("store.bytes_written",
                              amount=len(data))
        return digest

    def put_json(self, obj) -> str:
        """Store the canonical encoding of *obj*."""
        return self.put_bytes(canonical_json_bytes(obj))

    # -- reading --------------------------------------------------------------

    def get(self, digest: str) -> bytes:
        try:
            with open(self.path(digest), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise KeyError(digest) from None
        if self.observer is not None:
            self.observer.inc("store.reads")
        return data

    def get_json(self, digest: str):
        return json.loads(self.get(digest).decode("utf-8"))

    def verify(self, digest: str) -> bool:
        """Recompute the digest of a stored object (bit-rot check)."""
        return digest_bytes(self.get(digest)) == digest

    def verify_all(self) -> dict:
        """Full integrity sweep (``gemfi store verify``): recompute
        every object's digest and flag what shouldn't be there.

        Returns ``{"checked", "corrupt", "orphaned", "ok"}`` —
        *corrupt* lists digests whose bytes no longer hash to their
        name (bit rot, truncation), *orphaned* lists paths under
        ``objects/`` that are not valid objects (crashed-writer temp
        files, stray names).  Reads bypass the observer counters so a
        sweep doesn't masquerade as traffic."""
        checked = 0
        corrupt: list[str] = []
        orphaned: list[str] = []
        for fan in sorted(os.listdir(self.objects_dir)):
            fan_dir = os.path.join(self.objects_dir, fan)
            if not os.path.isdir(fan_dir):
                orphaned.append(fan)
                continue
            if len(fan) != 2 or not set(fan) <= _HEX:
                orphaned.extend(f"{fan}/{name}" for name
                                in sorted(os.listdir(fan_dir)))
                continue
            for name in sorted(os.listdir(fan_dir)):
                if name.endswith(".tmp") or ".tmp." in name:
                    orphaned.append(f"{fan}/{name}")
                    continue
                digest = fan + name
                if len(digest) != 64 or not set(digest) <= _HEX:
                    orphaned.append(f"{fan}/{name}")
                    continue
                checked += 1
                try:
                    with open(os.path.join(fan_dir, name),
                              "rb") as handle:
                        data = handle.read()
                except OSError:
                    corrupt.append(digest)
                    continue
                if digest_bytes(data) != digest:
                    corrupt.append(digest)
        return {"checked": checked, "corrupt": corrupt,
                "orphaned": orphaned,
                "ok": not corrupt and not orphaned}

    # -- bookkeeping ----------------------------------------------------------

    def stats(self) -> dict:
        objects = 0
        total = 0
        for fan in sorted(os.listdir(self.objects_dir)):
            fan_dir = os.path.join(self.objects_dir, fan)
            if not os.path.isdir(fan_dir):
                continue
            for name in os.listdir(fan_dir):
                if name.endswith(".tmp") or ".tmp." in name:
                    continue
                try:
                    total += os.path.getsize(
                        os.path.join(fan_dir, name))
                except OSError:
                    continue
                objects += 1
        return {"objects": objects, "bytes": total}
