"""The content-addressed artifact store behind the what-if service.

Artifacts are compressed once (``POST /artifacts``), persisted as
binary ``.rpb`` containers (:mod:`repro.core.binfmt`), and addressed by
the SHA-256 of their container bytes — the write is deterministic
(sorted-key header, fixed buffer layout), so the same compression
result always yields the same id, and re-uploading an identical
artifact is a no-op that returns the existing id.

Serving state is a size-bounded LRU of :class:`~repro.service.warm.\
WarmArtifact` entries keyed by that hash. Entries are loaded with
``mmap``: evicting one drops its decoded arrays and lets the OS reclaim
the page cache, and re-admitting it re-maps the file, decodes its CSR
arrays (:func:`~repro.core.binfmt.read_artifact`, well under a
millisecond at TPC-H scale in the writer's process), compiles its
evaluator from them and builds the cut's lift index — no polynomial
objects either way. Extending an
entry extends a copy of its set, so a resident entry always answers
as its file does. Hit/miss/eviction counters feed ``GET /healthz``.

The store is crash-safe. Start-up scans the spool: orphaned
``mkstemp`` temp files (a writer killed mid-``put``) are reaped, and
any ``.rpb`` whose bytes no longer hash to its filename — truncated by
a crash, or corrupted on disk — is moved into ``spool/quarantine/``
rather than served or deleted; a ``kill -9`` mid-put can cost the
in-flight artifact but never poisons the store. ``put`` itself
verifies each freshly spooled container by decoding it, and retries a
failed or corrupted write under the shared
:class:`~repro.util.retry.RetryPolicy` (fault site
``store.spool_write`` lets chaos tests corrupt exactly one write and
watch the retry recover bit-identically).
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ArtifactNotFound, SerializeError
from repro.faults import InjectedFault, inject
from repro.service.warm import WarmArtifact
from repro.util.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.api.artifact import CompressedProvenance

__all__ = ["ArtifactStore"]

#: Store ids are the full SHA-256 hex digest of the container bytes.
_ID_PATTERN = re.compile(r"^[0-9a-f]{64}$")

#: Spool writes are local-disk fast; short, tightly capped backoff.
_DEFAULT_RETRY = RetryPolicy(attempts=3, base_delay=0.02, max_delay=0.25)


class ArtifactStore:
    """A spool directory of ``.rpb`` containers + an LRU of warm entries.

    :param root: spool directory (created if missing); one
        ``<sha256>.rpb`` file per artifact. Recovered on construction
        (see the module docstring).
    :param capacity: maximum *resident* (warm, mmap-backed) artifacts;
        least-recently-used entries are evicted past that — their spool
        files stay, so a later request re-maps them on demand.
    :param retry: the :class:`~repro.util.retry.RetryPolicy` for spool
        writes (default: 3 attempts, 20 ms base, 250 ms cap).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        capacity: int = 8,
        retry: RetryPolicy | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        self.retry = _DEFAULT_RETRY if retry is None else retry
        self._entries: OrderedDict[str, WarmArtifact] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0
        self.reaped_temps = 0
        self._recover()

    # ------------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Crash-safe start-up: reap temp files, quarantine bad spools.

        A truncated or tampered ``.rpb`` is *moved*, not deleted — the
        bytes stay available for forensics under ``quarantine/`` — and
        a misnamed one (filename is not a content hash) goes with it.
        """
        for orphan in self.root.glob(".incoming-*"):
            orphan.unlink(missing_ok=True)
            self.reaped_temps += 1
        for path in sorted(self.root.glob("*.rpb")):
            stem = path.name[: -len(".rpb")]
            if _ID_PATTERN.fullmatch(stem) and _hash_file(path) == stem:
                continue
            self._quarantine(path)

    def _quarantine(self, path: Path) -> None:
        """Move a bad spool file into ``quarantine/`` (idempotent)."""
        if not path.exists():
            return
        target = self.root / "quarantine"
        target.mkdir(exist_ok=True)
        os.replace(path, target / path.name)
        self.quarantined += 1

    # --------------------------------------------------------------- writes

    #: ``put`` retries these: I/O failures, containers that will not
    #: decode back (torn/corrupted writes), and injected chaos faults.
    _RETRYABLE = (OSError, SerializeError, InjectedFault)

    def put(self, artifact: CompressedProvenance) -> str:
        """Persist ``artifact`` and return its content-hash id.

        The container is written to a temp file in the spool directory,
        hashed, and atomically renamed to ``<sha256>.rpb`` — concurrent
        writers of the same artifact race benignly (same bytes, same
        name). The freshly spooled container is then decoded back as
        verification; a write that fails or will not decode is
        quarantined and retried under :attr:`retry`, so one flaky write
        never surfaces to the client. The stored entry is reloaded
        mmap-backed so the resident copy is the cheap-to-evict one, not
        the builder's object graph.
        """
        last_error: BaseException | None = None
        for attempt in range(1, self.retry.attempts + 1):
            try:
                artifact_id = self._spool(artifact)
            except self._RETRYABLE as error:
                last_error = error
            else:
                if artifact_id in self._entries:
                    return artifact_id
                try:
                    loaded = self._load_verified(artifact_id)
                except self._RETRYABLE as error:
                    self._quarantine(self.path_of(artifact_id))
                    last_error = error
                else:
                    self._admit(artifact_id, WarmArtifact(loaded))
                    return artifact_id
            if attempt < self.retry.attempts:
                time.sleep(self.retry.delay(attempt, "store-put"))
        raise SerializeError(
            f"artifact spool write failed after {self.retry.attempts} "
            f"attempts: {last_error}"
        ) from last_error

    def _spool(self, artifact: CompressedProvenance) -> str:
        """One write attempt: temp file → hash → atomic rename."""
        from repro.core import binfmt

        handle, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".incoming-", suffix=".rpb"
        )
        try:
            os.close(handle)
            tmp = Path(tmp_name)
            binfmt.write_artifact(artifact, tmp)
            inject("store.spool_write", path=tmp)
            artifact_id = _hash_file(tmp)
            os.replace(tmp, self.path_of(artifact_id))
        finally:
            Path(tmp_name).unlink(missing_ok=True)
        return artifact_id

    # ---------------------------------------------------------------- reads

    def get(self, artifact_id: str) -> WarmArtifact:
        """The warm entry for ``artifact_id`` (LRU-promoted).

        Resident entries return immediately; spooled ones are re-mapped
        and re-warmed (a *miss*). Unknown ids — malformed, or with no
        spool file — raise :class:`~repro.errors.ArtifactNotFound`.
        """
        entry = self._entries.get(artifact_id)
        if entry is not None:
            self._entries.move_to_end(artifact_id)
            self.hits += 1
            return entry
        if not _ID_PATTERN.fullmatch(artifact_id):
            raise ArtifactNotFound(
                f"invalid artifact id {artifact_id!r} (expected the "
                "64-hex-digit content hash returned by POST /artifacts)"
            )
        if not self.path_of(artifact_id).exists():
            raise ArtifactNotFound(f"no artifact {artifact_id!r} in the store")
        self.misses += 1
        entry = self._map(artifact_id)
        self._admit(artifact_id, entry)
        return entry

    def __contains__(self, artifact_id: str) -> bool:
        return artifact_id in self._entries or (
            bool(_ID_PATTERN.fullmatch(artifact_id))
            and self.path_of(artifact_id).exists()
        )

    def path_of(self, artifact_id: str) -> Path:
        """The spool path of ``artifact_id`` (existing or not)."""
        return self.root / f"{artifact_id}.rpb"

    def stats(self) -> dict[str, object]:
        """Cache counters and occupancy, JSON-ready (for ``/healthz``)."""
        return {
            "capacity": self.capacity,
            "resident": len(self._entries),
            "spooled": sum(1 for _ in self.root.glob("*.rpb")),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "reaped_temps": self.reaped_temps,
        }

    # ------------------------------------------------------------ internals

    def _map(self, artifact_id: str) -> WarmArtifact:
        """A cold warm entry for ``artifact_id`` (see :meth:`_load_verified`)."""
        return WarmArtifact(self._load_verified(artifact_id))

    def _load_verified(self, artifact_id: str) -> CompressedProvenance:
        """Load ``artifact_id``'s container mmap-backed, verifying that
        the bytes still hash to the id (a spool file corrupted or
        swapped behind the store's back must not serve under the old
        content address)."""
        from repro.api.artifact import CompressedProvenance

        path = self.path_of(artifact_id)
        inject("store.map", path=path)
        actual = _hash_file(path)
        if actual != artifact_id:
            raise SerializeError(
                f"content hash mismatch for artifact {artifact_id!r}: the "
                f"spool file hashes to {actual!r} — the container was "
                "modified after it was stored"
            )
        return CompressedProvenance.load(path, mmap=True)

    def _admit(self, artifact_id: str, entry: WarmArtifact) -> None:
        self._entries[artifact_id] = entry
        self._entries.move_to_end(artifact_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
