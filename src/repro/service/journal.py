"""Write-ahead recovery journal: no admitted request is ever lost.

Before a service worker starts an exploration or a kernel run, the
request is journaled — one JSON file per in-flight request, written
atomically (:func:`repro.cache.write_atomic`), carrying the request id,
its kind, the *structural hash* of the program and a JSON ``spec`` that
a resolver can rebuild the request from.  The entry is removed
(*committed*) only when the request completes — success, deterministic
failure, or cancellation all count as completion; only a dead process
does not.  A ``SIGKILL`` mid-exploration therefore leaves exactly the
orphaned requests' entries behind, and a restarted service re-enqueues
them (:meth:`~repro.service.daemon.TuningService.recover`) instead of
losing the work.  The shared :class:`~repro.cache.TuningCache` needs no
repair on that path — its own atomic-write/quarantine machinery (PR 6)
guarantees a killed writer leaves no partial entry — so replaying an
orphan is always safe (at-least-once, and idempotent through the
cache).

Entry format (documented for ``src/repro/SERVICE.md``)::

    <journal-dir>/<request-id>.journal
    {"version": 1, "id": ..., "kind": "run"|"tune",
     "structural_hash": ..., "spec": {...}, "sequence": N}

A corrupt entry (unreadable JSON, wrong version, id/filename mismatch)
is moved aside as ``<name>.corrupt`` — visible, never silently
unlinked, mirroring the cache's quarantine policy.  Writes pass
through the ``service-journal`` fault-injection site with bounded
in-place retries; an escape degrades to *unjournaled* execution (the
request loses crash recovery, never correctness) and is counted.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro import faultinject, obs
from repro.cache import write_atomic
from repro.faultinject import FaultInjected

__all__ = ["JournalEntry", "RecoveryJournal", "JOURNAL_VERSION"]

JOURNAL_VERSION = 1
_SUFFIX = ".journal"


@dataclass(frozen=True)
class JournalEntry:
    """One in-flight (or orphaned) request on disk."""

    request_id: str
    kind: str  # "run" | "tune"
    structural_hash: str
    spec: Optional[dict]
    sequence: int = 0

    def as_dict(self) -> dict:
        return {
            "version": JOURNAL_VERSION,
            "id": self.request_id,
            "kind": self.kind,
            "structural_hash": self.structural_hash,
            "spec": self.spec,
            "sequence": self.sequence,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "JournalEntry":
        if doc.get("version") != JOURNAL_VERSION:
            raise ValueError(f"journal version {doc.get('version')!r}")
        return cls(
            request_id=str(doc["id"]),
            kind=str(doc["kind"]),
            structural_hash=str(doc["structural_hash"]),
            spec=doc.get("spec"),
            sequence=int(doc.get("sequence", 0)),
        )


class RecoveryJournal:
    """Directory of atomically-written per-request entry files."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._sequence = 0
        #: Entries that could not be journaled (injected fault escaped
        #: every in-place retry, or an OSError): the request still ran,
        #: it just lost crash recovery.
        self.skipped_writes = 0

    def _path(self, request_id: str) -> Path:
        return self.root / f"{request_id}{_SUFFIX}"

    # ------------------------------------------------------------------
    def begin(self, entry: JournalEntry) -> bool:
        """Journal one request before its work starts.

        Returns ``False`` (and counts it) when the write could not
        happen — the caller proceeds unjournaled rather than failing
        the request over lost *recovery*.
        """
        with self._lock:
            self._sequence += 1
            seq = self._sequence
        doc = dict(entry.as_dict(), sequence=seq)
        with obs.span("service.journal.begin", id=entry.request_id):
            try:
                faultinject.survive("service-journal")
            except FaultInjected:
                with self._lock:
                    self.skipped_writes += 1
                obs.inc("service.journal.skipped")
                return False
            try:
                write_atomic(
                    self._path(entry.request_id), json.dumps(doc).encode()
                )
            except OSError:
                with self._lock:
                    self.skipped_writes += 1
                obs.inc("service.journal.skipped")
                return False
        obs.inc("service.journal.begins")
        return True

    def commit(self, request_id: str) -> None:
        """Remove a completed request's entry (idempotent)."""
        try:
            self._path(request_id).unlink()
            obs.inc("service.journal.commits")
        except FileNotFoundError:
            pass
        except OSError:
            pass

    def quarantine(self, request_id: str, reason: str = "unrecoverable") -> None:
        """Move an entry aside as ``<name>.<reason>`` — for orphans no
        resolver could rebuild; visible on disk, never silently lost."""
        path = self._path(request_id)
        obs.instant("service.journal.quarantined", entry=path.name, reason=reason)
        obs.inc("service.journal.quarantined")
        try:
            os.replace(path, path.with_name(f"{path.name}.{reason}"))
        except OSError:
            pass

    # ------------------------------------------------------------------
    def pending(self) -> List[JournalEntry]:
        """Orphaned entries on disk, oldest (lowest sequence) first.

        Corrupt files are moved aside as ``<name>.corrupt`` — counted,
        never silently dropped."""
        if not self.root.is_dir():
            return []
        entries: List[JournalEntry] = []
        for path in sorted(self.root.iterdir()):
            if path.suffix != _SUFFIX or not path.is_file():
                continue
            try:
                entry = JournalEntry.from_dict(json.loads(path.read_text()))
                if entry.request_id != path.name[: -len(_SUFFIX)]:
                    raise ValueError("entry id does not match filename")
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                self._quarantine(path)
                continue
            entries.append(entry)
        entries.sort(key=lambda e: (e.sequence, e.request_id))
        return entries

    def _quarantine(self, path: Path) -> None:
        obs.instant("service.journal.corrupt", entry=path.name)
        obs.inc("service.journal.corrupt")
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(
            1
            for p in self.root.iterdir()
            if p.suffix == _SUFFIX and p.is_file()
        )
