"""Archival raw store with a latency model (the paper's tape motivation).

"Often this data is archived off-line on very slow storage media (e.g.
magnetic tape) in a remote central site ... obtaining raw seismic data
can take several days" (Section 1).  We "don't propose discarding the
actual sequences.  They can be stored archivally and used when finer
resolution is needed" (Section 3).

:class:`ArchivalStore` keeps the raw bytes and *accounts for* (never
actually sleeps through) the access latency of such media, so the
benchmarks can contrast raw-archive access against local representation
access in simulated seconds.  :class:`LocalStore` models the fast local
tier the compact representations live on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.errors import StorageError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.sequence import Sequence
from repro.storage.serialization import (
    decode_representation,
    decode_sequence,
    encode_representation,
    encode_sequence,
)

__all__ = ["AccessLog", "ArchivalStore", "LocalStore"]


@dataclass
class AccessLog:
    """Running totals of simulated storage traffic."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_seconds: float = 0.0

    def record(self, kind: str, n_bytes: int, seconds: float) -> None:
        if kind == "read":
            self.reads += 1
            self.bytes_read += n_bytes
        else:
            self.writes += 1
            self.bytes_written += n_bytes
        self.simulated_seconds += seconds


@dataclass
class _LatencyModel:
    """``seconds = seek_seconds + bytes / bandwidth``."""

    seek_seconds: float
    bandwidth_bytes_per_s: float

    def cost(self, n_bytes: int) -> float:
        return self.seek_seconds + n_bytes / self.bandwidth_bytes_per_s


class ArchivalStore:
    """Slow, remote raw-sequence archive.

    Defaults model an archival tape robot: minutes of mount/seek
    latency and modest streaming bandwidth.  All costs are accounted in
    :attr:`log`, not slept through.
    """

    def __init__(self, seek_seconds: float = 120.0, bandwidth_bytes_per_s: float = 2e6) -> None:
        if seek_seconds < 0 or bandwidth_bytes_per_s <= 0:
            raise StorageError("invalid latency model")
        self._model = _LatencyModel(seek_seconds, bandwidth_bytes_per_s)
        self._blobs: dict[int, bytes] = {}
        self.log = AccessLog()

    def store(self, sequence_id: int, sequence: Sequence) -> int:
        """Archive a raw sequence; returns its encoded size."""
        if sequence_id in self._blobs:
            raise StorageError(f"sequence {sequence_id} already archived")
        blob = encode_sequence(sequence)
        self._blobs[sequence_id] = blob
        self.log.record("write", len(blob), self._model.cost(len(blob)))
        return len(blob)

    def retrieve(self, sequence_id: int) -> Sequence:
        """Fetch raw data back — the expensive "finer resolution" path."""
        try:
            blob = self._blobs[sequence_id]
        except KeyError as exc:
            raise StorageError(f"sequence {sequence_id} not archived") from exc
        self.log.record("read", len(blob), self._model.cost(len(blob)))
        return decode_sequence(blob)

    def peek(self, sequence_id: int) -> Sequence:
        """Read raw data without latency accounting.

        The streaming append path's internal read: the writer that
        extends a live sequence is modelled as holding its tail warm,
        so consulting the archived prefix is not a tape mount.  Query
        paths must keep using :meth:`retrieve` — their raw access *is*
        the cost the paper's architecture avoids.
        """
        try:
            return decode_sequence(self._blobs[sequence_id])
        except KeyError as exc:
            raise StorageError(f"sequence {sequence_id} not archived") from exc

    def replace(self, sequence_id: int, sequence: Sequence) -> int:
        """Overwrite an archived sequence with its extended form.

        The streaming tail write: only the *net new* bytes are
        accounted (appending to an archival file streams the tail, not
        the whole history).  Returns the new encoded size.
        """
        try:
            old_blob = self._blobs[sequence_id]
        except KeyError as exc:
            raise StorageError(f"sequence {sequence_id} not archived") from exc
        blob = encode_sequence(sequence)
        self._blobs[sequence_id] = blob
        appended = max(len(blob) - len(old_blob), 0)
        self.log.record("write", appended, self._model.cost(appended))
        return len(blob)

    def __contains__(self, sequence_id: int) -> bool:
        return sequence_id in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    def total_bytes(self) -> int:
        return sum(len(b) for b in self._blobs.values())

    def content_digest(self) -> str:
        """SHA-1 over every archived ``(id, blob)`` pair, id-ordered.

        No latency is accounted — this is bookkeeping (cache-snapshot
        validation), not a data access.
        """
        digest = hashlib.sha1()
        for sequence_id in sorted(self._blobs):
            digest.update(str(sequence_id).encode("utf-8"))
            digest.update(self._blobs[sequence_id])
        return digest.hexdigest()


class LocalStore:
    """Fast local tier holding the compact representations.

    Blobs are keyed by sequence id, then by variant tag, so evicting or
    probing one sequence is a single lookup however many are stored.
    """

    def __init__(self, seek_seconds: float = 0.005, bandwidth_bytes_per_s: float = 2e8) -> None:
        if seek_seconds < 0 or bandwidth_bytes_per_s <= 0:
            raise StorageError("invalid latency model")
        self._model = _LatencyModel(seek_seconds, bandwidth_bytes_per_s)
        self._blobs: dict[int, dict[str, bytes]] = {}
        self.log = AccessLog()

    def store(self, sequence_id: int, representation: FunctionSeriesRepresentation, tag: str = "default") -> int:
        if tag in self._blobs.get(sequence_id, {}):
            raise StorageError(f"representation {(sequence_id, tag)} already stored")
        blob = encode_representation(representation)
        self._blobs.setdefault(sequence_id, {})[tag] = blob
        self.log.record("write", len(blob), self._model.cost(len(blob)))
        return len(blob)

    def retrieve(self, sequence_id: int, tag: str = "default") -> FunctionSeriesRepresentation:
        try:
            blob = self._blobs[sequence_id][tag]
        except KeyError as exc:
            raise StorageError(f"representation {(sequence_id, tag)} not stored") from exc
        self.log.record("read", len(blob), self._model.cost(len(blob)))
        return decode_representation(blob)

    def evict(self, sequence_id: int) -> int:
        """Drop every stored variant of one sequence; returns bytes freed.

        Unlike the archival tier, the local tier is mutable: when a
        sequence is deleted from the database its representation blobs
        are reclaimed so storage accounting reflects only live data.
        Evicting an unknown sequence frees nothing and is not an error.
        """
        return sum(len(blob) for blob in self._blobs.pop(sequence_id, {}).values())

    def __contains__(self, key: "tuple[int, str] | int") -> bool:
        if isinstance(key, tuple):
            sequence_id, tag = key
            return tag in self._blobs.get(sequence_id, {})
        return key in self._blobs

    def __len__(self) -> int:
        return sum(len(variants) for variants in self._blobs.values())

    def total_bytes(self) -> int:
        return sum(len(blob) for variants in self._blobs.values() for blob in variants.values())
