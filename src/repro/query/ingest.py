"""Batched ingest: buffer raw sequences, flush them columnarly.

Per-sequence :meth:`~repro.query.database.SequenceDatabase.insert`
pays the whole ingest stack — breaking, feature extraction, index
maintenance, a columnar append — once per call.  The
:class:`IngestPipeline` buffers incoming sequences and flushes whole
batches through :meth:`~repro.query.database.SequenceDatabase.insert_all`,
which is columnar end to end: one frontier-batched
:meth:`~repro.segmentation.base.Breaker.break_indices_many` recursion
over every sequence in the batch at once, one segmented least-squares
fit of every window into array-backed representations, one slope
classification and symbol decode for the whole batch feeding both
pattern-index views through their bulk ``add_symbols_many`` entry
points, peaks and R-R intervals derived by
:func:`~repro.core.features.find_peaks_many` and posted as one
inverted-index block, and one whole column-block append per touched
shard.  Flushed state is bit-identical to per-sequence
inserts; the per-call Python and NumPy overhead is paid per *batch*
instead of per sequence.

The pipeline is a thin stateful front-end — ids are assigned at flush
time (in arrival order), every flushed sequence is immediately
queryable, and nothing is buffered past a ``flush()``/``with`` exit.
"""

from __future__ import annotations

from types import TracebackType
from typing import TYPE_CHECKING, Iterable

from repro.core.errors import QueryError
from repro.core.sequence import Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.database import SequenceDatabase

__all__ = ["IngestPipeline"]


class IngestPipeline:
    """Buffering front-end over a database's batched ingest.

    Parameters
    ----------
    database:
        The target database.
    batch_size:
        Buffered sequences per automatic flush; larger batches amortize
        more per-call overhead at the cost of ingest latency (a
        sequence is not queryable until its batch flushes).
    """

    def __init__(self, database: "SequenceDatabase", batch_size: int = 256) -> None:
        if batch_size < 1:
            raise QueryError(f"batch size must be at least 1, got {batch_size}")
        self.database = database
        self.batch_size = int(batch_size)
        self._buffer: "list[Sequence]" = []
        self._ingested_ids: "list[int]" = []

    @property
    def pending(self) -> int:
        """Sequences buffered but not yet flushed (not yet queryable)."""
        return len(self._buffer)

    @property
    def ingested_ids(self) -> "list[int]":
        """Ids assigned so far, in arrival order (flushed batches only)."""
        return list(self._ingested_ids)

    def add(self, sequence: Sequence) -> None:
        """Buffer one sequence; flushes automatically at ``batch_size``."""
        self._buffer.append(sequence)
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def add_many(self, sequences: "Iterable[Sequence]") -> None:
        """Buffer many sequences, flushing whenever a batch fills.

        One bulk buffer extension plus whole-batch flushes — no
        per-sequence Python call, no per-item flush check.  Batches are
        sliced at exactly ``batch_size``, so the flushed groups (and
        therefore the assigned ids) are identical to looping
        :meth:`add`.
        """
        buffer = self._buffer
        buffer.extend(
            sequences if isinstance(sequences, list) else list(sequences)
        )
        batch_size = self.batch_size
        while len(buffer) >= batch_size:
            batch = buffer[:batch_size]
            del buffer[:batch_size]
            self._ingested_ids.extend(self.database.insert_all(batch))

    def add_block(
        self,
        values: "Iterable[Iterable[float]]",
        times: "Iterable[float] | None" = None,
        names: "Iterable[str] | None" = None,
    ) -> None:
        """Buffer a whole 2-D value block of same-grid sequences.

        The columnar front door: the block is validated once and its
        rows are wrapped as zero-copy :class:`Sequence` views
        (:meth:`Sequence.from_block`) before flowing through
        :meth:`add_many` — skipping the per-sequence array copy and
        validation the scalar path pays per :meth:`add`.
        """
        self.add_many(Sequence.from_block(values, times=times, names=names))

    def flush(self) -> "list[int]":
        """Ingest everything buffered as one batch; returns its new ids."""
        if not self._buffer:
            return []
        batch, self._buffer = self._buffer, []
        sequence_ids = self.database.insert_all(batch)
        self._ingested_ids.extend(sequence_ids)
        return sequence_ids

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        # Flush only on a clean exit: after an exception the buffer's
        # provenance is unclear, and silently ingesting it would hide
        # the failure.
        if exc_type is None:
            self.flush()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(batch_size={self.batch_size}, "
            f"pending={self.pending}, ingested={len(self._ingested_ids)})"
        )
