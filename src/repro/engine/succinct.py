"""Succinct symbol columns: rank/select bitvectors over the slope alphabet.

At millions of sequences the two ``int8`` symbol columns (positional
segment view + run-collapsed behaviour view) dominate the store's
resident footprint, and every "how many sequences contain up-down-up"
question costs a full scan.  This module stores the same symbols as
*succinct* structures instead:

:class:`BitVector`
    A bit-packed vector with O(1) blocked **rank** (128-bit blocks
    carrying ``uint16`` popcount prefixes inside 65536-bit superblocks
    carrying ``int64`` absolute prefixes) and sampled **select** (one
    ``int32`` superblock hint per 8192th set/clear bit, binary-searched
    down to a 256x8 in-byte lookup).  Total directory overhead is
    ~0.127 bits per stored bit.
:class:`WaveletMatrix`
    The level-wise composition of bitvectors over a small alphabet
    (Claude/Gog/Petri shape): ``access``/``rank``/``select`` per symbol
    in O(levels) rank/select probes.  Over the 3-symbol slope alphabet
    this costs ~2.25 bits per symbol against the 8 bits of the raw
    ``int8`` column — a >3x reduction *with* the query structure
    included.
:class:`SuccinctSymbolIndex`
    Both symbol views of one :class:`~repro.engine.columnar.ColumnarSegmentStore`
    as wavelet matrices, maintained through the store's mutation
    journal like :class:`~repro.engine.clustering.ClusterIndex`:
    cheap generation no-op, per-id *overlay* patching for small dirty
    sets, staleness-ratio full rebuild.  Counting and motif-position
    queries are answered from rank/select probes (rarest-symbol
    candidate enumeration + batched ``access`` verification) with no
    grade scan, byte-identical to the uncompressed scan oracle
    (:func:`column_motif_hits`) the ``symbol_backend="uncompressed"``
    path keeps serving.

The module-level kernels :func:`motif_occurrences` /
:func:`column_motif_hits` are the *single* scan implementation shared
by the uncompressed backend, the succinct index's overlay handling and
the residual scalar grade — which is what makes the two backends'
answers byte-identical by construction, the same oracle discipline as
engine-vs-legacy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.errors import EngineError
from repro.index.maintenance import stale_rebuild_due

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.columnar import ColumnarSegmentStore
    from repro.engine.shm import BlockAttachments, SharedBlock, SharedMemoryArena

__all__ = [
    "BitVector",
    "WaveletMatrix",
    "SuccinctSymbolIndex",
    "attach_succinct_index",
    "motif_occurrences",
    "column_motif_hits",
]

#: Bits per machine word of the packed vector.
_WORD_BITS = 64
#: Words per rank block (128-bit blocks keep the uint16 prefix exact).
_BLOCK_WORDS = 2
_BLOCK_BITS = _WORD_BITS * _BLOCK_WORDS
#: Blocks per superblock: 512 * 128 = 65536 bits, the uint16 ceiling.
_SUPER_BLOCKS = 512
_SUPER_BITS = _BLOCK_BITS * _SUPER_BLOCKS
#: Select sampling density: one superblock hint per this many hits.
_SELECT_SAMPLE = 8192
_SELECT_SHIFT = 13  # log2(_SELECT_SAMPLE)
_SUPER_SHIFT = 16  # log2(_SUPER_BITS)

#: Wavelet-matrix depth for the slope alphabet {-1, 0, +1} mapped to
#: {0, 1, 2}: two levels cover codes 0..3.
SYMBOL_LEVELS = 2

#: Packed words are viewed little-endian so bit ``i`` of the vector is
#: bit ``i % 64`` of word ``i // 64`` on every platform.
_WORD_DTYPE = np.dtype("<u8")


def _byte_popcount_table() -> np.ndarray:
    counts = np.zeros(256, dtype=np.uint8)
    for byte in range(256):
        counts[byte] = bin(byte).count("1")
    return counts


_BYTE_POPCOUNT = _byte_popcount_table()


def _select_in_byte_table() -> np.ndarray:
    """``table[byte, k]``: position of the (k+1)-th set bit of ``byte``."""
    table = np.full((256, 8), 8, dtype=np.uint8)
    for byte in range(256):
        k = 0
        for bit in range(8):
            if byte >> bit & 1:
                table[byte, k] = bit
                k += 1
    return table


_SELECT_IN_BYTE = _select_in_byte_table()


if hasattr(np, "bitwise_count"):

    def _popcount64(words: np.ndarray) -> np.ndarray:
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - NumPy < 2.1 fallback

    def _popcount64(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return (
            _BYTE_POPCOUNT[as_bytes]
            .reshape(words.shape + (8,))
            .sum(axis=-1)
            .astype(np.int64)
        )


class BitVector:
    """Bit-packed vector with O(1) blocked rank and sampled select.

    The query methods are vectorized: they take arrays of positions or
    ranks and answer all of them in one pass.  The structure is
    immutable — mutation of the underlying column rebuilds or overlays
    at the :class:`SuccinctSymbolIndex` layer, never in place.
    """

    __slots__ = (
        "n",
        "n_ones",
        "_words",
        "_block_cum",
        "_super_cum",
        "_samples1",
        "_samples0",
        "_n_blocks",
    )

    def __init__(self, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1:
            raise EngineError("bitvector input must be one-dimensional")
        n = int(bits.shape[0])
        packed = np.packbits(bits, bitorder="little")
        n_blocks = max(1, -(-n // _BLOCK_BITS))
        padded = np.zeros(n_blocks * _BLOCK_WORDS * 8, dtype=np.uint8)
        padded[: packed.size] = packed
        words = padded.view(_WORD_DTYPE)

        word_pops = _popcount64(words)
        block_pops = word_pops.reshape(n_blocks, _BLOCK_WORDS).sum(axis=1)
        n_super = -(-n_blocks // _SUPER_BLOCKS)
        per_super = np.zeros(n_super * _SUPER_BLOCKS, dtype=np.int64)
        per_super[:n_blocks] = block_pops
        per_super = per_super.reshape(n_super, _SUPER_BLOCKS)
        relative = np.cumsum(per_super, axis=1) - per_super  # exclusive, per row
        block_cum = relative.reshape(-1)[:n_blocks].astype(np.uint16)
        super_cum = np.zeros(n_super + 1, dtype=np.int64)
        np.cumsum(per_super.sum(axis=1), out=super_cum[1:])
        n_ones = int(super_cum[-1])

        # One superblock hint per _SELECT_SAMPLE-th hit, plus a sentinel
        # (the last superblock) so the bracket lookup never branches.
        ones_at = np.flatnonzero(bits)
        samples1 = np.append(
            ones_at[::_SELECT_SAMPLE] >> _SUPER_SHIFT, n_super - 1
        ).astype(np.int32)
        zeros_at = np.flatnonzero(~bits)
        samples0 = np.append(
            zeros_at[::_SELECT_SAMPLE] >> _SUPER_SHIFT, n_super - 1
        ).astype(np.int32)

        self.n = n
        self.n_ones = n_ones
        self._words = words
        self._block_cum = block_cum
        self._super_cum = super_cum
        self._samples1 = samples1
        self._samples0 = samples0
        self._n_blocks = n_blocks

    @classmethod
    def from_arrays(
        cls,
        n: int,
        n_ones: int,
        words: np.ndarray,
        block_cum: np.ndarray,
        super_cum: np.ndarray,
        samples1: np.ndarray,
        samples0: np.ndarray,
    ) -> "BitVector":
        """Re-wrap prebuilt directory arrays (the shm attach path)."""
        vector = cls.__new__(cls)
        vector.n = int(n)
        vector.n_ones = int(n_ones)
        vector._words = words
        vector._block_cum = block_cum
        vector._super_cum = super_cum
        vector._samples1 = samples1
        vector._samples0 = samples0
        vector._n_blocks = len(words) // _BLOCK_WORDS
        return vector

    @property
    def n_zeros(self) -> int:
        return self.n - self.n_ones

    @property
    def nbytes(self) -> int:
        """Resident bytes: packed words plus every rank/select directory."""
        return (
            self._words.nbytes
            + self._block_cum.nbytes
            + self._super_cum.nbytes
            + self._samples1.nbytes
            + self._samples0.nbytes
        )

    @property
    def n_rank_blocks(self) -> int:
        """Rank directory blocks (128-bit granularity) — telemetry."""
        return self._n_blocks

    def arrays(self) -> "dict[str, np.ndarray]":
        """The five directory arrays, keyed for serialization."""
        return {
            "words": self._words,
            "block_cum": self._block_cum,
            "super_cum": self._super_cum,
            "samples1": self._samples1,
            "samples0": self._samples0,
        }

    def get(self, positions: np.ndarray) -> np.ndarray:
        """The bit at each position, as 0/1 ``int64``."""
        pos = np.asarray(positions, dtype=np.int64)
        shifts = (pos & (_WORD_BITS - 1)).astype(np.uint64)
        return ((self._words[pos >> 6] >> shifts) & np.uint64(1)).astype(np.int64)

    def rank1(self, positions: np.ndarray) -> np.ndarray:
        """Set bits strictly before each position (positions in [0, n])."""
        pos = np.asarray(positions, dtype=np.int64)
        word = np.minimum(np.maximum(pos, 0) >> 6, len(self._words) - 1)
        block = word >> 1
        rank = self._super_cum[block >> 9] + self._block_cum[block].astype(np.int64)
        # Odd word inside its 2-word block: add the first word wholesale.
        first_pop = _popcount64(self._words[(block << 1)])
        rank = rank + np.where((word & 1) == 1, first_pop, 0)
        shifts = (pos & (_WORD_BITS - 1)).astype(np.uint64)
        mask = np.left_shift(np.uint64(1), shifts) - np.uint64(1)
        rank = rank + _popcount64(self._words[word] & mask)
        return np.where(pos >= self.n, self.n_ones, rank)

    def rank0(self, positions: np.ndarray) -> np.ndarray:
        """Clear bits strictly before each position."""
        pos = np.asarray(positions, dtype=np.int64)
        return np.minimum(pos, self.n) - self.rank1(pos)

    def select1(self, ranks: np.ndarray) -> np.ndarray:
        """Position of the (k+1)-th set bit for each k (k in [0, n_ones))."""
        return self._select(ranks, ones=True)

    def select0(self, ranks: np.ndarray) -> np.ndarray:
        """Position of the (k+1)-th clear bit for each k (k in [0, n_zeros))."""
        return self._select(ranks, ones=False)

    def _super_at(self, index: np.ndarray, ones: bool) -> np.ndarray:
        if ones:
            return self._super_cum[index]
        # Padding bits are zeros, so the arithmetic complement stays a
        # valid upper bound even past the last partial superblock.
        return (index.astype(np.int64) << _SUPER_SHIFT) - self._super_cum[index]

    def _block_at(self, index: np.ndarray, ones: bool) -> np.ndarray:
        base = self._block_cum[index].astype(np.int64)
        if ones:
            return base
        return ((index & (_SUPER_BLOCKS - 1)) << 7) - base

    def _select(self, ranks: np.ndarray, ones: bool) -> np.ndarray:
        k = np.atleast_1d(np.asarray(ranks, dtype=np.int64))
        if k.size == 0:
            return np.empty(0, dtype=np.int64)
        total = self.n_ones if ones else self.n_zeros
        if int(k.min()) < 0 or int(k.max()) >= total:
            raise EngineError(
                f"select rank out of range [0, {total}) for this bitvector"
            )
        samples = self._samples1 if ones else self._samples0
        hint = k >> _SELECT_SHIFT
        lo = samples[hint].astype(np.int64)
        hi = samples[hint + 1].astype(np.int64) + 1
        # Superblock binary search: cum[lo] <= k < cum[hi] by sampling.
        while True:
            wide = hi - lo > 1
            if not bool(wide.any()):
                break
            mid = (lo + hi) >> 1
            right = self._super_at(mid, ones) <= k
            lo = np.where(wide & right, mid, lo)
            hi = np.where(wide & ~right, mid, hi)
        k_super = k - self._super_at(lo, ones)
        # Block binary search inside the superblock (<= 9 halvings).
        blo = lo << 9
        bhi = np.minimum((lo + 1) << 9, self._n_blocks)
        while True:
            wide = bhi - blo > 1
            if not bool(wide.any()):
                break
            mid = np.minimum((blo + bhi) >> 1, self._n_blocks - 1)
            right = self._block_at(mid, ones) <= k_super
            blo = np.where(wide & right, mid, blo)
            bhi = np.where(wide & ~right, mid, bhi)
        k_block = k_super - self._block_at(blo, ones)
        # Resolve the 2-word block, then the byte, then the bit.
        first = self._words[blo << 1]
        if not ones:
            first = ~first
        first_pop = _popcount64(first)
        in_second = k_block >= first_pop
        word_index = (blo << 1) + in_second
        k_word = np.where(in_second, k_block - first_pop, k_block)
        word = self._words[word_index]
        if not ones:
            word = ~word
        byte_shifts = (np.arange(8, dtype=np.uint64) << np.uint64(3))[None, :]
        word_bytes = ((word[:, None] >> byte_shifts) & np.uint64(0xFF)).astype(np.int64)
        byte_pops = _BYTE_POPCOUNT[word_bytes].astype(np.int64)
        byte_cum = np.cumsum(byte_pops, axis=1) - byte_pops  # exclusive
        byte_index = (byte_cum <= k_word[:, None]).sum(axis=1) - 1
        rows = np.arange(k.size)
        k_byte = k_word - byte_cum[rows, byte_index]
        bit = _SELECT_IN_BYTE[word_bytes[rows, byte_index], k_byte].astype(np.int64)
        return (word_index << 6) + (byte_index << 3) + bit


def _pack_plane(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Pack a uint8 bit array into ``n_words`` little-endian uint64s."""
    packed = np.packbits(bits, bitorder="little")
    words = np.zeros(n_words * 8, dtype=np.uint8)
    words[: len(packed)] = packed
    return words.view(_WORD_DTYPE)


def _trim_tail_bits(words: np.ndarray, n: int) -> None:
    """Zero every bit at position >= ``n`` in a packed word array."""
    full_words = n >> 6
    remainder = n & 63
    if remainder:
        words[full_words] &= np.uint64((1 << remainder) - 1)
        words[full_words + 1 :] = 0
    else:
        words[full_words:] = 0


def _shift_words_down(words: np.ndarray, k: int) -> np.ndarray:
    """The packed bit array shifted ``k`` positions toward bit zero."""
    shifted = np.zeros_like(words)
    word_shift, bit_shift = k >> 6, k & 63
    remaining = len(words) - word_shift
    if remaining <= 0:
        return shifted
    if bit_shift == 0:
        shifted[:remaining] = words[word_shift:]
    else:
        shifted[:remaining] = words[word_shift:] >> np.uint64(bit_shift)
        shifted[: remaining - 1] |= words[word_shift + 1 :] << np.uint64(
            64 - bit_shift
        )
    return shifted


class WaveletMatrix:
    """Wavelet matrix over a small non-negative integer alphabet.

    Level ``l`` stores bit ``n_levels - 1 - l`` of every value, with
    values stably partitioned (zeros before ones) between levels — the
    standard wavelet-matrix layout, which needs only one ``z`` offset
    per level instead of a tree of node boundaries.
    """

    __slots__ = ("n", "n_levels", "_levels", "_zeros")

    def __init__(self, values: np.ndarray, n_levels: "int | None" = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise EngineError("wavelet matrix input must be one-dimensional")
        if values.size and int(values.min()) < 0:
            raise EngineError("wavelet matrix values must be non-negative")
        max_value = int(values.max()) if values.size else 0
        levels = int(n_levels) if n_levels is not None else max(1, max_value.bit_length())
        if levels < 1:
            raise EngineError("wavelet matrix needs at least one level")
        if max_value >> levels:
            raise EngineError(
                f"value {max_value} does not fit in {levels} wavelet levels"
            )
        self.n = int(values.size)
        self.n_levels = levels
        level_vectors: "list[BitVector]" = []
        zeros: "list[int]" = []
        current = values
        for level in range(levels):
            shift = levels - 1 - level
            bits = ((current >> shift) & 1).astype(bool)
            vector = BitVector(bits)
            level_vectors.append(vector)
            zeros.append(vector.n_zeros)
            current = np.concatenate((current[~bits], current[bits]))
        self._levels = tuple(level_vectors)
        self._zeros = tuple(zeros)

    @classmethod
    def from_levels(cls, n: int, levels: "tuple[BitVector, ...]") -> "WaveletMatrix":
        """Re-wrap prebuilt per-level bitvectors (the shm attach path)."""
        matrix = cls.__new__(cls)
        matrix.n = int(n)
        matrix.n_levels = len(levels)
        matrix._levels = tuple(levels)
        matrix._zeros = tuple(vector.n_zeros for vector in levels)
        return matrix

    @property
    def levels(self) -> "tuple[BitVector, ...]":
        return self._levels

    @property
    def nbytes(self) -> int:
        return sum(vector.nbytes for vector in self._levels)

    @property
    def n_rank_blocks(self) -> int:
        return sum(vector.n_rank_blocks for vector in self._levels)

    def access(self, positions: np.ndarray) -> np.ndarray:
        """The stored value at each position (positions in [0, n))."""
        pos = np.asarray(positions, dtype=np.int64)
        values = np.zeros(pos.shape, dtype=np.int64)
        for vector, z in zip(self._levels, self._zeros):
            bit = vector.get(pos)
            values = (values << 1) | bit
            pos = np.where(bit == 1, z + vector.rank1(pos), vector.rank0(pos))
        return values

    def _descend(self, symbol: int, positions: np.ndarray) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.int64)
        for level, (vector, z) in enumerate(zip(self._levels, self._zeros)):
            if symbol >> (self.n_levels - 1 - level) & 1:
                pos = z + vector.rank1(pos)
            else:
                pos = vector.rank0(pos)
        return pos

    def rank(self, symbol: int, positions: np.ndarray) -> np.ndarray:
        """Occurrences of ``symbol`` strictly before each position."""
        symbol = int(symbol)
        pos = np.asarray(positions, dtype=np.int64)
        if symbol < 0 or symbol >> self.n_levels:
            return np.zeros(pos.shape, dtype=np.int64)
        start = self._descend(symbol, np.zeros(1, dtype=np.int64))
        return self._descend(symbol, np.minimum(pos, self.n)) - start[0]

    def count(self, symbol: int) -> int:
        """Total occurrences of ``symbol``."""
        return int(self.rank(symbol, np.array([self.n]))[0])

    def positions_of(self, symbol: int) -> np.ndarray:
        """Every position holding ``symbol``, ascending — pure select."""
        symbol = int(symbol)
        if symbol < 0 or symbol >> self.n_levels or self.n == 0:
            return np.empty(0, dtype=np.int64)
        lo = np.zeros(1, dtype=np.int64)
        hi = np.array([self.n], dtype=np.int64)
        path: "list[tuple[BitVector, int, int]]" = []
        for level, (vector, z) in enumerate(zip(self._levels, self._zeros)):
            bit = symbol >> (self.n_levels - 1 - level) & 1
            path.append((vector, z, bit))
            if bit:
                lo = z + vector.rank1(lo)
                hi = z + vector.rank1(hi)
            else:
                lo = vector.rank0(lo)
                hi = vector.rank0(hi)
        if int(hi[0]) == int(lo[0]):
            return np.empty(0, dtype=np.int64)
        positions = np.arange(int(lo[0]), int(hi[0]), dtype=np.int64)
        for vector, z, bit in reversed(path):
            positions = vector.select1(positions - z) if bit else vector.select0(positions)
        return positions

    def plane_words(self) -> "list[np.ndarray]":
        """Original-order packed bit-planes, one uint64 array per level.

        Level 0 is stored in original order already (its packed words
        are returned as-is); deeper levels are un-permuted by replaying
        each level's stable partition on an index vector — O(n) per
        level, once per caller.  Plane ``l`` holds bit
        ``n_levels - 1 - l`` of every value at its *original* position,
        64 positions per word, which is what the word-parallel motif
        kernel builds its symbol masks from.
        """
        n = self.n
        planes: "list[np.ndarray]" = []
        perm: "np.ndarray | None" = None
        for vector in self._levels:
            words = vector.arrays()["words"]
            bits: "np.ndarray | None" = None
            if perm is None:
                planes.append(words)
            else:
                bits = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
                plane = np.zeros(n, dtype=np.uint8)
                plane[perm] = bits
                planes.append(_pack_plane(plane, len(words)))
            if len(planes) < self.n_levels:
                if bits is None:
                    bits = np.unpackbits(
                        words.view(np.uint8), count=n, bitorder="little"
                    )
                # Stable-partition replay, one flatnonzero pair per level
                # (measurably faster than boolean fancy indexing).
                zero_slots = np.flatnonzero(bits == 0)
                one_slots = np.flatnonzero(bits)
                if perm is None:
                    perm = np.concatenate((zero_slots, one_slots))
                else:
                    perm = np.concatenate((perm[zero_slots], perm[one_slots]))
        return planes

    def symbol_mask_words(
        self, symbols: "Iterable[int]", planes: "list[np.ndarray] | None" = None
    ) -> "dict[int, np.ndarray]":
        """Packed per-symbol occupancy masks in original position order.

        ``masks[s]`` has bit ``i`` set iff position ``i`` holds symbol
        ``s`` — the planes combined word-parallel (64 positions per
        AND), with the padding tail cleared so complemented planes
        cannot leak phantom positions.
        """
        if planes is None:
            planes = self.plane_words()
        masks: "dict[int, np.ndarray]" = {}
        for symbol in symbols:
            symbol = int(symbol)
            if symbol < 0 or symbol >> self.n_levels:
                masks[symbol] = np.zeros(
                    len(planes[0]) if planes else 0, dtype=_WORD_DTYPE
                )
                continue
            if symbol in masks:
                continue
            mask: "np.ndarray | None" = None
            for level, plane in enumerate(planes):
                wanted = plane if symbol >> (self.n_levels - 1 - level) & 1 else ~plane
                mask = wanted.copy() if mask is None else mask & wanted
            assert mask is not None
            _trim_tail_bits(mask, self.n)
            masks[symbol] = mask
        return masks

    def motif_starts(self, symbols: np.ndarray) -> np.ndarray:
        """Global start positions of the symbol string, ascending.

        Word-parallel: the per-symbol masks are AND-ed under per-offset
        bit shifts — bit ``p`` survives iff position ``p + i`` holds
        ``symbols[i]`` for every offset — so the matching itself costs
        O(length x n / 64) word operations after the O(n) plane
        reconstruction, 64 candidate starts per machine word.
        """
        length = len(symbols)
        if length == 0 or self.n == 0 or length > self.n:
            return np.empty(0, dtype=np.int64)
        masks = self.symbol_mask_words(int(s) for s in symbols)
        accumulated = masks[int(symbols[0])].copy()
        for offset in range(1, length):
            accumulated &= _shift_words_down(masks[int(symbols[offset])], offset)
        starts = np.flatnonzero(
            np.unpackbits(
                accumulated.view(np.uint8), count=self.n, bitorder="little"
            )
        ).astype(np.int64)
        return starts[starts <= self.n - length]


# ----------------------------------------------------------------------
# Scan kernels — the single shared motif implementation (parity oracle)
# ----------------------------------------------------------------------


def motif_occurrences(symbols: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Start offsets of every occurrence of ``codes`` in ``symbols``.

    A vectorized shifted-mask AND over the symbol array — the scan
    baseline the succinct path is measured against, and the oracle both
    backends' answers reduce to.
    """
    n = int(len(symbols))
    length = int(len(codes))
    if length == 0 or n < length:
        return np.empty(0, dtype=np.int64)
    mask = symbols[: n - length + 1] == codes[0]
    for offset in range(1, length):
        mask = mask & (symbols[offset : n - length + 1 + offset] == codes[offset])
    return np.flatnonzero(mask).astype(np.int64)


def column_motif_hits(
    symbols: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    codes: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row motif occurrences in one concatenated symbol column.

    ``starts``/``counts`` must be the contiguous row layout of
    ``symbols`` (exclusive prefix sums, as the store's offset table
    always is).  Returns ``(owner_rows, local_offsets)``: for every
    global occurrence wholly inside one row, the owning row index and
    the offset within that row, in ascending global order.
    """
    hits = motif_occurrences(symbols, codes)
    if hits.size == 0 or len(starts) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    owners = np.searchsorted(starts, hits, side="right") - 1
    inside = hits + len(codes) <= starts[owners] + counts[owners]
    owners = owners[inside]
    return owners, hits[inside] - starts[owners]


# ----------------------------------------------------------------------
# The per-store index
# ----------------------------------------------------------------------


class SuccinctSymbolIndex:
    """Rank/select index over both symbol views of one leaf store.

    Lazily built from the symbol columns on first use
    (``ColumnarSegmentStore.succinct_index()``), then kept in lock-step
    with the store through its mutation journal: each sync is a cheap
    generation no-op, a per-id *overlay* patch (dirty sequences' fresh
    symbol codes kept alongside the built matrices, dead ids
    tombstoned) or a staleness-ratio full rebuild.  Mutators call
    :meth:`note_mutation` *before* touching the columns — that eager
    notification snapshots the build-time row layout while it is still
    readable, which is what lets later syncs patch instead of rebuild.

    Queries answer from the wavelet matrices for clean sequences and
    from the overlay's scan kernel for dirty ones, so answers are
    byte-identical to the uncompressed oracle in every sync state.

    Not safe for concurrent mutation — like the store it mirrors, one
    query evaluates against one shard's index at a time.
    """

    #: Accumulated dirty ids before a ratio rebuild can trigger — low:
    #: overlay scans erode the scan-free speedup quickly.
    _STALE_FLOOR = 64

    def __init__(
        self,
        store: "ColumnarSegmentStore",
        arena: "SharedMemoryArena | None" = None,
    ) -> None:
        self._store = store
        self._arena = arena
        self._segment_matrix: "WaveletMatrix | None" = None
        self._behavior_matrix: "WaveletMatrix | None" = None
        #: Build-time row layout (ids, segment counts, behaviour counts),
        #: snapshotted by the *first* mutation after a build; ``None``
        #: right after a rebuild, when the store's live layout is still
        #: identical to the built one.
        self._tables: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        #: Journal-dirty ids: fresh ``(segment_codes, behavior_codes)``
        #: for live sequences, ``None`` tombstones for dead ones.
        self._overlay: "dict[int, tuple[np.ndarray, np.ndarray] | None]" = {}
        self._block: "SharedBlock | None" = None
        self._block_spec: "list[tuple[str, str, int, int]]" = []
        self._synced_generation: "int | None" = None
        self._stale_mutations = 0
        self.builds = 0
        self.rebuilds = 0
        self.patches = 0
        self.queries = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def built(self) -> bool:
        return self._synced_generation is not None

    @property
    def nbytes(self) -> int:
        """Resident bytes of the succinct structures and overlay."""
        total = 0
        for matrix in (self._segment_matrix, self._behavior_matrix):
            if matrix is not None:
                total += matrix.nbytes
        if self._tables is not None:
            total += sum(table.nbytes for table in self._tables)
        for entry in self._overlay.values():
            if entry is not None:
                total += entry[0].nbytes + entry[1].nbytes
        return total

    def report(self) -> dict:
        """Telemetry counters for ``storage_report``."""
        n_symbols = 0
        n_rank_blocks = 0
        matrix_bytes = 0
        for matrix in (self._segment_matrix, self._behavior_matrix):
            if matrix is not None:
                n_symbols += matrix.n
                n_rank_blocks += matrix.n_rank_blocks
                matrix_bytes += matrix.nbytes
        bits_per_symbol = 8.0 * matrix_bytes / n_symbols if n_symbols else 0.0
        return {
            "built": self.built,
            "symbols": n_symbols,
            "bits_per_symbol": bits_per_symbol,
            "rank_blocks": n_rank_blocks,
            "nbytes": self.nbytes,
            "builds": self.builds,
            "rebuilds": self.rebuilds,
            "patches": self.patches,
            "overlay_entries": len(self._overlay),
            "stale_mutations": self._stale_mutations,
            "queries": self.queries,
        }

    def check_parity(self) -> None:
        """Verify every sequence's succinct symbols match the store columns.

        Runs after a fresh :meth:`sync`: clean sequences must decode
        from the wavelet matrices to exactly their live ``int8`` symbol
        rows, dirty ones must match through the overlay, and the
        overlay's tombstones must agree with liveness.  The integrity
        counterpart of ``ColumnarSegmentStore.check_consistency``.
        """
        store = self._store
        if self._synced_generation != store.generation:
            raise EngineError("succinct index parity check requires a fresh sync")
        live = {int(sequence_id) for sequence_id in store.sequence_ids}
        for sequence_id, entry in self._overlay.items():
            if entry is None and sequence_id in live:
                raise EngineError(
                    f"succinct overlay tombstones live sequence {sequence_id}"
                )
            if entry is not None and sequence_id not in live:
                raise EngineError(
                    f"succinct overlay keeps dead sequence {sequence_id}"
                )
        for collapse_runs in (False, True):
            matrix, ids, starts, counts = self._view(collapse_runs)
            built_rows = {int(built_id): row for row, built_id in enumerate(ids)}
            column = store.behavior_symbols if collapse_runs else store.segment_symbols
            for sequence_id in sorted(live):
                lo, hi = (
                    store.behavior_range(sequence_id)
                    if collapse_runs
                    else store.segment_range(sequence_id)
                )
                expected = column[lo:hi]
                if sequence_id in self._overlay:
                    entry = self._overlay[sequence_id]
                    assert entry is not None  # tombstone liveness checked above
                    actual = entry[1] if collapse_runs else entry[0]
                elif sequence_id in built_rows:
                    row = built_rows[sequence_id]
                    span = np.arange(
                        int(starts[row]),
                        int(starts[row]) + int(counts[row]),
                        dtype=np.int64,
                    )
                    actual = (matrix.access(span) - 1).astype(np.int8)
                else:
                    raise EngineError(
                        f"sequence {sequence_id} missing from succinct index"
                    )
                if len(actual) != len(expected) or not bool(
                    (actual == expected).all()
                ):
                    raise EngineError(
                        f"succinct symbols of sequence {sequence_id} disagree "
                        f"with the store columns"
                    )
            for sequence_id in built_rows:
                if sequence_id not in live and sequence_id not in self._overlay:
                    raise EngineError(
                        f"dead sequence {sequence_id} not tombstoned in "
                        f"succinct overlay"
                    )

    # ------------------------------------------------------------------
    # Maintenance: eager layout snapshot + journal-driven sync
    # ------------------------------------------------------------------

    def note_mutation(self) -> None:
        """Snapshot the built row layout *before* the store mutates.

        Called by every store mutator ahead of its first column write
        (the RL007 contract).  Idempotent and cheap: only the first
        mutation after a build copies the three layout arrays; once the
        store has moved past the built generation without a snapshot,
        the layout is unrecoverable and the next sync must rebuild.
        """
        if self._synced_generation is None or self._tables is not None:
            return
        store = self._store
        if self._synced_generation != store.generation:
            return
        n = store.n_sequences
        self._tables = (
            store.sequence_ids[:n].astype(np.int64, copy=True),
            store.segment_counts[:n].astype(np.int32, copy=True),
            store.behavior_counts[:n].astype(np.int32, copy=True),
        )

    def sync(self) -> None:
        """Bring the index to the store's current generation.

        Cheap no-op when nothing changed; overlay patching for small
        journal-named dirty sets; full rebuild when the journal
        compacted past the baseline, the eager layout snapshot is
        missing, or accumulated overlay entries trip the staleness
        ratio.
        """
        store = self._store
        if self._synced_generation is None:
            self._rebuild()
            return
        if store.generation == self._synced_generation:
            return
        dirty = store.dirty_ids_since((self._synced_generation,))
        if dirty is None or self._tables is None:
            self._rebuild()
            return
        self._stale_mutations += len(dirty)
        if stale_rebuild_due(self._stale_mutations, len(self._tables[0]), self._STALE_FLOOR):
            self._rebuild()
            return
        for sequence_id in sorted(dirty):
            if sequence_id in store:
                seg_lo, seg_hi = store.segment_range(sequence_id)
                beh_lo, beh_hi = store.behavior_range(sequence_id)
                self._overlay[sequence_id] = (
                    store.segment_symbols[seg_lo:seg_hi].copy(),
                    store.behavior_symbols[beh_lo:beh_hi].copy(),
                )
            else:
                self._overlay[sequence_id] = None
        self.patches += 1
        self._synced_generation = store.generation

    def _rebuild(self) -> None:
        store = self._store
        was_built = self._synced_generation is not None
        # Slope codes {-1, 0, +1} shift to wavelet symbols {0, 1, 2}.
        self._segment_matrix = WaveletMatrix(
            store.segment_symbols.astype(np.int64) + 1, n_levels=SYMBOL_LEVELS
        )
        self._behavior_matrix = WaveletMatrix(
            store.behavior_symbols.astype(np.int64) + 1, n_levels=SYMBOL_LEVELS
        )
        self._tables = None
        self._overlay = {}
        self._synced_generation = store.generation
        self._stale_mutations = 0
        self.builds += 1
        if was_built:
            self.rebuilds += 1
        self._publish_to_arena()

    # ------------------------------------------------------------------
    # Queries: scan-free counting and motif positions
    # ------------------------------------------------------------------

    def _view(
        self, collapse_runs: bool
    ) -> "tuple[WaveletMatrix, np.ndarray, np.ndarray, np.ndarray]":
        """One symbol view's matrix and built row layout.

        Right after a rebuild (``_tables is None``) the store's live
        offset table *is* the built layout; after the first mutation the
        eager snapshot takes over, so wavelet positions always map to
        build-time rows no matter how far the live columns have moved.
        """
        matrix = self._behavior_matrix if collapse_runs else self._segment_matrix
        if matrix is None:  # pragma: no cover - callers sync first
            raise EngineError("succinct index queried before build")
        if self._tables is None:
            store = self._store
            ids = store.sequence_ids
            counts = store.behavior_counts if collapse_runs else store.segment_counts
        else:
            ids, seg_counts, beh_counts = self._tables
            counts = beh_counts if collapse_runs else seg_counts
        starts = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts.astype(np.int64), out=starts[1:])
        return matrix, ids, starts[:-1], counts

    def _matrix_hits(
        self, matrix: WaveletMatrix, codes: np.ndarray
    ) -> np.ndarray:
        """Global start positions of the motif over the packed levels.

        The word-parallel kernel (:meth:`WaveletMatrix.motif_starts`):
        per-symbol occupancy masks rebuilt from the wavelet planes,
        AND-ed under per-offset bit shifts — 64 candidate starts per
        machine word, no per-sequence grade scan.
        """
        return matrix.motif_starts(np.asarray(codes, dtype=np.int64) + 1)

    def _owned_hits(
        self, codes: np.ndarray, collapse_runs: bool
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(owner_ids, offsets, clean_ids)`` for the built matrices.

        Occurrences owned by overlay (dirty) ids are dropped — the
        overlay's scan path answers those rows — and ``clean_ids`` is
        the id universe the matrix answer covers.
        """
        matrix, ids, starts, counts = self._view(collapse_runs)
        hits = self._matrix_hits(matrix, codes)
        if hits.size and len(ids):
            owners = np.searchsorted(starts, hits, side="right") - 1
            inside = hits + len(codes) <= starts[owners] + counts[owners]
            owners = owners[inside]
            offsets = hits[inside] - starts[owners]
            owner_ids = ids[owners]
        else:
            owner_ids = np.empty(0, dtype=np.int64)
            offsets = np.empty(0, dtype=np.int64)
        if self._overlay:
            dirty = np.fromiter(self._overlay, dtype=np.int64, count=len(self._overlay))
            keep = ~np.isin(owner_ids, dirty)
            owner_ids = owner_ids[keep]
            offsets = offsets[keep]
            clean_ids = ids[~np.isin(ids, dirty)]
        else:
            clean_ids = ids
        return owner_ids, offsets, clean_ids

    def _overlay_hits(
        self, codes: np.ndarray, collapse_runs: bool
    ) -> "tuple[list[int], list[np.ndarray]]":
        """Scan-kernel answers for the overlay's live dirty sequences."""
        hit_ids: "list[int]" = []
        hit_offsets: "list[np.ndarray]" = []
        for sequence_id in sorted(self._overlay):
            entry = self._overlay[sequence_id]
            if entry is None:
                continue
            offsets = motif_occurrences(entry[1] if collapse_runs else entry[0], codes)
            if offsets.size:
                hit_ids.append(sequence_id)
                hit_offsets.append(offsets)
        return hit_ids, hit_offsets

    def sequences_containing(
        self, codes: np.ndarray, collapse_runs: bool = True
    ) -> np.ndarray:
        """Ids of every sequence containing the motif, ascending."""
        self.queries += 1
        owner_ids, __, ___ = self._owned_hits(codes, collapse_runs)
        if owner_ids.size:
            # Hits ascend globally, so owner ids arrive non-decreasing:
            # dedup with one diff instead of a union sort.
            keep = np.empty(owner_ids.size, dtype=bool)
            keep[0] = True
            np.not_equal(owner_ids[1:], owner_ids[:-1], out=keep[1:])
            owner_ids = owner_ids[keep]
        if not self._overlay:
            return owner_ids
        overlay_ids, __ = self._overlay_hits(codes, collapse_runs)
        return np.union1d(owner_ids, np.asarray(overlay_ids, dtype=np.int64))

    def occurrences(
        self, codes: np.ndarray, collapse_runs: bool = True
    ) -> "list[tuple[int, np.ndarray]]":
        """``(sequence_id, offsets)`` per matching sequence, id-ascending.

        Offsets are ascending within each sequence — byte-identical to
        scanning every row with :func:`motif_occurrences`.
        """
        self.queries += 1
        owner_ids, offsets, __ = self._owned_hits(codes, collapse_runs)
        per_sequence: "dict[int, list[np.ndarray] | np.ndarray]" = {}
        if owner_ids.size:
            order = np.lexsort((offsets, owner_ids))
            owner_ids = owner_ids[order]
            offsets = offsets[order]
            boundaries = np.flatnonzero(np.diff(owner_ids)) + 1
            for ids_run, offs_run in zip(
                np.split(owner_ids, boundaries), np.split(offsets, boundaries)
            ):
                per_sequence[int(ids_run[0])] = offs_run
        overlay_ids, overlay_offsets = self._overlay_hits(codes, collapse_runs)
        for sequence_id, offs in zip(overlay_ids, overlay_offsets):
            per_sequence[sequence_id] = offs
        return [
            (sequence_id, np.asarray(per_sequence[sequence_id], dtype=np.int64))
            for sequence_id in sorted(per_sequence)
        ]

    # ------------------------------------------------------------------
    # Shared-memory publication (zero-copy worker attach)
    # ------------------------------------------------------------------

    def _packed_arrays(self) -> "list[tuple[str, np.ndarray]]":
        arrays: "list[tuple[str, np.ndarray]]" = []
        for prefix, matrix in (
            ("seg", self._segment_matrix),
            ("beh", self._behavior_matrix),
        ):
            assert matrix is not None
            for level, vector in enumerate(matrix.levels):
                for name, array in vector.arrays().items():
                    arrays.append((f"{prefix}.{level}.{name}", array))
        return arrays

    def _publish_to_arena(self) -> None:
        """Copy the freshly built directories into one arena block.

        The block is the workers' zero-copy view; the old block (from
        the previous build) retires through the arena so reader
        processes holding it get a clean ``FileNotFoundError`` retry,
        exactly like column reallocation.  Heap stores skip this.
        """
        arena = self._arena
        old_block = self._block
        if arena is None or arena.closed:
            self._block = None
            self._block_spec = []
            return
        arrays = self._packed_arrays()
        offsets: "list[int]" = []
        cursor = 0
        for __, array in arrays:
            cursor = -(-cursor // 8) * 8  # 8-byte alignment per array
            offsets.append(cursor)
            cursor += array.nbytes
        block = arena.allocate(max(cursor, 1), label="succinct")
        spec: "list[tuple[str, str, int, int]]" = []
        for (key, array), offset in zip(arrays, offsets):
            target = np.ndarray(
                array.shape, dtype=array.dtype, buffer=block.buf, offset=offset
            )
            target[:] = array
            spec.append((key, array.dtype.str, offset, len(array)))
        self._block = block
        self._block_spec = spec
        if old_block is not None:
            arena.retire(old_block)

    def shm_manifest(self) -> "dict[str, Any] | None":
        """Worker attachment manifest, or ``None`` when unpublishable.

        Only a built index whose arena block matches the store's current
        generation (after :meth:`sync`) is published; workers without a
        manifest fall back to the scan kernels, which answer
        identically.  The overlay and layout snapshot ride along as
        plain bytes — they are journal-bounded small.
        """
        if (
            self._block is None
            or self._segment_matrix is None
            or self._behavior_matrix is None
            or self._synced_generation != self._store.generation
        ):
            return None
        overlay: "dict[int, tuple[bytes, bytes] | None]" = {}
        for sequence_id, entry in self._overlay.items():
            overlay[sequence_id] = (
                None if entry is None else (entry[0].tobytes(), entry[1].tobytes())
            )
        tables = None
        if self._tables is not None:
            tables = tuple(table.tobytes() for table in self._tables)
        return {
            "generation": self._synced_generation,
            "block": self._block.name,
            "arrays": list(self._block_spec),
            "matrices": {
                "seg": self._matrix_scalars(self._segment_matrix),
                "beh": self._matrix_scalars(self._behavior_matrix),
            },
            "overlay": overlay,
            "tables": tables,
        }

    @staticmethod
    def _matrix_scalars(matrix: WaveletMatrix) -> "dict[str, Any]":
        return {
            "n": matrix.n,
            "levels": [
                {"n": vector.n, "n_ones": vector.n_ones} for vector in matrix.levels
            ],
        }


def attach_succinct_index(
    store: "ColumnarSegmentStore",
    manifest: "dict[str, Any]",
    attachments: "BlockAttachments",
) -> SuccinctSymbolIndex:
    """Rebuild a zero-copy read view of a succinct index from its manifest.

    Worker processes call this after attaching the parent store: every
    bitvector directory becomes a NumPy view over the shared block (no
    bits are copied), and the journal overlay / layout snapshot are
    rehydrated from their manifest bytes.  A retired block raises
    ``FileNotFoundError`` from ``attachments.get``, which the process
    executor converts into a snapshot retry.
    """
    buffer = attachments.get(str(manifest["block"]))
    views: "dict[str, np.ndarray]" = {}
    for key, dtype_str, offset, length in manifest["arrays"]:
        views[key] = np.ndarray(
            (int(length),), dtype=np.dtype(dtype_str), buffer=buffer, offset=int(offset)
        )
    index = SuccinctSymbolIndex(store)
    matrices: "dict[str, WaveletMatrix]" = {}
    for prefix in ("seg", "beh"):
        scalars = manifest["matrices"][prefix]
        vectors = []
        for level, level_scalars in enumerate(scalars["levels"]):
            vectors.append(
                BitVector.from_arrays(
                    int(level_scalars["n"]),
                    int(level_scalars["n_ones"]),
                    views[f"{prefix}.{level}.words"],
                    views[f"{prefix}.{level}.block_cum"],
                    views[f"{prefix}.{level}.super_cum"],
                    views[f"{prefix}.{level}.samples1"],
                    views[f"{prefix}.{level}.samples0"],
                )
            )
        matrices[prefix] = WaveletMatrix.from_levels(int(scalars["n"]), tuple(vectors))
    index._segment_matrix = matrices["seg"]
    index._behavior_matrix = matrices["beh"]
    overlay: "dict[int, tuple[np.ndarray, np.ndarray] | None]" = {}
    for sequence_id, entry in manifest["overlay"].items():
        overlay[int(sequence_id)] = (
            None
            if entry is None
            else (
                np.frombuffer(entry[0], dtype=np.int8),
                np.frombuffer(entry[1], dtype=np.int8),
            )
        )
    index._overlay = overlay
    if manifest["tables"] is not None:
        ids_bytes, seg_bytes, beh_bytes = manifest["tables"]
        index._tables = (
            np.frombuffer(ids_bytes, dtype=np.int64),
            np.frombuffer(seg_bytes, dtype=np.int32),
            np.frombuffer(beh_bytes, dtype=np.int32),
        )
    index._synced_generation = int(manifest["generation"])
    return index
