"""Compact binary codec for sequences and representations.

The paper's storage argument is quantitative — "500-point sequences are
represented by about 20 function segments ... about a factor of 8
reduction in space" — so the library needs an actual byte-level format
to measure.  The codec is self-describing and versioned:

* raw sequences: header + float64 samples (times stored only when the
  grid is non-uniform);
* representations: header + per-segment records of
  ``(family tag, parameter block, index window, endpoint pairs)``.

An all-line representation's segment table is a run of fixed-size
``<BH2dIIdddd`` records, packed from and unpacked into its arrays in one
NumPy call each way.  Other families decode into real function objects
through a family registry.  Either way a round-tripped representation
answers queries identically.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from repro.core.errors import StorageError
from repro.core.representation import FunctionSeriesRepresentation
from repro.core.segment import Segment
from repro.core.sequence import Sequence
from repro.functions.base import FittedFunction
from repro.functions.bezier import CubicBezier
from repro.functions.linear import LinearFunction
from repro.functions.polynomial import PolynomialFunction
from repro.functions.sinusoid import Sinusoid

__all__ = [
    "encode_sequence",
    "decode_sequence",
    "encode_representation",
    "decode_representation",
    "encode_cache_snapshot",
    "decode_cache_snapshot",
    "raw_size_bytes",
    "representation_size_bytes",
]

_MAGIC_SEQ = b"RSQ1"
_MAGIC_REP = b"RRP1"
_MAGIC_CACHE = b"RCS1"

_FAMILY_TAGS = {"linear": 1, "poly": 2, "sin": 3, "bezier": 4}
_TAG_FAMILIES = {v: k for k, v in _FAMILY_TAGS.items()}


def _function_from(family: str, params: tuple[float, ...]) -> FittedFunction:
    if family == "linear":
        if len(params) != 2:
            raise StorageError(f"linear function needs 2 parameters, got {len(params)}")
        return LinearFunction(*params)
    if family == "poly":
        return PolynomialFunction(params)
    if family == "sin":
        if len(params) != 4:
            raise StorageError(f"sinusoid needs 4 parameters, got {len(params)}")
        return Sinusoid(*params)
    if family == "bezier":
        if len(params) != 8:
            raise StorageError(f"bezier needs 8 parameters, got {len(params)}")
        return CubicBezier(np.asarray(params, dtype=float).reshape(4, 2))
    raise StorageError(f"unknown function family {family!r}")


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------


def encode_sequence(sequence: Sequence) -> bytes:
    """Serialize a raw sequence.

    Uniform sequences store ``(start, step)`` instead of the full time
    axis — the honest baseline for the compression comparison, since
    sampled instruments emit uniform grids.
    """
    name_bytes = sequence.name.encode("utf-8")
    uniform = sequence.is_uniform()
    parts = [
        _MAGIC_SEQ,
        struct.pack("<H", len(name_bytes)),
        name_bytes,
        struct.pack("<?", uniform),
        struct.pack("<I", len(sequence)),
    ]
    if uniform:
        # Uniformity was just established; read the step directly
        # instead of paying sampling_step()'s second is_uniform() check.
        step = float(sequence.times[1] - sequence.times[0]) if len(sequence) > 1 else 1.0
        parts.append(struct.pack("<dd", sequence.start_time, step))
    else:
        parts.append(sequence.times.astype("<f8").tobytes())
    parts.append(sequence.values.astype("<f8").tobytes())
    return b"".join(parts)


def decode_sequence(blob: bytes) -> Sequence:
    view = memoryview(blob)
    if bytes(view[:4]) != _MAGIC_SEQ:
        raise StorageError("not a serialized sequence (bad magic)")
    offset = 4
    (name_len,) = struct.unpack_from("<H", view, offset)
    offset += 2
    name = bytes(view[offset : offset + name_len]).decode("utf-8")
    offset += name_len
    (uniform,) = struct.unpack_from("<?", view, offset)
    offset += 1
    (n,) = struct.unpack_from("<I", view, offset)
    offset += 4
    if uniform:
        start, step = struct.unpack_from("<dd", view, offset)
        offset += 16
        times = start + step * np.arange(n, dtype=float)
    else:
        times = np.frombuffer(view, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
    values = np.frombuffer(view, dtype="<f8", count=n, offset=offset).copy()
    return Sequence(times, values, name=name)


def raw_size_bytes(sequence: Sequence) -> int:
    """Encoded size of the raw sequence."""
    return len(encode_sequence(sequence))


# ----------------------------------------------------------------------
# Representations
# ----------------------------------------------------------------------


#: One all-line segment record, ``<BH2dIIdddd`` as a packed NumPy dtype
#: (no alignment padding): family tag, parameter count, slope,
#: intercept, index window, start and end ``(time, value)``.
_LINE_RECORD = np.dtype(
    [
        ("tag", "u1"),
        ("n_params", "<u2"),
        ("slope", "<f8"),
        ("intercept", "<f8"),
        ("start_index", "<u4"),
        ("end_index", "<u4"),
        ("start_time", "<f8"),
        ("start_value", "<f8"),
        ("end_time", "<f8"),
        ("end_value", "<f8"),
    ]
)
_GEOMETRY_FIELDS = ("start_index", "end_index", "start_time", "start_value", "end_time", "end_value")


def encode_representation(representation: FunctionSeriesRepresentation) -> bytes:
    name_bytes = representation.name.encode("utf-8")
    kind_bytes = representation.curve_kind.encode("utf-8")
    parts = [
        _MAGIC_REP,
        struct.pack("<H", len(name_bytes)),
        name_bytes,
        struct.pack("<H", len(kind_bytes)),
        kind_bytes,
        struct.pack("<Id", representation.source_length, representation.epsilon),
        struct.pack("<I", len(representation)),
    ]
    lines = representation.line_coefficients()
    if lines is not None:
        # A line representation packs its whole segment table from its
        # arrays: the same bytes as packing each segment's record.
        columns = representation.segment_columns()
        records = np.empty(len(representation), dtype=_LINE_RECORD)
        records["tag"] = _FAMILY_TAGS["linear"]
        records["n_params"] = 2
        records["slope"], records["intercept"] = lines
        for field in _GEOMETRY_FIELDS:
            records[field] = columns[field]
        parts.append(records.tobytes())
        return b"".join(parts)
    for segment in representation.segments:
        family = segment.function.family
        if family not in _FAMILY_TAGS:
            raise StorageError(f"family {family!r} has no storage tag")
        params = segment.function.parameters()
        parts.append(
            struct.pack(
                f"<BH{len(params)}dIIdddd",
                _FAMILY_TAGS[family],
                len(params),
                *params,
                segment.start_index,
                segment.end_index,
                segment.start_point[0],
                segment.start_point[1],
                segment.end_point[0],
                segment.end_point[1],
            )
        )
    return b"".join(parts)


def decode_representation(blob: bytes) -> FunctionSeriesRepresentation:
    view = memoryview(blob)
    if bytes(view[:4]) != _MAGIC_REP:
        raise StorageError("not a serialized representation (bad magic)")
    offset = 4
    (name_len,) = struct.unpack_from("<H", view, offset)
    offset += 2
    name = bytes(view[offset : offset + name_len]).decode("utf-8")
    offset += name_len
    (kind_len,) = struct.unpack_from("<H", view, offset)
    offset += 2
    curve_kind = bytes(view[offset : offset + kind_len]).decode("utf-8")
    offset += kind_len
    source_length, epsilon = struct.unpack_from("<Id", view, offset)
    offset += 12
    (n_segments,) = struct.unpack_from("<I", view, offset)
    offset += 4
    if n_segments and len(view) - offset == n_segments * _LINE_RECORD.itemsize:
        records = np.frombuffer(view, dtype=_LINE_RECORD, count=n_segments, offset=offset)
        if bool(np.all(records["tag"] == _FAMILY_TAGS["linear"])) and bool(
            np.all(records["n_params"] == 2)
        ):
            # Every record is a line, so the table is a run of
            # fixed-size records: the segment-by-segment parse below
            # would read exactly these fields.
            return FunctionSeriesRepresentation.from_line_columns(
                {field: records[field] for field in _GEOMETRY_FIELDS},
                records["slope"],
                records["intercept"],
                name=name,
                source_length=source_length,
                curve_kind=curve_kind,
                epsilon=epsilon,
            )
    segments = []
    for _ in range(n_segments):
        tag, n_params = struct.unpack_from("<BH", view, offset)
        offset += 3
        params = struct.unpack_from(f"<{n_params}d", view, offset)
        offset += 8 * n_params
        start_index, end_index = struct.unpack_from("<II", view, offset)
        offset += 8
        st, sv, et, ev = struct.unpack_from("<dddd", view, offset)
        offset += 32
        family = _TAG_FAMILIES.get(tag)
        if family is None:
            raise StorageError(f"unknown family tag {tag}")
        segments.append(
            Segment(
                function=_function_from(family, tuple(params)),
                start_index=start_index,
                end_index=end_index,
                start_point=(st, sv),
                end_point=(et, ev),
            )
        )
    return FunctionSeriesRepresentation(
        segments,
        name=name,
        source_length=source_length,
        curve_kind=curve_kind,
        epsilon=epsilon,
    )


def representation_size_bytes(representation: FunctionSeriesRepresentation) -> int:
    """Encoded size of a representation."""
    return len(encode_representation(representation))


# ----------------------------------------------------------------------
# Result-cache snapshots
# ----------------------------------------------------------------------


def encode_cache_snapshot(payload: dict) -> bytes:
    """Serialize a plan-result-cache snapshot (see storage.catalog).

    Magic + SHA-1 checksum + canonical JSON body.  The payload is a
    JSON-safe dict of primitives (fingerprint keys become nested lists;
    infinite deviation amounts round-trip through Python's JSON
    ``Infinity`` extension).  The checksum makes tampering or torn
    writes loudly detectable at load time.
    """
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _MAGIC_CACHE + hashlib.sha1(body).digest() + body


def decode_cache_snapshot(blob: bytes) -> dict:
    """Verify and parse a cache snapshot blob.

    Raises :class:`~repro.core.errors.StorageError` on a bad magic,
    a checksum mismatch (corrupted/mutated file) or malformed JSON.
    """
    if len(blob) < 24 or bytes(blob[:4]) != _MAGIC_CACHE:
        raise StorageError("not a serialized cache snapshot (bad magic)")
    checksum = bytes(blob[4:24])
    body = bytes(blob[24:])
    if hashlib.sha1(body).digest() != checksum:
        raise StorageError("cache snapshot corrupted (checksum mismatch)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"cache snapshot unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise StorageError("cache snapshot body is not an object")
    return payload
