"""Detector timestamp streams and their file formats.

A stream models the output of one detector of a time-to-digital
converter: its picosecond timestamps, stored as a numpy int64 array.
The XX and X photons go to separate detectors, so a stream file holds
one of them, and its name says which. Files come in the two
``FORMATS``, each with its file extension:

* binary (``.ctts``): 16-byte header (magic ``CTTS``, u32 version, u64
  event count, little endian). In version 3 the little-endian int64
  stamps follow; version 4, for simulation-truth exports, adds one u8
  origin code per event after them.
* CSV (``.csv``): exactly the header ``timestamp_ps``, or
  ``timestamp_ps,origin`` with truth tags, and rows as wide.

``import_stream`` tells the formats apart by the magic. Versions 1 and 2
and the CSV headers that begin ``channel,`` also stored a channel per
event; they are refused. The stream type checks its stamps (a 1-D array,
nonnegative) and origin codes (those of ``_ORIGIN_CODE``); a file that
breaks either, is malformed or is not UTF-8 raises a ParseError that
names its path. Simulation-truth origin tags are stripped on export
unless explicitly requested.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError

#: Stream file format -> file extension.
FORMATS = {"binary": "ctts", "csv": "csv"}
MAGIC = b"CTTS"
_HEADER = struct.Struct("<4sIQ")
_VERSION = (3, 4)  # [origins kept]
_CSV_BLOCK = 1 << 16  # rows per CSV export block, which bounds its memory

# contiguous codes 1 to len(_ORIGIN_CODE), so that a min/max test checks a stream's
_ORIGIN_CODE = {"XX": 1, "X": 2, "background": 3}
_CODE_ORIGIN = {v: k for k, v in _ORIGIN_CODE.items()}
_CSV_HEADER = ("timestamp_ps", "timestamp_ps,origin")  # [origins kept]


@dataclass
class TimestampStream:
    """Time-ordered detection events of one detector, with nonnegative picosecond stamps."""

    timestamps_ps: np.ndarray
    origins: Optional[np.ndarray] = None  # uint8 codes, None once stripped
    _sorted: bool = field(default=False, repr=False)

    def __post_init__(self):
        self.timestamps_ps = np.asarray(self.timestamps_ps, dtype=np.int64)
        if self.timestamps_ps.ndim != 1:
            raise ValidationError(
                f"timestamps must be a 1-D array, got shape {self.timestamps_ps.shape}")
        if self.origins is not None:
            # checked before the cast to u8, which would wrap 257 to 1 and cut 1.5 to 1
            codes, top = np.asarray(self.origins), len(_ORIGIN_CODE)
            if codes.shape != self.timestamps_ps.shape:
                raise ValidationError("origins must match event count")
            if len(codes) and (codes.dtype.kind not in "iu" or codes.min() < 1
                               or codes.max() > top):
                bad = np.flatnonzero(~np.isin(codes, np.arange(1, top + 1)))
                if len(bad):
                    raise ValidationError(f"bad origin code {codes[bad[0]]} (record {bad[0]})")
            self.origins = codes.astype(np.uint8, copy=False)
        ts = self.timestamps_ps
        # sorted stamps have their minimum first: no full scan
        if len(ts) and (ts[0] if self._sorted else ts.min()) < 0:
            raise ValidationError("timestamps must be nonnegative")
        if not self._sorted:
            order = np.argsort(self.timestamps_ps, kind="stable")
            self.timestamps_ps = self.timestamps_ps[order]
            if self.origins is not None:
                self.origins = self.origins[order]
            self._sorted = True

    def __len__(self):
        return len(self.timestamps_ps)

    def origin_labels(self):
        if self.origins is None:
            return None
        return np.array([_CODE_ORIGIN[c] for c in self.origins.tolist()])


def export_stream(stream: TimestampStream, path, fmt="binary", include_truth=False):
    """Write a stream to ``path``; origin tags are dropped unless asked for."""
    path = str(path)
    truth = bool(include_truth) and stream.origins is not None
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, _VERSION[truth], len(stream)))
            # a no-copy view on a little-endian machine
            fh.write(np.ascontiguousarray(stream.timestamps_ps, dtype="<i8").data)
            if truth:
                fh.write(np.ascontiguousarray(stream.origins).data)
    elif fmt == "csv":
        row = "{},{}\n" if truth else "{}\n"
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER[truth] + "\n")
            for start in range(0, len(stream), _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                columns = [stream.timestamps_ps[block].tolist()]
                if truth:
                    codes = stream.origins[block].tolist()
                    columns.append([_CODE_ORIGIN[c] for c in codes])
                fh.write("".join(map(row.format, *columns)))
    else:
        raise ValidationError(f"unknown stream format {fmt!r}")


def import_stream(path) -> TimestampStream:
    """Read a stream file: binary if it starts with the magic, else CSV.

    Out-of-order timestamps are accepted with a warning and sorted,
    matching how raw tagger dumps are normalized on ingestion. Every
    error names the path.
    """
    path = str(path)
    with open(path, "rb") as fh:
        binary = fh.read(len(MAGIC)) == MAGIC
    timestamps, origins = (_read_binary if binary else _read_csv)(path)

    timestamps = np.asarray(timestamps, dtype=np.int64)
    in_order = not np.any(timestamps[1:] < timestamps[:-1])
    if not in_order:
        warnings.warn(f"{path}: timestamps not sorted; sorting on import")
    try:
        return TimestampStream(timestamps, origins=origins, _sorted=in_order)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ParseError(f"{path}: truncated header")
        _, version, count = _HEADER.unpack(header)
        if version not in _VERSION:
            raise ParseError(f"{path}: unsupported version {version}, want 3 or 4")
        truth = version == _VERSION[True]
        # the count comes from the file: check it against the file's size
        # before it sizes a buffer
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != count * (9 if truth else 8):
            raise ParseError(f"{path}: expected {count} records, body holds {body} bytes")
        timestamps = np.empty(count, "<i8")
        origins = np.empty(count, np.uint8) if truth else None
        for column in (timestamps, origins)[:1 + truth]:
            if fh.readinto(column) != column.nbytes:  # the file shrank while read
                raise ParseError(f"{path}: truncated body")
    return timestamps, origins


def _read_csv(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if header not in _CSV_HEADER:
            raise ParseError(f"{path}: bad CSV header {header!r}, want "
                             + " or ".join(map(repr, _CSV_HEADER)))
        has_origin = header == _CSV_HEADER[True]
        if not has_origin:
            # an empty file is fine; checked here because np.loadtxt warns on
            # it, and warnings.catch_warnings is not safe across threads
            body = fh.tell()
            if not any(line.strip() for line in fh):
                return [], None
            fh.seek(body)
            try:  # fast path for well-formed numeric files; a '#' line takes the slow path
                data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
            except ValueError:
                data = None
            if data is not None and data.shape[1] == 1:
                return data[:, 0], None
        # slow path: per-record parsing with a precise error index
        fh.seek(0)
        fh.readline()
        timestamps = []
        origins = [] if has_origin else None
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 1 + has_origin:
                    raise ValueError(f"{len(parts)} fields, want {1 + has_origin}")
                stamp = int(parts[0])
                if not -2**63 <= stamp < 2**63:
                    raise ValueError(f"timestamp {stamp} does not fit in int64")
                timestamps.append(stamp)
                if has_origin:
                    origins.append(_ORIGIN_CODE[parts[1]])
            except (ValueError, KeyError) as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    return timestamps, origins
