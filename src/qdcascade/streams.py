"""Detector timestamp streams and their file formats.

A stream models the output of a time-to-digital converter: per-event
channel ids and picosecond timestamps, stored internally as numpy
arrays. Files come in the two ``FORMATS``, each with its file extension:

* binary (``.ctts``): 16-byte header (magic ``CTTS``, u32 version, u64
  record count, little endian) followed by one record per event.
  Version 1 records are (channel u8, timestamp u64); version 2 adds a
  u8 origin code after the channel for simulation-truth exports.
* CSV (``.csv``): exactly the header ``channel,timestamp_ps``, or
  ``channel,timestamp_ps,origin`` with truth tags, and rows as wide.

``import_stream`` tells the formats apart by the magic. The stream type
checks its stamps (nonnegative) and origin codes (those of
``_ORIGIN_CODE``); a file that breaks either, is malformed or is not
UTF-8 raises a ParseError that names its path. Simulation-truth origin
tags are stripped on export unless explicitly requested.
"""

from __future__ import annotations

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
_CSV_BLOCK = 1 << 16  # rows per CSV export block, which bounds its memory

# contiguous codes 1 to len(_ORIGIN_CODE), so that a min/max test checks a stream's
_ORIGIN_CODE = {"XX": 1, "X": 2, "background": 3}
_CODE_ORIGIN = {v: k for k, v in _ORIGIN_CODE.items()}
_CSV_HEADER = ("channel,timestamp_ps", "channel,timestamp_ps,origin")  # [origins kept]


@dataclass
class TimestampStream:
    """Time-ordered detection events with nonnegative picosecond stamps."""

    channels: np.ndarray
    timestamps_ps: np.ndarray
    origins: Optional[np.ndarray] = None  # uint8 codes, None once stripped
    _sorted: bool = field(default=False, repr=False)

    def __post_init__(self):
        channels = np.asarray(self.channels)
        if channels.dtype != np.uint8:  # an unchecked cast would wrap 256 to 0
            wide = np.flatnonzero((channels < 0) | (channels > 255))
            if wide.size:
                raise ValidationError(f"channel {channels.flat[wide[0]]} outside 0-255 "
                                      f"(record {wide[0]})")
        self.channels = channels.astype(np.uint8, copy=False)
        self.timestamps_ps = np.asarray(self.timestamps_ps, dtype=np.int64)
        if self.channels.shape != self.timestamps_ps.shape:
            raise ValidationError("channels and timestamps must have equal length")
        if self.origins is not None:
            self.origins = np.asarray(self.origins, dtype=np.uint8)
            if self.origins.shape != self.timestamps_ps.shape:
                raise ValidationError("origins must match event count")
            codes, top = self.origins, len(_ORIGIN_CODE)
            if len(codes) and (codes.min() < 1 or codes.max() > top):
                bad = int(np.flatnonzero((codes < 1) | (codes > top))[0])
                raise ValidationError(f"bad origin code {codes[bad]} (record {bad})")
        ts = self.timestamps_ps
        # sorted stamps have their minimum first: no full scan
        if len(ts) and (ts[0] if self._sorted else ts.min()) < 0:
            raise ValidationError("timestamps must be nonnegative")
        if not self._sorted:
            order = np.argsort(self.timestamps_ps, kind="stable")
            self.channels = self.channels[order]
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


_REC_V1 = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
_REC_V2 = np.dtype([("channel", "u1"), ("origin", "u1"), ("timestamp", "<u8")])


def export_stream(stream: TimestampStream, path, fmt="binary", include_truth=False):
    """Write a stream to ``path``; origin tags are dropped unless asked for."""
    path = str(path)
    truth = bool(include_truth) and stream.origins is not None
    if fmt == "binary":
        version = 2 if truth else 1
        records = np.empty(len(stream), dtype=_REC_V2 if truth else _REC_V1)
        records["channel"] = stream.channels
        records["timestamp"] = stream.timestamps_ps  # nonnegative, so the cast is exact
        if truth:
            records["origin"] = stream.origins
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, version, len(stream)))
            fh.write(records.data)
    elif fmt == "csv":
        row = "{},{},{}\n" if truth else "{},{}\n"
        with open(path, "w") as fh:
            fh.write(_CSV_HEADER[truth] + "\n")
            for start in range(0, len(stream), _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                columns = [stream.channels[block].tolist(), stream.timestamps_ps[block].tolist()]
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
    channels, timestamps, origins = (_read_binary if binary else _read_csv)(path)

    channels = np.array(channels, dtype=np.uint8)
    timestamps = np.array(timestamps, dtype=np.int64)
    origins = np.array(origins, dtype=np.uint8) if origins is not None else None
    in_order = not np.any(timestamps[1:] < timestamps[:-1])
    if not in_order:
        warnings.warn(f"{path}: timestamps not sorted; sorting on import")
    try:
        return TimestampStream(channels, timestamps, origins=origins, _sorted=in_order)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ParseError(f"{path}: truncated header")
        _, version, count = _HEADER.unpack(header)
        if version not in (1, 2):
            raise ParseError(f"{path}: unsupported version {version}")
        dtype = _REC_V2 if version == 2 else _REC_V1
        payload = fh.read()
    if len(payload) != count * dtype.itemsize:
        raise ParseError(
            f"{path}: expected {count} records, payload holds {len(payload) // dtype.itemsize}"
        )
    records = np.frombuffer(payload, dtype=dtype)
    # import_stream makes the one int64 copy
    return records["channel"], records["timestamp"], records["origin"] if version == 2 else None


def _read_csv(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        if header not in _CSV_HEADER:
            raise ParseError(f"{path}: bad CSV header {header!r}")
        has_origin = header == _CSV_HEADER[True]
        if not has_origin:
            # an empty file is fine; checked here because np.loadtxt warns on
            # it, and warnings.catch_warnings is not safe across threads
            body = fh.tell()
            if not any(line.strip() for line in fh):
                return [], [], None
            fh.seek(body)
            try:  # fast path for well-formed numeric files; a '#' line takes the slow path
                data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
            except ValueError:
                data = None
            if data is not None and data.shape[1] == 2:
                bad = np.flatnonzero((data[:, 0] < 0) | (data[:, 0] > 255))
                if bad.size:
                    raise ParseError(f"{path}: channel {data[bad[0], 0]} outside 0-255",
                                     record_index=int(bad[0]))
                return data[:, 0], data[:, 1], None
        # slow path: per-record parsing with a precise error index
        fh.seek(0)
        fh.readline()
        channels, timestamps = [], []
        origins = [] if has_origin else None
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 2 + has_origin:
                    raise ValueError(f"{len(parts)} fields, want {2 + has_origin}")
                channel = int(parts[0])
                if not 0 <= channel <= 255:
                    raise ValueError(f"channel {channel} outside 0-255")
                channels.append(channel)
                timestamps.append(int(parts[1]))
                if has_origin:
                    origins.append(_ORIGIN_CODE[parts[2]])
            except (ValueError, KeyError) as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    return channels, timestamps, origins
