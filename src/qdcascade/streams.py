"""Detector timestamp streams and their file formats.

A stream models the output of a time-to-digital converter: per-event
channel ids and picosecond timestamps, stored internally as numpy
arrays. Files come in two flavors:

* binary: 16-byte header (magic ``CTTS``, u32 version, u64 record
  count, little endian) followed by one record per event. Version 1
  records are (channel u8, timestamp u64); version 2 adds a u8 origin
  code after the channel for simulation-truth exports.
* CSV: ``channel,timestamp_ps`` with an extra ``origin`` column when
  truth tags are kept.

Simulation-truth origin tags are stripped on export unless explicitly
requested.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError

MAGIC = b"CTTS"
_HEADER = struct.Struct("<4sIQ")

ORIGIN_XX = "XX"
ORIGIN_X = "X"
ORIGIN_BACKGROUND = "background"

_ORIGIN_CODE = {ORIGIN_XX: 1, ORIGIN_X: 2, ORIGIN_BACKGROUND: 3}
_CODE_ORIGIN = {v: k for k, v in _ORIGIN_CODE.items()}


@dataclass
class TimestampStream:
    """Time-ordered detection events over a run of given duration (ps)."""

    channels: np.ndarray
    timestamps_ps: np.ndarray
    duration_ps: float
    origins: Optional[np.ndarray] = None  # uint8 codes, None once stripped
    _sorted: bool = field(default=False, repr=False)

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.timestamps_ps = np.asarray(self.timestamps_ps, dtype=np.int64)
        if self.channels.shape != self.timestamps_ps.shape:
            raise ValidationError("channels and timestamps must have equal length")
        if self.origins is not None:
            self.origins = np.asarray(self.origins, dtype=np.uint8)
            if self.origins.shape != self.timestamps_ps.shape:
                raise ValidationError("origins must match event count")
        if len(self.timestamps_ps):
            if self.timestamps_ps.min() < 0:
                raise ValidationError("timestamps must be nonnegative")
            if self.timestamps_ps.max() >= self.duration_ps:
                raise ValidationError("timestamps must be below the stream duration")
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
        return np.array([_CODE_ORIGIN.get(int(c), "?") for c in self.origins])

    def without_truth(self):
        return TimestampStream(self.channels, self.timestamps_ps, self.duration_ps,
                               origins=None, _sorted=True)


_REC_V1 = np.dtype([("channel", "u1"), ("timestamp", "<u8")])
_REC_V2 = np.dtype([("channel", "u1"), ("origin", "u1"), ("timestamp", "<u8")])


def export_stream(stream: TimestampStream, path, fmt="binary", include_truth=False):
    """Write a stream to ``path``; origin tags are dropped unless asked for."""
    path = str(path)
    truth = include_truth and stream.origins is not None
    if fmt == "binary":
        version = 2 if truth else 1
        records = np.empty(len(stream), dtype=_REC_V2 if truth else _REC_V1)
        records["channel"] = stream.channels
        records["timestamp"] = stream.timestamps_ps.astype(np.uint64)
        if truth:
            records["origin"] = stream.origins
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, version, len(stream)))
            fh.write(records.tobytes())
    elif fmt == "csv":
        with open(path, "w") as fh:
            if truth:
                fh.write("channel,timestamp_ps,origin\n")
                labels = stream.origin_labels()
                for c, t, o in zip(stream.channels, stream.timestamps_ps, labels):
                    fh.write(f"{int(c)},{int(t)},{o}\n")
            else:
                fh.write("channel,timestamp_ps\n")
                np.savetxt(
                    fh,
                    np.column_stack([stream.channels, stream.timestamps_ps]),
                    fmt="%d,%d",
                )
    else:
        raise ValidationError(f"unknown stream format {fmt!r}")


def import_stream(path, fmt=None) -> TimestampStream:
    """Read a stream file; format is sniffed from the magic when not given.

    Out-of-order timestamps are accepted with a warning and sorted,
    matching how raw tagger dumps are normalized on ingestion.
    """
    path = str(path)
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "binary" if fh.read(4) == MAGIC else "csv"
    if fmt == "binary":
        channels, timestamps, origins = _read_binary(path)
    elif fmt == "csv":
        channels, timestamps, origins = _read_csv(path)
    else:
        raise ValidationError(f"unknown stream format {fmt!r}")

    channels = np.array(channels, dtype=np.uint8)
    timestamps = np.array(timestamps, dtype=np.int64)
    origins = np.array(origins, dtype=np.uint8) if origins is not None else None
    in_order = not np.any(np.diff(timestamps) < 0)
    if not in_order:
        warnings.warn(f"{path}: timestamps not sorted; sorting on import")
    duration = float(timestamps.max() + 1) if len(timestamps) else 0.0
    return TimestampStream(channels, timestamps, duration, origins=origins,
                           _sorted=in_order)


def _read_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ParseError(f"{path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if version not in (1, 2):
            raise ParseError(f"{path}: unsupported version {version}")
        dtype = _REC_V2 if version == 2 else _REC_V1
        payload = fh.read()
    if len(payload) != count * dtype.itemsize:
        raise ParseError(
            f"{path}: expected {count} records, payload holds {len(payload) // dtype.itemsize}"
        )
    records = np.frombuffer(payload, dtype=dtype)
    origins = None
    if version == 2:
        origins = records["origin"]
        bad = np.nonzero(~np.isin(origins, list(_CODE_ORIGIN)))[0]
        if bad.size:
            raise ParseError(f"{path}: bad origin code", record_index=int(bad[0]))
    return records["channel"], records["timestamp"].astype(np.int64), origins


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols[:2] != ["channel", "timestamp_ps"]:
            raise ParseError(f"{path}: bad CSV header {header!r}")
        has_origin = len(cols) == 3 and cols[2] == "origin"
        if not has_origin:
            try:  # fast path for well-formed numeric files
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # empty file is fine
                    data = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
            except ValueError:
                data = None
            if data is not None:
                if data.size == 0:
                    return [], [], None
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
                channel = int(parts[0])
                if not 0 <= channel <= 255:
                    raise ValueError(f"channel {channel} outside 0-255")
                channels.append(channel)
                timestamps.append(int(parts[1]))
                if has_origin:
                    origins.append(_ORIGIN_CODE[parts[2]])
            except (ValueError, IndexError, KeyError) as exc:
                raise ParseError(f"{path}: {exc}", record_index=i) from exc
    return channels, timestamps, origins
