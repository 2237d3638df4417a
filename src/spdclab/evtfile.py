"""Binary ``.evt`` container for multi-channel timestamp streams.

Layout (all little-endian):

    magic   8 bytes  b"SPDCEVT1"
    u32     channel count
    per channel:
        u8   channel id (0 idler, 1 signal1, 2 signal2)
        u64  event count
        u64  duration in femtosecond ticks
        u64 * count  timestamps, ascending femtosecond ticks

One femtosecond tick resolves sub-picosecond coherence times; timestamps
below 2**63 ticks cover about 9.2e3 seconds of acquisition.  A file holds
each of the three channels exactly once, all with one positive duration.
Writes go through a temp file and an atomic rename.
"""
from __future__ import annotations

import contextlib
import logging
import os
import struct
import time
from collections.abc import Sequence

import numpy as np

from .events import CHANNELS, EventStream
from .params import SpdcLabError

__all__ = ["write_events", "read_events", "EvtFormatError", "MAGIC"]

MAGIC = b"SPDCEVT1"

logger = logging.getLogger(__name__)


class EvtFormatError(SpdcLabError):
    """Corrupt, truncated or foreign .evt content."""


def write_events(streams: Sequence[EventStream], path) -> None:
    """Write streams to ``path`` atomically; round-trips bit-exactly.

    If the write raises, the temporary file is removed and an existing
    ``path`` is left untouched.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(streams)))
            for stream in streams:
                fh.write(
                    struct.pack(
                        "<BQQ",
                        CHANNELS.index(stream.channel),
                        len(stream),
                        stream.duration,
                    )
                )
                # non-negative int64 ticks have the bytes of their u64 values
                fh.write(np.ascontiguousarray(stream.timestamps, dtype="<i8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def read_events(path) -> list[EventStream]:
    """Read streams back; validates magic, ids, declared counts and order.

    Each channel's timestamps are read straight into one aligned, read-only
    array, with no intermediate copy.  Any content that does not hold each
    channel once, in strictly increasing order within ``[0, duration]`` of
    one shared, positive duration, raises ``EvtFormatError``.
    """
    path = os.fspath(path)
    started = time.perf_counter()
    streams: list[EventStream] = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 4)
        if head[: len(MAGIC)] != MAGIC:
            raise EvtFormatError(
                f"{path}: bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}"
            )
        if len(head) < len(MAGIC) + 4:
            raise EvtFormatError(f"{path}: truncated channel count")
        (n_channels,) = struct.unpack_from("<I", head, len(MAGIC))
        for _ in range(n_channels):
            header = fh.read(17)
            if len(header) < 17:
                raise EvtFormatError(f"{path}: truncated channel header")
            channel_id, count, duration = struct.unpack("<BQQ", header)
            if channel_id >= len(CHANNELS):
                raise EvtFormatError(f"{path}: unknown channel id {channel_id}")
            if fh.tell() + 8 * count > size:
                raise EvtFormatError(
                    f"{path}: declares {count} events but file ends early"
                )
            channel = CHANNELS[channel_id]
            # u64 ticks read as int64: a tick of 2**63 or more reads negative
            # and fails the range check below
            ticks = np.empty(count, dtype="<i8")
            if fh.readinto(ticks) != ticks.nbytes:
                raise EvtFormatError(f"{path}: channel {channel} ends early")
            ticks.flags.writeable = False
            try:
                streams.append(EventStream(channel, ticks, duration))
            except ValueError as exc:
                raise EvtFormatError(f"{path}: channel {channel}: {exc}") from None
        if fh.tell() != size:
            raise EvtFormatError(f"{path}: {size - fh.tell()} trailing bytes")
    channels = [s.channel for s in streams]
    if sorted(channels) != sorted(CHANNELS):
        raise EvtFormatError(
            f"{path}: holds channels {channels}, expected each of {list(CHANNELS)} once"
        )
    durations = {s.duration for s in streams}
    if len(durations) != 1:
        raise EvtFormatError(
            f"{path}: channels declare durations {sorted(durations)} ticks, "
            "expected one shared duration"
        )
    if 0 in durations:
        raise EvtFormatError(f"{path}: declares a zero duration")
    elapsed = time.perf_counter() - started
    if elapsed > 0:
        logger.debug(
            "read %s: %.1f MB in %.3f s (%.0f MB/s)",
            path, size / 1e6, elapsed, size / 1e6 / elapsed,
        )
    return streams
