import struct

import numpy as np
import pytest

from spdclab import (
    DetectorChain,
    EventStream,
    SourceParams,
    apply_detector_chain,
    gen_poisson_pairs,
    read_events,
    write_events,
)
from spdclab.evtfile import MAGIC, EvtFormatError, _atomic_write

from _oracles import raw_evt


def make_streams(seed=1, duration=1e-4):
    src = SourceParams(2e7, 1e-9)
    pairs = gen_poisson_pairs(src, duration, seed)
    return apply_detector_chain(pairs, DetectorChain(jitter_width=1e-9), seed)


def test_round_trip_bit_exact(tmp_path):
    streams = make_streams()
    path = tmp_path / "run.evt"
    write_events(streams, path)
    back = read_events(path)
    assert len(back) == 3
    for orig, loaded in zip(streams, back):
        assert loaded.channel == orig.channel
        assert loaded.duration == orig.duration
        assert np.array_equal(loaded.timestamps, orig.timestamps)
        assert not loaded.timestamps.flags.writeable
    assert path.read_bytes() == raw_evt(
        *((i, s.duration, s.timestamps) for i, s in enumerate(streams))
    )


def test_empty_channel_preserved(tmp_path):
    dur = 10**12
    streams = [
        EventStream("idler", np.array([5, 10], np.int64), dur),
        EventStream("signal1", np.empty(0, np.int64), dur),
        EventStream("signal2", np.array([7], np.int64), dur),
    ]
    path = tmp_path / "sparse.evt"
    write_events(streams, path)
    back = read_events(path)
    assert len(back[1]) == 0
    assert back[1].duration == dur


def test_file_size_arithmetic(tmp_path):
    streams = make_streams()
    path = tmp_path / "size.evt"
    write_events(streams, path)
    total = sum(len(s) for s in streams)
    expected = len(MAGIC) + 4 + 3 * (1 + 8 + 8) + 8 * total
    assert path.stat().st_size == expected


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.evt"
    path.write_bytes(b"NOTEVT00" + b"\x00" * 16)
    with pytest.raises(EvtFormatError, match="magic"):
        read_events(path)


def test_truncation_detected(tmp_path):
    streams = make_streams()
    path = tmp_path / "trunc.evt"
    write_events(streams, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 9])
    with pytest.raises(EvtFormatError, match="ends early"):
        read_events(path)


def test_trailing_bytes_detected(tmp_path):
    streams = make_streams()
    path = tmp_path / "extra.evt"
    write_events(streams, path)
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(EvtFormatError, match="trailing"):
        read_events(path)


_GOOD = [(0, 100, [1, 50]), (1, 100, [2]), (2, 100, [3, 4])]


@pytest.mark.parametrize("channels, match", [
    ([(0, 100, [50, 1]), *_GOOD[1:]], "strictly increasing"),
    ([(0, 100, [1, 1]), *_GOOD[1:]], "strictly increasing"),
    ([(0, 100, [1, 101]), *_GOOD[1:]], "within"),
    ([(0, 2**64 - 1, [2**63]), *_GOOD[1:]], "within"),
    (_GOOD[:2], "expected each"),
    ([*_GOOD, (1, 100, [7])], "expected each"),
    ([_GOOD[0], _GOOD[1], _GOOD[1]], "expected each"),
    ([(c, 2**63, ticks) for c, _, ticks in _GOOD], "duration must lie within"),
    ([(7, 100, [1]), *_GOOD[1:]], "unknown channel id 7"),
])
def test_malformed_content_rejected(tmp_path, channels, match):
    path = tmp_path / "bad.evt"
    path.write_bytes(raw_evt(*channels))
    with pytest.raises(EvtFormatError, match=match):
        read_events(path)


def test_stream_duration_within_int64_ticks():
    assert EventStream("idler", np.array([5]), 2**63 - 1).duration == 2**63 - 1
    for duration in (-1, 2**63):
        with pytest.raises(ValueError, match="duration must lie within"):
            EventStream("idler", np.empty(0, np.int64), duration)


def test_every_truncation_rejected(tmp_path):
    data = raw_evt((0, 100, [1, 50]), (1, 100, []), (2, 100, [3, 4, 99]))
    path = tmp_path / "cut.evt"
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(EvtFormatError):
            read_events(path)
    path.write_bytes(data)
    assert [len(s) for s in read_events(path)] == [2, 0, 3]


def test_missing_channel_count_rejected(tmp_path):
    path = tmp_path / "short.evt"
    path.write_bytes(MAGIC + b"\x03")
    with pytest.raises(EvtFormatError, match="truncated"):
        read_events(path)


def test_failed_write_leaves_no_tmp(tmp_path):
    path = tmp_path / "run.evt"
    streams = make_streams()
    write_events(streams, path)
    before = path.read_bytes()
    # a duration beyond u64 fails to pack after the first channel is written;
    # EventStream refuses it, so a stand-in holds the fields the writer reads
    class Huge:
        channel, timestamps, duration = "signal2", np.empty(0, np.int64), 2**64

        def __len__(self):
            return 0

    with pytest.raises(struct.error):
        write_events([streams[0], Huge()], path)
    assert not (tmp_path / "run.evt.tmp").exists()
    assert path.read_bytes() == before


@pytest.mark.parametrize("binary, old, first", [
    (False, "old text\n", "new text\n"),
    (True, b"old bytes", b"new bytes"),
])
def test_atomic_write_failure_keeps_existing_file(tmp_path, binary, old, first):
    path = tmp_path / "product"
    _atomic_write(path, [old], binary=binary)

    def chunks():
        yield first
        raise RuntimeError("chunk generator failed")

    with pytest.raises(RuntimeError, match="generator"):
        _atomic_write(path, chunks(), binary=binary)
    assert not (tmp_path / "product.tmp").exists()
    assert (path.read_bytes() if binary else path.read_text(encoding="utf-8")) == old
