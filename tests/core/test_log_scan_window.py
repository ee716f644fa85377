"""The read-ahead window changes how a log is read, never what a scan concludes.

:class:`ExactReadScan` below is the scan as it was before the window:
three exact ``read_range`` calls per entry (filler chunk, header, body)
and a byte-at-a-time filler loop.  It is kept here, unchanged, as the
reference.  Every test runs it and :class:`LogScan` over the same file
and demands the same entries and the same :class:`ScanOutcome`, with a
hard error injected at every page in turn — including the pages that
straddle a window boundary and the last, short window — over a torn
final entry, padded and unpadded, strict and ``ignore_damaged``.
"""

from __future__ import annotations

import dataclasses
import math
import zlib

import pytest

from repro.core import log as log_module
from repro.core.log import FILLER, MAGIC, LogEntry, LogScan, LogWriter, ScanOutcome
from repro.obs import MetricsRegistry
from repro.pickles.wire import WireReader
from repro.sim import SimClock
from repro.storage import LocalFS, SimFS
from repro.storage.errors import HardError

PAGE = 512


class ExactReadScan:
    """The pre-window ``LogScan``, verbatim but for its docstrings."""

    def __init__(self, fs, name, expect_first_seq=1, ignore_damaged=False):
        self.fs = fs
        self.name = name
        self.ignore_damaged = ignore_damaged
        self.outcome = ScanOutcome()
        self._expected_seq = expect_first_seq
        self._size = fs.size(name)
        self._page_size = getattr(fs, "page_size", 512)
        self._in_damaged_run = False

    def _resync_offset(self, offset):
        return (offset // self._page_size + 1) * self._page_size

    def _note_resync_skip(self):
        if not self._in_damaged_run:
            self.outcome.damaged_skipped += 1
            self._in_damaged_run = True

    def __iter__(self):
        offset = 0
        while True:
            entry, next_offset = self._read_entry(offset)
            if entry is None:
                if next_offset is None:
                    return
                offset = next_offset
                continue
            self.outcome.entries += 1
            self.outcome.last_seq = entry.seq
            self.outcome.good_length = entry.offset + entry.length
            offset = next_offset
            yield entry

    def _stop(self, reason):
        self.outcome.damage = reason
        return None, None

    def _read_entry(self, offset):
        size = self._size
        while offset < size:
            try:
                chunk = self.fs.read_range(self.name, offset, 4096)
            except HardError:
                try:
                    chunk = self.fs.read_range(self.name, offset, 1)
                except HardError:
                    if self.ignore_damaged:
                        self._note_resync_skip()
                        offset = self._resync_offset(offset)
                        self._expected_seq = None
                        continue
                    return self._stop(f"unreadable page at offset {offset}")
            if not chunk:
                return self._stop(None)
            advance = 0
            while advance < len(chunk) and chunk[advance] == FILLER:
                advance += 1
            offset += advance
            if advance < len(chunk):
                if chunk[advance] == MAGIC:
                    break
                if self.ignore_damaged:
                    self._note_resync_skip()
                    offset = self._resync_offset(offset)
                    self._expected_seq = None
                    continue
                return self._stop(
                    f"bad magic byte {chunk[advance]:#x} at offset {offset}"
                )
        if offset >= size:
            return self._stop(None)

        try:
            header = self.fs.read_range(self.name, offset, 21)
        except HardError:
            if self.ignore_damaged:
                self._note_resync_skip()
                self._expected_seq = None
                return None, self._resync_offset(offset)
            return self._stop(f"unreadable entry header at offset {offset}")
        reader = WireReader(header, 1)
        try:
            seq = reader.read_varint()
            length = reader.read_varint()
        except Exception:
            if self.ignore_damaged:
                self._note_resync_skip()
                self._expected_seq = None
                return None, self._resync_offset(offset)
            return self._stop(f"truncated entry header at offset {offset}")
        body_start = offset + reader.offset
        end = body_start + length + 4
        if end > size:
            if self.ignore_damaged:
                self._note_resync_skip()
                self._expected_seq = None
                return None, self._resync_offset(offset)
            return self._stop(f"entry at offset {offset} extends past end of log")

        try:
            body = self.fs.read_range(
                self.name, offset + 1, reader.offset - 1 + length + 4
            )
        except HardError:
            if self.ignore_damaged:
                self.outcome.damaged_skipped += 1
                self._in_damaged_run = True
                self._expected_seq = None
                return None, end
            return self._stop(f"unreadable entry body at offset {offset}")
        crc_stored = int.from_bytes(body[-4:], "big")
        crc_actual = zlib.crc32(body[:-4]) & 0xFFFFFFFF
        if crc_stored != crc_actual:
            if self.ignore_damaged:
                self.outcome.damaged_skipped += 1
                self._in_damaged_run = True
                self._expected_seq = None
                return None, end
            return self._stop(f"checksum mismatch at offset {offset}")
        if self._expected_seq is not None and seq != self._expected_seq:
            if not self.ignore_damaged:
                return self._stop(
                    f"sequence discontinuity at offset {offset}: "
                    f"expected {self._expected_seq}, found {seq}"
                )
        self._expected_seq = seq + 1
        self._in_damaged_run = False
        payload = bytes(body[reader.offset - 1 : reader.offset - 1 + length])
        return LogEntry(seq, payload, offset, end - offset), end


def torn_log(pad: bool, size_at_least: int, payload_bytes: int) -> bytes:
    """Log bytes past ``size_at_least`` whose final entry is cut in half.

    Payload lengths vary around ``payload_bytes`` so entries start at
    every alignment (unpadded) and span one to several pages.
    """
    fs = SimFS(clock=SimClock())
    writer = LogWriter(fs, "log", pad_to_page=pad)
    n = 0
    while writer.size() < size_at_least:
        n += 1
        writer.append_unsynced(bytes([n % 251]) * (payload_bytes + (n * 37) % payload_bytes))
    last = writer.append_unsynced(b"torn" * payload_bytes)
    return fs.read("log")[: last.offset + last.length // 2]


def crashed_fs(raw: bytes, bad_page: int | None) -> SimFS:
    """``raw`` as the durable contents of ``log``, one page unreadable."""
    fs = SimFS(clock=SimClock())
    fs.write("log", raw)
    fs.fsync("log")
    fs.crash()
    if bad_page is not None:
        fs.corrupt("log", bad_page * PAGE)
    return fs


def conclusion(scan) -> tuple[list, dict]:
    entries = [(e.seq, e.payload, e.offset, e.length) for e in scan]
    return entries, dataclasses.asdict(scan.outcome)


def assert_same_conclusion(raw: bytes, bad_page: int | None) -> None:
    fs = crashed_fs(raw, bad_page)  # scans only read, so all four share it
    for ignore_damaged in (False, True):
        expected = conclusion(ExactReadScan(fs, "log", ignore_damaged=ignore_damaged))
        found = conclusion(LogScan(fs, "log", ignore_damaged=ignore_damaged))
        assert found == expected, (bad_page, ignore_damaged)


@pytest.mark.parametrize("pad", [True, False], ids=["padded", "unpadded"])
def test_hard_error_at_every_page_of_a_small_windowed_log(pad, monkeypatch):
    """Exhaustive, with the window shrunk so three and a bit fit in 30 pages."""
    window = 8 * PAGE
    monkeypatch.setattr(log_module, "READ_AHEAD", window)
    raw = torn_log(pad, size_at_least=3 * window + 3 * PAGE, payload_bytes=300)
    pages = math.ceil(len(raw) / PAGE)
    assert len(raw) > 3 * window and len(raw) % window  # a last, short window
    assert_same_conclusion(raw, None)
    reference = conclusion(ExactReadScan(crashed_fs(raw, None), "log"))
    assert reference[1]["damage"] is not None and reference[1]["entries"] > 10
    for bad_page in range(pages):
        assert_same_conclusion(raw, bad_page)


@pytest.mark.parametrize("pad", [True, False], ids=["padded", "unpadded"])
def test_hard_errors_around_the_real_window_boundaries(pad):
    """The shipped constant: pages either side of every boundary, and the tail.

    Entries here are 12 to 24 pages long, so each boundary falls inside one.
    """
    window = log_module.READ_AHEAD
    raw = torn_log(pad, size_at_least=3 * window + 9 * PAGE, payload_bytes=6000)
    pages = math.ceil(len(raw) / PAGE)
    per_window = window // PAGE
    boundary_pages = {
        page
        for k in range(1, 4)
        for page in range(k * per_window - 3, k * per_window + 2)
    }
    for bad_page in sorted(boundary_pages | {0, pages - 2, pages - 1}):
        assert_same_conclusion(raw, bad_page)


def test_a_clean_log_costs_one_read_per_window(tmp_path):
    """``LocalFS``'s own meter counts the calls it serves."""
    registry = MetricsRegistry()
    fs = LocalFS(str(tmp_path), registry=registry)
    writer = LogWriter(fs, "log")
    payloads = [bytes([n % 251]) * (3000 + n) for n in range(260)]
    for payload in payloads:
        writer.append_unsynced(payload)
    writer.sync()
    size = fs.size("log")
    assert size > 3 * log_module.READ_AHEAD
    reads = registry.counter("storage_read_calls_total")
    before = reads.value
    scan = LogScan(fs, "log")
    assert [entry.payload for entry in scan] == payloads
    assert scan.outcome.damage is None
    assert reads.value - before <= math.ceil(size / log_module.READ_AHEAD) + 2
