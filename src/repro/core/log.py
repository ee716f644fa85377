"""The redo log: incremental updates on disk.

Entry format (all durable byte layouts in this package are versioned by
their magic bytes and never changed in place)::

    entry  := MAGIC(1 byte, 0xA5)
              seq      varint      -- 1, 2, 3, … within one log file
              length   varint      -- payload byte count
              payload  bytes       -- pickled (operation, args, kwargs)
              crc32    4 bytes     -- big-endian, over seq+length+payload
    filler := 0x00 bytes           -- pad to a page boundary (optional)

The paper detects a partially written entry from "the log entry's length
on the first page of the entry, combined with the known property of our
disk hardware that a partially written page will report an error when it
is read".  Both mechanisms exist here: the simulated disk raises
``HardError`` for torn pages, and the CRC catches any byte-level damage a
different substrate might let through.

Padding (``pad_to_page=True``, the default) aligns every entry to a page
boundary so that a later torn append can never destroy a previously
committed entry sharing its page.  ``pad_to_page=False`` is the paper's
exact layout; the crash sweep demonstrates the difference (design note D2
in DESIGN.md).

The **commit point** is :meth:`LogWriter.append`'s fsync, exactly as in
the paper: "if we crash before the write occurs on the disk, the update is
not visible after a restart; if we crash after the write completes, the
entire update will be completed after a restart."
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.pickles.wire import WireReader, encode_varint
from repro.storage.errors import HardError, StorageError
from repro.storage.interface import FileSystem

MAGIC = 0xA5
FILLER = 0x00
_FILLER_BYTE = bytes([FILLER])
_CRC_BYTES = 4
#: generous upper bound on header size: magic + two 10-byte varints
_MAX_HEADER = 21
#: how far ahead of the scan one ``read_range`` fetches.  A scan costs
#: one file-system call per window instead of three per entry; 256 KB is
#: a few hundred entries and bounds the scan's memory.
READ_AHEAD = 256 * 1024


def encode_entry(seq: int, payload: bytes) -> bytes:
    """Build the on-disk bytes of one log entry."""
    if seq < 1:
        raise ValueError("log sequence numbers start at 1")
    body = bytearray()
    encode_varint(seq, body)
    encode_varint(len(payload), body)
    body.extend(payload)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    entry = bytearray([MAGIC])
    entry.extend(body)
    entry.extend(crc.to_bytes(_CRC_BYTES, "big"))
    return bytes(entry)


@dataclass(frozen=True)
class LogEntry:
    """One committed update as read back from the log."""

    seq: int
    payload: bytes
    offset: int  # where the entry starts in the file
    length: int  # total on-disk length including header, crc and padding


@dataclass
class ScanOutcome:
    """What a full scan of a log file concluded."""

    entries: int = 0
    damaged_skipped: int = 0
    good_length: int = 0
    #: None for a clean scan; otherwise why scanning stopped early
    damage: str | None = None
    last_seq: int = 0

    @property
    def truncated(self) -> bool:
        return self.damage is not None


class LogWriter:
    """Appends committed updates to a log file.

    One instance owns one log file; the database swaps in a fresh writer
    when a checkpoint resets the log.
    """

    def __init__(
        self,
        fs: FileSystem,
        name: str,
        page_size: int = 512,
        pad_to_page: bool = True,
        start_seq: int = 1,
        start_offset: int | None = None,
        clock=None,
        sync_observer=None,
        flight=None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.page_size = page_size
        self.pad_to_page = pad_to_page
        self.next_seq = start_seq
        if not fs.exists(name):
            fs.create(name)
        self.offset = fs.size(name) if start_offset is None else start_offset
        self.entries_written = 0
        #: When both are set, ``sync()`` is timed on ``clock`` and
        #: ``sync_observer(seconds, bytes_since_last_sync)`` is invoked —
        #: how fsync count/latency reach the metrics registry without the
        #: writer knowing about metrics.
        self.clock = clock
        self.sync_observer = sync_observer
        #: optional :class:`~repro.obs.flight.FlightRecorder`: tail
        #: repairs after a failed append are worth remembering — the
        #: black box then shows whether the log was cut back cleanly or
        #: left damaged before a degradation.
        self.flight = flight
        self._unsynced_bytes = 0
        #: True when a failed append left bytes we could not cut back off
        #: the file.  Appending after damage is unsafe: strict recovery
        #: truncates at the damage, which would silently drop any entry
        #: committed beyond it — callers must stop using this writer.
        self.tail_damaged = False

    def append(self, payload: bytes) -> LogEntry:
        """Durably append one entry; returns after the commit fsync.

        Bookkeeping advances with the *write*, not the fsync: if the
        fsync raises (a hard error, or a simulated crash the harness
        chooses to continue past), ``offset``/``next_seq`` still match
        the file contents, so a retried append cannot frame a duplicate
        sequence number at a stale offset.
        """
        entry = self.append_unsynced(payload)
        self.sync()  # the commit point
        return entry

    def append_unsynced(self, payload: bytes) -> LogEntry:
        """Append without forcing; pair with :meth:`sync` (group commit)."""
        framed, prefix_len = self._build(payload)
        before = self.offset
        try:
            self.fs.append(self.name, framed)
        except StorageError:
            # A runtime media fault: the process keeps running, so try to
            # cut the short write back off the file — then a retried
            # append starts from a clean tail.
            self._discard_partial_append(before)
            raise
        except BaseException:
            # A simulated crash (or interrupt): nothing may run now except
            # the harness.  Just realign the tracked offset with reality so
            # recovery sees at worst one damaged region.
            self._resync_offset_from_file()
            raise
        return self._note_written(payload, framed, prefix_len)

    def append_many(self, payloads: list[bytes]) -> list[LogEntry]:
        """Group commit: several entries, one fsync.

        The paper notes that "the only schemes that will perform better
        than this involve arranging to record multiple commit records in a
        single log entry"; this is that scheme.
        """
        entries = [self.append_unsynced(payload) for payload in payloads]
        if entries:
            self.sync()
        return entries

    def sync(self) -> None:
        if self.clock is None or self.sync_observer is None:
            self.fs.fsync(self.name)
            self._unsynced_bytes = 0
            return
        synced = self._unsynced_bytes
        started = self.clock.now()
        self.fs.fsync(self.name)
        self._unsynced_bytes = 0
        self.sync_observer(self.clock.now() - started, synced)

    def _discard_partial_append(self, before: int) -> None:
        """Cut whatever a failed append left back off the file.

        On success the file ends exactly where it did before the append,
        so the log stays clean and a retry is safe.  If even the truncate
        fails the tail is marked damaged: appending past it would put a
        committed entry beyond bytes strict recovery truncates away.
        """
        try:
            if self.fs.size(self.name) > before:
                self.fs.truncate(self.name, before)
            self.offset = before
        except StorageError:
            self._resync_offset_from_file()
            self.tail_damaged = True
            if self.flight is not None:
                self.flight.record(
                    "log_tail_damaged", file=self.name, offset=before
                )
        else:
            if self.flight is not None:
                self.flight.record(
                    "log_tail_repaired", file=self.name, offset=before
                )

    def _resync_offset_from_file(self) -> None:
        """Re-learn the true end of file after a failed append."""
        try:
            self.offset = self.fs.size(self.name)
        except Exception:
            # Even the size is unreadable; keep the stale offset — the
            # next append will fail against the same broken substrate.
            pass

    def size(self) -> int:
        return self.offset

    def _build(self, payload: bytes) -> tuple[bytes, int]:
        """Frame one entry; returns (bytes to append, leading filler size).

        In padded mode the entry is preceded by filler up to the next page
        boundary when the current offset is unaligned (which happens after
        recovering a log with a discarded damaged region), and followed by
        filler up to the next boundary.
        """
        prefix_len = 0
        if self.pad_to_page:
            misalign = self.offset % self.page_size
            if misalign:
                prefix_len = self.page_size - misalign
        entry = encode_entry(self.next_seq, payload)
        framed = bytes(prefix_len) + entry
        if self.pad_to_page:
            remainder = (self.offset + len(framed)) % self.page_size
            if remainder:
                framed += bytes(self.page_size - remainder)
        return framed, prefix_len

    def _note_written(
        self, payload: bytes, framed: bytes, prefix_len: int
    ) -> LogEntry:
        record = LogEntry(
            seq=self.next_seq,
            payload=payload,
            offset=self.offset + prefix_len,
            length=len(framed) - prefix_len,
        )
        self.next_seq += 1
        self.offset += len(framed)
        self.entries_written += 1
        self._unsynced_bytes += len(framed)
        return record


class LogScan:
    """Iterates the entries of a log file, stopping safely at damage.

    Usage::

        scan = LogScan(fs, "logfile35")
        for entry in scan:
            replay(entry)
        if scan.outcome.truncated:
            fs.truncate("logfile35", scan.outcome.good_length)

    With ``ignore_damaged=True`` damage confined to some entries is
    *skipped* rather than ending the scan — the paper's suggested
    hard-error recovery "if the semantics of the application are such that
    updates are typically independent".  Two skip mechanisms compose:

    * an entry whose header is readable but whose payload pages are not is
      skipped using its declared length;
    * an unreadable or unparseable region is skipped by resynchronising at
      the next page boundary, which is where entries start in a padded
      log (CRCs and magic bytes validate whatever is found there).

    Sequence-number continuity is enforced in strict mode and relaxed to
    "monotonically consistent after a skip" in ignore mode.

    The file is read through one read-ahead window of :data:`READ_AHEAD`
    bytes; filler, headers and bodies are sliced out of it.  The window
    is only a cache of ``read_range``: when fetching one raises
    ``HardError`` (some page in it is bad, not necessarily one the scan
    needs next) it is abandoned and that stretch of the file is read
    range by exact range, so damage is met, judged and skipped exactly
    as it would be without the window.
    """

    def __init__(
        self,
        fs: FileSystem,
        name: str,
        expect_first_seq: int = 1,
        ignore_damaged: bool = False,
        page_size: int | None = None,
    ) -> None:
        self.fs = fs
        self.name = name
        self.ignore_damaged = ignore_damaged
        self.outcome = ScanOutcome()
        self._expected_seq: int | None = expect_first_seq
        self._size = fs.size(name)
        self._page_size = (
            page_size if page_size is not None else getattr(fs, "page_size", 512)
        )
        self._consumed = False
        #: inside a run of page resyncs through one damaged region
        self._in_damaged_run = False
        self._window = b""
        self._window_start = 0
        #: below this offset a window could not be read: use exact ranges
        self._exact_until = 0

    def _fetch(self, offset: int, length: int) -> bytes:
        """What ``fs.read_range(name, offset, length)`` returns or raises.

        ``offset`` is always inside the file as sized when the scan began;
        bytes appended since are never returned.
        """
        end = min(offset + length, self._size)
        start = self._window_start
        if offset < start or end > start + len(self._window):
            if offset < self._exact_until:
                return self.fs.read_range(self.name, offset, length)
            try:
                self._window = self.fs.read_range(
                    self.name, offset, min(max(length, READ_AHEAD), self._size - offset)
                )
            except HardError:
                self._window = b""
                self._exact_until = offset + READ_AHEAD
                return self.fs.read_range(self.name, offset, length)
            self._window_start = start = offset
        return self._window[offset - start : end - start]

    def _resync_offset(self, offset: int) -> int:
        """The next page boundary, where a padded log's entries start."""
        return (offset // self._page_size + 1) * self._page_size

    def _note_resync_skip(self) -> None:
        """Count a damaged region once, however many page resyncs it takes.

        Every skip mechanism must feed :attr:`ScanOutcome.damaged_skipped`
        or recovery under-reports damage; resync-based skips advance one
        page at a time, so consecutive resyncs are one region, closed only
        by the next successfully parsed entry.  A length-based skip counts
        its entry and *keeps the run open*: the skipped entry's declared
        end may land inside the same damaged pages.
        """
        if not self._in_damaged_run:
            self.outcome.damaged_skipped += 1
            self._in_damaged_run = True

    def __iter__(self):
        if self._consumed:
            # Re-iterating would double-count the outcome counters and
            # replay entries twice; demand a fresh scan instead.
            raise RuntimeError("a LogScan is single-use; construct a new one")
        self._consumed = True
        offset = 0
        while True:
            entry, next_offset = self._read_entry(offset)
            if entry is None:
                if next_offset is None:
                    return  # clean end or recorded damage
                offset = next_offset  # damaged entry skipped
                continue
            self.outcome.entries += 1
            self.outcome.last_seq = entry.seq
            self.outcome.good_length = entry.offset + entry.length
            offset = next_offset
            yield entry

    def _stop(self, reason: str | None) -> tuple[None, None]:
        self.outcome.damage = reason
        return None, None

    def _read_entry(self, offset: int) -> tuple[LogEntry | None, int | None]:
        size = self._size
        # Skip filler bytes (padding after the previous entry), reading in
        # chunks so padded logs do not cost one call per filler byte.
        while offset < size:
            try:
                chunk = self._fetch(offset, 4096)
            except HardError:
                # The big read may have touched a bad page belonging to a
                # later entry; the byte at `offset` itself may be fine.
                try:
                    chunk = self._fetch(offset, 1)
                except HardError:
                    if self.ignore_damaged:
                        self._note_resync_skip()
                        offset = self._resync_offset(offset)
                        self._expected_seq = None
                        continue
                    return self._stop(f"unreadable page at offset {offset}")
            if not chunk:
                return self._stop(None)
            advance = len(chunk) - len(chunk.lstrip(_FILLER_BYTE))
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
            return self._stop(None)  # clean end of log

        try:
            header = self._fetch(offset, _MAX_HEADER)
        except HardError:
            if self.ignore_damaged:
                self._note_resync_skip()
                self._expected_seq = None
                return None, self._resync_offset(offset)
            return self._stop(f"unreadable entry header at offset {offset}")
        reader = WireReader(header, 1)  # past the magic byte
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
        end = body_start + length + _CRC_BYTES
        if end > size:
            if self.ignore_damaged:
                self._note_resync_skip()
                self._expected_seq = None
                return None, self._resync_offset(offset)
            return self._stop(f"entry at offset {offset} extends past end of log")

        try:
            body = self._fetch(offset + 1, reader.offset - 1 + length + _CRC_BYTES)
        except HardError:
            if self.ignore_damaged:
                self.outcome.damaged_skipped += 1
                # The declared end may still sit inside the damaged pages;
                # any immediate resync continues this already-counted run.
                self._in_damaged_run = True
                self._expected_seq = None  # type: ignore[assignment]
                return None, end
            return self._stop(f"unreadable entry body at offset {offset}")
        crc_stored = int.from_bytes(body[-_CRC_BYTES:], "big")
        crc_actual = zlib.crc32(body[:-_CRC_BYTES]) & 0xFFFFFFFF
        if crc_stored != crc_actual:
            if self.ignore_damaged:
                self.outcome.damaged_skipped += 1
                # As above: stay in the counted run until a good entry.
                self._in_damaged_run = True
                self._expected_seq = None  # type: ignore[assignment]
                return None, end
            return self._stop(f"checksum mismatch at offset {offset}")
        if self._expected_seq is not None and seq != self._expected_seq:
            if not self.ignore_damaged:
                return self._stop(
                    f"sequence discontinuity at offset {offset}: "
                    f"expected {self._expected_seq}, found {seq}"
                )
            # Ignore mode: a gap after skipped damage is expected.
        self._expected_seq = seq + 1
        self._in_damaged_run = False  # a good entry closes any damaged region
        payload = bytes(body[reader.offset - 1 : reader.offset - 1 + length])
        return LogEntry(seq, payload, offset, end - offset), end
