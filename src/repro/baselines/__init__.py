"""The rival techniques of the paper's section 2, plus ours, comparable.

Four engines behind one key-value interface over the same storage
substrate:

* :class:`TextFileDB` — parse-on-read, rewrite-whole-file-on-update,
  committed by atomic rename (the /etc/passwd technique);
* :class:`AdHocPagedDB` — custom paged records updated in place, one disk
  write per update, no commit protocol (crash-fragile);
* :class:`AtomicCommitDB` — write-ahead redo log plus in-place data
  pages: two disk writes per update, reliable;
* :class:`CheckpointLogDB` — the paper's technique: one disk write per
  update *and* reliable.

One rival sits at the transport rather than the storage layer:
:class:`repro.baselines.threaded.ThreadPerConnectionServer`, the
thread-per-connection TCP front end that E5d and E16b measure the event
loop against.
"""

from repro.baselines.adhoc import AdHocPagedDB
from repro.baselines.interface import (
    BaselineError,
    CorruptStore,
    KVStore,
    KeyNotFound,
)
from repro.baselines.ours import CheckpointLogDB
from repro.baselines.paged import PagedFile, Span, decode_record, encode_record
from repro.baselines.textfile import TextFileDB
from repro.baselines.twophase import AtomicCommitDB

ALL_ENGINES = (TextFileDB, AdHocPagedDB, AtomicCommitDB, CheckpointLogDB)

__all__ = [
    "ALL_ENGINES",
    "AdHocPagedDB",
    "AtomicCommitDB",
    "BaselineError",
    "CheckpointLogDB",
    "CorruptStore",
    "KVStore",
    "KeyNotFound",
    "PagedFile",
    "Span",
    "TextFileDB",
    "decode_record",
    "encode_record",
]
