"""The audit trail: retained log files as a complete update history.

The paper, section 4:

    There are other potential benefits from the existence of a complete
    update log, although we have not explored them.  For example, the
    log files form a complete audit trail for the database, and could be
    retained if desired.

This module explores them.  With ``Database(..., archive_logs=True)``
each checkpoint *archives* the log it supersedes before deleting it,
under the name ``archive{N}`` — ``logfileN``, frozen once checkpoint
``N+1`` passed its commit point.  The copy is part of the retention step
after the commit point (:func:`~repro.core.version.finalize_switch`), so
a crash before that point leaves no archive of the still-live log, and a
restart redoes an interrupted copy: every committed update is in exactly
one epoch of the trail.  Archives are never read by recovery.  The
:class:`AuditReader` iterates the entire update history of the
database, across every archived epoch plus the live log, as decoded
``(epoch, seq, operation, args, kwargs)`` records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.errors import RecoveryError
from repro.core.log import LogScan
from repro.core.version import logfile_name, read_current_version
from repro.pickles import TypeRegistry, pickle_read
from repro.storage.interface import FileSystem

_ARCHIVE = re.compile(r"^archive(\d+)$")


def archive_name(version: int) -> str:
    return f"archive{version}"


@dataclass(frozen=True)
class AuditRecord:
    """One committed update, as read back from the audit trail."""

    epoch: int  # the checkpoint version whose log contained it
    seq: int  # sequence number within that epoch's log
    operation: str
    args: tuple
    kwargs: dict

    def describe(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"[{self.epoch}:{self.seq}] {self.operation}({', '.join(parts)})"


def archived_epochs(fs: FileSystem) -> list[int]:
    """Versions with a retained archive, ascending."""
    found = []
    for name in fs.list_names():
        match = _ARCHIVE.match(name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found)


class AuditReader:
    """Iterates the complete update history of a database directory."""

    def __init__(
        self,
        fs: FileSystem,
        pickle_registry: TypeRegistry | None = None,
    ) -> None:
        self.fs = fs
        self.registry = pickle_registry

    def epochs(self) -> list[tuple[int, str]]:
        """(epoch, file name) pairs in chronological order."""
        trail = [(epoch, archive_name(epoch)) for epoch in archived_epochs(self.fs)]
        current = read_current_version(self.fs)
        if current is not None:
            trail.append((current.number, logfile_name(current.number)))
        return trail

    def records(self) -> Iterator[AuditRecord]:
        """Every committed update, oldest first."""
        for epoch, file_name in self.epochs():
            if not self.fs.exists(file_name):
                continue
            scan = LogScan(self.fs, file_name)
            for entry in scan:
                try:
                    operation, args, kwargs = pickle_read(
                        entry.payload, self.registry
                    )
                except Exception as exc:
                    raise RecoveryError(
                        f"audit record {epoch}:{entry.seq} does not decode: "
                        f"{exc!r}"
                    ) from exc
                yield AuditRecord(epoch, entry.seq, operation, tuple(args), kwargs)

    def history_of(self, predicate: Callable[[AuditRecord], bool]) -> list[AuditRecord]:
        """All records matching ``predicate`` (e.g. touching one key)."""
        return [record for record in self.records() if predicate(record)]

    def count(self) -> int:
        return sum(1 for _ in self.records())

    def replay_onto(self, root: object, operations) -> int:
        """Rebuild any state by replaying the full trail onto ``root``.

        This is time-travel: replaying a *prefix* of the audit trail
        reconstructs the database as of any past update.
        """
        applied = 0
        for record in self.records():
            operations.get(record.operation).apply(
                root, *record.args, **record.kwargs
            )
            applied += 1
        return applied
