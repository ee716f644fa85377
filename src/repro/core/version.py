"""The version-file protocol: atomic checkpoint switch over a plain FS.

This is a faithful implementation of the paper's section-3 recipe:

    In the normal quiescent state the directory contains a version-
    numbered checkpoint, with a file title such as ``checkpoint35``, a
    matching log file named ``logfile35``, and a file named ``version``
    containing the characters "35".  We switch to a new checkpoint by
    writing it to the file ``checkpoint36``, creating an empty file
    ``logfile36``, then writing the characters "36" to a new file called
    ``newversion``.  This is the commit point (after an appropriate number
    of Unix "fsync" calls).  Finally, we delete ``checkpoint35``,
    ``logfile35`` and ``version``, then rename ``newversion`` to be
    ``version``.

    On a restart, we read the version number from ``newversion`` if the
    file exists and has a valid version number in it, or from ``version``
    otherwise, and delete any redundant files.

With ``keep_versions > 1`` the switch retains older checkpoint/log pairs,
the paper's hard-error redundancy option: "recovery from a hard error in
the checkpoint could be achieved by keeping one previous checkpoint and
log".  With ``archive_logs`` it first copies each superseded log to
``archiveN``, the paper's other option: "the log files form a complete
audit trail for the database, and could be retained if desired".  Both
happen in :func:`finalize_switch`, after the commit point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.storage.errors import HardError, StorageError
from repro.storage.interface import FileSystem

VERSION_FILE = "version"
NEWVERSION_FILE = "newversion"
_NUMBERED = re.compile(r"^(checkpoint|logfile)(\d+)$")


def checkpoint_name(version: int) -> str:
    """The checkpoint file name for a version number."""
    return f"checkpoint{version}"


def logfile_name(version: int) -> str:
    """The log file name for a version number."""
    return f"logfile{version}"


def numbered_files(fs: FileSystem) -> dict[int, set[str]]:
    """Map version number → the kinds ("checkpoint"/"logfile") present."""
    found: dict[int, set[str]] = {}
    for name in fs.list_names():
        match = _NUMBERED.match(name)
        if match:
            found.setdefault(int(match.group(2)), set()).add(match.group(1))
    return found


def complete_versions(fs: FileSystem) -> list[int]:
    """Versions with both a checkpoint and a log file, ascending."""
    return sorted(
        version
        for version, kinds in numbered_files(fs).items()
        if kinds == {"checkpoint", "logfile"}
    )


@dataclass(frozen=True)
class CurrentVersion:
    """The version a restart should load, and which file named it."""

    number: int
    source: str  # "newversion" or "version"


def _read_version_number(fs: FileSystem, name: str) -> int | None:
    """Parse a version file; None for missing, unreadable or invalid."""
    if not fs.exists(name):
        return None
    try:
        text = fs.read(name)
    except HardError:
        return None
    if not text or not text.isdigit():
        return None
    return int(text)


def read_current_version(fs: FileSystem) -> CurrentVersion | None:
    """The paper's restart rule: prefer a valid ``newversion``.

    A version file is only honoured if its checkpoint and log files both
    exist — the protocol guarantees they do for any committed version, so
    a dangling number means the file is stale or damaged and the other
    version file is consulted instead.
    """
    for source in (NEWVERSION_FILE, VERSION_FILE):
        number = _read_version_number(fs, source)
        if number is None:
            continue
        if fs.exists(checkpoint_name(number)) and fs.exists(logfile_name(number)):
            return CurrentVersion(number, source)
    return None


def commit_new_version(fs: FileSystem, version: int) -> None:
    """Write and fsync ``newversion`` — the switch's commit point.

    The caller must already have written and fsynced the new checkpoint
    and its empty log file.
    """
    if fs.exists(NEWVERSION_FILE):
        raise StorageError("newversion already exists; previous switch unfinished")
    fs.write(NEWVERSION_FILE, str(version).encode("ascii"))
    fs.fsync(NEWVERSION_FILE)


def finalize_switch(
    fs: FileSystem,
    current: CurrentVersion,
    keep_versions: int = 1,
    archive_logs: bool = False,
) -> None:
    """The one retention step after the commit point: at a checkpoint and
    at every restart.

    With ``archive_logs`` the log that ``current`` superseded is first
    copied to its archive name (:mod:`repro.core.audit`): that log is
    frozen once the commit point has passed.  Then every numbered file
    outside the kept set is deleted — ``keep_versions`` counts the
    committed checkpoint/log pairs that remain (1 = current only; 2 =
    current + previous for hard-error redundancy) — which also removes a
    partially written next version.  Last, a switch committed in
    ``newversion`` is completed by the rename, or a stale ``newversion``
    is deleted.  Crash-safe at every step: until the rename completes,
    restarts are served by ``newversion`` and run this step again.
    """
    if keep_versions < 1:
        raise ValueError("keep_versions must be at least 1")
    previous_log = logfile_name(current.number - 1)
    if archive_logs and fs.exists(previous_log):
        from repro.core.audit import archive_name  # audit imports this module

        fs.write(archive_name(current.number - 1), fs.read(previous_log))
        fs.fsync(archive_name(current.number - 1))
    # The current version plus up to keep_versions - 1 predecessors; only
    # complete older pairs count as redundancy, never the partial leftovers
    # of an interrupted checkpoint.
    keep = {current.number}
    if keep_versions > 1:
        older = [v for v in complete_versions(fs) if v < current.number]
        keep.update(older[-(keep_versions - 1) :])
    for number, kinds in numbered_files(fs).items():
        if number in keep:
            continue
        for kind in sorted(kinds):
            fs.delete_if_exists(f"{kind}{number}")
    if current.source == NEWVERSION_FILE:
        fs.delete_if_exists(VERSION_FILE)
        fs.rename(NEWVERSION_FILE, VERSION_FILE)
    else:
        fs.delete_if_exists(NEWVERSION_FILE)
    fs.fsync_dir()
