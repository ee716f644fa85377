"""Online backup: a consistent copy of a *live* database.

The paper's rivals lean on backups ("reliability in the face of hard
errors depends entirely on keeping backup copies of the complete
database"); the checkpoint+log design makes taking one almost trivial,
because the on-disk state is always a consistent pair of write-once
files plus an append-only log:

* the backup runs under the **update** lock, so the log cannot move and
  the version cannot switch while the files are copied — but enquiries
  proceed throughout, the same availability property checkpoints have;
* what is copied is the current checkpoint, the *entire* current log and
  the version marker, so the backup is exact as of the moment the lock
  was held — zero update loss;
* restoring is just putting the three files in an empty directory and
  opening it.

``backup_database`` is the one-shot operator verb;
:func:`verify_backup` runs the same validation fsck applies, against the
backup copy.  A ``manifest`` file written alongside the copy records what
the log looked like at copy time, so verification also catches a backup
whose log was *truncated after copying* — a clean-framing scan alone
cannot distinguish that from a legitimately shorter log.

A backup is taken from a healthy database.  A node whose device fails
under it keeps no local copy: it comes back from the sealed log on its
own directory or from another replica
(:class:`~repro.nameserver.recover.ReplicaRecoverer`).
"""

from __future__ import annotations

from repro.core.database import Database
from repro.core.errors import RecoveryError
from repro.core.version import (
    VERSION_FILE,
    checkpoint_name,
    logfile_name,
    read_current_version,
)
from repro.storage.interface import FileSystem

#: backup metadata: what the copied log looked like at copy time
MANIFEST_FILE = "manifest"


def _write_manifest(
    target: FileSystem, version: int, log_bytes: int, entries: int, last_seq: int
) -> int:
    text = (
        f"version {version}\n"
        f"log_bytes {log_bytes}\n"
        f"log_entries {entries}\n"
        f"last_seq {last_seq}\n"
    )
    target.write(MANIFEST_FILE, text.encode("ascii"))
    target.fsync(MANIFEST_FILE)
    return len(text)


def read_manifest(target: FileSystem) -> dict[str, int] | None:
    """Parse a backup manifest; ``None`` when absent or unparseable.

    Unparseable is treated like absent (the manifest is corroborating
    evidence, not the backup itself); verification then falls back to
    framing checks alone, as for pre-manifest backups.
    """
    if not target.exists(MANIFEST_FILE):
        return None
    try:
        text = target.read(MANIFEST_FILE).decode("ascii")
        fields = dict(line.split(" ", 1) for line in text.splitlines() if line)
        return {key: int(value) for key, value in fields.items()}
    except Exception:
        return None


def backup_database(db: Database, target: FileSystem) -> dict[str, int]:
    """Copy the live database's current consistent state to ``target``.

    Returns ``{file name: bytes copied}``.  The target directory is
    cleared first — a backup directory holds one backup.
    """
    from repro.core.log import LogScan

    with db.lock.update():
        version = db.version
        names = [checkpoint_name(version), logfile_name(version)]
        copied: dict[str, int] = {}
        for name in list(target.list_names()):
            target.delete(name)
        for name in names:
            payload = db.fs.read(name)
            target.write(name, payload)
            target.fsync(name)
            copied[name] = len(payload)
        # The manifest scans the *copy* (the source may keep moving once
        # the lock drops) and goes in before the marker.
        scan = LogScan(target, logfile_name(version))
        entries = sum(1 for _ in scan)
        copied[MANIFEST_FILE] = _write_manifest(
            target,
            version,
            target.size(logfile_name(version)),
            entries,
            scan.outcome.last_seq,
        )
        # The marker goes last: a half-finished backup has no version
        # file and is recognisably incomplete.
        target.write(VERSION_FILE, str(version).encode("ascii"))
        target.fsync(VERSION_FILE)
        copied[VERSION_FILE] = len(str(version))
    target.fsync_dir()
    return copied


def verify_backup(target: FileSystem) -> int:
    """Validate a backup directory; returns the number of log entries.

    Raises :class:`RecoveryError` if the backup is unusable — including a
    log that was shortened after the copy was taken, which the manifest
    (when present) detects even though the remaining frames are valid.
    """
    from repro.core.checkpoint import read_checkpoint
    from repro.core.log import LogScan

    current = read_current_version(target)
    if current is None:
        raise RecoveryError("backup has no committed version")
    read_checkpoint(target, checkpoint_name(current.number))
    scan = LogScan(target, logfile_name(current.number))
    entries = sum(1 for _ in scan)
    if scan.outcome.damage is not None:
        raise RecoveryError(f"backup log damaged: {scan.outcome.damage}")
    manifest = read_manifest(target)
    if manifest is not None:
        found = {
            "version": current.number,
            "log_bytes": target.size(logfile_name(current.number)),
            "log_entries": entries,
            "last_seq": scan.outcome.last_seq,
        }
        for key, expected in manifest.items():
            if key in found and found[key] != expected:
                raise RecoveryError(
                    f"backup does not match its manifest: {key} is "
                    f"{found[key]}, manifest says {expected} (the backup "
                    f"was modified after it was taken)"
                )
    return entries
