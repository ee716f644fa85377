"""Errors raised by the name server.

The update-shaped errors derive from
:class:`~repro.core.errors.PreconditionFailed` so the database aborts the
update before anything reaches the log, and they are registered on the RPC
interface so remote clients receive the same exception types.
"""

from __future__ import annotations

import json

from repro.core.errors import PreconditionFailed


class NameServerError(Exception):
    """Base class for name server errors."""


class NameNotFound(NameServerError, PreconditionFailed):
    """The path names no live value."""

    def __init__(self, path) -> None:
        super().__init__(_message("name not found", path))


class NameExists(NameServerError, PreconditionFailed):
    """An exclusive bind found the name already bound."""

    def __init__(self, path) -> None:
        super().__init__(_message("name already bound", path))


class BadPath(NameServerError, PreconditionFailed):
    """The path is empty or contains an empty component."""

    def __init__(self, path) -> None:
        super().__init__(_message("bad path", path))


class SnapshotGone(NameServerError):
    """The checkpoint version a recoverer is streaming no longer exists.

    Raised by ``snapshot_chunk`` when the serving peer checkpointed (and
    finalized) mid-download, deleting the superseded file.  The recoverer
    reacts by renegotiating the plan against the peer's *new* checkpoint
    — the stage machine restarts from PLANNING, not from a broken file.
    """

    def __init__(self, version) -> None:
        if isinstance(version, str) and version.startswith("snapshot version"):
            super().__init__(version)  # reconstructed from a remote message
        else:
            super().__init__(
                f"snapshot version {version} is no longer on disk "
                f"(the peer checkpointed past it)"
            )


class HistoryTruncated(NameServerError):
    """Records can no longer catch the asking replica up.

    Raised by ``updates_since`` when, for some origin in ``origins``,
    the record after the asker's version vector has left the bounded
    history window.  The link and the answering replica are fine; the
    asker is too far behind and must be caught up by state —
    :class:`~repro.nameserver.recover.ReplicaRecoverer`'s snapshot plus
    log tail.  The origins cross the wire as JSON inside the message:
    "no longer reaches" the record each of them would have to send next.
    """

    def __init__(self, origins) -> None:
        if isinstance(origins, str):  # reconstructed from a remote message
            origins = json.loads(origins[origins.index("[") :])
        self.origins = sorted(origins)
        super().__init__(f"history window no longer reaches {json.dumps(self.origins)}")


def format_path(path) -> str:
    if isinstance(path, str):
        return path
    if isinstance(path, (tuple, list)):
        return "/".join(str(part) for part in path)
    return repr(path)


def _message(prefix: str, path) -> str:
    # When an RPC client reconstructs the exception from the remote
    # message, the prefix is already present; do not stack it.
    if isinstance(path, str) and path.startswith(prefix):
        return path
    return f"{prefix}: {format_path(path)}"
