"""Network configuration: hosts, addresses and routes, with change audit.

The third of the paper's section-1 examples ("network configuration
information").  Its database archives every superseded log
(``archive_logs=True``), so every configuration change is permanently
attributable — the §4 audit trail applied to the database class that
most needs one.

Every update carries a ``changed_by`` argument; the audit query
:meth:`NetConfig.changes` renders the who/what history straight from the
retained logs.
"""

from __future__ import annotations

from repro.core.audit import AuditReader
from repro.core.database import Database
from repro.core.errors import PreconditionFailed
from repro.core.transactions import OperationRegistry
from repro.storage.interface import FileSystem


class NetConfigError(PreconditionFailed):
    """A network-configuration precondition failed."""


NETCONFIG_OPS = OperationRegistry()


def _fresh_root() -> dict:
    return {"hosts": {}, "addresses": {}, "routes": {}}


def _valid_address(address: str) -> bool:
    parts = address.split(".")
    if len(parts) != 4:
        return False
    try:
        return all(0 <= int(part) <= 255 for part in parts)
    except ValueError:
        return False


@NETCONFIG_OPS.operation("add_host")
def _add_host(root, hostname, address, changed_by):
    root["hosts"][hostname] = {"address": address, "aliases": []}
    root["addresses"][address] = hostname


@_add_host.precondition
def _add_host_pre(root, hostname, address, changed_by):
    if not hostname:
        raise NetConfigError("empty hostname")
    if hostname in root["hosts"]:
        raise NetConfigError(f"host {hostname!r} already exists")
    if not _valid_address(address):
        raise NetConfigError(f"bad address {address!r}")
    if address in root["addresses"]:
        owner = root["addresses"][address]
        raise NetConfigError(f"address {address} already assigned to {owner!r}")


@NETCONFIG_OPS.operation("remove_host")
def _remove_host(root, hostname, changed_by):
    entry = root["hosts"].pop(hostname)
    del root["addresses"][entry["address"]]


@_remove_host.precondition
def _remove_host_pre(root, hostname, changed_by):
    if hostname not in root["hosts"]:
        raise NetConfigError(f"no host {hostname!r}")


@NETCONFIG_OPS.operation("add_alias")
def _add_alias(root, hostname, alias, changed_by):
    root["hosts"][hostname]["aliases"].append(alias)


@_add_alias.precondition
def _add_alias_pre(root, hostname, alias, changed_by):
    if hostname not in root["hosts"]:
        raise NetConfigError(f"no host {hostname!r}")
    if alias in root["hosts"]:
        raise NetConfigError(f"{alias!r} is a hostname")
    for entry in root["hosts"].values():
        if alias in entry["aliases"]:
            raise NetConfigError(f"alias {alias!r} already in use")


@NETCONFIG_OPS.operation("set_route")
def _set_route(root, destination, gateway, changed_by):
    root["routes"][destination] = gateway


@_set_route.precondition
def _set_route_pre(root, destination, gateway, changed_by):
    if not _valid_address(gateway):
        raise NetConfigError(f"bad gateway {gateway!r}")


@NETCONFIG_OPS.operation("drop_route")
def _drop_route(root, destination, changed_by):
    del root["routes"][destination]


@_drop_route.precondition
def _drop_route_pre(root, destination, changed_by):
    if destination not in root["routes"]:
        raise NetConfigError(f"no route for {destination!r}")


class NetConfig:
    """The public API of the network-configuration application."""

    def __init__(self, fs: FileSystem, **db_options: object) -> None:
        self.fs = fs
        self.db = Database(
            fs, initial=_fresh_root, operations=NETCONFIG_OPS, archive_logs=True, **db_options
        )

    # -- updates (all attributed) ----------------------------------------------

    def add_host(self, hostname: str, address: str, changed_by: str) -> None:
        self.db.update("add_host", hostname, address, changed_by=changed_by)

    def remove_host(self, hostname: str, changed_by: str) -> None:
        self.db.update("remove_host", hostname, changed_by=changed_by)

    def add_alias(self, hostname: str, alias: str, changed_by: str) -> None:
        self.db.update("add_alias", hostname, alias, changed_by=changed_by)

    def set_route(self, destination: str, gateway: str, changed_by: str) -> None:
        self.db.update("set_route", destination, gateway, changed_by=changed_by)

    def drop_route(self, destination: str, changed_by: str) -> None:
        self.db.update("drop_route", destination, changed_by=changed_by)

    # -- enquiries ------------------------------------------------------------

    def resolve(self, name: str) -> str:
        """hostname or alias → address."""

        def find(root):
            entry = root["hosts"].get(name)
            if entry is not None:
                return entry["address"]
            for hostname, candidate in root["hosts"].items():
                if name in candidate["aliases"]:
                    return candidate["address"]
            raise NetConfigError(f"cannot resolve {name!r}")

        return self.db.enquire(find)

    def reverse(self, address: str) -> str:
        def find(root):
            hostname = root["addresses"].get(address)
            if hostname is None:
                raise NetConfigError(f"no host at {address}")
            return hostname

        return self.db.enquire(find)

    def hosts(self) -> list[str]:
        return self.db.enquire(lambda root: sorted(root["hosts"]))

    def route_for(self, destination: str) -> str | None:
        return self.db.enquire(lambda root: root["routes"].get(destination))

    def hosts_file(self) -> str:
        """Render /etc/hosts, the artefact this database replaces."""

        def render(root):
            lines = []
            for hostname in sorted(root["hosts"]):
                entry = root["hosts"][hostname]
                names = " ".join([hostname, *entry["aliases"]])
                lines.append(f"{entry['address']}\t{names}")
            return "\n".join(lines)

        return self.db.enquire(render)

    # -- audit ----------------------------------------------------------------

    def changes(self, by: str | None = None) -> list[str]:
        """The attributed change history, optionally filtered by author."""
        reader = AuditReader(self.fs)
        lines = []
        for record in reader.records():
            author = record.kwargs.get("changed_by", "?")
            if by is not None and author != by:
                continue
            arguments = ", ".join(repr(a) for a in record.args)
            lines.append(f"{record.operation}({arguments}) by {author}")
        return lines

    # -- lifecycle ------------------------------------------------------------

    def checkpoint(self) -> int:
        return self.db.checkpoint()

    def close(self) -> None:
        self.db.close()
