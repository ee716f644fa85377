"""The type registry driving record pickling.

The paper's pickle package is "entirely automatic: it is driven by the
run-time typing structures that are present for our garbage collection
mechanism".  Python's analogue of those structures is the class object and
its instance dictionary; the registry records which classes are *allowed*
to cross the pickle boundary and under what stable wire name.

Decoding will only ever instantiate registered classes (via
``cls.__new__``, never ``__init__`` — matching the paper's semantics of
reconstructing a stored structure rather than re-running constructors), so
a corrupt or hostile byte stream cannot execute arbitrary code the way the
standard library's ``pickle`` can.
"""

from __future__ import annotations

import threading

from repro.pickles.errors import RegistryError


class TypeRegistry:
    """Bidirectional mapping between classes and stable wire names.

    Lookups (:meth:`describe`, :meth:`resolve`) are single dictionary
    reads and take no lock; the codec makes one per class per pass and
    keeps the answer for the rest of the pass.  Registrations are
    serialised against each other.  Removing a class (:meth:`unregister`,
    :meth:`clear`) while another thread is mid-pass is a non-goal: that
    pass finishes with the description it already holds.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, type] = {}
        self._by_class: dict[type, tuple[str, tuple[str, ...] | None]] = {}
        self._lock = threading.Lock()

    def register(
        self,
        cls: type,
        name: str | None = None,
        fields: tuple[str, ...] | None = None,
    ) -> type:
        """Register ``cls`` under ``name`` (default: the class name).

        ``fields`` fixes the attribute set carried on the wire; ``None``
        means "whatever ``vars(instance)`` holds at encode time", which is
        the fully automatic mode the paper describes.  Returns ``cls`` so
        this can be used via the :func:`pickleable` decorator.
        """
        wire_name = name if name is not None else cls.__name__
        if not wire_name:
            raise RegistryError("wire name must be non-empty")
        with self._lock:
            existing = self._by_name.get(wire_name)
            if existing is not None and existing is not cls:
                raise RegistryError(
                    f"wire name {wire_name!r} is already registered "
                    f"to {existing.__name__}"
                )
            previous = self._by_class.get(cls)
            if previous is not None and previous[0] != wire_name:
                raise RegistryError(
                    f"class {cls.__name__} is already registered "
                    f"as {previous[0]!r}"
                )
            self._by_name[wire_name] = cls
            self._by_class[cls] = (
                wire_name,
                tuple(fields) if fields is not None else None,
            )
        return cls

    def unregister(self, cls: type) -> None:
        """Forget ``cls``; not safe against a pass running concurrently."""
        with self._lock:
            described = self._by_class.pop(cls, None)
            if described is None:
                raise RegistryError(f"class {cls.__name__} is not registered")
            del self._by_name[described[0]]

    def describe(self, cls: type) -> tuple[str, tuple[str, ...] | None] | None:
        """``(wire name, fields)`` for a registered class, else ``None``.

        ``fields`` is ``None`` when the record carries ``vars(instance)``.
        """
        return self._by_class.get(cls)

    def resolve(self, name: str) -> type | None:
        """The class registered under wire name ``name``, else ``None``."""
        return self._by_name.get(name)

    def registered_names(self) -> list[str]:
        with self._lock:
            return sorted(self._by_name)

    def clear(self) -> None:
        """Forget all registrations (test isolation only)."""
        with self._lock:
            self._by_name.clear()
            self._by_class.clear()


#: The process-wide default registry, used when none is passed explicitly.
DEFAULT_REGISTRY = TypeRegistry()


def pickleable(
    name: str | None = None,
    fields: tuple[str, ...] | None = None,
    registry: TypeRegistry | None = None,
):
    """Class decorator registering a record type for pickling.

    >>> @pickleable()
    ... class Account:
    ...     def __init__(self, owner, balance):
    ...         self.owner = owner
    ...         self.balance = balance
    """

    target = registry if registry is not None else DEFAULT_REGISTRY

    def decorate(cls: type) -> type:
        return target.register(cls, name=name, fields=fields)

    return decorate
