"""Pickles: automatic conversion between typed values and disk bytes.

This is a from-scratch implementation of the paper's "pickles" mechanism
(section 6): ``PickleWrite`` takes a strongly typed data structure and
delivers bytes for writing to the disk; ``PickleRead`` delivers a copy of
the original structure, with addresses swizzled to the current execution
environment.  The database core uses it for both log entries and
checkpoints, exactly as the paper does.

Differences from the standard library's ``pickle`` (why we built our own):

* it reproduces the *mechanism under study* — value-driven traversal with
  explicit address swizzling, the paper's measured 40 %-of-update cost;
* decoding is safe on untrusted bytes: only classes registered in a
  :class:`TypeRegistry` can be instantiated, and only via ``__new__``;
* the format is deterministic (sets are ordered, strings deduplicated), so
  identical states produce identical checkpoints — used by replica
  anti-entropy comparison.

>>> from repro.pickles import pickle_write, pickle_read
>>> shared = ["sub"]
>>> value = {"a": shared, "b": shared}
>>> copy = pickle_read(pickle_write(value))
>>> copy["a"] is copy["b"]   # sharing preserved
True
"""

from repro.pickles.decode import PickleReader, pickle_read
from repro.pickles.encode import PickleWriter, SegmentCache, pickle_write
from repro.pickles.errors import (
    MalformedPickle,
    PickleError,
    RegistryError,
    TruncatedPickle,
    UnknownRecordClass,
    UnknownTypeTag,
    UnpickleableType,
)
from repro.pickles.registry import DEFAULT_REGISTRY, TypeRegistry, pickleable

__all__ = [
    "DEFAULT_REGISTRY",
    "MalformedPickle",
    "PickleError",
    "PickleReader",
    "PickleWriter",
    "RegistryError",
    "SegmentCache",
    "TruncatedPickle",
    "TypeRegistry",
    "UnknownRecordClass",
    "UnknownTypeTag",
    "UnpickleableType",
    "pickle_read",
    "pickle_write",
    "pickleable",
]
