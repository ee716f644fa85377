"""A record class written as a segment, for the codec tests of tag 0x0E."""

from __future__ import annotations

from repro.pickles import SegmentCache, TypeRegistry

BOXES = TypeRegistry()


class Box:
    """A record that is a segment once it holds two items or more."""

    __slots__ = ("items", "pickle_segment")

    def __init__(self, items: list) -> None:
        self.items = items
        self.pickle_segment = None


BOXES.register(Box, name="B", fields=("items",), segment=lambda box: len(box.items) >= 2)


def segmented(value: object) -> bytes:
    """``value`` pickled by a fresh cache: every segment encoded now."""
    return SegmentCache(BOXES).write(value)
