"""What a segment pass trusts: only the segments its own cache wrote."""

from __future__ import annotations

from repro.pickles import SegmentCache, TypeRegistry, pickle_read, pickle_write
from tests.pickles.boxes import BOXES, Box, segmented


def forged_box(items: list, pickle_segment: object) -> Box:
    """A ``Box`` decoded from bytes that set its cache attribute too."""

    class Forged:
        pass

    forging = TypeRegistry()
    forging.register(Forged, name="B")
    forged = Forged()
    forged.items = items
    forged.pickle_segment = pickle_segment
    box = pickle_read(pickle_write(forged, forging), BOXES)
    assert type(box) is Box and box.pickle_segment == pickle_segment
    return box


def test_a_decoded_cache_attribute_is_never_reused():
    fresh = Box(["a", "b", "c"])
    expected = segmented([fresh, "a", fresh])
    for junk in (7, "bytes", [b"x", 1], None):
        box = forged_box(["a", "b", "c"], junk)
        cache = SegmentCache(BOXES)
        assert cache.write([box, "a", box]) == expected
        assert cache.write([box, "a", box]) == expected


def test_a_pass_refers_to_the_segments_it_placed():
    """The record's attribute may change mid-pass; what was spliced did not."""
    first = Box(["x", "y"])

    def rule(box: Box) -> bool:
        if box is not first:
            # what another cache's pass over the same record, or a
            # reset, does to the attribute
            first.pickle_segment = None
        return len(box.items) >= 2

    meddling = TypeRegistry()
    meddling.register(Box, name="B", fields=("items",), segment=rule)
    payload = SegmentCache(meddling).write([first, Box(["p", "q"]), "x", "y", first])
    same = Box(["x", "y"])
    assert payload == segmented([same, Box(["p", "q"]), "x", "y", same])
