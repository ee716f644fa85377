"""Record (registered class) pickling and the type registry."""

from __future__ import annotations

import pytest

from repro.pickles import (
    PickleWriter,
    RegistryError,
    TypeRegistry,
    UnknownRecordClass,
    pickle_read,
    pickle_write,
    pickleable,
)
from repro.pickles.registry import DEFAULT_REGISTRY


@pytest.fixture
def registry() -> TypeRegistry:
    return TypeRegistry()


class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __eq__(self, other):
        return isinstance(other, Point) and (self.x, self.y) == (other.x, other.y)


class Node:
    def __init__(self, label):
        self.label = label
        self.next = None


class TestRecords:
    def test_basic_record_roundtrip(self, registry):
        registry.register(Point)
        blob = pickle_write(Point(1, 2), registry)
        result = pickle_read(blob, registry)
        assert isinstance(result, Point)
        assert result == Point(1, 2)

    def test_init_not_called_on_decode(self, registry):
        calls = []

        class Tracked:
            def __init__(self):
                calls.append("init")
                self.state = "from-init"

        registry.register(Tracked)
        original = Tracked()
        original.state = "mutated"
        result = pickle_read(pickle_write(original, registry), registry)
        assert calls == ["init"]  # only the original construction
        assert result.state == "mutated"

    def test_record_with_container_fields(self, registry):
        registry.register(Point)
        p = Point([1, 2, 3], {"a": (4, 5)})
        result = pickle_read(pickle_write(p, registry), registry)
        assert result.x == [1, 2, 3]
        assert result.y == {"a": (4, 5)}

    def test_cyclic_records(self, registry):
        registry.register(Node)
        a = Node("a")
        b = Node("b")
        a.next = b
        b.next = a
        result = pickle_read(pickle_write(a, registry), registry)
        assert result.label == "a"
        assert result.next.label == "b"
        assert result.next.next is result

    def test_shared_record_instances(self, registry):
        registry.register(Point)
        p = Point(0, 0)
        result = pickle_read(pickle_write([p, p], registry), registry)
        assert result[0] is result[1]

    def test_explicit_field_list(self, registry):
        registry.register(Point, fields=("x",))
        p = Point(10, 20)
        result = pickle_read(pickle_write(p, registry), registry)
        assert result.x == 10
        assert not hasattr(result, "y")

    def test_custom_wire_name(self, registry):
        registry.register(Point, name="geometry.point")
        blob = pickle_write(Point(1, 2), registry)
        assert b"geometry.point" in blob
        assert isinstance(pickle_read(blob, registry), Point)

    def test_decode_unknown_class_rejected(self, registry):
        registry.register(Point)
        blob = pickle_write(Point(1, 2), registry)
        empty = TypeRegistry()
        with pytest.raises(UnknownRecordClass):
            pickle_read(blob, empty)

    def test_many_records_dedupe_class_name(self, registry):
        registry.register(Point)
        blob = pickle_write([Point(i, i) for i in range(50)], registry)
        assert blob.count(b"Point") == 1


class TestRegistry:
    def test_duplicate_name_rejected(self, registry):
        registry.register(Point)

        class Other:
            pass

        with pytest.raises(RegistryError):
            registry.register(Other, name="Point")

    def test_same_class_twice_same_name_ok(self, registry):
        registry.register(Point)
        registry.register(Point)  # idempotent

    def test_same_class_different_name_rejected(self, registry):
        registry.register(Point)
        with pytest.raises(RegistryError):
            registry.register(Point, name="Renamed")

    def test_unregister(self, registry):
        registry.register(Point)
        registry.unregister(Point)
        assert registry.describe(Point) is None
        with pytest.raises(RegistryError):
            registry.unregister(Point)

    def test_describe_and_resolve_are_the_two_lookups(self, registry):
        registry.register(Point)
        registry.register(Node, name="ANode", fields=["label"])
        assert registry.describe(Point) == ("Point", None)  # vars(instance)
        assert registry.describe(Node) == ("ANode", ("label",))
        assert registry.resolve("ANode") is Node
        assert registry.resolve("Node") is None

    def test_a_pass_asks_once_per_class_and_keeps_the_answer(self, registry):
        """Unregistering mid-pass is a non-goal: the pass uses what it learned."""
        registry.register(Point)
        asked = []
        describe = registry.describe
        registry.describe = lambda cls: asked.append(cls) or describe(cls)
        writer = PickleWriter(registry)
        writer.write([Point(1, 2), Point(3, 4)])
        registry.unregister(Point)
        writer.write(Point(5, 6))
        assert asked == [Point]

    def test_empty_name_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.register(Point, name="")

    def test_registered_names(self, registry):
        registry.register(Point)
        registry.register(Node, name="ANode")
        assert registry.registered_names() == ["ANode", "Point"]

    def test_pickleable_decorator_uses_default_registry(self):
        @pickleable(name="tests.TempRecord")
        class TempRecord:
            pass

        try:
            assert DEFAULT_REGISTRY.resolve("tests.TempRecord") is TempRecord
        finally:
            DEFAULT_REGISTRY.unregister(TempRecord)

    def test_pickleable_decorator_explicit_registry(self, registry):
        @pickleable(registry=registry)
        class Local:
            pass

        assert registry.resolve("Local") is Local
        assert DEFAULT_REGISTRY.resolve("Local") is None
