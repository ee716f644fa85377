"""Property-based tests (hypothesis) for the pickle package.

Invariants:

* decode(encode(v)) == v for every pickleable value;
* encoding is deterministic: equal values (by our canonical comparison)
  produce identical bytes when built identically;
* types survive exactly (no bool→int, tuple→list, etc.);
* no prefix of a valid pickle decodes to a value *and* consumes all input;
* sharing and cycles among mutable containers survive: the copy's object
  graph is isomorphic to the original's.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.pickles import PickleError, pickle_read, pickle_write

# Finite floats only for equality-based round trips; NaN tested separately.
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

hashable_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=10,
)

values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.tuples(children),
        st.tuples(children, children),
        st.sets(hashable_values, max_size=4),
        st.dictionaries(hashable_values, children, max_size=5),
    ),
    max_leaves=25,
)


def equivalent(a: object, b: object) -> bool:
    """Structural equality that also checks types and -0.0/NaN handling."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(equivalent(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and list(a) == list(b) and all(
            equivalent(a[k], b[k]) for k in a
        )
    if isinstance(a, (set, frozenset)):
        return a == b
    return a == b


@given(values)
@settings(max_examples=300, deadline=None)
def test_roundtrip_preserves_value_and_type(value):
    assert equivalent(pickle_read(pickle_write(value)), value)


@given(values)
@settings(max_examples=150, deadline=None)
def test_encoding_is_deterministic(value):
    assert pickle_write(value) == pickle_write(value)


@given(st.integers())
@settings(max_examples=200, deadline=None)
def test_integers_of_any_magnitude(value):
    assert pickle_read(pickle_write(value)) == value


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_arbitrary_text(value):
    assert pickle_read(pickle_write(value)) == value


@given(values)
@settings(max_examples=60, deadline=None)
def test_strict_prefixes_never_decode_cleanly(value):
    """A truncated pickle must raise, not silently yield a value."""
    blob = pickle_write(value)
    for cut in range(len(blob)):
        try:
            pickle_read(blob[:cut])
        except PickleError:
            continue  # and nothing else: a cut string body is malformed, not raw
        raise AssertionError(f"prefix of length {cut} decoded cleanly")


@given(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=30))
@settings(max_examples=100, deadline=None)
def test_shared_substructure_roundtrips(names):
    """A list referencing one shared sublist keeps the sharing."""
    shared = list(names)
    value = [shared, shared, [shared]]
    result = pickle_read(pickle_write(value))
    assert result[0] is result[1]
    assert result[2][0] is result[0]
    assert result[0] == names


@st.composite
def object_graphs(draw):
    """Lists and dicts wired to each other at random: shared, cyclic, self-referring."""
    nodes = [[] if draw(st.booleans()) else {} for _ in range(draw(st.integers(1, 6)))]
    for node in nodes:
        for slot in range(draw(st.integers(0, 4))):
            target = draw(st.one_of(st.sampled_from(nodes), atoms))
            if isinstance(node, list):
                node.append(target)
            else:
                node[f"slot{slot}"] = target
    return nodes


def isomorphic(a: object, b: object, seen: dict[int, int]) -> bool:
    """Same values, and ``a``'s containers map one-to-one onto ``b``'s by identity."""
    if not isinstance(a, (list, dict)):
        return equivalent(a, b)
    if type(a) is not type(b) or len(a) != len(b):
        return False
    if id(a) in seen:
        return seen[id(a)] == id(b)
    if id(b) in seen.values():
        return False  # two originals collapsed into one copy
    seen[id(a)] = id(b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(isomorphic(a[k], b[k], seen) for k in a)
    return all(isomorphic(x, y, seen) for x, y in zip(a, b))


@given(object_graphs())
@settings(max_examples=300, deadline=None)
def test_roundtrip_preserves_sharing_and_cycles(nodes):
    assert isomorphic(nodes, pickle_read(pickle_write(nodes)), {})
