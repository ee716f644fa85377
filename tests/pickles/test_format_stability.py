"""Wire-format stability: golden vectors.

Checkpoints and logs persist across software upgrades, so the pickle wire
format, the log entry framing and the checkpoint framing are *contracts*.
These tests pin exact byte sequences; if one fails, an incompatible
format change has been made and old databases would stop reading.
Change the format only with an explicit new magic/tag, never by
repurposing existing bytes.
"""

from __future__ import annotations

import pytest

from repro.core.checkpoint import MAGIC as CHECKPOINT_MAGIC, write_checkpoint
from repro.core.log import encode_entry
from repro.pickles import pickle_read, pickle_write
from repro.sim import SimClock
from repro.storage import SimFS

#: value -> exact pickle bytes (hex).  Append new rows; never edit old ones.
GOLDEN_PICKLES = [
    (None, "00"),
    (False, "01"),
    (True, "02"),
    (0, "0300"),
    (1, "0302"),
    (-1, "0301"),
    (300, "03d804"),
    (1.5, "043ff8000000000000"),
    ("", "0500"),
    ("hi", "05026869"),
    (b"\x00\xff", "060200ff"),
    ([], "0700"),
    ([1, 2], "070203020304"),
    ((1,), "08010302"),
    ({1, 2}, "090203020304"),
    (frozenset({1}), "0a010302"),
    ({}, "0b00"),
    ({"k": 1}, "0b0105016b0302"),
]


class TestGoldenPickles:
    @pytest.mark.parametrize("value,expected_hex", GOLDEN_PICKLES)
    def test_encoding_pinned(self, value, expected_hex):
        assert pickle_write(value).hex() == expected_hex

    @pytest.mark.parametrize("value,expected_hex", GOLDEN_PICKLES)
    def test_decoding_pinned(self, value, expected_hex):
        assert pickle_read(bytes.fromhex(expected_hex)) == value

    def test_backreference_encoding_pinned(self):
        # list of two identical strings: STR once, REF(0 -> the string...)
        blob = pickle_write(["x", "x"])
        # LIST tag, count 2, STR "x", REF -> table index 1 (list is 0)
        assert blob.hex() == "07020501780d01"
        copy = pickle_read(blob)
        assert copy == ["x", "x"]

    def test_cycle_encoding_pinned(self):
        value: list = []
        value.append(value)
        assert pickle_write(value).hex() == "07010d00"

    def test_record_encoding_pinned(self):
        from repro.pickles import TypeRegistry

        registry = TypeRegistry()

        class Rec:
            pass

        registry.register(Rec, name="R")
        instance = Rec()
        instance.f = 7
        blob = pickle_write(instance, registry)
        # RECORD tag, name "R", 1 field, name "f", INT 7
        assert blob.hex() == "0c05015201050166030e"


class TestGoldenLogFraming:
    def test_entry_layout_pinned(self):
        entry = encode_entry(1, b"ab")
        # magic A5, seq varint 1, len varint 2, payload, crc32 big-endian
        assert entry[:4].hex() == "a5010261"
        assert entry[0] == 0xA5
        assert len(entry) == 1 + 1 + 1 + 2 + 4
        import zlib

        crc = int.from_bytes(entry[-4:], "big")
        assert crc == zlib.crc32(entry[1:-4]) & 0xFFFFFFFF

    def test_known_entry_bytes(self):
        assert encode_entry(1, b"").hex() == "a50100" + "%08x" % (
            __import__("zlib").crc32(bytes.fromhex("0100")) & 0xFFFFFFFF
        )


class TestGoldenCheckpointFraming:
    def test_magic_pinned(self):
        assert CHECKPOINT_MAGIC == b"SDB1"

    def test_layout_pinned(self):
        fs = SimFS(clock=SimClock())
        write_checkpoint(fs, "ck", b"PAYLOAD")
        raw = fs.read("ck")
        assert raw[:4] == b"SDB1"
        assert raw[4] == 7  # varint length
        assert raw[5:12] == b"PAYLOAD"
        import zlib

        assert int.from_bytes(raw[12:], "big") == zlib.crc32(b"PAYLOAD")


class TestVersionFileFormat:
    def test_version_file_is_ascii_digits(self, tmp_path):
        from repro.core import Database, OperationRegistry
        from repro.storage import LocalFS

        ops = OperationRegistry()
        ops.register("noop", lambda root: None)
        db = Database(LocalFS(str(tmp_path)), initial=dict, operations=ops)
        assert (tmp_path / "version").read_bytes() == b"1"
        db.checkpoint()
        assert (tmp_path / "version").read_bytes() == b"2"


# -- byte-for-byte digests ---------------------------------------------------
#
# SHA-256 of ``pickle_write`` output, written once by the encoder of the
# commit *before* the single-pass codec (PR 11's tree) and committed as
# constants: the rewrite may change how fast these bytes are produced,
# never one of the bytes.
#
# "root" was re-pinned when the replication history became a window and
# the root lost its ``applied`` set: a smaller value, not a different
# encoding — ``test_previous_root_shape_keeps_its_previous_bytes`` puts
# the set back and still gets PR 11's digest.

PREVIOUS_ROOT_SHA256 = "9960a2d11be6f65e8e39a060131c7009253619f653f50cd782aa26117ac26485"


def seeded_root(names: int = 300) -> dict:
    """A name-server root built by seeded binds, unbinds and subtree writes."""
    import random

    from repro.nameserver import NAMESERVER_OPS, new_root

    rng = random.Random(1987)
    root = new_root("golden")
    apply = NAMESERVER_OPS.get("ns_local").apply
    paths = []
    for n in range(names):
        path = (f"org{rng.randrange(12):02d}", rng.choice(("hosts", "users")), f"n{n}")
        paths.append(path)
        value = {
            "owner": rng.choice(("birrell", "jones", "wobber")),
            "created": rng.randrange(-(2**40), 2**40),
            "data": f"{'/'.join(path)}|" * rng.randrange(1, 30),
            "weight": rng.random(),
            "blob": bytes(rng.randrange(256) for _ in range(rng.randrange(5))),
            "tags": {rng.randrange(5) for _ in range(3)},
            "flags": (n % 2 == 0, None, frozenset({path[1], "x"})),
        }
        apply(root, "bind", (path, value, False))
    for path in rng.sample(paths, names // 10):
        apply(root, "unbind", (path,))
    apply(root, "write_subtree", (("org00", "hosts"), [(("a",), 1), (("b", "c"), [2, 3])]))
    return root


def one_of_each_tag() -> list:
    """One value per wire tag, records and back references included."""
    from repro.nameserver.tree import Leaf

    shared = ["shared", b"bytes"]
    cycle: dict = {"self": None}
    cycle["self"] = cycle
    return [
        None, False, True, 0, -1, 63, 64, -(2**70), 1.5, -0.0, "", "héllo", "x" * 200,
        b"", b"\x00\xff", [], [1, [2]], (), (1, "a"), set(), {3, 1, 2},
        frozenset(), frozenset({"b", "a"}), {}, {"k": {"k": "k"}},
        Leaf({"v": 1}, 7, "replica-a"), Leaf(None, 8, "replica-a", deleted=True),
        shared, shared, cycle,
    ]


def log_entry() -> tuple:
    """One bind as ``Database.update`` frames it for the log."""
    path = ("org03", "hosts", "n42")
    value = {"owner": "wobber", "created": 3, "data": "org03/hosts/n42#3|" * 20}
    return ("ns_local", ("bind", (path, value, False)), {})


#: label -> (builder of the value, SHA-256 of its pickle under the previous encoder)
GOLDEN_SHA256 = {
    "root": (seeded_root, "8c7d9f976fa380963ffbe5cdcfbfe2c9e40c98965e98291c307d7e9c25ed91df"),
    "entry": (log_entry, "048687626ad89b18abdf2179e9195bd88c3e756b2fadb767b7c2b7d4a8bb1fd7"),
    "tags": (one_of_each_tag, "c39bbec543684c106e2e0ca890320605c825f474885b496673c309a8e8cab238"),
}


class TestGoldenDigests:
    @pytest.mark.parametrize("label", sorted(GOLDEN_SHA256))
    def test_bytes_match_the_previous_encoder(self, label):
        import hashlib

        build, expected = GOLDEN_SHA256[label]
        blob = pickle_write(build())
        assert hashlib.sha256(blob).hexdigest() == expected
        assert pickle_write(pickle_read(blob)) == blob  # and they read back

    def test_previous_root_shape_keeps_its_previous_bytes(self):
        import hashlib

        root = seeded_root()
        previous_shape = {}
        for key, value in root.items():
            if key == "vector":  # ``applied`` sat between "tree" and "vector"
                previous_shape["applied"] = {record[0] for record in root["history"]}
            previous_shape[key] = value
        digest = hashlib.sha256(pickle_write(previous_shape)).hexdigest()
        assert digest == PREVIOUS_ROOT_SHA256
