"""Format compatibility both ways across the single-pass codec rewrite.

``PREVIOUS_CODEC_DIRECTORY`` is a data directory — a checkpoint and a
non-empty log — that :func:`write_directory` produced under the commit
*before* the pickle codec and the log scan were rewritten (PR 11's
tree), committed here as constants.  Under the current code it must
open, replay and pass ``fsck``; and :func:`write_directory` must still
produce exactly those log and version bytes.

The checkpoint is the same codec over a smaller root: since the
replication history became a bounded window the root has no ``applied``
set, so ``checkpoint2`` is pinned by its own constant — and putting the
set back reproduces the previous bytes exactly, which shows nothing else
moved.  (A build from before the window indexes ``root["applied"]`` and
so cannot open a directory checkpointed by this one; see docs/FORMATS.md.)
"""

from __future__ import annotations

import base64
import io
import zlib

from repro import LocalFS, NameServer
from repro.core.checkpoint import read_checkpoint
from repro.pickles import pickle_read, pickle_write
from repro.tools.fsck import main as fsck_main


def write_directory(directory: str) -> None:
    """Seven binds and an unbind around one checkpoint, then a clean close."""
    server = NameServer(LocalFS(directory), durability="relaxed")
    try:
        for n in range(4):
            server.bind(f"org/hosts/h{n}", {"address": f"10.0.0.{n}", "up": n % 2 == 0})
        server.checkpoint()
        for n in range(3):
            server.bind(f"org/users/u{n}", ("uid", 1000 + n, 2.5 * n, b"\x00key"))
        server.unbind("org/hosts/h1")
    finally:
        server.close()


#: what the directory holds, as paths below ``org``
EXPECTED_NAMES = {
    ("hosts", "h0"): {"address": "10.0.0.0", "up": True},
    ("hosts", "h2"): {"address": "10.0.0.2", "up": True},
    ("hosts", "h3"): {"address": "10.0.0.3", "up": False},
    ("users", "u0"): ("uid", 1000, 0.0, b"\x00key"),
    ("users", "u1"): ("uid", 1001, 2.5, b"\x00key"),
    ("users", "u2"): ("uid", 1002, 5.0, b"\x00key"),
}

#: file name -> base64(zlib(contents)), as the previous codec wrote them
PREVIOUS_CODEC_DIRECTORY = {
    "checkpoint2": (
        "eNp9ULFOwzAQbWxfbJqeQKpoUYEBMSAGqqZlYUWMiIUPQKY+GktpEpy0av+UP2FgwUlLK5bK1une"
        "87t3d359eoy/eSRBOipSO9UgC2fn2q1Bpnpe5K7iClRGq+qtpE/eBlE5og4cZ3pOJbklueFLboiB"
        "miY2NY6yKACeu1kHJUPlASR5WZVbKIAlo23eApGS/vhv9uwZAbDU6YIiBlIb71mWoOLRsDnAFgVD"
        "zhmEubMzm6FXGUqpIhN49/jPHbsdPBXYixie7cpjHAS+WOA5Mryo9eOD+jEO6mbhXj85qJ9s/NVW"
        "j93W5vpFCv/BZI6EYsg4a+ImD5uoIFzStMpdFDRIJrb0aC2FEhj7dcW7zYziimMbEU+wH/iHsV/l"
        "YUde4lVNTvy8e/Iab2ry3g+1J2/xLuh//fR+AeqsUOE="
    ),
    "logfile2": (
        "eNpbyujCwczKkVccn5OfnJjDwcTKkpSZl8LBDBRlzi9KZ2UtLU4tKmZlKjXgYGFlLs1MYb7Az8IA"
        "BWwsDNmplYzcDCvfuOgwjIKhB5YyERv/hrD4v8TP4sCCFv9JP7q8RgNzKMY/M7HxbwSL/yvA+BdB"
        "i/8/k6rYRgNzKMY/iw5a/LOV5oFTACM8BWTkF5cAU0CGITfDW7ZnN0YDbRgBACGqPmA="
    ),
    "version": (
        "eNozAgAAMwAz"
    ),
}

#: ``checkpoint2`` as :func:`write_directory` writes it now: the root
#: above without its ``applied`` set
CHECKPOINT2_WITHOUT_APPLIED = (
    "eNp9kE1OwzAQheufia2mI5AqflRggVggFlRNywkQS8SGAyDTDI2lNAl2WtHL9S5IXAMJl6YtbKrx"
    "wm/eN88jPz/cJ18ijkA5qnI7NqAqZ6fGLUDlZlqVrhYadEEf9Yund9EGWTuiDhwUZkqe3Jxc/6lM"
    "iYMeZzZPHRUxA1G6SQcVRx0EZKWvfSMl8GzQ3FsgczJv/8MeQ0cCzE0+o5iDMmnI9B50Muj/FvBZ"
    "xVEIDlHp7MQWGKiUcqopZSE92aRjt4NHEo9jjqfb8QR7LAxLPEOO5yt+uJcfYm/1WLTjR3v50Tpf"
    "Nzx2W+sD0ZzGdelihjz8qMqsD2qhpJaah1YokK+2SLXQAtuIeIgnrDFl2Pdua1zg5caIwmI74wqv"
    "N0bo/TFu8JZ9frPlD40jTWU="
)


def _unpacked(packed: str) -> bytes:
    return zlib.decompress(base64.b64decode(packed))


def _unpack(directory) -> None:
    for name, packed in PREVIOUS_CODEC_DIRECTORY.items():
        (directory / name).write_bytes(_unpacked(packed))


def test_previous_codecs_directory_opens_replays_and_passes_fsck(tmp_path):
    _unpack(tmp_path)
    server = NameServer(LocalFS(str(tmp_path)))
    try:
        assert server.db.last_recovery.entries_replayed == 4
        found = {tuple(path): value for path, value in server.read_subtree(("org",))}
        assert found == EXPECTED_NAMES
    finally:
        server.close()
    out = io.StringIO()
    assert fsck_main([str(tmp_path)], out=out) == 0, out.getvalue()


def test_previous_directory_sheds_its_applied_set_at_the_first_update(tmp_path):
    """No load-time migration: the first update (replayed or new) drops
    the leftover key, so the next checkpoint is the windowed shape."""
    _unpack(tmp_path)
    shipped = pickle_read(read_checkpoint(LocalFS(str(tmp_path)), "checkpoint2"))
    assert len(shipped["applied"]) == 4
    server = NameServer(LocalFS(str(tmp_path)))
    try:
        server.bind("org/hosts/h9", {"address": "10.0.0.9", "up": True})
        server.checkpoint()
    finally:
        server.close()
    server = NameServer(LocalFS(str(tmp_path)))
    try:
        assert server.db.last_recovery.entries_replayed == 0
        root_keys = server.db.enquire(lambda root: sorted(root))
        assert root_keys == ["history", "lamport", "next_seq", "replica", "tree", "vector"]
        assert server.updates_since({"primary": 8}) == server.updates_since({})[8:]
        assert len(server.updates_since({})) == 9
        assert server.lookup("org/hosts/h9")["address"] == "10.0.0.9"
    finally:
        server.close()
    out = io.StringIO()
    assert fsck_main([str(tmp_path)], out=out) == 0, out.getvalue()


def _written(tmp_path) -> dict[str, bytes]:
    write_directory(str(tmp_path))
    return {
        entry.name: entry.read_bytes() for entry in tmp_path.iterdir() if entry.is_file()
    }


def test_this_codec_writes_the_same_log_and_version_byte_for_byte(tmp_path):
    written = _written(tmp_path)
    assert sorted(written) == sorted(PREVIOUS_CODEC_DIRECTORY)
    for name in ("logfile2", "version"):
        assert written[name] == _unpacked(PREVIOUS_CODEC_DIRECTORY[name]), name


def test_checkpoint_differs_from_the_previous_one_by_the_applied_set_only(tmp_path):
    written = _written(tmp_path)
    assert written["checkpoint2"] == _unpacked(CHECKPOINT2_WITHOUT_APPLIED)

    # Same codec, smaller root: put the set back where it used to sit
    # (between "tree" and "vector") and the previous payload comes out.
    fs = LocalFS(str(tmp_path))
    root = pickle_read(read_checkpoint(fs, "checkpoint2"))
    previous_shape = {}
    for key, value in root.items():
        if key == "vector":
            previous_shape["applied"] = {record[0] for record in root["history"]}
        previous_shape[key] = value
    (tmp_path / "previous").write_bytes(_unpacked(PREVIOUS_CODEC_DIRECTORY["checkpoint2"]))
    assert pickle_write(previous_shape) == read_checkpoint(fs, "previous")
