"""Format compatibility both ways across the single-pass codec rewrite.

``PREVIOUS_CODEC_DIRECTORY`` is a data directory — a checkpoint and a
non-empty log — that :func:`write_directory` produced under the commit
*before* the pickle codec and the log scan were rewritten (PR 11's
tree), committed here as constants.  Under the current code it must
open, replay and pass ``fsck``; and :func:`write_directory` must still
produce exactly those bytes, which is what lets the previous decoder
read a directory written today.
"""

from __future__ import annotations

import base64
import io
import zlib

from repro import LocalFS, NameServer
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


def _unpack(directory) -> None:
    for name, packed in PREVIOUS_CODEC_DIRECTORY.items():
        (directory / name).write_bytes(zlib.decompress(base64.b64decode(packed)))


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


def test_this_codec_writes_the_same_directory_byte_for_byte(tmp_path):
    write_directory(str(tmp_path))
    written = {
        entry.name: entry.read_bytes() for entry in tmp_path.iterdir() if entry.is_file()
    }
    expected = {
        name: zlib.decompress(base64.b64decode(packed))
        for name, packed in PREVIOUS_CODEC_DIRECTORY.items()
    }
    assert written == expected
