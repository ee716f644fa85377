"""The dump and fsck operator tools."""

from __future__ import annotations

import io

import pytest

from repro.core import Database
from repro.storage import LocalFS, SimFS
from repro.tools import dump_directory, fsck_directory
from repro.tools.dump import main as dump_main
from repro.tools.fsck import main as fsck_main


@pytest.fixture
def populated(fs, kv_ops) -> SimFS:
    db = Database(fs, initial=dict, operations=kv_ops)
    db.update("set", "alice", {"uid": 7})
    db.update("set", "bob", [1, 2])
    db.checkpoint()
    db.update("del", "bob")
    return fs


class TestDump:
    def _dump(self, fs, limit=20) -> str:
        out = io.StringIO()
        dump_directory(fs, out=out, limit=limit)
        return out.getvalue()

    def test_dump_empty_directory(self, fs):
        text = self._dump(fs)
        assert "no committed version" in text

    def test_dump_shows_version_and_files(self, populated):
        text = self._dump(populated)
        assert "current version: 2" in text
        assert "checkpoint2" in text
        assert "checksum OK" in text

    def test_dump_decodes_log_entries(self, populated):
        text = self._dump(populated)
        assert "del('bob')" in text
        assert "total 1 entries" in text

    def test_dump_reports_damage(self, populated):
        populated.crash()  # drop the buffer cache so damage is visible
        populated.corrupt("checkpoint2", 0)
        text = self._dump(populated)
        assert "UNREADABLE" in text

    def test_dump_limit(self, fs, kv_ops):
        db = Database(fs, initial=dict, operations=kv_ops)
        for i in range(30):
            db.update("set", f"k{i}", i)
        text = self._dump(fs, limit=5)
        assert "… 25 more entries" in text

    def test_dump_shows_archives(self, fs, kv_ops):
        db = Database(fs, initial=dict, operations=kv_ops, archive_logs=True)
        db.update("set", "a", 1)
        db.checkpoint()
        text = self._dump(fs)
        assert "audit archives: epochs [1]" in text

    def test_dump_main_on_local_directory(self, tmp_path, kv_ops, capsys):
        directory = str(tmp_path / "db")
        db = Database(LocalFS(directory), initial=dict, operations=kv_ops)
        db.update("set", "x", 1)
        out = io.StringIO()
        status = dump_main([directory], out=out)
        assert status == 0
        assert "current version: 1" in out.getvalue()
        assert "scanned " in out.getvalue().splitlines()[-1]


class TestFsck:
    def test_clean_directory(self, populated):
        report = fsck_directory(populated)
        assert report.clean
        assert report.exit_status() == 0

    def test_empty_directory_is_a_note(self, fs):
        report = fsck_directory(fs)
        assert report.exit_status() == 0
        assert any("fresh database" in note for note in report.notes)

    def test_orphaned_files_without_version(self, fs):
        fs.write("checkpoint7", b"data")
        report = fsck_directory(fs)
        assert report.exit_status() == 2

    def test_damaged_current_checkpoint_is_error(self, populated):
        populated.crash()
        populated.corrupt("checkpoint2", 0)
        report = fsck_directory(populated)
        assert report.exit_status() == 2
        assert any("checkpoint2" in e for e in report.errors)

    def test_damaged_log_tail_is_warning(self, populated):
        size = populated.size("logfile2")
        populated.crash()
        populated.corrupt("logfile2", size - 1)
        report = fsck_directory(populated)
        assert report.exit_status() == 1
        assert any("truncates" in w for w in report.warnings)

    def test_unfinished_switch_is_warning(self, populated, kv_ops):
        # Fabricate the post-commit pre-rename state.
        populated.write("checkpoint3", populated.read("checkpoint2"))
        populated.fsync("checkpoint3")
        populated.create("logfile3")
        populated.fsync("logfile3")
        populated.write("newversion", b"3")
        populated.fsync("newversion")
        report = fsck_directory(populated)
        assert report.exit_status() == 1
        assert any("commit point" in w for w in report.warnings)

    def test_partial_next_version_is_warning(self, populated):
        populated.write("checkpoint3", b"partial")
        report = fsck_directory(populated)
        assert report.exit_status() == 1

    def test_unrecognised_file_is_warning(self, populated):
        populated.write("lockfile", b"")
        report = fsck_directory(populated)
        assert report.exit_status() == 1
        assert any("lockfile" in w for w in report.warnings)

    def test_retained_previous_version_is_note(self, fs, kv_ops):
        db = Database(fs, initial=dict, operations=kv_ops, keep_versions=2)
        db.update("set", "a", 1)
        db.checkpoint()
        report = fsck_directory(fs)
        assert report.exit_status() == 0
        assert any("older version" in n for n in report.notes)

    def test_archives_are_checked(self, fs, kv_ops):
        db = Database(fs, initial=dict, operations=kv_ops, archive_logs=True)
        db.update("set", "a", "x" * 600)
        db.checkpoint()
        fs.crash()
        fs.corrupt("archive1", 0)
        report = fsck_directory(fs)
        assert report.exit_status() == 2

    def test_fsck_main_on_local_directory(self, tmp_path, kv_ops):
        directory = str(tmp_path / "db")
        db = Database(LocalFS(directory), initial=dict, operations=kv_ops)
        db.update("set", "x", 1)
        out = io.StringIO()
        status = fsck_main([directory], out=out)
        assert status == 0
        assert "verdict: clean" in out.getvalue()

    def test_fsck_main_reports_scan_totals_from_registry(self, tmp_path, kv_ops):
        directory = str(tmp_path / "db")
        db = Database(LocalFS(directory), initial=dict, operations=kv_ops)
        db.update("set", "x", 1)
        out = io.StringIO()
        fsck_main([directory], out=out)
        summary = out.getvalue().splitlines()[-1]
        assert summary.startswith("scanned ")
        # The byte count comes from the metered LocalFS, so it is real.
        scanned = int(summary.split()[1])
        assert scanned > 0

    def test_report_write_format(self, populated):
        populated.write("junk", b"")
        out = io.StringIO()
        fsck_directory(populated).write(out)
        text = out.getvalue()
        assert "warning:" in text
        assert "verdict: warnings only" in text
