"""The version-file switch protocol (paper section 3, verbatim recipe)."""

from __future__ import annotations

import pytest

from repro.core.version import (
    CurrentVersion,
    checkpoint_name,
    commit_new_version,
    complete_versions,
    finalize_switch,
    logfile_name,
    numbered_files,
    read_current_version,
)
from repro.sim import SimClock
from repro.storage import SimFS, StorageError


@pytest.fixture
def fs() -> SimFS:
    return SimFS(clock=SimClock())


def install_version(fs, n, checkpoint=b"ckpt", log=b""):
    fs.write(checkpoint_name(n), checkpoint)
    fs.fsync(checkpoint_name(n))
    fs.write(logfile_name(n), log)
    fs.fsync(logfile_name(n))


class TestNames:
    def test_names(self):
        assert checkpoint_name(35) == "checkpoint35"
        assert logfile_name(35) == "logfile35"

    def test_numbered_files(self, fs):
        install_version(fs, 35)
        fs.write("checkpoint36", b"partial")
        fs.write("unrelated", b"x")
        found = numbered_files(fs)
        assert found == {35: {"checkpoint", "logfile"}, 36: {"checkpoint"}}

    def test_complete_versions(self, fs):
        install_version(fs, 3)
        install_version(fs, 5)
        fs.write("checkpoint7", b"partial only")
        assert complete_versions(fs) == [3, 5]


class TestReadCurrentVersion:
    def test_empty_directory(self, fs):
        assert read_current_version(fs) is None

    def test_version_file(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        current = read_current_version(fs)
        assert current == CurrentVersion(35, "version")

    def test_newversion_preferred(self, fs):
        install_version(fs, 35)
        install_version(fs, 36)
        fs.write("version", b"35")
        fs.write("newversion", b"36")
        assert read_current_version(fs) == CurrentVersion(36, "newversion")

    def test_invalid_newversion_falls_back(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.write("newversion", b"not-a-number")
        assert read_current_version(fs) == CurrentVersion(35, "version")

    def test_empty_newversion_falls_back(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.write("newversion", b"")
        assert read_current_version(fs) == CurrentVersion(35, "version")

    def test_unreadable_newversion_falls_back(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.fsync("version")
        fs.write("newversion", b"36")
        fs.fsync("newversion")
        fs.crash()
        fs.corrupt("newversion", 0)
        assert read_current_version(fs) == CurrentVersion(35, "version")

    def test_dangling_version_number_ignored(self, fs):
        """A version file naming files that do not exist is not honoured."""
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.write("newversion", b"99")  # no checkpoint99
        assert read_current_version(fs) == CurrentVersion(35, "version")

    def test_no_files_at_all_for_version(self, fs):
        fs.write("version", b"12")
        assert read_current_version(fs) is None


class TestSwitch:
    def test_commit_then_finalize(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        install_version(fs, 36)
        commit_new_version(fs, 36)
        finalize_switch(fs, CurrentVersion(36, "newversion"), keep_versions=1)
        assert fs.read("version") == b"36"
        assert not fs.exists("newversion")
        assert not fs.exists("checkpoint35")
        assert not fs.exists("logfile35")

    def test_commit_requires_no_pending_newversion(self, fs):
        install_version(fs, 36)
        commit_new_version(fs, 36)
        with pytest.raises(StorageError):
            commit_new_version(fs, 37)

    def test_keep_previous_retains_one_pair(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        install_version(fs, 36)
        commit_new_version(fs, 36)
        finalize_switch(fs, CurrentVersion(36, "newversion"), keep_versions=2)
        assert fs.exists("checkpoint35")
        assert fs.exists("logfile35")
        assert fs.read("version") == b"36"

    def test_keep_previous_drops_older_pairs(self, fs):
        for n in (30, 33, 35):
            install_version(fs, n)
        fs.write("version", b"35")
        install_version(fs, 36)
        commit_new_version(fs, 36)
        finalize_switch(fs, CurrentVersion(36, "newversion"), keep_versions=2)
        assert complete_versions(fs) == [35, 36]

    def test_bad_keep_versions(self, fs):
        with pytest.raises(ValueError):
            finalize_switch(fs, CurrentVersion(1, "newversion"), keep_versions=0)


class TestCleanupAfterRestart:
    def test_completes_interrupted_switch(self, fs):
        """Crash after commit point, before rename: cleanup finishes it."""
        install_version(fs, 35)
        fs.write("version", b"35")
        install_version(fs, 36)
        fs.write("newversion", b"36")
        current = read_current_version(fs)
        assert current.source == "newversion"
        finalize_switch(fs, current)
        assert fs.read("version") == b"36"
        assert not fs.exists("newversion")
        assert not fs.exists("checkpoint35")

    def test_discards_partial_next_version(self, fs):
        """Crash before commit point: the half-written next version dies."""
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.write("checkpoint36", b"partial checkpoint")
        current = read_current_version(fs)
        assert current.number == 35
        finalize_switch(fs, current)
        assert not fs.exists("checkpoint36")
        assert fs.exists("checkpoint35")

    def test_discards_stale_newversion(self, fs):
        install_version(fs, 35)
        fs.write("version", b"35")
        fs.write("newversion", b"junk")
        current = read_current_version(fs)
        finalize_switch(fs, current)
        assert not fs.exists("newversion")

    def test_keeps_previous_pair_when_asked(self, fs):
        install_version(fs, 34)
        install_version(fs, 35)
        fs.write("version", b"35")
        current = read_current_version(fs)
        finalize_switch(fs, current, keep_versions=2)
        assert complete_versions(fs) == [34, 35]

    def test_deletes_previous_pair_by_default(self, fs):
        install_version(fs, 34)
        install_version(fs, 35)
        fs.write("version", b"35")
        finalize_switch(fs, read_current_version(fs))
        assert complete_versions(fs) == [35]
