"""Benchmark provenance: interpreter, platform, and git identity."""

from __future__ import annotations

import string
import subprocess
from pathlib import Path

import pytest

from repro.core.provenance import git_dirty, git_revision, provenance

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestGitRevision:
    def test_inside_a_checkout(self):
        sha = git_revision(REPO_ROOT)
        assert len(sha) == 40
        assert set(sha) <= set(string.hexdigits)

    def test_outside_a_checkout(self, tmp_path):
        assert git_revision(tmp_path) == "unknown"


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
         *args],
        cwd=repo, check=True, capture_output=True,
    )


class TestGitDirty:
    @pytest.fixture
    def repo(self, tmp_path):
        _git(tmp_path, "init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        _git(tmp_path, "add", "a.txt")
        _git(tmp_path, "commit", "-q", "-m", "init")
        return tmp_path

    def test_clean_then_dirty(self, repo):
        assert git_dirty(repo) is False
        (repo / "a.txt").write_text("two\n")
        assert git_dirty(repo) is True
        block = provenance(repo)
        assert block["git_dirty"] is True
        assert block["git_sha"] == git_revision(repo) != "unknown"

    def test_untracked_file_is_dirty(self, repo):
        (repo / "b.txt").write_text("new\n")
        assert git_dirty(repo) is True

    def test_outside_a_checkout(self, tmp_path):
        assert git_dirty(tmp_path) is None


class TestProvenance:
    def test_block_shape(self):
        block = provenance(REPO_ROOT)
        assert set(block) == {
            "python", "implementation", "platform", "machine",
            "cpu_count", "git_sha", "git_dirty", "argv",
        }
        assert block["cpu_count"] >= 1
        assert block["python"].count(".") == 2
        assert isinstance(block["argv"], list)
        assert block["git_sha"] != "unknown"
        assert isinstance(block["git_dirty"], bool)
