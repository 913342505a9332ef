"""Run provenance for benchmark artifacts.

Every ``BENCH_*.json`` the benchmarks write embeds a provenance block —
interpreter, platform, CPU budget, the git commit the numbers were
measured at and whether the tree was dirty — so a recorded headline can
be traced to the environment that produced it (and a regression triaged
as "code got slower" vs "machine changed").
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path


def _git(cwd: str | Path | None, *args: str) -> str | None:
    """Stdout of one git command, or ``None`` if it fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_revision(cwd: str | Path | None = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    revision = (_git(cwd, "rev-parse", "HEAD") or "").strip()
    return revision or "unknown"


def git_dirty(cwd: str | Path | None = None) -> bool | None:
    """Whether the checkout has uncommitted changes (``None`` outside one).

    Numbers measured on a dirty tree are not the numbers of ``HEAD``;
    the flag keeps them from being credited to the previous commit.
    """
    status = _git(cwd, "status", "--porcelain")
    return None if status is None else bool(status.strip())


def provenance(cwd: str | Path | None = None) -> dict:
    """The provenance block benchmark reports embed.

    ``cwd`` points git at the repository being measured (defaults to
    the process working directory).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": git_revision(cwd),
        "git_dirty": git_dirty(cwd),
        "argv": list(sys.argv),
    }
