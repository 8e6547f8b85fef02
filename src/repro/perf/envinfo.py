"""Environment fingerprint recorded with every end-to-end benchmark run.

Benchmark numbers are only comparable between runs on like hardware and
like library versions; the fingerprint records enough to tell whether a
regression is a code change or an environment change.  Everything here
is JSON-native and cheap to collect (no subprocesses).
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np

__all__ = ["environment_fingerprint", "git_revision"]


def _git_dir(dot_git: Path) -> Path | None:
    """The git directory a ``.git`` entry stands for.

    A checkout's ``.git`` is the directory itself; a linked worktree's (or
    a submodule's) is a file ``gitdir: PATH``, with PATH relative to the
    file's directory or absolute.
    """
    if dot_git.is_dir():
        return dot_git
    text = dot_git.read_text().strip()
    if not text.startswith("gitdir:"):
        return None
    return dot_git.parent / text[len("gitdir:"):].strip()


def _resolve_head(git_dir: Path) -> str | None:
    """The commit ``HEAD`` of ``git_dir`` names, or ``None``.

    A worktree keeps its own ``HEAD`` but shares branches with the main
    checkout, whose git directory its ``commondir`` file names: a ref is
    looked up loose in the worktree's directory, then loose in the common
    one, then in the common ``packed-refs``.
    """
    head = (git_dir / "HEAD").read_text().strip()
    if not head.startswith("ref:"):
        return head or None  # detached
    ref = head.split(None, 1)[1]
    common = git_dir
    if (git_dir / "commondir").is_file():
        common = git_dir / (git_dir / "commondir").read_text().strip()
    for base in (git_dir, common):
        if (base / ref).is_file():
            return (base / ref).read_text().strip()
    packed = common / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def git_revision(repo_root: str | os.PathLike | None = None) -> str | None:
    """Best-effort current commit hash, read straight from ``.git``.

    Walks up from ``repo_root`` (default: this file's location) to the
    nearest ``.git`` — a directory, or a worktree's ``gitdir:`` file —
    then resolves ``HEAD`` with a few file reads, no git binary.  Returns
    ``None`` outside a checkout (e.g. an installed wheel); the fingerprint
    then simply omits the revision.
    """
    start = Path(repo_root) if repo_root is not None else Path(__file__)
    for parent in [start, *start.parents]:
        dot_git = parent / ".git"
        if not dot_git.exists():
            continue
        try:
            git_dir = _git_dir(dot_git)
            return None if git_dir is None else _resolve_head(git_dir)
        except OSError:
            return None
    return None


def environment_fingerprint() -> dict:
    """JSON-able snapshot of the interpreter, numpy, and host platform."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "byte_order": sys.byteorder,
        "git_revision": git_revision(),
    }
