"""The environment fingerprint, and the git revision read without git.

Each layout is built by hand under ``tmp_path`` the way git lays it out,
so no git binary runs: a main checkout whose ``.git`` is a directory,
and linked worktrees whose ``.git`` is a ``gitdir:`` file pointing at
``.git/worktrees/NAME`` (own ``HEAD``, shared refs via ``commondir``).
"""

import json
from pathlib import Path

from repro.perf.envinfo import environment_fingerprint, git_revision

MAIN_HEAD = "a" * 40
BRANCH_HEAD = "b" * 40
PACKED_HEAD = "c" * 40
DETACHED = "d" * 40


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _main_checkout(root):
    """``root`` checked out at ``main``; ``feature`` loose, ``packed`` packed."""
    git = root / ".git"
    _write(git / "HEAD", "ref: refs/heads/main\n")
    _write(git / "refs/heads/main", MAIN_HEAD + "\n")
    _write(git / "refs/heads/feature", BRANCH_HEAD + "\n")
    _write(git / "packed-refs",
           "# pack-refs with: peeled fully-peeled sorted \n"
           f"{'e' * 40} refs/heads/packed-older\n"
           f"{PACKED_HEAD} refs/heads/packed\n"
           f"^{'f' * 40}\n")
    return git


def _worktree(main_git, path, head, relative=False):
    """A linked worktree at ``path`` whose ``HEAD`` file reads ``head``."""
    admin = main_git / "worktrees" / path.name
    _write(admin / "HEAD", head + "\n")
    _write(admin / "commondir", "../..\n")
    _write(admin / "gitdir", str(path / ".git") + "\n")
    target = admin
    if relative:  # as git writes it under worktree.useRelativePaths
        target = Path("..") / admin.relative_to(path.parent)
    _write(path / ".git", f"gitdir: {target}\n")
    (path / "src").mkdir()
    return path / "src"


def test_plain_checkout(tmp_path):
    _main_checkout(tmp_path)
    (tmp_path / "src").mkdir()
    assert git_revision(tmp_path / "src") == MAIN_HEAD


def test_worktree_nested_in_the_checkout_reads_its_own_head(tmp_path):
    main_git = _main_checkout(tmp_path)
    inner = _worktree(main_git, tmp_path / "build" / "parent",
                      "ref: refs/heads/feature")
    assert git_revision(inner) == BRANCH_HEAD
    assert git_revision(tmp_path / "build") == MAIN_HEAD


def test_worktree_outside_the_checkout_with_relative_gitdir(tmp_path):
    main_git = _main_checkout(tmp_path / "repo")
    outer = _worktree(main_git, tmp_path / "elsewhere",
                      "ref: refs/heads/feature", relative=True)
    assert git_revision(outer) == BRANCH_HEAD


def test_detached_worktree_head(tmp_path):
    main_git = _main_checkout(tmp_path)
    inner = _worktree(main_git, tmp_path / "wt", DETACHED)
    assert git_revision(inner) == DETACHED


def test_ref_only_in_the_main_checkouts_packed_refs(tmp_path):
    main_git = _main_checkout(tmp_path)
    inner = _worktree(main_git, tmp_path / "wt", "ref: refs/heads/packed")
    assert git_revision(inner) == PACKED_HEAD


def test_plain_checkout_on_a_packed_branch(tmp_path):
    main_git = _main_checkout(tmp_path)
    _write(main_git / "HEAD", "ref: refs/heads/packed\n")
    assert git_revision(tmp_path) == PACKED_HEAD


def test_loose_ref_shadows_its_packed_copy(tmp_path):
    # git writes a moved branch loose and leaves the stale packed line.
    main_git = _main_checkout(tmp_path)
    _write(main_git / "refs/heads/packed", MAIN_HEAD + "\n")
    inner = _worktree(main_git, tmp_path / "wt", "ref: refs/heads/packed")
    assert git_revision(tmp_path) == MAIN_HEAD
    assert git_revision(inner) == MAIN_HEAD


def test_per_worktree_ref_is_read_from_the_worktrees_own_dir(tmp_path):
    main_git = _main_checkout(tmp_path)
    inner = _worktree(main_git, tmp_path / "wt", "ref: refs/worktree/pin")
    _write(main_git / "worktrees/wt/refs/worktree/pin", DETACHED + "\n")
    assert git_revision(inner) == DETACHED


def test_pruned_worktree_does_not_fall_through_to_the_outer_checkout(
        tmp_path):
    main_git = _main_checkout(tmp_path)
    inner = _worktree(main_git, tmp_path / "wt", "ref: refs/heads/feature")
    for entry in sorted((main_git / "worktrees/wt").iterdir()):
        entry.unlink()
    (main_git / "worktrees/wt").rmdir()
    assert git_revision(inner) is None


def test_dot_git_file_without_gitdir_line_gives_none(tmp_path):
    _main_checkout(tmp_path)
    _write(tmp_path / "sub" / ".git", "not a link\n")
    assert git_revision(tmp_path / "sub") is None


def test_unresolvable_ref_and_no_checkout_give_none(tmp_path):
    main_git = _main_checkout(tmp_path / "repo")
    inner = _worktree(main_git, tmp_path / "repo" / "wt",
                      "ref: refs/heads/gone")
    assert git_revision(inner) is None
    (tmp_path / "bare").mkdir()
    assert git_revision(tmp_path / "bare") is None


def test_fingerprint_keys():
    env = environment_fingerprint()
    assert set(env) == {"python", "implementation", "numpy", "platform",
                        "machine", "cpu_count", "byte_order", "git_revision"}
    assert env["python"] and env["numpy"] and env["machine"]
    assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    assert json.loads(json.dumps(env)) == env
