"""Whole-file replacement: a write that fails part-way leaves the file it
was replacing as it was, and a reader never sees a half-written file."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary sibling of path for writing. A clean exit
    replaces path with it in one rename; an error removes it. Text modes
    default to UTF-8."""
    if "b" not in mode:
        kwargs.setdefault("encoding", "utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
