"""Atomic file writes: every artifact goes to ``<path>.tmp`` first and is
moved over ``path`` with ``os.replace`` only once it is complete, so a
reader never sees a half-written file and a writer that fails leaves the
previous file as it was."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode="w", newline=None):
    """Open a temporary sibling of path for writing; on a clean exit it
    replaces path, on an exception it is removed and path is untouched."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
