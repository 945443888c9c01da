"""Atomic file writes: every artifact goes to ``<path>.tmp`` first and is
moved over ``path`` with ``os.replace`` only once it is complete, so a
reader never sees a half-written file and a writer that fails leaves the
previous file as it was. The table and JSON framing of every artifact
lives here too; each writer supplies only its cells or its payload."""

import contextlib
import json
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


def write_table(path, header, rows, preamble=""):
    """A CSV table, atomically: preamble, the header line, then one
    comma-joined line per row of already-formatted cells."""
    with atomic_write(path, newline="") as f:
        f.write(preamble)
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def write_json(path, payload):
    """payload as JSON, atomically: indented by 2, keys sorted, a trailing
    newline."""
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
