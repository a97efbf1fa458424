"""Whole-file writes that a failure part way cannot leave half done.

Each file is written to a temp file beside it and then renamed over it with
``os.replace``, one step on one file system: a reader sees the old bytes or
the new ones, never a mix. This guards against a process that raises or is
killed mid-write; it does not ``fsync``, so it does not guard against a
power loss.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_output(path):
    """A binary file whose bytes replace ``path`` when the block ends. If
    the block raises, ``path`` keeps its previous bytes (or stays absent)
    and the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` with ``data``; text is written as UTF-8."""
    with atomic_output(path) as f:
        f.write(data.encode("utf-8") if isinstance(data, str) else data)
