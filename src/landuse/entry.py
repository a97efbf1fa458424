"""The binary cache entries that stages keep in ``out_dir``.

An entry is, little-endian::

    magic, <I version, <I item count, the items, sha256 of every byte before it

Each item starts at a multiple of 8 bytes, after zero padding, with an
8-byte ASCII code and a ``<Q`` count. An array item's code is its numpy
dtype string, and its data the count elements, so every array is aligned
for its dtype. A string item's code is ``utf-8``, and its data the ``<u4``
byte length of each of the count strings, then their UTF-8 bytes.

Each kind of entry (the manifest table of ``dataset``, the parcels of
``geodata``) has its own magic and says which items it stores in which
order, a key of input digests first; this module alone knows the bytes,
and holds the digests the keys are made of.

A reader treats anything but an entry it can read whole, whose sha256,
magic and version match, as a miss. A writer that meets an ``OSError``
leaves no entry, or the previous one: a miss costs the work the entry
saves and nothing else.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path

import numpy as np
import orjson

from .atomic import atomic_output

_DIGEST = 32
_TEXT = b"utf-8"
_ITEM = struct.Struct("<8sQ")


def file_sha256(path) -> bytes:
    """sha256 of a file's bytes, read in chunks."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").digest()


def classes_sha256(taxonomy) -> bytes:
    """sha256 of a taxonomy's fine-class list as orjson's JSON text: the
    part of a taxonomy that names and numbers classes."""
    return hashlib.sha256(orjson.dumps(list(taxonomy.fine_classes))).digest()


def read_entry(entry, magic: bytes, version: int) -> list | None:
    """The items of ``entry``: each a 1-D array, a writable view of the
    entry's bytes, or a list of strings. None if the entry cannot be read
    whole, or its sha256, magic or version do not match, or its items do
    not fill it exactly."""
    try:
        with open(entry, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            whole = f.readinto(buf) == len(buf)
    except OSError:
        return None
    body = memoryview(buf)[:-_DIGEST]
    head = magic + struct.pack("<I", version)
    if not whole or len(buf) < _DIGEST + len(head) + 4 or (
            hashlib.sha256(body).digest() != buf[-_DIGEST:]
            or body[:len(head)] != head):
        return None
    (count,) = struct.unpack_from("<I", body, len(head))
    pos = len(head) + 4

    def take(size: int) -> memoryview:
        nonlocal pos
        if size > len(body) - pos:
            raise ValueError("entry cut short")
        pos += size
        return body[pos - size:pos]

    items = []
    try:
        for _ in range(count):
            take(-pos % 8)
            code, n = _ITEM.unpack(take(_ITEM.size))
            code = code.rstrip(b"\0")
            if code == _TEXT:
                sizes = np.frombuffer(take(4 * n), dtype="<u4").tolist()
                blob = take(sum(sizes))
                ends = np.cumsum(sizes).tolist()
                items.append([str(blob[e - k:e], "utf-8")
                              for k, e in zip(sizes, ends)])
            else:
                dtype = np.dtype(code.decode("ascii"))
                items.append(np.frombuffer(take(dtype.itemsize * n),
                                           dtype=dtype))
    # a cut item or bad UTF-8 raises ValueError, and a dtype code that
    # numpy cannot parse ValueError, TypeError or SyntaxError
    except (ValueError, TypeError, SyntaxError):
        return None
    return items if pos == len(body) else None


def write_entry(entry, magic: bytes, version: int, items) -> None:
    """Replace ``entry`` with ``items``, in order, and their sha256. An item
    is a little-endian numpy array, stored flat, or a list of strings. The
    bytes are hashed as they are written, never joined into one. An
    ``OSError`` is swallowed and leaves the previous entry, if any."""
    entry = Path(entry)
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with atomic_output(entry) as f:
            sha = hashlib.sha256()

            def put(data) -> None:
                sha.update(data)
                f.write(data)

            put(magic + struct.pack("<II", version, len(items)))
            for item in items:
                put(bytes(-f.tell() % 8))
                if isinstance(item, np.ndarray):
                    flat = np.ascontiguousarray(item).ravel()
                    put(_ITEM.pack(flat.dtype.str.encode("ascii"), len(flat)))
                    put(flat.data)
                else:
                    raw = [t.encode("utf-8") for t in item]
                    put(_ITEM.pack(_TEXT, len(raw)))
                    put(np.array([len(r) for r in raw], dtype="<u4").data)
                    put(b"".join(raw))
            f.write(sha.digest())
    except OSError:
        pass
