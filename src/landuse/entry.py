"""Framing of the binary cache entries that stages keep in ``out_dir``.

An entry is, little-endian::

    magic, <I version, key, body, sha256 of every byte before it

The key holds digests of the inputs the body was built from, and the body
is what building it gave. Each kind of entry (the manifest table of
``dataset``, the parcels of ``geodata``) defines its own magic, key and
body; this module holds what they share: the digests, strings that keep
lone surrogates, a cursor that reads a body front to back, and the hashed
write through a temp file.

A reader treats anything but an entry it can read whole, whose sha256,
magic, version and key all match, as a miss. A writer that meets an
``OSError`` leaves no entry, or the previous one: a miss costs the work the
entry saves and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_output

DIGEST = 32


def file_sha256(path) -> bytes:
    """sha256 of a file's bytes, read in chunks."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").digest()


def classes_sha256(taxonomy) -> bytes:
    """sha256 of a taxonomy's fine-class list as JSON (``null`` for none):
    the part of a taxonomy that names and numbers classes."""
    classes = list(taxonomy.fine_classes) if taxonomy else None
    return hashlib.sha256(utf8(json.dumps(classes))).digest()


def utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def sized(text: str) -> bytes:
    raw = utf8(text)
    return struct.pack("<I", len(raw)) + raw


class Cursor:
    """Reads an entry front to back; reading past its end raises
    ``ValueError``."""

    def __init__(self, buf: memoryview, pos: int = 0):
        self.buf, self.pos = buf, pos

    def take(self, n: int) -> memoryview:
        if n > len(self.buf) - self.pos:
            raise ValueError("entry cut short")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        return str(self.take(n), "utf-8", "surrogatepass")

    def texts(self, count: int) -> list[str]:
        """``count`` strings stored as their ``<u4`` byte lengths followed
        by their bytes."""
        sizes = self.array("<u4", count).tolist()
        blob = self.take(sum(sizes))
        ends = np.cumsum(sizes).tolist()
        return [str(blob[e - k:e], "utf-8", "surrogatepass")
                for k, e in zip(sizes, ends)]

    def array(self, dtype: str, count: int) -> np.ndarray:
        """``count`` items in place: writable views of the entry's buffer."""
        size = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(size * count), dtype=dtype)

    def align(self, n: int) -> None:
        self.take(-self.pos % n)

    @property
    def done(self) -> bool:
        return self.pos == len(self.buf)


def open_entry(entry, magic: bytes, version: int) -> Cursor | None:
    """A cursor just past the magic and version of ``entry``, over its bytes
    up to the trailing sha256; None if the entry cannot be read whole, or
    its sha256, magic or version do not match."""
    try:
        with open(entry, "rb") as f:
            buf = bytearray(os.fstat(f.fileno()).st_size)
            whole = f.readinto(buf) == len(buf)
    except OSError:
        return None
    body = memoryview(buf)[:-DIGEST]
    head = magic + struct.pack("<I", version)
    if not whole or len(buf) < DIGEST + len(head) or (
            hashlib.sha256(body).digest() != buf[-DIGEST:]
            or body[:len(head)] != head):
        return None
    return Cursor(body, len(head))


class EntryWriter:
    """Writes an entry's bytes and hashes them as it goes."""

    def __init__(self, f):
        self._f, self._hash = f, hashlib.sha256()

    def put(self, data) -> None:
        self._hash.update(data)
        self._f.write(data)

    def texts(self, texts) -> None:
        """Strings as ``Cursor.texts`` reads them."""
        raw = [utf8(t) for t in texts]
        self.put(np.array([len(r) for r in raw], dtype="<u4").tobytes())
        self.put(b"".join(raw))

    def align(self, n: int) -> None:
        self.put(bytes(-self._f.tell() % n))

    def digest(self) -> bytes:
        return self._hash.digest()


def write_entry(entry, magic: bytes, version: int, fill) -> None:
    """Replace ``entry`` with its magic and version, the bytes that
    ``fill(writer)`` puts through an ``EntryWriter``, and their sha256. An
    ``OSError``, raised here or in ``fill``, is swallowed and leaves the
    previous entry, if any."""
    entry = Path(entry)
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with atomic_output(entry) as f:
            out = EntryWriter(f)
            out.put(magic + struct.pack("<I", version))
            fill(out)
            f.write(out.digest())
    except OSError:
        pass
