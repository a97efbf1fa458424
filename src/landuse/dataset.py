"""Image-record manifests and mixed-domain training batches.

Records carry precomputed per-stream feature vectors instead of pixels; the
vectors stand in for frozen pretrained feature extractors. Manifests are
JSON-lines, optionally referencing a binary sidecar feature file (format
``LUFV1``) instead of inlining the floats. The rows are read by
``geodata.jsonl_rows``, which reads the stage artifacts too, so every
JSON-lines file follows one set of rules for blank lines, line ends, UTF-8,
JSON and the provenance header. One load gives a ``ManifestTable``: one
column per field and one ``(N, D)`` matrix per stream, so training, gating
and prediction index whole matrices. A load given a cache entry decodes
the JSON only when the entry does not hold the table for the same inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .entry import (classes_sha256, file_sha256, read_entry as read_items,
                    write_entry)
from .geodata import (GeoPoint, JSONLinesError, check_position, jsonl_rows,
                      record_id)
from .taxonomy import Taxonomy, TaxonomyError

FEATURE_FILE_MAGIC = b"LUFV1"

DOMAIN_A = "A"
DOMAIN_B = "B"


class ManifestError(ValueError):
    pass


def missing_stream(rid: str, stream: str) -> str:
    return f"record {rid}: missing features for stream {stream!r}"


@dataclass(frozen=True, eq=False)
class ImageRecord:
    """One record; ``ManifestTable[k]`` gives row ``k`` in this form."""

    id: str
    domain: str
    features: dict[str, np.ndarray]
    geo: GeoPoint | None = None
    label: int | None = None


@dataclass(frozen=True, eq=False)
class ManifestTable:
    """A manifest as columns: entry ``k`` of each belongs to record ``k``.

    ``label`` is -1 for an unlabelled record, and ``lon``/``lat`` are
    meaningful only where ``has_geo`` is set. Every record carries every
    stream, and each stream is one C-contiguous float64 matrix.
    """

    ids: tuple[str, ...]
    domain: np.ndarray                 # (N,) DOMAIN_A or DOMAIN_B
    label: np.ndarray                  # (N,) fine class index or -1
    features: dict[str, np.ndarray]    # stream -> (N, D)
    lon: np.ndarray                    # (N,)
    lat: np.ndarray                    # (N,)
    has_geo: np.ndarray                # (N,) bool

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> ImageRecord:
        label = int(self.label[k])
        return ImageRecord(
            id=self.ids[k], domain=str(self.domain[k]),
            features={s: M[k] for s, M in self.features.items()},
            geo=GeoPoint(float(self.lon[k]), float(self.lat[k]))
            if self.has_geo[k] else None,
            label=None if label < 0 else label)

    def stream(self, name: str) -> np.ndarray:
        """One stream's ``(N, D)`` matrix; a stream the table lacks raises
        ``ManifestError`` naming the first record."""
        if name not in self.features:
            raise ManifestError(missing_stream(self.ids[0], name) if self.ids
                                else f"no records, so no stream {name!r}")
        return self.features[name]


# ---------------------------------------------------------------------------
# sidecar feature files


def write_feature_file(path, vectors: dict[str, np.ndarray]) -> None:
    """Write id -> vector mapping as a little-endian LUFV1 binary."""
    items = list(vectors.items())
    dims = {len(v) for _, v in items}
    if len(dims) != 1:
        raise ManifestError(f"inconsistent feature dimensions {sorted(dims)}")
    d = dims.pop()
    with open(path, "wb") as f:
        f.write(FEATURE_FILE_MAGIC)
        f.write(struct.pack("<II", len(items), d))
        for rid, vec in items:
            raw = rid.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(np.asarray(vec, dtype="<f4").tobytes())


def read_feature_file(path) -> tuple[dict[str, int], np.ndarray, bytes]:
    """Read an LUFV1 file with one read: its ids, each to its row, an
    ``(N, D)`` float64 matrix of the rows, and the sha256 of the bytes
    read. A cut row, an id that is not UTF-8 or that repeats, and bytes
    after the last row raise ``ManifestError``."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = buf[:len(FEATURE_FILE_MAGIC)]
    if magic != FEATURE_FILE_MAGIC:
        raise ManifestError(
            f"{path}: bad magic {magic!r}, expected {FEATURE_FILE_MAGIC!r}")
    pos = len(magic)

    def take(n):
        """The offset of the next ``n`` bytes, which are then passed."""
        nonlocal pos
        if len(buf) - pos < n:
            raise ManifestError(f"{path}: truncated feature file")
        pos += n
        return pos - n

    count, d = struct.unpack_from("<II", buf, take(8))
    # every row holds a length field and d floats at least
    if count * (4 + 4 * d) > len(buf) - pos:
        raise ManifestError(f"{path}: truncated feature file")
    X = np.empty((count, d))
    rows: dict[str, int] = {}
    for k in range(count):
        (idlen,) = struct.unpack_from("<I", buf, take(4))
        start = take(idlen)
        try:
            rid = buf[start:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ManifestError(f"{path}: row {k}: id is not UTF-8") from None
        if rid in rows:
            raise ManifestError(f"{path}: row {k}: repeated id {rid}")
        rows[rid] = k
        X[k] = np.frombuffer(buf, "<f4", d, take(4 * d))
    if pos < len(buf):
        raise ManifestError(
            f"{path}: {len(buf) - pos} bytes after the last of {count} rows")
    return rows, X, hashlib.sha256(buf).digest()


# ---------------------------------------------------------------------------
# manifest loading


def _row_fault(rid: str, stream: str, vec, d: int) -> str:
    """Why a feature value does not fit a ``(d,)`` row: not a vector, not
    finite, or its dimension, in that order."""
    try:
        arr = np.asarray(vec, dtype=np.float64)
    except (ValueError, TypeError):
        arr = np.zeros((0, 0))
    if arr.ndim != 1:
        return f"record {rid}: stream {stream} not a vector"
    if not np.isfinite(arr).all():
        return f"record {rid}: non-finite value in stream {stream}"
    return (f"record {rid}: stream {stream} has dimension {len(arr)},"
            f" expected {d}")


def load_manifest(path, taxonomy: Taxonomy, cache=None) -> ManifestTable:
    """Load and validate a JSON-lines manifest into one table.

    Each line: ``{"id", "lon"?, "lat"?, "domain", "label"?,
    "features": {stream: [floats]}}`` or ``"features_ref": {stream: path}``
    pointing at LUFV1 sidecar files (paths relative to the manifest).
    String labels are resolved to fine class indices via the taxonomy.
    A line whose one key is ``provenance`` is a header and is skipped; any
    other line lacking ``id``, or whose ``id`` ``record_id`` refuses,
    raises.
    Ids must not repeat, and every record must carry the first record's
    streams. Each row goes straight into its stream's matrix, and each
    fault raises on the record where it is met, so the error is the one a
    record-by-record check meets first.

    ``cache`` names a table-cache entry (see ``read_entry``). When it holds
    this manifest's table, keyed by the bytes of the manifest, of its
    sidecars and by the taxonomy, that table is returned without decoding;
    otherwise the manifest is decoded as above and, if that succeeds, the
    entry is rewritten, keyed by the bytes the decode read. Either way the
    table is the same, bit for bit, and a manifest that fails to decode
    raises what it raises without a cache.
    """
    path = Path(path)
    if cache is None:
        return _decode_manifest(path, taxonomy)[0]
    table = read_entry(cache, path, taxonomy)
    if table is None:
        table, digest, refs = _decode_manifest(path, taxonomy)
        _write_entry(cache, taxonomy, table, digest, refs)
    return table


def _hashed(lines, sha):
    """The items of ``lines``, each fed to ``sha`` as it passes."""
    for line in lines:
        sha.update(line)
        yield line


def _decode_manifest(path: Path, taxonomy: Taxonomy):
    """The table of a manifest, decoded in one forward pass; the sha256 of
    the bytes decoded; and the ``features_ref`` paths used, as written and
    in the order first met, each with the sha256 of the sidecar bytes read.
    A manifest that outgrows its first line count while it is read raises."""
    try:
        with open(path, "rb") as f:
            capacity = sum(1 for _ in f)
    except OSError as e:
        raise ManifestError(f"{path}: cannot read manifest:"
                            f" {e.strerror or e}") from None
    ids: list[str] = []
    domains: list[str] = []
    seen: set[str] = set()
    label = np.full(capacity, -1, dtype=np.intp)
    lon, lat = np.zeros(capacity), np.zeros(capacity)
    has_geo = np.zeros(capacity, dtype=bool)
    mats: dict[str, np.ndarray] = {}   # rows stay zero until written
    sidecars: dict[str, tuple[dict[str, int], np.ndarray, bytes]] = {}
    sha = hashlib.sha256()

    with open(path, "rb") as f:
        try:
            for lineno, obj in jsonl_rows(_hashed(f, sha), path):
                if "id" not in obj:
                    raise ManifestError(f"{path}:{lineno}: row lacks 'id'")
                k = len(ids)
                if k == capacity:
                    raise ManifestError(f"{path}: changed while it was read")
                rid = record_id(obj["id"], f"{path}:{lineno}", ManifestError)
                ids.append(rid)
                if rid in seen:
                    raise ManifestError(f"{path}:{lineno}: repeated record id {rid}")
                seen.add(rid)
                domain = obj.get("domain", DOMAIN_A)
                if domain not in (DOMAIN_A, DOMAIN_B):
                    raise ManifestError(f"record {rid}: unknown domain {domain!r}")

                inline = obj.get("features") or {}
                refs = obj.get("features_ref") or {}
                for key, value in (("features", inline), ("features_ref", refs)):
                    if not isinstance(value, dict):
                        raise ManifestError(f"record {rid}: {key} must be an"
                                            f" object, got {type(value).__name__}")
                row = dict(inline)
                for stream, ref in refs.items():
                    if not isinstance(ref, str) or "\0" in ref:
                        raise ManifestError(f"record {rid}: features_ref of stream"
                                            f" {stream} must be a path, got {ref!r}")
                    try:
                        if ref not in sidecars:
                            sidecars[ref] = read_feature_file(path.parent / ref)
                    except OSError as e:
                        raise ManifestError(
                            f"record {rid}: cannot read feature file {ref}:"
                            f" {e.strerror or e}") from None
                    index, X, _ = sidecars[ref]
                    if rid not in index:
                        raise ManifestError(
                            f"record {rid}: not found in feature file {ref}")
                    row[stream] = X[index[rid]]
                if not row:
                    raise ManifestError(f"record {rid}: no features")
                if k and row.keys() != mats.keys():
                    lacking = [s for s in mats if s not in row]
                    extra = [s for s in row if s not in mats]
                    raise ManifestError(missing_stream(rid, lacking[0]) if lacking
                                        else missing_stream(ids[0], extra[0]))
                for stream, vec in row.items():
                    if stream not in mats:  # the first record fixes the dimension
                        d = len(vec) if isinstance(vec, (list, np.ndarray)) else 0
                        mats[stream] = np.zeros((capacity, d))
                    M = mats[stream]
                    try:
                        if len(vec) != M.shape[1]:  # numpy would broadcast [x]
                            raise ValueError
                        M[k] = vec
                    except (ValueError, TypeError):
                        raise ManifestError(
                            _row_fault(rid, stream, vec, M.shape[1])) from None
                    if not np.isfinite(M[k]).all():
                        raise ManifestError(
                            f"record {rid}: non-finite value in stream {stream}")

                value = obj.get("label")
                if isinstance(value, str):
                    try:
                        value = taxonomy.index(value)
                    except TaxonomyError as e:
                        raise ManifestError(f"record {rid}: {e}") from None
                if value is not None:
                    top = len(taxonomy.fine_classes)
                    if not (type(value) is int and 0 <= value < top):
                        raise ManifestError(
                            f"record {rid}: label {value} out of range")
                    label[k] = value
                if "lon" in obj and "lat" in obj:
                    try:
                        check_position(obj["lon"], obj["lat"])
                    except (ValueError, TypeError):
                        raise ManifestError(
                            f"record {rid}: bad coordinates"
                            f" ({obj['lon']!r}, {obj['lat']!r})") from None
                    lon[k], lat[k], has_geo[k] = obj["lon"], obj["lat"], True
                domains.append(domain)
        except JSONLinesError as e:
            raise ManifestError(str(e)) from None

    n = len(ids)
    return ManifestTable(
        ids=tuple(ids), domain=np.array(domains, dtype=str),
        label=label[:n], features={s: M[:n] for s, M in mats.items()},
        lon=lon[:n], lat=lat[:n], has_geo=has_geo[:n]), sha.digest(), {
            ref: digest for ref, (_, _, digest) in sidecars.items()}


# ---------------------------------------------------------------------------
# table cache
#
# A cache entry holds one decoded manifest table as the items of ``entry``:
# the key (the sha256 of the manifest bytes, of the taxonomy's fine-class
# list and of each sidecar, in the order of the sidecar paths, each file's
# taken from the bytes the decode read), the sidecar
# paths as written in the manifest, the ids, the stream names and their
# dimensions, then the domain, has_geo, label, lon and lat columns and each
# stream's matrix. The entry holds no path of its own, so equal inputs give
# equal entries in any directory. ENTRY_VERSION changes whenever the items
# or the decode do.

ENTRY_MAGIC = b"LUTAB"
ENTRY_VERSION = 5


def _cache_key(digest: bytes, taxonomy: Taxonomy, sidecar_digests) -> bytes:
    """An entry's key: the manifest's, taxonomy's and sidecars' digests."""
    return b"".join([digest, classes_sha256(taxonomy), *sidecar_digests])


def read_entry(entry, path, taxonomy: Taxonomy) -> ManifestTable | None:
    """The table cache entry ``entry`` holds for manifest ``path``, or None.

    None is a miss: no readable entry, one that is cut short, garbled or
    extended, one whose columns disagree in length, or one keyed by other
    bytes of the manifest or its sidecars, or by another taxonomy. The key
    is checked by hashing the files in chunks, so a hit never holds the
    manifest's bytes. The manifest is hashed before the entry is read,
    which gave a lower peak RSS than hashing after it.
    """
    path = Path(path)
    if not os.path.exists(entry):  # a cold load hashes nothing
        return None
    try:
        digest = file_sha256(path)
    except (OSError, ValueError):  # a miss; the decode meets it again
        return None
    items = read_items(entry, ENTRY_MAGIC, ENTRY_VERSION)
    if items is None or len(items) < 10:
        return None
    (key, refs, ids, streams, dims, domain, has_geo, label, lon, lat,
     *mats) = items
    try:
        if key.tobytes() != _cache_key(digest, taxonomy, (
                file_sha256(path.parent / ref) for ref in refs)):
            return None
    except OSError:
        return None
    n, dims = len(ids), dims.tolist()
    if (len(streams) != len(dims) or len(mats) != len(dims)
            or any(len(c) != n for c in (domain, has_geo, label, lon, lat))
            or any(len(M) != n * d for M, d in zip(mats, dims))):
        return None
    return ManifestTable(
        ids=tuple(ids), domain=domain.astype(str), label=label.astype(np.intp),
        features={s: M.astype(np.float64, copy=False).reshape(n, d)
                  for s, d, M in zip(streams, dims, mats)},
        lon=lon.astype(np.float64), lat=lat.astype(np.float64),
        has_geo=has_geo.copy())


def _write_entry(entry, taxonomy: Taxonomy, table: ManifestTable,
                 digest: bytes, refs) -> None:
    """Write the entry for a table, keyed by the sha256 ``digest`` of the
    manifest bytes decoded and those of the sidecar bytes read (the values
    of ``refs``), so no load of other bytes hits it. An entry that cannot
    be written costs the next load a decode and nothing else."""
    key = _cache_key(digest, taxonomy, refs.values())
    write_entry(entry, ENTRY_MAGIC, ENTRY_VERSION, [
        np.frombuffer(key, dtype="u1"), list(refs), list(table.ids),
        list(table.features),
        np.array([M.shape[1] for M in table.features.values()], dtype="<u8"),
        table.domain.astype("S1"), table.has_geo.astype("?"),
        table.label.astype("<i8"), table.lon.astype("<f8"),
        table.lat.astype("<f8"),
        *(np.asarray(M, dtype="<f8") for M in table.features.values())])


# ---------------------------------------------------------------------------
# stratified batching


def shuffle(items: list, getrandbits) -> None:
    """Shuffle ``items`` in place as ``random.Random.shuffle`` does, given
    that generator's ``getrandbits``: the same Fisher-Yates swaps, each
    index drawn by rejection from the fewest bits that cover it, with no
    method call per swap beyond the draw, so the same seed gives the same
    order."""
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def batch_plan(count_a: int, count_b: int, batch_size: int,
               domain_ratio: float) -> tuple[int, int, int]:
    """(domain-A records per batch, domain-B records per batch, full batches
    per epoch) for ``count_a`` and ``count_b`` records: a batch holds
    ``round(batch_size * domain_ratio)`` domain-A records, and an epoch
    ends when the longer domain is exhausted. Too few records for one full
    batch raise ValueError. ``Schedule`` holds the ranges of the two."""
    n_a = int(round(batch_size * domain_ratio))
    n_b = batch_size - n_a
    if n_a > 0 and not count_a:
        raise ValueError("batch requires domain-A records but none are present")
    if n_b > 0 and not count_b:
        raise ValueError("batch requires domain-B records but none are present")
    n_batches = max(count_a // n_a if n_a else 0, count_b // n_b if n_b else 0)
    if n_batches == 0:
        raise ValueError(
            f"no full batch: {count_a} domain-A and {count_b} domain-B"
            f" records, but batch_size {batch_size} takes {n_a} A + {n_b} B")
    return n_a, n_b, n_batches


def stratified_batches(domains, batch_size: int, domain_ratio: float,
                       seed: int) -> list[np.ndarray]:
    """Seeded mixed-domain batches, as index arrays into ``domains`` (one
    domain per record), as many as ``batch_plan`` gives, each its domain-A
    records and then its domain-B rest. Each domain draws from copies of
    its records, a copy shuffled when its first record is drawn."""
    domains = np.asarray(domains)
    pool_a = np.flatnonzero(domains == DOMAIN_A).tolist()
    pool_b = np.flatnonzero(domains == DOMAIN_B).tolist()
    n_a, n_b, n_batches = batch_plan(len(pool_a), len(pool_b), batch_size,
                                     domain_ratio)
    getrandbits = random.Random(seed).getrandbits

    def shuffled(pool):
        while True:
            fresh = pool[:]
            shuffle(fresh, getrandbits)
            yield fresh

    draw_a = chain.from_iterable(shuffled(pool_a))
    draw_b = chain.from_iterable(shuffled(pool_b))
    return [np.array([*islice(draw_a, n_a), *islice(draw_b, n_b)],
                     dtype=np.intp)
            for _ in range(n_batches)]
