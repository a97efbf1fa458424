"""Image-record manifests and mixed-domain training batches.

Records carry precomputed per-stream feature vectors instead of pixels; the
vectors stand in for frozen pretrained feature extractors. Manifests are
JSON-lines, optionally referencing a binary sidecar feature file (format
``LUFV1``) instead of inlining the floats. Each line is decoded by
``geodata.decode_json``: the object ``json.loads`` gives, decoded by orjson
where that is the same. One load gives a ``ManifestTable``: one column per
field and one ``(N, D)`` matrix per stream, so training, gating and
prediction index whole matrices. A load given a cache entry decodes the
JSON only when the entry does not hold the table for the same inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entry import (DIGEST, classes_sha256, file_sha256, open_entry, sized,
                    write_entry)
from .geodata import GeoPoint, decode_json
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
        ``ValueError`` naming the first record."""
        if name not in self.features:
            raise ValueError(missing_stream(self.ids[0], name) if self.ids
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


def read_feature_file(path) -> tuple[list[str], np.ndarray]:
    """Read an LUFV1 file in one pass: its ids and an ``(N, D)`` float64
    matrix holding row ``k`` for ``ids[k]``. An id that is not UTF-8 or
    that repeats, and bytes after the last row, raise ``ManifestError``."""
    with open(path, "rb") as f:
        magic = f.read(len(FEATURE_FILE_MAGIC))
        if magic != FEATURE_FILE_MAGIC:
            raise ManifestError(
                f"{path}: bad magic {magic!r}, expected {FEATURE_FILE_MAGIC!r}")

        def read(n):
            buf = f.read(n)
            if len(buf) < n:
                raise ManifestError(f"{path}: truncated feature file")
            return buf

        count, d = struct.unpack("<II", read(8))
        # every row holds a length field and d floats at least
        if count * (4 + 4 * d) > os.fstat(f.fileno()).st_size - f.tell():
            raise ManifestError(f"{path}: truncated feature file")
        ids = []
        seen = set()
        X = np.empty((count, d))
        for k in range(count):
            (idlen,) = struct.unpack("<I", read(4))
            try:
                rid = read(idlen).decode("utf-8")
            except UnicodeDecodeError:
                raise ManifestError(f"{path}: row {k}: id is not UTF-8") from None
            if rid in seen:
                raise ManifestError(f"{path}: row {k}: repeated id {rid}")
            seen.add(rid)
            ids.append(rid)
            X[k] = np.frombuffer(read(4 * d), dtype="<f4")
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            raise ManifestError(
                f"{path}: {extra} bytes after the last of {count} rows")
        return ids, X


# ---------------------------------------------------------------------------
# manifest loading


def _row_fault(rid: str, stream: str, vec, d: int) -> str:
    """Why a feature value does not fit a ``(d,)`` row: not a vector, not
    finite, or its dimension, in that order."""
    try:
        arr = np.asarray(vec, dtype=np.float64)
    except OverflowError:  # an integer past the float range
        arr = np.array([math.inf])
    except (ValueError, TypeError):
        arr = np.zeros((0, 0))
    if arr.ndim != 1:
        return f"record {rid}: stream {stream} not a vector"
    if not np.isfinite(arr).all():
        return f"record {rid}: non-finite value in stream {stream}"
    return (f"record {rid}: stream {stream} has dimension {len(arr)},"
            f" expected {d}")


def load_manifest(path, taxonomy: Taxonomy | None = None,
                  cache=None) -> ManifestTable:
    """Load and validate a JSON-lines manifest into one table.

    Each line: ``{"id", "lon"?, "lat"?, "domain", "label"?,
    "features": {stream: [floats]}}`` or ``"features_ref": {stream: path}``
    pointing at LUFV1 sidecar files (paths relative to the manifest).
    String labels are resolved to fine class indices via the taxonomy.
    Ids must not repeat, and every record must carry the first record's
    streams. Each row goes straight into its stream's matrix, and the
    matrices are checked for non-finite values as a whole; the error raised
    is the one a record-by-record check meets first.

    ``cache`` names a table-cache entry (see ``read_entry``). When it holds
    this manifest's table, keyed by the bytes of the manifest, of its
    sidecars and by the taxonomy, that table is returned without decoding;
    otherwise the manifest is decoded as above and, if that succeeds, the
    entry is rewritten. Either way the table is the same, bit for bit, and
    a manifest that fails to decode raises what it raises without a cache.
    """
    path = Path(path)
    if cache is None:
        return _decode_manifest(path, taxonomy)[0]
    table = read_entry(cache, path, taxonomy)
    if table is None:
        try:
            digest = file_sha256(path)
        except OSError:
            digest = None  # the decode raises its own error
        table, refs = _decode_manifest(path, taxonomy)
        _write_entry(cache, path, taxonomy, refs, table, digest)
    return table


def _decode_manifest(path: Path, taxonomy: Taxonomy | None):
    """The table of a manifest, and the ``features_ref`` paths it uses in
    the order first met."""
    with open(path, "rb") as f:
        capacity = sum(1 for _ in f)
    ids: list[str] = []
    domains: list[str] = []
    seen: set[str] = set()
    label = np.full(capacity, -1, dtype=np.intp)
    lon, lat = np.zeros(capacity), np.zeros(capacity)
    has_geo = np.zeros(capacity, dtype=bool)
    mats: dict[str, np.ndarray] = {}   # rows stay zero until written
    sidecars: dict[str, tuple[dict[str, int], np.ndarray]] = {}
    used_refs: dict[str, None] = {}   # in the order first met

    def nonfinite(rows: int) -> ManifestError | None:
        """The error for the first of the first ``rows`` records that has
        a non-finite feature, naming its first such stream."""
        bad = []
        for stream, M in mats.items():
            hits = np.flatnonzero(~np.isfinite(M[:rows]).all(axis=1))
            if hits.size:
                bad.append((hits[0], stream))
        if not bad:
            return None
        k, stream = min(bad, key=lambda t: t[0])
        return ManifestError(f"record {ids[k]}: non-finite value in stream {stream}")

    def fail(k: int, error: Exception):
        # a non-finite value in an earlier record, or earlier in record k,
        # is met first
        raise nonfinite(k + 1) or error

    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            k = len(ids)
            try:
                obj = decode_json(line)
            except json.JSONDecodeError as e:
                fail(k, ManifestError(f"{path}:{lineno}: bad JSON: {e.msg}"))
            except UnicodeDecodeError as e:
                fail(k, ManifestError(f"{path}:{lineno}: not UTF-8: {e.reason}"))
            if not isinstance(obj, dict):
                fail(k, ManifestError(f"{path}:{lineno}: expected a JSON object,"
                                      f" got {type(obj).__name__}"))
            if "id" not in obj:
                continue  # provenance header line
            rid = str(obj["id"])
            ids.append(rid)
            if rid in seen:
                fail(k, ManifestError(f"{path}:{lineno}: repeated record id {rid}"))
            seen.add(rid)
            domain = obj.get("domain", DOMAIN_A)
            if domain not in (DOMAIN_A, DOMAIN_B):
                fail(k, ManifestError(f"record {rid}: unknown domain {domain!r}"))

            inline, refs = obj.get("features") or {}, obj.get("features_ref") or {}
            for key, value in (("features", inline), ("features_ref", refs)):
                if not isinstance(value, dict):
                    fail(k, ManifestError(f"record {rid}: {key} must be an"
                                          f" object, got {type(value).__name__}"))
            row = dict(inline)
            for stream, ref in refs.items():
                if not isinstance(ref, str):
                    fail(k, ManifestError(f"record {rid}: features_ref of stream"
                                          f" {stream} must be a path, got {ref!r}"))
                used_refs.setdefault(ref)
                refpath = str(path.parent / ref)
                if refpath not in sidecars:
                    try:
                        ref_ids, X = read_feature_file(refpath)
                    except ManifestError as e:
                        fail(k, e)
                    sidecars[refpath] = ({r: i for i, r in enumerate(ref_ids)}, X)
                index, X = sidecars[refpath]
                if rid not in index:
                    fail(k, ManifestError(
                        f"record {rid}: not found in feature file {ref}"))
                row[stream] = X[index[rid]]
            if not row:
                fail(k, ManifestError(f"record {rid}: no features"))
            if k and row.keys() != mats.keys():
                lacking = [s for s in mats if s not in row]
                extra = [s for s in row if s not in mats]
                fail(k, ManifestError(missing_stream(rid, lacking[0]) if lacking
                                      else missing_stream(ids[0], extra[0])))
            for stream, vec in row.items():
                if stream not in mats:  # the first record fixes the dimension
                    d = len(vec) if isinstance(vec, (list, np.ndarray)) else 0
                    mats[stream] = np.zeros((capacity, d))
                M = mats[stream]
                try:
                    if len(vec) != M.shape[1]:  # numpy would broadcast [x]
                        raise ValueError
                    M[k] = vec
                except (ValueError, TypeError, OverflowError):
                    fail(k, ManifestError(_row_fault(rid, stream, vec, M.shape[1])))

            value = obj.get("label")
            if isinstance(value, str):
                if taxonomy is None:
                    fail(k, ManifestError(
                        f"record {rid}: string label {value!r} needs a taxonomy"))
                try:
                    value = taxonomy.index(value)
                except TaxonomyError as e:
                    fail(k, e)
            if value is not None:
                top = (len(taxonomy.fine_classes) if taxonomy
                       else np.iinfo(label.dtype).max)
                if not (isinstance(value, int) and 0 <= value < top):
                    fail(k, ManifestError(f"record {rid}: label {value} out of range"))
                label[k] = value
            if "lon" in obj and "lat" in obj:
                try:
                    GeoPoint(obj["lon"], obj["lat"])
                except (ValueError, TypeError):
                    fail(k, ManifestError(f"record {rid}: bad coordinates"
                                          f" ({obj['lon']!r}, {obj['lat']!r})"))
                lon[k], lat[k], has_geo[k] = obj["lon"], obj["lat"], True
            domains.append(domain)

    n = len(ids)
    error = nonfinite(n)
    if error:
        raise error
    return ManifestTable(
        ids=tuple(ids), domain=np.array(domains, dtype=str),
        label=label[:n], features={s: M[:n] for s, M in mats.items()},
        lon=lon[:n], lat=lat[:n], has_geo=has_geo[:n]), list(used_refs)


# ---------------------------------------------------------------------------
# table cache
#
# A cache entry holds one decoded manifest table, little-endian:
#
#   b"LUTAB", <I version
#   key:   sha256 of the manifest bytes, sha256 of the taxonomy's fine-class
#          list (JSON, ``null`` for no taxonomy), <I count, then per sidecar
#          path as written in the manifest: <I length, UTF-8, its sha256
#   table: <Q rows, <I streams, <u4 byte length of each id, the ids as
#          UTF-8, per stream <I length, UTF-8 name, <Q dimension; one byte
#          of domain and one of has_geo per row; zeros up to a multiple of
#          8; <i8 label, <f8 lon, <f8 lat, then each stream's <f8 matrix
#   sha256 of every byte before it
#
# Strings keep lone surrogates (``surrogatepass``), which JSON can hold. The
# entry holds no path of its own, so equal inputs give equal entries in any
# directory. ENTRY_VERSION changes whenever the layout or the decode does.

ENTRY_MAGIC = b"LUTAB"
ENTRY_VERSION = 1


def _cache_key(path: Path, taxonomy: Taxonomy | None, refs) -> bytes:
    """The digests an entry for ``path`` is keyed by; reading a file that
    is gone raises ``OSError``."""
    parts = [file_sha256(path), classes_sha256(taxonomy),
             struct.pack("<I", len(refs))]
    for ref in refs:
        parts += [sized(ref), file_sha256(path.parent / ref)]
    return b"".join(parts)


def read_entry(entry, path, taxonomy: Taxonomy | None = None) -> ManifestTable | None:
    """The table cache entry ``entry`` holds for manifest ``path``, or None.

    None is a miss: no readable entry, one that is cut short, garbled or
    extended, or one keyed by other bytes of the manifest or its sidecars,
    or by another taxonomy. The key is checked by hashing the files in
    chunks, so a hit never holds the manifest's bytes.
    """
    path = Path(path)
    cur = open_entry(entry, ENTRY_MAGIC, ENTRY_VERSION)
    if cur is None:
        return None
    try:
        start = cur.pos
        cur.take(2 * DIGEST)
        (n_refs,) = cur.unpack("<I")
        refs = []
        for _ in range(n_refs):
            refs.append(cur.text())
            cur.take(DIGEST)
        if cur.buf[start:cur.pos] != _cache_key(path, taxonomy, refs):
            return None
        n, n_streams = cur.unpack("<QI")
        ids = tuple(cur.texts(n))
        dims = {cur.text(): cur.unpack("<Q")[0] for _ in range(n_streams)}
        domain = cur.array("S1", n).astype(str)
        has_geo = cur.array("?", n).copy()
        cur.align(8)
        label = cur.array("<i8", n).astype(np.intp)
        lon = cur.array("<f8", n).astype(np.float64)
        lat = cur.array("<f8", n).astype(np.float64)
        features = {s: cur.array("<f8", n * d).astype(np.float64, copy=False)
                    .reshape(n, d) for s, d in dims.items()}
    except (ValueError, struct.error, OSError):
        return None
    if not cur.done:
        return None
    return ManifestTable(ids=ids, domain=domain, label=label,
                         features=features, lon=lon, lat=lat, has_geo=has_geo)


def _write_entry(entry, path: Path, taxonomy: Taxonomy | None, refs,
                 table: ManifestTable, digest: bytes | None) -> None:
    """Write the entry for a decoded table. Nothing is written if the
    manifest no longer has the bytes ``digest`` it had before the decode,
    or if the entry cannot be written: the cache then misses next time,
    which costs a decode and nothing else."""
    try:
        key = _cache_key(path, taxonomy, refs)
    except OSError:
        return
    if key[:DIGEST] != digest:
        return

    def fill(out) -> None:
        out.put(key)
        out.put(struct.pack("<QI", len(table), len(table.features)))
        out.texts(table.ids)
        for stream, M in table.features.items():
            out.put(sized(stream) + struct.pack("<Q", M.shape[1]))
        out.put(table.domain.astype("S1").tobytes())
        out.put(table.has_geo.astype("?").tobytes())
        out.align(8)
        out.put(table.label.astype("<i8").tobytes())
        out.put(table.lon.astype("<f8").tobytes())
        out.put(table.lat.astype("<f8").tobytes())
        for M in table.features.values():
            out.put(np.ascontiguousarray(M, dtype="<f8").data)

    write_entry(entry, ENTRY_MAGIC, ENTRY_VERSION, fill)


# ---------------------------------------------------------------------------
# stratified batching


def stratified_batches(domains, batch_size: int, domain_ratio: float,
                       seed: int) -> list[np.ndarray]:
    """Seeded mixed-domain batches, as index arrays into ``domains`` (one
    domain per record), with a fixed per-batch domain ratio.

    Each full batch holds ``round(batch_size * domain_ratio)`` domain-A
    records, the rest domain-B. The shorter domain recycles with a fresh
    shuffle; the epoch ends when the longer domain is exhausted, and the
    final partial batch is dropped. Too few records for one full batch
    raise rather than give an epoch with no batches.
    """
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    if not 0.0 <= domain_ratio <= 1.0:
        raise ValueError("domain_ratio must be in [0, 1]")
    n_a = int(round(batch_size * domain_ratio))
    n_b = batch_size - n_a
    domains = np.asarray(domains)
    pool_a = np.flatnonzero(domains == DOMAIN_A).tolist()
    pool_b = np.flatnonzero(domains == DOMAIN_B).tolist()
    if n_a > 0 and not pool_a:
        raise ValueError("batch requires domain-A records but none are present")
    if n_b > 0 and not pool_b:
        raise ValueError("batch requires domain-B records but none are present")

    n_batches = max(len(pool_a) // n_a if n_a else 0,
                    len(pool_b) // n_b if n_b else 0)
    if n_batches == 0:
        raise ValueError(
            f"no full batch: {len(pool_a)} domain-A and {len(pool_b)} domain-B"
            f" records, but batch_size {batch_size} takes {n_a} A + {n_b} B")
    rng = random.Random(seed)

    def drawer(pool, per_batch):
        queue: list[int] = []

        def draw():
            nonlocal queue
            while len(queue) < per_batch:
                fresh = pool[:]
                rng.shuffle(fresh)
                queue.extend(fresh)
            take, queue = queue[:per_batch], queue[per_batch:]
            return take

        return draw

    draw_a = drawer(pool_a, n_a)
    draw_b = drawer(pool_b, n_b)
    batches = []
    for _ in range(n_batches):
        idx = []
        if n_a:
            idx.extend(draw_a())
        if n_b:
            idx.extend(draw_b())
        batches.append(np.array(idx, dtype=np.intp))
    return batches
