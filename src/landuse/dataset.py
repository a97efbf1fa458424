"""Image-record manifests and mixed-domain training batches.

Records carry precomputed per-stream feature vectors instead of pixels; the
vectors stand in for frozen pretrained feature extractors. Manifests are
JSON-lines, optionally referencing a binary sidecar feature file (format
``LUFV1``) instead of inlining the floats. Each line is decoded by
``geodata.decode_json``: the object ``json.loads`` gives, decoded by orjson
where that is the same. One load gives a ``ManifestTable``: one column per
field and one ``(N, D)`` matrix per stream, so training, gating and
prediction index whole matrices.
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


def load_manifest(path, taxonomy: Taxonomy | None = None) -> ManifestTable:
    """Load and validate a JSON-lines manifest into one table.

    Each line: ``{"id", "lon"?, "lat"?, "domain", "label"?,
    "features": {stream: [floats]}}`` or ``"features_ref": {stream: path}``
    pointing at LUFV1 sidecar files (paths relative to the manifest).
    String labels are resolved to fine class indices via the taxonomy.
    Ids must not repeat, and every record must carry the first record's
    streams. Each row goes straight into its stream's matrix, and the
    matrices are checked for non-finite values as a whole; the error raised
    is the one a record-by-record check meets first.
    """
    path = Path(path)
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
        lon=lon[:n], lat=lat[:n], has_geo=has_geo[:n])


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
