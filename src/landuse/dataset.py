"""Image-record manifests and mixed-domain training batches.

Records carry precomputed per-stream feature vectors instead of pixels; the
vectors stand in for frozen pretrained feature extractors. Manifests are
JSON-lines, optionally referencing a binary sidecar feature file (format
``LUFV1``) instead of inlining the floats.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geodata import GeoPoint
from .taxonomy import Taxonomy

FEATURE_FILE_MAGIC = b"LUFV1"

DOMAIN_A = "A"
DOMAIN_B = "B"


class ManifestError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ImageRecord:
    id: str
    domain: str
    features: dict[str, np.ndarray]
    geo: GeoPoint | None = None
    label: int | None = None


@dataclass(frozen=True)
class Batch:
    records: tuple[ImageRecord, ...]

    @property
    def size(self) -> int:
        return len(self.records)


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


def read_feature_file(path) -> dict[str, np.ndarray]:
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
        out = {}
        for _ in range(count):
            (idlen,) = struct.unpack("<I", read(4))
            rid = read(idlen).decode("utf-8")
            out[rid] = np.frombuffer(read(4 * d), dtype="<f4").astype(np.float64)
        return out


# ---------------------------------------------------------------------------
# manifest loading


def load_manifest(path, taxonomy: Taxonomy | None = None) -> list[ImageRecord]:
    """Load and validate a JSON-lines manifest.

    Each line: ``{"id", "lon"?, "lat"?, "domain", "label"?,
    "features": {stream: [floats]}}`` or ``"features_ref": {stream: path}``
    pointing at LUFV1 sidecar files (paths relative to the manifest).
    String labels are resolved to fine class indices via the taxonomy.
    """
    path = Path(path)
    sidecars: dict[str, dict[str, np.ndarray]] = {}
    records = []
    dims: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ManifestError(f"{path}:{lineno}: bad JSON: {e.msg}") from None
            if "id" not in obj:
                continue  # provenance header line
            rid = str(obj["id"])
            domain = obj.get("domain", DOMAIN_A)
            if domain not in (DOMAIN_A, DOMAIN_B):
                raise ManifestError(f"record {rid}: unknown domain {domain!r}")

            features = {}
            for stream, vec in (obj.get("features") or {}).items():
                features[stream] = np.asarray(vec, dtype=np.float64)
            for stream, ref in (obj.get("features_ref") or {}).items():
                refpath = str(path.parent / ref)
                if refpath not in sidecars:
                    sidecars[refpath] = read_feature_file(refpath)
                try:
                    features[stream] = sidecars[refpath][rid]
                except KeyError:
                    raise ManifestError(
                        f"record {rid}: not found in feature file {ref}") from None
            if not features:
                raise ManifestError(f"record {rid}: no features")
            for stream, vec in features.items():
                if vec.ndim != 1:
                    raise ManifestError(f"record {rid}: stream {stream} not a vector")
                if not np.all(np.isfinite(vec)):
                    raise ManifestError(
                        f"record {rid}: non-finite value in stream {stream}")
                if stream not in dims:
                    dims[stream] = len(vec)
                elif dims[stream] != len(vec):
                    raise ManifestError(
                        f"record {rid}: stream {stream} has dimension {len(vec)},"
                        f" expected {dims[stream]}")

            label = obj.get("label")
            if isinstance(label, str):
                if taxonomy is None:
                    raise ManifestError(
                        f"record {rid}: string label {label!r} needs a taxonomy")
                label = taxonomy.index(label)
            if label is not None and taxonomy is not None:
                if not 0 <= label < len(taxonomy.fine_classes):
                    raise ManifestError(f"record {rid}: label {label} out of range")

            geo = None
            if "lon" in obj and "lat" in obj:
                geo = GeoPoint(lon=obj["lon"], lat=obj["lat"])

            records.append(ImageRecord(
                id=rid, domain=domain, features=features, geo=geo, label=label))
    return records


# ---------------------------------------------------------------------------
# stratified batching


def stratified_batches(records, batch_size: int, domain_ratio: float,
                       seed: int) -> list[Batch]:
    """Seeded mixed-domain batches with a fixed per-batch domain ratio.

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
    pool_a = [r for r in records if r.domain == DOMAIN_A]
    pool_b = [r for r in records if r.domain == DOMAIN_B]
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
        queue: list[ImageRecord] = []

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
        recs = []
        if n_a:
            recs.extend(draw_a())
        if n_b:
            recs.extend(draw_b())
        batches.append(Batch(records=tuple(recs)))
    return batches
