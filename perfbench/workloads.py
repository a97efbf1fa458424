"""Workload definitions and the benchmark's own input transforms.

Every workload is a ``landuse`` config: a seeded synthetic city written by
``landuse synth`` (``synth.make_city``) plus stage settings. Two transforms
run after the city is written and are not part of the program's set-up
time:

- ``star_parcels`` replaces each square parcel by a star-shaped ring with
  many vertices, so ring validation and containment see complex polygons.
- ``to_sidecars`` moves every manifest's features into LUFV1 binary files
  referenced by ``features_ref``.

The LUFV1 (features) and LUSM1 (models) readers here follow the file
formats, not the package's own readers, so the output checks stay
independent of the code they check.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STAGES = ("filter", "train", "adapt", "predict", "map", "eval")
STREAMS = ("object", "scene")
DILATION_M = 5.0

FEATURE_MAGIC = b"LUFV1"
MODEL_MAGIC = b"LUSM1"

BASE_CONFIG = {
    "out_dir": "out",
    "streams": ",".join(STREAMS),
    "dilation_m": str(DILATION_M),
    "level": "fine",
}


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    star_vertices: int = 0
    sidecars: bool = False

    @property
    def n_classes(self) -> int:
        return int(self.settings["synth.classes"])

    def config_text(self, seed: int, data_dir: str = "data") -> str:
        cfg = {"parcels": f"{data_dir}/parcels.geojson",
               "train_manifest": f"{data_dir}/train.jsonl",
               "val_manifest": f"{data_dir}/val.jsonl",
               "map_manifest": f"{data_dir}/map.jsonl",
               **BASE_CONFIG, "seed": str(seed), **self.settings}
        return "".join(f"{k}={v}\n" for k, v in cfg.items())


WORKLOADS = {w.name: w for w in (
    Workload("city_dense", {
        "synth.grid": "16",
        "synth.images_per_parcel": "6",
        "synth.geo_sigma_m": "25",
        "synth.classes": "16",
        "synth.dim": "16",
        "synth.train_per_class": "40",
        "synth.val_per_class": "10",
    }),
    Workload("learn_wide", {
        "synth.grid": "8",
        "synth.images_per_parcel": "16",
        "synth.geo_sigma_m": "10",
        "synth.classes": "45",
        "synth.dim": "256",
        "synth.train_per_class": "60",
        "synth.val_per_class": "4",
        "synth.noise": "0.4",
        "synth.feature_scale": "7",
        "train.epochs": "36",
        "finetune.epochs": "12",
    }),
    Workload("parcels_detailed", {
        "synth.grid": "8",
        "synth.images_per_parcel": "4",
        "synth.geo_sigma_m": "20",
        "synth.classes": "16",
        "synth.dim": "16",
        "synth.train_per_class": "40",
        "synth.val_per_class": "10",
    }, star_vertices=120, sidecars=True),
)}


# ---------------------------------------------------------------------------
# file formats


def read_jsonl(path, key: str) -> list[dict]:
    """Rows of a JSON-lines artifact that carry ``key``; provenance header
    lines do not and are skipped."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                obj = json.loads(line)
                if key in obj:
                    rows.append(obj)
    return rows


def write_lufv(path, ids: list[str], X: np.ndarray) -> None:
    """LUFV1: magic, <u32 count, u32 dim>, then per row <u32 id length>,
    the utf-8 id and ``dim`` little-endian float32 values."""
    X = np.asarray(X, dtype="<f4")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<II", len(ids), X.shape[1]))
        for rid, row in zip(ids, X):
            raw = rid.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(row.tobytes())


def read_lufv(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:5] != FEATURE_MAGIC:
        raise ValueError(f"{path}: not an LUFV1 file")
    count, dim = struct.unpack_from("<II", data, 5)
    pos = 13
    out = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, pos)
        rid = data[pos + 4:pos + 4 + n].decode("utf-8")
        pos += 4 + n
        out[rid] = np.frombuffer(data, dtype="<f4", count=dim,
                                 offset=pos).astype(np.float64)
        pos += 4 * dim
    return out


def read_lusm(path):
    """LUSM1: magic, <u32 n, u32 D>, <u32 stream length>, stream name,
    W as n*D little-endian float64, b as n float64. Returns (W, b, stream)."""
    data = Path(path).read_bytes()
    if data[:5] != MODEL_MAGIC:
        raise ValueError(f"{path}: not an LUSM1 file")
    n, d, slen = struct.unpack_from("<III", data, 5)
    pos = 17 + slen
    stream = data[17:pos].decode("utf-8")
    W = np.frombuffer(data, dtype="<f8", count=n * d, offset=pos).reshape(n, d)
    b = np.frombuffer(data, dtype="<f8", count=n, offset=pos + 8 * n * d)
    return W, b, stream


def manifest_features(path) -> tuple[list[dict], dict[str, np.ndarray]]:
    """(rows, {stream: matrix in row order}) for a manifest whose rows hold
    inline ``features`` or ``features_ref`` sidecar references."""
    path = Path(path)
    rows = read_jsonl(path, "id")
    sidecars: dict[str, dict[str, np.ndarray]] = {}
    cols: dict[str, list[np.ndarray]] = {}
    for row in rows:
        for stream, vec in (row.get("features") or {}).items():
            cols.setdefault(stream, []).append(np.asarray(vec, dtype=np.float64))
        for stream, ref in (row.get("features_ref") or {}).items():
            if ref not in sidecars:
                sidecars[ref] = read_lufv(path.parent / ref)
            cols.setdefault(stream, []).append(sidecars[ref][str(row["id"])])
    return rows, {s: np.vstack(v) for s, v in cols.items()}


# ---------------------------------------------------------------------------
# transforms


def star_parcels(path, n_vertices: int, seed: int) -> None:
    """Rewrite every Polygon parcel as a star-shaped ring of ``n_vertices``
    vertices inscribed in its bounding box.

    Angles increase strictly around the box centre, so the ring is simple;
    radii vary between 55% and 95% of the half-size, so edges are short
    and point in every direction.
    """
    rng = np.random.default_rng([seed, n_vertices])
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    step = 2.0 * math.pi / n_vertices
    for feature in doc["features"]:
        ring = np.asarray(feature["geometry"]["coordinates"][0], dtype=float)
        lo, hi = ring.min(axis=0), ring.max(axis=0)
        centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        angles = step * (np.arange(n_vertices)
                         + rng.uniform(-0.3, 0.3, n_vertices))
        radii = rng.uniform(0.55, 0.95, n_vertices)
        pts = [[round(float(centre[0] + half[0] * r * math.cos(a)), 10),
                round(float(centre[1] + half[1] * r * math.sin(a)), 10)]
               for a, r in zip(angles, radii)]
        feature["geometry"] = {"type": "Polygon",
                               "coordinates": [pts + [pts[0]]]}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def to_sidecars(manifest) -> None:
    """Move a manifest's features into one LUFV1 file per stream, named
    ``<manifest stem>.<stream>.lufv`` beside it. Rows that already use
    ``features_ref`` are read through their sidecars and rewritten."""
    manifest = Path(manifest)
    rows, matrices = manifest_features(manifest)
    ids = [str(row["id"]) for row in rows]
    refs = {}
    for stream, X in matrices.items():
        refs[stream] = f"{manifest.stem}.{stream}.lufv"
        write_lufv(manifest.parent / refs[stream], ids, X)
    with open(manifest, "w", encoding="utf-8") as f:
        for row in rows:
            row.pop("features", None)
            row["features_ref"] = refs
            f.write(json.dumps(row) + "\n")


def apply_transforms(workload: Workload, data_dir, seed: int) -> None:
    data_dir = Path(data_dir)
    if workload.star_vertices:
        star_parcels(data_dir / "parcels.geojson", workload.star_vertices, seed)
    if workload.sidecars:
        for split in ("train", "val", "map"):
            to_sidecars(data_dir / f"{split}.jsonl")
