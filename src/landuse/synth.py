"""Synthetic data generation: Gaussian-blob feature sets with label noise
and a grid-city of square parcels with geotagged images.

The real corpora are not redistributable, so every end-to-end test runs on
data from this module. All generation is seeded and byte-deterministic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import atomic_output, write_atomic
from .dataset import DOMAIN_A, DOMAIN_B, ManifestTable
from .geodata import METERS_PER_DEGREE, encode_json
from .taxonomy import Taxonomy


def _class_means(rng: np.random.Generator, n_classes: int, dim: int,
                 separation: float) -> np.ndarray:
    means = rng.normal(size=(n_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return means * separation


def _flip_labels(rng, labels: np.ndarray, n_classes: int,
                 noise_rate: float) -> np.ndarray:
    labels = labels.copy()
    flip = rng.random(len(labels)) < noise_rate
    offsets = rng.integers(1, n_classes, size=len(labels))
    labels[flip] = (labels[flip] + offsets[flip]) % n_classes
    return labels


def _table(prefix, labels, features, mixed_domains) -> ManifestTable:
    """Records ``<prefix>000000``, ... without geotags; with
    ``mixed_domains`` every odd record is domain B."""
    n = len(labels)
    return ManifestTable(
        ids=tuple(f"{prefix}{i:06d}" for i in range(n)),
        domain=np.array([DOMAIN_B if (mixed_domains and i % 2) else DOMAIN_A
                         for i in range(n)]),
        label=np.asarray(labels, dtype=np.intp), features=features,
        lon=np.zeros(n), lat=np.zeros(n), has_geo=np.zeros(n, dtype=bool))


def _sample_blob(rng, means, n_classes, n_records, spread, feature_scale,
                 noise_rate, stream, mixed_domains, id_prefix):
    true = np.arange(n_records) % n_classes
    X = means[true] + spread * rng.normal(size=(n_records, means.shape[1]))
    X *= feature_scale
    labels = _flip_labels(rng, true, n_classes, noise_rate)
    return _table(id_prefix, labels, {stream: X}, mixed_domains)


def blob_split(n_classes: int, n_train: int, n_val: int, dim: int, *,
               noise_rate: float = 0.0, seed: int = 0,
               separation: float = 3.0, spread: float = 1.0,
               feature_scale: float = 1.0, stream: str = "object",
               mixed_domains: bool = False):
    """(noisy train, clean validation) drawn from the same class geometry."""
    rng = np.random.default_rng(seed)
    means = _class_means(rng, n_classes, dim, separation)
    train = _sample_blob(rng, means, n_classes, n_train, spread,
                         feature_scale, noise_rate, stream, mixed_domains,
                         "train")
    val = _sample_blob(rng, means, n_classes, n_val, spread, feature_scale,
                       0.0, stream, mixed_domains, "val")
    return train, val


def noisy_web_split(n_classes: int, n_train: int, n_val: int, dim: int, *,
                    noise_rate: float = 0.3, seed: int = 0,
                    separation: float = 3.0, core_spread: float = 0.5,
                    faded_fraction: float = 0.4, faded_gain: float = 0.05,
                    faded_spread: float = 0.8, feature_scale: float = 24.0,
                    stream: str = "object", mixed_domains: bool = False):
    """(noisy train, clean validation) mimicking a web-scraped corpus.

    Besides uniform label flips, a ``faded_fraction`` of the training
    samples carries almost no class signal: their class mean is scaled by
    ``faded_gain`` so they sit near the origin, dominated by isotropic
    noise. At high ``dim`` that noise is nearly orthogonal to the span of
    the class means, so a trained model scores these samples close to
    uniform while still being confident on the core samples. They stand in
    for the off-topic images that dominate loosely labeled web data.

    Validation draws from the core distribution only, with clean labels.
    """
    if not 0.0 <= faded_fraction <= 1.0:
        raise ValueError(f"faded_fraction must be in [0, 1], got {faded_fraction}")
    rng = np.random.default_rng(seed)
    means = _class_means(rng, n_classes, dim, separation)

    def sample(n, noise, prefix, cores_only):
        true = np.arange(n) % n_classes
        faded = rng.random(n) < (0.0 if cores_only else faded_fraction)
        gain = np.where(faded, faded_gain, 1.0)
        spread = np.where(faded, faded_spread, core_spread)
        X = (gain[:, None] * means[true]
             + spread[:, None] * rng.normal(size=(n, dim))) * feature_scale
        labels = _flip_labels(rng, true, n_classes, noise)
        return _table(prefix, labels, {stream: X}, mixed_domains)

    train = sample(n_train, noise_rate, "train", cores_only=False)
    val = sample(n_val, 0.0, "val", cores_only=True)
    return train, val


def complementary_stream_split(n_classes: int, n_train: int, n_val: int,
                               dim: int, *, seed: int = 0,
                               separation: float = 3.0, spread: float = 1.0,
                               streams=("object", "scene")):
    """Two-stream records where each stream separates only half the classes.

    The first stream collapses the means of the upper half of the classes
    onto a single point, the second stream collapses the lower half, so
    each stream alone is partially informative and fusion recovers both.
    """
    rng = np.random.default_rng(seed)
    half = n_classes // 2
    means = {}
    for k, stream in enumerate(streams):
        m = _class_means(rng, n_classes, dim, separation)
        if k == 0:
            m[half:] = m[half]
        else:
            m[:half] = m[0]
        means[stream] = m

    def sample(n, prefix):
        true = np.arange(n) % n_classes
        feats = {s: means[s][true] + spread * rng.normal(size=(n, dim))
                 for s in streams}
        return _table(prefix, true, feats, mixed_domains=False)

    return sample(n_train, "train"), sample(n_val, "val")


# ---------------------------------------------------------------------------
# synthetic city


def _round_coord(x: float) -> float:
    return round(float(x), 10)


def make_city(out_dir, taxonomy: Taxonomy, *, seed: int = 0,
              n_classes: int = 8, grid: int = 4,
              parcel_size_m: float = 80.0, gap_m: float = 20.0,
              images_per_parcel: int = 6, geo_sigma_m: float = 10.0,
              train_per_class: int = 40, val_per_class: int = 10,
              dim: int = 16, noise_rate: float = 0.3,
              separation: float = 3.0, spread: float = 1.0,
              feature_scale: float = 1.0,
              streams=("object", "scene"),
              origin=(-122.42, 37.75)) -> dict[str, Path]:
    """Write a complete synthetic city: parcels.geojson plus train/val/map
    JSON-lines manifests. Returns the paths keyed by artifact name.

    Parcels form a ``grid x grid`` lattice of squares, each with one or two
    ground-truth classes drawn from the first ``n_classes`` fine classes.
    Map images sit near their parcel's center with Gaussian geotag noise,
    so a fraction of them land in the gap and exercise the dilated and
    dropped paths of geo-filtering.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_classes = min(n_classes, len(taxonomy.fine_classes))
    means = {s: _class_means(rng, n_classes, dim, separation) for s in streams}

    lon0, lat0 = origin
    dlat = 1.0 / METERS_PER_DEGREE
    dlon = dlat / math.cos(math.radians(lat0))
    step_m = parcel_size_m + gap_m

    def features_for(cls):
        return {s: (means[s][cls]
                    + spread * rng.normal(size=dim)) * feature_scale
                for s in streams}

    # parcels
    features = []
    parcel_info = []
    width = len(str(grid - 1))  # fixed-width rows and columns keep ids unique
    for gy in range(grid):
        for gx in range(grid):
            pid = f"P{gy:0{width}d}{gx:0{width}d}"
            x0 = gx * step_m
            y0 = gy * step_m
            ring = [[_round_coord(lon0 + x * dlon), _round_coord(lat0 + y * dlat)]
                    for x, y in ((x0, y0), (x0 + parcel_size_m, y0),
                                 (x0 + parcel_size_m, y0 + parcel_size_m),
                                 (x0, y0 + parcel_size_m), (x0, y0))]
            n_truth = int(rng.integers(1, 3))
            truth = sorted(rng.choice(n_classes, size=n_truth, replace=False).tolist())
            features.append({
                "type": "Feature",
                "id": pid,
                "geometry": {"type": "Polygon", "coordinates": [ring]},
                "properties": {
                    "landuse": [taxonomy.fine_classes[c] for c in truth]},
            })
            center = (lon0 + (x0 + parcel_size_m / 2) * dlon,
                      lat0 + (y0 + parcel_size_m / 2) * dlat)
            parcel_info.append((pid, truth, center))
    parcels_path = out_dir / "parcels.geojson"
    write_atomic(parcels_path, encode_json(
        {"type": "FeatureCollection", "features": features}) + "\n")

    # train / val manifests, each row written as it is drawn
    def write_manifest(path, rows):
        with atomic_output(path) as f:
            for row in rows:
                f.write(json.dumps(row).encode("utf-8") + b"\n")

    def training_rows(prefix, per_class, noise):
        i = 0
        for _ in range(per_class):
            for cls in range(n_classes):
                label = cls
                if rng.random() < noise:
                    label = int((cls + rng.integers(1, n_classes)) % n_classes)
                yield {
                    "id": f"{prefix}{i:06d}",
                    "domain": DOMAIN_A if i % 2 == 0 else DOMAIN_B,
                    "label": taxonomy.fine_classes[label],
                    "features": {s: [float(v) for v in vec]
                                 for s, vec in features_for(cls).items()},
                }
                i += 1

    train_path = out_dir / "train.jsonl"
    val_path = out_dir / "val.jsonl"
    write_manifest(train_path, training_rows("t", train_per_class, noise_rate))
    write_manifest(val_path, training_rows("v", val_per_class, 0.0))

    # map manifest: geotagged images near parcel centers
    def map_rows():
        i = 0
        for pid, truth, (clon, clat) in parcel_info:
            for _ in range(images_per_parcel):
                cls = int(rng.choice(truth))
                dx, dy = rng.normal(scale=geo_sigma_m, size=2)
                yield {
                    "id": f"m{i:06d}",
                    "domain": DOMAIN_B,
                    "lon": _round_coord(clon + dx * dlon),
                    "lat": _round_coord(clat + dy * dlat),
                    "label": taxonomy.fine_classes[cls],
                    "features": {s: [float(v) for v in vec]
                                 for s, vec in features_for(cls).items()},
                }
                i += 1

    map_path = out_dir / "map.jsonl"
    write_manifest(map_path, map_rows())

    return {"parcels": parcels_path, "train": train_path, "val": val_path,
            "map": map_path}
