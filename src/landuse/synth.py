"""Synthetic data generation: Gaussian-blob feature sets with label noise
and a grid-city of square parcels with geotagged images.

The real corpora are not redistributable, so every end-to-end test runs on
data from this module. All generation is seeded and byte-deterministic.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path

import numpy as np

from .atomic import atomic_output, write_atomic
from .dataset import DOMAIN_A, DOMAIN_B, ManifestTable
from .geodata import METERS_PER_DEGREE, GeoPoint, encode_json
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


def noisy_web_split(n_classes: int, n_train: int, n_val: int, dim: int, *,
                    noise_rate: float = 0.3, seed: int = 0,
                    separation: float = 3.0, core_spread: float = 0.5,
                    faded_fraction: float = 0.4, feature_scale: float = 24.0,
                    mixed_domains: bool = False):
    """(noisy train, clean validation) mimicking a web-scraped corpus, in
    one stream, ``object``.

    Besides uniform label flips, a ``faded_fraction`` of the training
    samples carries almost no class signal: their class mean is scaled by
    0.05 so they sit near the origin, dominated by isotropic noise of
    spread 0.8. At high ``dim`` that noise is nearly orthogonal to the span
    of the class means, so a trained model scores these samples close to
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
        gain = np.where(faded, 0.05, 1.0)
        spread = np.where(faded, 0.8, core_spread)
        X = (gain[:, None] * means[true]
             + spread[:, None] * rng.normal(size=(n, dim))) * feature_scale
        labels = _flip_labels(rng, true, n_classes, noise)
        return _table(prefix, labels, {"object": X}, mixed_domains)

    train = sample(n_train, noise_rate, "train", cores_only=False)
    val = sample(n_val, 0.0, "val", cores_only=True)
    return train, val


def complementary_stream_split(n_classes: int, n_train: int, n_val: int,
                               dim: int, *, seed: int = 0):
    """Two-stream records where each stream separates only half the classes.

    Each stream's class means lie at distance 3 from the origin, under
    unit isotropic noise. The first stream, ``object``, collapses the means
    of the upper half of the classes onto a single point, the second,
    ``scene``, collapses the lower half, so each stream alone is partially
    informative and fusion recovers both.
    """
    rng = np.random.default_rng(seed)
    half = n_classes // 2
    means = {}
    for k, stream in enumerate(("object", "scene")):
        m = _class_means(rng, n_classes, dim, 3.0)
        if k == 0:
            m[half:] = m[half]
        else:
            m[:half] = m[0]
        means[stream] = m

    def sample(n, prefix):
        true = np.arange(n) % n_classes
        feats = {s: m[true] + rng.normal(size=(n, dim))
                 for s, m in means.items()}
        return _table(prefix, true, feats, mixed_domains=False)

    return sample(n_train, "train"), sample(n_val, "val")


# ---------------------------------------------------------------------------
# synthetic city


#: the files ``make_city`` writes, by the keys of the paths it returns
CITY_FILES = {"parcels": "parcels.geojson", "train": "train.jsonl",
              "val": "val.jsonl", "map": "map.jsonl"}


def _round_coord(x: float) -> float:
    return round(float(x), 10)


def make_city(out_dir, taxonomy: Taxonomy, *, seed: int = 0,
              n_classes: int = 8, grid: int = 4, images_per_parcel: int = 6,
              geo_sigma_m: float = 10.0, train_per_class: int = 40,
              val_per_class: int = 10, dim: int = 16, noise_rate: float = 0.3,
              separation: float = 3.0, spread: float = 1.0,
              feature_scale: float = 1.0,
              streams=("object", "scene")) -> dict[str, Path]:
    """Write a complete synthetic city: parcels.geojson plus train/val/map
    JSON-lines manifests, named in ``CITY_FILES``. Returns the paths keyed
    by artifact name.

    Parcels form a ``grid x grid`` lattice of squares, each with one or two
    ground-truth classes drawn from the first ``n_classes`` fine classes.
    Map images sit near their parcel's center with Gaussian geotag noise,
    so a fraction of them land in the gap and exercise the dilated and
    dropped paths of geo-filtering.

    Each row draws the noise of all its streams in one
    ``rng.normal(size=(len(streams), dim))`` call; a map image draws its
    geotag offset (the first two values, times ``geo_sigma_m``) in the
    same call. A stream named twice keeps its last draw. The rows are
    written as they are drawn, in blocks of ``max(1, 2048 // dim)``: each
    stream's block is ``(class mean + spread * noise) * feature_scale``
    over the block's stacked draws, and each manifest line is
    ``geodata.encode_json`` of its record, ``features`` last, whose
    vectors are rows of those blocks. A bad argument raises ``ValueError``
    before any file is written. So does a block holding a non-finite
    value (from a ``feature_scale`` of 1e308, say), which orjson would
    write as ``null``, and a geotag that ``GeoPoint`` refuses (from a
    ``geo_sigma_m`` of ``inf``, say); the manifest being written is then
    left out.
    """
    n_fine = len(taxonomy.fine_classes)
    n_classes = min(n_classes, n_fine)
    if n_classes < 2:
        raise ValueError(f"n_classes must be at least 2 (and is capped at the"
                         f" taxonomy's {n_fine} fine classes), got {n_classes}")
    for name, value in (("grid", grid), ("images_per_parcel", images_per_parcel),
                        ("train_per_class", train_per_class),
                        ("val_per_class", val_per_class), ("dim", dim),
                        ("geo_sigma_m", geo_sigma_m)):
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError(f"noise_rate must be in [0, 1], got {noise_rate}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {key: out_dir / name for key, name in CITY_FILES.items()}
    rng = np.random.default_rng(seed)
    means = {s: _class_means(rng, n_classes, dim, separation) for s in streams}

    lon0, lat0 = -122.42, 37.75
    parcel_size_m, step_m = 80.0, 100.0   # 20 m gaps between parcels
    dlat = 1.0 / METERS_PER_DEGREE
    dlon = dlat / math.cos(math.radians(lat0))

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
    write_atomic(paths["parcels"], encode_json(
        {"type": "FeatureCollection", "features": features}, indent=True)
        + b"\n")

    # train / val manifests, written in blocks of rows as they are drawn;
    # a row is its head, its class and its streams' noise. A stream named
    # twice keeps its last draw, as a dict built over ``streams`` would.
    column = {s: j for j, s in enumerate(streams)}
    block = max(1, 2048 // max(dim, 1))   # about 2048 floats per stream

    def write_manifest(path, rows):
        with atomic_output(path) as f:
            while chunk := list(islice(rows, block)):
                heads, classes, noise = zip(*chunk)
                classes, noise = np.array(classes), np.stack(noise)
                with np.errstate(over="ignore", invalid="ignore"):
                    blocks = {s: (means[s][classes] + spread * noise[:, j])
                              * feature_scale for s, j in column.items()}
                if not all(np.isfinite(b).all() for b in blocks.values()):
                    raise ValueError(
                        f"{path.name}: a drawn feature value is not finite"
                        f" (feature_scale {feature_scale}, spread {spread},"
                        f" separation {separation})")
                f.write(b"".join(encode_json(dict(head, features={
                    s: b[i] for s, b in blocks.items()})) + b"\n"
                    for i, head in enumerate(heads)))

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
                }, cls, rng.normal(size=(len(streams), dim))
                i += 1

    write_manifest(paths["train"],
                   training_rows("t", train_per_class, noise_rate))
    write_manifest(paths["val"], training_rows("v", val_per_class, 0.0))

    # map manifest: geotagged images near parcel centers
    def map_rows():
        i = 0
        for pid, truth, (clon, clat) in parcel_info:
            for _ in range(images_per_parcel):
                cls = truth[int(rng.integers(len(truth)))]
                # one draw: the offset normal(scale=geo_sigma_m, size=2) gives,
                # as Python floats (inf on overflow, no warning), and the noise
                z = rng.normal(size=2 + len(streams) * dim)
                dx, dy = (geo_sigma_m * d for d in z[:2].tolist())
                try:  # a geotag the manifest would refuse stops here
                    at = GeoPoint(_round_coord(clon + dx * dlon),
                                  _round_coord(clat + dy * dlat))
                except ValueError as e:
                    raise ValueError(f"{paths['map'].name}: m{i:06d}: drawn"
                                     f" geotag {e} (geo_sigma_m {geo_sigma_m})"
                                     ) from None
                yield {
                    "id": f"m{i:06d}",
                    "domain": DOMAIN_B,
                    "lon": at.lon, "lat": at.lat,
                    "label": taxonomy.fine_classes[cls],
                }, cls, z[2:].reshape(len(streams), dim)
                i += 1

    write_manifest(paths["map"], map_rows())
    return paths
