"""Two-stream late fusion and per-parcel majority-vote map generation.

Per-image scores from the object and scene streams are combined by a
convex weighted average; each image then casts one hard vote (the fused
argmax) in every parcel it was assigned to. Ties break to the lowest class
index everywhere, for reproducibility.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classifier import SoftmaxModel, forward
from .dataset import ImageRecord, ManifestTable, missing_stream
from .geodata import Parcel, encode_json, parcel_geometry
from .taxonomy import Level, Taxonomy


def equal_weights(streams) -> dict[str, float]:
    streams = list(streams)
    return {s: 1.0 / len(streams) for s in streams}


def _check_weights(weights: dict[str, float], streams) -> None:
    vals = list(weights.values())
    if not all(v >= 0 for v in vals):  # NaN compares false, so fails too
        raise ValueError("fusion weights must be >= 0")
    if abs(sum(vals) - 1.0) > 1e-9:
        raise ValueError(f"fusion weights must sum to 1, got {sum(vals)}")
    if set(streams) != set(weights):
        raise ValueError(
            f"streams {sorted(streams)} do not match weights {sorted(weights)}")


@dataclass(frozen=True)
class ParcelPrediction:
    parcel_id: str
    histogram: dict[int, int]
    majority: int
    support: int


def fuse(scores: dict[str, np.ndarray], weights: dict[str, float]) -> np.ndarray:
    """Element-wise convex combination of per-stream scores: one vector per
    stream, or one ``(N, n)`` matrix per stream with a row per image."""
    _check_weights(weights, scores)
    shapes = {np.shape(v) for v in scores.values()}
    if len(shapes) != 1:
        raise ValueError(f"score length mismatch: {sorted(shapes)}")
    out = np.zeros(shapes.pop())
    for stream, vec in scores.items():
        out += weights[stream] * np.asarray(vec, dtype=np.float64)
    return out


def predict_image(models: dict[str, SoftmaxModel], record: ImageRecord,
                  weights: dict[str, float]):
    """Fused prediction for one record: (argmax class index, fused scores)."""
    scores = {}
    for stream, model in models.items():
        if stream not in record.features:
            raise ValueError(missing_stream(record.id, stream))
        scores[stream] = forward(model, record.features[stream])
    fused = fuse(scores, weights)
    return int(np.argmax(fused)), fused


def predict_table(models: dict[str, SoftmaxModel], table: ManifestTable,
                  weights: dict[str, float]):
    """Fused predictions for every record of a table, one forward per
    stream: (argmax class index per record, ``(N, n)`` fused scores).
    Row ``k`` agrees with ``predict_image`` on ``table[k]``."""
    fused = fuse({stream: forward(model, table.stream(stream))
                  for stream, model in models.items()}, weights)
    return np.argmax(fused, axis=-1), fused


def aggregate_parcels(assignments, predictions: dict[str, int]) -> list[ParcelPrediction]:
    """Majority vote per parcel over its assigned images' predictions.

    Parcels with no assigned images are omitted. An image assigned to
    several parcels votes once in each.
    """
    histograms: dict[str, Counter] = {}
    for a in assignments:
        try:
            pred = predictions[a.image_id]
        except KeyError:
            raise ValueError(f"no prediction for image {a.image_id}") from None
        for parcel_id, _mode in a.pairs():
            histograms.setdefault(parcel_id, Counter())[pred] += 1
    out = []
    for parcel_id in sorted(histograms):
        hist = histograms[parcel_id]
        top = max(hist.values())
        majority = min(c for c, k in hist.items() if k == top)
        out.append(ParcelPrediction(
            parcel_id=parcel_id,
            histogram=dict(sorted(hist.items())),
            majority=majority,
            support=sum(hist.values())))
    return out


def export_map(parcels, parcel_predictions, taxonomy: Taxonomy,
               level: Level = Level.FINE, provenance: dict | None = None) -> str:
    """GeoJSON FeatureCollection of predicted parcels.

    The majority label is rolled up to the requested level; the full fine
    histogram is kept in the properties so mixed-use parcels stay visible.
    Geometry is copied verbatim from the input parcels. A ``provenance``
    given becomes the collection's last member. The text is
    ``json.dumps(collection, indent=2)`` and a line feed, written by
    ``geodata.encode_json``: orjson writes it unless the map holds a
    value that orjson writes otherwise, such as a non-ASCII class name or
    a coordinate below 1e-4 in magnitude, and json then writes it all.
    """
    by_id = {pp.parcel_id: pp for pp in parcel_predictions}
    features = []
    for parcel in parcels:
        pp = by_id.get(parcel.id)
        if pp is None:
            continue
        rolled = taxonomy.roll_up(pp.majority, level)
        features.append({
            "type": "Feature",
            "id": parcel.id,
            "geometry": parcel_geometry(parcel),
            "properties": {
                "parcel": parcel.id,
                "landuse_pred": taxonomy.name(rolled, level),
                "support": pp.support,
                "histogram": {taxonomy.name(c): k
                              for c, k in pp.histogram.items()},
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    if provenance is not None:
        doc["provenance"] = provenance
    return encode_json(doc) + "\n"
