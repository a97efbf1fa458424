"""Two-stream late fusion and per-parcel majority-vote map generation.

Per-image scores from the object and scene streams are combined by a
convex weighted average; each image then casts one hard vote (the fused
argmax) in every parcel it was assigned to. Ties break to the lowest class
index everywhere, for reproducibility.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classifier import SoftmaxModel, forward, stream_matrix
from .dataset import ImageRecord
from .geodata import Parcel, parcel_geometry
from .taxonomy import Level, Taxonomy


def equal_weights(streams) -> dict[str, float]:
    streams = list(streams)
    return {s: 1.0 / len(streams) for s in streams}


def _check_weights(weights: dict[str, float]) -> None:
    vals = list(weights.values())
    if any(v < 0 for v in vals):
        raise ValueError("fusion weights must be >= 0")
    if abs(sum(vals) - 1.0) > 1e-9:
        raise ValueError(f"fusion weights must sum to 1, got {sum(vals)}")


@dataclass(frozen=True)
class ParcelPrediction:
    parcel_id: str
    histogram: dict[int, int]
    majority: int
    support: int


def fuse(scores: dict[str, np.ndarray], weights: dict[str, float]) -> np.ndarray:
    """Element-wise convex combination of per-stream score vectors."""
    _check_weights(weights)
    if set(scores) != set(weights):
        raise ValueError(
            f"streams {sorted(scores)} do not match weights {sorted(weights)}")
    lengths = {len(v) for v in scores.values()}
    if len(lengths) != 1:
        raise ValueError(f"score vector length mismatch: {sorted(lengths)}")
    out = np.zeros(lengths.pop())
    for stream, vec in scores.items():
        out += weights[stream] * np.asarray(vec, dtype=np.float64)
    return out


def predict_image(models: dict[str, SoftmaxModel], record: ImageRecord,
                  weights: dict[str, float]):
    """Fused prediction for one record: (argmax class index, fused scores)."""
    scores = {stream: forward(model, stream_matrix((record,), stream)[0])
              for stream, model in models.items()}
    fused = fuse(scores, weights)
    return int(np.argmax(fused)), fused


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
               level: Level = Level.FINE) -> str:
    """GeoJSON FeatureCollection of predicted parcels.

    The majority label is rolled up to the requested level; the full fine
    histogram is kept in the properties so mixed-use parcels stay visible.
    Geometry is copied verbatim from the input parcels.
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
    return json.dumps({"type": "FeatureCollection", "features": features},
                      indent=2) + "\n"
