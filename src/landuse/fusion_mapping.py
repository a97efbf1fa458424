"""Two-stream late fusion and per-parcel majority-vote map generation.

Per-image scores from the object and scene streams are combined by a
convex weighted average; each image then casts one hard vote (the fused
argmax) in every parcel it was assigned to. Ties break to the lowest class
index everywhere, for reproducibility.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .classifier import SoftmaxModel, forward
from .dataset import ImageRecord, ManifestTable, missing_stream
from .geodata import encode_json
from .taxonomy import Level, Taxonomy, TaxonomyError


def equal_weights(streams) -> dict[str, float]:
    streams = list(streams)
    return {s: 1.0 / len(streams) for s in streams}


def check_weights(weights: dict[str, float], streams) -> None:
    vals = list(weights.values())
    if not all(v >= 0 for v in vals):  # NaN compares false, so fails too
        raise ValueError("fusion weights must be >= 0")
    if abs(sum(vals) - 1.0) > 1e-9:
        raise ValueError(f"fusion weights must sum to 1, got {sum(vals)}")
    if set(streams) != set(weights):
        raise ValueError(
            f"streams {sorted(streams)} do not match weights {sorted(weights)}")


def fuse(scores: dict, weights: dict[str, float]) -> np.ndarray:
    """Element-wise convex combination of per-stream scores: one vector per
    stream, or one ``(N, n)`` matrix per stream with a row per image. A
    stream's scores may also be given as a function of no arguments that
    makes them; each is called in turn, so that only one stream's scores
    need exist at a time."""
    check_weights(weights, scores)
    out = product = None
    for stream, vec in scores.items():
        vec = np.asarray(vec() if callable(vec) else vec, dtype=np.float64)
        if out is None:
            out, product = np.zeros(vec.shape), np.empty(vec.shape)
        elif vec.shape != out.shape:
            raise ValueError(
                f"score length mismatch: {sorted({out.shape, vec.shape})}")
        np.multiply(weights[stream], vec, out=product)
        out += product
        del vec  # before the next stream's scores are made
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
    fused = fuse({stream: partial(forward, model, table.stream(stream))
                  for stream, model in models.items()}, weights)
    return np.argmax(fused, axis=-1), fused


def aggregate_parcels(assignments, predictions: dict[str, int], parcels,
                      taxonomy: Taxonomy) -> np.ndarray:
    """The votes as an int64 ``(P, n)`` matrix: row ``k`` counts parcel
    ``k``'s votes by fine class, and an image votes once in each of its
    parcels. A row's majority is its ``argmax`` (ties go to the lowest
    index) and its support the row sum. An image with no prediction
    raises first, in assignment order; then a prediction outside the fine
    classes raises ``TaxonomyError``; then a parcel id not in ``parcels``."""
    try:
        preds = [predictions[a.image_id] for a in assignments]
    except KeyError as e:
        raise ValueError(f"no prediction for image {e.args[0]}") from None
    n = len(taxonomy.fine_classes)
    if bad := [c for c in preds if not 0 <= c < n]:
        raise TaxonomyError(f"fine index {bad[0]} out of range [0, {n})")
    row = {parcel.id: k for k, parcel in enumerate(parcels)}
    try:
        cells = [row[parcel_id] * n + c
                 for a, c in zip(assignments, preds) for parcel_id in a.modes]
    except KeyError as e:
        raise ValueError(f"unknown parcel {e.args[0]}") from None
    return np.bincount(np.array(cells, dtype=np.int64),
                       minlength=len(parcels) * n).reshape(len(parcels), n)


def export_map(parcels, votes: np.ndarray, taxonomy: Taxonomy,
               level: Level = Level.FINE, provenance: dict | None = None) -> bytes:
    """GeoJSON FeatureCollection of the parcels with votes in ``votes``
    (``aggregate_parcels``). The majority label is rolled up to ``level``;
    the fine histogram is kept in the properties so mixed-use parcels stay
    visible. Geometry is the parcels' rings, verbatim. A ``provenance``
    given is the last member. The text is orjson's, indented by two
    spaces and ended by a line feed, from ``geodata.encode_json``; a
    parcel id with a lone surrogate, or an integer coordinate past 64
    bits, has ``json`` write the whole collection instead."""
    histograms: dict[int, dict[str, int]] = {}
    rows, cols = np.nonzero(votes)
    fine = taxonomy.fine_classes
    for k, c, count in zip(rows.tolist(), cols.tolist(),
                           votes[rows, cols].tolist()):
        histograms.setdefault(k, {})[fine[c]] = count
    up, names = taxonomy.roll_up_index(level), taxonomy.classes(level)
    majority = votes.argmax(axis=1).tolist()
    support = votes.sum(axis=1).tolist()
    mapped = [parcels[k] for k in histograms]
    features = [{
        "type": "Feature",
        "id": parcel.id,
        "geometry": {"type": "Polygon", "coordinates": parcel.rings},
        "properties": {
            "parcel": parcel.id,
            "landuse_pred": names[up[majority[k]]],
            "support": support[k],
            "histogram": histogram,
        },
    } for parcel, (k, histogram) in zip(mapped, histograms.items())]
    doc = {"type": "FeatureCollection", "features": features}
    if provenance is not None:
        doc["provenance"] = provenance
    return encode_json(doc, indent=True) + b"\n"
