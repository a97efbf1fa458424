"""Output checks computed apart from the program.

Each check takes plain data read from the artifacts and returns a list of
problems; an empty list is a pass. The geometry uses a winding number and
its own metric distance, the metrics and votes are recounted from the
JSON-lines artifacts, and the fused prediction is recomputed with numpy
from the saved model matrices.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

#: metres per degree of latitude, the package's planar-frame constant
METERS_PER_DEGREE = 111320.0
#: a point this close (metres) to a parcel edge or to the buffer edge is
#: left out of the geometry check, where rounding may decide either way
HAIR_M = 1e-6
TOL = 1e-12
#: images whose top two fused scores are closer than this are not checked:
#: the program sums per image, the check per matrix, so the last bits differ
FUSION_MARGIN = 1e-9
#: image accuracy must reach this multiple of chance (1 / classes)
ABOVE_CHANCE = 3.0


class Parcel:
    def __init__(self, pid: str, rings, truth):
        self.id = pid
        self.rings = [np.asarray(r, dtype=np.float64) for r in rings]
        self.truth = frozenset(truth)


def read_parcels(path) -> list[Parcel]:
    """Parcels of a GeoJSON FeatureCollection of Polygon features, the
    only geometry ``make_city`` and the star transform write."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Parcel(str(f["id"]), f["geometry"]["coordinates"],
                   f["properties"].get("landuse", []))
            for f in doc["features"]]


# ---------------------------------------------------------------------------
# geometry


def winding_contains(parcel: Parcel, pts: np.ndarray) -> np.ndarray:
    """Inside-or-on-boundary by winding number, for an (N, 2) lon/lat array.

    For simple rings the winding number about a ring is -1, 0 or 1, so the
    parity of the summed magnitudes over all rings is even-odd containment
    with holes."""
    x, y = pts[:, 0][None, :], pts[:, 1][None, :]
    on_edge = np.zeros(len(pts), dtype=bool)
    total = np.zeros(len(pts), dtype=np.int64)
    for ring in parcel.rings:
        ax, ay = ring[:-1, 0:1], ring[:-1, 1:2]
        bx, by = ring[1:, 0:1], ring[1:, 1:2]
        side = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        up = (ay <= y) & (by > y) & (side > 0)
        down = (ay > y) & (by <= y) & (side < 0)
        total += np.abs(up.sum(axis=0) - down.sum(axis=0))
        on_edge |= ((side == 0)
                    & (np.minimum(ax, bx) <= x) & (x <= np.maximum(ax, bx))
                    & (np.minimum(ay, by) <= y) & (y <= np.maximum(ay, by))
                    ).any(axis=0)
    return on_edge | (total % 2 == 1)


def edge_distance_m(parcel: Parcel, pts: np.ndarray) -> np.ndarray:
    """Metres from each point to the nearest parcel edge, in an
    equirectangular frame centred on the parcel's bounding box."""
    allv = np.vstack(parcel.rings)
    lon0, lat0 = (allv.min(axis=0) + allv.max(axis=0)) / 2.0
    scale = np.array([math.cos(math.radians(lat0)) * METERS_PER_DEGREE,
                      METERS_PER_DEGREE])
    p = (pts - [lon0, lat0]) * scale
    best = np.full(len(pts), np.inf)
    for ring in parcel.rings:
        v = (ring - [lon0, lat0]) * scale
        a, d = v[:-1], v[1:] - v[:-1]
        keep = (d != 0).any(axis=1)
        a, d = a[keep], d[keep]
        rel = p[None, :, :] - a[:, None, :]                  # (E, N, 2)
        t = np.clip((rel * d[:, None, :]).sum(axis=2)
                    / (d * d).sum(axis=1)[:, None], 0.0, 1.0)
        gap = rel - t[:, :, None] * d[:, None, :]
        best = np.minimum(best, np.sqrt((gap * gap).sum(axis=2)).min(axis=0))
    return best


def expected_assignments(parcels, ids, pts, dilation_m):
    """({image: {parcel: mode}}, skipped ids): containment wins, otherwise
    every parcel within ``dilation_m`` of the point; images matching
    nothing are absent. Images within a hair of an edge or of the buffer
    edge are skipped."""
    inside = np.array([winding_contains(pc, pts) for pc in parcels])
    dist = np.array([edge_distance_m(pc, pts) for pc in parcels])
    hair = ((dist < HAIR_M) | (np.abs(dist - dilation_m) < HAIR_M)).any(axis=0)
    expected, skipped = {}, set()
    for j, image in enumerate(ids):
        if hair[j]:
            skipped.add(image)
            continue
        hits = np.flatnonzero(inside[:, j])
        mode = "inside"
        if not len(hits):
            hits, mode = np.flatnonzero(dist[:, j] <= dilation_m), "dilated"
        if len(hits):
            expected[image] = {parcels[k].id: mode for k in hits}
    return expected, skipped


def group_assignments(rows) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for row in rows:
        out.setdefault(row["image"], {})[row["parcel"]] = row["mode"]
    return out


def check_assignments(parcels, geo: dict, rows, dilation_m) -> list[str]:
    """Every assignments.jsonl row, and every dropped image, against the
    winding-number and metric-distance reference."""
    ids = sorted(geo)
    pts = np.array([geo[i] for i in ids], dtype=np.float64).reshape(-1, 2)
    expected, skipped = expected_assignments(parcels, ids, pts, dilation_m)
    actual = group_assignments(rows)
    problems = [f"assignment of unknown image {i}"
                for i in sorted(set(actual) - set(geo))]
    for image in ids:
        if image not in skipped and actual.get(image) != expected.get(image):
            problems.append(f"image {image}: assigned {actual.get(image)},"
                            f" expected {expected.get(image)}")
    return problems


def assignment_counts(geo: dict, rows) -> dict[str, int]:
    """Images inside a parcel, on the dilated path, and dropped."""
    modes = group_assignments(rows)
    inside = sum(1 for m in modes.values() if "inside" in m.values())
    return {"inside": inside, "dilated": len(modes) - inside,
            "dropped": len(set(geo) - set(modes))}


# ---------------------------------------------------------------------------
# metrics, fusion and votes


def recount_metrics(assign_rows, pred_rows, parcels, labels: dict) -> dict:
    """Fine-level image accuracy, mapping precision, recall and micro F1,
    recounted from the artifacts by class name."""
    pred = {r["image"]: r["class"] for r in pred_rows}
    truth = {pc.id: pc.truth for pc in parcels if pc.truth}
    correct = total = 0
    recalled = set()
    for row in assign_rows:
        t = truth.get(row["parcel"])
        if t is None:
            continue
        total += 1
        if pred[row["image"]] in t:
            correct += 1
            recalled.add((row["parcel"], pred[row["image"]]))
    gt = sum(len(t) for t in truth.values())
    precision = correct / total if total else 0.0
    recall = len(recalled) / gt if gt else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    hits = sum(pred[i] == labels[i] for i in pred)
    return {"image_accuracy": hits / len(pred) if pred else 0.0,
            "precision": precision, "recall": recall, "f1_micro": f1}


def check_report(report: dict, recount: dict) -> list[str]:
    got = {"image_accuracy": report.get("image_accuracy")}
    mapping = report.get("mapping") or {}
    if mapping.get("level") != "fine":
        return [f"report level {mapping.get('level')!r}, expected 'fine'"]
    for key in ("precision", "recall", "f1_micro"):
        got[key] = mapping.get(key)
    return [f"report {key} = {got[key]}, recount gives {want}"
            for key, want in recount.items()
            if got[key] is None or abs(got[key] - want) > TOL]


def fused_argmax(models, features) -> tuple[np.ndarray, np.ndarray]:
    """(argmax, top-two margin) of the equal-weight mean of per-stream
    softmax scores; ``models`` maps stream to (W, b), ``features`` maps
    stream to an (N, D) matrix."""
    fused = 0.0
    for stream, (W, b) in models.items():
        z = features[stream] @ W.T + b
        e = np.exp(z - z.max(axis=1, keepdims=True))
        fused = fused + e / e.sum(axis=1, keepdims=True)
    fused = fused / len(models)
    top2 = np.sort(fused, axis=1)[:, -2:]
    return fused.argmax(axis=1), top2[:, 1] - top2[:, 0]


def check_fusion(models, features, ids, pred_rows) -> list[str]:
    want, gap = fused_argmax(models, features)
    pred = {r["image"]: r["pred"] for r in pred_rows}
    problems = [f"{len(ids)} map images but {len(pred)} predictions"] \
        if set(pred) != set(ids) else []
    for k, image in enumerate(ids):
        if gap[k] > FUSION_MARGIN and pred.get(image) != int(want[k]):
            problems.append(f"image {image}: predicted {pred.get(image)},"
                            f" fused argmax is {int(want[k])}")
    return problems


def check_votes(assign_rows, pred_rows, map_doc) -> list[str]:
    """Each mapped parcel's label is the lowest-index majority of its
    images' predictions, with matching support and histogram."""
    pred = {r["image"]: r["pred"] for r in pred_rows}
    name = {r["pred"]: r["class"] for r in pred_rows}
    hist: dict[str, Counter] = {}
    for row in assign_rows:
        hist.setdefault(row["parcel"], Counter())[pred[row["image"]]] += 1
    mapped = {f["id"]: f["properties"] for f in map_doc["features"]}
    problems = []
    if set(mapped) != set(hist):
        problems.append(f"map has {len(mapped)} parcels, {len(hist)} have votes")
    for pid, h in hist.items():
        top = max(h.values())
        majority = min(c for c, k in h.items() if k == top)
        props = mapped.get(pid, {})
        want = {"landuse_pred": name[majority], "support": sum(h.values()),
                "histogram": {name[c]: k for c, k in h.items()}}
        got = {k: props.get(k) for k in want}
        if got != want:
            problems.append(f"parcel {pid}: map says {got}, votes give {want}")
    return problems


def check_above_chance(accuracy: float, n_classes: int) -> list[str]:
    floor = ABOVE_CHANCE / n_classes
    return [] if accuracy >= floor else [
        f"image accuracy {accuracy:.4f} is below {ABOVE_CHANCE:g}x chance"
        f" ({floor:.4f})"]


# ---------------------------------------------------------------------------
# determinism


def tree_digest(root) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_identical(reference: dict, digest: dict, what: str) -> list[str]:
    changed = sorted(k for k in set(reference) | set(digest)
                     if reference.get(k) != digest.get(k))
    return [f"{what}: {k} differs from the first pass" for k in changed]
