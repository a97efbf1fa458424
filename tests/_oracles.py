"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms than the library code: the
containment oracle accumulates a winding number edge by edge instead of
counting ray crossings, the assignment oracle tests every image against
every parcel instead of prefiltering by bounding box, the ring oracle tests
every pair of edges instead of sweeping over their boxes, the manifest
oracle checks and keeps one record at a time instead of filling matrices,
the batch oracle shuffles records instead of indices, and the gradient
oracle differentiates the loss numerically. Keep them slow and obvious: an
oracle that shares the library's shortcut would share its bugs too.
"""

import json
import math
import random
import struct
from pathlib import Path

import numpy as np

from landuse.classifier import loss_grad
from landuse.dataset import DOMAIN_A, DOMAIN_B, ImageRecord, ManifestError
from landuse.geodata import (GeoPoint, Parcel, _segments_cross,
                             boundary_distance_m, contains)


# ---------------------------------------------------------------------------
# point-in-polygon via winding number


def _on_edge(a, b, x, y):
    # exact collinearity + bbox, mirrors the library's boundary convention
    if (b[0] - a[0]) * (y - a[1]) != (b[1] - a[1]) * (x - a[0]):
        return False
    return (min(a[0], b[0]) <= x <= max(a[0], b[0])
            and min(a[1], b[1]) <= y <= max(a[1], b[1]))


def _winding(ring, x, y):
    """Signed winding number of a closed ring about (x, y)."""
    w = 0
    for i in range(len(ring) - 1):
        a, b = ring[i], ring[i + 1]
        side = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        if a[1] <= y:
            if b[1] > y and side > 0:
                w += 1
        elif b[1] <= y and side < 0:
            w -= 1
    return w


def oracle_contains(parcel: Parcel, lon: float, lat: float) -> bool:
    """Boundary points are inside; otherwise odd total |winding| is inside.

    For simple rings each winding number is -1, 0 or 1, so parity over all
    rings matches even-odd semantics with holes.
    """
    for ring in parcel.rings:
        for i in range(len(ring) - 1):
            if _on_edge(ring[i], ring[i + 1], lon, lat):
                return True
    total = sum(abs(_winding(ring, lon, lat)) for ring in parcel.rings)
    return total % 2 == 1


# ---------------------------------------------------------------------------
# geo-filtering over all pairs


def oracle_assign(records, parcels, dilation_m):
    """``[(image_id, [(parcel_id, mode), ...])]`` sorted by image id, with
    the library's exact tests run on every (image, parcel) pair."""
    out = []
    for image_id, point in records:
        modes = {pc.id: "inside" for pc in parcels if contains(pc, point)}
        if not modes:
            modes = {pc.id: "dilated" for pc in parcels
                     if boundary_distance_m(pc, point) <= dilation_m}
        if modes:
            out.append((image_id, list(modes.items())))
    out.sort(key=lambda t: t[0])
    return out


# ---------------------------------------------------------------------------
# ring self-intersection over all pairs


def oracle_ring_crossing(ring):
    """The lowest ``(i, j)`` of non-adjacent edges that the library's
    segment predicate calls crossing, or None; every pair is tested, O(E²).

    On float rings ``_orient`` rounds, so the predicate can call two
    nearly collinear edges whose boxes are apart crossing; the library
    never tests such a pair and accepts the ring. The two agree exactly
    where the arithmetic is exact, such as on small integer coordinates.
    """
    segs = list(zip(ring, ring[1:]))
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            # consecutive segments share a vertex by construction
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if not adjacent and _segments_cross(segs[i], segs[j]):
                return i, j
    return None


# ---------------------------------------------------------------------------
# random simple polygons (closed rings, no self-intersection)


def _spread_angles(rng, n_vertices):
    """Sorted angles with every gap between 1e-3 and pi - 1e-3.

    The lower bound keeps vertices apart. The upper one keeps each edge
    inside its own wedge around the centre: an edge spanning pi or more
    passes the centre on the far side, where it can cross the others.
    """
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n_vertices))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2 * math.pi - angles[-1])
        if 1e-3 < min(gaps) and max(gaps) < math.pi - 1e-3:
            return angles


def star_ring(rng: random.Random, cx, cy, r_min, r_max, n_vertices):
    """Star-shaped simple ring: vertices at sorted angles, random radii."""
    angles = _spread_angles(rng, n_vertices)
    pts = []
    for a in angles:
        r = rng.uniform(r_min, r_max)
        pts.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return tuple(pts) + (pts[0],)


def convex_ring(rng: random.Random, cx, cy, radius, n_vertices):
    """Convex ring: points on a circle with jittered sorted angles."""
    angles = _spread_angles(rng, n_vertices)
    pts = [(cx + radius * math.cos(a), cy + radius * math.sin(a))
           for a in angles]
    return tuple(pts) + (pts[0],)


def random_parcel(rng: random.Random, index: int) -> Parcel:
    """Convex, star-shaped, or star-with-hole parcel near the origin."""
    cx = rng.uniform(-0.01, 0.01)
    cy = rng.uniform(-0.01, 0.01)
    kind = index % 3
    if kind == 0:
        rings = (convex_ring(rng, cx, cy, rng.uniform(0.002, 0.008),
                             rng.randint(3, 10)),)
    elif kind == 1:
        rings = (star_ring(rng, cx, cy, 0.002, 0.009, rng.randint(4, 12)),)
    else:
        outer = star_ring(rng, cx, cy, 0.006, 0.009, rng.randint(4, 12))
        hole = star_ring(rng, cx, cy, 0.001, 0.004, rng.randint(3, 8))
        rings = (outer, hole)
    return Parcel(id=f"R{index}", rings=rings)


# ---------------------------------------------------------------------------
# manifests one record at a time


def _oracle_sidecar(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:5] != b"LUFV1":
        raise ManifestError(
            f"{path}: bad magic {data[:5]!r}, expected {b'LUFV1'!r}")
    count, d = struct.unpack_from("<II", data, 5)
    pos, out = 13, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, pos)
        rid = data[pos + 4:pos + 4 + n].decode("utf-8")
        pos += 4 + n
        out[rid] = np.frombuffer(data, "<f4", d, pos).astype(np.float64)
        pos += 4 * d
    return out


def oracle_load_manifest(path, taxonomy=None) -> list[ImageRecord]:
    """The manifest as ``ImageRecord``s, each record checked in full before
    the next is read, so the first error met names the first bad record.

    Within a record: a repeated id, the domain, its features (sidecar ids),
    that it has any, that it carries the first record's streams, then per
    stream a vector, finite and of the first record's dimension, then the
    label (an integer in range, or a class name), then the coordinates. A
    stream the first record lacks is reported for the first record. A line
    without ``id`` is skipped if its one key is ``provenance`` and raises
    otherwise.
    """
    path = Path(path)
    sidecars, records, dims, seen = {}, [], {}, set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ManifestError(f"{path}:{lineno}: bad JSON: {e.msg}") from None
            if "id" not in obj:
                if len(obj) == 1 and "provenance" in obj:
                    continue
                raise ManifestError(f"{path}:{lineno}: row lacks 'id'")
            rid = str(obj["id"])
            if rid in seen:
                raise ManifestError(f"{path}:{lineno}: repeated record id {rid}")
            seen.add(rid)
            domain = obj.get("domain", DOMAIN_A)
            if domain not in (DOMAIN_A, DOMAIN_B):
                raise ManifestError(f"record {rid}: unknown domain {domain!r}")
            features = {}
            for stream, vec in (obj.get("features") or {}).items():
                features[stream] = np.asarray(vec, dtype=np.float64)
            for stream, ref in (obj.get("features_ref") or {}).items():
                refpath = str(path.parent / ref)
                if refpath not in sidecars:
                    sidecars[refpath] = _oracle_sidecar(refpath)
                if rid not in sidecars[refpath]:
                    raise ManifestError(
                        f"record {rid}: not found in feature file {ref}")
                features[stream] = sidecars[refpath][rid]
            if not features:
                raise ManifestError(f"record {rid}: no features")
            if records:
                first = records[0]
                for stream in first.features:
                    if stream not in features:
                        raise ManifestError(f"record {rid}: missing features"
                                            f" for stream {stream!r}")
                for stream in features:
                    if stream not in first.features:
                        raise ManifestError(f"record {first.id}: missing"
                                            f" features for stream {stream!r}")
            for stream, vec in features.items():
                if vec.ndim != 1:
                    raise ManifestError(f"record {rid}: stream {stream} not a vector")
                if not np.all(np.isfinite(vec)):
                    raise ManifestError(
                        f"record {rid}: non-finite value in stream {stream}")
                dims.setdefault(stream, len(vec))
                if dims[stream] != len(vec):
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
                if type(label) is not int or not (
                        0 <= label < len(taxonomy.fine_classes)):
                    raise ManifestError(f"record {rid}: label {label} out of range")
            geo = None
            if "lon" in obj and "lat" in obj:
                try:
                    geo = GeoPoint(lon=obj["lon"], lat=obj["lat"])
                except (ValueError, TypeError):
                    raise ManifestError(f"record {rid}: bad coordinates"
                                        f" ({obj['lon']!r}, {obj['lat']!r})") from None
            records.append(ImageRecord(
                id=rid, domain=domain, features=features, geo=geo, label=label))
    return records


# ---------------------------------------------------------------------------
# stratified batches of records


def oracle_stratified_batches(records, batch_size, domain_ratio, seed):
    """Batches as tuples of records: per-domain pools of records, each
    reshuffled from a copy whenever it runs short, A before B in a batch.
    A batch that needs a domain the records lack, or records too few for
    one full batch, raise ``ValueError``."""
    n_a = int(round(batch_size * domain_ratio))
    n_b = batch_size - n_a
    pools = {DOMAIN_A: [r for r in records if r.domain == DOMAIN_A],
             DOMAIN_B: [r for r in records if r.domain == DOMAIN_B]}
    if (n_a and not pools[DOMAIN_A]) or (n_b and not pools[DOMAIN_B]):
        raise ValueError("a batch needs a domain the records lack")
    n_batches = max(len(pools[DOMAIN_A]) // n_a if n_a else 0,
                    len(pools[DOMAIN_B]) // n_b if n_b else 0)
    if not n_batches:
        raise ValueError("no full batch")
    rng = random.Random(seed)
    queues = {DOMAIN_A: [], DOMAIN_B: []}

    def draw(domain, k):
        while len(queues[domain]) < k:
            fresh = pools[domain][:]
            rng.shuffle(fresh)
            queues[domain].extend(fresh)
        take, queues[domain] = queues[domain][:k], queues[domain][k:]
        return take

    return [tuple((draw(DOMAIN_A, n_a) if n_a else [])
                  + (draw(DOMAIN_B, n_b) if n_b else []))
            for _ in range(n_batches)]


# ---------------------------------------------------------------------------
# numerical gradients


def finite_difference_grads(model, X, y, weights, step=1e-6):
    """Central-difference gradients of the batch loss in every parameter."""

    def loss_at():
        return loss_grad(model, X, y, weights)[0]

    gW = np.zeros_like(model.W)
    for i in range(model.n):
        for j in range(model.D):
            orig = model.W[i, j]
            model.W[i, j] = orig + step
            up = loss_at()
            model.W[i, j] = orig - step
            down = loss_at()
            model.W[i, j] = orig
            gW[i, j] = (up - down) / (2 * step)
    gb = np.zeros_like(model.b)
    for i in range(model.n):
        orig = model.b[i]
        model.b[i] = orig + step
        up = loss_at()
        model.b[i] = orig - step
        down = loss_at()
        model.b[i] = orig
        gb[i] = (up - down) / (2 * step)
    return gW, gb
