"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms than the library code: the
containment oracle accumulates a winding number edge by edge instead of
counting ray crossings, the assignment oracle tests every image against
every parcel instead of prefiltering by bounding box, the ring oracle tests
every pair of edges instead of sweeping over their boxes, and the gradient
oracle differentiates the loss numerically. Keep them slow and obvious: an
oracle that shares the library's shortcut would share its bugs too.
"""

import math
import random

import numpy as np

from landuse.classifier import loss_grad
from landuse.geodata import (Parcel, _segments_cross, boundary_distance_m,
                             contains)


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
# numerical gradients


def finite_difference_grads(model, batch, weights, step=1e-6):
    """Central-difference gradients of the batch loss in every parameter."""

    def loss_at():
        return loss_grad(model, batch, weights)[0]

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
