"""Parcel polygons, point-in-polygon tests and geo-filtering.

Parcels come in as GeoJSON (RFC 7946 Polygon/MultiPolygon subset) with an
optional ``landuse`` property listing ground-truth class names. Geotagged
records are assigned to parcels by even-odd containment, falling back to a
metric boundary buffer (default 5 m) to tolerate geotag error. Metric
distances use a local equirectangular frame, which is accurate to well
under the buffer size at city-block scale.

Assignment prefilters parcels by bounding box. Each point runs the exact
containment test only on parcels whose box holds it, and the exact distance
test only on parcels whose box, padded by the buffer, holds it. The pad is
the buffer in degrees at the box-centre latitude of the parcel's own
distance frame, widened by a small relative slack, so that rounding can
only add candidates and the result equals the all-pairs one. The padded
boxes are indexed in a uniform grid, so a point tests only the boxes of
its own cell and the few boxes too large for the grid: on a city of
parcels of similar size, the cost per point does not grow with the
number of parcels. Rings are validated by a sweep over their edges'
boxes; see ``_validate_ring``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
import orjson

from .entry import classes_sha256, read_entry, write_entry
from .taxonomy import Taxonomy

#: meters per degree of latitude in the local planar frame
METERS_PER_DEGREE = 111320.0

DEFAULT_DILATION_M = 5.0

#: relative widening of the buffer pad, far above float rounding error
_PAD_SLACK = 1e-9

#: a box spanning this many grid cells along an axis is not indexed
_GRID_MAX_SPAN = 8

#: the smallest grid cell in degrees (about 0.1 mm); it keeps a point's
#: cell finite, since a longitude over it is at most 1.8e11
_GRID_MIN_CELL = 1e-9

#: orjson reads an integer literal past 64 bits as a float, which is at
#: least this large in magnitude
_INT64_BOUND = 2.0 ** 63


class GeoJSONParseError(ValueError):
    pass


class JSONLinesError(ValueError):
    pass


class ParcelValidationError(ValueError):
    pass


@dataclass(frozen=True)
class GeoPoint:
    lon: float
    lat: float

    def __post_init__(self):
        check_position(self.lon, self.lat)


def check_position(lon, lat) -> None:
    """The one rule for a geotag or a parcel vertex: a WGS 84 longitude in
    [-180, 180] and latitude in [-90, 90] (RFC 7946 §4). A boolean or a
    non-number raises TypeError, anything else out of range ValueError."""
    if isinstance(lon, bool) or isinstance(lat, bool):
        raise TypeError(f"boolean coordinate ({lon}, {lat})")
    if -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0:
        return
    if lon != lon or lat != lat or math.inf in (abs(lon), abs(lat)):
        raise ValueError(f"non-finite coordinate ({lon}, {lat})")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} out of range [-180, 180]")
    raise ValueError(f"latitude {lat} out of range [-90, 90]")


@dataclass(frozen=True)
class Parcel:
    """A ground polygon: one exterior ring plus optional hole rings, each a
    closed (lon, lat) vertex sequence, with a (possibly empty) set of
    ground-truth fine class indices."""

    id: str
    rings: tuple[tuple[tuple[float, float], ...], ...]
    truth: frozenset[int] = frozenset()

    def __post_init__(self):
        if not self.rings:
            raise ParcelValidationError(f"parcel {self.id}: no rings")
        for ring in self.rings:
            _validate_ring(self.id, ring)

    @classmethod
    def _trusted(cls, id: str, rings, truth: frozenset[int]) -> "Parcel":
        """A parcel built without validation, from parts that were validated
        when the same input was parsed; see ``read_parcel_entry``."""
        parcel = object.__new__(cls)
        object.__setattr__(parcel, "id", id)
        object.__setattr__(parcel, "rings", rings)
        object.__setattr__(parcel, "truth", truth)
        return parcel


@dataclass(frozen=True)
class Assignment:
    """One geotagged image matched to one or more parcels.

    ``modes`` maps parcel id to ``"inside"`` (containment hit) or
    ``"dilated"`` (within the boundary buffer)."""

    image_id: str
    modes: dict[str, str] = field(hash=False)

    @property
    def parcel_ids(self):
        return frozenset(self.modes)

    def pairs(self):
        for parcel_id in sorted(self.modes):
            yield parcel_id, self.modes[parcel_id]


# ---------------------------------------------------------------------------
# ring validation


def _validate_ring(parcel_id: str, ring) -> None:
    """Check that a ring is finite, closed and simple.

    Simplicity is tested by sweep-and-prune (after Shamos & Hoey): the
    edges are visited by min x, and each is tested only against the
    earlier edges whose x-range still reaches it and whose y-range meets
    its own, comparisons inclusive, since segments with disjoint boxes
    cannot touch. The cost is one sort plus the edges that overlap the
    sweep at each step, about linear for star-shaped and grid rings; a
    ring whose edges all overlap costs the n²/2 pairs of the all-pairs
    check, never more. Of the crossing pairs, the lowest ``(i, j)`` is
    reported. Two edges whose boxes are apart are never tested, so
    rounding in ``_orient`` cannot call them crossing.
    """
    try:
        finite = all(map(math.isfinite, chain.from_iterable(ring)))
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ParcelValidationError(f"parcel {parcel_id}: non-finite vertex")
    if len(ring) < 4 or ring[0] != ring[-1]:
        raise ParcelValidationError(
            f"parcel {parcel_id}: ring must be closed (first vertex == last)"
            f" with >= 3 distinct vertices")
    if len(set(ring[:-1])) < 3:
        raise ParcelValidationError(
            f"parcel {parcel_id}: ring has fewer than 3 distinct vertices")
    segs = list(zip(ring, ring[1:]))
    n = len(segs)
    # (min x, max x, min y, max y, index), in sweep order
    edges = sorted(
        (ax if ax < bx else bx, bx if ax < bx else ax,
         ay if ay < by else by, by if ay < by else ay, k)
        for k, ((ax, ay), (bx, by)) in enumerate(segs))
    first = None
    active = []
    for edge in edges:
        x0, _, y0, y1, k = edge
        still = []
        for other in active:
            if other[1] < x0:
                continue  # left behind by the sweep for good
            still.append(other)
            if other[2] > y1 or y0 > other[3]:
                continue
            i, j = sorted((other[4], k))
            # consecutive segments share a vertex by construction
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if (first is None or (i, j) < first) and _segments_cross(segs[i], segs[j]):
                first = (i, j)
        still.append(edge)
        active = still
    if first is not None:
        raise ParcelValidationError(
            f"parcel {parcel_id}: self-intersecting ring"
            f" (segments {first[0]} and {first[1]})")


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(s1, s2) -> bool:
    (a, b), (c, d) = s1, s2
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    # collinear overlap counts as self-intersection too
    if d1 == d2 == d3 == d4 == 0:
        for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)):
            if _on_segment_collinear(p, q, r):
                return True
    return False


def _on_segment_collinear(a, b, p) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
            and p != a and p != b)


# ---------------------------------------------------------------------------
# GeoJSON parsing


def parse_parcels(document: str | bytes, taxonomy: Taxonomy) -> list[Parcel]:
    """Parse a GeoJSON FeatureCollection, given as text or UTF-8 bytes,
    into parcels.

    MultiPolygon features are split into one parcel per member polygon,
    named ``<id>#<k>``. A ``landuse`` value that is not a list of strings,
    unknown class names and repeated parcel ids raise instead of being
    silently dropped. Every position must pass ``check_position``, so a
    file in projected coordinates is refused, naming the feature, ring
    and position.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as e:
            raise GeoJSONParseError(
                f"not UTF-8 at byte offset {e.start}: {e.reason}") from None
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise GeoJSONParseError(
            f"malformed GeoJSON at byte offset {e.pos}: {e.msg}") from None
    except ValueError as e:  # an integer literal of too many digits
        raise GeoJSONParseError(f"malformed GeoJSON: {e}") from None
    except RecursionError:
        raise GeoJSONParseError("malformed GeoJSON: nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise GeoJSONParseError("expected a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise GeoJSONParseError(
            f"features must be a list, got {type(features).__name__}")

    parcels = []
    seen = set()
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise GeoJSONParseError(
                f"feature {i} must be an object, got {type(feature).__name__}")
        props = _member_object(feature, "properties",
                               feature.get("id", f"feature{i}"))
        fid = str(feature.get("id", props.get("id", f"feature{i}")))
        landuse = props.get("landuse", [])
        if not (isinstance(landuse, list)
                and all(isinstance(name, str) for name in landuse)):
            raise GeoJSONParseError(
                f"feature {fid}: landuse must be a list of class names,"
                f" got {type(landuse).__name__}")
        truth = frozenset(taxonomy.index(name) for name in landuse)
        geom = _member_object(feature, "geometry", fid)
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise GeoJSONParseError(
                f"feature {fid}: unsupported geometry type {gtype!r}")
        coords = geom.get("coordinates")
        polys = [coords] if gtype == "Polygon" else coords
        if not _nested_lists(polys, 3):
            what = "rings of positions" if gtype == "Polygon" else "polygons"
            raise GeoJSONParseError(
                f"feature {fid}: {gtype} coordinates must be a list of {what},"
                f" got {coords!r:.60}")
        ids = [fid] if gtype == "Polygon" else [
            f"{fid}#{k}" for k in range(len(polys))]
        for pid, rings in zip(ids, polys):
            if pid in seen:
                raise ParcelValidationError(f"duplicate parcel id {pid!r}")
            seen.add(pid)
            rings = tuple(tuple(map(tuple, ring)) for ring in rings)
            for r, ring in enumerate(rings):
                for k, v in enumerate(ring):
                    try:
                        check_position(*v)
                    except TypeError:  # not two numbers, or not two at all
                        raise GeoJSONParseError(
                            f"feature {fid}: position {list(v)} is not"
                            f" [lon, lat]") from None
                    except ValueError as e:
                        raise GeoJSONParseError(
                            f"feature {pid}: ring {r}, position {k}: {e}") from None
            parcels.append(Parcel(id=pid, rings=rings, truth=truth))
    return parcels


def _nested_lists(value, depth: int) -> bool:
    """Whether ``value`` is a list whose members are such lists
    ``depth`` levels down."""
    return isinstance(value, list) and (
        depth == 0 or all(_nested_lists(v, depth - 1) for v in value))


def _member_object(feature: dict, key: str, fid: str) -> dict:
    """A feature's ``properties`` or ``geometry``: an object, or ``{}``
    where it is absent or null."""
    value = feature.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise GeoJSONParseError(
            f"feature {fid}: {key} must be an object, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# parcel entry
#
# A parcel entry holds the parcels of one GeoJSON file as the items of
# ``entry``: the key (the sha256 of the GeoJSON bytes and of the taxonomy's
# fine-class list), the ids, the rings and truth classes of each parcel,
# the vertices of each ring, the truth class indices in the order each set
# iterates, the lon and lat of each vertex, and a flag per coordinate, set
# where it was a JSON integer. Integers are kept as integers, as
# ``export_map`` writes them back; a parsed coordinate is in range, so a
# float holds it exactly. The entry holds no path, so equal inputs give
# equal entries in any directory. PARCEL_ENTRY_VERSION changes whenever
# the items or the parse do.

PARCEL_ENTRY_MAGIC = b"LUPAR"
PARCEL_ENTRY_VERSION = 3


def _parcel_key(data: bytes, taxonomy: Taxonomy) -> bytes:
    return hashlib.sha256(data).digest() + classes_sha256(taxonomy)


def read_parcel_entry(entry, data: bytes, taxonomy: Taxonomy) -> list[Parcel] | None:
    """The parcels that ``parse_parcels(data, taxonomy)`` gives, as held by
    the parcel entry ``entry``, or None.

    None is a miss: no readable entry, one that is cut short, garbled or
    extended, one whose counts disagree with its items, or one keyed by
    other GeoJSON bytes or another taxonomy. A hit neither decodes JSON nor
    validates rings: they were validated when the entry was written from
    the same bytes.
    """
    items = read_entry(entry, PARCEL_ENTRY_MAGIC, PARCEL_ENTRY_VERSION)
    if items is None or len(items) != 8:
        return None
    key, ids, rings_per, truth_per, vertices_per, classes, coords, is_int = items
    if key.tobytes() != _parcel_key(data, taxonomy):
        return None
    rings_per, truth_per = rings_per.tolist(), truth_per.tolist()
    vertices_per = vertices_per.tolist()
    if (len(rings_per) != len(ids) or len(truth_per) != len(ids)
            or sum(rings_per) != len(vertices_per)
            or sum(truth_per) != len(classes)
            or not 2 * sum(vertices_per) == len(coords) == len(is_int)):
        return None
    coords = coords.tolist()
    for k in np.flatnonzero(is_int).tolist():
        coords[k] = int(coords[k])
    xy = iter(coords)
    vertices = iter(list(zip(xy, xy)))
    rings = iter([tuple(islice(vertices, m)) for m in vertices_per])
    truths = iter(classes.tolist())
    return [Parcel._trusted(pid, tuple(islice(rings, r)),
                            frozenset(islice(truths, t)))
            for pid, r, t in zip(ids, rings_per, truth_per)]


def write_parcel_entry(entry, data: bytes, taxonomy: Taxonomy,
                       parcels: list[Parcel]) -> None:
    """Write the parcel entry for the parcels ``data`` parsed into. If the
    entry cannot be written, it misses next time, which costs a parse and
    nothing else."""
    rings = [ring for p in parcels for ring in p.rings]
    coords = list(chain.from_iterable(chain.from_iterable(rings)))
    is_int = [type(c) is int for c in coords]
    counts = ([len(p.rings) for p in parcels], [len(p.truth) for p in parcels],
              [len(ring) for ring in rings],
              [c for p in parcels for c in p.truth])
    write_entry(entry, PARCEL_ENTRY_MAGIC, PARCEL_ENTRY_VERSION, [
        np.frombuffer(_parcel_key(data, taxonomy), dtype="u1"),
        [p.id for p in parcels], *(np.array(c, dtype="<u4") for c in counts),
        np.array(coords, dtype="<f8"), np.array(is_int, dtype="?")])


# ---------------------------------------------------------------------------
# containment


def contains(parcel: Parcel, p: GeoPoint) -> bool:
    """Even-odd containment in lon/lat space. Points exactly on any ring
    edge count as inside; points inside holes do not.

    One pass over each ring, carrying the previous vertex. An edge whose
    y-range misses the point can neither hold it nor cross its ray, so
    only the edges whose y-range holds it run the edge and crossing tests.
    """
    x, y = p.lon, p.lat
    inside = False
    for ring in parcel.rings:
        x1, y1 = ring[0]
        for x2, y2 in islice(ring, 1, None):
            if y1 <= y <= y2 or y2 <= y <= y1:
                if ((x1 <= x <= x2 or x2 <= x <= x1)
                        and (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)):
                    return True
                if ((y1 > y) != (y2 > y)
                        and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1)):
                    inside = not inside
            x1, y1 = x2, y2
    return inside


# ---------------------------------------------------------------------------
# metric distance


def _bbox(parcel: Parcel):
    """(min lon, min lat, max lon, max lat) over all rings."""
    xs = [v[0] for ring in parcel.rings for v in ring]
    ys = [v[1] for ring in parcel.rings for v in ring]
    return min(xs), min(ys), max(xs), max(ys)


def _check_planar(p: GeoPoint) -> None:
    if abs(p.lat) >= 85.0:
        raise ValueError(f"latitude {p.lat} too close to the poles for the planar frame")


def boundary_distance_m(parcel: Parcel, p: GeoPoint, box=None) -> float:
    """Minimum distance in meters from a point to the parcel boundary,
    in a planar frame centered on its bounding box ``box`` (or ``_bbox``).

    One pass over each ring converts each vertex to the frame once and
    carries it to the next edge; a degenerate edge (two equal vertices)
    is skipped. The clamp of the projection onto an edge and the running
    minimum are written as conditionals: ``min(1.0, t)`` is
    ``t if t < 1.0 else 1.0``, NaN included."""
    _check_planar(p)
    x0, y0, x1, y1 = _bbox(parcel) if box is None else box
    lon0 = (x0 + x1) / 2.0
    lat0 = (y0 + y1) / 2.0
    coslat = math.cos(math.radians(lat0))
    px = (p.lon - lon0) * coslat * METERS_PER_DEGREE
    py = (p.lat - lat0) * METERS_PER_DEGREE
    best = math.inf
    for ring in parcel.rings:
        lon1, lat1 = ring[0]
        ax = (lon1 - lon0) * coslat * METERS_PER_DEGREE
        ay = (lat1 - lat0) * METERS_PER_DEGREE
        for lon2, lat2 in islice(ring, 1, None):
            bx = (lon2 - lon0) * coslat * METERS_PER_DEGREE
            by = (lat2 - lat0) * METERS_PER_DEGREE
            if lon2 != lon1 or lat2 != lat1:
                dx, dy = bx - ax, by - ay
                t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
                t = t if t < 1.0 else 1.0
                t = t if t > 0.0 else 0.0
                d = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
                best = d if d < best else best
            lon1, lat1, ax, ay = lon2, lat2, bx, by
    if best is math.inf:
        raise ValueError(f"parcel {parcel.id}: all edges are degenerate")
    return best


# ---------------------------------------------------------------------------
# assignment


def assign(records, parcels, dilation_m: float = DEFAULT_DILATION_M) -> list[Assignment]:
    """Assign geotagged records to parcels.

    Containment wins: a point inside one or more parcels is assigned to all
    of them. Only points inside no parcel are matched against the dilated
    boundaries. Records matching nothing are dropped. Output is sorted by
    image id and independent of parcel list order; each record's parcels
    are in parcel list order.
    """
    if not (math.isfinite(dilation_m) and dilation_m >= 0):
        raise ValueError(f"dilation_m must be finite and >= 0, got {dilation_m}")
    boxes, padded, grid, bboxes = _parcel_index(parcels, dilation_m)
    x0, y0, x1, y1 = boxes
    dx0, dy0, dx1, dy1 = padded
    cell_w, cell_h, cells, large = grid
    ids = [pc.id for pc in parcels]
    out = []
    for image_id, point in records:
        x, y = point.lon, point.lat
        near = cells.get((math.floor(x / cell_w), math.floor(y / cell_h)), ())
        if large:
            near = sorted([*near, *large])
        modes = {ids[k]: "inside" for k in near
                 if x0[k] <= x <= x1[k] and y0[k] <= y <= y1[k]
                 and contains(parcels[k], point)}
        if not modes and parcels:
            _check_planar(point)
            modes = {ids[k]: "dilated" for k in near
                     if dx0[k] <= x <= dx1[k] and dy0[k] <= y <= dy1[k]
                     and boundary_distance_m(parcels[k], point, bboxes[k])
                     <= dilation_m}
        if modes:
            out.append(Assignment(image_id=image_id, modes=modes))
    out.sort(key=lambda a: a.image_id)
    return out


def _parcel_index(parcels, dilation_m: float):
    """The boxes of ``parcels`` and their boxes padded by the buffer, each
    as four lists of floats (min lon, min lat, max lon, max lat), the grid
    over them that ``_grid_index`` builds, and each parcel's ``_bbox``."""
    bboxes = [_bbox(pc) for pc in parcels]
    boxes = np.array(bboxes, dtype=np.float64)
    x0, y0, x1, y1 = boxes.reshape(-1, 4).T.copy()
    # buffer in degrees, in the frame boundary_distance_m measures in
    pad_lat = dilation_m / METERS_PER_DEGREE * (1.0 + _PAD_SLACK)
    pad_lon = pad_lat / np.cos(np.radians((y0 + y1) / 2.0))
    dx0, dx1 = x0 - pad_lon, x1 + pad_lon
    dy0, dy1 = y0 - pad_lat, y1 + pad_lat
    # the grid holds each padded box, and the box itself where a box centre
    # past 90 degrees latitude makes the pad negative
    grid = _grid_index(np.fmin(x0, dx0).tolist(), dy0.tolist(),
                       np.fmax(x1, dx1).tolist(), dy1.tolist())
    return ([a.tolist() for a in (x0, y0, x1, y1)],
            [a.tolist() for a in (dx0, dy0, dx1, dy1)], grid, bboxes)


def _grid_index(lo_x, lo_y, hi_x, hi_y):
    """A uniform grid over boxes: (cell width, cell height, the box indices
    meeting each cell, the indices of boxes too large for the grid).

    A cell is the median box: the median width by the median height, each
    taken from a sorted list. Cell ``(i, j)`` holds the points with
    ``floor(x / cell width) == i`` and ``floor(y / cell height) == j``.
    Rounded division and ``floor`` are both monotone, so a point inside a
    box lies in one of the cells that box meets, and probing the point's
    cell alone finds every box that holds it. A box spanning
    ``_GRID_MAX_SPAN`` cells or more along an axis (or an infinite one) is
    not indexed: every probe checks it. All index lists are ascending.
    """
    cell_w = _median_cell([b - a for a, b in zip(lo_x, hi_x)])
    cell_h = _median_cell([b - a for a, b in zip(lo_y, hi_y)])
    cells: dict[tuple[int, int], list[int]] = {}
    large = []
    for k, (ax, ay, bx, by) in enumerate(zip(lo_x, lo_y, hi_x, hi_y)):
        i0, i1, j0, j1 = ax / cell_w, bx / cell_w, ay / cell_h, by / cell_h
        # NaN and infinities fail this test, so the floors below are finite
        if not (i1 - i0 < _GRID_MAX_SPAN and j1 - j0 < _GRID_MAX_SPAN):
            large.append(k)
            continue
        for i in range(math.floor(i0), math.floor(i1) + 1):
            for j in range(math.floor(j0), math.floor(j1) + 1):
                cells.setdefault((i, j), []).append(k)
    return cell_w, cell_h, cells, large


def _median_cell(sizes: list[float]) -> float:
    """The median of box sizes (each from 0 to inf) by a sorted list, the
    upper one of an even count, and at least ``_GRID_MIN_CELL``. Any
    positive cell gives the same assignments; ``np.median`` would import
    ``numpy.ma`` into every stage process."""
    if not sizes:
        return 1.0
    return max(sorted(sizes)[len(sizes) // 2], _GRID_MIN_CELL)


def assignments_to_jsonl(assignments) -> bytes:
    """One JSON object per (image, parcel) pair, a line each."""
    return b"".join(encode_json({"image": a.image_id, "parcel": parcel_id,
                                 "mode": mode}) + b"\n"
                    for a in assignments for parcel_id, mode in a.pairs())


# ---------------------------------------------------------------------------
# JSON text: every JSON artifact is written by ``encode_json`` and read
# back by ``decode_json``.


#: the starts of orjson's messages for the values it refuses that json
#: writes: an integer past 64 bits and a string with a lone surrogate
_JSON_FALLBACK = ("Integer exceeds 64-bit range", "str is not valid UTF-8")


def encode_json(value, indent: bool = False) -> bytes:
    """orjson's UTF-8 text of ``value``, indented by two spaces if
    ``indent``, compact otherwise; numpy arrays are written as lists.

    A value holding an integer past 64 bits or a string with a lone
    surrogate, which orjson refuses, is written by ``json.dumps`` with
    orjson's separators; it escapes every non-ASCII character. Any other
    value orjson refuses (a key that is not a string, a value nested past
    255 containers) raises its ``JSONEncodeError``, a ``TypeError``. A
    non-finite float is written as ``null``, so no caller may hand one in.
    """
    try:
        return orjson.dumps(value, default=np.ndarray.tolist,
                            option=orjson.OPT_SERIALIZE_NUMPY
                            | (orjson.OPT_INDENT_2 if indent else 0))
    except orjson.JSONEncodeError as e:
        if not str(e).startswith(_JSON_FALLBACK):
            raise
    return json.dumps(value, indent=2 if indent else None,
                      separators=(",", ": " if indent else ":"),
                      default=np.ndarray.tolist).encode()


def decode_json(line):
    """``json.loads`` of one JSON text, given as ``str`` or UTF-8 ``bytes``,
    decoded by orjson wherever that gives the same object.

    json decodes the text instead when orjson rejects it, which keeps
    json's ``NaN`` and ``Infinity``, its infinities for floats out of
    range, lone surrogates and its error messages; bytes that are not
    UTF-8 then raise ``UnicodeDecodeError``. json also decodes it when the
    document, or a value directly inside it, comes back as a float of
    magnitude 2**63 or more, as orjson gives an integer literal past 64
    bits. Such a literal nested deeper stays the float nearest to it, the
    value a float64 array holds for it either way. orjson also reads texts
    nested deeper than json's recursion allows. A text that neither reads
    for its depth raises ``json.JSONDecodeError`` ("nested too deeply"),
    where ``json.loads`` raises ``RecursionError``. These are the two ways
    the result differs from ``json.loads``.
    """
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    else:
        if type(obj) is dict:
            members = obj.values()
        elif type(obj) is list:
            members = obj
        else:
            members = (obj,)
        if float not in map(type, members) or not any(
                type(v) is float and abs(v) >= _INT64_BOUND for v in members):
            return obj
    text = line if isinstance(line, str) else line.decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def jsonl_rows(lines, source):
    """(line number, row) for each row of JSON lines: the lines of a file
    opened in binary, or a ``str``, which is read as its UTF-8 bytes. A row
    is an object on a non-blank line, except the provenance header, which
    is an object whose one key is ``provenance``. Lines end at a line feed
    only: other Unicode line ends, such as U+2028, may stand raw inside a
    JSON string. A blank line is one ``bytes.strip`` empties, so only ASCII
    whitespace is blank. A line that is not UTF-8 (as a ``str`` holding a
    lone surrogate is not), not JSON (a cut last line, or an integer
    literal past ``json``'s digit limit, say), or JSON but not an object
    raises ``JSONLinesError`` naming ``source`` and the line."""
    if isinstance(lines, str):
        lines = lines.encode("utf-8", "surrogatepass").split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = decode_json(line)
        except json.JSONDecodeError as e:
            raise JSONLinesError(f"{source}:{lineno}: bad JSON: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise JSONLinesError(
                f"{source}:{lineno}: not UTF-8: {e.reason}") from None
        except ValueError as e:  # an integer literal of too many digits
            raise JSONLinesError(f"{source}:{lineno}: bad JSON: {e}") from None
        if not isinstance(obj, dict):
            raise JSONLinesError(f"{source}:{lineno}: expected a JSON object,"
                                 f" got {type(obj).__name__}")
        if len(obj) != 1 or "provenance" not in obj:
            yield lineno, obj


def assignments_from_jsonl(lines, source, parcel_ids) -> list[Assignment]:
    """The assignments in JSON lines, read by ``jsonl_rows``; a pair of
    image and parcel given twice, or a parcel not in ``parcel_ids``,
    raises ``JSONLinesError``."""
    by_image: dict[str, dict[str, str]] = {}
    for lineno, obj in jsonl_rows(lines, source):
        image = jsonl_value(obj, "image", str, source, lineno)
        parcel = jsonl_value(obj, "parcel", str, source, lineno)
        mode = jsonl_value(obj, "mode", None, source, lineno)
        if mode not in ("inside", "dilated"):
            raise JSONLinesError(f"{source}:{lineno}: mode must be 'inside' or"
                                 f" 'dilated', got {mode!r}")
        modes = by_image.setdefault(image, {})
        if parcel in modes:
            raise JSONLinesError(f"{source}:{lineno}: repeated pair of image"
                                 f" {image} and parcel {parcel}")
        if parcel not in parcel_ids:
            raise JSONLinesError(f"{source}:{lineno}: image {image}:"
                                 f" unknown parcel {parcel}")
        modes[parcel] = mode
    return [Assignment(image_id=i, modes=m) for i, m in by_image.items()]


def jsonl_value(obj: dict, key: str, kind: type | None, source, lineno: int):
    """``obj[key]`` of a JSON-lines row: an image or parcel id if ``kind``
    is ``str``, a class index if it is ``int``, anything if it is None. A
    row lacking the key, or holding another type there, raises
    ``JSONLinesError`` naming ``source`` and the line."""
    if key not in obj:
        raise JSONLinesError(f"{source}:{lineno}: row lacks {key!r}")
    value = obj[key]
    if kind is not None and type(value) is not kind:
        what = "a string" if kind is str else "a class index"
        raise JSONLinesError(f"{source}:{lineno}: {key} must be {what},"
                             f" got {type(value).__name__}")
    return value
