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
only add candidates and the result equals the all-pairs one.

Ring validation finds self-intersections by sweep-and-prune over the edges'
bounding boxes: sorted by min x, each edge is tested only against earlier
edges whose boxes still overlap its own. That is about linear in the
number of edges for parcel-like rings, and never more pairs than the
all-pairs check, since the candidates are a subset of all pairs.
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

#: orjson reads an integer literal past 64 bits as a float, which is at
#: least this large in magnitude
_INT64_BOUND = 2.0 ** 63

#: orjson writes a nonzero float as ``repr`` does, and so as json does,
#: only at magnitudes in [_PLAIN_FLOAT_MIN, _PLAIN_FLOAT_MAX): outside them
#: ``repr`` writes ``1e-05`` and ``1e+16`` where orjson writes ``0.00001``
#: and ``1e16``
_PLAIN_FLOAT_MIN = 1e-4
_PLAIN_FLOAT_MAX = 1e16

#: the integers orjson writes; past them it raises
_ORJSON_INT_MIN = -2 ** 63
_ORJSON_INT_END = 2 ** 64

#: containers orjson writes nested at most this deep; past it it raises
_ORJSON_DEPTH = 255


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
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValueError(f"non-finite coordinate ({self.lon}, {self.lat})")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range [-90, 90]")


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

    @property
    def exterior(self):
        return self.rings[0]

    @property
    def holes(self):
        return self.rings[1:]


@dataclass(frozen=True)
class Assignment:
    """One geotagged image matched to one or more parcels.

    ``modes`` maps parcel id to ``"inside"`` (containment hit) or
    ``"dilated"`` (within the boundary buffer)."""

    image_id: str
    modes: dict[str, str] = field(compare=False)

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
    if not all(map(math.isfinite, chain.from_iterable(ring))):
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
    silently dropped.
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
                    if not _is_position(v):
                        raise GeoJSONParseError(
                            f"feature {fid}: position {list(v)} is not [lon, lat]")
                    if not _fits_float(v):
                        raise GeoJSONParseError(
                            f"feature {pid}: ring {r}, position {k} has a"
                            f" coordinate past the float range")
            parcels.append(Parcel(id=pid, rings=rings, truth=truth))
    return parcels


def _nested_lists(value, depth: int) -> bool:
    """Whether ``value`` is a list whose members are such lists
    ``depth`` levels down."""
    return isinstance(value, list) and (
        depth == 0 or all(_nested_lists(v, depth - 1) for v in value))


def _is_position(v: tuple) -> bool:
    """Two JSON numbers; ``true`` and ``false`` are not numbers."""
    return len(v) == 2 and all(type(c) in (int, float) for c in v)


def _fits_float(v: tuple) -> bool:
    """Whether each number of ``v`` converts to a float; a JSON integer
    can be too large for one."""
    try:
        float(v[0]), float(v[1])
    except OverflowError:
        return False
    return True


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


def parcel_geometry(parcel: Parcel) -> dict:
    """GeoJSON geometry dict for a parcel (always a Polygon)."""
    return {
        "type": "Polygon",
        "coordinates": [[list(v) for v in ring] for ring in parcel.rings],
    }


# ---------------------------------------------------------------------------
# parcel entry
#
# A parcel entry holds the parcels of one GeoJSON file as the items of
# ``entry``: the key (the sha256 of the GeoJSON bytes and of the taxonomy's
# fine-class list), the ids, the rings and truth classes of each parcel,
# the vertices of each ring, the truth class indices in the order each set
# iterates, the lon and lat of each vertex, and a flag per coordinate, set
# where it was a JSON integer. Integers are kept as integers, as
# ``export_map`` writes them back. A file with an integer coordinate that a
# float cannot hold exactly gets no entry. The entry holds no path, so
# equal inputs give equal entries in any directory. PARCEL_ENTRY_VERSION
# changes whenever the items or the parse do.

PARCEL_ENTRY_MAGIC = b"LUPAR"
PARCEL_ENTRY_VERSION = 2

#: integers a float64 holds exactly, and so the entry
_EXACT_INT = 2 ** 53


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
    """Write the parcel entry for the parcels ``data`` parsed into. Nothing
    is written if a coordinate is an integer past 2**53, or if the entry
    cannot be written: the entry then misses next time, which costs a parse
    and nothing else."""
    rings = [ring for p in parcels for ring in p.rings]
    coords = list(chain.from_iterable(chain.from_iterable(rings)))
    is_int = [type(c) is int for c in coords]
    if any(flag and abs(c) > _EXACT_INT for flag, c in zip(is_int, coords)):
        return
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
    edge count as inside; points inside holes do not."""
    x, y = p.lon, p.lat
    inside = False
    for ring in parcel.rings:
        for i in range(len(ring) - 1):
            (x1, y1), (x2, y2) = ring[i], ring[i + 1]
            if (min(x1, x2) <= x <= max(x1, x2)
                    and min(y1, y2) <= y <= max(y1, y2)
                    and (x2 - x1) * (y - y1) == (y2 - y1) * (x - x1)):
                return True
            if (y1 > y) != (y2 > y):
                xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xcross:
                    inside = not inside
    return inside


# ---------------------------------------------------------------------------
# metric distance


def _bbox(parcel: Parcel):
    """(min lon, min lat, max lon, max lat) over all rings."""
    xs = [v[0] for ring in parcel.rings for v in ring]
    ys = [v[1] for ring in parcel.rings for v in ring]
    return min(xs), min(ys), max(xs), max(ys)


def _local_frame(parcel: Parcel):
    x0, y0, x1, y1 = _bbox(parcel)
    lon0 = (x0 + x1) / 2.0
    lat0 = (y0 + y1) / 2.0
    return lon0, lat0, math.cos(math.radians(lat0))


def _check_planar(p: GeoPoint) -> None:
    if abs(p.lat) >= 85.0:
        raise ValueError(f"latitude {p.lat} too close to the poles for the planar frame")


def boundary_distance_m(parcel: Parcel, p: GeoPoint) -> float:
    """Minimum distance in meters from a point to the parcel boundary,
    measured in a planar frame centered on the parcel's bounding box."""
    _check_planar(p)
    lon0, lat0, coslat = _local_frame(parcel)

    def to_xy(lon, lat):
        return ((lon - lon0) * coslat * METERS_PER_DEGREE,
                (lat - lat0) * METERS_PER_DEGREE)

    px, py = to_xy(p.lon, p.lat)
    best = math.inf
    for ring in parcel.rings:
        for i in range(len(ring) - 1):
            if ring[i] == ring[i + 1]:
                continue  # degenerate edge
            ax, ay = to_xy(*ring[i])
            bx, by = to_xy(*ring[i + 1])
            best = min(best, _point_segment_distance(px, py, ax, ay, bx, by))
    if best is math.inf:
        raise ValueError(f"parcel {parcel.id}: all edges are degenerate")
    return best


def _point_segment_distance(px, py, ax, ay, bx, by) -> float:
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


# ---------------------------------------------------------------------------
# assignment


def assign(records, parcels, dilation_m: float = DEFAULT_DILATION_M) -> list[Assignment]:
    """Assign geotagged records to parcels.

    Containment wins: a point inside one or more parcels is assigned to all
    of them. Only points inside no parcel are matched against the dilated
    boundaries. Records matching nothing are dropped. Output is sorted by
    image id and independent of parcel list order.
    """
    if not (math.isfinite(dilation_m) and dilation_m >= 0):
        raise ValueError(f"dilation_m must be finite and >= 0, got {dilation_m}")
    boxes = np.array([_bbox(pc) for pc in parcels], dtype=np.float64)
    x0, y0, x1, y1 = boxes.reshape(-1, 4).T.copy()
    # buffer in degrees, in the frame boundary_distance_m measures in
    pad_lat = dilation_m / METERS_PER_DEGREE * (1.0 + _PAD_SLACK)
    pad_lon = pad_lat / np.cos(np.radians((y0 + y1) / 2.0))
    dx0, dx1 = x0 - pad_lon, x1 + pad_lon
    dy0, dy1 = y0 - pad_lat, y1 + pad_lat
    out = []
    for image_id, point in records:
        x, y = point.lon, point.lat
        hits = np.flatnonzero((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
        modes = {parcels[k].id: "inside" for k in hits.tolist()
                 if contains(parcels[k], point)}
        if not modes and parcels:
            _check_planar(point)
            near = np.flatnonzero((dx0 <= x) & (x <= dx1) & (dy0 <= y) & (y <= dy1))
            modes = {parcels[k].id: "dilated" for k in near.tolist()
                     if boundary_distance_m(parcels[k], point) <= dilation_m}
        if modes:
            out.append(Assignment(image_id=image_id, modes=modes))
    out.sort(key=lambda a: a.image_id)
    return out


def assignments_to_jsonl(assignments) -> str:
    """One JSON object per (image, parcel) pair."""
    lines = []
    for a in assignments:
        for parcel_id, mode in a.pairs():
            lines.append(json.dumps(
                {"image": a.image_id, "parcel": parcel_id, "mode": mode}))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# JSON text
#
# ``decode_json`` and ``encode_json`` are one contract: the program's JSON
# reader and its writer of indented JSON each give what the standard
# ``json`` module gives (``json.loads(text)``, ``json.dumps(value,
# indent=2)``). Each lets orjson do the work wherever orjson's result is
# known to be the same, and falls back to ``json`` for the rest; there is
# no option to choose. The writer is exact. The reader differs in the two
# ways its docstring names: an integer literal past 64 bits nested inside
# a value, and a text nested past json's recursion limit.


def encode_json(value) -> str:
    """``json.dumps(value, indent=2)``, written by orjson wherever that
    gives the same text.

    One walk over ``value`` decides. orjson writes the text if the walk
    finds only these exact types: ``dict`` with ``str`` keys, ``list``,
    ``tuple``, ``str``, ``int``, ``float``, ``bool`` and ``None``, nested
    in at most as many containers as orjson writes (255), and finds only
    values that orjson writes as json does:

    - strings and keys of ASCII without DEL; json escapes the rest under
      ``ensure_ascii``, and both escape control characters alike;
    - floats that are zero or of magnitude in [1e-4, 1e16), which both
      write as ``repr`` does; outside that range the notations differ,
      and orjson writes a non-finite float as ``null``;
    - integers in [-2**63, 2**64), past which orjson raises.

    json writes every other value, and any value orjson refuses, so json's
    text and exceptions hold: a circular value, where the walk stops at
    the depth bound, raises json's ``ValueError``.
    """
    if _orjson_writes_as_json(value, 0):
        try:
            return orjson.dumps(value, option=orjson.OPT_INDENT_2).decode()
        except orjson.JSONEncodeError:
            pass
    return json.dumps(value, indent=2)


def _orjson_writes_as_json(value, depth: int) -> bool:
    """Whether orjson writes ``value``, inside ``depth`` containers, as
    json does; see ``encode_json``."""
    kind = type(value)
    if kind is float:
        return (value == 0.0
                or _PLAIN_FLOAT_MIN <= abs(value) < _PLAIN_FLOAT_MAX)
    if kind is str:
        return value.isascii() and "\x7f" not in value
    if kind is int:
        return _ORJSON_INT_MIN <= value < _ORJSON_INT_END
    if kind is bool or value is None:
        return True
    if depth == _ORJSON_DEPTH:
        return False
    if kind is list or kind is tuple:
        members = value
    elif kind is dict:
        if not all(type(key) is str and key.isascii() and "\x7f" not in key
                   for key in value):
            return False
        members = value.values()
    else:
        return False
    for member in members:
        if not _orjson_writes_as_json(member, depth + 1):
            return False
    return True


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
        if not any(type(v) is float and abs(v) >= _INT64_BOUND for v in members):
            return obj
    text = line if isinstance(line, str) else line.decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def iter_jsonl(lines, source):
    """(line number, object) for each non-blank line of JSON lines: the
    lines of a file opened in binary, or a ``str``, which is read as its
    UTF-8 bytes. Lines end at a line feed only: other Unicode line ends,
    such as U+2028, may stand raw inside a JSON string. A blank line is
    one ``bytes.strip`` empties, so only ASCII whitespace is blank. A line
    that is not UTF-8 (as a ``str`` holding a lone surrogate is not), not
    JSON (a cut last line, say), or JSON but not an object raises
    ``JSONLinesError`` naming ``source`` and the line."""
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
        if not isinstance(obj, dict):
            raise JSONLinesError(f"{source}:{lineno}: expected a JSON object,"
                                 f" got {type(obj).__name__}")
        yield lineno, obj


def assignments_from_jsonl(lines, source="assignments") -> list[Assignment]:
    """The assignments in JSON lines, read by ``iter_jsonl``; a pair of
    image and parcel given twice raises ``JSONLinesError``."""
    by_image: dict[str, dict[str, str]] = {}
    order: list[str] = []
    for lineno, obj in iter_jsonl(lines, source):
        if "image" not in obj:
            continue  # provenance header line
        image = jsonl_id(obj, "image", source, lineno)
        parcel = jsonl_id(obj, "parcel", source, lineno)
        mode = jsonl_field(obj, "mode", source, lineno)
        if mode not in ("inside", "dilated"):
            raise JSONLinesError(f"{source}:{lineno}: mode must be 'inside' or"
                                 f" 'dilated', got {mode!r}")
        if image not in by_image:
            by_image[image] = {}
            order.append(image)
        elif parcel in by_image[image]:
            raise JSONLinesError(f"{source}:{lineno}: repeated pair of image"
                                 f" {image} and parcel {parcel}")
        by_image[image][parcel] = mode
    return [Assignment(image_id=i, modes=by_image[i]) for i in order]


def jsonl_field(obj: dict, key: str, source, lineno: int):
    """``obj[key]`` of a JSON-lines row; a row lacking it raises
    ``JSONLinesError`` naming ``source`` and the line."""
    if key not in obj:
        raise JSONLinesError(f"{source}:{lineno}: row lacks {key!r}")
    return obj[key]


def jsonl_id(obj: dict, key: str, source, lineno: int) -> str:
    """The image or parcel id ``obj[key]`` of a JSON-lines row; a row
    lacking it, or holding anything but a string there, raises
    ``JSONLinesError`` naming ``source`` and the line."""
    value = jsonl_field(obj, key, source, lineno)
    if type(value) is not str:
        raise JSONLinesError(f"{source}:{lineno}: {key} must be a string,"
                             f" got {type(value).__name__}")
    return value
