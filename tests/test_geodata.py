import json
import math
import random
import re
import struct
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (oracle_assign, oracle_contains, oracle_ring_crossing,
                      random_parcel, star_ring)
from landuse import geodata
from landuse.geodata import (DEFAULT_DILATION_M, METERS_PER_DEGREE,
                             Assignment, GeoJSONParseError, GeoPoint, JSONLinesError,
                             Parcel, ParcelValidationError, assign,
                             assignments_from_jsonl, assignments_to_jsonl,
                             boundary_distance_m, contains, decode_json,
                             encode_json, iter_jsonl, parse_parcels)
from landuse.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def square_parcel(pid="S", side=1.0, x0=0.0, y0=0.0, truth=frozenset()):
    ring = ((x0, y0), (x0 + side, y0), (x0 + side, y0 + side),
            (x0, y0 + side), (x0, y0))
    return Parcel(id=pid, rings=(ring,), truth=truth)


# ---------------------------------------------------------------------------
# parsing


def feature_collection(features):
    return json.dumps({"type": "FeatureCollection", "features": features})


@pytest.mark.parametrize("position", [[1.0, 0.0, 12.5], [1.0]])
def test_position_that_is_not_lon_lat_rejected(position):
    ring = [[0.0, 0.0], position, [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon", "coordinates": [ring]}}])
    with pytest.raises(GeoJSONParseError,
                       match=re.escape(f"feature p1: position {position}"
                                       " is not [lon, lat]")):
        parse_parcels(doc, TAX)


def test_parse_single_square():
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon",
                     "coordinates": [[list(v) for v in UNIT_SQUARE]]},
        "properties": {"landuse": ["bakery"]},
    }])
    parcels = parse_parcels(doc, TAX)
    assert len(parcels) == 1
    assert parcels[0].id == "p1"
    assert parcels[0].truth == {TAX.index("bakery")}


def test_parse_unknown_class():
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon",
                     "coordinates": [[list(v) for v in UNIT_SQUARE]]},
        "properties": {"landuse": ["notaclass"]},
    }])
    with pytest.raises(ValueError, match="notaclass"):
        parse_parcels(doc, TAX)


@pytest.mark.parametrize("landuse", ["bakery", {"bakery": 1}, ["bakery", 3]])
def test_parse_rejects_landuse_not_a_list_of_names(landuse):
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon",
                     "coordinates": [[list(v) for v in UNIT_SQUARE]]},
        "properties": {"landuse": landuse},
    }])
    with pytest.raises(GeoJSONParseError, match="feature p1: landuse must be"
                       " a list of class names"):
        parse_parcels(doc, TAX)


def test_parse_multipolygon_split():
    shifted = [[v[0] + 5, v[1]] for v in UNIT_SQUARE]
    doc = feature_collection([{
        "type": "Feature", "id": "P7",
        "geometry": {"type": "MultiPolygon",
                     "coordinates": [[[list(v) for v in UNIT_SQUARE]],
                                     [shifted]]},
        "properties": {},
    }])
    assert [p.id for p in parse_parcels(doc, TAX)] == ["P7#0", "P7#1"]


def test_parse_malformed_json_reports_offset():
    with pytest.raises(GeoJSONParseError, match="byte offset"):
        parse_parcels('{"type": "FeatureCollection", ', TAX)


@pytest.mark.parametrize("document,message", [
    (b'{"type": "FeatureCollection", "features": [{"id": "\xe9"}]}',
     "not UTF-8 at byte offset 51: invalid continuation byte"),
    ("[" + "1" * 5000 + "]", "malformed GeoJSON: Exceeds the limit"),
    ("[" * 100000, "malformed GeoJSON: nested too deeply"),
])
def test_parse_rejects_undecodable_documents(document, message):
    with pytest.raises(GeoJSONParseError, match=f"^{re.escape(message)}"):
        parse_parcels(document, TAX)


def test_parse_reads_utf8_bytes_as_text():
    doc = feature_collection([{
        "type": "Feature", "id": "pé\u2028",
        "geometry": {"type": "Polygon",
                     "coordinates": [[list(v) for v in UNIT_SQUARE]]}}])
    doc = doc.replace("\\u00e9", "é")
    assert parse_parcels(doc.encode("utf-8"), TAX) == parse_parcels(doc, TAX)
    assert parse_parcels(doc, TAX)[0].id == "pé\u2028"


@pytest.mark.parametrize("big", ["1" + "0" * 400, "-" + "9" * 309])
def test_integer_coordinate_past_the_float_range_rejected(big):
    ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon", "coordinates": [ring]}}])
    doc = doc.replace("[1, 1]", f"[{big}, 1]")
    with pytest.raises(GeoJSONParseError, match=r"^feature p1: ring 0, position 2"
                       r" has a coordinate past the float range$"):
        parse_parcels(doc, TAX)


def test_parse_rejects_non_collection():
    with pytest.raises(GeoJSONParseError):
        parse_parcels('{"type": "Feature"}', TAX)


@pytest.mark.parametrize("document,message", [
    ("[]", "expected a FeatureCollection"),
    ("5", "expected a FeatureCollection"),
    ('{"type": "FeatureCollection", "features": {}}',
     "features must be a list, got dict"),
    ('{"type": "FeatureCollection", "features": [5]}',
     "feature 0 must be an object, got int"),
    ('{"type": "FeatureCollection", "features": [{"id": "F", "properties": []}]}',
     "feature F: properties must be an object, got list"),
    ('{"type": "FeatureCollection", "features": [{"id": "F", "geometry": "x"}]}',
     "feature F: geometry must be an object, got str"),
])
def test_parse_rejects_members_of_the_wrong_shape(document, message):
    with pytest.raises(GeoJSONParseError, match=f"^{re.escape(message)}$"):
        parse_parcels(document, TAX)


SQUARE_RING = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]


@pytest.mark.parametrize("geometry,message", [
    ({"type": "Polygon"},
     "Polygon coordinates must be a list of rings of positions, got None"),
    ({"type": "Polygon", "coordinates": 5},
     "Polygon coordinates must be a list of rings of positions, got 5"),
    ({"type": "Polygon", "coordinates": [5]},
     "Polygon coordinates must be a list of rings of positions, got [5]"),
    ({"type": "Polygon", "coordinates": [[5]]},
     "Polygon coordinates must be a list of rings of positions, got [[5]]"),
    ({"type": "Polygon", "coordinates": {"a": 1}},
     "Polygon coordinates must be a list of rings of positions,"
     " got {'a': 1}"),
    ({"type": "MultiPolygon"},
     "MultiPolygon coordinates must be a list of polygons, got None"),
    ({"type": "MultiPolygon", "coordinates": 5},
     "MultiPolygon coordinates must be a list of polygons, got 5"),
    ({"type": "MultiPolygon", "coordinates": [SQUARE_RING]},
     "MultiPolygon coordinates must be a list of polygons, got [[[0.0, 0.0],"
     " [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]"),   # cut at 60
])
def test_coordinates_of_the_wrong_shape_rejected(geometry, message):
    doc = feature_collection([{"type": "Feature", "id": "p1",
                               "geometry": geometry}])
    with pytest.raises(GeoJSONParseError,
                       match=f"^{re.escape('feature p1: ' + message)}$"):
        parse_parcels(doc, TAX)


@pytest.mark.parametrize("position", [["1", 0.0], [True, 0.0], [1.0, None]])
def test_position_that_is_not_two_numbers_rejected(position):
    ring = [SQUARE_RING[0], position, *SQUARE_RING[2:]]
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "MultiPolygon", "coordinates": [[ring]]}}])
    with pytest.raises(GeoJSONParseError,
                       match=re.escape(f"feature p1: position {position}"
                                       " is not [lon, lat]")):
        parse_parcels(doc, TAX)


def polygon_feature(fid, rings):
    return {"type": "Feature", "id": fid, "properties": {},
            "geometry": {"type": "Polygon",
                         "coordinates": [[list(v) for v in r] for r in rings]}}


def test_parse_rejects_duplicate_ids():
    shifted = [(x + 5, y) for x, y in UNIT_SQUARE]
    doc = feature_collection([polygon_feature("D", [UNIT_SQUARE]),
                              polygon_feature("D", [shifted])])
    with pytest.raises(ParcelValidationError, match="'D'"):
        parse_parcels(doc, TAX)
    # a MultiPolygon member's name counts too
    multi = {"type": "Feature", "id": "M", "properties": {},
             "geometry": {"type": "MultiPolygon",
                          "coordinates": [[[list(v) for v in shifted]]]}}
    doc = feature_collection([polygon_feature("M#0", [UNIT_SQUARE]), multi])
    with pytest.raises(ParcelValidationError, match="'M#0'"):
        parse_parcels(doc, TAX)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected(bad):
    ring = ((0.0, 0.0), (1.0, 0.0), (bad, 1.0), (0.0, 1.0), (0.0, 0.0))
    with pytest.raises(ParcelValidationError, match="non-finite"):
        Parcel(id="bad", rings=(ring,))
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts
    doc = feature_collection([polygon_feature("bad", [ring])])
    with pytest.raises(ParcelValidationError, match="non-finite"):
        parse_parcels(doc, TAX)


def test_ring_must_close():
    with pytest.raises(ParcelValidationError, match="closed"):
        Parcel(id="bad", rings=(((0, 0), (1, 0), (1, 1)),))


def test_self_intersecting_ring_rejected():
    bowtie = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    with pytest.raises(ParcelValidationError, match="bad"):
        Parcel(id="bad", rings=(bowtie,))


def crossing_named(rings, pid="r"):
    """The segment pair ``Parcel`` validation rejects ``rings`` for, or None."""
    try:
        Parcel(id=pid, rings=rings)
    except ParcelValidationError as e:
        m = re.fullmatch(rf"parcel {pid}: self-intersecting ring"
                         r" \(segments (\d+) and (\d+)\)", str(e))
        assert m, str(e)
        return int(m[1]), int(m[2])
    return None


SQUARE_4 = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0))


@pytest.mark.parametrize("rings,pair", [
    # a spike out of the top edge that doubles back over itself: edges 3
    # and 5 overlap on x = 2, 5 <= y <= 6
    ((((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 4.0), (2.0, 7.0),
       (2.0, 6.0), (2.0, 5.0), (0.0, 4.0), (0.0, 0.0)),), (3, 5)),
    # a figure 8 pinched at (2, 2), a vertex both loops pass through
    # (traversed the other way round it passes, since _segments_cross
    # counts a zero orientation as negative)
    ((((0.0, 0.0), (4.0, 0.0), (2.0, 2.0), (4.0, 4.0), (0.0, 4.0),
       (2.0, 2.0), (0.0, 0.0)),), (1, 5)),
    # a valid exterior around a bowtie hole
    ((SQUARE_4, ((1.0, 1.0), (3.0, 3.0), (3.0, 1.0), (1.0, 3.0),
                 (1.0, 1.0))), (0, 2)),
])
def test_self_intersecting_shapes_rejected(rings, pair):
    assert crossing_named(rings) == pair
    assert pair in map(oracle_ring_crossing, rings)


def test_collinear_edges_with_disjoint_boxes_accepted():
    # a notched parcel whose edges 3 and 7 lie on y = 3x, apart; in floats
    # the segment predicate rounds to a crossing, which the all-pairs check
    # reported and the box sweep never tests
    ring = ((0.1, 0.3), (0.1, 0.0), (0.8, 0.0), (0.8, 2.4), (0.5, 1.5),
            (0.5, 1.0), (0.2, 0.4), (0.2, 0.6), (0.1, 0.3))
    assert oracle_ring_crossing(ring) == (3, 7)
    assert crossing_named((ring,)) is None


@st.composite
def rings_to_validate(draw):
    """Closed rings with >= 3 distinct vertices: on a 5 x 5 integer grid,
    where the arithmetic is exact and edges overlap, touch at vertices and
    have zero length; or random floats; or simple star rings."""
    kind = draw(st.sampled_from(["grid", "float", "star"]))
    if kind == "grid":
        coord = st.integers(0, 4).map(float)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=14))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(3, 40))
        if kind == "star":
            return star_ring(rng, rng.uniform(-1, 1), rng.uniform(-1, 1),
                             0.05, 1.0, n)
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    assume(len(set(pts)) >= 3)
    return tuple(pts) + (pts[0],)


@settings(max_examples=400, deadline=None)
@given(rings_to_validate())
def test_ring_validation_matches_all_pairs_oracle(ring):
    assert crossing_named((ring,)) == oracle_ring_crossing(ring)


# ---------------------------------------------------------------------------
# containment


def test_center_inside():
    assert contains(square_parcel(), GeoPoint(0.5, 0.5))


def test_outside_bbox():
    assert not contains(square_parcel(), GeoPoint(2.0, 0.5))


def test_edge_and_vertex_are_inside():
    p = square_parcel()
    assert contains(p, GeoPoint(0.0, 0.5))
    assert contains(p, GeoPoint(1.0, 1.0))
    assert contains(p, GeoPoint(0.25, 0.0))


def test_hole_is_outside():
    hole = ((0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6), (0.4, 0.4))
    p = Parcel(id="H", rings=(UNIT_SQUARE, hole))
    assert not contains(p, GeoPoint(0.5, 0.5))
    assert contains(p, GeoPoint(0.2, 0.2))
    # hole boundary still counts as inside
    assert contains(p, GeoPoint(0.4, 0.5))


def test_contains_matches_winding_oracle():
    rng = random.Random(20260823)
    for k in range(60):
        parcel = random_parcel(rng, k)
        for _ in range(40):
            lon = rng.uniform(-0.02, 0.02)
            lat = rng.uniform(-0.02, 0.02)
            got = contains(parcel, GeoPoint(lon, lat))
            want = oracle_contains(parcel, lon, lat)
            assert got == want, (parcel.id, lon, lat)


# ---------------------------------------------------------------------------
# metric distance

LAT0 = 37.75


def meter_square(side_m=100.0, lon0=-122.42, lat0=LAT0, pid="SQ",
                 truth=frozenset()):
    dlat = side_m / METERS_PER_DEGREE
    # frame is centered on the bbox, so use the center latitude's scale
    latc = lat0 + dlat / 2
    dlon = side_m / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
    ring = ((lon0, lat0), (lon0 + dlon, lat0), (lon0 + dlon, lat0 + dlat),
            (lon0, lat0 + dlat), (lon0, lat0))
    return Parcel(id=pid, rings=(ring,), truth=truth), dlon, dlat, latc


def test_distance_zero_at_vertex():
    p, _, _, _ = meter_square()
    v = p.exterior[0]
    assert boundary_distance_m(p, GeoPoint(*v)) == 0.0


def test_distance_4m_east_of_edge_midpoint():
    p, dlon, dlat, latc = meter_square()
    lon0, lat0 = p.exterior[0]
    east = 4.0 / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
    pt = GeoPoint(lon0 + dlon + east, lat0 + dlat / 2)
    assert boundary_distance_m(p, pt) == pytest.approx(4.0, abs=0.1)


def test_distance_center_of_square():
    p, dlon, dlat, _ = meter_square()
    lon0, lat0 = p.exterior[0]
    center = GeoPoint(lon0 + dlon / 2, lat0 + dlat / 2)
    assert boundary_distance_m(p, center) == pytest.approx(50.0, abs=0.5)


def test_distance_rejects_polar_points():
    p, _, _, _ = meter_square()
    with pytest.raises(ValueError, match="pole"):
        boundary_distance_m(p, GeoPoint(0.0, 89.0))


# ---------------------------------------------------------------------------
# assignment


def city_fixture():
    a, dlon, dlat, latc = meter_square(pid="A")
    b, _, _, _ = meter_square(pid="B", lon0=-122.42 + 3 * dlon)
    east = 1.0 / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
    lon0, lat0 = a.exterior[0]
    inside = ("in", GeoPoint(lon0 + dlon / 2, lat0 + dlat / 2))
    near = ("near", GeoPoint(lon0 + dlon + 4 * east, lat0 + dlat / 2))
    far = ("far", GeoPoint(lon0 + dlon + 6 * east, lat0 + dlat / 2))
    return [a, b], [inside, near, far]


def test_assign_modes():
    parcels, records = city_fixture()
    out = assign(records, parcels, dilation_m=5.0)
    by_id = {a.image_id: a.modes for a in out}
    assert by_id["in"] == {"A": "inside"}
    assert by_id["near"] == {"A": "dilated"}
    assert "far" not in by_id  # 6 m outside everything is dropped


def test_assign_zero_dilation_containment_only():
    parcels, records = city_fixture()
    out = assign(records, parcels, dilation_m=0.0)
    assert [a.image_id for a in out] == ["in"]
    assert all(m == "inside" for a in out for m in a.modes.values())


def test_assign_monotone_in_dilation():
    parcels, records = city_fixture()
    rng = random.Random(7)
    lon0, lat0 = parcels[0].exterior[0]
    for i in range(200):
        records.append((f"r{i}", GeoPoint(lon0 + rng.uniform(-3e-3, 3e-3),
                                          lat0 + rng.uniform(-3e-3, 3e-3))))
    prev = set()
    for d in (0.0, 2.0, 5.0, 25.0, 200.0):
        pairs = {(a.image_id, pid) for a in assign(records, parcels, d)
                 for pid in a.parcel_ids}
        assert prev <= pairs
        prev = pairs


def test_assign_order_independent():
    parcels, records = city_fixture()
    fwd = assign(records, parcels, DEFAULT_DILATION_M)
    rev = assign(list(reversed(records)), list(reversed(parcels)),
                 DEFAULT_DILATION_M)
    assert [(a.image_id, dict(a.pairs())) for a in fwd] == \
        [(a.image_id, dict(a.pairs())) for a in rev]


def test_assign_rejects_negative_dilation():
    parcels, records = city_fixture()
    for dilation_m in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match="^dilation_m must be finite and >= 0"):
            assign(records, parcels, dilation_m=dilation_m)


def test_assignments_jsonl_round_trip():
    parcels, records = city_fixture()
    out = assign(records, parcels, DEFAULT_DILATION_M)
    text = assignments_to_jsonl(out)
    again = assignments_from_jsonl(text)
    assert [(a.image_id, dict(a.pairs())) for a in again] == \
        [(a.image_id, dict(a.pairs())) for a in out]


def test_assignments_reader_skips_header():
    text = '{"provenance": {"seed": 1}}\n' \
           '{"image": "i", "parcel": "P", "mode": "inside"}\n'
    out = assignments_from_jsonl(text)
    assert len(out) == 1 and out[0].modes == {"P": "inside"}


def test_star_ring_parcels_validate():
    # the random generator must produce simple rings, or the oracle test
    # would silently cover less than it claims; with an angular gap over
    # pi, about 3% of these rings used to cross themselves
    rng = random.Random(3)
    for k in range(3000):
        ring = star_ring(rng, 0, 0, 20 / METERS_PER_DEGREE,
                         150 / METERS_PER_DEGREE, rng.randint(3, 12))
        Parcel(id=f"s{k}", rings=(ring,))


def test_assign_polar_point_raises():
    square = square_parcel()
    with pytest.raises(ValueError, match="pole"):
        assign([("x", GeoPoint(0.0, 89.0))], [square])
    # no parcel, nothing to measure against
    assert assign([("x", GeoPoint(0.0, 89.0))], []) == []
    # containment needs no planar frame
    polar = square_parcel(pid="N", x0=-0.5, y0=88.5)
    out = assign([("x", GeoPoint(0.0, 89.0))], [square, polar])
    assert [a.modes for a in out] == [{"N": "inside"}]


# ---------------------------------------------------------------------------
# assignment against the all-pairs oracle


def _probe_points(rng, parcel, dilation_m):
    """Vertices, bounding-box edges and points ``dilation_m`` from the
    boundary: where a box prefilter that is off by a rounding error shows."""
    rings = parcel.rings
    xs = [v[0] for ring in rings for v in ring]
    ys = [v[1] for ring in rings for v in ring]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    # the planar frame boundary_distance_m measures in
    lon0, lat0 = (x0 + x1) / 2, (y0 + y1) / 2
    mx = math.cos(math.radians(lat0)) * METERS_PER_DEGREE
    my = METERS_PER_DEGREE
    pts = [rng.choice(rng.choice(rings)),
           (x0, rng.uniform(y0, y1)), (x1, rng.uniform(y0, y1)),
           (rng.uniform(x0, x1), y0), (rng.uniform(x0, x1), y1),
           (x0, y0), (x1, y1)]
    # dilation_m beyond the extreme vertices, just inside and just outside
    for scale in (1.0, 1.0 - 1e-12, 1.0 + 1e-12):
        d = dilation_m * scale
        pts += [(x1 + d / mx, ys[xs.index(x1)]), (x0 - d / mx, ys[xs.index(x0)]),
                (xs[ys.index(y1)], y1 + d / my), (xs[ys.index(y0)], y0 - d / my)]
    # dilation_m off the midpoint of an edge, along its normal
    ring = rng.choice(rings)
    i = rng.randrange(len(ring) - 1)
    (ax, ay), (bx, by) = [((x - lon0) * mx, (y - lat0) * my)
                          for x, y in (ring[i], ring[i + 1])]
    length = math.hypot(bx - ax, by - ay)
    nx, ny = (by - ay) / length, (ax - bx) / length
    for side in (1.0, -1.0):
        px = (ax + bx) / 2 + side * dilation_m * nx
        py = (ay + by) / 2 + side * dilation_m * ny
        pts.append((lon0 + px / mx, lat0 + py / my))
    return pts


@st.composite
def geo_cities(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lat = draw(st.sampled_from([0.0, LAT0, 60.0, -60.0]))
    lat += draw(st.floats(-0.5, 0.5))
    lon = draw(st.floats(-150.0, 150.0))
    dilation_m = draw(st.sampled_from([0.0, 5.0, 25.0])
                      | st.floats(0.0, 60.0))

    def simple_star(cx, cy, r_min_m, r_max_m, max_vertices):
        return star_ring(rng, cx, cy, r_min_m / METERS_PER_DEGREE,
                         r_max_m / METERS_PER_DEGREE,
                         rng.randint(3, max_vertices))

    def star(r_min_m, r_max_m, spread_m=400.0):
        cx = lon + rng.uniform(-spread_m, spread_m) / METERS_PER_DEGREE
        cy = lat + rng.uniform(-spread_m, spread_m) / METERS_PER_DEGREE
        return cx, cy, simple_star(cx, cy, r_min_m, r_max_m, 12)

    features = []
    for k in range(draw(st.integers(1, 6))):
        kind = rng.choice(("plain", "holed", "multi"))
        if kind == "multi":
            polys = [[star(20, 150)[2]] for _ in range(rng.randint(1, 3))]
            features.append({"type": "Feature", "id": f"F{k}", "properties": {},
                             "geometry": {"type": "MultiPolygon",
                                          "coordinates": polys}})
            continue
        cx, cy, outer = star(80 if kind == "holed" else 20, 200)
        rings = [outer]
        if kind == "holed":
            rings.append(simple_star(cx, cy, 10, 60, 8))
        features.append(polygon_feature(f"F{k}", rings))
    parcels = parse_parcels(feature_collection(features), TAX)

    points = []
    for parcel in parcels:
        points += _probe_points(rng, parcel, dilation_m)
    for _ in range(20):
        points.append((lon + rng.uniform(-700, 700) / METERS_PER_DEGREE,
                       lat + rng.uniform(-700, 700) / METERS_PER_DEGREE))
    records = [(f"i{n:03d}", GeoPoint(x, y)) for n, (x, y) in enumerate(points)]
    rng.shuffle(records)
    return parcels, records, dilation_m


@settings(max_examples=120, deadline=None)
@given(geo_cities())
def test_assign_matches_all_pairs_oracle(city):
    parcels, records, dilation_m = city
    got = [(a.image_id, list(a.modes.items()))
           for a in assign(records, parcels, dilation_m)]
    assert got == oracle_assign(records, parcels, dilation_m)


def test_assignments_cut_line_names_source_and_line():
    text = assignments_to_jsonl(assign([("i1", GeoPoint(0.5, 0.5)),
                                        ("i2", GeoPoint(0.2, 0.2))],
                                       [square_parcel()]))
    cut = '{"provenance": {}}\n' + text[:-10]
    with pytest.raises(JSONLinesError, match=r"^out/assignments.jsonl:3: bad JSON"):
        assignments_from_jsonl(cut, "out/assignments.jsonl")


#: line ends ``str.splitlines`` knows besides the line feed
UNICODE_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_jsonl_raw_unicode_line_end_inside_a_string_read():
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P\u2028Q\x85R", "mode": "inside"}\n'
            '{"image": "j", "parcel": "S", "mode": "dilated"}\n')
    out = assignments_from_jsonl(text, "src")
    assert [(a.image_id, a.modes) for a in out] == [
        ("i", {"P\u2028Q\x85R": "inside"}), ("j", {"S": "dilated"})]
    # line numbers still count line feeds only
    with pytest.raises(JSONLinesError, match=r"^src:3: bad JSON"):
        assignments_from_jsonl(text.replace('"j"', "j"), "src")


@given(st.lists(st.text(alphabet=st.sampled_from("ab" + UNICODE_LINE_ENDS),
                        min_size=1, max_size=6),
                min_size=1, max_size=4, unique=True))
def test_assignments_with_unicode_line_ends_round_trip(parcel_ids):
    a = Assignment(image_id="i\u2028" + parcel_ids[0],
                   modes={pid: "inside" for pid in parcel_ids})
    text = assignments_to_jsonl([a])
    # the writer escapes every line end; JSON allows those past U+001F raw
    raw = text
    for c in "\x85\u2028\u2029":
        raw = raw.replace(json.dumps(c)[1:-1], c)
    for t in (text, raw):
        again = assignments_from_jsonl(t)
        assert [(b.image_id, b.modes) for b in again] == [(a.image_id, a.modes)]


@pytest.mark.parametrize("line", ["5", '"x"', "[1]", "null"])
def test_jsonl_line_that_is_not_an_object_rejected(line):
    text = '{"provenance": {}}\n' + line + "\n"
    with pytest.raises(JSONLinesError,
                       match=r"^src:2: expected a JSON object, got \w+$"):
        list(iter_jsonl(text, "src"))


@pytest.mark.parametrize("row,key", [
    ('{"image": "i", "mode": "inside"}', "parcel"),
    ('{"image": "i", "parcel": "P"}', "mode"),
])
def test_assignment_row_lacking_a_field_rejected(row, key):
    text = '{"provenance": {}}\n' + row + "\n"
    with pytest.raises(JSONLinesError, match=f"^src:2: row lacks '{key}'$"):
        assignments_from_jsonl(text, "src")


@pytest.mark.parametrize("mode", ['"bogus"', '"Inside"', "null", "1",
                                  '["inside"]'])
def test_assignment_mode_that_is_not_inside_or_dilated_rejected(mode):
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P", "mode": ' + mode + "}\n")
    with pytest.raises(JSONLinesError,
                       match="^src:2: mode must be 'inside' or 'dilated',"
                             " got "):
        assignments_from_jsonl(text, "src")


@pytest.mark.parametrize("key", ["image", "parcel"])
@pytest.mark.parametrize("value,kind", [
    ("[1]", "list"), ('{"a": "P"}', "dict"), ("5", "int")])
def test_assignment_id_that_is_not_a_string_rejected(key, value, kind):
    row = {"image": '"i"', "parcel": '"P"', "mode": '"inside"', key: value}
    text = ('{"provenance": {}}\n{'
            + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
    with pytest.raises(JSONLinesError,
                       match=f"^src:2: {key} must be a string, got {kind}$"):
        assignments_from_jsonl(text, "src")


def test_jsonl_line_nested_too_deeply_rejected():
    text = '{"provenance": {}}\n{"a": ' + "[" * 100000 + "\n"
    with pytest.raises(JSONLinesError,
                       match=r"^src:2: bad JSON: nested too deeply$"):
        list(iter_jsonl(text, "src"))


def test_repeated_assignment_pair_rejected():
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P", "mode": "inside"}\n'
            '{"image": "i", "parcel": "Q", "mode": "inside"}\n'
            '{"image": "i", "parcel": "P", "mode": "dilated"}\n')
    with pytest.raises(JSONLinesError,
                       match="^src:4: repeated pair of image i and parcel P$"):
        assignments_from_jsonl(text, "src")
    # the same parcel for another image is no repeat
    out = assignments_from_jsonl(text.replace('"i", "parcel": "P", "mode": "d',
                                              '"j", "parcel": "P", "mode": "d'),
                                 "src")
    assert [(a.image_id, a.modes) for a in out] == [
        ("i", {"P": "inside", "Q": "inside"}), ("j", {"P": "dilated"})]


def test_jsonl_lone_surrogate_in_text_is_not_utf8():
    text = '{"provenance": {}}\n{"image": "i\ud800"}\n'
    with pytest.raises(JSONLinesError, match="^src:2: not UTF-8: "):
        list(iter_jsonl(text, "src"))


#: JSON lines, blank lines of ASCII whitespace, and lines with a raw
#: character past ASCII
JSONL_LINES = st.one_of(
    st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=4),
                    max_size=3).map(lambda d: json.dumps(d, ensure_ascii=False)),
    st.text(alphabet=" \t\r\x0b\x0c", max_size=3))


@given(lines=st.lists(JSONL_LINES, max_size=6), end=st.sampled_from(["", "\n"]))
def test_iter_jsonl_over_a_binary_file_reads_as_over_its_text(tmp_path_factory,
                                                              lines, end):
    text = "\n".join(lines) + end
    path = tmp_path_factory.mktemp("j") / "x.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as f:
        from_file = list(iter_jsonl(f, "src"))
    assert from_file == list(iter_jsonl(text, "src"))
    assert [obj for _, obj in from_file] == [
        json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# JSON decoding against json.loads


def decoded(decode, text):
    """``repr`` of what ``decode`` gives, which tells 1 from 1.0 and -0.0
    from 0.0, or the type and message of what it raises."""
    try:
        return repr(decode(text))
    except ValueError as e:
        return type(e), str(e)


BIG = str(10 ** 25)
EDGE_TEXTS = [
    f'{{"id": {BIG}, "label": {BIG}}}', BIG, f"-{BIG}", f"[{BIG}, 1]",
    "9223372036854775807", "-9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "1" + "0" * 400,
    "1e400", "-1e400", '{"v": [1.0, 1e400]}', "[NaN, Infinity, -Infinity]",
    '{"id": "r\\ud800"}', '"\\udc00x"', '"\\ud83d\\ude00"', "5", '"x"',
    "[1]", "null", "true", "-0", "-0.0", "1E5", "1e-400", "-1e-400",
    "[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]",
    "9007199254740993.0", "9007199254740993.000000000000000000001",
    '{"a": 1, "a": 2}', '{"a": "\u00e9\u2028"}', "\ufeff{}", "", "   ",
    '{"a": 1', "[1,]", "01", "1.", '{"a": 1} x', '"a\tb"', "[" * 50 + "]" * 50,
]


@pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda text: text[:32])
def test_decode_json_matches_json_loads(text):
    want = decoded(json.loads, text)
    assert decoded(decode_json, text) == want
    assert decoded(decode_json, text.encode("utf-8")) == want


def test_decode_json_reads_bytes_as_utf8():
    for raw in (b"\xff", b'"\xed\xa0\x80"', b'{"a": "\xc3"}'):
        with pytest.raises(UnicodeDecodeError):
            decode_json(raw)


def test_decode_json_nested_big_integer_is_its_nearest_float():
    # the documented difference: json gives the int, orjson the float that
    # a float64 array holds for it either way
    big = 10 ** 25
    assert decode_json(f'{{"v": [{big}]}}') == {"v": [float(big)]}


# each writes a float literal, or for an integral float below 1e17 an
# integer literal within 64 bits: a longer one nested in an array is the
# difference decode_json documents
FLOAT_FORMATS = (repr, "{:.17g}".format, "{:.16e}".format, "{:.30e}".format,
                 "{:.20f}".format)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
       st.integers(), st.sampled_from(FLOAT_FORMATS))
def test_decode_json_floats_and_integers_match_json_loads(values, n, fmt):
    text = f'{{"id": {n}, "v": [{", ".join(map(fmt, values))}]}}'
    assert decoded(decode_json, text) == decoded(json.loads, text)
    assert decoded(decode_json, text.encode()) == decoded(json.loads, text)


# ---------------------------------------------------------------------------
# JSON encoding against json.dumps


def encoded(encode, value):
    """What ``encode`` writes for ``value``, or the type of what it raises."""
    try:
        return encode(value)
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e)


def indented(value):
    return json.dumps(value, indent=2)


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def around(x: float, steps: int = 2) -> list[float]:
    """``x``, its neighbours ``steps`` floats either way, and their
    negations."""
    out = [x]
    for toward in (0.0, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out + [-v for v in out]


#: zeros, subnormals, the bounds of json's and orjson's shared notation,
#: the bounds of the float range and the non-finite floats
EDGE_FLOATS = ([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, math.nan, math.inf, -math.inf]
               + around(1e-4) + around(1e16))

#: orjson writes integers in [-2**63, 2**64) and raises past them
EDGE_INTS = [-2 ** 63 - 1, -2 ** 63, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1,
             2 ** 64]


@dataclass
class Point:
    x: float


class Name(str):
    pass


#: values of types the walk refuses: a dataclass (orjson writes an object,
#: json raises), a subclass of str, and bytes and a set (both raise)
ODD_VALUES = [Point(1.0), Name("n"), b"x", {1}]

floats = (st.floats() | st.integers(0, 2 ** 64 - 1).map(float_from_bits)
          | st.sampled_from(EDGE_FLOATS))
ints = st.integers(-2 ** 70, 2 ** 70) | st.sampled_from(EDGE_INTS)
ascii_texts = st.text(st.characters(max_codepoint=0x7f))
texts = ascii_texts | st.text(
    st.characters(exclude_categories=())
    | st.sampled_from("\x7f\x00\x1f\n\t\"\\/\u00e9\u2028\ud800"))
scalars = st.none() | st.booleans() | ints | floats | texts
keys = texts | ints | floats | st.booleans() | st.none()
#: scalars that orjson writes as json does, and DEL, drawn apart so that
#: about half of the values take orjson's path
plain_floats = st.sampled_from([0.0, -0.0]) | st.builds(
    math.copysign, st.floats(1e-4, 1e16, exclude_max=True),
    st.sampled_from([1, -1]))
plain_scalars = (st.none() | st.booleans() | plain_floats | ascii_texts
                 | st.integers(-2 ** 63, 2 ** 64 - 1))


def nested_values(leaves, keys):
    return st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=5)
                          | st.lists(children, max_size=5).map(tuple)
                          | st.dictionaries(keys, children, max_size=5)),
        max_leaves=30)


json_values = (nested_values(plain_scalars, ascii_texts)
               | nested_values(scalars, keys)
               | nested_values(scalars | st.sampled_from(ODD_VALUES), keys))


@settings(max_examples=1000, deadline=None)
@given(json_values)
def test_encode_json_matches_json_dumps(value):
    assert encoded(encode_json, value) == encoded(indented, value)


@pytest.mark.parametrize("value", [
    {"a": [1, 2.5, None, True], "b": {"c": "d", "e": []}, "f": {}},
    [0.0, -0.0, 1e-4, 9999999999999998.0, 1e16, 9.999999999999999e-05],
    "caf\u00e9", "\x7f", {"\x7f": 1}, {"\u00e9": 1}, "\x00\x1f\n",
    [2 ** 64 - 1, 2 ** 64], {1: "a", None: "b"},
    (1, (2, 3)), [math.nan], Point(2.0), Name("x"),
], ids=repr)
def test_encode_json_edge_values(value):
    assert encoded(encode_json, value) == encoded(indented, value)


def nested(levels: int) -> list:
    value = [1]
    for _ in range(levels - 1):
        value = [value]
    return value


@pytest.mark.parametrize("levels", [254, 255, 256, 300])
def test_encode_json_deep_nesting_matches_json_dumps(levels):
    value = nested(levels)
    assert encode_json(value) == indented(value)
    value = {"a": nested(levels - 1)}
    assert encode_json(value) == indented(value)


def test_encode_json_falls_back_when_orjson_refuses(monkeypatch):
    # a walk that lets deeper values through hands orjson one it refuses
    monkeypatch.setattr(geodata, "_ORJSON_DEPTH", 1000)
    value = nested(300)
    assert encode_json(value) == indented(value)


def test_encode_json_circular_value_raises_jsons_error():
    value = [1]
    value.append(value)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        encode_json(value)
    member = {}
    member["self"] = [member]
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        encode_json({"a": member})
