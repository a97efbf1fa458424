import io
import json
import math
import random
import re
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from _oracles import (oracle_assign, oracle_contains, oracle_ring_crossing,
                      random_parcel, star_ring)
from landuse import geodata
from landuse.dataset import ManifestError, load_manifest
from landuse.geodata import (DEFAULT_DILATION_M, METERS_PER_DEGREE,
                             Assignment, GeoJSONParseError, GeoPoint, JSONLinesError,
                             Parcel, ParcelValidationError, assign,
                             assignments_from_jsonl, assignments_to_jsonl,
                             boundary_distance_m, contains,
                             encode_json, jsonl_rows, parse_parcels)
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


#: a bad position as JSON text, the coordinate at fault first or second
BAD_POSITIONS = ["[true, 0]", "[NaN, 0]", "[0, Infinity]", "[181, 0]",
                 "[0, -91]", "[1" + "0" * 400 + ", 0]", '["1", 0]']

#: the bad positions that are not JSON: orjson refuses the literal
NOT_JSON = {"NaN": "unexpected character",
            "Infinity": "unexpected character",
            "1" + "0" * 400: "number is infinity when parsed as double"}


@pytest.mark.parametrize("text", BAD_POSITIONS, ids=[
    "true", "NaN", "Infinity", "lon181", "lat-91", "10**400", "string"])
def test_every_position_reader_refuses_a_bad_position(tmp_path, text):
    """Geotags and parcel vertices share ``check_position``, so each reader
    refuses each bad position with its own typed error, and none lets an
    ``OverflowError`` through. A literal that is not JSON is refused by
    each reader as bad JSON, at its line or offset."""
    lon_text, lat_text = text[1:-1].split(", ")
    with pytest.raises((TypeError, ValueError)):  # no OverflowError
        GeoPoint(*json.loads(text))
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(f'{{"id": "a", "lon": {lon_text}, "lat": {lat_text},'
                        f' "features": {{"o": [1.0]}}}}\n', encoding="utf-8")
    doc = ('{"type": "FeatureCollection", "features": [{"id": "p", "geometry":'
           ' {"type": "Polygon", "coordinates":'
           f' [[[0, 0], [1, 0], {text}, [0, 1], [0, 0]]]}}}}]}}')
    fault = NOT_JSON.get(lon_text) or NOT_JSON.get(lat_text)
    if fault:
        with pytest.raises(ManifestError, match=re.escape(
                f"{manifest}:1: bad JSON: {fault}")):
            load_manifest(manifest, TAX)
        at = doc.index(text) + text.index(next(
            t for t in (lon_text, lat_text) if t in NOT_JSON))
        with pytest.raises(GeoJSONParseError, match=re.escape(
                f"malformed GeoJSON at byte offset {at}: {fault}")):
            parse_parcels(doc, TAX)
        return
    with pytest.raises(ManifestError, match="^record a: bad coordinates"):
        load_manifest(manifest, TAX)
    with pytest.raises(GeoJSONParseError,
                       match=r"^feature p: (position \[.*\] is not \[lon, lat\]"
                             r"|ring 0, position 2: )"):
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
    with pytest.raises(GeoJSONParseError) as e:
        parse_parcels(doc, TAX)
    assert str(e.value) == "feature p1: unknown fine class name: 'notaclass'"


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
    ("[" + "1" * 5000 + "]",
     "malformed GeoJSON at byte offset 1: number is infinity when parsed as"
     " double"),
    ("[" * 100000, "malformed GeoJSON: nested too deeply"),
    ("[" * 200000 + "]" * 200000, "malformed GeoJSON: nested too deeply"),
    ('["\u00e9\u00e9", x]'.encode("utf-8"),
     "malformed GeoJSON at byte offset 9: unexpected character"),
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
    """orjson reads an integer literal past the float range as no number,
    so the document is malformed at the literal."""
    ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
    doc = feature_collection([{
        "type": "Feature", "id": "p1",
        "geometry": {"type": "Polygon", "coordinates": [ring]}}])
    doc = doc.replace("[1, 1]", f"[{big}, 1]")
    with pytest.raises(GeoJSONParseError, match=re.escape(
            f"malformed GeoJSON at byte offset {doc.index(big)}: number is"
            f" infinity when parsed as double")):
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
     "feature 0: properties must be an object, got list"),
    ('{"type": "FeatureCollection", "features": [{"id": "F", "geometry": "x"}]}',
     "feature F: geometry must be an object, got str"),
])
def test_parse_rejects_members_of_the_wrong_shape(document, message):
    with pytest.raises(GeoJSONParseError, match=f"^{re.escape(message)}$"):
        parse_parcels(document, TAX)


#: a feature id as JSON text that ``record_id`` refuses, and its kind
BAD_IDS = [("null", "NoneType"), ("true", "bool"), ("1.5", "float"),
           ("[1]", "list"), ('{"a": 1}', "dict"), ("1" + "0" * 29, "float")]


@pytest.mark.parametrize("where", ["id", "properties.id"])
@pytest.mark.parametrize("text,kind", BAD_IDS, ids=[t for t, _ in BAD_IDS])
def test_feature_id_that_is_not_a_string_or_an_integer_rejected(where, text,
                                                                kind):
    """A feature's id, or its properties' id, follows ``record_id``; one of
    another kind once named the parcel by its ``str``, ``"None"`` say."""
    ring = json.dumps([[list(v) for v in UNIT_SQUARE]])
    member = (f'"id": {text}' if where == "id"
              else f'"properties": {{"id": {text}}}')
    doc = ('{"type": "FeatureCollection", "features": [{"type": "Feature", '
           + member + ', "geometry": {"type": "Polygon", "coordinates": '
           + ring + "}}]}")
    with pytest.raises(GeoJSONParseError, match=re.escape(
            f"feature 0: id must be a string or an integer, got {kind}")):
        parse_parcels(doc, TAX)


@pytest.mark.parametrize("text,pid", [
    ('"P7"', "P7"), ("7", "7"), ("-9223372036854775808", str(-2 ** 63)),
    ("18446744073709551615", str(2 ** 64 - 1))])
def test_feature_id_string_or_integer_names_the_parcel(text, pid):
    ring = json.dumps([[list(v) for v in UNIT_SQUARE]])
    for member in (f'"id": {text}', f'"properties": {{"id": {text}}}'):
        doc = ('{"type": "FeatureCollection", "features": [{"type": "Feature", '
               + member + ', "geometry": {"type": "Polygon", "coordinates": '
               + ring + "}}]}")
        assert [p.id for p in parse_parcels(doc, TAX)] == [pid]


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
    # json.dumps writes NaN/Infinity tokens, which are not JSON
    doc = feature_collection([polygon_feature("bad", [ring])])
    with pytest.raises(GeoJSONParseError,
                       match="^malformed GeoJSON at byte offset [0-9]+: "):
        parse_parcels(doc, TAX)


def test_integer_vertex_past_the_float_range_rejected():
    """A parcel built in code is not held to lon/lat range, but its
    vertices must be finite floats."""
    with pytest.raises(ParcelValidationError, match="^parcel x: non-finite vertex$"):
        Parcel(id="x", rings=(((0, 0), (10 ** 400, 0), (1, 1), (0, 0)),))


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


@pytest.mark.parametrize("lon,lat", [(True, 0.5), (0.5, False)])
def test_boolean_coordinate_is_not_a_number(lon, lat):
    with pytest.raises(TypeError, match="boolean coordinate"):
        GeoPoint(lon, lat)


def test_distance_zero_at_vertex():
    p, _, _, _ = meter_square()
    v = p.rings[0][0]
    assert boundary_distance_m(p, GeoPoint(*v)) == 0.0


def test_distance_4m_east_of_edge_midpoint():
    p, dlon, dlat, latc = meter_square()
    lon0, lat0 = p.rings[0][0]
    east = 4.0 / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
    pt = GeoPoint(lon0 + dlon + east, lat0 + dlat / 2)
    assert boundary_distance_m(p, pt) == pytest.approx(4.0, abs=0.1)


def test_distance_center_of_square():
    p, dlon, dlat, _ = meter_square()
    lon0, lat0 = p.rings[0][0]
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
    lon0, lat0 = a.rings[0][0]
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
    lon0, lat0 = parcels[0].rings[0][0]
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
    with io.BytesIO(assignments_to_jsonl(out)) as f:
        again = assignments_from_jsonl(f, "src", {pc.id for pc in parcels})
    assert [(a.image_id, dict(a.pairs())) for a in again] == \
        [(a.image_id, dict(a.pairs())) for a in out]


def test_assignments_reader_skips_header():
    text = '{"provenance": {"seed": 1}}\n' \
           '{"image": "i", "parcel": "P", "mode": "inside"}\n'
    out = assignments_from_jsonl(text, "src", {"P"})
    assert len(out) == 1 and out[0].modes == {"P": "inside"}


@pytest.mark.parametrize("row", [
    '{}', '{"imgae": "i", "parcel": "P", "mode": "inside"}',
    '{"provenance": {}, "parcel": "P", "mode": "inside"}'])
def test_assignments_header_is_only_the_lone_provenance_object(row):
    text = '{"provenance": {}}\n' + row + "\n"
    with pytest.raises(JSONLinesError, match="^src:2: row lacks 'image'$"):
        assignments_from_jsonl(text, "src", {"P"})


def test_assignment_row_with_a_provenance_key_is_a_row():
    row = '{"provenance": {}, "image": "i", "parcel": "P", "mode": "inside"}'
    assert [a.image_id for a in assignments_from_jsonl(row, "src", {"P"})] \
        == ["i"]



def test_assignment_to_an_unknown_parcel_rejected_at_its_row():
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P", "mode": "inside"}\n'
            '{"image": "j", "parcel": "X", "mode": "dilated"}\n'
            '{"image": "k", "parcel": ')
    # the cut last line is never read
    with pytest.raises(JSONLinesError,
                       match="^src:3: image j: unknown parcel X$"):
        assignments_from_jsonl(text, "src", {"P"})
    assert not assignments_from_jsonl(text.split("\n")[0], "src", set())


def test_assignments_equal_only_with_the_same_modes():
    a = Assignment("i", {"P1": "inside"})
    assert a == Assignment("i", {"P1": "inside"})
    assert a != Assignment("i", {"P2": "dilated"})
    assert a != Assignment("i", {"P1": "dilated"})
    assert a != Assignment("j", {"P1": "inside"})
    # the hash is the image id's, so the modes may stay a dict
    assert hash(a) == hash(Assignment("i", {"P2": "dilated"}))

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


# ---------------------------------------------------------------------------
# the containment and distance kernels against their plain per-edge form
#
# ``oracle_assign`` runs the library's own kernels, so it cannot see a change
# in them. These are the kernels written edge by edge with ``min`` and
# ``max``, frozen: the one-pass loops must give the same bool and the very
# same float.


def reference_contains(parcel, p):
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


def reference_boundary_distance_m(parcel, p):
    if abs(p.lat) >= 85.0:
        raise ValueError(f"latitude {p.lat} too close to the poles")
    xs = [v[0] for ring in parcel.rings for v in ring]
    ys = [v[1] for ring in parcel.rings for v in ring]
    lon0 = (min(xs) + max(xs)) / 2.0
    lat0 = (min(ys) + max(ys)) / 2.0
    coslat = math.cos(math.radians(lat0))

    def to_xy(lon, lat):
        return ((lon - lon0) * coslat * METERS_PER_DEGREE,
                (lat - lat0) * METERS_PER_DEGREE)

    px, py = to_xy(p.lon, p.lat)
    best = math.inf
    for ring in parcel.rings:
        for i in range(len(ring) - 1):
            if ring[i] == ring[i + 1]:
                continue
            ax, ay = to_xy(*ring[i])
            bx, by = to_xy(*ring[i + 1])
            dx, dy = bx - ax, by - ay
            t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
            t = max(0.0, min(1.0, t))
            best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    if best is math.inf:
        raise ValueError(f"parcel {parcel.id}: all edges are degenerate")
    return best


def assert_kernels_match_reference(parcel, points):
    for p in points:
        assert contains(parcel, p) == reference_contains(parcel, p), (parcel, p)
        got = boundary_distance_m(parcel, p)
        want = reference_boundary_distance_m(parcel, p)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
            (parcel, p, got, want)


def repeat_vertices(rng, ring):
    """The ring with one to three of its vertices given twice in a row,
    which makes degenerate edges; the kernels do not need a valid ring."""
    ring = list(ring)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(ring))
        ring.insert(k, ring[k])
    return tuple(ring)


def edge_points(rng, parcel):
    """Vertices, points on edges (by interpolation, so some are on the
    edge exactly and some a rounding off it) and points one float step
    off a vertex."""
    pts = []
    for ring in parcel.rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            t = rng.choice((0.5, 0.25, rng.random()))
            pts += [(x1, y1), (x1 + t * (x2 - x1), y1 + t * (y2 - y1)),
                    (math.nextafter(x1, math.inf), y1),
                    (x1, math.nextafter(y1, -math.inf))]
    return [GeoPoint(x, y) for x, y in pts]


@settings(max_examples=120, deadline=None)
@given(geo_cities(), st.integers(0, 2**32 - 1))
def test_kernels_equal_their_per_edge_form(city, seed):
    parcels, records, _dilation_m = city
    rng = random.Random(seed)
    points = [p for _, p in records]
    for parcel in parcels:
        repeated = Parcel._trusted(
            parcel.id, tuple(repeat_vertices(rng, r) for r in parcel.rings),
            parcel.truth)
        for variant in (parcel, repeated):
            assert_kernels_match_reference(
                variant, points + edge_points(rng, variant))


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(3, 8),
       st.integers(3, 8), st.booleans())
def test_kernels_equal_their_per_edge_form_on_integer_rings(x0, y0, w, h, holed):
    """Integer vertices and points on a half-unit lattice: every point on
    an edge or a hole's edge is on it exactly."""
    outer = ((x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h), (x0, y0))
    hole = ((x0 + 1, y0 + 1), (x0 + 1, y0 + h - 1), (x0 + w - 1, y0 + h - 1),
            (x0 + w - 1, y0 + 1), (x0 + 1, y0 + 1))
    parcel = Parcel(id="Z", rings=(outer, hole) if holed else (outer,))
    points = [GeoPoint(i / 2, j / 2)
              for i in range(2 * x0 - 2, 2 * (x0 + w) + 3)
              for j in range(2 * y0 - 2, 2 * (y0 + h) + 3)]
    assert_kernels_match_reference(parcel, points)


# ---------------------------------------------------------------------------
# the grid behind assign


def assigned(records, parcels, dilation_m):
    return [(a.image_id, list(a.modes.items()))
            for a in assign(records, parcels, dilation_m)]


def unit_squares(n, x0=0.0):
    return [square_parcel(f"S{k}", x0=x0 + k) for k in range(n)]


def grid_of(parcels, dilation_m):
    """The cell width, cell height, cells and large list of the grid that
    ``assign`` builds over ``parcels``."""
    return geodata._parcel_index(parcels, dilation_m)[2]


def test_grid_probe_on_a_cell_boundary():
    parcels = unit_squares(5)
    cell_w, cell_h, _cells, large = grid_of(parcels, 0.0)
    assert (cell_w, cell_h, large) == (1.0, 1.0, [])
    # on the cell boundaries x = 1, x = 2 and y = 1, which are edges too
    records = [("a", GeoPoint(1.0, 0.5)), ("b", GeoPoint(2.0, 1.0)),
               ("c", GeoPoint(3.0, 0.0)), ("d", GeoPoint(4.5, 1.0))]
    got = assigned(records, parcels, 0.0)
    assert got == [("a", [("S0", "inside"), ("S1", "inside")]),
                   ("b", [("S1", "inside"), ("S2", "inside")]),
                   ("c", [("S2", "inside"), ("S3", "inside")]),
                   ("d", [("S4", "inside")])]
    assert got == oracle_assign(records, parcels, 0.0)


def test_grid_probe_on_a_cell_boundary_with_a_buffer():
    parcels = [square_parcel(f"S{k}", side=1e-3, x0=k * 1.5e-3, y0=45.0)
               for k in range(6)]
    cell_w, cell_h, _cells, _large = grid_of(parcels, 25.0)
    records = [(f"i{i}{j}", GeoPoint(i * cell_w, j * cell_h))
               for i in range(-1, 8) for j in range(math.floor(45.0 / cell_h) - 1,
                                                    math.floor(45.0 / cell_h) + 3)]
    got = assigned(records, parcels, 25.0)
    assert got == oracle_assign(records, parcels, 25.0)
    assert any(modes for _, modes in got)


@pytest.mark.parametrize("big_at", [0, 3, 6])
def test_grid_parcel_spanning_many_cells_is_checked_by_every_probe(big_at):
    small = [square_parcel(f"s{k}", side=1e-3, x0=0.3 + 2e-3 * k, y0=0.3)
             for k in range(6)]
    big = square_parcel("B", side=1.0)
    parcels = small[:big_at] + [big] + small[big_at:]
    assert grid_of(parcels, DEFAULT_DILATION_M)[3] == [big_at]
    records = [("in_both", GeoPoint(0.3005, 0.3005)),
               ("edge_of_both", GeoPoint(0.3, 0.3)),
               ("in_big", GeoPoint(0.9, 0.9)),
               ("near_big", GeoPoint(1.00001, 0.5)),
               ("near_small", GeoPoint(0.30101, 0.3005)),
               ("far", GeoPoint(3.0, 3.0))]
    got = assigned(records, parcels, DEFAULT_DILATION_M)
    assert got == oracle_assign(records, parcels, DEFAULT_DILATION_M)
    modes = dict(got)
    order = [p.id for p in parcels]
    assert sorted(modes["in_both"], key=lambda m: order.index(m[0])) \
        == modes["in_both"]
    assert sorted(modes["in_both"]) == [("B", "inside"), ("s0", "inside")]
    assert modes["in_big"] == [("B", "inside")]
    assert "far" not in modes


def test_grid_points_outside_the_grid_match_nothing_but_large_parcels():
    parcels = unit_squares(3, x0=10.0)
    records = [("west", GeoPoint(-179.5, 0.5)), ("east", GeoPoint(179.5, 0.5)),
               ("south", GeoPoint(10.5, -84.0)), ("north", GeoPoint(10.5, 84.0)),
               ("in", GeoPoint(10.5, 0.5))]
    assert assigned(records, parcels, DEFAULT_DILATION_M) == [
        ("in", [("S0", "inside")])]
    wide = parcels + [Parcel(id="W", rings=(((-170.0, -10.0), (170.0, -10.0),
                                             (170.0, 10.0), (-170.0, 10.0),
                                             (-170.0, -10.0)),))]
    got = assigned(records[:2] + records[4:], wide, DEFAULT_DILATION_M)
    assert got == [("in", [("S0", "inside"), ("W", "inside")])]
    assert got == oracle_assign(records[:2] + records[4:], wide, DEFAULT_DILATION_M)


def test_grid_holds_boxes_that_a_negative_pad_narrows():
    """Parcel latitudes are not range-checked, and a box centred past 90
    degrees gets a negative longitude pad: its padded box is narrower than
    the box, or inverted, yet a point inside the box is inside the parcel."""
    parcels = [Parcel(id=f"N{k}", rings=(((k, 89.5), (k + 1, 89.5), (k + 1, 91),
                                          (k, 91), (k, 89.5)),))
               for k in range(4)]
    records = [(f"i{k}", GeoPoint(k + 0.5, 89.9)) for k in range(4)]
    records.append(("edge", GeoPoint(2.0, 89.6)))
    got = assigned(records, parcels, 1000.0)
    assert got == oracle_assign(records, parcels, 1000.0)
    assert dict(got)["edge"] == [("N1", "inside"), ("N2", "inside")]


def test_grid_over_no_parcels():
    assert geodata._grid_index([], [], [], []) == (1.0, 1.0, {}, [])
    assert assign([("x", GeoPoint(0.5, 0.5))], []) == []


def test_grid_over_boxes_of_zero_width():
    """Three collinear vertices make a ring that validates and has a box of
    zero width; with no buffer the median cell would be empty."""
    parcels = [Parcel(id=f"V{k}", rings=(((k, 0.0), (k, 1.0), (k, 2.0),
                                          (k, 0.0)),)) for k in range(3)]
    assert grid_of(parcels, 0.0)[0] == geodata._GRID_MIN_CELL
    records = [("on", GeoPoint(1.0, 0.5)), ("off", GeoPoint(1.5, 0.5)),
               ("end", GeoPoint(2.0, 2.0))]
    got = assigned(records, parcels, 0.0)
    assert got == [("end", [("V2", "inside")]), ("on", [("V1", "inside")])]
    assert got == oracle_assign(records, parcels, 0.0)


def test_grid_with_no_buffer_indexes_the_boxes_themselves():
    rng = random.Random(5)
    parcels = [Parcel(id=f"p{k}", rings=(star_ring(
        rng, 0.004 * (k % 8), 0.004 * (k // 8), 0.0005, 0.002, 9),))
        for k in range(40)]
    records = [(f"i{n}", GeoPoint(rng.uniform(-0.003, 0.033),
                                  rng.uniform(-0.003, 0.023)))
               for n in range(400)]
    records += [(f"v{k}", GeoPoint(*pc.rings[0][0])) for k, pc in enumerate(parcels)]
    got = assigned(records, parcels, 0.0)
    assert got == oracle_assign(records, parcels, 0.0)
    assert all(mode == "inside" for _, modes in got for _, mode in modes)


def test_assign_tests_containment_once_per_pair_whose_box_holds_the_point(
        monkeypatch):
    rng = random.Random(8)
    parcels = [Parcel(id=f"p{k}", rings=(star_ring(
        rng, 0.003 * (k % 10), 0.003 * (k // 10), 0.0005, 0.0025, 10),))
        for k in range(100)]
    parcels.append(square_parcel("B", side=0.05, x0=-0.01, y0=-0.01))
    records = [(f"i{n}", GeoPoint(rng.uniform(-0.02, 0.05),
                                  rng.uniform(-0.02, 0.05)))
               for n in range(1000)]
    calls = Counter()
    real = geodata.contains

    def counting(parcel, point):
        calls[parcel.id, point] += 1
        return real(parcel, point)

    monkeypatch.setattr(geodata, "contains", counting)
    assign(records, parcels, DEFAULT_DILATION_M)
    boxes = {pc.id: geodata._bbox(pc) for pc in parcels}
    want = Counter({(pid, p): 1 for _, p in records
                    for pid, (x0, y0, x1, y1) in boxes.items()
                    if x0 <= p.lon <= x1 and y0 <= p.lat <= y1})
    assert calls == want


def test_assignments_cut_line_names_source_and_line():
    text = assignments_to_jsonl(assign([("i1", GeoPoint(0.5, 0.5)),
                                        ("i2", GeoPoint(0.2, 0.2))],
                                       [square_parcel()])).decode()
    cut = '{"provenance": {}}\n' + text[:-10]
    with pytest.raises(JSONLinesError, match=r"^out/assignments.jsonl:3: bad JSON"):
        assignments_from_jsonl(cut, "out/assignments.jsonl",
                               {square_parcel().id})


#: line ends ``str.splitlines`` knows besides the line feed
UNICODE_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_jsonl_raw_unicode_line_end_inside_a_string_read():
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P\u2028Q\x85R", "mode": "inside"}\n'
            '{"image": "j", "parcel": "S", "mode": "dilated"}\n')
    known = {"P\u2028Q\x85R", "S"}
    out = assignments_from_jsonl(text, "src", known)
    assert [(a.image_id, a.modes) for a in out] == [
        ("i", {"P\u2028Q\x85R": "inside"}), ("j", {"S": "dilated"})]
    # line numbers still count line feeds only
    with pytest.raises(JSONLinesError, match=r"^src:3: bad JSON"):
        assignments_from_jsonl(text.replace('"j"', "j"), "src", known)


@given(st.lists(st.text(alphabet=st.sampled_from("ab" + UNICODE_LINE_ENDS),
                        min_size=1, max_size=6),
                min_size=1, max_size=4, unique=True))
def test_assignments_with_unicode_line_ends_round_trip(parcel_ids):
    a = Assignment(image_id="i\u2028" + parcel_ids[0],
                   modes={pid: "inside" for pid in parcel_ids})
    text = assignments_to_jsonl([a]).decode()
    # the writer escapes the line ends below U+0020 and writes the rest
    # raw, as JSON allows; escaped, they read the same
    escaped = text
    for c in "\x85\u2028\u2029":
        escaped = escaped.replace(c, json.dumps(c)[1:-1])
    for t in (text, escaped):
        again = assignments_from_jsonl(t, "src", set(parcel_ids))
        assert [(b.image_id, b.modes) for b in again] == [(a.image_id, a.modes)]


@pytest.mark.parametrize("line", ["5", '"x"', "[1]", "null"])
def test_jsonl_line_that_is_not_an_object_rejected(line):
    text = '{"provenance": {}}\n' + line + "\n"
    with pytest.raises(JSONLinesError,
                       match=r"^src:2: expected a JSON object, got \w+$"):
        list(jsonl_rows(text, "src"))


@pytest.mark.parametrize("row,key", [
    ('{"image": "i", "mode": "inside"}', "parcel"),
    ('{"image": "i", "parcel": "P"}', "mode"),
])
def test_assignment_row_lacking_a_field_rejected(row, key):
    text = '{"provenance": {}}\n' + row + "\n"
    with pytest.raises(JSONLinesError, match=f"^src:2: row lacks '{key}'$"):
        assignments_from_jsonl(text, "src", {"P"})


@pytest.mark.parametrize("mode", ['"bogus"', '"Inside"', "null", "1",
                                  '["inside"]'])
def test_assignment_mode_that_is_not_inside_or_dilated_rejected(mode):
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P", "mode": ' + mode + "}\n")
    with pytest.raises(JSONLinesError,
                       match="^src:2: mode must be 'inside' or 'dilated',"
                             " got "):
        assignments_from_jsonl(text, "src", {"P"})


@pytest.mark.parametrize("key", ["image", "parcel"])
@pytest.mark.parametrize("value,kind", [
    ("[1]", "list"), ('{"a": "P"}', "dict"), ("5", "int")])
def test_assignment_id_that_is_not_a_string_rejected(key, value, kind):
    row = {"image": '"i"', "parcel": '"P"', "mode": '"inside"', key: value}
    text = ('{"provenance": {}}\n{'
            + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
    with pytest.raises(JSONLinesError,
                       match=f"^src:2: {key} must be a string, got {kind}$"):
        assignments_from_jsonl(text, "src", {"P"})


def test_jsonl_line_nested_too_deeply_rejected():
    text = '{"provenance": {}}\n{"a": ' + "[" * 100000 + "\n"
    with pytest.raises(JSONLinesError,
                       match=r"^src:2: bad JSON: nested too deeply$"):
        list(jsonl_rows(text, "src"))


def test_repeated_assignment_pair_rejected():
    text = ('{"provenance": {}}\n'
            '{"image": "i", "parcel": "P", "mode": "inside"}\n'
            '{"image": "i", "parcel": "Q", "mode": "inside"}\n'
            '{"image": "i", "parcel": "P", "mode": "dilated"}\n')
    with pytest.raises(JSONLinesError,
                       match="^src:4: repeated pair of image i and parcel P$"):
        assignments_from_jsonl(text, "src", {"P", "Q"})
    # the same parcel for another image is no repeat
    out = assignments_from_jsonl(text.replace('"i", "parcel": "P", "mode": "d',
                                              '"j", "parcel": "P", "mode": "d'),
                                 "src", {"P", "Q"})
    assert [(a.image_id, a.modes) for a in out] == [
        ("i", {"P": "inside", "Q": "inside"}), ("j", {"P": "dilated"})]


def test_jsonl_lone_surrogate_in_text_is_not_utf8():
    text = '{"provenance": {}}\n{"image": "i\ud800"}\n'
    with pytest.raises(JSONLinesError, match="^src:2: not UTF-8: "):
        list(jsonl_rows(text, "src"))


#: JSON lines, blank lines of ASCII whitespace, and lines with a raw
#: character past ASCII
JSONL_LINES = st.one_of(
    st.dictionaries(st.text(max_size=3),
                    st.integers(-2 ** 63, 2 ** 64 - 1) | st.text(max_size=4),
                    max_size=3).map(lambda d: json.dumps(d, ensure_ascii=False)),
    st.text(alphabet=" \t\r\x0b\x0c", max_size=3))


@given(lines=st.lists(JSONL_LINES, max_size=6), end=st.sampled_from(["", "\n"]))
def test_jsonl_rows_over_a_binary_file_reads_as_over_its_text(tmp_path_factory,
                                                              lines, end):
    text = "\n".join(lines) + end
    path = tmp_path_factory.mktemp("j") / "x.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as f:
        from_file = list(jsonl_rows(f, "src"))
    assert from_file == list(jsonl_rows(text, "src"))
    assert [obj for _, obj in from_file] == [
        json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# JSON decoding: orjson reads every JSON input


def read_rows(line):
    """``repr`` of the rows ``jsonl_rows`` reads from one line, given as
    ``str`` or as bytes, which tells 1 from 1.0 and -0.0 from 0.0."""
    lines = line if isinstance(line, str) else [line]
    return repr([row for _, row in jsonl_rows(lines, "src")])


def nested(levels: int, inner=1) -> list:
    """``inner`` inside ``levels`` lists."""
    value = [inner]
    for _ in range(levels - 1):
        value = [value]
    return value


BIG = 10 ** 25

#: a line that is not JSON as orjson reads it
BAD = "bad JSON"

#: JSON lines and the row each reads as, or ``BAD``; a comment says what
#: ``json.loads`` read instead, where it read something else
EDGE_ROWS = [
    (f'{{"id": {BIG}, "label": -{BIG}}}',
     {"id": 1e25, "label": -1e25}),                         # the integers
    ('{"v": [9223372036854775807, -9223372036854775808,'
     ' 18446744073709551615]}', {"v": [2 ** 63 - 1, -2 ** 63, 2 ** 64 - 1]}),
    ('{"v": [-9223372036854775809, 18446744073709551616]}',
     {"v": [-2.0 ** 63, 2.0 ** 64]}),                       # the integers
    ('{"v": 1' + "0" * 400 + "}", BAD),                     # the integer
    ('{"v": 1e400}', BAD), ('{"v": [-1e400]}', BAD),        # infinities
    ('{"v": [NaN]}', BAD), ('{"v": Infinity}', BAD),        # the floats
    ('{"v": -Infinity}', BAD),
    ('{"id": "r\\ud800"}', BAD), ('{"v": "\\udc00x"}', BAD),  # the strings
    ('{"v": "\\ud83d\\ude00"}', {"v": "\U0001F600"}),
    ('{"v": [-0, -0.0, 1E5, 1e-400, -1e-400]}',
     {"v": [0, -0.0, 1e5, 0.0, -0.0]}),
    ('{"v": [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]}',
     {"v": [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]}),
    ('{"v": [9007199254740993.0, 9007199254740993.000000000000000000001]}',
     {"v": [9007199254740992.0, 9007199254740994.0]}),
    ('{"a": 1, "a": 2}', {"a": 2}),
    ('{"a": "\u00e9\u2028"}', {"a": "\u00e9\u2028"}),
    ('{"v": ' + "[" * 253 + "1" + "]" * 253 + "}", {"v": nested(253)}),
    ('{"v": ' + "[" * 254 + "1" + "]" * 254 + "}", {"v": nested(254)}),
    ('{"v": ' + "[" * 255 + "1" + "]" * 255 + "}", BAD),    # the lists
    ('{"v": "' + "[" * 300 + '"}', {"v": "[" * 300}),
    ('{"a": "a\tb"}', BAD), ("\ufeff{}", BAD), ('{"a": 1', BAD),
    ('{"a": [1,]}', BAD), ('{"a": 01}', BAD), ('{"a": 1.}', BAD),
    ('{"a": 1} x', BAD),
]


@pytest.mark.parametrize("text,want", EDGE_ROWS,
                         ids=[text[:32] for text, _ in EDGE_ROWS])
def test_jsonl_rows_read_edge_lines_as_orjson_does(text, want):
    """Every line is read by orjson: an integer literal past 64 bits is its
    nearest float, and what orjson refuses is a bad line, also where json
    read it. A line may nest 255 containers, as deep as the writer goes."""
    for line in (text, text.encode("utf-8")):
        if want is BAD:
            with pytest.raises(JSONLinesError, match="^src:1: bad JSON: "):
                read_rows(line)
        else:
            assert read_rows(line) == repr([want])


@pytest.mark.parametrize("big", [2 ** 64, -2 ** 63 - 1, BIG, 10 ** 300])
def test_integer_past_64_bits_reads_as_its_nearest_float_at_any_depth(big):
    for text, value in ((f'{{"v": {big}}}', float(big)),
                        (f'{{"v": [{big}]}}', [float(big)]),
                        (f'{{"v": {{"w": [[{big}, 1]]}}}}',
                         {"w": [[float(big), 1]]})):
        assert read_rows(text) == repr([{"v": value}])


def test_bytes_that_are_not_utf8_name_their_line_or_offset():
    for raw in (b'{"a": "\xff"}', b'{"a": "\xed\xa0\x80"}', b'{"a": "\xc3"}'):
        with pytest.raises(UnicodeDecodeError) as e:
            raw.decode("utf-8")
        with pytest.raises(JSONLinesError, match=re.escape(
                f"src:1: not UTF-8: {e.value.reason}")):
            read_rows(raw)
        with pytest.raises(GeoJSONParseError, match=re.escape(
                f"not UTF-8 at byte offset {e.value.start}: {e.value.reason}")):
            parse_parcels(raw, TAX)


def test_deep_document_is_refused_before_orjson_recurses():
    """orjson's reader recurses once a level and overflows the C stack some
    100k levels down; nesting is counted outside strings first, so such a
    text is a typed error, and brackets inside strings count for nothing."""
    deep = "[" * 300_000 + "]" * 300_000
    with pytest.raises(JSONLinesError, match=r"^src:1: bad JSON: nested too"
                                             r" deeply$"):
        read_rows('{"a": ' + deep + "}")
    with pytest.raises(GeoJSONParseError,
                       match="^malformed GeoJSON: nested too deeply$"):
        parse_parcels(deep, TAX)
    quoted = '\\"' + "[" * 300 + '\\\\'
    assert read_rows('{"a": "' + quoted + '", "b": ' + "[" * 200 + "]" * 200
                     + "}") == repr([{"a": '"' + "[" * 300 + "\\",
                                      "b": nested(199, [])}])
    # an escaped backslash before a closing quote ends the string
    assert read_rows('{"a": "x\\\\", "b": "' + "[" * 300 + '"}') == repr(
        [{"a": "x\\", "b": "[" * 300}])


# each writes a float literal, or for an integral float below 1e17 an
# integer literal within 64 bits
FLOAT_FORMATS = (repr, "{:.17g}".format, "{:.16e}".format, "{:.30e}".format,
                 "{:.20f}".format)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
       st.integers(), st.sampled_from(FLOAT_FORMATS))
def test_jsonl_numbers_read_as_json_reads_them_within_64_bits(values, n, fmt):
    """A float literal reads as json reads it, the nearest float, and an
    integer literal as its integer within 64 bits and its nearest float
    past them."""
    text = f'{{"id": {n}, "v": [{", ".join(map(fmt, values))}]}}'
    want = json.loads(text)
    if not -2 ** 63 <= n < 2 ** 64:
        want["id"] = float(n)
    assert read_rows(text) == read_rows(text.encode()) == repr([want])


# ---------------------------------------------------------------------------
# JSON encoding


def as_json(value):
    """``value`` as JSON holds it: tuples and arrays as lists."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [as_json(v) for v in value]
    if isinstance(value, dict):
        return {k: as_json(v) for k, v in value.items()}
    return value


def read_back(value, indent=False):
    """``json.dumps`` of what the reader reads from ``encode_json``'s text
    of ``value``, which tells 1 from 1.0, -0.0 from 0.0 and one key order
    from another, or the type of what the writer raises."""
    try:
        text = encode_json(value, indent)
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return type(e)
    return json.dumps(geodata._loads(text))


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


#: zeros, subnormals, the bounds of the float range, and the floats about
#: 1e-4 and 1e16, where orjson's notation and ``repr``'s part
EDGE_FLOATS = ([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308] + around(1e-4) + around(1e16))

finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.integers(0, 2 ** 64 - 1).map(float_from_bits).filter(
                     math.isfinite)
                 | st.sampled_from(EDGE_FLOATS))
#: non-ASCII text, control characters and line ends (no lone surrogate,
#: which UTF-8 cannot hold)
texts = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(
    "\x7f\x00\x1f\n\t\"\\/\u00e9\u2028\u2029"))
#: the values the writer takes: integers within 64 bits
values = st.recursive(
    st.none() | st.booleans() | finite_floats | texts
    | st.integers(-2 ** 63, 2 ** 64 - 1),
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(texts, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=1000, deadline=None)
@given(values, st.booleans())
def test_encode_json_reads_back_as_written(value, indent):
    assert read_back(value, indent) == json.dumps(as_json(value))
    if not indent:  # a row is one line
        assert b"\n" not in encode_json(value)


@dataclass
class Point:
    x: float


class Name(str):
    pass


#: edge values, each with what reads back from the writer's text, ``...``
#: for the value as JSON holds it: a NaN reads back as null, a dataclass
#: as an object of its fields, and an integer past 64 bits or a key that
#: is not a string is refused
EDGE_VALUES = [
    ({"a": [1, 2.5, None, True], "b": {"c": "d", "e": []}, "f": {}}, ...),
    ([0.0, -0.0, 1e-4, 9999999999999998.0, 1e16, 9.999999999999999e-05], ...),
    ("caf\u00e9", ...), ("\x7f", ...), ({"\x7f": 1}, ...),
    ({"\u00e9": 1}, ...),
    ("\x00\x1f\n", ...), ([2 ** 64 - 1, -2 ** 63], ...),
    ([2 ** 64 - 1, 2 ** 64], TypeError), ({1: "a", None: "b"}, TypeError),
    ((1, (2, 3)), ...), ([math.nan], [None]), (Point(2.0), {"x": 2.0}),
    (Name("x"), "x"),
]


@pytest.mark.parametrize("value,back", EDGE_VALUES,
                         ids=[repr(value) for value, _ in EDGE_VALUES])
def test_encode_json_edge_values(value, back):
    want = as_json(value) if back is ... else back
    for indent in (False, True):
        assert read_back(value, indent) == (
            want if want is TypeError else json.dumps(want))


def test_encode_json_refuses_what_orjson_refuses():
    """orjson is the one writer: an integer past 64 bits and a string with a
    lone surrogate raise its ``JSONEncodeError``, a ``TypeError``, at any
    depth and beside a numpy array, as its other refusals do. No ``json``
    fallback is left to write them."""
    assert not hasattr(geodata, "json")
    refused = [2 ** 64, -2 ** 63 - 1, [[{"a": 2 ** 70}]], "\ud800",
               {"k\udfff": 1}, [{"id": "lone\udc80",
                                 "v": np.array([1.5, -0.0])}]]
    circular = [1]
    circular.append(circular)
    for value in [*refused, {1: "a"}, nested(256), circular, object(), b"x",
                  {1}]:
        for indent in (False, True):
            with pytest.raises(TypeError):
                encode_json(value, indent)
    taken = [2 ** 64 - 1, -2 ** 63, "caf\u00e9\u2028\x00", 1e16, 5e-324,
             math.nan, np.arange(3.0), np.arange(6.0)[::2], nested(255)]
    for value in taken:
        for indent in (False, True):
            assert geodata._loads(encode_json(value, indent)) == (
                None if value is math.nan else as_json(value))


@pytest.mark.parametrize("values", [
    [0.0, -0.0], [-0.0], [5e-324, -5e-324, 2.2250738585072009e-308],
    [1.5, 2.2250738585072014e-308], [1e-4, -1e-4],
    [float(np.nextafter(1e-4, 0))], [3.0, float(np.nextafter(1e-4, 0))],
    [1e16], [float(np.nextafter(1e16, 0))],
    [-float(np.nextafter(1e16, 0)), 1.0], [1.0, math.nan], [math.inf, 2.0],
    [-math.inf], [], [1e-05, 1e+16, 0.1],
], ids=repr)
def test_encode_json_edge_vectors(values):
    """A float64 vector reads back as its values, and a non-finite value
    as null, which is why ``make_city`` checks its blocks."""
    vec = np.array(values, dtype=np.float64)
    want = [v if math.isfinite(v) else None for v in values]
    assert read_back({"v": vec}) == json.dumps({"v": want})


def test_encode_json_non_contiguous_slice_and_other_dtypes():
    base = np.linspace(-3.0, 3.0, 13)
    assert read_back(base[::2]) == json.dumps(base[::2].tolist())
    assert read_back(base[::-1]) == json.dumps(base[::-1].tolist())
    # a float32 is written as the shortest text that reads back to it
    single = np.array([0.1, 2.5], dtype=np.float32)
    assert read_back(single) == "[0.1, 2.5]"
    assert np.array(geodata._loads(encode_json(single)),
                    np.float32).tolist() == single.tolist()


def test_encode_json_writes_plain_vectors_with_orjson():
    for vec in ([0.25, -0.0, 1e-4, -9999999999999998.0], [0.25, 1e-5],
                [0.25, 1e16], [5e-324, 1.0]):
        assert encode_json(np.array(vec)) == encode_json(vec) == \
            orjson.dumps(vec)


# ---------------------------------------------------------------------------
# malformed input raises only typed errors

#: valid manifest rows: a provenance header, then records with each kind
#: of field
MANIFEST_ROWS = [
    {"provenance": {"seed": 1, "config_sha256": "ab"}},
    {"id": "r0", "domain": "A", "label": "restaurant", "lon": 1.5,
     "lat": -2.0, "features": {"o": [0.5, -1.0], "s": [2.0]}},
    {"id": 7, "domain": "B", "label": 3, "features": {"o": [1, 0.25],
                                                       "s": [-0.0]}},
]

#: a valid FeatureCollection: a Polygon with an id and a MultiPolygon
#: named by its properties
PARCELS = {"type": "FeatureCollection", "features": [
    {"type": "Feature", "id": "P", "properties": {"landuse": ["restaurant"]},
     "geometry": {"type": "Polygon", "coordinates": [
         [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
         [[0.25, 0.25], [0.5, 0.25], [0.5, 0.5], [0.25, 0.25]]]}},
    {"type": "Feature", "properties": {"id": 5},
     "geometry": {"type": "MultiPolygon", "coordinates": [
         [[[2.0, 2.0], [3.0, 2.0], [3.0, 3.0], [2.0, 2.0]]]]}}]}

#: what a mutation splices in: literals orjson refuses, integers past 64
#: bits, values of every kind, deep nesting and stray punctuation or bytes
SPLICES = [b"NaN", b"-Infinity", b"1e400", b'"\\ud800"', b'"\\udc80x"',
           b"1" * 30, b"-" + b"9" * 30, b"18446744073709551616", b"null",
           b"true", b"1.5", b"[1]", b"{}", b'{"a": [1]}', b'"x"', b'"\x00"',
           b"[" * 100 + b"1" + b"]" * 100, b"[" * 300 + b"]" * 300, b"[", b"]",
           b"{", b"}", b",", b":", b'"', b"\\", b"\xff", b"\xc3", b"\n",
           b"\xef\xbb\xbf"]


@st.composite
def malformed(draw, valid: bytes):
    """``valid`` after one to three mutations: a cut, a byte flipped, a
    splice inserted, or a member's value replaced by a splice."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("cut", "flip", "insert", "replace")))
        if op == "cut":
            del data[at:]
        elif op == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(SPLICES))
        elif b":" in data:  # the value after a colon, to its comma or brace
            starts = [k + 1 for k, c in enumerate(data) if c == ord(":")]
            start = draw(st.sampled_from(starts))
            end = start
            while end < len(data) and data[end] not in b",}\n":
                end += 1
            data[start:end] = draw(st.sampled_from(SPLICES))
    return bytes(data)


MANIFEST_TEXT = b"".join(encode_json(row) + b"\n" for row in MANIFEST_ROWS)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed(MANIFEST_TEXT))
def test_malformed_manifest_raises_only_typed_errors(tmp_path, data):
    """``jsonl_rows`` raises only ``JSONLinesError``, and ``load_manifest``
    only ``ManifestError``, a label name the taxonomy lacks included;
    never a raw ValueError, TypeError, UnicodeDecodeError, RecursionError
    or TaxonomyError."""
    try:
        list(jsonl_rows(data.split(b"\n"), "src"))
    except JSONLinesError:
        pass
    path = tmp_path / "m.jsonl"
    path.write_bytes(data)
    try:
        load_manifest(path, TAX)
    except ManifestError:
        pass


@settings(max_examples=500, deadline=None)
@given(st.booleans().flatmap(lambda indent: malformed(
    encode_json(PARCELS, indent))))
def test_malformed_parcels_raise_only_typed_errors(data):
    try:
        parse_parcels(data, TAX)
    except (GeoJSONParseError, ParcelValidationError):
        pass
