"""The parcel entry behind ``Pipeline.load_parcels``: a hit gives the parsed
parcels exactly, and anything else is a miss that parses."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from landuse import cli, entry as entries, geodata
from landuse.cli import Pipeline
from landuse.geodata import (GeoJSONParseError, ParcelValidationError,
                             parse_parcels, read_parcel_entry,
                             write_parcel_entry)
from landuse.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()

#: endings that a fixed-width array or a careless codec would lose
ID_TAILS = ("", "\x00", "\U0001F600", "é\x00")


def assert_same_parcels(got, want):
    """Equal parcels, with every coordinate of the same type and sign: the
    ``repr`` tells 1 from 1.0 and -0.0 from 0.0."""
    assert got == want
    assert all(type(p) is geodata.Parcel for p in got)
    assert repr([(p.id, p.rings) for p in got]) == \
        repr([(p.id, p.rings) for p in want])


# ---------------------------------------------------------------------------
# parcels to cache


def square(x0, y0, side):
    return [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side],
            [x0, y0 + side], [x0, y0]]


@st.composite
def polygons(draw):
    """One polygon, an exterior square and perhaps a square hole, with
    integer, float or mixed (integer lon, float lat) coordinates, each
    inside the range ``check_position`` allows."""
    kind = draw(st.sampled_from(("int", "float", "mixed")))
    if kind == "float":
        x0 = draw(st.sampled_from((-0.0, 0.0)) | st.floats(-170, 170))
        y0 = draw(st.sampled_from((-0.0, 0.0)) | st.floats(-80, 80))
        side = draw(st.floats(0.01, 5.0))
        quarter = side / 4
    else:
        x0, y0 = draw(st.integers(-170, 168)), draw(st.integers(-80, 78))
        side = 4 * draw(st.integers(1, 3))
        quarter = side // 4
    rings = [square(x0, y0, side)]
    if draw(st.booleans()):
        rings.append(square(x0 + quarter, y0 + quarter, 2 * quarter))
    if kind == "mixed":
        rings = [[[x, float(y)] for x, y in ring] for ring in rings]
    return rings


@st.composite
def collections(draw):
    """A valid FeatureCollection of 0-4 features. Each id starts with its
    feature's index, so no two parcel ids repeat."""
    features = []
    for i in range(draw(st.integers(0, 4))):
        fid = f"{i}{draw(st.text(max_size=3))}{draw(st.sampled_from(ID_TAILS))}"
        polys = draw(st.lists(polygons(), min_size=1, max_size=3))
        multi = len(polys) > 1 or draw(st.booleans())
        feature = {"type": "Feature", "id": fid, "geometry": {
            "type": "MultiPolygon" if multi else "Polygon",
            "coordinates": polys if multi else polys[0]}}
        landuse = draw(st.none() | st.lists(st.sampled_from(TAX.fine_classes),
                                            max_size=3))
        if landuse is not None:
            feature["properties"] = {"landuse": landuse}
        features.append(feature)
    return json.dumps({"type": "FeatureCollection", "features": features})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(collections())
def test_hit_gives_the_parsed_parcels_exactly(tmp_path_factory, document):
    data = document.encode("utf-8")
    parsed = parse_parcels(data, TAX)
    entry = tmp_path_factory.mktemp("c") / "out" / "parcels.lupar"
    assert read_parcel_entry(entry, data, TAX) is None
    write_parcel_entry(entry, data, TAX, parsed)
    written = entry.read_bytes()
    assert_same_parcels(read_parcel_entry(entry, data, TAX), parsed)

    # the same inputs elsewhere give the same entry
    elsewhere = tmp_path_factory.mktemp("c") / "x.lupar"
    write_parcel_entry(elsewhere, data, TAX, parse_parcels(document, TAX))
    assert elsewhere.read_bytes() == written


def test_hit_builds_parcels_without_validating(tmp_path, monkeypatch):
    data = json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "p", "geometry": {
            "type": "Polygon", "coordinates": [square(0, 0, 1)]}}]}).encode()
    entry = tmp_path / "parcels.lupar"
    write_parcel_entry(entry, data, TAX, parse_parcels(data, TAX))

    def refuse(*args):
        raise AssertionError("validated on a hit")

    monkeypatch.setattr(geodata, "_validate_ring", refuse)
    assert read_parcel_entry(entry, data, TAX)[0].rings == (
        ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)),)
    with pytest.raises(AssertionError, match="validated"):
        geodata.Parcel(id="q", rings=(((0, 0), (1, 0), (1, 1), (0, 0)),))


def test_integer_vertices_parse_and_hit_as_floats(tmp_path):
    """A vertex written as a JSON integer is kept as the float of the same
    value, by the parse and by a hit alike."""
    data = json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "p", "geometry": {
            "type": "Polygon", "coordinates": [square(8, 47, 4),
                                               square(9, 48, 2)]}}]}).encode()
    parsed = parse_parcels(data, TAX)
    assert repr(parsed[0].rings) == repr(tuple(
        tuple((float(x), float(y)) for x, y in ring)
        for ring in (square(8, 47, 4), square(9, 48, 2))))
    entry = tmp_path / "parcels.lupar"
    write_parcel_entry(entry, data, TAX, parsed)
    assert_same_parcels(read_parcel_entry(entry, data, TAX), parsed)


# ---------------------------------------------------------------------------
# through Pipeline.load_parcels


def write_parcels(root, coordinates=None, landuse=("bakery",)):
    """A two-feature parcels file under ``root/data``; its path."""
    path = root / "data" / "parcels.geojson"
    path.parent.mkdir(parents=True, exist_ok=True)
    features = [
        {"type": "Feature", "id": "A", "properties": {"landuse": list(landuse)},
         "geometry": {"type": "Polygon", "coordinates":
                      coordinates or [square(0.0, 0.0, 1.0),
                                      square(0.25, 0.25, 0.5)]}},
        {"type": "Feature", "id": "B", "geometry": {
            "type": "MultiPolygon", "coordinates": [[square(2, 0, 1)],
                                                    [square(4, 0, 1)]]}}]
    path.write_text(json.dumps({"type": "FeatureCollection",
                                "features": features}), encoding="utf-8")
    return path


def pipeline(root, out="out", **extra):
    return Pipeline({"seed": "1", "parcels": "data/parcels.geojson",
                     "out_dir": out, **extra}, root)


@pytest.fixture
def parses(monkeypatch):
    """The number of times a stage has parsed a parcels file so far."""
    calls = []
    real = cli.parse_parcels

    def counting(data, taxonomy):
        calls.append(1)
        return real(data, taxonomy)

    monkeypatch.setattr(cli, "parse_parcels", counting)
    return calls


def test_load_parses_once_then_hits(tmp_path, parses):
    path = write_parcels(tmp_path)
    p = pipeline(tmp_path)
    first = p.load_parcels()
    assert len(parses) == 1
    written = (tmp_path / "out" / "parcels.lupar").read_bytes()
    for _ in range(3):
        assert_same_parcels(p.load_parcels(), first)
    assert len(parses) == 1
    assert (tmp_path / "out" / "parcels.lupar").read_bytes() == written
    assert_same_parcels(first, parse_parcels(path.read_text(), TAX))


def test_parcels_byte_changed_is_a_miss_and_rewrites(tmp_path, parses):
    path = write_parcels(tmp_path)
    p = pipeline(tmp_path)
    p.load_parcels()
    entry = tmp_path / "out" / "parcels.lupar"
    before = entry.read_bytes()
    path.write_text(path.read_text().replace("0.25", "0.3"), encoding="utf-8")
    parcels = p.load_parcels()
    assert len(parses) == 2
    assert parcels[0].rings[1][0] == (0.3, 0.3)
    assert entry.read_bytes() != before
    assert_same_parcels(read_parcel_entry(entry, path.read_bytes(), TAX), parcels)


def test_other_taxonomy_is_a_miss_and_rewrites(tmp_path, parses):
    write_parcels(tmp_path)
    p = pipeline(tmp_path)
    p.load_parcels()
    entry = tmp_path / "out" / "parcels.lupar"
    before = entry.read_bytes()
    name = TAX.fine_classes[-1]
    assert name != "bakery"
    (tmp_path / "tax.txt").write_text(
        TAX.to_text().replace(name, name + "_x"), encoding="utf-8")
    other = pipeline(tmp_path, taxonomy="tax.txt")
    assert other.taxonomy.fine_classes != TAX.fine_classes
    assert other.load_parcels() == p.load_parcels()
    assert len(parses) == 3
    assert entry.read_bytes() == before


def test_unwritable_out_dir_parses_each_time(tmp_path, parses):
    write_parcels(tmp_path)
    (tmp_path / "file").write_bytes(b"")
    p = pipeline(tmp_path, out="file/out")
    assert_same_parcels(p.load_parcels(), pipeline(tmp_path).load_parcels())
    p.load_parcels()
    assert len(parses) == 3


@pytest.mark.parametrize("big", [2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 181])
def test_entry_of_an_older_version_for_parcels_out_of_range_is_refused(
        tmp_path, parses, monkeypatch, big):
    """Version 2 parsed parcels out of lon/lat range and gave them an entry
    (integers up to 2**53). Such an entry is a miss now, and the file is
    parsed and refused, whatever entry exists."""
    ring = [[0, 0], [big, 0], [big, 1], [0, 1], [0, 0]]
    data = write_parcels(tmp_path, coordinates=[ring]).read_bytes()
    parcels = [geodata.Parcel(id="A", rings=(tuple(map(tuple, ring)),))]
    entry = tmp_path / "out" / "parcels.lupar"
    with monkeypatch.context() as old:
        old.setattr(geodata, "PARCEL_ENTRY_VERSION", 2)
        write_parcel_entry(entry, data, TAX, parcels)
        assert read_parcel_entry(entry, data, TAX) is not None
    written = entry.read_bytes()
    assert read_parcel_entry(entry, data, TAX) is None
    for _ in range(2):
        with pytest.raises(GeoJSONParseError, match=f"^feature A: ring 0,"
                           f" position 1: longitude {big} out of range"):
            pipeline(tmp_path).load_parcels()
    assert len(parses) == 2
    assert entry.read_bytes() == written


# ---------------------------------------------------------------------------
# cut and garbled entries


@pytest.fixture(scope="module")
def valid_entry(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    write_parcels(root)
    p = pipeline(root)
    parcels = p.load_parcels()
    entry = root / "out" / "parcels.lupar"
    return p, entry, entry.read_bytes(), parcels


def assert_miss_then_rewritten(valid_entry, data):
    p, entry, whole, parcels = valid_entry
    entry.write_bytes(data)
    assert read_parcel_entry(entry, p.path("parcels").read_bytes(), TAX) is None
    assert_same_parcels(p.load_parcels(), parcels)
    assert entry.read_bytes() == whole


def test_every_proper_prefix_is_a_miss(valid_entry):
    whole = valid_entry[2]
    for cut in range(len(whole)):
        assert_miss_then_rewritten(valid_entry, whole[:cut])


def test_trailing_bytes_are_a_miss(valid_entry):
    whole = valid_entry[2]
    for extra in (b"\x00", b"LUPAR", whole):
        assert_miss_then_rewritten(valid_entry, whole + extra)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_byte_corruption_is_a_miss(valid_entry, data):
    whole = valid_entry[2]
    pos = data.draw(st.integers(0, len(whole) - 1))
    mask = data.draw(st.integers(1, 255))
    garbled = bytearray(whole)
    garbled[pos] ^= mask
    assert_miss_then_rewritten(valid_entry, bytes(garbled))


def test_entry_of_another_version_or_kind_is_a_miss(valid_entry, monkeypatch):
    p, entry, whole, _ = valid_entry
    data = p.path("parcels").read_bytes()
    entry.write_bytes(whole)
    monkeypatch.setattr(geodata, "PARCEL_ENTRY_VERSION",
                        geodata.PARCEL_ENTRY_VERSION + 1)
    assert read_parcel_entry(entry, data, TAX) is None
    monkeypatch.undo()
    assert read_parcel_entry(entry, data, TAX) is not None
    # a table-cache entry is not a parcel entry
    table = p.out_dir / "t.lutab"
    table.write_bytes(whole.replace(b"LUPAR", b"LUTAB", 1))
    assert read_parcel_entry(table, data, TAX) is None


@pytest.mark.parametrize("k", [2, 4])   # rings per parcel, vertices per ring
def test_counts_that_do_not_sum_to_the_items_are_a_miss(valid_entry, tmp_path,
                                                        k):
    p, entry, whole, parcels = valid_entry
    magic, version = geodata.PARCEL_ENTRY_MAGIC, geodata.PARCEL_ENTRY_VERSION
    entry.write_bytes(whole)
    items = entries.read_entry(entry, magic, version)
    assert items[2].tolist() == [len(q.rings) for q in parcels]
    assert items[4].tolist() == [len(r) for q in parcels for r in q.rings]
    items[k] = items[k].copy()
    items[k][0] -= 1
    off = tmp_path / "off.lupar"
    entries.write_entry(off, magic, version, items)
    assert entries.read_entry(off, magic, version) is not None
    assert_miss_then_rewritten(valid_entry, off.read_bytes())


# ---------------------------------------------------------------------------
# bad parcels files


@pytest.mark.parametrize("fault,error", [
    (lambda b: b.replace(b'"A"', b'"\xff"'), GeoJSONParseError),         # not UTF-8
    (lambda b: b.replace(b"[0.0, 0.0]", b"[1" + b"0" * 400 + b", 0.0]"),
     GeoJSONParseError),                                                # past float
    (lambda b: b.replace(b"[1.0, 1.0]", b"[1.0, -1.0]", 1),
     ParcelValidationError),                                            # crosses
    (lambda b: b.replace(b"[0.0, 0.0]", b"[0.0, 0.0, 5.0]"),
     GeoJSONParseError),                                                # altitude
    (lambda b: b.replace(b"bakery", b"nothing"), GeoJSONParseError),     # unknown class
    (lambda b: b[:-3], GeoJSONParseError),                               # cut
])
def test_bad_parcels_raise_the_same_with_or_without_an_entry(tmp_path, fault,
                                                             error):
    path = write_parcels(tmp_path)
    stale = pipeline(tmp_path, out="stale")
    stale.load_parcels()
    before = (tmp_path / "stale" / "parcels.lupar").read_bytes()
    path.write_bytes(fault(path.read_bytes()))
    with pytest.raises(error) as plain:
        parse_parcels(path.read_bytes(), TAX)
    for p in (pipeline(tmp_path, out="fresh"), stale):
        with pytest.raises(error) as cached:
            p.load_parcels()
        assert str(cached.value) == str(plain.value)
    assert not (tmp_path / "fresh").exists()
    assert (tmp_path / "stale" / "parcels.lupar").read_bytes() == before
