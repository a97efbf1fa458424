import hashlib
import json
import math
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _oracles import oracle_load_manifest, oracle_stratified_batches
from landuse.dataset import (DOMAIN_A, DOMAIN_B, ImageRecord, ManifestError,
                             load_manifest, read_feature_file,
                             stratified_batches, write_feature_file)
from landuse.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


def manifest_row(i, dim=4, label="restaurant", domain="A"):
    return {"id": f"r{i}", "domain": domain, "label": label,
            "features": {"object": [0.1] * dim}}


# ---------------------------------------------------------------------------
# manifests


def test_load_three_records(tmp_path):
    path = tmp_path / "m.jsonl"
    write_lines(path, [manifest_row(i) for i in range(3)])
    records = load_manifest(path, TAX)
    assert len(records) == 3
    assert records[0].label == TAX.index("restaurant")
    assert records[0].features["object"].shape == (4,)


def test_dimension_mismatch_names_record(tmp_path):
    path = tmp_path / "m.jsonl"
    write_lines(path, [manifest_row(0, dim=64), manifest_row(1, dim=63)])
    with pytest.raises(ManifestError, match="r1"):
        load_manifest(path, TAX)


def test_non_finite_feature_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    row = manifest_row(0)
    row["features"]["object"][2] = float("nan")
    write_lines(path, [row])
    with pytest.raises(ManifestError, match="non-finite"):
        load_manifest(path, TAX)


def test_unknown_domain_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    write_lines(path, [manifest_row(0, domain="C")])
    with pytest.raises(ManifestError, match="domain"):
        load_manifest(path, TAX)


def test_geo_and_unlabeled(tmp_path):
    path = tmp_path / "m.jsonl"
    row = manifest_row(0)
    del row["label"]
    row["lon"], row["lat"] = -122.4, 37.7
    write_lines(path, [row])
    r = load_manifest(path, TAX)[0]
    assert r.label is None
    assert r.geo is not None and r.geo.lat == 37.7


def test_provenance_header_skipped(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"provenance": {"seed": 1}}) + "\n"
                    + json.dumps(manifest_row(0)) + "\n")
    assert len(load_manifest(path, TAX)) == 1


@pytest.mark.parametrize("line", [
    {"idd": "r1", "features": {"object": [0.1] * 4}},
    {}, {"provenance": {"seed": 1}, "note": "x"}, {"provenance_": {}},
], ids=repr)
def test_row_lacking_id_raises_as_the_oracle_does(tmp_path, line):
    path = tmp_path / "m.jsonl"
    write_lines(path, [manifest_row(0), line])
    message = f"{path}:2: row lacks 'id'"
    assert outcome(load_manifest, path)[1] == (ManifestError, message)
    assert outcome(oracle_load_manifest, path)[1] == (ManifestError, message)


def test_feature_file_round_trip(tmp_path):
    vectors = {f"id{i}": np.arange(6, dtype=np.float64) + i for i in range(5)}
    path = tmp_path / "f.lufv"
    write_feature_file(path, vectors)
    ids, X, _ = read_feature_file(path)
    assert ids == list(vectors)
    assert X.dtype == np.float64 and X.flags.c_contiguous
    np.testing.assert_allclose(X, np.array(list(vectors.values())), atol=1e-6)


def test_feature_file_digest_is_the_sha256_of_its_bytes(tmp_path):
    path = tmp_path / "f.lufv"
    write_feature_file(path, {"a": np.ones(3), "b": np.zeros(3)})
    digest = hashlib.sha256(path.read_bytes()).digest()
    assert read_feature_file(path)[2] == digest


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "f.lufv"
    path.write_bytes(b"WRONG" + b"\x00" * 16)
    with pytest.raises(ManifestError, match="magic"):
        read_feature_file(path)


def test_feature_file_truncated_anywhere(tmp_path):
    path = tmp_path / "f.lufv"
    write_feature_file(path, {"a": np.ones(2), "bé": np.zeros(2)})
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(ManifestError, match="truncated|magic"):
            read_feature_file(path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3).flatmap(lambda d: st.dictionaries(
    st.text(max_size=3),
    st.lists(st.floats(width=32, allow_nan=False), min_size=d, max_size=d),
    min_size=1, max_size=4)))
def test_feature_file_round_trip_exact_and_every_prefix_rejected(tmp_path,
                                                                 vectors):
    path = tmp_path / "f.lufv"
    write_feature_file(path, vectors)
    whole = path.read_bytes()
    ids, X, _ = read_feature_file(path)
    assert ids == list(vectors)
    want = np.array(list(vectors.values()), dtype=np.float32).astype(np.float64)
    assert X.dtype == np.float64 and X.shape == want.shape
    assert X.tobytes() == want.tobytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(ManifestError):
            read_feature_file(path)


def test_manifest_with_sidecar(tmp_path):
    sidecar = tmp_path / "feats.lufv"
    write_feature_file(sidecar, {"r0": np.ones(3)})
    path = tmp_path / "m.jsonl"
    write_lines(path, [{"id": "r0", "domain": "A", "label": 2,
                        "features_ref": {"object": "feats.lufv"}}])
    r = load_manifest(path, TAX)[0]
    np.testing.assert_allclose(r.features["object"], np.ones(3))


def test_sidecar_missing_id(tmp_path):
    sidecar = tmp_path / "feats.lufv"
    write_feature_file(sidecar, {"other": np.ones(3)})
    path = tmp_path / "m.jsonl"
    write_lines(path, [{"id": "r0", "domain": "A",
                        "features_ref": {"object": "feats.lufv"}}])
    with pytest.raises(ManifestError, match="r0"):
        load_manifest(path, TAX)


def lufv_bytes(ids, d=2):
    """An LUFV1 file of all-zero rows under the raw ``ids``, repeats
    allowed."""
    out = b"LUFV1" + struct.pack("<II", len(ids), d)
    for raw in ids:
        out += struct.pack("<I", len(raw)) + raw + bytes(4 * d)
    return out


@pytest.mark.parametrize("data,message", [
    (lufv_bytes([b"a", b"b", b"a"]), "row 2: repeated id a"),
    (lufv_bytes([b"a", b"b"]) + b"\x00", "1 bytes after the last of 2 rows"),
    (lufv_bytes([b"a", b"\xff"]), "row 1: id is not UTF-8"),
], ids=["repeated_id", "trailing_bytes", "id_not_utf8"])
def test_feature_file_bad_rows_rejected(tmp_path, data, message):
    path = tmp_path / "f.lufv"
    path.write_bytes(data)
    with pytest.raises(ManifestError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_feature_file(path)


@pytest.mark.parametrize("line,message", [
    (b"5", "{path}:2: expected a JSON object, got int"),
    (b'"x"', "{path}:2: expected a JSON object, got str"),
    (b"[1]", "{path}:2: expected a JSON object, got list"),
    (b'{"id": "b", "features": [2.0]}',
     "record b: features must be an object, got list"),
    (b'{"id": "b", "features_ref": ["o.lufv"]}',
     "record b: features_ref must be an object, got list"),
    (b'{"id": "b", "features_ref": {"o": 5}}',
     "record b: features_ref of stream o must be a path, got 5"),
    (b'{"id": "b", "features": {"o": [1' + b"0" * 400 + b"]}}",
     "record b: non-finite value in stream o"),
    (b'{"id": "b\xff", "features": {"o": [2.0]}}',
     "{path}:2: not UTF-8: invalid start byte"),
    (b'{"id": "b", "features": {"o": ' + b"[" * 100000,
     "{path}:2: bad JSON: nested too deeply"),
], ids=["int", "str", "list", "features_list", "features_ref_list",
        "features_ref_int", "int_past_float_range", "not_utf8",
        "nested_too_deeply"])
def test_malformed_json_line_rejected(tmp_path, line, message):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b'{"id": "a", "features": {"o": [1.0]}}\n' + line + b"\n")
    with pytest.raises(ManifestError,
                       match=f"^{re.escape(message.format(path=path))}$"):
        load_manifest(path, TAX)


@pytest.mark.parametrize("row", [
    '{"id": "b", "lon": 1%s, "lat": 0.0, "features": {"o": [1.0]}}',
    '{"id": "b", "features": {"o": [1%s]}}'], ids=["lon", "feature"])
def test_integer_past_the_digit_limit_is_a_manifest_error(tmp_path, row):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "a", "features": {"o": [1.0]}}\n'
                    + row % ("0" * 5000) + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}:2:"
                                            " bad JSON: Exceeds the limit"):
        load_manifest(path, TAX)


@pytest.mark.parametrize("value", [True, False, 1.0])
def test_label_that_is_not_an_integer_is_out_of_range(tmp_path, value):
    path = tmp_path / "m.jsonl"
    write_lines(path, [{"id": "a", "label": value, "features": {"o": [1.0]}}])
    with pytest.raises(ManifestError,
                       match=f"^record a: label {value} out of range$"):
        load_manifest(path, TAX)


def test_big_integers_read_exactly(tmp_path):
    path = tmp_path / "m.jsonl"
    big = 10 ** 25
    write_lines(path, [{"id": big, "features": {"o": [big, 1.0]}},
                       {"id": "b", "label": big, "features": {"o": [1.0, 2.0]}}])
    with pytest.raises(ManifestError, match=f"^record b: label {big} out of range$"):
        load_manifest(path, TAX)
    write_lines(path, [{"id": big, "features": {"o": [big, 1.0]}}])
    table = load_manifest(path, TAX)
    assert table.ids == (str(big),)
    assert table.stream("o").tolist() == [[float(big), 1.0]]


# ---------------------------------------------------------------------------
# batching


def mixed_pool(n_a, n_b):
    """Domains of ``n_a`` domain-A then ``n_b`` domain-B records."""
    return np.array([DOMAIN_A] * n_a + [DOMAIN_B] * n_b)


def test_ratio_half_256():
    pool = mixed_pool(600, 600)
    batches = stratified_batches(pool, 256, 0.5, seed=0)
    assert batches
    for b in batches:
        assert b.shape == (256,) and b.dtype == np.intp
        assert sum(pool[b] == DOMAIN_A) == 128
        assert sum(pool[b] == DOMAIN_B) == 128


def test_ratio_one_is_single_domain():
    pool = mixed_pool(100, 0)
    batches = stratified_batches(pool, 10, 1.0, seed=1)
    assert len(batches) == 10
    assert all(pool[b].tolist() == [DOMAIN_A] * 10 for b in batches)
    # drop-last epoch covers every domain-A record exactly once
    assert sorted(np.concatenate(batches).tolist()) == list(range(100))


def test_shorter_domain_recycles():
    pool = mixed_pool(100, 7)
    batches = stratified_batches(pool, 10, 0.5, seed=2)
    assert len(batches) == 100 // 5
    for b in batches:
        assert sum(pool[b] == DOMAIN_B) == 5


def test_same_seed_identical():
    pool = mixed_pool(80, 80)
    a = stratified_batches(pool, 16, 0.5, seed=9)
    b = stratified_batches(pool, 16, 0.5, seed=9)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


def test_different_seeds_differ():
    pool = mixed_pool(120, 120)
    a = stratified_batches(pool, 16, 0.5, seed=1)
    b = stratified_batches(pool, 16, 0.5, seed=2)
    assert [x.tolist() for x in a] != [x.tolist() for x in b]


def test_missing_required_domain():
    pool = mixed_pool(10, 0)
    with pytest.raises(ValueError, match="domain-B"):
        stratified_batches(pool, 10, 0.5, seed=0)


def test_too_few_records_for_one_batch():
    pool = mixed_pool(40, 40)
    with pytest.raises(ValueError, match="40 domain-A and 40 domain-B.*256"):
        stratified_batches(pool, 256, 0.5, seed=0)


def test_repeated_record_id_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    write_lines(path, [manifest_row(0), manifest_row(1), manifest_row(0)])
    with pytest.raises(ManifestError,
                       match=rf"^{re.escape(str(path))}:3: repeated record id r0$"):
        load_manifest(path, TAX)


def test_record_lacking_a_stream_rejected_at_load(tmp_path):
    path = tmp_path / "m.jsonl"
    rows = [manifest_row(i) for i in range(3)]
    for row in rows:
        row["features"]["scene"] = [0.5, 0.5]
    del rows[2]["features"]["scene"]
    write_lines(path, rows)
    with pytest.raises(ManifestError,
                       match="record r2: missing features for stream 'scene'"):
        load_manifest(path, TAX)
    # a stream the first record lacks is missing from the first record
    rows = [manifest_row(i) for i in range(3)]
    rows[1]["features"]["scene"] = [0.5, 0.5]
    write_lines(path, rows)
    with pytest.raises(ManifestError,
                       match="record r0: missing features for stream 'scene'"):
        load_manifest(path, TAX)


@pytest.mark.parametrize("lon,lat", [(200.0, 1.0), (1.0, -91.0), ("east", 1.0),
                                     pytest.param(10 ** 400, 1.0, id="10**400")])
def test_bad_coordinates_rejected(tmp_path, lon, lat):
    path = tmp_path / "m.jsonl"
    row = manifest_row(0)
    row["lon"], row["lat"] = lon, lat
    write_lines(path, [row])
    with pytest.raises(ManifestError, match="record r0: bad coordinates"):
        load_manifest(path, TAX)


@pytest.mark.parametrize("lon,lat", [(True, 0.5), (0.5, False)])
def test_boolean_coordinate_rejected_as_the_oracle_does(tmp_path, lon, lat):
    path = tmp_path / "m.jsonl"
    write_lines(path, [{"id": "a", "lon": lon, "lat": lat,
                        "features": {"o": [1.0]}}])
    message = f"record a: bad coordinates ({lon!r}, {lat!r})"
    assert outcome(load_manifest, path)[1] == (ManifestError, message)
    assert outcome(oracle_load_manifest, path)[1] == (ManifestError, message)


def test_table_columns(tmp_path):
    path = tmp_path / "m.jsonl"
    rows = [manifest_row(i, domain="AB"[i % 2]) for i in range(3)]
    rows[1]["lon"], rows[1]["lat"] = 10.0, 20.0
    del rows[2]["label"]
    write_lines(path, [{"provenance": {}}] + rows)
    t = load_manifest(path, TAX)
    assert t.ids == ("r0", "r1", "r2")
    assert t.domain.tolist() == ["A", "B", "A"]
    r = TAX.index("restaurant")
    assert t.label.tolist() == [r, r, -1]
    assert t.has_geo.tolist() == [False, True, False]
    assert (t.lon[1], t.lat[1]) == (10.0, 20.0)
    X = t.stream("object")
    assert X.shape == (3, 4) and X.flags.c_contiguous and X.dtype == np.float64
    assert t[2].label is None and t[1].geo.lon == 10.0 and t[0].domain == "A"


@pytest.mark.parametrize("first", ["object", "scene"])
def test_first_non_finite_record_named_whatever_its_stream(tmp_path, first):
    later = {"object": "scene", "scene": "object"}[first]
    rows = [{"id": f"r{i}", "features": {"object": [1.0, 2.0], "scene": [3.0]}}
            for i in range(4)]
    rows[1]["features"][first][0] = float("nan")
    rows[2]["features"][later][0] = float("inf")
    path = tmp_path / "m.jsonl"
    write_lines(path, rows)
    with pytest.raises(ManifestError,
                       match=f"^record r1: non-finite value in stream {first}$"):
        load_manifest(path, TAX)
    # an earlier non-finite value is met before a later record's fault
    rows[3]["domain"] = "C"
    write_lines(path, rows)
    with pytest.raises(ManifestError, match="^record r1: non-finite"):
        load_manifest(path, TAX)
    del rows[3]["domain"]
    rows[3]["features_ref"] = {"depth": "broken.lufv"}
    (tmp_path / "broken.lufv").write_bytes(b"LUFV0")
    write_lines(path, rows)
    with pytest.raises(ManifestError, match="^record r1: non-finite"):
        load_manifest(path, TAX)
    del rows[3]["features_ref"]
    rows[3]["label"] = "no_such_class"
    write_lines(path, rows)
    with pytest.raises(ManifestError, match="^record r1: non-finite"):
        load_manifest(path, TAX)
    del rows[3]["label"]
    write_lines(path, rows)
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"id": "r4", "features": \n')
    with pytest.raises(ManifestError, match="^record r1: non-finite"):
        load_manifest(path, TAX)


def test_feature_file_header_beyond_file_size(tmp_path):
    path = tmp_path / "f.lufv"
    path.write_bytes(b"LUFV1" + struct.pack("<II", 2 ** 32 - 1, 2 ** 20))
    with pytest.raises(ManifestError, match="truncated"):
        read_feature_file(path)


# ---------------------------------------------------------------------------
# the table against the one-record-at-a-time oracle

STREAM_DIMS = {"object": 3, "scene": 2}
FAULTS = ("nan", "inf", "short", "long", "no_stream", "domain", "repeat",
          "unknown_label", "label_range", "not_in_sidecar", "broken_sidecar",
          "big_id", "big_label", "big_float", "surrogate_id")
#: written unquoted in place of a vector entry: json reads it as inf
BIG_FLOAT = "1e400"


def inline_stream(mode, stream):
    return mode == "inline" or (mode == "mixed" and stream == "object")


@st.composite
def manifests(draw):
    """(rows, sidecar mode) for a manifest of 1-8 records; a record has up
    to two faults, in one stream or in two."""
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(("inline", "sidecar", "mixed")))
    rows = []
    for i in range(n):
        row = {"id": f"r{i}"}
        if draw(st.booleans()):
            row["domain"] = draw(st.sampled_from("AB"))
        label = draw(st.sampled_from(("name", "int", "bool", "none")))
        if label == "name":
            row["label"] = draw(st.sampled_from(TAX.fine_classes[:5]))
        elif label == "int":
            row["label"] = draw(st.integers(0, 44))
        elif label == "bool":
            row["label"] = draw(st.booleans())
        if draw(st.booleans()):
            row["lon"] = draw(st.floats(-180, 180))
            row["lat"] = draw(st.floats(-90, 90))
        # inline floats span float64, subnormals and both zeros included;
        # LUFV1 holds float32
        row["vectors"] = {
            s: draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                             if inline_stream(mode, s)
                             else st.floats(-1e3, 1e3, width=32),
                             min_size=d, max_size=d))
            for s, d in STREAM_DIMS.items()}
        faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2)
                      if draw(st.booleans()) else st.just([]))
        for fault in faults:
            add_fault(draw, row, i, fault,
                      draw(st.sampled_from(tuple(STREAM_DIMS))))
        rows.append(row)
    return rows, mode


def add_fault(draw, row, i, fault, stream):
    vec = row["vectors"].get(stream)
    if vec is None:  # already dropped
        return
    if fault in ("nan", "inf"):
        vec[draw(st.integers(0, len(vec) - 1))] = float(fault)
    elif fault == "short":
        vec.pop()
    elif fault == "long":
        vec.append(1.0)
    elif fault == "no_stream":
        del row["vectors"][stream]
    elif fault == "domain":
        row["domain"] = "C"
    elif fault == "repeat" and i:
        row["id"] = f"r{draw(st.integers(0, i - 1))}"
    elif fault == "unknown_label":
        row["label"] = "no_such_class"
    elif fault == "label_range":
        row["label"] = draw(st.sampled_from((-1, 45)))
    elif fault in ("not_in_sidecar", "broken_sidecar"):
        row[fault] = stream
    elif fault == "big_id":  # an integer past 64 bits
        row["id"] = 10 ** 25 + i
    elif fault == "big_label":
        row["label"] = 10 ** 25
    elif fault == "big_float":
        vec[draw(st.integers(0, len(vec) - 1))] = BIG_FLOAT
    elif fault == "surrogate_id":
        row["id"] = f"r{i}\ud800"


def write_manifest(tmp_path, rows, mode):
    """Write ``rows`` inline or through one LUFV1 file per stream and
    dimension; return the manifest path. LUFV1 ids are UTF-8, so a record
    whose id holds a lone surrogate keeps its vectors inline."""
    sidecars: dict[tuple[str, int], dict[str, list]] = {}
    lines = [{"provenance": {"seed": 1}}]
    for row in rows:
        line = {k: v for k, v in row.items()
                if k not in ("vectors", "not_in_sidecar", "broken_sidecar")}
        rid = str(row["id"])
        for s, vec in row["vectors"].items():
            if inline_stream(mode, s) or "\ud800" in rid:
                line.setdefault("features", {})[s] = vec
                continue
            vec = [math.inf if v == BIG_FLOAT else v for v in vec]
            if row.get("broken_sidecar") == s:
                line.setdefault("features_ref", {})[s] = "broken.lufv"
                continue
            name = f"{s}_{len(vec)}.lufv"
            if row.get("not_in_sidecar") != s:
                sidecars.setdefault((name, len(vec)), {})[rid] = vec
            sidecars.setdefault((name, len(vec)), {})
            line.setdefault("features_ref", {})[s] = name
        lines.append(line)
    for (name, d), vectors in sidecars.items():
        path = tmp_path / name
        if vectors:
            write_feature_file(path, vectors)
        else:
            path.write_bytes(b"LUFV1" + struct.pack("<II", 0, d))
    (tmp_path / "broken.lufv").write_bytes(b"LUFV0" + bytes(8))
    path = tmp_path / "m.jsonl"
    text = "".join(json.dumps(r) + "\n" for r in lines)
    path.write_text(text.replace(f'"{BIG_FLOAT}"', BIG_FLOAT), encoding="utf-8")
    return path


def outcome(load, path):
    try:
        return load(path, TAX), None
    except ValueError as e:
        return None, (type(e), str(e))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifests())
def test_table_matches_oracle(tmp_path_factory, case):
    rows, mode = case
    path = write_manifest(tmp_path_factory.mktemp("m"), rows, mode)
    records, want = outcome(oracle_load_manifest, path)
    table, got = outcome(load_manifest, path)
    assert got == want
    if want is not None:
        return
    assert table.ids == tuple(r.id for r in records)
    assert table.domain.tolist() == [r.domain for r in records]
    assert table.label.tolist() == [-1 if r.label is None else r.label
                                    for r in records]
    assert table.has_geo.tolist() == [r.geo is not None for r in records]
    for k, r in enumerate(records):
        if r.geo is not None:
            assert (table.lon[k], table.lat[k]) == (r.geo.lon, r.geo.lat)
    assert list(table.features) == list(records[0].features)
    for s, X in table.features.items():
        assert X.flags.c_contiguous and X.dtype == np.float64
        np.testing.assert_array_equal(X, [r.features[s] for r in records])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("rows,message", [
    ([{"id": "a", "features": {"o": 3.0}}], "record a: stream o not a vector"),
    ([{"id": "a", "features": {"o": [1.0, 2.0]}},
      {"id": "b", "features": {"o": [[1.0], [2.0]]}}],
     "record b: stream o not a vector"),
    ([{"id": "a", "features": {"o": [1.0, 2.0]}},
      {"id": "b", "features": {"o": [1.0]}}],
     "record b: stream o has dimension 1, expected 2"),
    ([{"id": "a", "features": {"o": [1.0, 2.0]}},
      {"id": "b", "features": {"o": [NAN]}}],
     "record b: non-finite value in stream o"),
    ([{"id": "a", "features": {"o": [1.0], "s": [1.0]}},
      {"id": "b", "features": {"o": [INF], "s": [1.0, 2.0]}}],
     "record b: non-finite value in stream o"),
    ([{"id": "a", "features": {"o": [1.0], "s": [1.0]}},
      {"id": "b", "features": {"o": [1.0, 2.0], "s": [INF]}}],
     "record b: stream o has dimension 2, expected 1"),
    ([{"id": "a", "features": {"o": [1.0]}},
      {"id": "b", "label": "no_such_class", "features": {"o": [NAN]}}],
     "record b: non-finite value in stream o"),
    ([{"id": "a", "label": 44, "features": {"o": [1.0]}},
      {"id": "b", "label": 45, "features": {"o": [1.0]}}],
     "record b: label 45 out of range"),
])
def test_first_fault_matches_oracle(tmp_path, rows, message):
    path = tmp_path / "m.jsonl"
    write_lines(path, rows)
    assert outcome(oracle_load_manifest, path)[1] == (ManifestError, message)
    assert outcome(load_manifest, path)[1] == (ManifestError, message)


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 123])
@pytest.mark.parametrize("n_a,n_b,size,ratio", [
    (30, 30, 8, 0.5), (40, 9, 6, 0.5), (25, 0, 5, 1.0), (3, 50, 10, 0.3)])
def test_batch_indices_match_oracle_record_batches(seed, n_a, n_b, size, ratio):
    rng = random.Random(seed)
    domains = [DOMAIN_A] * n_a + [DOMAIN_B] * n_b
    rng.shuffle(domains)
    records = [ImageRecord(id=f"r{k}", domain=d, features={})
               for k, d in enumerate(domains)]
    got = stratified_batches(domains, size, ratio, seed=seed)
    want = oracle_stratified_batches(records, size, ratio, seed=seed)
    assert [[records[k].id for k in idx] for idx in got] == \
        [[r.id for r in batch] for batch in want]


pool_size = st.integers(0, 3) | st.integers(0, 60)


@settings(max_examples=300, deadline=None)
@given(n_a=pool_size, n_b=pool_size, size=st.integers(2, 20),
       ratio=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32))
def test_batches_match_the_oracle_on_drawn_configs(n_a, n_b, size, ratio,
                                                   seed):
    """Pools may be smaller than a half-batch, so one draw reshuffles its
    pool several times."""
    rng = random.Random(seed)
    domains = [DOMAIN_A] * n_a + [DOMAIN_B] * n_b
    rng.shuffle(domains)
    records = [ImageRecord(id=f"r{k}", domain=d, features={})
               for k, d in enumerate(domains)]
    try:
        want = oracle_stratified_batches(records, size, ratio, seed=seed)
    except ValueError:  # a missing domain or no full batch
        with pytest.raises(ValueError):
            stratified_batches(domains, size, ratio, seed=seed)
        return
    got = stratified_batches(domains, size, ratio, seed=seed)
    assert all(idx.dtype == np.intp for idx in got)
    assert [[records[k].id for k in idx] for idx in got] == \
        [[r.id for r in batch] for batch in want]
