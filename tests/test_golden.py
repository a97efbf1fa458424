"""Golden bytes of the stage artifacts.

``landuse map`` and ``landuse eval`` run on small hand-written inputs, and
the sha256 of ``map.geojson``, ``report.json`` and ``per_class.csv`` must
equal the digests below. ``landuse filter`` and ``landuse predict`` run on
hand-written parcels, manifest and model, and the sha256 of
``assignments.jsonl`` and ``predictions.jsonl`` must equal the digests
below. Every JSON artifact is orjson's text, indented by two spaces for a
document and compact for a JSON-lines row; the digests were taken from
that text. A change to how these artifacts are written, or to how their
counts are made, must keep their bytes.

The ``ascii`` case holds only ASCII strings and floats that orjson writes
as ``repr`` does, so its JSON text is also what ``json.dumps(...,
indent=2)`` writes. The ``escaped`` case holds what orjson writes
otherwise: a class name with a non-ASCII letter, which orjson writes as
UTF-8 where json escapes it, and a vertex coordinate below 1e-4, which
orjson writes without an exponent.
"""

import hashlib
import json

import numpy as np
import pytest

from landuse.classifier import SoftmaxModel, save_model
from landuse.cli import main

HEADER = '{"provenance": {"config_sha256": "hand-written", "seed": 0}}\n'


def square(x0, y0, side):
    return [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side],
            [x0, y0 + side], [x0, y0]]


def feature(fid, rings, landuse, kind="Polygon"):
    return {"type": "Feature", "id": fid,
            "geometry": {"type": kind, "coordinates": rings},
            "properties": {"landuse": landuse}}


ASCII = {
    "taxonomy": None,
    "parcels": [
        feature("A", [square(8.54, 47.37, 0.001)], ["lodging", "bakery"]),
        # integer coordinates are read, and written back, as floats
        feature("B", [[[8, 47], [9, 47], [9, 48], [8, 48], [8, 47]]],
                ["pharmacy"]),
        feature("C", [[square(8.56, 47.37, 0.001)],
                      [square(8.57, 47.37, 0.0005)]],
                ["book_store"], kind="MultiPolygon"),
        feature("D", [square(8.58, 47.37, 0.001),
                      square(8.5803, 47.3703, 0.0002)], []),
    ],
    "labels": {"i1": "lodging", "i2": "bakery", "i3": "pharmacy",
               "i4": "bakery", "i5": "book_store", "i6": "shoe_store",
               "i7": "lodging"},
    "assignments": [("i1", "A", "inside"), ("i2", "A", "inside"),
                    ("i3", "B", "inside"), ("i4", "B", "dilated"),
                    ("i5", "C#0", "inside"), ("i6", "C#1", "inside"),
                    ("i7", "D", "dilated")],
    "predictions": {"i1": 0, "i2": 9, "i3": 10, "i4": 10, "i5": 5, "i6": 8,
                    "i7": 0},
}

TAXONOMY = """\
Built
  Housing
    café
    house
  Work
    office
Open
  Green
    park
"""

ESCAPED = {
    "taxonomy": TAXONOMY,
    "parcels": [
        feature("N", [square(0.00005, 0.0, 0.001)], ["café", "house"]),
        feature("M", [square(0.002, 0.0, 0.001)], ["park"]),
    ],
    "labels": {"j1": "café", "j2": "café", "j3": "park", "j4": "office"},
    "assignments": [("j1", "N", "inside"), ("j2", "N", "dilated"),
                    ("j3", "M", "inside"), ("j4", "M", "inside"),
                    ("j4", "N", "inside")],
    "predictions": {"j1": 0, "j2": 0, "j3": 3, "j4": 2},
}

DIGESTS = {
    "ascii": {
        "map.geojson":
            "25efe72906d384284da91016e623c3f9efdc87677e4d7e7a1a07c9584e8e896c",
        "report.json":
            "250df41b116df0945122774e753544de656c588b57fae5e5220c31042422e7c2",
        "per_class.csv":
            "11483151252192f642e33a41837f800fc76207d346ab78650487bfd9ecc94a79",
    },
    "escaped": {
        "map.geojson":
            "f06ad5c929c9e662fbb14df32ef62b102a9c7ab5c4c5f0f61e2c059e8e654b17",
        "report.json":
            "62a8d2f37d3a45775ed267945ddba4ac7007e94fa3caf5f9ebe2b11de36bc71c",
        "per_class.csv":
            "56857f8bac78193dbab6586666103866b29b477c5e373936b1d795c50098e29d",
    },
}


def write_case(root, case):
    """The config of a pipeline whose filter and predict outputs are the
    hand-written ``case``."""
    data, out = root / "data", root / "out"
    data.mkdir()
    out.mkdir()
    (data / "parcels.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "features": case["parcels"]}),
        encoding="utf-8")
    (data / "map.jsonl").write_text("".join(
        json.dumps({"id": rid, "label": label, "features": {"object": [0.0]}})
        + "\n" for rid, label in case["labels"].items()), encoding="utf-8")
    (out / "assignments.jsonl").write_text(HEADER + "".join(
        json.dumps({"image": i, "parcel": p, "mode": m}) + "\n"
        for i, p, m in case["assignments"]), encoding="utf-8")
    (out / "predictions.jsonl").write_text(HEADER + "".join(
        json.dumps({"image": i, "pred": k}) + "\n"
        for i, k in case["predictions"].items()), encoding="utf-8")
    config = ("seed=0\nparcels=data/parcels.geojson\n"
              "map_manifest=data/map.jsonl\nout_dir=out\n")
    if case["taxonomy"] is not None:
        (data / "taxonomy.txt").write_text(case["taxonomy"], encoding="utf-8")
        config += "taxonomy=data/taxonomy.txt\n"
    path = root / "cfg.txt"
    path.write_text(config, encoding="utf-8")
    return path


@pytest.mark.parametrize("name,case", [("ascii", ASCII),
                                       ("escaped", ESCAPED)])
def test_map_and_report_bytes_are_pinned(tmp_path, name, case):
    path = write_case(tmp_path, case)
    for subcommand in ("map", "eval"):
        assert main([subcommand, "--config", str(path)]) == 0
    got = {artifact: hashlib.sha256(
               (tmp_path / "out" / artifact).read_bytes()).hexdigest()
           for artifact in DIGESTS[name]}
    assert got == DIGESTS[name]


# ids holding a non-ASCII letter and U+2028, which the JSON-lines rows
# hold raw, and a quote, a backslash and a control character, which they
# escape
ROWS_PARCELS = [
    feature("Zürich", [square(0.0, 0.0, 0.001)], ["café"]),
    feature('q"uote', [square(0.0005, 0.0, 0.001)], ["house"]),
    feature("back\\slash", [square(0.003, 0.0, 0.001)], ["office"]),
    feature("ctl\x01", [square(0.005, 0.0, 0.001)], []),
    feature("line\u2028sep", [square(0.007, 0.0, 0.001)], ["park"]),
]

#: id -> (lon, lat, features): one image in two parcels, one in a
#: parcel's buffer, one dropped
ROWS_IMAGES = {
    "img-ä": (0.0002, 0.0005, [1.0, 0.0]),
    'img"q': (0.0007, 0.0005, [0.0, 1.0]),
    "img\\b": (0.0035, 0.0005, [-1.0, 0.5]),
    "img\x02": (0.00298, 0.0005, [0.5, -1.0]),
    "img\u2028": (0.0075, 0.0005, [-1.0, -1.0]),
    "ctl-é": (0.0055, 0.0005, [2.0, 2.0]),
    "far": (0.02, 0.02, [0.0, 0.0]),
}

ROWS_DIGESTS = {
    "assignments.jsonl":
        "3a4ba5531ffdedc40d967676c0f0dfc0a84b54f3b8a7d30d2d7f8ff1c0cde3ec",
    "predictions.jsonl":
        "b6a2256d9ba85f076088179d293fc411173ba9b7d6b5894793b624465fa3b137",
}


def test_filter_and_predict_bytes_are_pinned(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    out.mkdir()
    (data / "parcels.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "features": ROWS_PARCELS}),
        encoding="utf-8")
    (data / "map.jsonl").write_text("".join(
        json.dumps({"id": rid, "lon": lon, "lat": lat,
                    "features": {"object": vec}}) + "\n"
        for rid, (lon, lat, vec) in ROWS_IMAGES.items()), encoding="utf-8")
    (data / "taxonomy.txt").write_text(TAXONOMY, encoding="utf-8")
    W = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 1.0], [1.0, -2.0]])
    save_model(SoftmaxModel(W=W, b=np.zeros(4), stream="object"),
               out / "model_object_adapted.lusm")
    path = tmp_path / "cfg.txt"
    path.write_text("seed=0\nstreams=object\nparcels=data/parcels.geojson\n"
                    "map_manifest=data/map.jsonl\ntaxonomy=data/taxonomy.txt\n"
                    "out_dir=out\n", encoding="utf-8")
    for subcommand in ("filter", "predict"):
        assert main([subcommand, "--config", str(path)]) == 0
    got = {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
           for artifact in ROWS_DIGESTS}
    assert got == ROWS_DIGESTS
