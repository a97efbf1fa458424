"""Golden bytes of the indented JSON artifacts.

``landuse map`` and ``landuse eval`` run on small hand-written inputs, and
the sha256 of ``map.geojson`` and ``report.json`` must equal the digests
below, which were taken from ``json.dumps(..., indent=2)`` output. A
change to how these artifacts are written must keep their bytes.

The ``ascii`` case holds only what orjson writes as json does. The
``escaped`` case holds what it writes otherwise: a class name with a
non-ASCII letter, which json escapes, and a vertex coordinate below
1e-4, which json writes with an exponent.
"""

import hashlib
import json

import pytest

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
        # integer coordinates are written back as integers
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
            "3d4690dc704aafc62bc7a77bf5f012b9a92865f0f6eb02adc24c6677cc7d9781",
        "report.json":
            "250df41b116df0945122774e753544de656c588b57fae5e5220c31042422e7c2",
    },
    "escaped": {
        "map.geojson":
            "1b6825ad357d278e7fd46540d3a4a47b04d43d6ea94c89e45cdbdd6429eb469b",
        "report.json":
            "62a8d2f37d3a45775ed267945ddba4ac7007e94fa3caf5f9ebe2b11de36bc71c",
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
