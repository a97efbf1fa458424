"""Fast tests of the benchmark's generator, checks and tracing.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: a city small enough for a whole pipeline pass in well under a second,
#: with star parcels and sidecar features like ``parcels_detailed``
TINY = workloads.Workload("tiny", {
    "synth.grid": "3", "synth.images_per_parcel": "6",
    "synth.geo_sigma_m": "20", "synth.classes": "5", "synth.dim": "8",
    "synth.train_per_class": "12", "synth.val_per_class": "4",
    "train.epochs": "3", "train.batch_size": "16",
    "finetune.epochs": "1", "finetune.batch_size": "16",
}, star_vertices=12, sidecars=True)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
HOLE = [[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6], [0.4, 0.4]]


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir())}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run = worker.Run(TINY, 7, tmp_path_factory.mktemp("tiny"))
    run.setup()
    run.one_pass()
    return run


# ---------------------------------------------------------------------------
# generator


def test_config_is_a_function_of_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.config_text(3) == w.config_text(3)
        assert w.config_text(3) != w.config_text(4)


def test_city_and_transforms_are_deterministic(tmp_path):
    made = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        run = worker.Run(TINY, 7, tmp_path / str(k))
        run.setup()
        made.append(tree_bytes(run.data))
    run.rewrite()
    assert made[0] == made[1]
    assert run.failed == 0 and run.attempted == 3   # two writes, one check
    other = tmp_path / "other.geojson"
    other.write_bytes(made[0]["parcels.geojson"])
    workloads.star_parcels(other, 12, seed=8)
    assert other.read_bytes() != made[0]["parcels.geojson"]


def test_star_parcels_are_simple_rings_in_the_box(tmp_path):
    path = tmp_path / "p.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": "A", "properties": {"landuse": []},
         "geometry": {"type": "Polygon", "coordinates": [SQUARE]}}]}))
    workloads.star_parcels(path, 40, seed=1)
    ring = json.loads(path.read_text())["features"][0]["geometry"]["coordinates"][0]
    assert len(ring) == 41 and ring[0] == ring[-1]
    pts = np.array(ring)
    assert pts.min() > 0.0 and pts.max() < 1.0
    angles = np.unwrap(np.arctan2(pts[:-1, 1] - 0.5, pts[:-1, 0] - 0.5))
    assert np.all(np.diff(angles) > 0)   # star-shaped about the centre


def test_sidecar_transform_keeps_features_and_accepts_its_own_output(tmp_path):
    manifest = tmp_path / "m.jsonl"
    rows = [{"id": f"r{i}", "label": "x", "features": {
        "object": [i + 0.5, -i], "scene": [1.0, 2.0, i]}} for i in range(4)]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    _, before = workloads.manifest_features(manifest)
    workloads.to_sidecars(manifest)
    once = tree_bytes(tmp_path)
    _, after = workloads.manifest_features(manifest)
    workloads.to_sidecars(manifest)
    assert tree_bytes(tmp_path) == once
    for stream in before:
        np.testing.assert_allclose(after[stream], before[stream], rtol=1e-6)
    assert all("features" not in r and "features_ref" in r
               for r in workloads.read_jsonl(manifest, "id"))


# ---------------------------------------------------------------------------
# checks on hand-made cases


def test_winding_contains_square_with_hole():
    parcel = checks.Parcel("A", [SQUARE, HOLE], [])
    pts = np.array([[0.2, 0.2], [0.5, 0.5], [1.5, 0.5], [1.0, 0.5],
                    [0.4, 0.5], [0.0, 0.0]])
    got = checks.winding_contains(parcel, pts)
    assert got.tolist() == [True, False, False, True, True, True]


def test_edge_distance_is_metric():
    deg = 10.0 / checks.METERS_PER_DEGREE       # 10 m of latitude
    parcel = checks.Parcel("A", [[[0, 0], [0.01, 0], [0.01, 0.01], [0, 0.01],
                                  [0, 0]]], [])
    d = checks.edge_distance_m(parcel, np.array([[0.005, -deg], [0.005, 0.005]]))
    assert d[0] == pytest.approx(10.0, rel=1e-9)
    assert d[1] == pytest.approx(0.005 * checks.METERS_PER_DEGREE, rel=1e-4)


def two_parcels():
    w = 0.001
    gap = 20.0 / checks.METERS_PER_DEGREE
    a = [[0, 0], [w, 0], [w, w], [0, w], [0, 0]]
    b = [[x + w + gap, y] for x, y in a]
    return [checks.Parcel("A", [a], ["park"]), checks.Parcel("B", [b], ["shop"])], w


def test_check_assignments_inside_dilated_and_dropped():
    parcels, w = two_parcels()
    m = 1.0 / checks.METERS_PER_DEGREE
    geo = {"in": (w / 2, w / 2), "near": (w + 3 * m, w / 2),
           "gap": (w + 10 * m, w / 2), "far": (w / 2, -50 * m)}
    rows = [{"image": "in", "parcel": "A", "mode": "inside"},
            {"image": "near", "parcel": "A", "mode": "dilated"}]
    assert checks.check_assignments(parcels, geo, rows, 5.0) == []
    assert checks.assignment_counts(geo, rows) == {
        "inside": 1, "dilated": 1, "dropped": 2}
    wrong = [rows[0], {"image": "near", "parcel": "A", "mode": "inside"}]
    assert checks.check_assignments(parcels, geo, wrong, 5.0)
    assert checks.check_assignments(parcels, geo, rows[:1], 5.0)
    extra = rows + [{"image": "gap", "parcel": "B", "mode": "dilated"}]
    assert checks.check_assignments(parcels, geo, extra, 5.0)


def test_recount_metrics_by_hand():
    parcels = [checks.Parcel("A", [SQUARE], ["park", "shop"]),
               checks.Parcel("B", [SQUARE], ["farm"])]
    assign = [{"image": "1", "parcel": "A"}, {"image": "2", "parcel": "A"},
              {"image": "3", "parcel": "B"}]
    preds = [{"image": "1", "pred": 0, "class": "park"},
             {"image": "2", "pred": 0, "class": "park"},
             {"image": "3", "pred": 1, "class": "shop"}]
    labels = {"1": "park", "2": "shop", "3": "farm"}
    got = checks.recount_metrics(assign, preds, parcels, labels)
    assert got["image_accuracy"] == pytest.approx(1 / 3)
    assert got["precision"] == pytest.approx(2 / 3)
    assert got["recall"] == pytest.approx(1 / 3)
    assert got["f1_micro"] == pytest.approx(4 / 9)
    report = {"image_accuracy": 1 / 3, "mapping": {
        "level": "fine", "precision": 2 / 3, "recall": 1 / 3,
        "f1_micro": 2 * (2 / 3) * (1 / 3) / (2 / 3 + 1 / 3)}}
    assert checks.check_report(report, got) == []
    report["mapping"]["recall"] = 0.5
    assert checks.check_report(report, got)


def test_check_fusion_fails_on_a_flipped_prediction():
    models = {"object": (np.eye(3), np.zeros(3)),
              "scene": (np.eye(3)[::-1], np.zeros(3))}
    feats = {"object": np.array([[3.0, 0, 0], [0, 0, 1]]),
             "scene": np.array([[0, 0, 1.0], [0, 0, 3]])}
    preds = [{"image": "a", "pred": 0}, {"image": "b", "pred": 0}]
    assert checks.check_fusion(models, feats, ["a", "b"], preds) == []
    preds[1]["pred"] = 2
    assert checks.check_fusion(models, feats, ["a", "b"], preds)


def test_check_votes_breaks_ties_to_the_lowest_index():
    assign = [{"image": i, "parcel": "A"} for i in "123"]
    preds = [{"image": "1", "pred": 4, "class": "shop"},
             {"image": "2", "pred": 2, "class": "park"},
             {"image": "3", "pred": 4, "class": "shop"}]
    feature = {"id": "A", "properties": {
        "landuse_pred": "shop", "support": 3,
        "histogram": {"park": 1, "shop": 2}}}
    assert checks.check_votes(assign, preds, {"features": [feature]}) == []
    preds[2] = {"image": "3", "pred": 2, "class": "park"}
    assert checks.check_votes(assign, preds, {"features": [feature]})
    preds[0] = {"image": "1", "pred": 7, "class": "farm"}
    preds[2] = {"image": "3", "pred": 4, "class": "shop"}   # 1-1-1 tie
    feature["properties"] = {"landuse_pred": "park", "support": 3,
                             "histogram": {"farm": 1, "park": 1, "shop": 1}}
    assert checks.check_votes(assign, preds, {"features": [feature]}) == []


def test_check_identical_and_above_chance():
    assert checks.check_identical({"a": "1"}, {"a": "1"}, "x") == []
    assert checks.check_identical({"a": "1"}, {"a": "2"}, "x")
    assert checks.check_identical({"a": "1"}, {}, "x")
    assert checks.check_above_chance(0.2, 45) == []
    assert checks.check_above_chance(0.05, 45)


# ---------------------------------------------------------------------------
# the checks on a real pipeline run


def test_pipeline_outputs_pass_every_check(tiny_run):
    before = tiny_run.failed
    found = tiny_run.check_outputs()
    assert tiny_run.failed == before == 0 and tiny_run.correct
    counts = found["counts"]
    assert sum(counts.values()) == 9 * 6
    assert counts["inside"] and counts["dilated"] and counts["dropped"]


def test_flipped_prediction_fails_the_checks(tiny_run, tmp_path):
    path = tiny_run.out / "predictions.jsonl"
    original = path.read_text(encoding="utf-8")
    lines = original.splitlines()
    row = json.loads(lines[1])
    row["pred"] = (row["pred"] + 1) % TINY.n_classes
    path.write_text("\n".join([lines[0], json.dumps(row), *lines[2:]]) + "\n",
                    encoding="utf-8")
    try:
        preds = workloads.read_jsonl(path, "image")
        rows, features = workloads.manifest_features(tiny_run.data / "map.jsonl")
        models = {s: workloads.read_lusm(
            tiny_run.out / f"model_{s}_adapted.lusm")[:2]
            for s in workloads.STREAMS}
        assert checks.check_fusion(models, features,
                                   [r["id"] for r in rows], preds)
        before = tiny_run.failed
        tiny_run.check_outputs()
        assert tiny_run.failed > before and not tiny_run.correct
    finally:
        path.write_text(original, encoding="utf-8")
        tiny_run.correct = True


# ---------------------------------------------------------------------------
# tracing


def test_tracer_records_parents_and_reports_absent_functions(monkeypatch):
    mod = types.ModuleType("fake")
    mod.outer = lambda: mod.inner() + 1
    mod.inner = lambda: 1
    monkeypatch.setitem(sys.modules, "fake", mod)
    monkeypatch.setattr(spans, "WRAPPED", (("fake", "outer", "a.outer"),
                                           ("fake", "inner", "a.inner"),
                                           ("fake", "gone", "a.gone")))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.stage"):
            assert mod.outer() == 2
    finally:
        tracer.uninstall()
    assert tracer.absent == ["fake.gone"]
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("cli.stage", -1), ("a.outer", 0), ("a.inner", 1)]
    assert mod.inner() == 1 and not hasattr(mod.inner, "__wrapped__")
    totals = spans.layer_totals(tracer.spans)
    assert totals["a.inner_calls"] == 1
    stage = tracer.spans[0][2] - tracer.spans[0][1]
    outer = tracer.spans[1][2] - tracer.spans[1][1]
    assert totals["cli.self_s"] == pytest.approx(stage - outer)


# ---------------------------------------------------------------------------
# reported metrics


def declared(kind):
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


def test_runs_report_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))        # for the memory probe
    for kind in ("end_to_end", "per_layer"):
        (tmp_path / kind).mkdir()
    plain = worker.Run(TINY, 7, tmp_path / "end_to_end")
    traced = worker.Run(TINY, 7, tmp_path / "per_layer")
    trace_path = tmp_path / "per_layer" / "trace.json"
    for run, metrics, kind in (
            (plain, worker.end_to_end(plain, 0.0), "end_to_end"),
            (traced, worker.traced(traced, 0.0, trace_path), "per_layer")):
        assert {k: m["unit"] for k, m in metrics.items()} == declared(kind)
        assert run.failed == 0 and run.correct
    trace = json.loads(trace_path.read_text())
    assert trace["absent"] == [] and trace["spans"]
