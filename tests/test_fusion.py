import json
import math

import numpy as np
import pytest

from landuse.classifier import SoftmaxModel, init_model
from landuse.dataset import ImageRecord, ManifestTable
from landuse.fusion_mapping import (ParcelPrediction, aggregate_parcels,
                                    equal_weights, export_map, fuse,
                                    predict_image, predict_table)
from landuse.geodata import Assignment, Parcel, parse_parcels
from landuse.taxonomy import Level, builtin_taxonomy

TAX = builtin_taxonomy()
EQ = equal_weights(["object", "scene"])


def table(features, ids):
    n = len(ids)
    return ManifestTable(
        ids=tuple(ids), domain=np.array(["B"] * n),
        label=np.full(n, -1, dtype=np.intp), features=features,
        lon=np.zeros(n), lat=np.zeros(n), has_geo=np.zeros(n, dtype=bool))


def rec(features, rid="img"):
    return ImageRecord(id=rid, domain="A",
                       features={k: np.asarray(v, float)
                                 for k, v in features.items()})


# ---------------------------------------------------------------------------
# fuse


def test_fuse_identical_streams_identity():
    s = np.array([0.7, 0.2, 0.1])
    out = fuse({"object": s, "scene": s.copy()}, EQ)
    np.testing.assert_array_equal(out, s)


def test_fuse_arithmetic():
    out = fuse({"object": [0.6, 0.4], "scene": [0.2, 0.8]}, EQ)
    np.testing.assert_allclose(out, [0.4, 0.6])


def test_fuse_uniform_preserves_argmax():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = rng.dirichlet(np.ones(6))
        fused = fuse({"object": s, "scene": np.full(6, 1 / 6)}, EQ)
        assert int(np.argmax(fused)) == int(np.argmax(s))


def test_fuse_commutative_equal_weights():
    rng = np.random.default_rng(1)
    a, b = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    out1 = fuse({"object": a, "scene": b}, EQ)
    out2 = fuse({"object": b, "scene": a}, EQ)
    np.testing.assert_allclose(out1, out2)


def test_fuse_validates_weights_and_lengths():
    with pytest.raises(ValueError, match="sum to 1"):
        fuse({"a": [1.0]}, {"a": 0.5})
    with pytest.raises(ValueError, match=">= 0"):
        fuse({"a": [1.0], "b": [0.0]}, {"a": 1.5, "b": -0.5})
    with pytest.raises(ValueError, match=">= 0"):
        fuse({"a": [1.0], "b": [0.0]}, {"a": 1.0, "b": float("nan")})
    with pytest.raises(ValueError, match="match"):
        fuse({"a": [1.0]}, {"b": 1.0})
    with pytest.raises(ValueError, match="length"):
        fuse({"a": [0.5, 0.5], "b": [1.0]}, {"a": 0.5, "b": 0.5})


# ---------------------------------------------------------------------------
# predict_image


def test_zero_models_tie_break_to_class_zero():
    models = {"object": init_model(4, 3, "object"),
              "scene": init_model(4, 3, "scene")}
    pred, scores = predict_image(
        models, rec({"object": [1, 2, 3], "scene": [0, 0, 1]}), EQ)
    assert pred == 0
    np.testing.assert_allclose(scores, np.full(4, 0.25))


def test_uniform_stream_keeps_trained_argmax():
    trained = SoftmaxModel(W=np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
                           b=np.zeros(3), stream="object")
    models = {"object": trained, "scene": init_model(3, 2, "scene")}
    r = rec({"object": [0.0, 3.0], "scene": [1.0, 1.0]})
    pred, _ = predict_image(models, r, EQ)
    assert pred == 1


def test_predict_image_missing_stream():
    models = {"object": init_model(2, 2, "object"),
              "scene": init_model(2, 2, "scene")}
    with pytest.raises(ValueError, match="scene"):
        predict_image(models, rec({"object": [0.0, 0.0]}, rid="x"), EQ)


def test_fuse_matrices_row_by_row():
    rng = np.random.default_rng(2)
    a, b = rng.dirichlet(np.ones(5), size=7), rng.dirichlet(np.ones(5), size=7)
    w = {"object": 0.3, "scene": 0.7}
    out = fuse({"object": a, "scene": b}, w)
    assert out.shape == (7, 5)
    for k in range(7):
        np.testing.assert_array_equal(
            out[k], fuse({"object": a[k], "scene": b[k]}, w))
    np.testing.assert_array_equal(a, fuse({"object": a, "scene": a}, EQ))


def test_fuse_leaves_its_inputs_alone():
    a = np.array([0.6, 0.4])
    fuse({"object": a, "scene": a}, {"object": 0.25, "scene": 0.75})
    np.testing.assert_array_equal(a, [0.6, 0.4])


@pytest.mark.parametrize("shape", [(5,), (40, 7)])
def test_fuse_equals_the_weighted_sum_bitwise(shape):
    rng = np.random.default_rng(9)
    streams = ("object", "scene", "extra")
    for _ in range(20):
        scores = {s: rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
                  for s in streams}
        for vec in scores.values():
            vec[..., 0] = -0.0  # the sum from zeros makes this +0.0
        raw = rng.random(3)
        weights = dict(zip(streams, (raw / raw.sum()).tolist()))
        given = {s: v.copy() for s, v in scores.items()}
        want = np.zeros(shape)
        for s in streams:
            want += weights[s] * scores[s]
        got = fuse(scores, weights)
        assert got.tobytes() == want.tobytes()
        for s in streams:
            assert scores[s].tobytes() == given[s].tobytes()


def test_predict_table_equals_predict_image_per_row():
    rng = np.random.default_rng(4)
    n, N = 6, 200
    models = {s: SoftmaxModel(W=rng.standard_normal((n, d)),
                              b=rng.standard_normal(n), stream=s)
              for s, d in (("object", 5), ("scene", 3))}
    t = table({"object": 3 * rng.standard_normal((N, 5)),
               "scene": 3 * rng.standard_normal((N, 3))},
              [f"i{k}" for k in range(N)])
    weights = {"object": 0.4, "scene": 0.6}
    preds, fused = predict_table(models, t, weights)
    assert preds.shape == (N,) and fused.shape == (N, n)
    for k in range(N):
        pred, scores = predict_image(models, t[k], weights)
        assert preds[k] == pred
        np.testing.assert_allclose(fused[k], scores, rtol=1e-12, atol=1e-15)


def test_predict_table_missing_stream():
    models = {"object": init_model(2, 2, "object"),
              "scene": init_model(2, 2, "scene")}
    with pytest.raises(ValueError,
                       match="record x: missing features for stream 'scene'"):
        predict_table(models, table({"object": np.zeros((1, 2))}, ["x"]), EQ)


# ---------------------------------------------------------------------------
# parcel aggregation


def A(image_id, *parcel_ids):
    return Assignment(image_id=image_id,
                      modes={p: "inside" for p in parcel_ids})


def test_majority_and_support():
    restaurant, bar = TAX.index("restaurant"), TAX.index("bar")
    assignments = [A(f"i{k}", "P1") for k in range(4)]
    preds = {"i0": restaurant, "i1": restaurant, "i2": restaurant, "i3": bar}
    (pp,) = aggregate_parcels(assignments, preds)
    assert pp.majority == restaurant
    assert pp.support == 4
    assert pp.histogram == {restaurant: 3, bar: 1}


def test_tie_breaks_to_lowest_index():
    preds = {"i0": 2, "i1": 2, "i2": 5, "i3": 5}
    (pp,) = aggregate_parcels([A(f"i{k}", "P") for k in range(4)], preds)
    assert pp.majority == 2


def test_multi_parcel_image_votes_in_each():
    out = aggregate_parcels([A("i0", "P1", "P2")], {"i0": 3})
    assert [pp.parcel_id for pp in out] == ["P1", "P2"]
    assert all(pp.histogram == {3: 1} for pp in out)


def test_aggregate_order_invariant():
    assignments = [A("i0", "P1"), A("i1", "P2"), A("i2", "P1")]
    preds = {"i0": 1, "i1": 2, "i2": 3}
    assert aggregate_parcels(assignments, preds) == \
        aggregate_parcels(list(reversed(assignments)), preds)


def test_support_sums_to_assignment_pairs():
    rng = np.random.default_rng(5)
    assignments = [A(f"i{k}", *(f"P{j}" for j in rng.choice(6, size=rng.integers(1, 4), replace=False)))
                   for k in range(40)]
    preds = {f"i{k}": int(rng.integers(0, 45)) for k in range(40)}
    out = aggregate_parcels(assignments, preds)
    pairs = sum(len(a.modes) for a in assignments)
    assert sum(pp.support for pp in out) == pairs


def test_missing_prediction_names_image():
    with pytest.raises(ValueError, match="i9"):
        aggregate_parcels([A("i9", "P")], {})


# ---------------------------------------------------------------------------
# map export

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def test_export_rolls_up_to_top():
    parcel = Parcel(id="P", rings=(SQUARE,))
    pp = ParcelPrediction(parcel_id="P",
                          histogram={TAX.index("bakery"): 2},
                          majority=TAX.index("bakery"), support=2)
    doc = json.loads(export_map([parcel], [pp], TAX, Level.TOP))
    (feature,) = doc["features"]
    assert feature["properties"]["landuse_pred"] == "General sales or services"
    assert feature["properties"]["histogram"] == {"bakery": 2}
    assert feature["geometry"]["coordinates"] == [[list(v) for v in SQUARE]]


def test_export_empty_predictions():
    parcel = Parcel(id="P", rings=(SQUARE,))
    doc = json.loads(export_map([parcel], [], TAX))
    assert doc == {"type": "FeatureCollection", "features": []}


def test_export_puts_provenance_last():
    parcel = Parcel(id="P", rings=(SQUARE,))
    pp = ParcelPrediction(parcel_id="P", histogram={0: 1}, majority=0,
                          support=1)
    text = export_map([parcel], [pp], TAX, provenance={"seed": 3})
    doc = json.loads(text)
    assert list(doc) == ["type", "features", "provenance"]
    assert doc["provenance"] == {"seed": 3}
    assert text == json.dumps(doc, indent=2) + "\n"


def test_export_round_trips_through_parser():
    parcel = Parcel(id="P", rings=(SQUARE,))
    pp = ParcelPrediction(parcel_id="P", histogram={0: 1}, majority=0,
                          support=1)
    text = export_map([parcel], [pp], TAX)
    again = parse_parcels(text, TAX)
    assert [p.id for p in again] == ["P"]
    assert again[0].rings == (SQUARE,)


def square_at(x0, y0, side):
    return ((x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side),
            (x0, y0))


@pytest.mark.parametrize("rings,provenance", [
    ((SQUARE,), None),
    ((square_at(0, 0, 1),), None),                    # JSON integers
    ((square_at(-0.0, 0.0, 1.0),), None),             # negative zero
    ((square_at(1e-5, 0.5, 1.0),), None),             # json writes 1e-05
    ((square_at(1e16, 0.5, 1e16),), None),            # json writes 1e+16
    ((square_at(5e-324, 0.5, 1.0),), None),           # subnormal
    ((square_at(10 ** 17, 0, 10 ** 17),), None),      # int orjson writes
    ((square_at(2 ** 70, 0, 2 ** 70),), None),        # int orjson refuses
    ((SQUARE,), {"seed": 3, "scale": 1e-5}),
    ((SQUARE, square_at(0.25, 0.25, 1e-5)), None),    # a hole of odd values
])
def test_export_text_is_json_dumps_for_any_coordinates(rings, provenance):
    parcels = [Parcel(id="P", rings=rings),
               Parcel(id="Q", rings=(square_at(2.0, 2.0, 0.5),))]
    preds = [ParcelPrediction(parcel_id=pid, histogram={0: 1}, majority=0,
                              support=1) for pid in ("P", "Q")]
    text = export_map(parcels, preds, TAX, provenance=provenance)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    doc = json.loads(text)
    assert doc["features"][0]["geometry"]["coordinates"] == \
        [[list(v) for v in ring] for ring in rings]


def test_export_does_not_walk_plain_coordinates(monkeypatch):
    """The coordinates are checked in one pass; the value-by-value walk
    of ``encode_json`` visits the same number of values however many
    vertices the parcels have."""
    from landuse import geodata
    walked = []
    real = geodata._orjson_writes_as_json

    def counting(value, depth, checked):
        walked.append(value)
        return real(value, depth, checked)

    monkeypatch.setattr(geodata, "_orjson_writes_as_json", counting)
    pp = ParcelPrediction(parcel_id="P", histogram={0: 1}, majority=0, support=1)
    counts = []
    for n in (4, 100):
        ring = [(2 + math.cos(2 * math.pi * k / n),
                 2 + math.sin(2 * math.pi * k / n)) for k in range(n)]
        walked.clear()
        export_map([Parcel(id="P", rings=(tuple(ring + ring[:1]),))], [pp], TAX)
        counts.append(len(walked))
    assert counts[0] == counts[1]
