import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landuse.classifier import SoftmaxModel, init_model
from landuse.dataset import ImageRecord, ManifestTable
from landuse.evaluation import mapping_metrics
from landuse.fusion_mapping import (aggregate_parcels, equal_weights,
                                    export_map, fuse, predict_image,
                                    predict_table)
from landuse.geodata import Assignment, GeoJSONParseError, Parcel, parse_parcels
from landuse.taxonomy import Level, TaxonomyError, builtin_taxonomy

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

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def A(image_id, *parcel_ids):
    return Assignment(image_id=image_id,
                      modes={p: "inside" for p in parcel_ids})


def squares(*ids):
    return [Parcel(id=pid, rings=(SQUARE,)) for pid in ids]


def histogram(row):
    return {c: k for c, k in enumerate(row.tolist()) if k}


def test_majority_and_support():
    restaurant, bar = TAX.index("restaurant"), TAX.index("bar")
    assignments = [A(f"i{k}", "P1") for k in range(4)]
    preds = {"i0": restaurant, "i1": restaurant, "i2": restaurant, "i3": bar}
    votes = aggregate_parcels(assignments, preds, squares("P1"), TAX)
    assert votes.dtype == np.int64 and votes.shape == (1, 45)
    assert votes[0].argmax() == restaurant
    assert votes[0].sum() == 4
    assert histogram(votes[0]) == {restaurant: 3, bar: 1}


def test_tie_breaks_to_lowest_index():
    preds = {"i0": 5, "i1": 2, "i2": 5, "i3": 2}
    votes = aggregate_parcels([A(f"i{k}", "P") for k in range(4)], preds,
                              squares("P"), TAX)
    assert votes[0].argmax() == 2


def test_multi_parcel_image_votes_in_each():
    votes = aggregate_parcels([A("i0", "P1", "P2")], {"i0": 3},
                              squares("P1", "P2", "P3"), TAX)
    assert [histogram(row) for row in votes] == [{3: 1}, {3: 1}, {}]


def test_aggregate_order_invariant():
    assignments = [A("i0", "P1"), A("i1", "P2"), A("i2", "P1")]
    preds = {"i0": 1, "i1": 2, "i2": 3}
    parcels = squares("P1", "P2")
    np.testing.assert_array_equal(
        aggregate_parcels(assignments, preds, parcels, TAX),
        aggregate_parcels(list(reversed(assignments)), preds, parcels, TAX))


def test_support_sums_to_assignment_pairs():
    rng = np.random.default_rng(5)
    assignments = [A(f"i{k}", *(f"P{j}" for j in rng.choice(6, size=rng.integers(1, 4), replace=False)))
                   for k in range(40)]
    preds = {f"i{k}": int(rng.integers(0, 45)) for k in range(40)}
    votes = aggregate_parcels(assignments, preds,
                              squares(*(f"P{j}" for j in range(6))), TAX)
    pairs = sum(len(a.modes) for a in assignments)
    assert votes.sum(axis=1).sum() == pairs


def test_unknown_parcel_id_raises_after_the_prediction_checks():
    assignments = [A("i0", "P"), A("i1", "Q", "X"), A("i2", "Y")]
    parcels, preds = squares("P", "Q"), {"i0": 1, "i1": 2, "i2": 3}
    for score in (aggregate_parcels, mapping_metrics):
        with pytest.raises(ValueError, match="^unknown parcel X$"):
            score(assignments, preds, parcels, TAX)
    with pytest.raises(ValueError, match="no prediction for image i2"):
        aggregate_parcels(assignments, {"i0": 1, "i1": 2}, parcels, TAX)
    with pytest.raises(TaxonomyError, match="fine index 45 out of range"):
        aggregate_parcels(assignments, {**preds, "i2": 45}, parcels, TAX)


def test_missing_prediction_names_image():
    with pytest.raises(ValueError, match="i9"):
        aggregate_parcels([A("i9", "P")], {}, squares("P"), TAX)


@pytest.mark.parametrize("pred", [-1, 45, 2 ** 70])
def test_prediction_out_of_range_raises_before_counting(pred):
    with pytest.raises(TaxonomyError, match=f"fine index {pred} out of range"):
        aggregate_parcels([A("i0", "P"), A("i1", "P")], {"i0": 3, "i1": pred},
                          squares("P"), TAX)
    with pytest.raises(ValueError, match="no prediction for image i2"):
        aggregate_parcels([A("i1", "P"), A("i2", "P")], {"i1": pred},
                          squares("P"), TAX)


@settings(max_examples=200, deadline=None)
@given(n_parcels=st.integers(0, 4), data=st.data())
def test_votes_equal_per_pair_counts(n_parcels, data):
    """Row ``k`` is the ``Counter`` of parcel ``k``'s votes, one per
    (image, parcel) pair, and its argmax the lowest-index majority."""
    ids = [f"P{k}" for k in range(n_parcels)]
    assignments, preds = [], {}
    for i in range(data.draw(st.integers(0, 12 if ids else 0))):
        pids = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                  max_size=3, unique=True))
        assignments.append(A(f"i{i}", *pids))
        preds[f"i{i}"] = data.draw(st.sampled_from([0, 1, 7, 44]))
    votes = aggregate_parcels(assignments, preds, squares(*ids), TAX)
    counts = {pid: Counter() for pid in ids}
    for a in assignments:
        for pid, _mode in a.pairs():
            counts[pid][preds[a.image_id]] += 1
    assert [histogram(row) for row in votes] == [
        dict(sorted(h.items())) for h in counts.values()]
    for row, h in zip(votes, counts.values()):
        if h:
            top = max(h.values())
            assert row.argmax() == min(c for c, k in h.items() if k == top)


# ---------------------------------------------------------------------------
# map export


def one_vote_each(n):
    """Votes of ``n`` parcels that each hold one vote for class 0."""
    votes = np.zeros((n, 45), dtype=np.int64)
    votes[:, 0] = 1
    return votes


def test_export_rolls_up_to_top():
    parcel = Parcel(id="P", rings=(SQUARE,))
    votes = np.zeros((1, 45), dtype=np.int64)
    votes[0, TAX.index("bakery")] = 2
    doc = json.loads(export_map([parcel], votes, TAX, Level.TOP))
    (feature,) = doc["features"]
    assert feature["properties"]["landuse_pred"] == "General sales or services"
    assert feature["properties"]["support"] == 2
    assert feature["properties"]["histogram"] == {"bakery": 2}
    assert feature["geometry"]["coordinates"] == [[list(v) for v in SQUARE]]


def test_export_empty_predictions():
    parcels = squares("P", "Q")
    votes = aggregate_parcels([], {}, parcels, TAX)
    assert votes.shape == (2, 45) and not votes.any()
    doc = json.loads(export_map(parcels, votes, TAX))
    assert doc == {"type": "FeatureCollection", "features": []}


def test_export_draws_only_parcels_with_votes_in_parcel_order():
    parcels = squares("P", "Q", "R")
    votes = aggregate_parcels([A("i0", "R"), A("i1", "P")],
                              {"i0": 4, "i1": 9}, parcels, TAX)
    doc = json.loads(export_map(parcels, votes, TAX))
    assert [f["id"] for f in doc["features"]] == ["P", "R"]
    assert [f["properties"]["histogram"] for f in doc["features"]] == [
        {TAX.name(9): 1}, {TAX.name(4): 1}]


def test_export_puts_provenance_last():
    parcel = Parcel(id="P", rings=(SQUARE,))
    text = export_map([parcel], one_vote_each(1), TAX, provenance={"seed": 3})
    doc = json.loads(text)
    assert list(doc) == ["type", "features", "provenance"]
    assert doc["provenance"] == {"seed": 3}


def test_export_round_trips_through_parser():
    parcel = Parcel(id="P", rings=(SQUARE,))
    text = export_map([parcel], one_vote_each(1), TAX)
    again = parse_parcels(text, TAX)
    assert [p.id for p in again] == ["P"]
    assert again[0].rings == (SQUARE,)


def square_at(x0, y0, side):
    return ((x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side),
            (x0, y0))


@pytest.mark.parametrize("rings,provenance", [
    ((SQUARE,), None),
    ((square_at(0, 0, 1),), None),                    # integers in code
    ((square_at(-0.0, 0.0, 1.0),), None),             # negative zero
    ((square_at(1e-5, 0.5, 1.0),), None),             # below 1e-4
    ((square_at(1e16, 0.5, 1e16),), None),            # from 1e16
    ((square_at(5e-324, 0.5, 1.0),), None),           # subnormal
    ((square_at(10 ** 17, 0, 10 ** 17),), None),      # int orjson writes
    ((SQUARE,), {"seed": 3, "scale": 1e-5}),
    ((SQUARE, square_at(0.25, 0.25, 1e-5)), None),    # a hole of odd values
])
def test_export_text_reads_back_for_any_coordinates(rings, provenance):
    """The map reads back, through ``json``, to the coordinates it was
    given, integers as integers, and through ``parse_parcels`` to floats of
    the same values. A parcel built in code may lie outside lon/lat range:
    its map exports, and parsing refuses it."""
    parcels = [Parcel(id="P", rings=rings),
               Parcel(id="Q", rings=(square_at(2.0, 2.0, 0.5),))]
    text = export_map(parcels, one_vote_each(2), TAX, provenance=provenance)
    doc = json.loads(text)
    assert doc["features"][0]["geometry"]["coordinates"] == \
        [[list(v) for v in ring] for ring in rings]
    assert doc.get("provenance") == provenance
    if max(abs(c) for ring in rings for v in ring for c in v) > 180:
        with pytest.raises(GeoJSONParseError, match="out of range"):
            parse_parcels(text, TAX)
        return
    again = parse_parcels(text, TAX)
    assert [(p.id, p.rings) for p in again] == [(p.id, p.rings) for p in parcels]
    assert {type(c) for p in again for ring in p.rings for v in ring
            for c in v} == {float}


@pytest.mark.parametrize("parcel", [
    Parcel(id="lone\udc80", rings=(SQUARE,)),
    Parcel(id="P", rings=(square_at(2 ** 70, 0, 2 ** 70),))], ids=repr)
def test_export_refuses_what_the_writer_cannot_hold(parcel):
    """A parcel built in code may hold what no parsed parcel holds, a lone
    surrogate or an integer past 64 bits; the writer refuses it, as json
    no longer writes it."""
    with pytest.raises(TypeError):
        export_map([parcel], one_vote_each(1), TAX)


@pytest.mark.parametrize("pid", ["Zürich", "del\x7f", "line\u2028end",
                                 'q"\\\x01'])
def test_export_text_reads_back_for_any_parcel_id(pid):
    parcels = squares("P", pid)
    text = export_map(parcels, one_vote_each(2), TAX)
    doc = json.loads(text)
    assert [f["properties"]["parcel"] for f in doc["features"]] == ["P", pid]
    assert [p.id for p in parse_parcels(text, TAX)] == ["P", pid]
