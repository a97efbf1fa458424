import csv
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from landuse.evaluation import (PER_CLASS_COLUMNS, image_accuracy,
                                mapping_metrics, per_class_report)
from landuse.geodata import Assignment, Parcel
from landuse.taxonomy import Level, TaxonomyError, builtin_taxonomy

TAX = builtin_taxonomy()

SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))


def parcel(pid, *names):
    return Parcel(id=pid, rings=(SQUARE,),
                  truth=frozenset(TAX.index(n) for n in names))


def A(image_id, *parcel_ids):
    return Assignment(image_id=image_id,
                      modes={p: "inside" for p in parcel_ids})


# ---------------------------------------------------------------------------
# image accuracy


def test_image_accuracy_identical():
    preds = {"a": 1, "b": 2}
    assert image_accuracy(preds, dict(preds)) == 1.0


def test_image_accuracy_disjoint():
    assert image_accuracy({"a": 1}, {"a": 2}) == 0.0


def test_image_accuracy_three_of_four():
    preds = {"a": 1, "b": 2, "c": 3, "d": 4}
    labels = {"a": 1, "b": 2, "c": 3, "d": 0}
    assert image_accuracy(preds, labels) == 0.75


def test_image_accuracy_missing_label():
    with pytest.raises(ValueError, match="ghost"):
        image_accuracy({"ghost": 1}, {})


def test_image_accuracy_empty():
    assert image_accuracy({}, {}) == 0.0


# ---------------------------------------------------------------------------
# mapping metrics


def hand_fixture():
    parcels = [parcel("P1", "restaurant", "bar"), parcel("P2", "bank")]
    assignments = [A("i1", "P1"), A("i2", "P1"), A("i3", "P2")]
    predictions = {"i1": TAX.index("restaurant"),
                   "i2": TAX.index("school"),
                   "i3": TAX.index("bank")}
    return parcels, assignments, predictions


def test_hand_fixture_exact():
    parcels, assignments, predictions = hand_fixture()
    r = mapping_metrics(assignments, predictions, parcels, TAX)
    assert r.correct == 2 and r.predictions == 3 and r.gt_records == 3
    assert r.precision == 2 / 3
    assert r.recall == 2 / 3
    assert r.f1_micro == 2 / 3
    # integer consistency
    assert r.precision * r.predictions == r.correct


def test_all_correct_precision_one():
    parcels = [parcel("P1", "restaurant")]
    assignments = [A("i1", "P1"), A("i2", "P1")]
    preds = {"i1": TAX.index("restaurant"), "i2": TAX.index("restaurant")}
    r = mapping_metrics(assignments, preds, parcels, TAX)
    assert r.precision == 1.0 and r.recall == 1.0


def test_empty_case():
    parcels = [parcel("P1", "bank")]
    r = mapping_metrics([], {}, parcels, TAX)
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1_micro == 0.0


def test_untruthed_parcels_excluded_by_default():
    parcels = [parcel("P1", "bank"), parcel("P2")]
    assignments = [A("i1", "P1"), A("i2", "P2")]
    preds = {"i1": TAX.index("bank"), "i2": TAX.index("bank")}
    r = mapping_metrics(assignments, preds, parcels, TAX)
    assert r.predictions == 1 and r.precision == 1.0
    r2 = mapping_metrics(assignments, preds, parcels, TAX,
                         include_untruthed=True)
    assert r2.predictions == 2 and r2.precision == 0.5


def test_missing_prediction_raises():
    parcels = [parcel("P1", "bank")]
    with pytest.raises(ValueError, match="i1"):
        mapping_metrics([A("i1", "P1")], {}, parcels, TAX)


def test_missing_prediction_is_reported_before_a_bad_pred():
    parcels = [parcel("P1", "bank")]
    with pytest.raises(ValueError, match="no prediction for image i2"):
        mapping_metrics([A("i1", "P1"), A("i2", "P1")], {"i1": 45}, parcels,
                        TAX)


@pytest.mark.parametrize("include", [False, True])
def test_pred_out_of_range_on_an_untruthed_parcel_raises(include):
    parcels = [parcel("P1", "bank"), parcel("P2")]
    with pytest.raises(TaxonomyError, match="fine index 45 out of range"):
        mapping_metrics([A("i1", "P2")], {"i1": 45}, parcels, TAX,
                        include_untruthed=include)


def per_pair_counts(assignments, predictions, parcels, level,
                    include_untruthed):
    """The counts of ``mapping_metrics`` taken one (image, parcel) pair at
    a time: (correct, mappings, mappings per class, correct per class,
    recalled (parcel, class) records)."""
    truth = {p.id: {TAX.roll_up(c, level) for c in p.truth}
             for p in parcels if p.truth}
    correct = mappings = 0
    pred_count, correct_count = Counter(), Counter()
    recalled = set()
    for a in assignments:
        pred = TAX.roll_up(predictions[a.image_id], level)
        for parcel_id, _mode in a.pairs():
            classes = truth.get(parcel_id)
            if classes is None and not include_untruthed:
                continue
            mappings += 1
            pred_count[pred] += 1
            if classes is not None and pred in classes:
                correct += 1
                correct_count[pred] += 1
                recalled.add((parcel_id, pred))
    return correct, mappings, pred_count, correct_count, recalled


@st.composite
def vote_cases(draw):
    """(parcels, assignments, predictions): truths and predictions drawn
    from one small pool of fine classes, so that many pairs are correct;
    parcels with no truth, images in several parcels, and assignments to
    a parcel id that is not in ``parcels``."""
    pool = st.sampled_from(draw(st.lists(st.integers(0, 44), min_size=1,
                                         max_size=6, unique=True)))
    parcels = [Parcel(id=f"P{k}", rings=(SQUARE,),
                      truth=draw(st.frozensets(pool, max_size=3)))
               for k in range(draw(st.integers(1, 5)))]
    ids = [p.id for p in parcels] + ["elsewhere"]
    assignments, predictions = [], {}
    for i in range(draw(st.integers(0, 12))):
        pids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3,
                             unique=True))
        assignments.append(Assignment(image_id=f"i{i}", modes={
            pid: draw(st.sampled_from(("inside", "dilated"))) for pid in pids}))
        predictions[f"i{i}"] = draw(pool)
    return parcels, assignments, predictions


@settings(max_examples=300, deadline=None)
@given(case=vote_cases(), level=st.sampled_from(Level),
       include=st.booleans())
def test_mapping_metrics_equal_per_pair_counts(case, level, include):
    parcels, assignments, predictions = case
    r = mapping_metrics(assignments, predictions, parcels, TAX, level=level,
                        include_untruthed=include)
    correct, mappings, pred_count, correct_count, recalled = per_pair_counts(
        assignments, predictions, parcels, level, include)
    assert (r.correct, r.predictions) == (correct, mappings)
    assert r.precision == (correct / mappings if mappings else 0.0)
    assert r.recall == (len(recalled) / r.gt_records if r.gt_records else 0.0)
    for c in range(TAX.n_classes(level)):
        m = r.per_class.get(c)
        assert (m.predictions if m else 0) == pred_count[c]
        if pred_count[c]:
            assert m.precision == correct_count[c] / pred_count[c]
        if m and m.support:
            assert m.recall == sum(k == c for _, k in recalled) / m.support


def test_metrics_permutation_invariant():
    parcels, assignments, predictions = hand_fixture()
    r1 = mapping_metrics(assignments, predictions, parcels, TAX)
    r2 = mapping_metrics(list(reversed(assignments)), predictions,
                         list(reversed(parcels)), TAX)
    assert r1 == r2


def distinct_ancestor_names(rng, count):
    # recall roll-up monotonicity needs truth classes that stay distinct at
    # every level; classes sharing an ancestor can merge two recalled
    # records into one and shrink the ratio
    names, tops = [], set()
    while len(names) < count:
        name = rng.choice(TAX.fine_classes)
        top = TAX.roll_up(TAX.index(name), Level.TOP)
        if top not in tops:
            tops.add(top)
            names.append(name)
    return names


def random_eval(rng):
    n_parcels = rng.randint(2, 8)
    parcels = []
    for k in range(n_parcels):
        names = distinct_ancestor_names(rng, rng.randint(1, 3))
        parcels.append(parcel(f"P{k}", *names))
    assignments = []
    predictions = {}
    for i in range(rng.randint(3, 30)):
        pids = rng.sample([p.id for p in parcels], rng.randint(1, 2))
        assignments.append(A(f"i{i}", *pids))
        predictions[f"i{i}"] = rng.randrange(45)
    return parcels, assignments, predictions


def test_roll_up_monotone_random():
    rng = random.Random(99)
    for _ in range(60):
        parcels, assignments, predictions = random_eval(rng)
        fine = mapping_metrics(assignments, predictions, parcels, TAX,
                               level=Level.FINE)
        middle = mapping_metrics(assignments, predictions, parcels, TAX,
                                 level=Level.MIDDLE)
        top = mapping_metrics(assignments, predictions, parcels, TAX,
                              level=Level.TOP)
        assert fine.precision <= middle.precision <= top.precision
        assert fine.recall <= middle.recall <= top.recall
        for r in (fine, middle, top):
            assert 0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0


def test_recall_can_drop_when_truths_collapse():
    # documents why the monotonicity test restricts truth sets: both fine
    # truths of P roll to the same middle class, so two recalled fine
    # records become one, while Q's unrecalled record survives roll-up
    parcels = [parcel("P", "restaurant", "bar"), parcel("Q", "bank")]
    assignments = [A("i1", "P"), A("i2", "P"), A("i3", "Q")]
    preds = {"i1": TAX.index("restaurant"), "i2": TAX.index("bar"),
             "i3": TAX.index("school")}
    fine = mapping_metrics(assignments, preds, parcels, TAX, level=Level.FINE)
    middle = mapping_metrics(assignments, preds, parcels, TAX,
                             level=Level.MIDDLE)
    assert fine.recall == 2 / 3
    assert middle.recall == 1 / 2
    # precision is monotone regardless
    assert fine.precision <= middle.precision


# ---------------------------------------------------------------------------
# per-class report


def test_report_bank_row():
    parcels, assignments, predictions = hand_fixture()
    r = mapping_metrics(assignments, predictions, parcels, TAX)
    labels = {"i1": TAX.index("restaurant"), "i2": TAX.index("bar"),
              "i3": TAX.index("bank")}
    text = per_class_report(r, TAX, image_predictions=predictions,
                            image_labels=labels)
    rows = {row["class"]: row
            for row in csv.DictReader(io.StringIO(text))}
    assert list(rows) == list(TAX.fine_classes)
    assert rows["bank"]["mapping_recall"] == "1.000000"
    assert rows["bank"]["gt_support"] == "1"
    assert rows["bank"]["image_accuracy"] == "1.000000"


def test_report_zero_support_recall_empty():
    parcels, assignments, predictions = hand_fixture()
    r = mapping_metrics(assignments, predictions, parcels, TAX)
    text = per_class_report(r, TAX)
    rows = {row["class"]: row for row in csv.DictReader(io.StringIO(text))}
    assert rows["zoo"]["mapping_recall"] == ""
    assert rows["zoo"]["gt_support"] == "0"
    header = text.splitlines()[0]
    assert header.split(",") == PER_CLASS_COLUMNS
