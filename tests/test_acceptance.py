"""Acceptance gate: eight end-to-end criteria, one test each.

Every test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
(visible with ``pytest -s``) and enforces its runtime budget. Tolerances
are stated inline next to each check.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np

from _oracles import finite_difference_grads, oracle_contains, random_parcel
from landuse.adaptive import GateConfig, adaptive_finetune, discard_probability
from landuse.classifier import (Schedule, SoftmaxModel, accuracy,
                                forward, init_model, load_model, loss_grad,
                                save_model, train)
from landuse.cli import main as cli_main
from landuse.evaluation import image_accuracy, mapping_metrics
from landuse.fusion_mapping import equal_weights, fuse, predict_image
from landuse.geodata import (GeoPoint, Parcel, assign, contains,
                             boundary_distance_m, METERS_PER_DEGREE)
from landuse.synth import complementary_stream_split, noisy_web_split
from landuse.taxonomy import Level, builtin_taxonomy

TAX = builtin_taxonomy()


@contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over {budget_s}s budget"
    print(f"criterion {number} ({name}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------


def test_criterion_1_gate_closed_forms():
    with criterion(1, "confidence gate closed forms", 1.0):
        for n in (2, 5, 45):
            assert discard_probability(np.full(n, 1 / n)) == 1.0
        one_hot = np.zeros(45)
        one_hot[3] = 1.0
        assert discard_probability(one_hot) == 0.0
        example = [0.4, 0.15, 0.15, 0.15, 0.15]
        assert abs(discard_probability(example) - 0.778597) < 1e-6

        # hard keep at threshold 0.5 must equal max(y) > 1/n + ln 1.5
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            n = int(rng.integers(2, 46))
            y = rng.dirichlet(np.ones(n))
            kept = discard_probability(y) < 0.5
            assert kept == (y.max() > 1 / n + math.log(1.5))


def test_criterion_2_gradients_match_finite_differences():
    with criterion(2, "analytic gradients", 5.0):
        rng = random.Random(2)
        nprng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            n = rng.randint(2, 6)
            d = rng.randint(1, 8)
            size = rng.randint(2, 10)
            X = np.array([nprng.standard_normal(d) for _ in range(size)])
            y = np.array([rng.randrange(n) for _ in range(size)])
            model = SoftmaxModel(W=nprng.standard_normal((n, d)),
                                 b=nprng.standard_normal(n), stream="object")
            weights = np.abs(nprng.standard_normal(size)) + 1e-3
            _, gW, gb = loss_grad(model, X, y, weights)
            fW, fb = finite_difference_grads(model, X, y, weights, step=1e-6)
            analytic = np.concatenate([gW.ravel(), gb])
            numeric = np.concatenate([fW.ravel(), fb])
            scale = max(float(np.linalg.norm(numeric)), 1e-8)
            worst = max(worst,
                        float(np.linalg.norm(analytic - numeric)) / scale)
        assert worst < 1e-5, f"max relative gradient error {worst:.2e}"


def test_criterion_3_geometry_oracle():
    with criterion(3, "geometry oracle", 10.0):
        rng = random.Random(3)
        parcels = [random_parcel(rng, k) for k in range(50)]
        points = [(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
                  for _ in range(1000)]
        for parcel in parcels:
            for lon, lat in points:
                assert contains(parcel, GeoPoint(lon, lat)) == \
                    oracle_contains(parcel, lon, lat)

        # dilation monotonicity on scattered points around two squares
        lat0 = 37.75
        dlat = 100.0 / METERS_PER_DEGREE
        latc = lat0 + dlat / 2
        dlon = 100.0 / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
        lon0 = -122.42

        def square(pid, x0):
            ring = ((x0, lat0), (x0 + dlon, lat0), (x0 + dlon, lat0 + dlat),
                    (x0, lat0 + dlat), (x0, lat0))
            return Parcel(id=pid, rings=(ring,))

        squares = [square("A", lon0), square("B", lon0 + 2 * dlon)]
        records = [(f"p{i}", GeoPoint(lon0 + rng.uniform(-2e-3, 5e-3),
                                      lat0 + rng.uniform(-2e-3, 3e-3)))
                   for i in range(300)]
        prev = set()
        for dilation in (0.0, 1.0, 5.0, 20.0, 150.0):
            pairs = {(a.image_id, pid)
                     for a in assign(records, squares, dilation)
                     for pid in a.parcel_ids}
            assert prev <= pairs
            prev = pairs

        # 4 m / 6 m buffer fixtures, +-0.1 m
        east = 1.0 / (METERS_PER_DEGREE * math.cos(math.radians(latc)))
        mid_lat = lat0 + dlat / 2
        near = GeoPoint(lon0 + dlon + 4 * east, mid_lat)
        assert abs(boundary_distance_m(squares[0], near) - 4.0) < 0.1
        out = assign([("near", near)], [squares[0]], dilation_m=5.0)
        assert out and out[0].modes == {"A": "dilated"}
        far = GeoPoint(lon0 + dlon + 6 * east, mid_lat)
        assert abs(boundary_distance_m(squares[0], far) - 6.0) < 0.1
        assert assign([("far", far)], [squares[0]], dilation_m=5.0) == []


def test_criterion_4_adaptive_training_direction():
    with criterion(4, "adaptive training beats plain fine-tuning", 60.0):
        margins = []
        for seed in range(5):
            train_set, val_set = noisy_web_split(10, 2000, 2000, 512,
                                                 seed=seed, noise_rate=0.3)
            stage1 = Schedule(initial_lr=0.01, decay_factor=10.0,
                              decay_every=5, total_epochs=12,
                              batch_size=2000, seed=seed, domain_ratio=1.0)
            base = train(init_model(10, 512, "object"), train_set,
                         stage1).model
            finetune = Schedule(initial_lr=1e-5, decay_factor=10.0,
                                decay_every=1, total_epochs=4, batch_size=2,
                                seed=seed + 99, domain_ratio=1.0)
            adapted = adaptive_finetune(
                base, train_set, GateConfig(schedule=finetune)).model
            plain = train(base, train_set, finetune).model
            margins.append(accuracy(adapted, val_set)
                           - accuracy(plain, val_set))
        mean_margin = sum(margins) / len(margins)
        assert mean_margin >= 0.02, \
            f"mean margin {100 * mean_margin:.2f} points, need >= 2"


def test_criterion_5_fusion_properties():
    with criterion(5, "late fusion", 30.0):
        eq = equal_weights(["object", "scene"])
        rng = np.random.default_rng(5)

        s = rng.dirichlet(np.ones(45))
        np.testing.assert_array_equal(fuse({"object": s, "scene": s}, eq), s)

        for _ in range(1000):
            v = rng.dirichlet(np.ones(int(rng.integers(2, 46))))
            fused = fuse({"object": v, "scene": np.full(len(v), 1 / len(v))},
                         eq)
            assert int(np.argmax(fused)) == int(np.argmax(v))

        # complementary streams: fused accuracy within 1 point of the best
        # single stream (and in practice well above it)
        train_set, val_set = complementary_stream_split(6, 1800, 600, 16,
                                                        seed=5)
        models = {}
        single = {}
        for stream in ("object", "scene"):
            sched = Schedule(initial_lr=0.1, total_epochs=8, batch_size=64,
                             seed=5, domain_ratio=1.0)
            models[stream] = train(init_model(6, 16, stream), train_set,
                                   sched).model
            single[stream] = accuracy(models[stream], val_set)
        fused_correct = sum(
            1 for r in val_set
            if predict_image(models, r, eq)[0] == r.label)
        fused_acc = fused_correct / len(val_set)
        assert fused_acc >= max(single.values()) - 0.01, \
            f"fused {fused_acc:.3f} vs single {single}"


def test_criterion_6_roll_up_accuracy_ordering():
    with criterion(6, "roll-up accuracy ordering", 5.0):
        rng = random.Random(6)
        for _ in range(50):
            ids = [f"i{k}" for k in range(rng.randint(5, 200))]
            preds = {i: rng.randrange(45) for i in ids}
            labels = {i: rng.randrange(45) for i in ids}
            accs = {}
            for level in (Level.FINE, Level.MIDDLE, Level.TOP):
                accs[level] = image_accuracy(
                    {i: TAX.roll_up(c, level) for i, c in preds.items()},
                    {i: TAX.roll_up(c, level) for i, c in labels.items()})
            assert accs[Level.FINE] <= accs[Level.MIDDLE] <= accs[Level.TOP]


def test_criterion_7_metrics_fixture():
    with criterion(7, "mapping metrics", 5.0):
        square = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))

        def parcel(pid, *names):
            return Parcel(id=pid, rings=(square,),
                          truth=frozenset(TAX.index(n) for n in names))

        def assignment(image_id, parcel_id):
            from landuse.geodata import Assignment
            return Assignment(image_id=image_id,
                              modes={parcel_id: "inside"})

        parcels = [parcel("P1", "restaurant", "bar"), parcel("P2", "bank")]
        assignments = [assignment("i1", "P1"), assignment("i2", "P1"),
                       assignment("i3", "P2")]
        predictions = {"i1": TAX.index("restaurant"),
                       "i2": TAX.index("school"),
                       "i3": TAX.index("bank")}
        report = mapping_metrics(assignments, predictions, parcels, TAX)
        assert report.precision == 2 / 3
        assert report.recall == 2 / 3
        assert report.f1_micro == 2 / 3

        # precision/recall never drop under roll-up; truth classes are
        # drawn with distinct top ancestors, the regime where the recall
        # inequality is a theorem (collapsing truths can break it)
        rng = random.Random(7)
        for _ in range(100):
            parcels = []
            for k in range(rng.randint(2, 8)):
                tops = set()
                names = []
                while len(names) < rng.randint(1, 3):
                    name = rng.choice(TAX.fine_classes)
                    top = TAX.roll_up(TAX.index(name), Level.TOP)
                    if top not in tops:
                        tops.add(top)
                        names.append(name)
                parcels.append(parcel(f"P{k}", *names))
            assignments = []
            predictions = {}
            for i in range(rng.randint(3, 40)):
                pid = f"P{rng.randrange(len(parcels))}"
                assignments.append(assignment(f"i{i}", pid))
                predictions[f"i{i}"] = rng.randrange(45)
            reports = [mapping_metrics(assignments, predictions, parcels,
                                       TAX, level=level)
                       for level in (Level.FINE, Level.MIDDLE, Level.TOP)]
            for fine_r, coarse_r in zip(reports, reports[1:]):
                assert fine_r.precision <= coarse_r.precision + 1e-12
                assert fine_r.recall <= coarse_r.recall + 1e-12


def test_criterion_8_determinism_and_round_trips(tmp_path):
    with criterion(8, "determinism and round trips", 60.0):
        # model file round trip
        nprng = np.random.default_rng(8)
        model = SoftmaxModel(W=nprng.standard_normal((5, 9)),
                             b=nprng.standard_normal(5), stream="object")
        save_model(model, tmp_path / "m.lusm")
        again = load_model(tmp_path / "m.lusm")
        x = nprng.standard_normal(9)
        np.testing.assert_array_equal(forward(model, x), forward(again, x))

        # taxonomy text round trip is byte-stable
        text = TAX.to_text()
        from landuse.taxonomy import Taxonomy
        assert Taxonomy.from_text(text).to_text() == text

        # full pipeline: identical config in two directories must produce
        # byte-identical artifacts, including a re-parse of the map
        config = (
            "seed=8\n"
            "parcels=data/parcels.geojson\n"
            "train_manifest=data/train.jsonl\n"
            "val_manifest=data/val.jsonl\n"
            "map_manifest=data/map.jsonl\n"
            "out_dir=out\n"
            "synth.grid=3\n"
            "synth.classes=6\n"
            "synth.train_per_class=20\n"
            "synth.val_per_class=5\n"
            "synth.dim=8\n"
            "train.epochs=3\n"
            "train.batch_size=32\n"
            "finetune.epochs=2\n"
            "finetune.batch_size=32\n")
        outputs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            base.mkdir()
            cfg = base / "cfg.txt"
            cfg.write_text(config, encoding="utf-8")
            assert cli_main(["all", "--config", str(cfg)]) == 0
            out = base / "out"
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
            geo = json.loads((out / "map.geojson").read_text())
            assert geo["features"]
        assert outputs[0] == outputs[1]
        assert set(outputs[0]) >= {"map.geojson", "report.json",
                                   "assignments.jsonl", "predictions.jsonl"}
