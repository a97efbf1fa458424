from types import SimpleNamespace

import numpy as np
import pytest

from landuse import synth
from landuse.classifier import Schedule, init_model, train
from landuse.dataset import DOMAIN_A, DOMAIN_B, load_manifest
from landuse.geodata import parse_parcels
from landuse.synth import (blob_split, complementary_stream_split, make_city,
                           noisy_web_split)
from landuse.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()


def test_blob_split_balanced_and_seeded():
    a, _ = blob_split(4, 40, 0, 8, seed=3, mixed_domains=True)
    b, _ = blob_split(4, 40, 0, 8, seed=3, mixed_domains=True)
    assert [r.id for r in a] == [r.id for r in b]
    assert all(np.array_equal(x.features["object"], y.features["object"])
               for x, y in zip(a, b))
    assert sum(1 for r in a if r.domain == DOMAIN_A) == 20
    labels = [r.label for r in blob_split(4, 40, 0, 8, seed=3)[0]]
    assert sorted(set(labels)) == [0, 1, 2, 3]


def test_blob_split_noise_rate():
    train_set, val_set = blob_split(5, 2000, 500, 8, noise_rate=0.3, seed=1)
    flipped = sum(1 for i, r in enumerate(train_set) if r.label != i % 5)
    assert 0.25 < flipped / len(train_set) < 0.35
    assert all(r.label == i % 5 for i, r in enumerate(val_set))


def test_noisy_web_split_has_low_signal_mass():
    train_set, val_set = noisy_web_split(10, 1000, 200, 64, seed=0,
                                         feature_scale=1.0)
    means = np.zeros((10, 64))
    for i, r in enumerate(val_set):
        means[r.label] += r.features["object"]
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    # faded samples barely align with their class direction
    cos = np.array([
        r.features["object"] @ means[i % 10]
        / np.linalg.norm(r.features["object"])
        for i, r in enumerate(train_set)])
    assert 0.3 < np.mean(cos < 0.2) < 0.5
    assert all(r.label == i % 10 for i, r in enumerate(val_set))


def test_complementary_streams_partial():
    train_set, val_set = complementary_stream_split(6, 1200, 300, 16, seed=2)
    accs = {}
    for stream in ("object", "scene"):
        sched = Schedule(total_epochs=6, batch_size=64, seed=0,
                         domain_ratio=1.0, initial_lr=0.1)
        result = train(init_model(6, 16, stream), train_set, sched,
                       validation=val_set)
        accs[stream] = result.val_accuracy[-1]
    # each stream alone resolves only half the classes
    for acc in accs.values():
        assert 0.4 < acc < 0.85


def test_make_city_artifacts(tmp_path):
    paths = make_city(tmp_path, TAX, seed=11)
    parcels = parse_parcels(paths["parcels"].read_text(), TAX)
    assert len(parcels) == 16
    assert all(p.truth for p in parcels)
    train_set = load_manifest(paths["train"], TAX)
    val_set = load_manifest(paths["val"], TAX)
    map_set = load_manifest(paths["map"], TAX)
    assert len(train_set) == 40 * 8 and len(val_set) == 10 * 8
    assert {r.domain for r in train_set} == {DOMAIN_A, DOMAIN_B}
    assert all(r.geo is not None for r in map_set)
    assert all(set(r.features) == {"object", "scene"} for r in train_set)


def test_make_city_deterministic(tmp_path):
    p1 = make_city(tmp_path / "a", TAX, seed=7)
    p2 = make_city(tmp_path / "b", TAX, seed=7)
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes()
    p3 = make_city(tmp_path / "c", TAX, seed=8)
    assert p1["train"].read_bytes() != p3["train"].read_bytes()


def test_make_city_ids_unique_past_ten_columns(tmp_path):
    # row 1 column 10 and row 11 column 0 must not both be "P110"
    paths = make_city(tmp_path, TAX, seed=1, grid=11, images_per_parcel=1,
                      train_per_class=1, val_per_class=1)
    ids = [p.id for p in parse_parcels(paths["parcels"].read_text(), TAX)]
    assert len(set(ids)) == 121
    assert ids[:2] == ["P0000", "P0001"]


def test_make_city_cut_short_leaves_no_manifest(tmp_path, monkeypatch):
    dumps = synth.json.dumps
    calls = []

    def failing_dumps(row):
        calls.append(row)
        if len(calls) == 30:
            raise RuntimeError("cut")
        return dumps(row)

    monkeypatch.setattr(synth, "json", SimpleNamespace(dumps=failing_dumps))
    with pytest.raises(RuntimeError, match="cut"):
        make_city(tmp_path, TAX, seed=1)
    # the parcels were written whole before the first manifest began
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parcels.geojson"]
