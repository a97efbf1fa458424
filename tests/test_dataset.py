import json

import numpy as np
import pytest

from landuse.dataset import (DOMAIN_A, DOMAIN_B, ImageRecord, ManifestError,
                             load_manifest, read_feature_file,
                             stratified_batches, write_feature_file)
from landuse.taxonomy import builtin_taxonomy

TAX = builtin_taxonomy()


def rec(i, domain=DOMAIN_A, dim=4, label=0):
    return ImageRecord(id=f"r{i}", domain=domain,
                       features={"object": np.zeros(dim)}, label=label)


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


def test_feature_file_round_trip(tmp_path):
    vectors = {f"id{i}": np.arange(6, dtype=np.float64) + i for i in range(5)}
    path = tmp_path / "f.lufv"
    write_feature_file(path, vectors)
    again = read_feature_file(path)
    assert set(again) == set(vectors)
    for k in vectors:
        np.testing.assert_allclose(again[k], vectors[k], atol=1e-6)


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


# ---------------------------------------------------------------------------
# batching


def mixed_pool(n_a, n_b, dim=4):
    return ([rec(i, DOMAIN_A, dim) for i in range(n_a)]
            + [rec(1000 + i, DOMAIN_B, dim) for i in range(n_b)])


def test_ratio_half_256():
    pool = mixed_pool(600, 600)
    batches = stratified_batches(pool, 256, 0.5, seed=0)
    assert batches
    for b in batches:
        assert b.size == 256
        assert sum(r.domain == DOMAIN_A for r in b.records) == 128
        assert sum(r.domain == DOMAIN_B for r in b.records) == 128


def test_ratio_one_is_single_domain():
    pool = mixed_pool(100, 0)
    batches = stratified_batches(pool, 10, 1.0, seed=1)
    assert len(batches) == 10
    assert all(r.domain != DOMAIN_B for b in batches for r in b.records)
    # drop-last epoch covers every domain-A record exactly once
    ids = [r.id for b in batches for r in b.records]
    assert sorted(ids) == sorted(r.id for r in pool)


def test_shorter_domain_recycles():
    pool = mixed_pool(100, 7)
    batches = stratified_batches(pool, 10, 0.5, seed=2)
    assert len(batches) == 100 // 5
    for b in batches:
        assert sum(r.domain == DOMAIN_B for r in b.records) == 5


def test_same_seed_identical():
    pool = mixed_pool(80, 80)
    a = stratified_batches(pool, 16, 0.5, seed=9)
    b = stratified_batches(pool, 16, 0.5, seed=9)
    assert [[r.id for r in batch.records] for batch in a] == \
        [[r.id for r in batch.records] for batch in b]


def test_different_seeds_differ():
    pool = mixed_pool(120, 120)
    a = stratified_batches(pool, 16, 0.5, seed=1)
    b = stratified_batches(pool, 16, 0.5, seed=2)
    assert [[r.id for r in batch.records] for batch in a] != \
        [[r.id for r in batch.records] for batch in b]


def test_missing_required_domain():
    pool = mixed_pool(10, 0)
    with pytest.raises(ValueError, match="domain-B"):
        stratified_batches(pool, 10, 0.5, seed=0)


def test_too_few_records_for_one_batch():
    pool = mixed_pool(40, 40)
    with pytest.raises(ValueError, match="40 domain-A and 40 domain-B.*256"):
        stratified_batches(pool, 256, 0.5, seed=0)


def test_bad_batch_args():
    pool = mixed_pool(10, 10)
    with pytest.raises(ValueError):
        stratified_batches(pool, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        stratified_batches(pool, 10, 1.5, seed=0)
