import hashlib

import numpy as np
import pytest

from landuse import synth
from landuse.classifier import Schedule, init_model, train
from landuse.dataset import DOMAIN_A, DOMAIN_B, load_manifest
from landuse.geodata import parse_parcels
from landuse.synth import (complementary_stream_split, make_city,
                           noisy_web_split)
from landuse.taxonomy import Taxonomy, builtin_taxonomy

TAX = builtin_taxonomy()


def test_noisy_web_split_balanced_and_seeded():
    kw = dict(noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
              feature_scale=1.0, seed=3)
    a, _ = noisy_web_split(4, 40, 0, 8, **kw, mixed_domains=True)
    b, _ = noisy_web_split(4, 40, 0, 8, **kw, mixed_domains=True)
    assert [r.id for r in a] == [r.id for r in b]
    assert all(np.array_equal(x.features["object"], y.features["object"])
               for x, y in zip(a, b))
    assert sum(1 for r in a if r.domain == DOMAIN_A) == 20
    labels = [r.label for r in noisy_web_split(4, 40, 0, 8, **kw)[0]]
    assert sorted(set(labels)) == [0, 1, 2, 3]


def test_noisy_web_split_noise_rate():
    train_set, val_set = noisy_web_split(5, 2000, 500, 8, noise_rate=0.3,
                                         core_spread=1.0, faded_fraction=0.0,
                                         feature_scale=1.0, seed=1)
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
    encode_json = synth.encode_json
    calls = []

    def failing_encode_json(value, indent=False):
        calls.append(value)
        if len(calls) == 30:
            raise RuntimeError("cut")
        return encode_json(value, indent)

    monkeypatch.setattr(synth, "encode_json", failing_encode_json)
    with pytest.raises(RuntimeError, match="cut"):
        make_city(tmp_path, TAX, seed=1)
    # the parcels were written whole before the first manifest began
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parcels.geojson"]


@pytest.mark.parametrize("kwargs, cut", [
    pytest.param(dict(feature_scale=1e308), "train.jsonl", id="scale"),
    pytest.param(dict(spread=float("inf")), "train.jsonl", id="spread"),
    # with no training rows, the first block drawn is the map's
    pytest.param(dict(train_per_class=0, val_per_class=0,
                      feature_scale=float("nan")), "map.jsonl", id="map"),
])
def test_make_city_rejects_non_finite_features(tmp_path, kwargs, cut):
    """A drawn block holding a non-finite value raises before it is
    written, and the manifest it was bound for is not left behind."""
    with pytest.raises(ValueError, match=f"^{cut}: a drawn feature value is"
                                         f" not finite"):
        make_city(tmp_path, TAX, seed=1, **kwargs)
    left = sorted(p.name for p in tmp_path.iterdir())
    assert cut not in left and not any(n.endswith(".tmp") for n in left)


@pytest.mark.parametrize("sigma, message", [
    (float("inf"), r"non-finite coordinate \(-?inf, -?inf\)"),
    (1e308, r"longitude \S+ out of range \[-180, 180\]"),
])
def test_make_city_rejects_a_geotag_the_manifest_would_refuse(
        tmp_path, sigma, message):
    """A drawn geotag that ``GeoPoint`` refuses raises before its row is
    written, and no map manifest is left behind."""
    with pytest.raises(ValueError, match=f"^map.jsonl: m000000: drawn geotag"
                                         f" {message} \\(geo_sigma_m"):
        make_city(tmp_path, TAX, seed=1, geo_sigma_m=sigma)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "parcels.geojson", "train.jsonl", "val.jsonl"]


#: a taxonomy of one fine class, which caps every city at one class
ONE_CLASS = Taxonomy.from_text("Top\n  Middle\n    only\n")


@pytest.mark.parametrize("kwargs, taxonomy, name", [
    pytest.param(dict(n_classes=1), TAX, "n_classes", id="one-class"),
    pytest.param({}, ONE_CLASS, "n_classes", id="capped-to-one-class"),
    pytest.param(dict(grid=-2), TAX, "grid", id="grid"),
    pytest.param(dict(images_per_parcel=-1), TAX, "images_per_parcel",
                 id="images_per_parcel"),
    pytest.param(dict(train_per_class=-1), TAX, "train_per_class",
                 id="train_per_class"),
    pytest.param(dict(val_per_class=-1), TAX, "val_per_class",
                 id="val_per_class"),
    pytest.param(dict(dim=-1), TAX, "dim", id="dim"),
    pytest.param(dict(geo_sigma_m=-0.5), TAX, "geo_sigma_m",
                 id="geo_sigma_m"),
    pytest.param(dict(geo_sigma_m=float("nan")), TAX, "geo_sigma_m",
                 id="geo_sigma_m-nan"),
    pytest.param(dict(noise_rate=-0.1), TAX, "noise_rate", id="noise-low"),
    pytest.param(dict(noise_rate=1.5), TAX, "noise_rate", id="noise-high"),
    pytest.param(dict(noise_rate=float("nan")), TAX, "noise_rate",
                 id="noise-nan"),
])
def test_make_city_rejects_bad_arguments_before_writing(tmp_path, kwargs,
                                                       taxonomy, name):
    out = tmp_path / "city"
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make_city(out, taxonomy, seed=1, **kwargs)
    assert not out.exists()


#: a learn_wide-shaped city (45 classes, 256-dim features), kept small
WIDE_CITY = dict(n_classes=45, dim=256, grid=3, images_per_parcel=3,
                 train_per_class=2, val_per_class=1, noise_rate=0.4,
                 feature_scale=7.0)

#: the city of the benchmark's city_dense workload
DENSE_CITY = dict(n_classes=16, grid=16, images_per_parcel=6,
                  geo_sigma_m=25.0, dim=16, train_per_class=40,
                  val_per_class=10)

#: the city of the benchmark's parcels_detailed workload
DETAILED_CITY = dict(n_classes=16, grid=8, images_per_parcel=4,
                     geo_sigma_m=20.0, dim=16, train_per_class=40,
                     val_per_class=10)

#: the keyword arguments of each pinned city but the seed
CITIES = {
    "default": {}, "dense": DENSE_CITY, "wide": WIDE_CITY,
    "detailed": DETAILED_CITY,
    "one_stream": dict(streams=("object",)),
    "three_streams": dict(streams=("object", "scene", "texture")),
    "repeated_stream": dict(streams=("object", "object")),
    "dim0": dict(dim=0),
    "no_map_images": dict(images_per_parcel=0),
}

#: sha256 of each file make_city writes, orjson's text. The cities from
#: "detailed" on pin what drawing a row's streams in one call could
#: break: their stream counts, a stream named twice (its last draw is
#: kept), no feature values and no map images.
CITY_SHA256 = {
    ("dense", 7): {
        "parcels": "8da5f600d1e59d4511d9885ba0d388dae48c33e7c416569707b022836e72ba52",
        "train": "687867cc64932fce9f1920f3250cbe44e58c3cbb57736c4c83d325fa13200ee3",
        "val": "889c82df196d5be23d99820b292f0afbeec2808a861899ea600f988bc2573a3b",
        "map": "e552b8887ad8d03db91b7dcddd875f242f02a245a5d47ef3f11d1710f896fc4d"},
    ("default", 7): {
        "parcels": "0499f528222ffbffe3cbe5eb7033f39a6a0517c2b74802af37c1df724769e413",
        "train": "5c2fd7efa05c617614307a40872a81e20532ba74f131daf15b214ab48ef76a1a",
        "val": "47e19b3a80d509d44a620baad01327ec1ecd1652d55f4a7fdf8c5caaf037405f",
        "map": "aca238287055314d0d6730da720d15c18dc204d7fc1d2e37d2ffd49daf321c3c"},
    ("default", 11): {
        "parcels": "bda4072e61bc33432a6dae6a7fb971161dc1119e4703d43a1f56af9bc74ba03a",
        "train": "bdbdda9223b213f2de263ca7ce6dcaa54e4b8eb9fbf52d5b333280b4760f7256",
        "val": "bc1abcb40a8857cbdbb9613051c6b39115b4d1af58be48a96c09b3e723d9a619",
        "map": "7cc736ad0eb7fbb126350baccbde762373b1a81d980f4ed176571368938edffb"},
    ("wide", 7): {
        "parcels": "5b1833f0009b80e5b289e12404b9c302917f28e5acdc62ccc95739bbd9b2ce70",
        "train": "e8ed80db1483deb17963d78be5f1b0adfbd0ba2bfc4624f7c8b21d5444e821fd",
        "val": "23745f3cea7b4987606cb7e4c9863f0e01fc5946e9d3534c58cf7194c508c449",
        "map": "7c4416827e26d19af191c399ae5efe728dfc67bde1aaf40f0eaa56c3a22640a2"},
    ("wide", 11): {
        "parcels": "e36f001a49d77bf439187a22895d7e24e2febf5995752fa6e23d72f7ac7c81af",
        "train": "b4fb7d750464527a0a45d953b5a693f4f92c258c6c33396e3c7efd56666bff62",
        "val": "67dca74d37fd37db1ba83e484ac6f0b17b75c3e61172a7e52418cc6b1518478e",
        "map": "8a463ac49af3d25e3acde442966f050472f7953c6074dd0394900e3279180fe9"},
    ("detailed", 7): {
        "parcels": "50f9350f2463e397353588fd01e44a18d4450a4b01b52ad594e6e360180b6d7e",
        "train": "9caa9e5eaf6ad04f3c6b93cb78731eacfc9831290eeea2f3e832aecf804d812f",
        "val": "74afcf718f657ab8f875ebf9dca6dfe35887ede98273727a643b5329f3181554",
        "map": "71b2da3bd5c84081d0591a41b3b3bfd9f3cdc5c1fafa8cd00d93a52e4e013b36"},
    ("one_stream", 7): {
        "parcels": "4e3dc5fb1bc5bc3ccc7bb533319c0412ff495281819edf95d62dfd4291f0fc65",
        "train": "e7041af3ca32c837dae27634420a588382a7cf36bfcf5b52155fdfbfcb907229",
        "val": "0550346e0cfe04c9ab8f428b81305807ce6c699619453c461ac094a9b75b8648",
        "map": "f9706553ef52708d1905e9a7d5ba6c1a879dcda969ba21cc8987cfd84859ace5"},
    ("three_streams", 11): {
        "parcels": "cf85cd2c40268371e4b2b894a42c1fa6a76386e6b2775c7b8b0e2bf63f991dcf",
        "train": "4893d5614eceb1e33045f1d71899deb08fbc14c32d915a36d989d90b76341f01",
        "val": "0ae1f1185f0e0efeee86e158c62a10f0e96f08e41150ec51d8ae8fb8dfc3d5fc",
        "map": "e0e9a7e3ef710155ff1ae00480e9a4f944889983acc08110ffdfd33e71f3a2e7"},
    ("repeated_stream", 3): {
        "parcels": "3b6c50cbaa2c684d14af30bd30fb5a5df65f8868bf95989804df36d99543efc2",
        "train": "34da84b1dd057c0494d469860d45c8fa9a3a678386aa8bc8eb9c8cdbd9805bc3",
        "val": "e534d41e68761dd34fbfa745a3bded3ad8e1f050147ccedaf99817888bb79be2",
        "map": "2557f15a6a1f63e24f4d301e0f87610cec88c259e0f909a86757ce3c8c60eb2c"},
    ("dim0", 7): {
        "parcels": "2840f8748e148139d8ea13f8e82323b6f83e31935625e0229d31bb0a380176ff",
        "train": "cf26c3719b3037ca567210ac4786f0b13869a5772ebf5a6d37d148735c9026e2",
        "val": "3594da1ce57ccf40b56fb0ede4afde0732fedbe9a0a87927784b37cfc1fed4ff",
        "map": "df052755c23f09c15df6608eb551b108898cb77c538906d75b9c393b3b41b410"},
    ("no_map_images", 7): {
        "parcels": "0499f528222ffbffe3cbe5eb7033f39a6a0517c2b74802af37c1df724769e413",
        "train": "5c2fd7efa05c617614307a40872a81e20532ba74f131daf15b214ab48ef76a1a",
        "val": "47e19b3a80d509d44a620baad01327ec1ecd1652d55f4a7fdf8c5caaf037405f",
        "map": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
}


@pytest.mark.parametrize("city, seed", sorted(CITY_SHA256))
def test_make_city_bytes_pinned(tmp_path, city, seed):
    paths = make_city(tmp_path, TAX, seed=seed, **CITIES[city])
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest()
           for key, path in paths.items()}
    assert got == CITY_SHA256[city, seed]


def tables_sha256(tables) -> str:
    """sha256 over the ids, domains, labels and feature bytes of tables."""
    h = hashlib.sha256()
    for t in tables:
        h.update("\n".join(t.ids).encode() + b"\0")
        h.update("\n".join(map(str, t.domain)).encode() + b"\0")
        h.update(np.asarray(t.label, dtype="<i8").tobytes())
        for stream in sorted(t.features):
            h.update(stream.encode() + b"\0")
            h.update(np.ascontiguousarray(t.features[stream],
                                          dtype="<f8").tobytes())
    return h.hexdigest()


#: sha256 of the tables the samplers return on the acceptance tests' calls
SAMPLER_SHA256 = {
    ("noisy", 0): "99c2f008095e16866835a6733f938762bb02dcc7f3206b2e420a1c69864912e2",
    ("noisy", 1): "b7d69406572ed3cc2fd606fb83b34ab88494f39ea1b7a2e362d0f78f94e1cc74",
    ("noisy", 2): "5764a366876dfaa9cc508dbb683c421c34869fc042943f86faccc423316ff117",
    ("noisy", 3): "0649ace0966928c64c2390de8111b9c0370d4ad0124ddf7f48b44a7b511a47cc",
    ("noisy", 4): "c595f23f1f5c65ac41a301f6e274e4db5e904706197dcf6bcfc4e8c682ef470e",
    ("complementary", 5): "87d76b5031ab655c86f795125a3ed75216a0b0b4d82950b8e0b3c0588f5ed952",
}


@pytest.mark.parametrize("sampler, seed", sorted(SAMPLER_SHA256))
def test_sampler_draws_pinned(sampler, seed):
    if sampler == "noisy":
        tables = noisy_web_split(10, 2000, 2000, 512, seed=seed,
                                 noise_rate=0.3)
    else:
        tables = complementary_stream_split(6, 1800, 600, 16, seed=seed)
    assert tables_sha256(tables) == SAMPLER_SHA256[sampler, seed]


@pytest.mark.parametrize("n_truth", [1, 2])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_one_integer_draw_picks_as_choice_does(n_truth, seed):
    """A map image's class, one integer draw, leaves the generator where
    ``rng.choice(truth)`` leaves it, with other draws in between."""
    truth = [3, 9][:n_truth]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(500):
        assert truth[int(ours.integers(len(truth)))] == theirs.choice(truth)
        assert ours.normal(size=2).tolist() == theirs.normal(size=2).tolist()
    assert ours.random() == theirs.random()



@pytest.mark.parametrize("dim", [0, 1, 16, 256])
@pytest.mark.parametrize("n_streams", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_one_normal_draw_per_row_draws_as_separate_calls_do(seed, n_streams,
                                                            dim):
    """A training row's noise, one ``(streams, dim)`` draw, and a map
    image's geotag and noise, one flat draw, give the values of one draw
    per stream (and of ``normal(scale=sigma, size=2)`` for the geotag) and
    leave the generator where those leave it, with the integer draws of
    the classes in between."""
    sigma = 25.0
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert ours.integers(3) == theirs.integers(3)
        assert (ours.normal(size=(n_streams, dim)).tolist()
                == [theirs.normal(size=dim).tolist() for _ in range(n_streams)])
        assert ours.integers(3) == theirs.integers(3)
        z = ours.normal(size=2 + n_streams * dim)
        assert (sigma * z[:2]).tolist() == theirs.normal(scale=sigma,
                                                          size=2).tolist()
        assert (z[2:].reshape(n_streams, dim).tolist()
                == [theirs.normal(size=dim).tolist() for _ in range(n_streams)])
    assert ours.random() == theirs.random()
