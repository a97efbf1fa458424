import hashlib
import json

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


def test_blob_split_balanced_and_seeded():
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


def test_blob_split_noise_rate():
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
    encode_row = synth.encode_row
    calls = []

    def failing_encode_row(row):
        calls.append(row)
        if len(calls) == 30:
            raise RuntimeError("cut")
        return encode_row(row)

    monkeypatch.setattr(synth, "encode_row", failing_encode_row)
    with pytest.raises(RuntimeError, match="cut"):
        make_city(tmp_path, TAX, seed=1)
    # the parcels were written whole before the first manifest began
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parcels.geojson"]


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

#: sha256 of each file make_city writes; each default city holds one
#: vector that the standard json writer must write. The cities from
#: "detailed" on pin what drawing a row's streams in one call could
#: break: their stream counts, a stream named twice (its last draw is
#: kept), no feature values and no map images.
CITY_SHA256 = {
    ("dense", 7): {
        "parcels": "8da5f600d1e59d4511d9885ba0d388dae48c33e7c416569707b022836e72ba52",
        "train": "7361540036afd4cd1aaf126e4a04e7d32bbc76e08fbf5974425f1cc3629c6e57",
        "val": "5a13ba7e16317bf610b33a126f5afe5f166a4c6d2a23755e8088d53a295194e0",
        "map": "18da2c0455fcacc73d3bd441a70280f9240e66ec1cbcfb2875e9379c4dc61036"},
    ("default", 7): {
        "parcels": "0499f528222ffbffe3cbe5eb7033f39a6a0517c2b74802af37c1df724769e413",
        "train": "3539af6e267f98638afdbc0559f68d42d82827500bf9ca02cd448984df740f0f",
        "val": "11bcd74ee3243ddab88893948fb36d80f366d1600c214388d58cafe2ba60c2c9",
        "map": "fca73f80217e015247786fde1f23740153b8df260f53c5b3c216a92e279b0a34"},
    ("default", 11): {
        "parcels": "bda4072e61bc33432a6dae6a7fb971161dc1119e4703d43a1f56af9bc74ba03a",
        "train": "e0bfbfb4c532f7c5cbed65e7be56d4a6939db18fcf252f27bafd5b9a8cdc2188",
        "val": "f62b03dfdcd900ce179b9912e280660eb3a74b5b777c5df0992e7cd46bbfbdd8",
        "map": "d5e333e087c197a5a5ef721f6eca8e04ba24d3787c4da707383aa20a29b64a9d"},
    ("wide", 7): {
        "parcels": "5b1833f0009b80e5b289e12404b9c302917f28e5acdc62ccc95739bbd9b2ce70",
        "train": "323b249041fe4478d91e9438c262b8d3d070bc229f3bc0a3026f12e07fe848f6",
        "val": "e5966e01ed2d386f62f879acd7bc340f0ad523dee827959a69d9cab9ca5fc3fd",
        "map": "38d5ef58883491fcf0a7d9c2928e47745a3678e1463057daefe0fa94f2b890ed"},
    ("wide", 11): {
        "parcels": "e36f001a49d77bf439187a22895d7e24e2febf5995752fa6e23d72f7ac7c81af",
        "train": "ebe6c67d1402ee1ed88f1fe2cd8b4ae3cd668b4798a223b0844f538dc5918130",
        "val": "f6782d2478026df60c84d55cf89623018577da9b100dc355c422be5695f0dbb0",
        "map": "0b33109376cad41f684346366288de97966cad26aeab29b3c70c71bd62e1f54c"},
    ("detailed", 7): {
        "parcels": "50f9350f2463e397353588fd01e44a18d4450a4b01b52ad594e6e360180b6d7e",
        "train": "413b96d47a8b67f5852b695973513b8070ee2c0d9624e6911bd2d4702382104c",
        "val": "819ef27b8a4a2b48e20c6fdbf1832f9ea03a52729ca9b7726b56f928975c6807",
        "map": "81ca121d682d39756b34d2906901fbd003730d1c8278da49f3377bbfc24855ad"},
    ("one_stream", 7): {
        "parcels": "4e3dc5fb1bc5bc3ccc7bb533319c0412ff495281819edf95d62dfd4291f0fc65",
        "train": "eaf9e82739ac5e16b77ad5594220905da3f03fc06e837ca87994a3199013c297",
        "val": "d23c532596b1ef6304faeabda7bd8fc77234d67791960a8d41ac61582fb257b1",
        "map": "cac50f1e7b0873006a540a531a9b32970916ee46e189083d480faa43ea65f739"},
    ("three_streams", 11): {
        "parcels": "cf85cd2c40268371e4b2b894a42c1fa6a76386e6b2775c7b8b0e2bf63f991dcf",
        "train": "08f297f291bb77333c9d70459ffd06b92ac8dcc5ab6e111819be3cd707571006",
        "val": "9b0eb7d679b4ccebd249836a71b5779346a789ce99660de4f6b5847cb8c3720f",
        "map": "7d6be89ab90cf020af32ad1f4a02654504b779f0a8fd0b7177ac90b7115176cf"},
    ("repeated_stream", 3): {
        "parcels": "3b6c50cbaa2c684d14af30bd30fb5a5df65f8868bf95989804df36d99543efc2",
        "train": "758c4f79466fe63479e6f989173f37896587e91fc918a5df2478cf4c98e68a41",
        "val": "1703f4d6373d0f4859aa3916585115b1ce787a0932817cd434843fccbb5929d8",
        "map": "0b241ec7c01718f31b6915c2b19e77fe713809d4188ec1639f6f0725b191451a"},
    ("dim0", 7): {
        "parcels": "2840f8748e148139d8ea13f8e82323b6f83e31935625e0229d31bb0a380176ff",
        "train": "bb40711cee786d06b316a36552667a807657e8186abca4afcac99e5c72d9eb30",
        "val": "ddb2f2047bbefca9fe1f0b1998e95c3b40ce6741092faeee1360aa2223e57021",
        "map": "e271f4463d9f63611a2db0f3de9d2c671d82f0e282998bc4725167b4cc27310e"},
    ("no_map_images", 7): {
        "parcels": "0499f528222ffbffe3cbe5eb7033f39a6a0517c2b74802af37c1df724769e413",
        "train": "3539af6e267f98638afdbc0559f68d42d82827500bf9ca02cd448984df740f0f",
        "val": "11bcd74ee3243ddab88893948fb36d80f366d1600c214388d58cafe2ba60c2c9",
        "map": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
}


@pytest.mark.parametrize("city, seed", sorted(CITY_SHA256))
def test_make_city_bytes_pinned(tmp_path, city, seed):
    paths = make_city(tmp_path, TAX, seed=seed, **CITIES[city])
    got = {key: hashlib.sha256(path.read_bytes()).hexdigest()
           for key, path in paths.items()}
    assert got == CITY_SHA256[city, seed]
    for key in ("train", "val", "map"):
        for line in paths[key].read_text(encoding="utf-8").splitlines():
            assert line == json.dumps(json.loads(line))


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
