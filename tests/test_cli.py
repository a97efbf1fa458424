import json
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from landuse import cli
from landuse.adaptive import GateConfig, default_finetune_schedule
from landuse.atomic import atomic_output, write_atomic
from landuse.classifier import Schedule
from landuse.cli import (ConfigError, Pipeline, config_hash, load_config,
                         main, parse_config_text)
from landuse.dataset import read_entry
from landuse.evaluation import image_accuracy
from landuse.geodata import (DEFAULT_DILATION_M, JSONLinesError,
                             read_parcel_entry)
from landuse.taxonomy import Level, builtin_taxonomy

TAX = builtin_taxonomy()

CONFIG = """\
# small end-to-end fixture
seed=5
parcels=data/parcels.geojson
train_manifest=data/train.jsonl
val_manifest=data/val.jsonl
map_manifest=data/map.jsonl
out_dir=out
streams=object,scene
synth.grid=3
synth.classes=5
synth.train_per_class=12
synth.val_per_class=4
synth.dim=8
train.epochs=2
train.batch_size=16
finetune.epochs=1
finetune.batch_size=16
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "cfg.txt"
    path.write_text(CONFIG + extra, encoding="utf-8")
    return path


def run(path, subcommand, *overrides):
    code = main([subcommand, "--config", str(path), *overrides])
    assert code == 0, f"{subcommand} failed"


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_text():
    cfg = parse_config_text("a=1\n# comment\n\n b = two words \n")
    assert cfg == {"a": "1", "b": "two words"}


def test_parse_config_rejects_bare_word():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("nonsense\n")


def test_parse_config_rejects_a_key_set_twice():
    with pytest.raises(ConfigError) as e:
        parse_config_text("seed=1\ntrain.lr=0.1\ntrain.lr=0.5\n")
    assert str(e.value) == "config line 3: key 'train.lr' already set on line 2"
    with pytest.raises(ConfigError, match="line 4: key 'a' already set on line 1"):
        parse_config_text("a=1\n# a=2\n\n a = 3\n")


def test_override_replaces_a_value_from_the_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("seed=1\ntrain.lr=0.1\n")
    cfg = load_config(str(path), ["train.lr=0.5", "train.lr=0.25"])
    assert cfg["train.lr"] == "0.25"


def test_load_config_requires_seed(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a=1\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(path), [])
    assert load_config(str(path), ["seed=3"])["seed"] == "3"


@pytest.mark.parametrize("override,message", [
    ("train.lr=abc", "config key 'train.lr': expected a finite number, got 'abc'"),
    ("train.lr=nan", "config key 'train.lr': expected a finite number, got 'nan'"),
    ("dilation_m=inf",
     "config key 'dilation_m': expected a finite number, got 'inf'"),
    ("seed=x", "config key 'seed': expected an integer, got 'x'"),
    ("train.epochs=1.5",
     "config key 'train.epochs': expected an integer, got '1.5'"),
    ("level=bogus",
     "config key 'level': expected one of fine, middle, top, got 'bogus'"),
    ("gate.mode=both", "config keys gate.mode='both', gate.threshold=0.5:"
                       " unknown gate mode 'both'"),
    ("eval.include_untruthed=yes",
     "config key 'eval.include_untruthed': expected true or false, got 'yes'"),
    ("predict.use_adapted=0",
     "config key 'predict.use_adapted': expected true or false, got '0'"),
    ("all.skip_synth=1",
     "config key 'all.skip_synth': expected true or false, got '1'"),
    ("streams=", "config key 'streams': expected distinct stream names,"
                 " got ''"),
    ("streams=object,object", "config key 'streams': expected distinct"
                              " stream names, got 'object,object'"),
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, override, message):
    path = write_config(tmp_path)
    assert main(["all", "--config", str(path), override]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


#: keys whose value the accessors parse; keys naming files are left out, as
#: a missing file is an ``OSError`` when it is opened, not a bad value
VALUE_KEYS = ("seed", "level", "dilation_m", "streams", "fusion.weights",
              "gate.mode", "gate.threshold", "train.lr", "train.decay_factor",
              "train.decay_every", "train.epochs", "train.batch_size",
              "train.domain_ratio", "train.momentum", "train.weight_decay",
              "finetune.lr", "finetune.epochs", "finetune.batch_size",
              "synth.grid", "synth.noise", "predict.use_adapted",
              "eval.include_untruthed", "all.skip_synth")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(VALUE_KEYS) | st.text(min_size=1).filter(
           lambda k: "=" not in k),
       value=st.text() | st.sampled_from(("1", "-3", "0.5", "1e400", "nan",
                                          "1_0", " 7 ", "middle",
                                          # argv bytes that are not UTF-8
                                          "\udcff")))
def test_any_override_loads_or_is_a_config_error(tmp_path, key, value):
    path = tmp_path / "c.txt"
    path.write_text("seed=1\n", encoding="utf-8")
    try:
        p = Pipeline(load_config(str(path), [f"{key}={value}"]))
        p.train_schedule(0), p.gate_config(0), p.fusion_weights()
        p.level, p.provenance, p.f("dilation_m", 5.0)
        p.f(key, 0.0), p.i(key, 0), p.b(key, False)
    except ConfigError:
        pass


@pytest.mark.parametrize("value,want", [("true", True), ("TRUE", True),
                                        ("False", False), ("false", False)])
def test_switch_reads_true_or_false_in_any_case(value, want):
    p = Pipeline({"seed": "1", "eval.include_untruthed": value})
    assert p.b("eval.include_untruthed", not want) is want
    assert p.b("all.skip_synth", want) is want  # unset: the default


def test_unset_keys_take_the_library_defaults(tmp_path, monkeypatch):
    p = Pipeline({"seed": "1"})
    assert p.train_schedule(0) == replace(Schedule(), seed=1001)
    assert p.gate_config(1) == replace(
        GateConfig(), schedule=replace(default_finetune_schedule(), seed=2501))
    seen = []
    monkeypatch.setattr(cli, "assign", lambda records, parcels, dilation_m:
                        seen.append(dilation_m) or [])
    path = write_config(tmp_path)
    run(path, "synth")
    run(path, "filter")
    assert seen == [DEFAULT_DILATION_M]


def test_synth_passes_only_the_keys_the_config_sets(tmp_path, monkeypatch):
    seen = []
    make_city = cli.synth.make_city
    monkeypatch.setattr(cli.synth, "make_city", lambda *args, **kwargs:
                        seen.append(kwargs) or make_city(*args, **kwargs))
    path = write_config(tmp_path)
    run(path, "synth", "synth.noise=0.25", "synth.geo_sigma_m=12")
    # an unset key, synth.spread say, leaves make_city its own default
    assert [{k: (v, type(v)) for k, v in kw.items()} for kw in seen] == [{
        "seed": (5, int), "streams": (("object", "scene"), tuple),
        "grid": (3, int), "n_classes": (5, int),
        "train_per_class": (12, int), "val_per_class": (4, int),
        "dim": (8, int), "noise_rate": (0.25, float),
        "geo_sigma_m": (12.0, float)}]


def test_empty_stream_names_are_skipped():
    assert Pipeline({"seed": "1", "streams": "object,,scene"}).streams == [
        "object", "scene"]


def test_config_hash_properties():
    a = {"x": "1", "y": "2"}
    b = {"y": "2", "x": "1", "_config_dir": "/elsewhere"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": "1", "y": "3"})


def test_cli_error_is_single_line(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("seed=1\n")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0


# ---------------------------------------------------------------------------
# pipeline


def test_synth_deterministic(tmp_path):
    path = write_config(tmp_path)
    run(path, "synth")
    first = (tmp_path / "data" / "train.jsonl").read_bytes()
    run(path, "synth")
    assert (tmp_path / "data" / "train.jsonl").read_bytes() == first
    run(path, "synth", "seed=6")
    assert (tmp_path / "data" / "train.jsonl").read_bytes() != first


def test_all_produces_parsable_report(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["mapping"]["level"] == "fine"
    assert 0.0 <= report["mapping"]["precision"] <= 1.0
    assert report["provenance"]["seed"] == 5
    assert "config_sha256" in report["provenance"]
    geo = json.loads((out / "map.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert geo["features"]
    assert "provenance" in geo
    csv_text = (out / "per_class.csv").read_text()
    assert csv_text.splitlines()[0].startswith("class,")
    # model files with provenance sidecars, per stream, stage 1 + adapted
    for stream in ("object", "scene"):
        for suffix in ("", "_adapted"):
            assert (out / f"model_{stream}{suffix}.lusm").exists()
            meta = json.loads(
                (out / f"model_{stream}{suffix}.lusm.meta.json").read_text())
            assert meta["seed"] == 5


def test_artifact_headers_carry_provenance(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    for name in ("assignments.jsonl", "predictions.jsonl"):
        first_line = (tmp_path / "out" / name).read_text().splitlines()[0]
        assert json.loads(first_line)["provenance"]["seed"] == 5


def test_eval_top_level_rolls_up(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    run(path, "eval", "level=top")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["mapping"]["level"] == "top"

    preds = {}
    for line in (tmp_path / "out" / "predictions.jsonl").read_text().splitlines():
        obj = json.loads(line)
        if "image" in obj:
            preds[obj["image"]] = obj["pred"]
    labels = {}
    for line in (tmp_path / "data" / "map.jsonl").read_text().splitlines():
        obj = json.loads(line)
        labels[obj["id"]] = TAX.index(obj["label"])
    want = image_accuracy(
        {i: TAX.roll_up(c, Level.TOP) for i, c in preds.items()},
        {i: TAX.roll_up(c, Level.TOP) for i, c in labels.items()})
    assert report["image_accuracy"] == pytest.approx(want)


def test_out_dir_env_override(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    run(path, "synth")
    run(path, "filter")
    monkeypatch.setenv("LANDUSE_OUT_DIR", str(tmp_path / "elsewhere"))
    run(path, "filter")
    assert (tmp_path / "elsewhere" / "assignments.jsonl").exists()


def test_rerun_subcommand_byte_identical(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for sub in ("filter", "train", "adapt", "predict", "map", "eval"):
        run(path, sub)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


ENTRIES = ("map_manifest.lutab", "train_manifest.lutab", "val_manifest.lutab")


def test_out_dir_holds_the_artifacts_and_one_entry_per_manifest(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 17
    assert [n for n in names if n.endswith(".lutab")] == list(ENTRIES)
    p = Pipeline(load_config(str(path), []))
    for name in ENTRIES:
        key = name.removesuffix(".lutab")
        assert read_entry(out / name, p.path(key), p.taxonomy) is not None
    assert read_parcel_entry(out / "parcels.lupar",
                             p.path("parcels").read_bytes(), p.taxonomy)


def test_deleting_the_entries_changes_no_artifact(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for sub in ("filter", "train", "adapt", "predict", "map", "eval"):
        for name in (*ENTRIES, "parcels.lupar"):
            (out / name).unlink(missing_ok=True)
        run(path, sub)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    # eval loads only the map manifest and the parcels, so only their
    # entries are back
    assert after == {k: v for k, v in before.items()
                     if k not in ENTRIES[1:]}


def test_write_that_raises_leaves_the_earlier_file_and_no_temp(tmp_path):
    path = tmp_path / "report.json"
    write_atomic(path, "old\n")
    with pytest.raises(RuntimeError):
        with atomic_output(path) as f:
            f.write(b"half of the new")
            raise RuntimeError("disk gone")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with pytest.raises(RuntimeError):
        with atomic_output(tmp_path / "new.json") as f:
            raise RuntimeError("before any byte")
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    write_atomic(path, "néw\n")
    assert path.read_bytes() == "néw\n".encode("utf-8")


def test_all_fails_when_training_set_fills_no_batch(tmp_path, capsys):
    # the default batch size 256 takes 128 records per domain; the default
    # 8 classes x 10 records leave 40 in each
    path = tmp_path / "cfg.txt"
    path.write_text("seed=5\nparcels=data/parcels.geojson\n"
                    "train_manifest=data/train.jsonl\n"
                    "val_manifest=data/val.jsonl\nmap_manifest=data/map.jsonl\n"
                    "out_dir=out\n", encoding="utf-8")
    code = main(["all", "--config", str(path), "synth.train_per_class=10"])
    assert code == 1
    assert "no full batch" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model_object.lusm").exists()


def drop_stream(manifest, stream):
    lines = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        obj.get("features", {}).pop(stream, None)
        lines.append(json.dumps(obj))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_train_rejects_empty_train_manifest(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "synth")
    (tmp_path / "data" / "train.jsonl").write_text("", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ManifestError: ")
    assert "train.jsonl: no training records" in err


@pytest.mark.parametrize("split", ["train", "val"])
def test_train_names_record_lacking_a_stream(tmp_path, capsys, split):
    path = write_config(tmp_path)
    run(path, "synth")
    drop_stream(tmp_path / "data" / f"{split}.jsonl", "scene")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: ValueError: record \w+: missing features"
                        r" for stream 'scene'\n", err), err
    # no stream's model is trained before the split is checked
    assert not list((tmp_path / "out").glob("model_*"))


def strip_labels(manifest, keep):
    lines = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if not keep(obj["id"]):
            obj.pop("label", None)
        lines.append(json.dumps(obj))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_eval_rejects_partly_labelled_map(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "all")
    report = tmp_path / "out" / "report.json"
    report.unlink()
    manifest = tmp_path / "data" / "map.jsonl"
    ids = [json.loads(line)["id"] for line in manifest.read_text().splitlines()]
    strip_labels(manifest, keep=lambda i: i not in (ids[3], ids[5]))
    assert main(["eval", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: ManifestError: {manifest}: 2 of {len(ids)} predicted"
                   f" images have no label (first: {ids[3]})\n")
    assert not report.exists()


def test_eval_without_labels_reports_null_accuracy(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    strip_labels(tmp_path / "data" / "map.jsonl", keep=lambda i: False)
    run(path, "eval")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["image_accuracy"] is None
    assert report["mapping"]["level"] == "fine"


@pytest.mark.parametrize("spec,bad", [
    ("object:0.5,scene", "bad part 'scene'"),
    ("object:half,scene:0.5", "bad weight in 'object:half'"),
    ("object:nan,scene:0.5", "bad weight in 'object:nan'"),
    ("object:0.1,scene:0.5,object:0.5", "stream 'object' given twice"),
    ("object:0.5,scene:0.5,object:0.9", "stream 'object' given twice"),
])
def test_malformed_fusion_weights(spec, bad):
    p = Pipeline({"seed": "1", "fusion.weights": spec})
    with pytest.raises(ConfigError, match=f"fusion.weights: {bad}"):
        p.fusion_weights()
    ok = Pipeline({"seed": "1", "fusion.weights": "object:0.25, scene:0.75"})
    assert ok.fusion_weights() == {"object": 0.25, "scene": 0.75}


def test_map_rejects_cut_or_repeated_predictions(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "all")
    preds = tmp_path / "out" / "predictions.jsonl"
    lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    preds.write_text("".join(lines[:-1]) + lines[-1][:-8], encoding="utf-8")
    assert main(["map", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: JSONLinesError: {preds}:{len(lines)}: bad JSON:"
        f" Unterminated string starting at\n")
    preds.write_text("".join(lines + lines[1:2]), encoding="utf-8")
    image = json.loads(lines[1])["image"]
    assert main(["eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: JSONLinesError: {preds}:{len(lines) + 1}: repeated image id"
        f" {image}\n")


def test_jsonl_artifact_not_utf8_names_its_line(tmp_path):
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_bytes(b'{"provenance": {}}\n'
                                   b'{"image": "i", "pred": 0}\n'
                                   b'{"image": "j\xff", "pred": 0}\n')
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:3:"
                             " not UTF-8: invalid start byte$"):
        p.read_predictions()


def test_prediction_line_of_non_ascii_whitespace_is_bad_json(tmp_path):
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_text(
        '{"provenance": {}}\n \u00a0\n{"image": "i", "pred": 0}\n',
        encoding="utf-8")
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:2:"
                             " bad JSON: "):
        p.read_predictions()


def test_prediction_row_lacking_pred_rejected(tmp_path):
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_text('{"provenance": {}}\n{"image": "i"}\n',
                                  encoding="utf-8")
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:2:"
                             " row lacks 'pred'$"):
        p.read_predictions()


@pytest.mark.parametrize("value,kind", [("[1]", "list"), ('{"a": "i"}', "dict")])
def test_prediction_image_that_is_not_a_string_rejected(tmp_path, value, kind):
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_text(
        '{"provenance": {}}\n{"image": ' + value + ', "pred": 0}\n',
        encoding="utf-8")
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:2:"
                             f" image must be a string, got {kind}$"):
        p.read_predictions()


@pytest.mark.parametrize("value,kind", [
    ("[1]", "list"), ('"x"', "str"), ("1.5", "float"), ("true", "bool")])
def test_prediction_pred_that_is_not_a_class_index_rejected(tmp_path, value,
                                                            kind):
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_text(
        '{"provenance": {}}\n{"image": "i", "pred": ' + value + '}\n',
        encoding="utf-8")
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:2:"
                             f" pred must be a class index, got {kind}$"):
        p.read_predictions()


def test_map_rejects_cut_assignments(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "all")
    assignments = tmp_path / "out" / "assignments.jsonl"
    text = assignments.read_text(encoding="utf-8")
    assignments.write_text(text[:-5], encoding="utf-8")
    assert main(["map", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: JSONLinesError: {assignments}:"
                          f"{text.count(chr(10))}: bad JSON")


def first_lon_past_float_range(data: bytes) -> bytes:
    doc = json.loads(data)
    ring = doc["features"][0]["geometry"]["coordinates"][0]
    ring[0][0] = ring[-1][0] = 10 ** 400
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("fault,message", [
    (lambda b: b.replace(b'"id": "', b'"id": "\xff', 1),
     r"not UTF-8 at byte offset \d+: invalid start byte"),
    (first_lon_past_float_range,
     r"feature \S+: ring 0, position 0 has a coordinate past the float range"),
])
def test_filter_names_undecodable_parcels(tmp_path, capsys, fault, message):
    path = write_config(tmp_path)
    run(path, "synth")
    parcels = tmp_path / "data" / "parcels.geojson"
    parcels.write_bytes(fault(parcels.read_bytes()))
    assert main(["filter", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: GeoJSONParseError: {message}\n", err), err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A pipeline whose six stages have run, for its JSON-lines artifacts."""
    root = tmp_path_factory.mktemp("done")
    path = write_config(root)
    run(path, "all")
    return Pipeline(load_config(str(path), []))


def raw_utf8(data: bytes) -> bytes:
    """The same rows with a raw two-byte character in every image id."""
    return data.replace(b'"image": "', '"image": "é'.encode("utf-8"))


@pytest.mark.parametrize("name,rows", [
    ("assignments.jsonl",
     lambda p: [(a.image_id, *pair) for a in p.read_assignments()
                for pair in a.pairs()]),
    ("predictions.jsonl", lambda p: list(p.read_predictions().items())),
])
@pytest.mark.parametrize("variant", [bytes, raw_utf8])
def test_every_prefix_of_a_jsonl_artifact_reads_or_is_typed(
        finished_run, tmp_path, name, rows, variant):
    whole = variant((finished_run.out_dir / name).read_bytes())
    p = Pipeline(dict(finished_run.cfg, out_dir=str(tmp_path)))
    target = tmp_path / name
    target.write_bytes(whole)
    full = rows(p)
    assert len(full) > 10
    for cut in range(len(whole)):
        target.write_bytes(whole[:cut])
        try:
            got = rows(p)
        except JSONLinesError as e:
            assert str(e).startswith(f"{target}:"), e
        else:  # whole rows only
            assert got == full[:len(got)]
