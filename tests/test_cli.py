import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from landuse import cli
from landuse.adaptive import (GateConfig, adaptive_finetune,
                              default_finetune_schedule)
from landuse.atomic import atomic_output, write_atomic
from landuse.classifier import Schedule, init_model, load_model, train
from landuse.cli import (ConfigError, Pipeline, config_hash, load_config,
                         main, parse_config_text)
from landuse.dataset import read_entry
from landuse.evaluation import image_accuracy
from landuse.geodata import (DEFAULT_DILATION_M, JSONLinesError,
                             encode_json, jsonl_rows, parse_parcels,
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


def test_override_is_split_and_stripped_as_a_file_line_is(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("seed=1\n")
    item = " train.epochs = 1 "
    cfg = load_config(str(path), [item])
    assert parse_config_text(item) == {"train.epochs": "1"}
    assert cfg["train.epochs"] == "1" and " train.epochs" not in cfg
    assert Pipeline(cfg).schedules["object"].total_epochs == 1
    assert config_hash(cfg) == config_hash(
        load_config(str(path), ["train.epochs=1"]))


def test_load_config_requires_seed(tmp_path):
    """The config read, file and overrides, must set a seed; that is
    checked before any other rule, an unknown key's included."""
    path = tmp_path / "c.txt"
    path.write_text("a=1\n")
    with pytest.raises(ConfigError, match="^config must set a seed$"):
        Pipeline(load_config(str(path), []))
    with pytest.raises(ConfigError, match="^unknown config key 'a'$"):
        Pipeline(load_config(str(path), ["seed=3"]))
    path.write_text("train.lr=1\n")
    assert Pipeline(load_config(str(path), ["seed=3"])).seed == 3


def test_no_module_reads_the_environment():
    """The config file and its overrides are the only settings: no module
    of the package names ``os.environ`` or ``os.getenv``, however got."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        assert not names & banned, f"{path.name}: {sorted(names & banned)}"


#: an override with one bad value, and the message that refuses it
BAD_VALUES = [
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
]

#: values the schedules refuse, fusion weights that ``fuse`` refuses and
#: values holding a NUL; an override of two keys separates them by a space
REFUSED_VALUES = [
    ("train.decay_every=0",
     "config key 'train.decay_every': decay_every must be >= 1, got 0"),
    ("finetune.decay_every=0",
     "config key 'finetune.decay_every': decay_every must be >= 1, got 0"),
    ("train.decay_factor=0",
     "config key 'train.decay_factor': decay_factor must be > 0, got 0.0"),
    ("finetune.decay_factor=-10", "config key 'finetune.decay_factor':"
                                  " decay_factor must be > 0, got -10.0"),
    ("train.epochs=-3",
     "config key 'train.epochs': total_epochs must be >= 0, got -3"),
    ("finetune.epochs=-1",
     "config key 'finetune.epochs': total_epochs must be >= 0, got -1"),
    ("train.batch_size=0",
     "config key 'train.batch_size': batch_size must be >= 2, got 0"),
    ("finetune.batch_size=0",
     "config key 'finetune.batch_size': batch_size must be >= 2, got 0"),
    ("train.domain_ratio=1.5", "config key 'train.domain_ratio':"
                               " domain_ratio must be in [0, 1], got 1.5"),
    ("train.lr=-1", "config key 'train.lr': initial_lr must be >= 0, got -1.0"),
    ("finetune.lr=-1e-5",
     "config key 'finetune.lr': initial_lr must be >= 0, got -1e-05"),
    ("train.momentum=-2",
     "config key 'train.momentum': momentum must be >= 0, got -2.0"),
    ("train.weight_decay=-0.1",
     "config key 'train.weight_decay': weight_decay must be >= 0, got -0.1"),
    ("finetune.epochs=400", "config key 'finetune.epochs': learning rate of"
     " epoch 399 out of range: initial_lr 1e-05 / decay_factor 10.0 ** 399"),
    ("finetune.decay_factor=0.5 finetune.epochs=1100",
     "config key 'finetune.epochs': learning rate of epoch 1099 out of range:"
     " initial_lr 1e-05 / decay_factor 0.5 ** 1099"),
    ("fusion.weights=object:x", "fusion.weights: bad weight in 'object:x'"),
    ("fusion.weights=object:1", "fusion.weights: streams ['object', 'scene']"
                                " do not match weights ['object']"),
    ("fusion.weights=object:0.5,sky:0.5", "fusion.weights: streams"
     " ['object', 'scene'] do not match weights ['object', 'sky']"),
    ("fusion.weights=object:0.5,scene:0.6",
     "fusion.weights: fusion weights must sum to 1, got 1.1"),
    ("fusion.weights=object:-0.5,scene:1.5",
     "fusion.weights: fusion weights must be >= 0"),
    ("train_manifest=data/tr\0ain.jsonl",
     "config key 'train_manifest': 'data/tr\\x00ain.jsonl' holds a NUL byte"),
    ("taxonomy=tax\0.txt",
     "config key 'taxonomy': 'tax\\x00.txt' holds a NUL byte"),
]


@pytest.mark.parametrize("override,message", BAD_VALUES)
def test_bad_config_value_is_a_config_error(tmp_path, capsys, override, message):
    path = write_config(tmp_path)
    assert main(["all", "--config", str(path), override]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


@pytest.mark.parametrize("command", [*cli.COMMANDS, "all"])
@pytest.mark.parametrize("override,message", BAD_VALUES + REFUSED_VALUES)
def test_bad_config_value_stops_a_command_before_its_first_stage(
        tmp_path, capsys, command, override, message):
    """Every value is read before any stage, so a bad one, even a key of a
    later stage, stops any command with the same message and writes no
    file."""
    path = write_config(tmp_path)
    assert main([command, "--config", str(path), *override.split(" ")]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


@pytest.mark.parametrize("overrides", [
    ["train.decay_factor=1e-200", "train.epochs=1"],
    ["finetune.decay_factor=1e-200", "finetune.epochs=1"],
])
def test_schedule_keys_are_checked_together(tmp_path, overrides):
    """A decay the default epoch count would take past the float range is
    no fault when the epochs set with it stay inside it."""
    p = Pipeline(load_config(write_config(tmp_path), overrides), tmp_path)
    schedule = p.schedules["object"] if overrides[0].startswith("train.") \
        else p.gates["object"].schedule
    assert schedule.lr_at(schedule.total_epochs - 1) > 0


@pytest.mark.parametrize("where", ["file", "override"])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, where):
    path = write_config(tmp_path, "train.epoch=1\n" if where == "file" else "")
    overrides = ["train.epoch=1"] if where == "override" else []
    assert main(["train", "--config", str(path), *overrides]) == 1
    assert capsys.readouterr().err == \
        "error: ConfigError: unknown config key 'train.epoch'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("item", ["_config_dir=/x", "_x=1"])
@pytest.mark.parametrize("where", ["file", "override"])
def test_underscore_key_is_an_unknown_config_key(tmp_path, capsys, item,
                                                 where):
    path = write_config(tmp_path, item + "\n" if where == "file" else "")
    overrides = [item] if where == "override" else []
    assert main(["train", "--config", str(path), *overrides]) == 1
    key = item.split("=")[0]
    assert capsys.readouterr().err == \
        f"error: ConfigError: unknown config key {key!r}\n"
    assert not (tmp_path / "out").exists()


def test_relative_paths_lie_under_the_config_directory(tmp_path,
                                                       monkeypatch):
    write_config(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    run(Path("..") / "cfg.txt", "synth")
    run(Path("..") / "cfg.txt", "filter")
    assert (tmp_path / "data" / "map.jsonl").exists()
    assert (tmp_path / "out" / "assignments.jsonl").exists()
    assert list(elsewhere.iterdir()) == []


@pytest.mark.parametrize("value,reason", [
    ("missing.txt", "No such file or directory"),
    ("folder", "Is a directory"),
])
def test_unreadable_taxonomy_is_a_config_error(tmp_path, capsys, value,
                                               reason):
    (tmp_path / "folder").mkdir()
    path = write_config(tmp_path, f"taxonomy={value}\n")
    assert main(["filter", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: config key 'taxonomy': cannot read"
        f" {tmp_path / value}: {reason}\n")


class ReadKeys(dict):
    """A config that records every key looked up in it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


#: a value of each kind that differs from every default of that kind
SAMPLES = {int: ["3"], float: ["0.25"], bool: ["true", "false"],
           Level: ["top"]}

#: a value for each key of kind ``str`` that is not a file's path
TEXT_SAMPLES = {"out_dir": ["elsewhere"], "streams": ["scene"],
                "taxonomy": ["tax.txt"], "gate.mode": ["soft"],
                "fusion.weights": ["object:0.25,scene:0.75"]}


def test_the_keys_the_stages_read_are_the_config_keys(tmp_path):
    """Every key of ``cli.KEYS`` reaches a stage: either setting it changes
    what the ``Pipeline`` hands the stages, or a stage looks it up in the
    config (the keys naming files)."""
    (tmp_path / "tax.txt").write_text("Top\n  Middle\n    a\n    b\n",
                                      encoding="utf-8")

    def given(cfg):
        return {k: v for k, v in vars(Pipeline(cfg, tmp_path)).items()
                if k not in ("cfg", "provenance")}

    plain = given({"seed": "1"})
    changed = {key for key, kind in cli.KEYS.items()
               for value in TEXT_SAMPLES.get(key, SAMPLES.get(kind, []))
               if given({"seed": "1", key: value}) != plain}
    cfg = ReadKeys(load_config(str(write_config(tmp_path)), []))
    p = Pipeline(cfg, tmp_path)
    cfg.read.clear()
    cli.cmd_all(p)
    assert sorted(changed | cfg.read) == sorted(cli.KEYS)


#: keys with a value to parse; keys naming files are left out, as a
#: missing file is an ``OSError`` when it is opened, not a bad value
VALUE_KEYS = tuple(k for k in cli.KEYS if k not in (
    "out_dir", "taxonomy", "parcels", "train_manifest", "val_manifest",
    "map_manifest"))


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
        Pipeline(load_config(str(path), [f"{key}={value}"]), tmp_path)
    except ConfigError:
        pass


@pytest.mark.parametrize("value,want", [("true", True), ("TRUE", True),
                                        ("False", False), ("false", False)])
def test_switch_reads_true_or_false_in_any_case(value, want):
    p = Pipeline({"seed": "1", "eval.include_untruthed": value})
    assert p.include_untruthed is want
    assert p.skip_synth is False and p.use_adapted is True  # unset: defaults
    assert Pipeline({"seed": "1", "all.skip_synth": value}).skip_synth is want
    assert Pipeline({"seed": "1",
                     "predict.use_adapted": value}).use_adapted is want


def test_unset_keys_take_the_library_defaults(tmp_path, monkeypatch):
    p = Pipeline({"seed": "1"})
    assert p.schedules == {"object": replace(Schedule(), seed=1001),
                           "scene": replace(Schedule(), seed=2001)}
    assert p.gates["scene"] == replace(
        GateConfig(), schedule=replace(default_finetune_schedule(), seed=2501))
    assert p.city == {} and p.weights == {"object": 0.5, "scene": 0.5}
    assert p.level is Level.FINE
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


def test_synth_to_other_paths_fails_before_writing(tmp_path, capsys):
    path = write_config(tmp_path)
    bad = ("seed=6", "train_manifest=other/train.jsonl")
    assert main(["synth", "--config", str(path), *bad]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: synth would write"
        f" {tmp_path / 'data' / 'train.jsonl'}, but config train_manifest"
        f" points at {tmp_path / 'other' / 'train.jsonl'}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]
    # a city already written stays as it was, byte for byte
    run(path, "synth")
    before = {f: f.read_bytes() for f in (tmp_path / "data").iterdir()}
    assert main(["synth", "--config", str(path), *bad]) == 1
    assert {f: f.read_bytes() for f in (tmp_path / "data").iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "data"]


def test_empty_stream_names_are_skipped():
    assert Pipeline({"seed": "1", "streams": "object,,scene"}).streams == [
        "object", "scene"]


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    assert [k for k in cli.KEYS if f"`{k}`" not in readme] == []


def test_config_hash_properties():
    a = {"x": "1", "y": "2"}
    b = {"y": "2", "x": "1"}
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


def test_all_leaves_numpy_ma_unimported(tmp_path):
    """numpy imports ``numpy.ma`` lazily, on the first use of a function
    such as ``np.median``; that adds about 1.2 MB to every stage process.
    A fresh interpreter that runs ``landuse all`` must not import it."""
    path = write_config(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r})\n"
              "from landuse.cli import main\n"
              f"assert main(['all', '--config', {str(path)!r}]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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


def test_rerun_subcommand_byte_identical(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for sub in ("filter", "train", "adapt", "predict", "map", "eval"):
        run(path, sub)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


# ---------------------------------------------------------------------------
# streams trained concurrently


@pytest.mark.parametrize("streams", ["object", "object,scene",
                                     "object,scene,extra"])
def test_streams_trained_together_match_one_at_a_time(tmp_path, streams):
    """``train`` and ``adapt`` write the models and ``.meta.json`` files that
    training each stream in turn writes, byte for byte. Three streams run
    on more threads than a two-core machine has, switching often."""
    path = write_config(tmp_path)
    override = f"streams={streams}"
    run(path, "synth", override)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for stage in ("train", "adapt"):
            run(path, stage, override)
    finally:
        sys.setswitchinterval(interval)
    seq = Pipeline(load_config(str(path), [override]), tmp_path)
    seq.out_dir = tmp_path / "seq"
    seq.out_dir.mkdir()
    train_records, val_records = seq.load_training()
    n = len(TAX.fine_classes)
    for stream, schedule in seq.schedules.items():
        d = train_records.stream(stream).shape[1]
        seq.write_model(train(init_model(n, d, stream), train_records,
                              schedule, validation=val_records), stream)
    for stream, gate in seq.gates.items():
        seq.write_model(adaptive_finetune(
            load_model(seq.model_path(stream)), train_records, gate,
            validation=val_records), stream, adapted=True)

    def models(out):
        return {p.name: p.read_bytes() for p in out.glob("model_*")}

    want = models(seq.out_dir)
    assert len(want) == 4 * len(seq.streams)
    assert models(tmp_path / "out") == want


#: how the failing scene stream fails in its child -> the error it gives
FAULTS = {
    "raise": "RuntimeError: stream scene failed",
    "exit": "StreamError: stream scene: child process exited with status 3",
    "kill": "StreamError: stream scene: child process killed by SIGKILL",
    "unpicklable": "StreamError: stream scene: Unpicklable: stream scene"
                   " failed (the exception could not be pickled)",
}


@pytest.mark.parametrize("stage,name", [("train", "train"),
                                        ("adapt", "adaptive_finetune")])
@pytest.mark.parametrize("failing", [("scene",), ("object", "scene")])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_failing_stream_writes_no_model_of_its_stage(
        tmp_path, capsys, monkeypatch, stage, name, failing, fault):
    """A stream that fails stops the stage before any model of it is
    written; the first failure in stream order is the error. The scene
    stream runs in a child, which raises, exits, is killed or raises an
    exception that cannot be pickled; the object stream runs here and
    raises."""
    path = write_config(tmp_path)
    run(path, "synth")
    if stage == "adapt":
        run(path, "train")
    real, parent = getattr(cli, name), os.getpid()

    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def fail(model, *args, **kwargs):
        if model.stream not in failing:
            return real(model, *args, **kwargs)
        message = f"stream {model.stream} failed"
        if os.getpid() == parent or fault == "raise":
            raise RuntimeError(message)
        if fault == "exit":
            os._exit(3)
        if fault == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise Unpicklable(message)

    monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main([stage, "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: " + (
        FAULTS[fault] if failing == ("scene",)
        else "RuntimeError: stream object failed") + "\n"
    suffix = "_adapted" if stage == "adapt" else ""
    assert not list((tmp_path / "out").glob(f"model_*{suffix}.lusm*"))


def test_one_usable_core_forks_nothing_and_writes_the_same_models(
        tmp_path, monkeypatch):
    """With one usable core the streams run in turn in this process, and
    ``train`` and ``adapt`` write the models two cores write."""
    path = write_config(tmp_path)
    run(path, "synth")
    out = tmp_path / "out"

    def stages():
        for stage in ("train", "adapt"):
            run(path, stage)
        return {p.name: p.read_bytes() for p in out.glob("model_*")}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = stages()
    assert len(forked) == 8
    for p in out.glob("model_*"):
        p.unlink()

    def fork():
        raise AssertionError("forked with one usable core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", fork)
    assert stages() == forked


@pytest.mark.parametrize("before,removed,stage,error", [
    ((), None, "train",
     "ManifestError: {data}/train.jsonl: cannot read manifest: No such file"
     " or directory"),
    (("synth",), None, "map",
     "JSONLinesError: {out}/assignments.jsonl: cannot read: No such file or"
     " directory (written by landuse filter)"),
    (("synth",), None, "eval",
     "JSONLinesError: {out}/assignments.jsonl: cannot read: No such file or"
     " directory (written by landuse filter)"),
    (("synth", "filter"), None, "map",
     "JSONLinesError: {out}/predictions.jsonl: cannot read: No such file or"
     " directory (written by landuse predict)"),
    (("synth",), None, "adapt",
     "ModelIOError: {out}/model_object.lusm: cannot read model: No such file"
     " or directory"),
    # the scene stream fails in its child, and its error keeps its type
    (("synth", "train"), "model_scene.lusm", "adapt",
     "ModelIOError: {out}/model_scene.lusm: cannot read model: No such file"
     " or directory"),
    (("synth", "train"), None, "predict",
     "ModelIOError: {out}/model_object_adapted.lusm: cannot read model: No"
     " such file or directory"),
], ids=["train-without-manifest", "map-before-filter", "eval-before-filter",
        "map-before-predict", "adapt-before-train", "adapt-without-scene-model",
        "predict-before-adapt"])
def test_a_stage_input_that_cannot_be_read_is_a_typed_error(
        tmp_path, capsys, monkeypatch, before, removed, stage, error):
    path = write_config(tmp_path)
    for earlier in before:
        run(path, earlier)
    if removed:
        (tmp_path / "out" / removed).unlink()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main([stage, "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: " + error.format(
        data=tmp_path / "data", out=tmp_path / "out") + "\n"


def test_blas_threads_change_no_byte(tmp_path):
    """``landuse all`` writes the same bytes with BLAS on one thread as
    with BLAS choosing its own thread count."""
    src = str(Path(cli.__file__).resolve().parents[1])
    pinned = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
    outputs = []
    for name, pin in (("pinned", True), ("unpinned", False)):
        root = tmp_path / name
        root.mkdir()
        path = write_config(root)
        env = {k: v for k, v in os.environ.items() if k not in pinned}
        env.update(pinned if pin else {}, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "landuse.cli", "all", "--config", str(path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({p.name: p.read_bytes()
                        for p in sorted((root / "out").iterdir())})
    assert len(outputs[0]) == 17
    assert outputs[0] == outputs[1]


def test_lone_surrogate_image_id_stops_filter_at_its_line(tmp_path, capsys):
    """A map image id holding a lone surrogate, escaped in the manifest as
    UTF-8 cannot hold it, is not JSON as orjson reads it: filter stops at
    its line before writing a file. (json once read the id, and its rows
    were written escaped.)"""
    path = write_config(tmp_path)
    run(path, "synth")
    manifest = tmp_path / "data" / "map.jsonl"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[2])
    lines[2] = json.dumps(dict(row, id=row["id"] + "\udc80")) + "\n"
    manifest.write_text("".join(lines), encoding="utf-8")
    assert main(["filter", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ManifestError: {manifest}:3: bad JSON: invalid high surrogate"
        f" in string\n")
    assert not (tmp_path / "out" / "assignments.jsonl").exists()


ENTRIES = ("map_manifest.lutab", "train_manifest.lutab", "val_manifest.lutab")


def test_out_dir_holds_the_artifacts_and_one_entry_per_manifest(tmp_path):
    path = write_config(tmp_path)
    run(path, "all")
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 17
    assert [n for n in names if n.endswith(".lutab")] == list(ENTRIES)
    p = Pipeline(load_config(str(path), []), tmp_path)
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


#: the minimal config of README.md
README_CONFIG = """\
seed=5
parcels=data/parcels.geojson
train_manifest=data/train.jsonl
val_manifest=data/val.jsonl
map_manifest=data/map.jsonl
out_dir=out
"""


def write_readme_config(root: Path) -> Path:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    assert f"```\n{README_CONFIG}```" in readme
    path = root / "cfg.txt"
    path.write_text(README_CONFIG, encoding="utf-8")
    return path


@pytest.mark.parametrize("override,message", [
    ("seed=-1", "config key 'seed': expected an integer in [0, 2**64),"
                " got '-1'"),
    ("seed=18446744073709551616", "config key 'seed': expected an integer in"
                                  " [0, 2**64), got '18446744073709551616'"),
    # argv bytes that are not UTF-8 reach Python as lone surrogates
    ("streams=a\udcff,b", "config key 'streams': 'a\\udcff,b' is not UTF-8"),
])
def test_value_the_writer_cannot_hold_stops_all_before_a_file(
        tmp_path, capsys, override, message):
    """A seed outside [0, 2**64), which synth and the provenance cannot
    take, and a stream name that is not UTF-8, which no model file or
    ``.meta.json`` can hold, stop ``landuse all`` before its first stage."""
    path = write_readme_config(tmp_path)
    assert main(["all", "--config", str(path), override]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]
    for seed in ("0", str(2 ** 64 - 1)):
        assert Pipeline({"seed": seed}).seed == int(seed)


@pytest.mark.parametrize("key", ["train.batch_size", "finetune.batch_size"])
def test_batch_size_past_the_split_stops_training_before_any_stream(
        tmp_path, capsys, key):
    """Both schedules are checked against the train split's domains when it
    loads, so neither stage writes a model; the rule is ``batch_plan``'s,
    which ``stratified_batches`` also follows."""
    path = write_readme_config(tmp_path)
    assert main(["all", "--config", str(path), f"{key}=1000"]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: config key {key!r}: no full batch: 160 domain-A"
        f" and 160 domain-B records, but batch_size 1000 takes 500 A + 500 B\n")
    assert not list((tmp_path / "out").glob("model_*"))
    # a schedule with no epochs draws no batch, so it is not checked
    assert main(["all", "--config", str(path), f"{key}=1000",
                 "train.epochs=0", "finetune.epochs=0"]) == 0


def test_every_json_artifact_is_what_the_writer_writes_for_what_it_reads(
        tmp_path):
    """After ``landuse all``, every JSON text it wrote, each JSON-lines row
    and each whole document, is ``encode_json`` of what orjson reads from
    it: the writer and the reader agree on every artifact."""
    path = write_readme_config(tmp_path)
    run(path, "all")
    rows = documents = 0
    for artifact in sorted(tmp_path.rglob("*")):
        if artifact.suffix == ".jsonl":
            lines = artifact.read_bytes().split(b"\n")
            assert lines.pop() == b""
            for line in lines:
                assert encode_json(orjson.loads(line)) == line
            rows += len(lines)
        elif artifact.suffix in (".json", ".geojson"):
            data = artifact.read_bytes()
            assert encode_json(orjson.loads(data), indent=True) + b"\n" == data
            documents += 1
    # synth's three manifests and parcels, and the stage artifacts
    assert documents == 7 and rows > 300


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
    assert re.fullmatch(r"error: ManifestError: record \w+: missing features"
                        r" for stream 'scene'\n", err), err
    # no stream's model is trained before the split is checked
    assert not list((tmp_path / "out").glob("model_*"))


def first_id(manifest):
    with open(manifest, encoding="utf-8") as f:
        return json.loads(f.readline())["id"]


def test_stream_no_record_carries_stops_train(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "synth")
    assert main(["train", "--config", str(path), "streams=object,texture"]) == 1
    rid = first_id(tmp_path / "data" / "train.jsonl")
    assert capsys.readouterr().err == (
        f"error: ManifestError: record {rid}: missing features for stream"
        f" 'texture'\n")
    assert not list((tmp_path / "out").glob("model_*"))


def test_map_manifest_lacking_a_stream_stops_predict(tmp_path, capsys):
    path = write_config(tmp_path)
    for command in ("synth", "train", "adapt"):
        run(path, command)
    manifest = tmp_path / "data" / "map.jsonl"
    drop_stream(manifest, "scene")
    assert main(["predict", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ManifestError: record {first_id(manifest)}: missing features"
        f" for stream 'scene'\n")
    assert not (tmp_path / "out" / "predictions.jsonl").exists()


@pytest.mark.parametrize("split", ["train", "val"])
def test_unknown_label_name_stops_train_naming_its_record(tmp_path, capsys,
                                                          split):
    path = write_config(tmp_path)
    run(path, "synth")
    manifest = tmp_path / "data" / f"{split}.jsonl"
    rows = [json.loads(line)
            for line in manifest.read_text(encoding="utf-8").splitlines()]
    rows[1]["label"] = "nope"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows),
                        encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ManifestError: record {rows[1]['id']}: unknown fine class"
        f" name: 'nope'\n")
    assert not list((tmp_path / "out").glob("model_*"))


def test_unknown_parcel_class_stops_filter_naming_its_feature(tmp_path,
                                                              capsys):
    path = write_config(tmp_path)
    run(path, "synth")
    parcels = tmp_path / "data" / "parcels.geojson"
    doc = json.loads(parcels.read_text(encoding="utf-8"))
    doc["features"][1]["properties"]["landuse"] = ["nope"]
    parcels.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["filter", "--config", str(path)]) == 1
    fid = doc["features"][1]["id"]
    assert capsys.readouterr().err == (
        f"error: GeoJSONParseError: feature {fid}: unknown fine class name:"
        f" 'nope'\n")
    assert not (tmp_path / "out" / "assignments.jsonl").exists()


def strip_labels(manifest, keep):
    lines = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        if not keep(obj["id"]):
            obj.pop("label", None)
        lines.append(json.dumps(obj))
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["train", "adapt"])
@pytest.mark.parametrize("split", ["train", "val"])
def test_training_names_the_first_unlabelled_record(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    split):
    """An unlabelled record in either split stops train and adapt with the
    file and the record named, before any stream starts: validation
    accuracy would count it as wrong."""
    path = write_config(tmp_path)
    run(path, "synth")
    run(path, "train")
    models = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
              if p.name.startswith("model_")}
    manifest = tmp_path / "data" / f"{split}.jsonl"
    ids = [json.loads(line)["id"] for line in manifest.read_text().splitlines()]
    strip_labels(manifest, keep=lambda i: i not in (ids[4], ids[2]))
    started = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: started.append(a))
    monkeypatch.setattr(cli, "adaptive_finetune",
                        lambda *a, **k: started.append(a))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: ManifestError: {manifest}: record {ids[2]} has no label\n")
    assert started == []
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
            if p.name.startswith("model_")} == models


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


def test_eval_of_no_image_reports_null_accuracy(tmp_path):
    """With no image predicted, the image accuracy is undefined, as each
    class's accuracy in ``per_class.csv`` is, not 0."""
    path = write_config(tmp_path)
    run(path, "all", "synth.images_per_parcel=0")
    assert (tmp_path / "out" / "predictions.jsonl").read_text().count(
        "\n") == 1  # the header alone
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["image_accuracy"] is None


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
    with pytest.raises(ConfigError, match=f"fusion.weights: {bad}"):
        Pipeline({"seed": "1", "fusion.weights": spec})
    ok = Pipeline({"seed": "1", "fusion.weights": "object:0.25, scene:0.75"})
    assert ok.weights == {"object": 0.25, "scene": 0.75}


def test_map_rejects_cut_or_repeated_predictions(tmp_path, capsys):
    path = write_config(tmp_path)
    run(path, "all")
    preds = tmp_path / "out" / "predictions.jsonl"
    lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    preds.write_text("".join(lines[:-1]) + lines[-1][:-8], encoding="utf-8")
    assert main(["map", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: JSONLinesError: {preds}:{len(lines)}: bad JSON:"
        f" unexpected end of data\n")
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


def test_prediction_pred_past_the_digit_limit_rejected(tmp_path):
    """orjson reads an integer literal of 5,001 digits as no number; that is
    a bad line of the artifact, not a raw ValueError."""
    p = Pipeline({"seed": "1", "out_dir": str(tmp_path)})
    p.predictions_path.write_text(
        '{"provenance": {}}\n{"image": "i", "pred": 1' + "0" * 5000 + "}\n",
        encoding="utf-8")
    with pytest.raises(JSONLinesError,
                       match=f"^{re.escape(str(p.predictions_path))}:2:"
                             " bad JSON: number is infinity when parsed as"
                             " double$"):
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
     r"malformed GeoJSON at byte offset \d+: number is infinity when parsed"
     r" as double"),
])
def test_filter_names_undecodable_parcels(tmp_path, capsys, fault, message):
    path = write_config(tmp_path)
    run(path, "synth")
    parcels = tmp_path / "data" / "parcels.geojson"
    parcels.write_bytes(fault(parcels.read_bytes()))
    assert main(["filter", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: GeoJSONParseError: {message}\n", err), err


def test_projected_parcels_stop_the_run_before_assignments(tmp_path, capsys):
    """Parcels exported in a projected frame (UTM-like metres) are refused
    by the position rule, where they once assigned no image at all."""
    path = write_config(tmp_path)
    run(path, "synth")
    parcels = tmp_path / "data" / "parcels.geojson"
    doc = json.loads(parcels.read_bytes())
    for feature in doc["features"]:
        for ring in feature["geometry"]["coordinates"]:
            ring[:] = [[550000 + 88000 * (x + 122.4), 4180000 + 111000 * (y - 37.7)]
                       for x, y in ring]
    parcels.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["all", "--config", str(path), "all.skip_synth=true"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: GeoJSONParseError: feature \S+: ring 0,"
                        r" position 0: longitude [\d.]+ out of range"
                        r" \[-180, 180\]\n", err), err
    assert not (tmp_path / "out" / "assignments.jsonl").exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A pipeline whose six stages have run, for its JSON-lines artifacts."""
    root = tmp_path_factory.mktemp("done")
    path = write_config(root)
    run(path, "all")
    return Pipeline(load_config(str(path), []), root)


def raw_utf8(data: bytes) -> bytes:
    """The same rows with a raw two-byte character in every image id."""
    changed = data.replace(b'"image":"', '"image":"é'.encode("utf-8"))
    assert changed != data
    return changed


@pytest.mark.parametrize("name,rows", [
    ("assignments.jsonl",
     lambda p: [(a.image_id, *pair) for a in p.load_mapping()[1]
                for pair in a.pairs()]),
    ("predictions.jsonl", lambda p: list(p.read_predictions().items())),
])
@pytest.mark.parametrize("variant", [bytes, raw_utf8])
def test_every_prefix_of_a_jsonl_artifact_reads_or_is_typed(
        finished_run, tmp_path, name, rows, variant):
    whole = variant((finished_run.out_dir / name).read_bytes())
    p = Pipeline(dict(finished_run.cfg, out_dir=str(tmp_path)),
                 finished_run.base)
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


@pytest.mark.parametrize("name", ["assignments.jsonl", "predictions.jsonl"])
def test_artifact_row_lacking_image_is_not_taken_for_the_header(
        finished_run, tmp_path, name):
    """Only an object whose one key is ``provenance`` is the header; a row
    whose ``image`` key is misspelt fails map and eval, naming its line."""
    p = Pipeline(dict(finished_run.cfg, out_dir=str(tmp_path)),
                 finished_run.base)
    for artifact in ("assignments.jsonl", "predictions.jsonl"):
        (tmp_path / artifact).write_bytes(
            (finished_run.out_dir / artifact).read_bytes())
    target = tmp_path / name
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].replace('"image"', '"imgae"', 1)
    target.write_text("".join(lines), encoding="utf-8")
    for command in (cli.cmd_map, cli.cmd_eval):
        with pytest.raises(JSONLinesError,
                           match=f"^{re.escape(str(target))}:3:"
                                 " row lacks 'image'$"):
            command(p)


def test_all_runs_the_stages_in_commands_order(tmp_path, monkeypatch):
    calls = []
    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda p, name=name: calls.append(name))
    path = write_config(tmp_path)
    run(path, "all")
    assert calls == list(cli.COMMANDS) == ["synth", "filter", "train",
                                           "adapt", "predict", "map", "eval"]
    calls.clear()
    run(path, "all", "all.skip_synth=true")
    assert calls == list(cli.COMMANDS)[1:]


def test_subcommand_choices_are_the_stages_and_all(capsys):
    with pytest.raises(SystemExit):
        main(["bogus", "--config", "c.txt"])
    err = capsys.readouterr().err
    choices = re.search(r"invalid choice: 'bogus' \(choose from (.*)\)", err)
    assert choices, err
    assert re.findall(r"'?(\w+)'?", choices.group(1)) == [*cli.COMMANDS, "all"]


@pytest.mark.parametrize("stage", ["map", "eval"])
def test_assignment_to_an_unknown_parcel_fails_the_stage(finished_run,
                                                         tmp_path, stage):
    p = Pipeline(dict(finished_run.cfg, out_dir=str(tmp_path)),
                 finished_run.base)
    (tmp_path / "predictions.jsonl").write_bytes(
        (finished_run.out_dir / "predictions.jsonl").read_bytes())
    lines = (finished_run.out_dir / "assignments.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[5])
    lines[5] = json.dumps(dict(row, parcel="P_gone")) + "\n"
    (tmp_path / "assignments.jsonl").write_text("".join(lines),
                                                encoding="utf-8")
    message = (f"{tmp_path / 'assignments.jsonl'}:6: image {row['image']}:"
               f" unknown parcel P_gone")
    with pytest.raises(JSONLinesError, match=re.escape(message)):
        cli.COMMANDS[stage](p)


@pytest.mark.parametrize("stage", ["map", "eval"])
@pytest.mark.parametrize("pred", [-1, 45, 99, 2 ** 70])
def test_prediction_out_of_range_fails_the_stage_naming_its_line(
        finished_run, tmp_path, stage, pred):
    """A class index outside the taxonomy fails map and eval at its line,
    also for an image that no assignment names. An integer literal past 64
    bits reads as a float, so it is no class index."""
    p = Pipeline(dict(finished_run.cfg, out_dir=str(tmp_path)),
                 finished_run.base)
    (tmp_path / "assignments.jsonl").write_bytes(
        (finished_run.out_dir / "assignments.jsonl").read_bytes())
    preds = tmp_path / "predictions.jsonl"
    lines = (finished_run.out_dir / "predictions.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    preds.write_text("".join(lines) + json.dumps(
        {"image": "unassigned", "pred": pred}) + "\n", encoding="utf-8")
    message = (f"{preds}:{len(lines) + 1}: pred {pred} out of range"
               f" [0, {len(TAX.fine_classes)})" if pred < 2 ** 64 else
               f"{preds}:{len(lines) + 1}: pred must be a class index, got"
               f" float")
    with pytest.raises(JSONLinesError, match=f"^{re.escape(message)}$"):
        cli.COMMANDS[stage](p)


def copied_run(finished_run, tmp_path):
    """The config file of a copy of the finished run's directory."""
    shutil.copytree(finished_run.base, tmp_path / "run")
    return tmp_path / "run" / "cfg.txt"


def test_predict_without_an_adapted_model_names_it(finished_run, tmp_path,
                                                   capsys):
    path = copied_run(finished_run, tmp_path)
    gone = path.parent / "out" / "model_scene_adapted.lusm"
    gone.unlink()
    assert main(["predict", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: ModelIOError: {gone}: cannot"
                                       f" read model: No such file or"
                                       f" directory\n")


def test_predict_reads_the_base_models_when_told_to(finished_run, tmp_path,
                                                    monkeypatch):
    path = copied_run(finished_run, tmp_path)
    out = path.parent / "out"
    for model in out.glob("model_*_adapted.lusm"):
        model.unlink()
    read = []
    load_model = cli.load_model
    monkeypatch.setattr(cli, "load_model",
                        lambda model: read.append(model) or load_model(model))
    run(path, "predict", "predict.use_adapted=false")
    assert read == [out / "model_object.lusm", out / "model_scene.lusm"]
