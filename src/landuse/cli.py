"""Pipeline driver: filter -> train -> adapt -> predict -> map -> eval.

Configuration is a flat key=value text file with command-line overrides
(``landuse <cmd> --config cfg.txt key=value ...``); every artifact embeds
the config hash and seed for provenance. Model files are binary, so their
provenance goes to a ``.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import synth
from .adaptive import GateConfig, adaptive_finetune, default_finetune_schedule
from .atomic import write_atomic
from .classifier import Schedule, init_model, load_model, save_model, train
from .dataset import ManifestError, load_manifest
from .evaluation import image_accuracy, mapping_metrics, per_class_report
# no stage calls predict_image; it stays among this module's names so
# that traces which wrap them still find it
from .fusion_mapping import (aggregate_parcels, check_weights,  # noqa: F401
                             equal_weights, export_map, predict_image,
                             predict_table)
from .geodata import (DEFAULT_DILATION_M, GeoPoint, JSONLinesError, assign,
                      assignments_from_jsonl, assignments_to_jsonl,
                      encode_json, jsonl_rows, jsonl_value,
                      parse_parcels, read_parcel_entry, write_parcel_entry)
from .taxonomy import Level, Taxonomy, builtin_taxonomy


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


def parse_config_text(text: str) -> dict[str, str]:
    cfg, where = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in where:
            raise ConfigError(f"config line {lineno}: key {key!r} already set"
                              f" on line {where[key]}")
        where[key] = lineno
        cfg[key] = value
    return cfg


def load_config(path: str, overrides) -> dict[str, str]:
    cfg = parse_config_text(Path(path).read_text(encoding="utf-8"))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        # split and stripped as a line of the file is
        key, value = (part.strip() for part in item.split("=", 1))
        cfg[key] = value
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    payload = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    # an argument that is not UTF-8 reaches Python as lone surrogates
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


#: every key a config may set -> the kind of its value; ``train.*`` precede
#: ``finetune.*``, as ``finetune.batch_size`` overrides ``train.batch_size``
KEYS = {
    "seed": int, "out_dir": str, "streams": str, "taxonomy": str,
    "all.skip_synth": bool, "parcels": str, "train_manifest": str,
    "val_manifest": str, "map_manifest": str, "synth.classes": int,
    "synth.grid": int, "synth.images_per_parcel": int,
    "synth.geo_sigma_m": float, "synth.train_per_class": int,
    "synth.val_per_class": int, "synth.dim": int, "synth.noise": float,
    "synth.separation": float, "synth.spread": float,
    "synth.feature_scale": float, "dilation_m": float, "train.lr": float,
    "train.decay_factor": float, "train.decay_every": int,
    "train.epochs": int, "train.batch_size": int, "train.domain_ratio": float,
    "train.momentum": float, "train.weight_decay": float, "finetune.lr": float,
    "finetune.decay_factor": float, "finetune.decay_every": int,
    "finetune.epochs": int, "finetune.batch_size": int, "gate.mode": str,
    "gate.threshold": float, "predict.use_adapted": bool,
    "fusion.weights": str, "level": Level, "eval.include_untruthed": bool}

#: what a value of each kind is, for the message that refuses one
EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
            Level: f"one of {', '.join(v.value for v in Level)}"}

#: the keyword a ``section.name`` key sets, where it is not ``name``
KEYWORDS = {"synth.classes": "n_classes", "synth.noise": "noise_rate",
            "train.lr": "initial_lr", "finetune.lr": "initial_lr",
            "train.epochs": "total_epochs", "finetune.epochs": "total_epochs"}


def parse_value(key: str, text: str):
    """The value of config key ``key``, of the kind ``KEYS`` gives it."""
    kind = KEYS[key]
    try:
        if kind is bool:  # in any case
            return {"true": True, "false": False}[text.lower()]
        value = kind(text)
        if kind is not float or math.isfinite(value):
            return value
    except (KeyError, ValueError):
        pass
    raise ConfigError(f"config key {key!r}: expected {EXPECTED[kind]},"
                      f" got {text!r}")


def _keywords(values: dict, *prefixes: str) -> dict:
    """The values of the keys under ``prefixes``, by the keyword each sets."""
    return {KEYWORDS.get(k, k.partition(".")[2]): x
            for k, x in values.items() if k.startswith(prefixes)}


def _schedule(schedule: Schedule, values: dict, *prefixes: str) -> Schedule:
    """``schedule`` with the keys under ``prefixes`` set one at a time, so
    that a value it refuses is a ConfigError naming its key."""
    for key, value in values.items():
        if key.startswith(prefixes):
            try:
                schedule = replace(schedule, **_keywords({key: value}, key))
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from None
    return schedule


class Pipeline:
    """The stages of a config, whose relative paths lie under ``base``.

    The constructor reads every value, so that a bad one stops a command
    before its first stage. A key the config leaves unset is not passed
    on, and the library's default holds."""

    def __init__(self, cfg: dict[str, str], base: Path = Path(".")):
        if "seed" not in cfg:
            raise ConfigError("config must set a seed")
        if bad := [k for k in cfg if k not in KEYS]:
            raise ConfigError(f"unknown config key {bad[0]!r}")
        v = {key: parse_value(key, cfg[key]) for key in KEYS if key in cfg}
        self.cfg, self.base, self.seed = cfg, base, v["seed"]
        self.provenance = {"config_sha256": config_hash(cfg), "seed": self.seed}
        self.out_dir = self._resolve(v.get("out_dir", "out"))
        spec = v.get("streams", "object,scene")
        self.streams = [s for s in spec.split(",") if s]
        if not self.streams or len(set(self.streams)) < len(self.streams):
            raise ConfigError(f"config key 'streams': expected distinct stream"
                              f" names, got {spec!r}")
        self.taxonomy = builtin_taxonomy()
        if taxonomy_path := v.get("taxonomy"):
            path = self._resolve(taxonomy_path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError) as e:  # ValueError: a NUL, say
                reason = getattr(e, "strerror", None) or e
                raise ConfigError(f"config key 'taxonomy': cannot read"
                                  f" {path}: {reason}") from None
            self.taxonomy = Taxonomy.from_text(text)
        self.skip_synth = v.get("all.skip_synth", False)
        self.city = _keywords(v, "synth.")
        self.dilation_m = v.get("dilation_m", DEFAULT_DILATION_M)
        train = _schedule(Schedule(), v, "train.")
        tune = _schedule(default_finetune_schedule(), v, "train.batch_size",
                         "train.domain_ratio", "finetune.")
        self.schedules = {s: replace(train, seed=self.seed + 1000 * (k + 1))
                          for k, s in enumerate(self.streams)}
        try:
            self.gates = {s: GateConfig(schedule=replace(
                tune, seed=x.seed + 500), **_keywords(v, "gate."))
                for s, x in self.schedules.items()}
        except ValueError as e:
            raise ConfigError(
                f"config keys gate.mode={v.get('gate.mode', GateConfig.mode)!r},"
                f" gate.threshold={v.get('gate.threshold', GateConfig.threshold)!r}:"
                f" {e}") from None
        self.use_adapted = v.get("predict.use_adapted", True)
        spec = v.get("fusion.weights", "equal")
        self.weights = (equal_weights(self.streams) if spec == "equal"
                        else self._fusion_weights(spec))
        self.level = v.get("level", Level.FINE)
        self.include_untruthed = v.get("eval.include_untruthed", False)

    # -- config access ---------------------------------------------------

    def _resolve(self, value: str) -> Path:
        return self.base / value  # an absolute value replaces the base

    def path(self, key: str) -> Path:
        if key not in self.cfg:
            raise ConfigError(f"config key {key!r} is required")
        return self._resolve(self.cfg[key])

    def _fusion_weights(self, spec: str) -> dict[str, float]:
        weights = {}
        for part in spec.split(","):
            stream, sep, value = (x.strip() for x in part.partition(":"))
            if not sep:
                raise ConfigError(
                    f"fusion.weights: bad part {part!r}, expected stream:weight")
            try:
                weight = float(value)
            except ValueError:
                weight = math.nan
            if not math.isfinite(weight):
                raise ConfigError(f"fusion.weights: bad weight in {part!r}")
            if stream in weights:
                raise ConfigError(f"fusion.weights: stream {stream!r} given twice")
            weights[stream] = weight
        try:
            check_weights(weights, self.streams)
        except ValueError as e:
            raise ConfigError(f"fusion.weights: {e}") from None
        return weights

    # -- artifact paths --------------------------------------------------

    def model_path(self, stream: str, adapted: bool = False) -> Path:
        suffix = "_adapted" if adapted else ""
        return self.out_dir / f"model_{stream}{suffix}.lusm"

    @property
    def assignments_path(self) -> Path:
        return self.out_dir / "assignments.jsonl"

    @property
    def predictions_path(self) -> Path:
        return self.out_dir / "predictions.jsonl"

    # -- shared loaders --------------------------------------------------

    def load_parcels(self):
        """The parcels, through the parcel entry ``out_dir/parcels.lupar``:
        the GeoJSON is parsed and validated only when the entry does not
        hold the parcels of these bytes and this taxonomy."""
        data = self.path("parcels").read_bytes()
        entry = self.out_dir / "parcels.lupar"
        parcels = read_parcel_entry(entry, data, self.taxonomy)
        if parcels is None:
            parcels = parse_parcels(data, self.taxonomy)
            write_parcel_entry(entry, data, self.taxonomy, parcels)
        return parcels

    def load_split(self, key: str):
        """The table of a manifest, through its table-cache entry
        ``out_dir/<key>.lutab``."""
        return load_manifest(self.path(key), self.taxonomy,
                             cache=self.out_dir / f"{key}.lutab")

    def load_training(self):
        """(train table, validation table or None if no val_manifest).

        Both splits must carry every configured stream, so that a bad split
        fails before any stream's model is trained."""
        train_records = self.load_split("train_manifest")
        if not len(train_records):
            raise ManifestError(
                f"{self.path('train_manifest')}: no training records")
        val_records = (self.load_split("val_manifest")
                       if "val_manifest" in self.cfg else None)
        for split in (train_records, val_records):
            if split:
                for stream in self.streams:
                    split.stream(stream)
        return train_records, val_records

    def write_model(self, result, stream: str, adapted: bool = False) -> None:
        """Write a trained model and its provenance ``.meta.json`` sidecar."""
        path = self.model_path(stream, adapted)
        save_model(result.model, path)
        meta = dict(self.provenance, stream=stream,
                    val_accuracy=result.val_accuracy)
        write_atomic(path.with_suffix(".lusm.meta.json"),
                     encode_json(meta, indent=True) + b"\n")

    def load_mapping(self):
        """(parcels, assignments); an unknown parcel raises JSONLinesError."""
        parcels, path = self.load_parcels(), self.assignments_path
        with open(path, "rb") as f:
            return parcels, assignments_from_jsonl(
                f, path, {pc.id for pc in parcels})

    def read_predictions(self) -> dict[str, int]:
        path = self.predictions_path
        n = len(self.taxonomy.fine_classes)
        preds = {}
        with open(path, "rb") as f:
            for lineno, obj in jsonl_rows(f, path):
                image = jsonl_value(obj, "image", str, path, lineno)
                if image in preds:
                    raise JSONLinesError(
                        f"{path}:{lineno}: repeated image id {image}")
                pred = jsonl_value(obj, "pred", int, path, lineno)
                if not 0 <= pred < n:
                    raise JSONLinesError(f"{path}:{lineno}: pred {pred} out of"
                                         f" range [0, {n})")
                preds[image] = pred
        return preds

    def _write_jsonl(self, path: Path, body: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = encode_json({"provenance": self.provenance})
        write_atomic(path, header + b"\n" + body)


# ---------------------------------------------------------------------------
# subcommands


def cmd_filter(p: Pipeline) -> None:
    table = p.load_split("map_manifest")
    lon, lat = table.lon.tolist(), table.lat.tolist()
    records = [(table.ids[k], GeoPoint(lon[k], lat[k]))
               for k in np.flatnonzero(table.has_geo).tolist()]
    assignments = assign(records, p.load_parcels(), dilation_m=p.dilation_m)
    p._write_jsonl(p.assignments_path, assignments_to_jsonl(assignments))


def cmd_train(p: Pipeline) -> None:
    train_records, val_records = p.load_training()
    n = len(p.taxonomy.fine_classes)
    p.out_dir.mkdir(parents=True, exist_ok=True)
    for stream, schedule in p.schedules.items():
        d = train_records.stream(stream).shape[1]
        result = train(init_model(n, d, stream), train_records, schedule,
                       validation=val_records)
        p.write_model(result, stream)


def cmd_adapt(p: Pipeline) -> None:
    train_records, val_records = p.load_training()
    for stream, gate in p.gates.items():
        model = load_model(p.model_path(stream))
        result = adaptive_finetune(model, train_records, gate,
                                   validation=val_records)
        p.write_model(result, stream, adapted=True)


def cmd_predict(p: Pipeline) -> None:
    models = {stream: load_model(p.model_path(stream, adapted=p.use_adapted))
              for stream in p.streams}
    table = p.load_split("map_manifest")
    preds = (predict_table(models, table, p.weights)[0].tolist()
             if len(table) else [])
    fine = p.taxonomy.fine_classes
    p._write_jsonl(p.predictions_path, b"".join(
        encode_json({"image": rid, "pred": k, "class": fine[k]}) + b"\n"
        for rid, k in zip(table.ids, preds)))


def cmd_map(p: Pipeline) -> None:
    parcels, assignments = p.load_mapping()
    votes = aggregate_parcels(assignments, p.read_predictions(), parcels,
                              p.taxonomy)
    write_atomic(p.out_dir / "map.geojson",
                 export_map(parcels, votes, p.taxonomy, p.level, p.provenance))


def cmd_eval(p: Pipeline) -> None:
    parcels, assignments = p.load_mapping()
    predictions = p.read_predictions()
    table = p.load_split("map_manifest")
    labels = {rid: c for rid, c in zip(table.ids, table.label.tolist())
              if c >= 0}
    # an accuracy over only the labelled images would hide the rest
    unlabeled = [i for i in predictions if i not in labels]
    if 0 < len(unlabeled) < len(predictions):
        raise ManifestError(
            f"{p.path('map_manifest')}: {len(unlabeled)} of {len(predictions)}"
            f" predicted images have no label (first: {unlabeled[0]})")
    report = mapping_metrics(
        assignments, predictions, parcels, p.taxonomy, level=p.level,
        include_untruthed=p.include_untruthed)
    accuracy = None  # over no image, or over unlabelled ones, undefined
    if predictions and not unlabeled:
        up = p.taxonomy.roll_up_index(p.level)
        accuracy = image_accuracy({i: up[c] for i, c in predictions.items()},
                                  {i: up[c] for i, c in labels.items()})
    out = {"provenance": p.provenance, "image_accuracy": accuracy,
           "mapping": report.to_json()}
    write_atomic(p.out_dir / "report.json",
                 encode_json(out, indent=True) + b"\n")
    write_atomic(p.out_dir / "per_class.csv",
                 per_class_report(report, p.taxonomy,
                                  image_predictions=predictions,
                                  image_labels=labels))


def cmd_synth(p: Pipeline) -> None:
    data_dir = p.path("parcels").parent
    # a config pointing anywhere else fails before a file is written
    for key, short in (("parcels", "parcels"), ("train_manifest", "train"),
                       ("val_manifest", "val"), ("map_manifest", "map")):
        wrote = data_dir / synth.CITY_FILES[short]
        if key in p.cfg and p.path(key).resolve() != wrote.resolve():
            raise ConfigError(f"synth would write {wrote}, but config {key}"
                              f" points at {p.path(key)}")
    synth.make_city(data_dir, p.taxonomy, seed=p.seed,
                    streams=tuple(p.streams), **p.city)


#: the stages, in the order ``landuse all`` runs them
COMMANDS = {
    "synth": cmd_synth,
    "filter": cmd_filter,
    "train": cmd_train,
    "adapt": cmd_adapt,
    "predict": cmd_predict,
    "map": cmd_map,
    "eval": cmd_eval,
}


def cmd_all(p: Pipeline) -> None:
    for name, command in COMMANDS.items():
        if name != "synth" or not p.skip_synth:
            command(p)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="landuse",
        description="Land-use mapping pipeline over geotagged image features.")
    parser.add_argument("subcommand", choices=[*COMMANDS, "all"])
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("overrides", nargs="*", metavar="key=value",
                        help="config overrides")
    args = parser.parse_intermixed_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        pipeline = Pipeline(cfg, Path(args.config).resolve().parent)
        COMMANDS.get(args.subcommand, cmd_all)(pipeline)
    except Exception as e:  # noqa: BLE001 - single-line machine-parsable exit
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
