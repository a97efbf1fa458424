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
from .fusion_mapping import (aggregate_parcels, equal_weights, export_map,  # noqa: F401
                             predict_image, predict_table)
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
    if "seed" not in cfg:
        raise ConfigError("config must set a seed")
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    payload = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    # an argument that is not UTF-8 reaches Python as lone surrogates
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


class Pipeline:
    """The stages of a config, whose relative paths lie under ``base``."""

    def __init__(self, cfg: dict[str, str], base: Path = Path(".")):
        if bad := [k for k in cfg if k not in KEYS]:
            raise ConfigError(f"unknown config key {bad[0]!r}")
        self.cfg = cfg
        self.seed = self.i("seed", None)
        self.hash = config_hash(cfg)
        self.base = base
        self.out_dir = self._resolve(cfg.get("out_dir", "out"))
        spec = self.cfg.get("streams", "object,scene")
        self.streams = [s for s in spec.split(",") if s]
        if not self.streams or len(set(self.streams)) < len(self.streams):
            raise ConfigError(f"config key 'streams': expected distinct stream"
                              f" names, got {spec!r}")
        taxonomy_path = cfg.get("taxonomy")
        if taxonomy_path:
            path = self._resolve(taxonomy_path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError) as e:  # ValueError: a NUL, say
                reason = getattr(e, "strerror", None) or e
                raise ConfigError(f"config key 'taxonomy': cannot read"
                                  f" {path}: {reason}") from None
            self.taxonomy = Taxonomy.from_text(text)
        else:
            self.taxonomy = builtin_taxonomy()

    # -- config access ---------------------------------------------------

    def _resolve(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self.base / p

    def path(self, key: str) -> Path:
        if key not in self.cfg:
            raise ConfigError(f"config key {key!r} is required")
        return self._resolve(self.cfg[key])

    def f(self, key: str, default: float) -> float:
        value = self.cfg.get(key, default)
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"config key {key!r}: expected a finite number,"
                              f" got {value!r}")
        return number

    def i(self, key: str, default: int | None) -> int:
        value = self.cfg.get(key, default)
        try:
            return int(value)
        except (ValueError, TypeError):
            raise ConfigError(f"config key {key!r}: expected an integer,"
                              f" got {value!r}") from None

    def b(self, key: str, default: bool) -> bool:
        value = self.cfg.get(key, str(default))
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"config key {key!r}: expected true or false,"
                              f" got {value!r}")
        return value.lower() == "true"

    @property
    def level(self) -> Level:
        value = self.cfg.get("level", "fine")
        try:
            return Level(value)
        except ValueError:
            raise ConfigError(
                f"config key 'level': expected one of"
                f" {', '.join(v.value for v in Level)}, got {value!r}") from None

    @property
    def provenance(self) -> dict:
        return {"config_sha256": self.hash, "seed": self.seed}

    def train_schedule(self, stream_index: int) -> Schedule:
        d = Schedule()
        return Schedule(
            initial_lr=self.f("train.lr", d.initial_lr),
            decay_factor=self.f("train.decay_factor", d.decay_factor),
            decay_every=self.i("train.decay_every", d.decay_every),
            total_epochs=self.i("train.epochs", d.total_epochs),
            batch_size=self.i("train.batch_size", d.batch_size),
            seed=self.seed + 1000 * (stream_index + 1),
            domain_ratio=self.f("train.domain_ratio", d.domain_ratio),
            momentum=self.f("train.momentum", d.momentum),
            weight_decay=self.f("train.weight_decay", d.weight_decay))

    def gate_config(self, stream_index: int) -> GateConfig:
        d, ft, gate = Schedule(), default_finetune_schedule(), GateConfig()
        schedule = Schedule(
            initial_lr=self.f("finetune.lr", ft.initial_lr),
            decay_factor=self.f("finetune.decay_factor", ft.decay_factor),
            decay_every=self.i("finetune.decay_every", ft.decay_every),
            total_epochs=self.i("finetune.epochs", ft.total_epochs),
            batch_size=self.i("finetune.batch_size",
                              self.i("train.batch_size", d.batch_size)),
            seed=self.seed + 1000 * (stream_index + 1) + 500,
            domain_ratio=self.f("train.domain_ratio", d.domain_ratio))
        mode = self.cfg.get("gate.mode", gate.mode)
        threshold = self.f("gate.threshold", gate.threshold)
        try:
            return GateConfig(mode=mode, threshold=threshold, schedule=schedule)
        except ValueError as e:
            raise ConfigError(f"config keys gate.mode={mode!r},"
                              f" gate.threshold={threshold!r}: {e}") from None

    def fusion_weights(self) -> dict[str, float]:
        spec = self.cfg.get("fusion.weights", "equal")
        if spec == "equal":
            return equal_weights(self.streams)
        weights = {}
        for part in spec.split(","):
            stream, sep, value = part.partition(":")
            if not sep:
                raise ConfigError(
                    f"fusion.weights: bad part {part!r}, expected stream:weight")
            try:
                weight = float(value)
            except ValueError:
                weight = math.nan
            if not math.isfinite(weight):
                raise ConfigError(f"fusion.weights: bad weight in {part!r}")
            stream = stream.strip()
            if stream in weights:
                raise ConfigError(f"fusion.weights: stream {stream!r} given twice")
            weights[stream] = weight
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
    assignments = assign(records, p.load_parcels(),
                         dilation_m=p.f("dilation_m", DEFAULT_DILATION_M))
    p._write_jsonl(p.assignments_path, assignments_to_jsonl(assignments))


def cmd_train(p: Pipeline) -> None:
    train_records, val_records = p.load_training()
    n = len(p.taxonomy.fine_classes)
    p.out_dir.mkdir(parents=True, exist_ok=True)
    for k, stream in enumerate(p.streams):
        d = train_records.stream(stream).shape[1]
        result = train(init_model(n, d, stream), train_records,
                       p.train_schedule(k), validation=val_records)
        p.write_model(result, stream)


def cmd_adapt(p: Pipeline) -> None:
    train_records, val_records = p.load_training()
    for k, stream in enumerate(p.streams):
        model = load_model(p.model_path(stream))
        result = adaptive_finetune(model, train_records, p.gate_config(k),
                                   validation=val_records)
        p.write_model(result, stream, adapted=True)


def cmd_predict(p: Pipeline) -> None:
    use_adapted = p.b("predict.use_adapted", True)
    models = {stream: load_model(p.model_path(stream, adapted=use_adapted))
              for stream in p.streams}
    table = p.load_split("map_manifest")
    preds = (predict_table(models, table, p.fusion_weights())[0].tolist()
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
    level = p.level
    report = mapping_metrics(
        assignments, predictions, parcels, p.taxonomy, level=level,
        include_untruthed=p.b("eval.include_untruthed", False))
    accuracy = None
    if not unlabeled:
        up = p.taxonomy.roll_up_index(level)
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


#: config key -> (``synth.make_city`` keyword, number type); a key the
#: config leaves unset keeps make_city's default
SYNTH_KEYS = {
    "synth.classes": ("n_classes", int),
    "synth.grid": ("grid", int),
    "synth.images_per_parcel": ("images_per_parcel", int),
    "synth.geo_sigma_m": ("geo_sigma_m", float),
    "synth.train_per_class": ("train_per_class", int),
    "synth.val_per_class": ("val_per_class", int),
    "synth.dim": ("dim", int),
    "synth.noise": ("noise_rate", float),
    "synth.separation": ("separation", float),
    "synth.spread": ("spread", float),
    "synth.feature_scale": ("feature_scale", float),
}

#: every key a config may set
KEYS = {"seed", "out_dir", "streams", "taxonomy", "parcels", "train_manifest",
        "val_manifest", "map_manifest", "dilation_m", "level", "gate.mode",
        "gate.threshold", "fusion.weights", "predict.use_adapted",
        "eval.include_untruthed", "all.skip_synth", "train.lr", "train.epochs",
        "train.decay_factor", "train.decay_every", "train.batch_size",
        "train.domain_ratio", "train.momentum", "train.weight_decay",
        "finetune.lr", "finetune.epochs", "finetune.decay_factor",
        "finetune.decay_every", "finetune.batch_size", *SYNTH_KEYS}


def cmd_synth(p: Pipeline) -> None:
    data_dir = p.path("parcels").parent
    # a config pointing anywhere else fails before a file is written
    for key, short in (("parcels", "parcels"), ("train_manifest", "train"),
                       ("val_manifest", "val"), ("map_manifest", "map")):
        wrote = data_dir / synth.CITY_FILES[short]
        if key in p.cfg and p.path(key).resolve() != wrote.resolve():
            raise ConfigError(f"synth would write {wrote}, but config {key}"
                              f" points at {p.path(key)}")
    given = {keyword: p.i(key, None) if kind is int else p.f(key, None)
             for key, (keyword, kind) in SYNTH_KEYS.items() if key in p.cfg}
    synth.make_city(data_dir, p.taxonomy, seed=p.seed,
                    streams=tuple(p.streams), **given)


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
        if name == "synth" and p.b("all.skip_synth", False):
            continue
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
