"""Land-use mapping from geotagged ground-level image features."""

from .adaptive import GateConfig, adaptive_finetune, discard_probability, \
    gate_weights
from .classifier import Schedule, SoftmaxModel, forward, init_model, \
    load_model, loss_grad, save_model, train
from .dataset import ImageRecord, ManifestTable, load_manifest, \
    stratified_batches, write_feature_file
from .evaluation import MappingReport, image_accuracy, mapping_metrics, \
    per_class_report
from .fusion_mapping import aggregate_parcels, equal_weights, export_map, \
    fuse, predict_image, predict_table
from .geodata import Assignment, GeoPoint, Parcel, assign, \
    boundary_distance_m, contains, parse_parcels
from .synth import complementary_stream_split, make_city, noisy_web_split
from .taxonomy import Level, Taxonomy, builtin_taxonomy

__all__ = [
    "GateConfig", "adaptive_finetune", "discard_probability", "gate_weights",
    "Schedule", "SoftmaxModel", "forward", "init_model", "load_model",
    "loss_grad", "save_model", "train", "ImageRecord", "ManifestTable",
    "load_manifest", "stratified_batches", "write_feature_file",
    "MappingReport", "image_accuracy", "mapping_metrics", "per_class_report",
    "aggregate_parcels", "equal_weights", "export_map", "fuse",
    "predict_image", "predict_table", "Assignment", "GeoPoint", "Parcel",
    "assign", "boundary_distance_m", "contains", "parse_parcels",
    "complementary_stream_split", "make_city", "noisy_web_split", "Level",
    "Taxonomy", "builtin_taxonomy",
]
