"""Image-level accuracy and shapefile-level mapping metrics.

A mapping is one (image, parcel) assignment pair on a ground-truthed
parcel; it is correct iff the image's predicted class is one of the
parcel's truth classes (both rolled up to the evaluation level). A
ground-truth record is a (parcel, class) pair, recalled when at least one
image assigned to that parcel predicted the class. F1 conventions differ,
so both micro (harmonic mean of precision/recall) and macro (mean of
per-class F1) are reported.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

import numpy as np

from .fusion_mapping import aggregate_parcels
from .taxonomy import Level, Taxonomy


@dataclass(frozen=True)
class ClassMetrics:
    precision: float | None  # None when the class was never predicted
    recall: float
    f1: float
    support: int       # number of ground-truth (parcel, class) records
    predictions: int   # number of mappings predicting this class


@dataclass(frozen=True)
class MappingReport:
    level: Level
    correct: int
    predictions: int
    gt_records: int
    precision: float
    recall: float
    f1_micro: float
    f1_macro: float
    per_class: dict[int, ClassMetrics]

    def to_json(self) -> dict:
        """The fields in order; ``per_class`` keyed by ``str(c)``, sorted."""
        out = asdict(self)
        out["level"] = self.level.value
        out["per_class"] = {str(c): m for c, m in sorted(out["per_class"].items())}
        return out


def image_accuracy(predictions: dict[str, int], labels: dict[str, int]) -> float:
    """Fraction of exact matches over the predicted ids."""
    if not predictions:
        return 0.0
    correct = 0
    for image_id, pred in predictions.items():
        if image_id not in labels:
            raise ValueError(f"no label for predicted image {image_id}")
        correct += pred == labels[image_id]
    return correct / len(predictions)


def mapping_metrics(assignments, predictions: dict[str, int], parcels,
                    taxonomy: Taxonomy, level: Level = Level.FINE,
                    include_untruthed: bool = False) -> MappingReport:
    """Precision/recall/F1 of the land-use mapping against parcel truth.

    ``predictions`` maps image id to a fine class index; truth and
    predictions are rolled up to ``level`` before scoring. Parcels with an
    empty truth set are excluded from every count unless
    ``include_untruthed`` is set, in which case their mappings still count
    toward the prediction total (and are never correct). The mappings are
    the votes ``aggregate_parcels`` counts for the map."""
    n = taxonomy.n_classes(level)
    up = taxonomy.roll_up_index(level)
    onto = np.eye(n, dtype=np.int64)[list(up.values())]
    votes = aggregate_parcels(assignments, predictions, parcels, taxonomy) @ onto
    truth = np.zeros((len(parcels), n), dtype=bool)
    for k, parcel in enumerate(parcels):
        truth[k, [taxonomy.roll_up(c, level) for c in parcel.truth]] = True
    hits = votes * truth
    if not include_untruthed:
        votes = votes[truth.any(axis=1)]
    # Python ints, so that each ratio is the float the per-vote counts gave
    pred_count, correct_count, support, recalled_count = (
        m.sum(axis=0).tolist() for m in (votes, hits, truth, hits > 0))
    total_mappings, correct = sum(pred_count), sum(correct_count)
    gt_records, recalled = sum(support), sum(recalled_count)

    precision = correct / total_mappings if total_mappings else 0.0
    recall = recalled / gt_records if gt_records else 0.0
    f1_micro = (2 * precision * recall / (precision + recall)
                if precision + recall > 0 else 0.0)

    per_class = {}
    for c in range(n):
        if support[c] == 0 and pred_count[c] == 0:
            continue
        p_c = correct_count[c] / pred_count[c] if pred_count[c] else None
        r_c = recalled_count[c] / support[c] if support[c] else 0.0
        p_for_f1 = p_c if p_c is not None else 0.0
        f1_c = (2 * p_for_f1 * r_c / (p_for_f1 + r_c)
                if p_for_f1 + r_c > 0 else 0.0)
        per_class[c] = ClassMetrics(precision=p_c, recall=r_c, f1=f1_c,
                                    support=support[c],
                                    predictions=pred_count[c])
    macro_f1s = [m.f1 for m in per_class.values() if m.support > 0]
    f1_macro = sum(macro_f1s) / len(macro_f1s) if macro_f1s else 0.0

    return MappingReport(level=level, correct=correct,
                         predictions=total_mappings,
                         gt_records=gt_records, precision=precision,
                         recall=recall, f1_micro=f1_micro, f1_macro=f1_macro,
                         per_class=per_class)


PER_CLASS_COLUMNS = ["class", "image_accuracy", "image_support",
                     "mapping_recall", "gt_support"]


def per_class_report(report: MappingReport, taxonomy: Taxonomy,
                     image_predictions: dict[str, int] | None = None,
                     image_labels: dict[str, int] | None = None) -> str:
    """CSV table, one row per class at the report's level.

    Columns: class name, image-level accuracy over validation images whose
    label rolls up to the class (empty when there are none), the number of
    such images, mapping recall (empty for classes with no ground-truth
    records), and the ground-truth record count.
    """
    level = report.level
    n = taxonomy.n_classes(level)

    img_correct = [0] * n
    img_total = [0] * n
    if image_predictions and image_labels:
        up = taxonomy.roll_up_index(level)
        for image_id, pred in image_predictions.items():
            label = up[image_labels[image_id]]
            img_total[label] += 1
            img_correct[label] += up[pred] == label

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PER_CLASS_COLUMNS)
    for c in range(n):
        metrics = report.per_class.get(c)
        acc = f"{img_correct[c] / img_total[c]:.6f}" if img_total[c] else ""
        if metrics is not None and metrics.support > 0:
            rec = f"{metrics.recall:.6f}"
            sup = metrics.support
        else:
            rec = ""  # undefined, not zero
            sup = 0
        writer.writerow([taxonomy.name(c, level), acc, img_total[c], rec, sup])
    return buf.getvalue()
