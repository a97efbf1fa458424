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
from dataclasses import dataclass

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
        return {
            "level": self.level.value,
            "correct": self.correct,
            "predictions": self.predictions,
            "gt_records": self.gt_records,
            "precision": self.precision,
            "recall": self.recall,
            "f1_micro": self.f1_micro,
            "f1_macro": self.f1_macro,
            "per_class": {
                str(c): {"precision": m.precision, "recall": m.recall,
                         "f1": m.f1, "support": m.support,
                         "predictions": m.predictions}
                for c, m in sorted(self.per_class.items())
            },
        }


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
    toward the prediction total (and are never correct). The mappings
    are the votes ``aggregate_parcels`` counts for the map.
    """
    truth_by_parcel = {}
    for parcel in parcels:
        if parcel.truth:
            truth_by_parcel[parcel.id] = frozenset(
                taxonomy.roll_up(c, level) for c in parcel.truth)

    n = taxonomy.n_classes(level)
    correct = 0
    total_mappings = 0
    pred_count = [0] * n
    correct_count = [0] * n
    recalled: set[tuple[str, int]] = set()

    for pp in aggregate_parcels(assignments, predictions):
        truth = truth_by_parcel.get(pp.parcel_id)
        for fine, k in pp.histogram.items():
            pred = taxonomy.roll_up(fine, level)
            if truth is None and not include_untruthed:
                continue
            total_mappings += k
            pred_count[pred] += k
            if truth is not None and pred in truth:
                correct += k
                correct_count[pred] += k
                recalled.add((pp.parcel_id, pred))

    gt_pairs = [(pid, c) for pid, truth in truth_by_parcel.items()
                for c in truth]
    support = [0] * n
    recalled_count = [0] * n
    for pid, c in gt_pairs:
        support[c] += 1
        if (pid, c) in recalled:
            recalled_count[c] += 1

    precision = correct / total_mappings if total_mappings else 0.0
    recall = len(recalled) / len(gt_pairs) if gt_pairs else 0.0
    f1_micro = (2 * precision * recall / (precision + recall)
                if precision + recall > 0 else 0.0)

    per_class = {}
    macro_f1s = []
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
        if support[c] > 0:
            macro_f1s.append(f1_c)
    f1_macro = sum(macro_f1s) / len(macro_f1s) if macro_f1s else 0.0

    return MappingReport(level=level, correct=correct,
                         predictions=total_mappings,
                         gt_records=len(gt_pairs), precision=precision,
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
        for image_id, pred in image_predictions.items():
            label = taxonomy.roll_up(image_labels[image_id], level)
            img_total[label] += 1
            img_correct[label] += taxonomy.roll_up(pred, level) == label

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
