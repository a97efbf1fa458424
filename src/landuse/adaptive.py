"""Online adaptive training: confidence-gated second-stage fine-tuning.

Each sample gets a discard probability from the shape of its current score
vector: p = max(0, 2 - exp(max(y) - mean(y))). Near-uniform (confusing)
scores give p close to 1; confident scores give p = 0. The hard gate keeps
a sample iff p is strictly below the threshold; the soft gate weights its
loss by 1 - p. Gating always uses the continuously updated model, not a
frozen snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifier import Schedule, SoftmaxModel, TrainResult, train

HARD = "hard"
SOFT = "soft"


def default_finetune_schedule() -> Schedule:
    return Schedule(initial_lr=1e-5, decay_factor=10.0, decay_every=1,
                    total_epochs=4)


@dataclass(frozen=True)
class GateConfig:
    mode: str = HARD
    threshold: float = 0.5
    schedule: Schedule = field(default_factory=default_finetune_schedule)

    def __post_init__(self):
        if self.mode not in (HARD, SOFT):
            raise ValueError(f"unknown gate mode {self.mode!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")


def discard_probability(Y) -> np.ndarray:
    """p = max(0, 2 - exp(max(y) - mean(y))) for each score distribution y
    along the last axis of ``Y`` (one vector, or one row per sample).

    Uniform scores give p = 1; p hits 0 once max(y) - 1/n >= ln 2.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 0 or Y.size == 0:
        raise ValueError("scores must be a non-empty array of distributions")
    if np.any(Y < 0) or not np.all(np.abs(Y.sum(axis=-1) - 1.0) <= 1e-6):
        raise ValueError("scores are not probability distributions")
    return np.maximum(0.0, 2.0 - np.exp(Y.max(axis=-1) - Y.mean(axis=-1)))


def gate_weights(Y, cfg: GateConfig) -> np.ndarray:
    """Per-sample loss weights from the discard probabilities of scores
    ``Y``: hard keeps (weight 1) iff p < threshold, soft weights by 1 - p."""
    p = discard_probability(Y)
    if cfg.mode == HARD:
        return (p < cfg.threshold).astype(np.float64)
    return 1.0 - p


def adaptive_finetune(model: SoftmaxModel, records, cfg: GateConfig,
                      validation=None) -> TrainResult:
    """Second-stage fine-tuning with per-sample gated loss weights.

    Each batch is forwarded through the current model state before its
    update step; the discard probabilities of those scores set the sample
    weights, and the same scores give that step's gradient.
    """
    return train(model, records, cfg.schedule, validation=validation,
                 weight_fn=lambda P: gate_weights(P, cfg))
