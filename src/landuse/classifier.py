"""Per-stream linear softmax classifier with step-decay SGD schedules.

The model is a multinomial logistic head over fixed feature vectors, the
desk-scale stand-in for a fine-tuned CNN. Training is plain SGD (momentum
and weight decay default to 0 but are exposed), double precision, and
bit-for-bit reproducible given a seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_output
from .dataset import ManifestTable, stratified_batches

MODEL_MAGIC = b"LUSM1"


class ModelIOError(ValueError):
    pass


@dataclass
class SoftmaxModel:
    W: np.ndarray  # (n, D)
    b: np.ndarray  # (n,)
    stream: str

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def D(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "SoftmaxModel":
        return SoftmaxModel(W=self.W.copy(), b=self.b.copy(), stream=self.stream)


@dataclass(frozen=True)
class Schedule:
    """Step-decay SGD schedule: lr(e) = initial_lr / decay_factor^(e // decay_every)."""

    initial_lr: float = 0.01
    decay_factor: float = 10.0
    decay_every: int = 5
    total_epochs: int = 12
    batch_size: int = 256
    seed: int = 0
    domain_ratio: float = 0.5
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.decay_every < 1:
            raise ValueError(f"decay_every must be >= 1, got {self.decay_every}")
        if not self.decay_factor > 0:
            raise ValueError(f"decay_factor must be > 0, got {self.decay_factor}")
        if self.total_epochs < 0:
            raise ValueError(f"total_epochs must be >= 0, got {self.total_epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 <= self.domain_ratio <= 1.0:
            raise ValueError(f"domain_ratio must be in [0, 1], got {self.domain_ratio}")
        for name in ("initial_lr", "momentum", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # the last epoch has the largest divisor, or the largest rate when
        # decay_factor < 1: 10.0 ** 400 overflows, and 0.5 ** 1100 is 0
        last = max(self.total_epochs - 1, 0)
        k = last // self.decay_every
        try:
            lr = self.initial_lr / float(self.decay_factor) ** k
        except (OverflowError, ZeroDivisionError):
            lr = math.inf
        if not math.isfinite(lr):
            raise ValueError(
                f"learning rate of epoch {last} out of range: initial_lr"
                f" {self.initial_lr} / decay_factor {self.decay_factor} ** {k}")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr / self.decay_factor ** (epoch // self.decay_every)


@dataclass
class TrainResult:
    model: SoftmaxModel
    val_accuracy: list[float] = field(default_factory=list)


def init_model(n: int, D: int, stream: str) -> SoftmaxModel:
    """Zero-initialized model. The objective is convex, so zero init is
    exact and deterministic; forward on any input gives uniform scores."""
    if n < 2 or D < 1:
        raise ValueError(f"bad model shape n={n}, D={D}")
    return SoftmaxModel(W=np.zeros((n, D)), b=np.zeros(n), stream=stream)


def forward(model: SoftmaxModel, X) -> np.ndarray:
    """softmax(X W^T + b) over the last axis, overflow-safe.

    ``X`` is one ``(D,)`` feature vector or an ``(N, D)`` matrix of them;
    the result has one probability vector per row.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (1, 2) or X.shape[-1] != model.D:
        raise ValueError(f"feature dimension {X.shape} does not match D={model.D}")
    # in place, so that a matrix of N rows needs one (N, n) buffer
    P = X @ model.W.T
    P += model.b
    P -= P.max(axis=-1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    return P


def loss_grad(model: SoftmaxModel, X, y, sample_weights, P=None):
    """Weighted-mean cross-entropy loss of feature rows ``X`` with labels
    ``y``, and its analytic gradients.

    ``sample_weights`` None means unit weights, and skips the weighting.
    ``P`` is ``forward(model, X)`` when the caller has it already; it is
    consumed: the gradient is built in its buffer, so the caller must not
    read it afterwards.

    Weighted mean (not sum) so that gating samples out does not implicitly
    shrink the learning rate; all-zero weights give zero loss and zero
    gradients.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    w = None
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)
        if w.shape != y.shape:
            raise ValueError(f"need {len(y)} sample weights, got {w.shape}")
        if np.any(w < 0):
            raise ValueError("sample weights must be >= 0")
    wsum = _weight_sum(model, y, w)
    if wsum == 0.0:
        return 0.0, np.zeros_like(model.W), np.zeros_like(model.b)
    if P is None:
        P = forward(model, X)
    logp = np.log(P[np.arange(len(y)), y])
    loss = float(-(logp if w is None else w * logp).sum() / wsum)
    return (loss, *_gradients(X, y, w, wsum, P))


def _weight_sum(model: SoftmaxModel, y: np.ndarray, w) -> float:
    """The sum of the weights ``w`` of labels ``y`` (None: unit weights).
    Unless it is 0, a label outside the model's classes raises."""
    wsum = float(len(y)) if w is None else w.sum()
    if wsum != 0.0 and (y.min() < 0 or y.max() >= model.n):
        raise ValueError(f"unlabeled record or label outside [0, {model.n})"
                         f" in training batch")
    return wsum


def _gradients(X: np.ndarray, y: np.ndarray, w, wsum: float, P: np.ndarray):
    """The gradients of ``loss_grad`` for scores ``P``, which are consumed,
    and a weight sum ``wsum`` that is not 0."""
    E = P  # the error P - onehot(y), in place
    E[np.arange(len(y)), y] -= 1.0
    if w is not None:
        E *= w[:, None]
    return E.T @ X / wsum, E.sum(axis=0) / wsum


def train(model: SoftmaxModel, records: ManifestTable, schedule: Schedule,
          validation: ManifestTable | None = None,
          weight_fn=None) -> TrainResult:
    """SGD over stratified batches of ``records``, starting from a copy of
    ``model``.

    Each step forwards its batch once. ``weight_fn(P) -> weights`` turns
    those scores, from the current model state, into a float64 array of
    per-sample loss weights, each >= 0 (the adaptive gate uses it); None
    means unit weights. With a validation split, its accuracy is recorded
    after every epoch. Each batch is gathered into one buffer, so that a
    step allocates less, and a step computes the gradients of
    ``loss_grad`` but not the loss.
    """
    X = records.stream(model.stream)
    Xb = np.empty((schedule.batch_size, X.shape[1]))
    m = model.copy()
    vW = np.zeros_like(m.W)
    vb = np.zeros_like(m.b)
    trace = []
    for epoch in range(schedule.total_epochs):
        lr = schedule.lr_at(epoch)
        batches = stratified_batches(records.domain, schedule.batch_size,
                                     schedule.domain_ratio,
                                     seed=schedule.seed + epoch)
        for idx in batches:
            np.take(X, idx, axis=0, out=Xb, mode="clip")  # idx is in range
            P = forward(m, Xb)
            w = None if weight_fn is None else weight_fn(P)
            y = records.label[idx]
            wsum = _weight_sum(m, y, w)
            if wsum == 0.0:
                gW, gb = np.zeros_like(m.W), np.zeros_like(m.b)
            else:
                gW, gb = _gradients(Xb, y, w, wsum, P)
            if schedule.weight_decay:
                gW = gW + schedule.weight_decay * m.W
                gb = gb + schedule.weight_decay * m.b
            if schedule.momentum:
                vW = schedule.momentum * vW + gW
                vb = schedule.momentum * vb + gb
                gW, gb = vW, vb
            m.W -= lr * gW
            m.b -= lr * gb
        if validation is not None:
            trace.append(accuracy(m, validation))
    return TrainResult(model=m, val_accuracy=trace)


def accuracy(model: SoftmaxModel, records: ManifestTable) -> float:
    """Share of records whose argmax class equals their label."""
    if not len(records):
        return 0.0
    pred = np.argmax(forward(model, records.stream(model.stream)), axis=-1)
    return int(np.count_nonzero(pred == records.label)) / len(records)


# ---------------------------------------------------------------------------
# model files


def save_model(model: SoftmaxModel, path) -> None:
    """Write an LUSM1 file through a temp file, so that a failed write
    leaves any earlier file whole."""
    with atomic_output(path) as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<II", model.n, model.D))
        raw = model.stream.encode("utf-8")
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        f.write(np.ascontiguousarray(model.W, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.b, dtype="<f8").tobytes())


def load_model(path) -> SoftmaxModel:
    """Read an LUSM1 file. A file that is cut short, carries trailing bytes,
    has a shape ``init_model`` rejects or a stream name that is not UTF-8
    raises ``ModelIOError``, as does a file that cannot be read."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ModelIOError(f"{path}: cannot read model: {e.strerror or e}"
                           ) from None
    if data[:len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelIOError(
            f"{path}: bad magic {data[:len(MODEL_MAGIC)]!r}, expected {MODEL_MAGIC!r}")
    pos = len(MODEL_MAGIC) + 12
    if len(data) < pos:
        raise ModelIOError(f"{path}: truncated header")
    n, d, slen = struct.unpack_from("<III", data, len(MODEL_MAGIC))
    if n < 2 or d < 1:
        raise ModelIOError(f"{path}: bad model shape n={n}, D={d}")
    end = pos + slen + 8 * n * d + 8 * n
    if len(data) < end:
        raise ModelIOError(f"{path}: truncated stream name or weights")
    if len(data) > end:
        raise ModelIOError(f"{path}: {len(data) - end} trailing bytes")
    try:
        stream = data[pos:pos + slen].decode("utf-8")
    except UnicodeDecodeError:
        raise ModelIOError(f"{path}: stream name is not valid UTF-8") from None
    pos += slen
    W = np.frombuffer(data, dtype="<f8", count=n * d, offset=pos)
    b = np.frombuffer(data, dtype="<f8", count=n, offset=pos + 8 * n * d)
    return SoftmaxModel(W=W.reshape(n, d).copy(), b=b.copy(), stream=stream)
