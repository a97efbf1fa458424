import math
import random
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from _oracles import finite_difference_grads
from landuse.classifier import (MODEL_MAGIC, ModelIOError, Schedule,
                                SoftmaxModel, accuracy, forward, init_model,
                                load_model, loss_grad, save_model, train)
from landuse.dataset import ManifestTable, stratified_batches
from landuse.synth import noisy_web_split


def table(rows, labels, stream="object"):
    """Domain-A records r0, r1, ... without geotags."""
    n = len(rows)
    return ManifestTable(
        ids=tuple(f"r{i}" for i in range(n)), domain=np.array(["A"] * n),
        label=np.array(labels, dtype=np.intp),
        features={stream: np.array(rows, dtype=float)},
        lon=np.zeros(n), lat=np.zeros(n), has_geo=np.zeros(n, dtype=bool))


def random_batch(rng, n, d, size):
    """(X, y) of ``size`` random rows of dimension ``d`` and ``n`` classes."""
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    return (nprng.standard_normal((size, d)),
            np.array([rng.randrange(n) for _ in range(size)]))


# ---------------------------------------------------------------------------
# model basics


def test_zero_init_uniform():
    m = init_model(45, 64, "object")
    p = forward(m, np.random.default_rng(0).standard_normal(64))
    np.testing.assert_allclose(p, np.full(45, 1 / 45))


def test_init_shapes():
    m = init_model(5, 8, "scene")
    assert m.W.shape == (5, 8) and m.b.shape == (5,)
    assert m.stream == "scene"


def test_init_rejects_bad_shape():
    with pytest.raises(ValueError):
        init_model(1, 8, "object")


def test_softmax_closed_form():
    # logits [ln 2, 0] must give [2/3, 1/3]
    m = SoftmaxModel(W=np.array([[math.log(2.0)], [0.0]]),
                     b=np.zeros(2), stream="object")
    p = forward(m, np.array([1.0]))
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_no_overflow():
    m = SoftmaxModel(W=np.array([[1e4], [-1e4]]), b=np.zeros(2),
                     stream="object")
    p = forward(m, np.array([1.0]))
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0)


def test_forward_dimension_check():
    m = init_model(3, 4, "object")
    with pytest.raises(ValueError, match="dimension"):
        forward(m, np.zeros(5))
    with pytest.raises(ValueError, match="dimension"):
        forward(m, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="dimension"):
        forward(m, np.zeros((2, 2, 4)))


def test_forward_matrix_rows_match_vectors():
    nprng = np.random.default_rng(6)
    m = SoftmaxModel(W=nprng.standard_normal((5, 3)),
                     b=nprng.standard_normal(5), stream="object")
    X = 10 * nprng.standard_normal((20, 3))
    P = forward(m, X)
    assert P.shape == (20, 5)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    for x, p in zip(X, P):
        np.testing.assert_allclose(forward(m, x), p, rtol=1e-12, atol=1e-15)


def test_stream_matrix_rows_and_missing_stream():
    t = table([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    X = t.stream("object")
    assert X.dtype == np.float64 and X.flags.c_contiguous
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError,
                       match="record r0: missing features for stream 'scene'"):
        t.stream("scene")


def test_missing_stream_rejected():
    t = table([[0.0, 0.0], [1.0, 1.0]], [0, 1])
    with pytest.raises(ValueError,
                       match="record r0: missing features for stream 'scene'"):
        train(init_model(2, 2, "scene"), t, Schedule(batch_size=2))


def test_accuracy_counts_argmax_hits():
    m = SoftmaxModel(W=np.array([[1.0], [-1.0]]), b=np.zeros(2),
                     stream="object")
    t = table([[1.0], [-1.0], [2.0], [-2.0]], [0, 1, 1, -1])
    assert accuracy(m, t) == 0.5


# ---------------------------------------------------------------------------
# loss and gradients


def test_zero_weights_zero_everything():
    m = init_model(2, 2, "object")
    loss, gW, gb = loss_grad(m, [[1.0, 2.0], [0.0, 1.0]], [0, 1], [0.0, 0.0])
    assert loss == 0.0
    assert not gW.any() and not gb.any()


def test_zero_model_loss_is_log_n():
    X, y = random_batch(random.Random(4), 7, 5, 12)
    m = init_model(7, 5, "object")
    loss, _, _ = loss_grad(m, X, y, np.ones(12))
    assert loss == pytest.approx(math.log(7), abs=1e-12)


def test_weight_scale_invariance():
    rng = random.Random(11)
    X, y = random_batch(rng, 4, 6, 10)
    m = SoftmaxModel(W=np.random.default_rng(1).standard_normal((4, 6)),
                     b=np.zeros(4), stream="object")
    w = np.abs(np.random.default_rng(2).standard_normal(10))
    l1, gW1, gb1 = loss_grad(m, X, y, w)
    l2, gW2, gb2 = loss_grad(m, X, y, 3.5 * w)
    assert l1 == pytest.approx(l2, rel=1e-12)
    np.testing.assert_allclose(gW1, gW2, rtol=1e-12)
    np.testing.assert_allclose(gb1, gb2, rtol=1e-12)


def test_unlabeled_record_rejected():
    m = init_model(2, 2, "object")
    with pytest.raises(ValueError, match="unlabeled"):
        loss_grad(m, np.zeros((1, 2)), [-1], [1.0])
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        loss_grad(m, np.zeros((1, 2)), [2], [1.0])
    t = table([[0.0, 0.0], [1.0, 1.0]], [0, -1])
    with pytest.raises(ValueError, match="unlabeled record"):
        train(m, t, Schedule(batch_size=2, domain_ratio=1.0))


def test_negative_weight_rejected():
    m = init_model(2, 2, "object")
    with pytest.raises(ValueError):
        loss_grad(m, np.zeros((1, 2)), [0], [-1.0])


def test_precomputed_scores_give_the_same_step():
    X, y = random_batch(random.Random(12), 4, 3, 9)
    m = SoftmaxModel(W=np.random.default_rng(3).standard_normal((4, 3)),
                     b=np.zeros(4), stream="object")
    w = np.linspace(0.0, 1.0, 9)
    plain = loss_grad(m, X, y, w)
    given = loss_grad(m, X, y, w, forward(m, X))
    assert plain[0] == given[0]
    np.testing.assert_array_equal(plain[1], given[1])
    np.testing.assert_array_equal(plain[2], given[2])


def test_gradients_match_finite_differences():
    rng = random.Random(123)
    nprng = np.random.default_rng(123)
    for _ in range(5):
        n, d, size = rng.randint(2, 5), rng.randint(1, 6), rng.randint(2, 8)
        X, y = random_batch(rng, n, d, size)
        m = SoftmaxModel(W=nprng.standard_normal((n, d)),
                         b=nprng.standard_normal(n), stream="object")
        w = np.abs(nprng.standard_normal(size)) + 0.01
        _, gW, gb = loss_grad(m, X, y, w)
        fW, fb = finite_difference_grads(m, X, y, w)
        np.testing.assert_allclose(gW, fW, atol=1e-7)
        np.testing.assert_allclose(gb, fb, atol=1e-7)


# ---------------------------------------------------------------------------
# schedules and training


@pytest.mark.parametrize("kwargs, message", [
    (dict(decay_every=0), "decay_every must be >= 1, got 0"),
    (dict(decay_factor=0.0), "decay_factor must be > 0, got 0.0"),
    (dict(decay_factor=-10.0), "decay_factor must be > 0, got -10.0"),
    (dict(total_epochs=-1), "total_epochs must be >= 0, got -1"),
])
def test_schedule_rejects_what_its_loop_cannot_run(kwargs, message):
    """``lr_at`` divides by ``decay_factor ** (e // decay_every)``, and a
    negative epoch count trains nothing, so these raise at construction."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Schedule(**kwargs)
    assert Schedule(total_epochs=0).total_epochs == 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(batch_size=1), "batch_size must be >= 2, got 1"),
    (dict(batch_size=0), "batch_size must be >= 2, got 0"),
    (dict(domain_ratio=1.5), r"domain_ratio must be in \[0, 1\], got 1.5"),
    (dict(domain_ratio=-0.5), r"domain_ratio must be in \[0, 1\], got -0.5"),
    (dict(initial_lr=-1.0), "initial_lr must be >= 0, got -1.0"),
    (dict(momentum=-2.0), "momentum must be >= 0, got -2.0"),
    (dict(weight_decay=-1e-4), "weight_decay must be >= 0, got -0.0001"),
])
def test_schedule_rejects_batches_and_steps_no_run_means(kwargs, message):
    """``stratified_batches`` takes these from the schedule, and a negative
    step size, momentum or weight decay climbs the loss, so these raise at
    construction too; zero is allowed."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Schedule(**kwargs)
    assert Schedule(initial_lr=0.0, momentum=0.0, weight_decay=0.0,
                    domain_ratio=0.0, batch_size=2).batch_size == 2


def test_step_decay_values():
    s = Schedule(initial_lr=0.01, decay_factor=10.0, decay_every=5,
                 total_epochs=12)
    for e in range(5):
        assert s.lr_at(e) == pytest.approx(0.01)
    for e in range(5, 10):
        assert s.lr_at(e) == pytest.approx(0.001)
    for e in (10, 11):
        assert s.lr_at(e) == pytest.approx(0.0001)


def test_separable_blobs_train_above_95():
    train_set, val_set = noisy_web_split(
        2, 400, 200, 8, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=5, separation=4.0, mixed_domains=True)
    sched = Schedule(total_epochs=5, batch_size=32, seed=5, initial_lr=0.1)
    result = train(init_model(2, 8, "object"), train_set, sched,
                   validation=val_set)
    assert result.val_accuracy[-1] > 0.95
    assert len(result.val_accuracy) == 5


def test_training_deterministic():
    train_set, _ = noisy_web_split(
        3, 120, 0, 6, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=2, mixed_domains=True)
    sched = Schedule(total_epochs=3, batch_size=16, seed=7)
    m1 = train(init_model(3, 6, "object"), train_set, sched).model
    m2 = train(init_model(3, 6, "object"), train_set, sched).model
    assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)


def test_loss_non_increasing_full_batch():
    train_set, _ = noisy_web_split(
        3, 90, 0, 6, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=3, separation=2.0)
    sched = Schedule(total_epochs=8, batch_size=90, seed=0, initial_lr=0.05,
                     domain_ratio=1.0)
    m = init_model(3, 6, "object")
    X, y = train_set.stream("object"), train_set.label
    losses = []
    for epoch in range(sched.total_epochs):
        loss, gW, gb = loss_grad(m, X, y, np.ones(len(y)))
        losses.append(loss)
        m.W -= sched.lr_at(epoch) * gW
        m.b -= sched.lr_at(epoch) * gb
    assert all(b <= a + 1e-3 for a, b in zip(losses, losses[1:]))


def test_momentum_and_weight_decay_match_a_hand_loop():
    train_set, _ = noisy_web_split(
        3, 60, 0, 4, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=4, mixed_domains=True)
    sched = Schedule(total_epochs=3, batch_size=16, seed=3, initial_lr=0.1,
                     decay_every=2, momentum=0.9, weight_decay=0.01)
    got = train(init_model(3, 4, "object"), train_set, sched).model

    m = init_model(3, 4, "object")
    vW, vb = np.zeros_like(m.W), np.zeros_like(m.b)
    X, y = train_set.stream("object"), train_set.label
    for epoch in range(sched.total_epochs):
        for idx in stratified_batches(train_set.domain, sched.batch_size,
                                      sched.domain_ratio,
                                      seed=sched.seed + epoch):
            _, gW, gb = loss_grad(m, X[idx], y[idx], np.ones(len(idx)))
            vW = sched.momentum * vW + (gW + sched.weight_decay * m.W)
            vb = sched.momentum * vb + (gb + sched.weight_decay * m.b)
            m.W -= sched.lr_at(epoch) * vW
            m.b -= sched.lr_at(epoch) * vb
    assert np.array_equal(got.W, m.W) and np.array_equal(got.b, m.b)
    plain = train(init_model(3, 4, "object"), train_set,
                  Schedule(total_epochs=3, batch_size=16, seed=3,
                           initial_lr=0.1, decay_every=2)).model
    assert not np.allclose(plain.W, m.W)


def test_accuracy_empty_is_zero():
    assert accuracy(init_model(2, 2, "object"), table(np.zeros((0, 2)), [])) == 0.0


# ---------------------------------------------------------------------------
# model files


def test_save_load_forward_identical(tmp_path):
    nprng = np.random.default_rng(8)
    m = SoftmaxModel(W=nprng.standard_normal((4, 7)),
                     b=nprng.standard_normal(4), stream="scene")
    path = tmp_path / "m.lusm"
    save_model(m, path)
    again = load_model(path)
    assert again.stream == "scene"
    x = nprng.standard_normal(7)
    np.testing.assert_array_equal(forward(m, x), forward(again, x))


def test_load_truncated(tmp_path):
    m = init_model(3, 3, "object")
    path = tmp_path / "m.lusm"
    save_model(m, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ModelIOError, match="truncated"):
        load_model(path)


def test_load_cut_anywhere_or_extended(tmp_path):
    nprng = np.random.default_rng(9)
    m = SoftmaxModel(W=nprng.standard_normal((3, 2)),
                     b=nprng.standard_normal(3), stream="scène")
    path = tmp_path / "m.lusm"
    save_model(m, path)
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(ModelIOError, match="truncated|magic"):
            load_model(path)
    path.write_bytes(whole + b"\x00")
    with pytest.raises(ModelIOError, match="1 trailing bytes"):
        load_model(path)


def header(n, d, name: bytes) -> bytes:
    return MODEL_MAGIC + struct.pack("<III", n, d, len(name)) + name


@st.composite
def models(draw):
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    values = st.floats(allow_nan=False, width=64)
    return SoftmaxModel(
        W=np.array(draw(st.lists(values, min_size=n * d, max_size=n * d)),
                   dtype=np.float64).reshape(n, d),
        b=np.array(draw(st.lists(values, min_size=n, max_size=n)),
                   dtype=np.float64),
        stream=draw(st.text(max_size=4)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(models())
def test_model_file_round_trip_exact_and_every_prefix_rejected(tmp_path, m):
    path = tmp_path / "m.lusm"
    save_model(m, path)
    whole = path.read_bytes()
    again = load_model(path)
    assert again.stream == m.stream
    assert again.W.tobytes() == m.W.tobytes() and again.W.shape == m.W.shape
    assert again.b.tobytes() == m.b.tobytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(ModelIOError):
            load_model(path)


def test_failed_save_leaves_the_earlier_model_whole(tmp_path):
    path = tmp_path / "m.lusm"
    save_model(init_model(3, 2, "object"), path)
    whole = path.read_bytes()
    # the header goes out before the weights fail to convert
    bad = SoftmaxModel(W=np.array([["x", "y"], ["z", "w"]]), b=np.zeros(2),
                       stream="object")
    with pytest.raises(ValueError):
        save_model(bad, path)
    assert path.read_bytes() == whole
    assert [p.name for p in tmp_path.iterdir()] == ["m.lusm"]


def test_load_rejects_stream_name_not_utf8(tmp_path):
    path = tmp_path / "m.lusm"
    path.write_bytes(header(2, 1, b"\xff\xfe") + bytes(8 * 4))
    with pytest.raises(ModelIOError, match="UTF-8"):
        load_model(path)


@pytest.mark.parametrize("n,d", [(0, 3), (1, 3), (3, 0), (0, 0)])
def test_load_rejects_shapes_init_model_rejects(tmp_path, n, d):
    path = tmp_path / "m.lusm"
    path.write_bytes(header(n, d, b"object") + bytes(8 * (n * d + n)))
    with pytest.raises(ModelIOError, match="shape"):
        load_model(path)
    with pytest.raises(ValueError):
        init_model(n, d, "object")


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "m.lusm"
    path.write_bytes(b"NOPE!" + b"\x00" * 32)
    with pytest.raises(ModelIOError, match="LUSM1"):
        load_model(path)
