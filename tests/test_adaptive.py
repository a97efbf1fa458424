import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from landuse.adaptive import (HARD, SOFT, GateConfig, adaptive_finetune,
                              default_finetune_schedule, discard_probability,
                              gate_weights)
from landuse.classifier import Schedule, init_model
from landuse.synth import noisy_web_split


def distribution(values):
    y = np.asarray(values, dtype=np.float64)
    return y / y.sum()


# ---------------------------------------------------------------------------
# discard probability


def test_uniform_gives_one():
    for n in (2, 5, 45):
        assert discard_probability(np.full(n, 1 / n)) == pytest.approx(1.0)


def test_one_hot_45_gives_zero():
    y = np.zeros(45)
    y[7] = 1.0
    assert discard_probability(y) == 0.0


def test_worked_example_n5():
    y = [0.4, 0.15, 0.15, 0.15, 0.15]
    # diff = 0.2, p = 2 - e^0.2
    assert discard_probability(y) == pytest.approx(2 - math.exp(0.2), abs=1e-12)
    assert discard_probability(y) == pytest.approx(0.778597, abs=1e-6)


def test_zero_exactly_at_ln2():
    n = 45
    rest = (1 - (1 / n + math.log(2))) / (n - 1)
    y = np.full(n, rest)
    y[0] = 1 / n + math.log(2)
    assert discard_probability(y) == pytest.approx(0.0, abs=1e-12)


def test_rejects_non_distribution():
    with pytest.raises(ValueError):
        discard_probability([0.5, 0.6])
    with pytest.raises(ValueError):
        discard_probability([-0.1, 1.1])
    with pytest.raises(ValueError):
        discard_probability([])


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2,
                max_size=20))
def test_permutation_invariant(values):
    y = distribution(values)
    p = discard_probability(y)
    assert discard_probability(y[::-1].copy()) == pytest.approx(p)
    assert 0.0 <= p <= 1.0


def test_monotone_in_max():
    # growing the max at fixed n can only lower p
    n = 10
    last = 1.0
    for top in np.linspace(1 / n, 0.99, 40):
        y = np.full(n, (1 - top) / (n - 1))
        y[0] = top
        p = discard_probability(y)
        assert p <= last + 1e-12
        last = p


# ---------------------------------------------------------------------------
# gating


def test_hard_gate_examples():
    cfg = GateConfig(mode=HARD, threshold=0.5)
    confident = [0.8, 0.05, 0.05, 0.05, 0.05]
    assert gate_weights(confident, cfg) == 1.0
    assert discard_probability(confident) == pytest.approx(2 - math.exp(0.6),
                                                           abs=1e-12)
    assert gate_weights(np.full(5, 0.2), cfg) == 0.0
    assert gate_weights([0.4, 0.15, 0.15, 0.15, 0.15], cfg) == 0.0


def test_soft_gate_is_one_minus_p():
    cfg = GateConfig(mode=SOFT)
    y = [0.4, 0.15, 0.15, 0.15, 0.15]
    weight = gate_weights(y, cfg)
    assert weight == pytest.approx(1.0 - discard_probability(y), abs=1e-12)
    assert weight == pytest.approx(0.22140, abs=1e-5)
    assert gate_weights(np.full(5, 0.2), cfg) == pytest.approx(0.0)


def test_rows_gated_like_single_vectors():
    rng = np.random.default_rng(5)
    Y = rng.dirichlet(np.full(6, 0.3), size=40)
    p = discard_probability(Y)
    assert p.shape == (40,)
    for mode in (HARD, SOFT):
        cfg = GateConfig(mode=mode)
        w = gate_weights(Y, cfg)
        assert w.shape == (40,)
        for k, y in enumerate(Y):
            assert p[k] == discard_probability(y)
            assert w[k] == gate_weights(y, cfg)
    assert 0 < gate_weights(Y, GateConfig(mode=HARD)).sum() < 40


def test_rejects_matrix_with_one_bad_row():
    Y = np.full((3, 4), 0.25)
    Y[1] = [0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError, match="distribution"):
        discard_probability(Y)
    with pytest.raises(ValueError, match="distribution"):
        gate_weights(Y, GateConfig())


def test_keep_condition_closed_form():
    # hard keep at 0.5 is exactly max(y) > 1/n + ln 1.5
    cfg = GateConfig(mode=HARD, threshold=0.5)
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(2, 46))
        y = rng.dirichlet(np.ones(n))
        kept = gate_weights(y, cfg) == 1.0
        assert kept == (y.max() > 1 / n + math.log(1.5))


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(mode="other")
    with pytest.raises(ValueError):
        GateConfig(threshold=1.5)


def test_default_schedule_values():
    s = default_finetune_schedule()
    assert s.initial_lr == pytest.approx(1e-5)
    assert s.decay_every == 1 and s.total_epochs == 4


# ---------------------------------------------------------------------------
# fine-tuning


def test_threshold_zero_freezes_model():
    train_set, _ = noisy_web_split(
        3, 60, 0, 4, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=1, mixed_domains=True)
    m = init_model(3, 4, "object")
    m.W += 0.5
    cfg = GateConfig(mode=HARD, threshold=0.0,
                     schedule=Schedule(total_epochs=2, batch_size=10, seed=0))
    out = adaptive_finetune(m, train_set, cfg).model
    np.testing.assert_array_equal(out.W, m.W)
    np.testing.assert_array_equal(out.b, m.b)


def test_finetune_deterministic():
    train_set, _ = noisy_web_split(
        3, 90, 0, 4, noise_rate=0.0, core_spread=1.0, faded_fraction=0.0,
        feature_scale=1.0, seed=4, separation=4.0, mixed_domains=True)
    sched = Schedule(initial_lr=0.05, total_epochs=3, batch_size=10, seed=3)
    base = init_model(3, 4, "object")
    cfg = GateConfig(mode=SOFT, schedule=sched)
    m1 = adaptive_finetune(base, train_set, cfg).model
    m2 = adaptive_finetune(base, train_set, cfg).model
    assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)
