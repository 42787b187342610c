"""Trainable window-attention layer: forward, gradients, SGD loop."""

import json
import math

import numpy as np
import pytest

from isoattn.groups import mirror_group, permute_rows, trivial_group
from isoattn.irreps import projector_set
from isoattn.layer import (
    TrainConfig,
    VARIANTS,
    WEIGHT_NAMES,
    WindowAttentionLayer,
    finite_diff_check,
    loss_bce,
    train,
)
from isoattn.numerics import Rng, frobenius_sq, rand_matrix
from isoattn.synth import DatasetSpec, gen_palindrome, make_dataset

Z2_K6 = projector_set(mirror_group(6))


def small_layer(variant="pre", seed=0, window_set=None, dim=4):
    ps = window_set if window_set is not None else Z2_K6
    return WindowAttentionLayer.random(ps, dim, 1, variant, Rng(seed))


def train_accuracy(layer, windows):
    correct = 0
    for w in windows:
        logits, _ = layer.forward(w.features)
        correct += int((logits[0] > 0.0) == bool(w.label))
    return correct / len(windows)


def test_zero_weights_zero_logits():
    zeros = np.zeros((4, 4))
    lay = WindowAttentionLayer(Z2_K6, zeros, zeros, zeros, np.zeros((4, 1)), "pre")
    logits, _ = lay.forward(rand_matrix(Rng(1), 6, 4, 1.0))
    assert logits.shape == (1,)
    assert logits[0] == 0.0


def test_baseline_equals_degenerate_projector_set():
    ps1 = projector_set(trivial_group(5))
    rng = Rng(2)
    weights = [rand_matrix(rng, 3, 3, 1.0) for _ in range(3)]
    w_out = rand_matrix(rng, 3, 1, 1.0)
    base = WindowAttentionLayer(ps1, *weights, w_out, "baseline")
    pre = WindowAttentionLayer(ps1, *weights, w_out, "pre")
    x = rand_matrix(Rng(3), 5, 3, 1.0)
    lb, _ = base.forward(x)
    lp, _ = pre.forward(x)
    assert abs(lb[0] - lp[0]) < 1e-12


def test_pre_logits_invariant_under_reversal():
    lay = small_layer("pre", seed=4)
    x = rand_matrix(Rng(5), 6, 4, 1.0)
    flipped = x[::-1].copy()
    a, _ = lay.forward(x)
    b, _ = lay.forward(flipped)
    assert abs(a[0] - b[0]) < 1e-12


def test_logits_invariant_all_variants_all_elements():
    g = mirror_group(6)
    x = rand_matrix(Rng(6), 6, 4, 1.0)
    for variant in VARIANTS:
        lay = small_layer(variant, seed=7)
        base, _ = lay.forward(x)
        for h in g.perm:
            moved, _ = lay.forward(permute_rows(h, x))
            assert abs(moved[0] - base[0]) < 1e-10


def with_energy_weights(lay, seed):
    lay.w_energy[...] = rand_matrix(Rng(seed), *lay.w_energy.shape, 1.0)
    return lay


def test_zero_w_energy_logits_are_pooled_readout():
    x = rand_matrix(Rng(30), 6, 4, 1.0)
    for variant in VARIANTS:
        lay = small_layer(variant, seed=31)
        assert not lay.w_energy.any()
        logits, cache = lay.forward(x)
        assert np.array_equal(logits, cache["pooled"] @ lay.w_out)


def test_w_energy_shape_validation():
    lay = small_layer()
    with pytest.raises(ValueError):
        WindowAttentionLayer(Z2_K6, lay.w_q, lay.w_k, lay.w_v, lay.w_out, "pre",
                             np.zeros((3, 1)))


@pytest.mark.parametrize("feature_dim, n_classes", [(0, 1), (4, 0), (-1, 1)])
def test_random_rejects_empty_dimensions(feature_dim, n_classes):
    with pytest.raises(ValueError, match="^feature_dim and n_classes must be >= 1"):
        WindowAttentionLayer.random(Z2_K6, feature_dim, n_classes, "pre", Rng(0))


def test_sign_energy_zero_on_palindromes_all_variants():
    sign = [item.irrep.label for item in Z2_K6.items].index("sign")
    for seed in range(20):
        x = gen_palindrome(6, 4, Rng(32 + seed)).features
        for variant in VARIANTS:
            lay = with_energy_weights(small_layer(variant, seed=seed), 60 + seed)
            _, cache = lay.forward(x)
            assert cache["energy"][sign] == 0.0, (variant, seed)
            assert cache["energy"][1 - sign] > 0.0


def test_energy_readout_matches_norms_and_is_invariant():
    g = mirror_group(6)
    x = rand_matrix(Rng(33), 6, 4, 1.0)
    for variant in VARIANTS:
        lay = with_energy_weights(small_layer(variant, seed=34), 35)
        base, cache = lay.forward(x)
        norms = [frobenius_sq(item.projector @ cache["y"]) / 6 for item in Z2_K6.items]
        assert np.allclose(cache["energy"], norms, rtol=1e-12, atol=0.0)
        assert abs(cache["energy"] @ lay.w_energy[:, 0]) > 1e-3
        for h in g.perm:
            moved, _ = lay.forward(permute_rows(h, x))
            assert abs(moved[0] - base[0]) < 1e-10


def test_parameter_shape_parity_across_variants():
    shapes = set()
    for variant in VARIANTS:
        lay = small_layer(variant, seed=8)
        shapes.add((lay.w_q.shape, lay.w_k.shape, lay.w_v.shape, lay.w_out.shape,
                    lay.w_energy.shape))
    assert len(shapes) == 1


def test_weights_are_views_into_the_flat_buffer():
    lay = small_layer("pre", seed=40)
    x = rand_matrix(Rng(41), 6, 4, 1.0)
    before, _ = lay.forward(x)
    assert np.array_equal(np.concatenate([getattr(lay, n).ravel() for n in WEIGHT_NAMES]),
                          lay.params)
    lay.w_out[...] *= 2.0
    assert np.array_equal(lay.params[-lay.w_energy.size - lay.w_out.size:-lay.w_energy.size],
                          lay.w_out.ravel())
    after, _ = lay.forward(x)
    assert after[0] == 2.0 * before[0]
    lay.params[...] = 0.0
    assert lay.forward(x)[0][0] == 0.0


def test_weights_cannot_be_rebound():
    lay = small_layer("pre", seed=42)
    for name in WEIGHT_NAMES:
        with pytest.raises(AttributeError):
            setattr(lay, name, np.zeros_like(getattr(lay, name)))
    with pytest.raises(AttributeError):
        lay.params = np.zeros_like(lay.params)


def test_backward_gradients_are_slices_of_one_flat_gradient():
    lay = with_energy_weights(small_layer("pre", seed=43), 44)
    xs = rand_matrix(Rng(45), 18, 4, 1.0).reshape(3, 6, 4)
    logits, cache = lay.forward(xs)
    _, dlogits = loss_bce(logits, np.array([1, 0, 1]))
    grads = lay.backward(cache, dlogits)
    flat = grads["w_q"].base
    assert flat.shape == lay.params.shape
    start = 0
    for name in WEIGHT_NAMES:
        g = grads[name]
        assert g.shape == getattr(lay, name).shape
        assert g.base is flat
        assert np.array_equal(g.ravel(), flat[start:start + g.size])
        start += g.size
    assert start == flat.size


def test_loss_bce_closed_forms():
    loss, grad = loss_bce(np.array([0.0]), 1)
    assert abs(loss - math.log(2.0)) < 1e-15
    _, grad0 = loss_bce(np.array([0.0]), 0)
    assert abs(grad0[0] - 0.5) < 1e-15
    big, _ = loss_bce(np.array([40.0]), 1)
    assert 0.0 <= big < 1e-15
    neg, _ = loss_bce(np.array([-40.0]), 0)
    assert 0.0 <= neg < 1e-15
    assert math.isfinite(loss_bce(np.array([700.0]), 0)[0])


def test_loss_bce_validation():
    with pytest.raises(ValueError):
        loss_bce(np.array([0.0, 1.0]), 1)
    with pytest.raises(ValueError):
        loss_bce(np.array([0.0]), 2)


def test_backward_zero_upstream():
    lay = small_layer("pre", seed=9)
    x = rand_matrix(Rng(10), 6, 4, 1.0)
    _, cache = lay.forward(x)
    grads = lay.backward(cache, np.zeros(1))
    for name in ("w_q", "w_k", "w_v", "w_out"):
        assert np.abs(grads[name]).max() == 0.0


def test_backward_w_out_is_outer_product():
    lay = small_layer("post", seed=11)
    x = rand_matrix(Rng(12), 6, 4, 1.0)
    _, cache = lay.forward(x)
    dlogits = np.array([0.7])
    grads = lay.backward(cache, dlogits)
    expected = np.outer(cache["pooled"], dlogits)
    assert np.abs(grads["w_out"] - expected).max() < 1e-12


def test_backward_rejects_stale_cache():
    lay_a = small_layer("pre", seed=13)
    lay_b = small_layer("pre", seed=14)
    x = rand_matrix(Rng(15), 6, 4, 1.0)
    _, cache = lay_a.forward(x)
    with pytest.raises(ValueError):
        lay_b.backward(cache, np.ones(1))


def test_finite_diff_small_cases():
    ps = projector_set(mirror_group(4))
    x = rand_matrix(Rng(16), 4, 6, 1.0)
    for variant in VARIANTS:
        lay = WindowAttentionLayer.random(ps, 6, 1, variant, Rng(17))
        worst = finite_diff_check(lay, x, 1, eps=1e-5)
        assert worst < 1e-5, (variant, worst)


def test_finite_diff_eps_validation():
    lay = small_layer()
    x = rand_matrix(Rng(18), 6, 4, 1.0)
    with pytest.raises(ValueError):
        finite_diff_check(lay, x, 1, eps=1e-2)
    with pytest.raises(ValueError):
        finite_diff_check(lay, x, 1, eps=1e-9)


def test_finite_diff_catches_sign_flip():
    class BrokenLayer(WindowAttentionLayer):
        def backward(self, cache, dlogits):
            grads = super().backward(cache, dlogits)
            grads["w_q"] = -grads["w_q"]
            return grads

    ps = projector_set(mirror_group(4))
    lay = BrokenLayer.random(ps, 6, 1, "pre", Rng(19))
    x = rand_matrix(Rng(20), 4, 6, 1.0)
    assert finite_diff_check(lay, x, 1, eps=1e-5) > 0.1


def test_finite_diff_catches_energy_sign_flip():
    class BrokenLayer(WindowAttentionLayer):
        def backward(self, cache, dlogits):
            grads = super().backward(cache, dlogits)
            grads["w_energy"] = -grads["w_energy"]
            return grads

    ps = projector_set(mirror_group(4))
    lay = BrokenLayer.random(ps, 6, 1, "pre", Rng(19))
    x = rand_matrix(Rng(20), 4, 6, 1.0)
    assert finite_diff_check(lay, x, 1, eps=1e-5) > 0.1


def small_dataset():
    return make_dataset(DatasetSpec(task="palindrome", n=40, k=4, seed=21))


def test_train_zero_learning_rate_freezes_weights():
    ds = small_dataset()
    lay = WindowAttentionLayer.random(projector_set(mirror_group(4)), 4, 1,
                                      "pre", Rng(22))
    before = {n: getattr(lay, n).copy() for n in ("w_q", "w_k", "w_v", "w_out")}
    history = train(lay, ds.train, ds.val, TrainConfig(epochs=3, learning_rate=0.0,
                                                       seed=0))
    for name, val in before.items():
        assert np.array_equal(getattr(lay, name), val)
    losses = {row["train_loss"] for row in history}
    assert len(losses) == 1


def test_train_deterministic_histories():
    ds = small_dataset()
    cfg = TrainConfig(epochs=4, learning_rate=0.1, seed=5)
    hist = []
    for _ in range(2):
        lay = WindowAttentionLayer.random(projector_set(mirror_group(4)), 4, 1,
                                          "pre", Rng(23))
        hist.append(train(lay, ds.train, ds.val, cfg))
    assert json.dumps(hist[0]) == json.dumps(hist[1])


def test_train_history_fields_and_tracker():
    ds = small_dataset()
    lay = WindowAttentionLayer.random(projector_set(mirror_group(4)), 4, 1,
                                      "pre", Rng(24))
    history = train(lay, ds.train, ds.val, TrainConfig(epochs=2, learning_rate=0.05,
                                                       seed=1))
    assert [row["epoch"] for row in history] == [1, 2]
    for row in history:
        assert set(row) == {"epoch", "train_loss", "val_loss", "val_acc",
                            "equivariance_max"}
        assert row["equivariance_max"] < 1e-10


def test_train_aborts_on_divergence():
    ps = projector_set(mirror_group(2))
    zeros = np.zeros((2, 2))
    w_v = 20.0 * np.eye(2)
    w_out = np.full((2, 1), 1e308)
    lay = WindowAttentionLayer(ps, zeros, zeros, w_v, w_out, "baseline")
    sample = (np.eye(2), 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError):
            train(lay, [sample], [sample], TrainConfig(epochs=1, learning_rate=0.1,
                                                       seed=0))


def train_rejection(train_data, val_data, cfg=None):
    """The error train raises on bad data, checking it left the weights alone."""
    lay = WindowAttentionLayer.random(projector_set(mirror_group(4)), 4, 1, "pre", Rng(25))
    before = {name: getattr(lay, name).copy() for name in WEIGHT_NAMES}
    with pytest.raises(ValueError) as info:
        train(lay, train_data, val_data,
              cfg or TrainConfig(epochs=2, learning_rate=0.5, seed=3))
    for name, value in before.items():
        assert np.array_equal(getattr(lay, name), value), name
    return str(info.value)


def test_train_rejects_bad_label_before_any_update():
    ds = small_dataset()
    val = [(w.features, w.label) for w in ds.val]
    val[2] = (val[2][0], 2)
    message = train_rejection(ds.train, val)
    assert "validation label at index 2" in message
    train_data = [(w.features, w.label) for w in ds.train]
    train_data[5] = (train_data[5][0], -1)
    assert "train label at index 5" in train_rejection(train_data, ds.val)
    train_data[5] = (train_data[5][0], 0.5)
    assert "train label at index 5 is 0.5" in train_rejection(train_data, ds.val)


def test_train_rejects_non_finite_feature_before_any_update():
    ds = small_dataset()
    train_data = [(w.features.copy(), w.label) for w in ds.train]
    train_data[3][0][1, 2] = np.nan
    assert "train window at index 3" in train_rejection(train_data, ds.val)
    val = [(w.features.copy(), w.label) for w in ds.val]
    val[-1][0][0, 0] = np.inf
    assert f"validation window at index {len(val) - 1}" in train_rejection(ds.train, val)


def test_train_rejects_bad_window_shape_and_tracker_trials():
    ds = small_dataset()
    val = [(np.zeros((4, 5)), 0)]
    assert "validation windows must be 4x4" in train_rejection(ds.train, val)
    cfg = TrainConfig(epochs=1, learning_rate=0.5, seed=3, tracker_trials=0)
    assert "tracker_trials" in train_rejection(ds.train, ds.val, cfg)


def test_train_names_the_diverging_step():
    ds = small_dataset()
    lay = WindowAttentionLayer.random(projector_set(mirror_group(4)), 4, 1, "pre", Rng(26))
    with pytest.raises(RuntimeError, match=r"^train: loss diverged at epoch 1, step \d+ "):
        train(lay, ds.train, ds.val, TrainConfig(epochs=3, learning_rate=1e6, seed=4))


def test_train_noiseless_palindrome_desk_experiment():
    # Desk-scale run over the stated configuration: k=6, 400 windows, 50
    # epochs, learning rate 0.05, per-sample updates. Measured results are
    # recorded in the repository docs; the target threshold is asserted as
    # stated.
    ds = make_dataset(DatasetSpec(task="palindrome", n=400, k=6, noise_p=0.0,
                                  seed=0))
    lay = WindowAttentionLayer.random(Z2_K6, 4, 1, "pre", Rng(0).derive(2))
    cfg = TrainConfig(epochs=50, learning_rate=0.05, seed=0, batch_size=1,
                      task="palindrome", tracker_trials=1)
    train(lay, ds.train, ds.val, cfg)
    acc = train_accuracy(lay, ds.train)
    assert acc > 0.95, f"final train accuracy {acc:.4f}"
