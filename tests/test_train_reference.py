"""train against the batched training loop it replaced, bit for bit.

The reference below is the loop as it stood before the key-major softmax:
separate q, k and v matmuls, separate matmuls for their weight gradients, a
loss computed at every step and the row-major two-line softmax. At window
size k = 6 every row has fewer than 8 entries, so the two softmaxes sum in
the same order and train must reproduce the reference exactly: the same
history and the same final params, bit for bit.
"""

import math

import numpy as np
import pytest

from isoattn.attention import equivariance_report, project
from isoattn.groups import from_descriptor
from isoattn.irreps import projector_set
from isoattn.layer import EVAL_CHUNK, VARIANTS, WEIGHT_NAMES, TrainConfig, \
    WindowAttentionLayer, train
from isoattn.numerics import Rng, softmax_rows_vjp
from isoattn.synth import DatasetSpec, make_dataset

MIRROR6 = projector_set(from_descriptor("mirror:6"))


def ref_softmax_rows(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_bce(z, y):
    z = z[..., 0]
    t = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - z * y + np.log1p(t)
    sigmoid = np.where(z >= 0.0, 1.0, t) / (1.0 + t)
    return loss, (sigmoid - y)[..., None]


def ref_project(lay, x):
    return project(lay.projectors.stack if lay.variant == "pre" else None, x)


def copy_softmax_rows(m):
    # softmax_rows as it stood before the key-major kernel: a transposed copy
    # of the scores, normalised column by column.
    t = m.reshape(-1, m.shape[-1]).T.copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= t.sum(axis=0)
    return np.ascontiguousarray(t.T).reshape(m.shape)


def ref_forward(lay, px, softmax=ref_softmax_rows):
    qp, kp, vp = px @ lay.w_q, px @ lay.w_k, px @ lay.w_v
    wts = softmax((qp @ kp.swapaxes(-1, -2)) / math.sqrt(qp.shape[-1]))
    y = (wts @ vp).sum(axis=1)
    kwin = lay.window
    rows = lay.projectors.stack.reshape(len(lay.projectors.stack), -1) / kwin
    pooled = y.sum(axis=1) / kwin
    energy = (y @ y.swapaxes(1, 2)).reshape(len(y), -1) @ rows.T
    logits = pooled @ lay.w_out + energy @ lay.w_energy
    return logits, (px, qp, kp, vp, wts, y, pooled, energy, rows)


def ref_backward(lay, state, dlogits):
    px, qp, kp, vp, wts, y, pooled, energy, rows = state
    b, _, kwin, d = px.shape
    dpooled = dlogits @ lay.w_out.T
    denergy = dlogits @ lay.w_energy.T
    dy = 2.0 * (denergy @ rows).reshape(b, kwin, kwin) @ y + dpooled[:, None, :] / kwin
    dout = dy[:, None]
    ds = softmax_rows_vjp(wts, dout @ vp.swapaxes(-1, -2)) / math.sqrt(d)
    dqp, dkp, dvp = ds @ kp, ds.swapaxes(-1, -2) @ qp, wts.swapaxes(-1, -2) @ dout
    pxt = px.reshape(-1, d).T
    grads = {"w_q": pxt @ dqp.reshape(-1, d), "w_k": pxt @ dkp.reshape(-1, d),
             "w_v": pxt @ dvp.reshape(-1, d), "w_out": pooled.T @ dlogits,
             "w_energy": energy.T @ dlogits}
    return np.concatenate([grads[name].ravel() for name in WEIGHT_NAMES])


def ref_train(lay, train_data, val_data, cfg, softmax=ref_softmax_rows):
    train_x = np.stack([w.features for w in train_data])
    train_y = np.array([w.label for w in train_data])
    val_x = np.stack([w.features for w in val_data])
    val_y = np.array([w.label for w in val_data])
    train_px = ref_project(lay, train_x)
    n, params = len(train_x), lay.params
    shuffle_rng = Rng(cfg.seed).derive(1)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            logits, state = ref_forward(lay, train_px[batch], softmax)
            losses, dlogits = ref_bce(logits, train_y[batch])
            epoch_losses.append(losses)
            params -= cfg.learning_rate * ref_backward(lay, state, dlogits) / len(batch)
        train_loss = math.fsum(np.concatenate(epoch_losses)) / n
        val_losses, correct = [], 0
        for start in range(0, len(val_x), EVAL_CHUNK):
            chunk = slice(start, start + EVAL_CHUNK)
            logits, _ = ref_forward(lay, ref_project(lay, val_x[chunk]), softmax)
            val_losses.append(ref_bce(logits, val_y[chunk])[0])
            correct += int(((logits[:, 0] > 0.0) == (val_y[chunk] == 1)).sum())
        report = equivariance_report(lambda x: ref_forward(lay, ref_project(lay, x), softmax)[1][5],
                                     lay.projectors.group, lay.feature_dim,
                                     cfg.tracker_trials, Rng(cfg.seed).derive(1000 + epoch))
        history.append({"epoch": epoch,
                        "train_loss": train_loss,
                        "val_loss": math.fsum(np.concatenate(val_losses)) / len(val_x),
                        "val_acc": correct / len(val_x),
                        "equivariance_max": report.max_error})
    return history


# With 88 training windows: batch 1, batch 7 (a last step of 4), batch 16 (a
# last step of 8), batch 29 (a last step of one window, whose gradient train
# computes as a scalar), one step per epoch (88) and a batch larger than the
# split (100). train keeps one workspace for its full batches and one for the
# shorter last batch across all its steps and epochs.
BATCH_SIZES = [1, 7, 16, 29, 88, 100]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_train_is_the_reference_loop_bit_for_bit(variant, batch_size):
    ds = make_dataset(DatasetSpec(task="palindrome", n=110, k=6, noise_p=0.1, seed=41))
    cfg = TrainConfig(epochs=3, learning_rate=0.3, seed=42, batch_size=batch_size)
    lay, ref = (WindowAttentionLayer.random(MIRROR6, 4, 1, variant, Rng(43)) for _ in range(2))
    history = train(lay, ds.train, ds.val, cfg)
    assert history == ref_train(ref, ds.train, ds.val, cfg)
    assert np.array_equal(lay.params, ref.params)
    assert np.any(lay.w_energy != 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("k", [9, 12])
def test_train_on_wide_windows_is_the_transposed_copy_softmax_loop(k, variant, batch_size):
    # Rows of 9 and 12 entries tell a left-to-right sum from numpy's pairwise
    # last-axis sum, so the reference softmax here is the transposed-copy one
    # train's kernel reproduces. 88 training windows: batch 16 ends ragged.
    ds = make_dataset(DatasetSpec(task="palindrome", n=110, k=k, noise_p=0.1, seed=44))
    ps = projector_set(from_descriptor(f"mirror:{k}"))
    cfg = TrainConfig(epochs=3, learning_rate=0.3, seed=45, batch_size=batch_size)
    lay, ref = (WindowAttentionLayer.random(ps, 4, 1, variant, Rng(46)) for _ in range(2))
    history = train(lay, ds.train, ds.val, cfg)
    assert history == ref_train(ref, ds.train, ds.val, cfg, softmax=copy_softmax_rows)
    assert np.array_equal(lay.params, ref.params)
    assert np.any(lay.w_energy != 0.0)
