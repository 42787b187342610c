"""The batched channel-attention kernel against the per-window reference.

The reference functions below are the per-window loops the library used
before the kernel existed: one window, one channel and one projector matmul
at a time. Every batched result must match them to within 1e-12, relative to
the size of the compared values. Stacked calls of the attention functions
and the stacked equivariance report must match their one-window calls
bit for bit.

A projector set's channels are the irreps that occur in the window action.
The full-stack path, which also attends on the zero projector of every
absent irrep, is kept here as a reference: the decompositions must match it
bit for bit on the channels that occur, and the layer to within 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoattn.attention import (ChannelAttention, attention, decompose_post, decompose_pre,
                               equivariance_report, project)
from isoattn.groups import from_descriptor, permute_rows
from isoattn.irreps import ProjectorSet, projector_set
from isoattn.layer import (
    VARIANTS,
    WEIGHT_NAMES,
    TrainConfig,
    WindowAttentionLayer,
    train,
)
from isoattn.metrics import activation_mapping
from isoattn.numerics import Rng, frobenius_sq, rand_matrix, softmax_rows, softmax_rows_vjp

TOL = 1e-12
DESCRIPTORS = ("mirror:6", "dihedral:4", "symmetric:4")
PROJECTORS = {desc: projector_set(from_descriptor(desc)) for desc in DESCRIPTORS}
BATCH_SIZES = (1, 5, 16)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert float(np.abs(actual - expected).max(initial=0.0)) <= TOL * scale


# ---------- per-window reference ----------

def ref_attention(q, k, v, p):
    qp, kp, vp = (q, k, v) if p is None else (p @ q, p @ k, p @ v)
    wts = softmax_rows((qp @ kp.T) / math.sqrt(q.shape[1]))
    return qp, kp, vp, wts, wts @ vp


def channel_items(ps):
    """The items of the irreps that occur, in item order: one per channel."""
    return [item for item in ps.items if item.multiplicity > 0]


def ref_projectors(lay):
    if lay.variant == "pre":
        return [item.projector for item in channel_items(lay.projectors)]
    return [None]


def ref_forward(lay, x):
    q, k, v = x @ lay.w_q, x @ lay.w_k, x @ lay.w_v
    y = np.zeros_like(v)
    channels = []
    for p in ref_projectors(lay):
        qp, kp, vp, wts, out = ref_attention(q, k, v, p)
        y = y + out
        channels.append((p, qp, kp, vp, wts))
    kwin = lay.window
    pooled = y.sum(axis=0) / kwin
    energy = np.array([((item.projector @ y) ** 2).sum() / kwin
                       for item in channel_items(lay.projectors)])
    logits = pooled @ lay.w_out + energy @ lay.w_energy
    return logits, {"x": x, "channels": channels, "y": y, "pooled": pooled,
                    "energy": energy}


def ref_backward(lay, cache, dlogits):
    kwin = lay.window
    scale = math.sqrt(lay.feature_dim)
    dpooled = lay.w_out @ dlogits
    denergy = lay.w_energy @ dlogits
    dy = dpooled / kwin + sum(2.0 * a * (item.projector @ cache["y"]) / kwin
                              for a, item in zip(denergy, channel_items(lay.projectors),
                                                 strict=True))
    dq = dk = dv = 0.0
    for p, qp, kp, vp, wts in cache["channels"]:
        ds = softmax_rows_vjp(wts, dy @ vp.T) / scale
        dqp, dkp, dvp = ds @ kp, ds.T @ qp, wts.T @ dy
        if p is not None:
            dqp, dkp, dvp = p @ dqp, p @ dkp, p @ dvp
        dq, dk, dv = dq + dqp, dk + dkp, dv + dvp
    x = cache["x"]
    return {"w_q": x.T @ dq, "w_k": x.T @ dk, "w_v": x.T @ dv,
            "w_out": np.outer(cache["pooled"], dlogits),
            "w_energy": np.outer(cache["energy"], dlogits)}


def ref_loss_bce(logits, label):
    z = float(logits[0])
    loss = max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))
    return loss, np.array([1.0 / (1.0 + math.exp(-z)) - label])


def ref_train(lay, samples, val, cfg):
    """The per-window SGD loop: gradients summed window by window."""
    shuffle_rng = Rng(cfg.seed).derive(1)
    history = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[start:start + cfg.batch_size]]
            sums = {name: 0.0 for name in WEIGHT_NAMES}
            for x, label in batch:
                logits, cache = ref_forward(lay, x)
                loss, dlogits = ref_loss_bce(logits, label)
                losses.append(loss)
                grads = ref_backward(lay, cache, dlogits)
                for name in WEIGHT_NAMES:
                    sums[name] = sums[name] + grads[name]
            for name in WEIGHT_NAMES:
                getattr(lay, name)[...] -= cfg.learning_rate * sums[name] / len(batch)
        val_losses = [ref_loss_bce(ref_forward(lay, x)[0], label)[0] for x, label in val]
        history.append((math.fsum(losses) / len(samples), math.fsum(val_losses) / len(val)))
    return history


def ref_equivariance_report(fn, g, dim, trials, rng):
    """The per-(x, h) loop: fn(action(h) x) and fn(x), one window each."""
    errors = []
    for _ in range(trials):
        x = rand_matrix(rng, g.degree, dim, 1.0)
        base = fn(x[None])[0]
        for h in g.perm:
            left = fn(permute_rows(h, x)[None])[0]
            errors.append(frobenius_sq(left - permute_rows(h, base)))
    return max(errors), float(np.mean(errors))


def ref_set_mass(lay, proj, windows):
    masses = []
    for x in windows:
        qp, kp = proj @ (x @ lay.w_q), proj @ (x @ lay.w_k)
        valid_rows = np.abs(qp).max(axis=1) > 1e-12
        valid_cols = np.abs(kp).max(axis=1) > 1e-12
        if not valid_rows.any() or not valid_cols.any():
            continue
        wts = softmax_rows((qp @ kp.T) / math.sqrt(lay.feature_dim))
        masses.append(float(wts[np.ix_(valid_rows, valid_cols)].sum(axis=1).mean()))
    return float(np.mean(masses)) if masses else None


# ---------- inputs ----------

def make_layer(desc, variant, dim, seed):
    rng = Rng(seed)
    lay = WindowAttentionLayer.random(PROJECTORS[desc], dim, 1, variant, rng)
    lay.w_energy[...] = rand_matrix(rng, *lay.w_energy.shape, 1.0)
    return lay


def make_windows(lay, count, seed):
    rng = Rng(seed).derive(1)
    return np.stack([rand_matrix(rng, lay.window, lay.feature_dim, 1.0)
                     for _ in range(count)])


cases = st.tuples(st.sampled_from(DESCRIPTORS), st.sampled_from(VARIANTS),
                  st.integers(2, 5), st.integers(0, 2**32 - 1))


# ---------- tests ----------

@SETTINGS
@given(case=cases, batch=st.sampled_from(BATCH_SIZES))
def test_batched_forward_and_gradients_match_reference(case, batch):
    desc, variant, dim, seed = case
    lay = make_layer(desc, variant, dim, seed)
    xs = make_windows(lay, batch, seed)
    labels = Rng(seed).derive(2).integers(2, size=batch)
    logits, cache = lay.forward(xs)
    losses, grads = lay.loss_and_grads(xs, labels)
    ref_sums = {name: 0.0 for name in WEIGHT_NAMES}
    for i, x in enumerate(xs):
        ref_logits, ref_cache = ref_forward(lay, x)
        assert_close(logits[i], ref_logits)
        for key in ("y", "pooled", "energy"):
            assert_close(cache[key][i], ref_cache[key])
        ref_loss, dlogits = ref_loss_bce(ref_logits, labels[i])
        assert_close(losses[i], ref_loss)
        for name, g in ref_backward(lay, ref_cache, dlogits).items():
            ref_sums[name] = ref_sums[name] + g
    for name in WEIGHT_NAMES:
        assert_close(grads[name], ref_sums[name])


@SETTINGS
@given(case=cases)
def test_single_window_is_the_batch_of_one(case):
    desc, variant, dim, seed = case
    lay = make_layer(desc, variant, dim, seed)
    x = make_windows(lay, 1, seed)
    logits, cache = lay.forward(x[0])
    batch_logits, batch_cache = lay.forward(x)
    assert np.array_equal(logits, batch_logits[0])
    for key in ("y", "pooled", "energy"):
        assert np.array_equal(cache[key], batch_cache[key][0])
    assert np.array_equal(lay.window_map(x[0]), cache["y"])
    loss, grads = lay.loss_and_grads(x[0], 1)
    batch_loss, batch_grads = lay.loss_and_grads(x, np.array([1]))
    assert isinstance(loss, float) and loss == batch_loss[0]
    for name in WEIGHT_NAMES:
        assert np.array_equal(grads[name], batch_grads[name])


@SETTINGS
@given(desc=st.sampled_from(DESCRIPTORS), dim=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_decompositions_match_reference(desc, dim, seed):
    ps = PROJECTORS[desc]
    rng = Rng(seed)
    q, k, v = (rand_matrix(rng, ps.window, dim, 2.0) for _ in range(3))
    pre = decompose_pre(q, k, v, ps)
    total = 0.0
    for item, ch in zip(channel_items(ps), pre.channels, strict=True):
        _, _, _, wts, out = ref_attention(q, k, v, item.projector)
        assert ch.label == item.irrep.label
        assert_close(ch.output, out)
        assert_close(ch.weights, wts)
        total = total + out
    assert_close(pre.total, total)
    post = decompose_post(q, k, v, ps)
    _, _, _, wts, plain = ref_attention(q, k, v, None)
    assert_close(post.total, plain)
    for item, ch in zip(channel_items(ps), post.channels, strict=True):
        assert ch.label == item.irrep.label
        assert_close(ch.output, item.projector @ plain)
        assert_close(ch.weights, wts)


@SETTINGS
@given(case=cases, motifs=st.sampled_from(BATCH_SIZES),
       backgrounds=st.sampled_from(BATCH_SIZES))
def test_activation_mapping_matches_reference(case, motifs, backgrounds):
    desc, variant, dim, seed = case
    lay = make_layer(desc, variant, dim, seed)
    motif_windows = list(make_windows(lay, motifs, seed))
    background_windows = list(make_windows(lay, backgrounds, seed + 1))
    # A palindromic window gives the channels that kill it no valid rows, and
    # a window with one mirrored pair of rows gives some channels a few.
    motif_windows[0] = (motif_windows[0] + motif_windows[0][::-1]) / 2.0
    background_windows[0][0] = background_windows[0][-1]
    report = activation_mapping(lay, motif_windows, background_windows)
    for item, row in zip(channel_items(lay.projectors), report.rows, strict=True):
        assert row.label == item.irrep.label
        for mass, windows in ((row.motif_mass, motif_windows),
                              (row.background_mass, background_windows)):
            expected = ref_set_mass(lay, item.projector, windows)
            if expected is None:
                assert mass is None
            else:
                assert_close(mass, expected)


def check_train_against_reference(batch_size):
    # 37 training windows and 8 validation windows, for every variant.
    for desc in DESCRIPTORS:
        for variant in VARIANTS:
            lay = make_layer(desc, variant, 3, 7)
            ref = make_layer(desc, variant, 3, 7)
            xs = make_windows(lay, 45, 8)
            labels = Rng(9).integers(2, size=45)
            samples, val = (xs[:37], labels[:37]), (xs[37:], labels[37:])
            cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=10, batch_size=batch_size,
                              tracker_trials=1)
            history = train(lay, samples, val, cfg)
            ref_history = ref_train(ref, list(zip(*samples)), list(zip(*val)), cfg)
            for row, (ref_train_loss, ref_val_loss) in zip(history, ref_history):
                assert_close(row["train_loss"], ref_train_loss)
                assert_close(row["val_loss"], ref_val_loss)
            for name in WEIGHT_NAMES:
                assert_close(getattr(lay, name), getattr(ref, name))


def test_train_with_ragged_last_batch_matches_reference():
    # Batch size 16 leaves a last mini-batch of 5.
    check_train_against_reference(16)


def test_per_sample_train_matches_reference():
    # Batch size 1, the shape of `isoattn train` at its README settings.
    check_train_against_reference(1)


# ---------- stacks of windows and the equivariance report ----------

def check_map(desc, variant, dim, seed):
    """The window map `isoattn check` builds, on stacks."""
    ps = PROJECTORS.get(desc) or projector_set(from_descriptor(desc))
    rng = Rng(seed)
    wq, wk, wv = (rand_matrix(rng, dim, dim, 1.0) for _ in range(3))

    def fn(x):
        q, k, v = x @ wq, x @ wk, x @ wv
        if variant == "baseline":
            return attention(q, k, v)
        if variant == "pre":
            return decompose_pre(q, k, v, ps).total
        return decompose_post(q, k, v, ps).total
    return fn


def counting(fn, calls):
    def counted(x):
        calls.append(np.array(x))
        return fn(x)
    return counted


@SETTINGS
@given(desc=st.sampled_from(DESCRIPTORS), dim=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), batch=st.sampled_from(BATCH_SIZES))
def test_stacked_attention_equals_single_windows(desc, dim, seed, batch):
    ps = PROJECTORS[desc]
    rng = Rng(seed)
    qs, ks, vs = (np.stack([rand_matrix(rng, ps.window, dim, 2.0) for _ in range(batch)])
                  for _ in range(3))
    plain = attention(qs, ks, vs)
    assert plain.shape == qs.shape
    for decompose in (decompose_pre, decompose_post):
        dec = decompose(qs, ks, vs, ps)
        assert dec.total.shape == qs.shape
        for i in range(batch):
            single = decompose(qs[i], ks[i], vs[i], ps)
            assert np.array_equal(dec.total[i], single.total)
            for ch, one in zip(dec.channels, single.channels, strict=True):
                assert ch.label == one.label
                assert ch.output.shape == qs.shape
                assert ch.weights.shape == (batch, ps.window, ps.window)
                assert np.array_equal(ch.output[i], one.output)
                assert np.array_equal(ch.weights[i], one.weights)
    for i in range(batch):
        assert np.array_equal(plain[i], attention(qs[i], ks[i], vs[i]))


@SETTINGS
@given(desc=st.sampled_from(DESCRIPTORS + ("cyclic:12", "dihedral:12", "trivial:3", "dihedral:2")),
       variant=st.sampled_from(VARIANTS), dim=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 3))
def test_equivariance_report_matches_reference_loop(desc, variant, dim, seed, trials):
    g = from_descriptor(desc)
    fn = check_map(desc, variant, dim, seed)
    report = equivariance_report(fn, g, dim, trials, Rng(seed).derive(5))
    ref_max, ref_mean = ref_equivariance_report(fn, g, dim, trials, Rng(seed).derive(5))
    assert report.max_error == ref_max and report.mean_error == ref_mean
    assert report.trials == trials and report.group_order == g.order


def test_report_passes_each_moved_window_once_per_trial():
    g = from_descriptor("dihedral:4")
    calls = []
    equivariance_report(counting(check_map("dihedral:4", "pre", 3, 1), calls), g, 3, 3,
                        Rng(2))
    assert len(calls) == 3  # one call per trial: the whole group fits in one chunk
    rng = Rng(2)
    for stack in calls:
        x = rand_matrix(rng, g.degree, 3, 1.0)
        assert stack.shape == (g.order, g.degree, 3)
        for h, window in zip(g.perm, stack, strict=True):
            assert np.array_equal(window, permute_rows(h, x))


def test_report_chunks_bound_the_windows_per_call():
    # One (k, k) weight matrix per window and channel: cyclic:120 gets one
    # window per call, while all 120 elements of symmetric:5 fit in one.
    same = lambda m: np.array(m)
    for desc, sizes in (("cyclic:120", [1] * 120), ("symmetric:5", [120]),
                        ("dihedral:12", [24])):
        calls = []
        report = equivariance_report(counting(same, calls), from_descriptor(desc), 2, 2, Rng(3))
        assert [len(c) for c in calls] == sizes * 2
        assert report.max_error == 0.0


def test_stack_shape_validation():
    ps = PROJECTORS["mirror:6"]
    good = np.zeros((3, 6, 2))
    for q, k, v in ((good, np.zeros((2, 6, 2)), good),  # window counts differ
                    (good, good, np.zeros((3, 6, 3))),  # feature dims differ
                    (good[0], good, good),             # one window against a stack
                    (good[None], good[None], good[None]),  # rank 4
                    (good[0, 0], good[0, 0], good[0, 0]),  # rank 1
                    (np.zeros((0, 6, 2)),) * 3):           # empty stack
        for call in (lambda: attention(q, k, v), lambda: decompose_pre(q, k, v, ps),
                     lambda: decompose_post(q, k, v, ps)):
            with pytest.raises(ValueError):
                call()
    rows = np.zeros((3, 5, 2))
    for decompose in (decompose_pre, decompose_post):
        with pytest.raises(ValueError, match="input has 5 rows"):
            decompose(rows, rows, rows, ps)


def test_report_rejects_map_that_changes_the_stack_shape():
    g = from_descriptor("mirror:6")
    for fn in (lambda m: m[..., :1, :], lambda m: m[0], lambda m: m[:1]):
        with pytest.raises(ValueError):
            equivariance_report(fn, g, 2, 1, Rng(4))


# ---------- channels against the full stack ----------

ABSENT_DESCRIPTORS = ("symmetric:3", "symmetric:4", "symmetric:5", "dihedral:4",
                      "dihedral:12", "cyclic:12")


def full_stack(ps):
    """A copy of ps whose channels are all of its items: the kernel then also
    attends on the zero projectors of the absent irreps."""
    full = ProjectorSet(ps.group, ps.items)
    full.__dict__.update(present=tuple(range(len(ps.items))))
    return full


def assert_same_channel(ch, one):
    assert ch.label == one.label
    assert ch.output.shape == one.output.shape and ch.weights.shape == one.weights.shape
    assert np.array_equal(ch.output, one.output)
    assert np.array_equal(ch.weights, one.weights)


@pytest.mark.parametrize("desc", ABSENT_DESCRIPTORS)
@pytest.mark.parametrize("batch", [None, 1, 16])
def test_present_channels_decompose_as_the_full_stack(desc, batch):
    ps = projector_set(from_descriptor(desc))
    shape = (ps.window, 4) if batch is None else (batch, ps.window, 4)
    rng = Rng(len(desc))
    q, k, v = (rand_matrix(rng, int(np.prod(shape[:-1])), 4, 2.0).reshape(shape)
               for _ in range(3))
    for decompose in (decompose_pre, decompose_post):
        dec, ref = decompose(q, k, v, ps), decompose(q, k, v, full_stack(ps))
        assert np.array_equal(dec.total, ref.total)
        for ch, c in zip(dec.channels, ps.present, strict=True):
            assert_same_channel(ch, ref.channels[c])


def test_absent_irreps_have_no_channel_and_a_zero_projector():
    for desc in ABSENT_DESCRIPTORS:
        ps = projector_set(from_descriptor(desc))
        absent = [item for item in ps.items if item.absent]
        assert absent or desc == "cyclic:12"
        for item in absent:
            assert item.projector.shape == (ps.window, ps.window)
            assert not item.projector.any()
        labels = {item.irrep.label for item in absent}
        x = Rng(11).uniform(-1.0, 1.0, shape=(3, ps.window, 2))
        lay = WindowAttentionLayer.random(ps, 2, 1, "pre", Rng(12))
        names = [[ch.label for ch in decompose(x, x, x, ps).channels]
                 for decompose in (decompose_pre, decompose_post)]
        names.append([row.label for row in activation_mapping(lay, list(x), list(x)).rows])
        names.append(list(ps.labels))
        for got in names:
            assert not labels & set(got)
        # The channel stack holds no zero projector.
        assert len(ps.stack) == len(ps.items) - len(absent) and all(p.any() for p in ps.stack)


# Every group of the acceptance roster; it includes dihedral:12 and symmetric:5.
ROSTER = (["cyclic:%d" % n for n in (1, 2, 3, 4, 6, 12, 24)]
          + ["dihedral:%d" % n for n in (1, 2, 3, 4, 6, 12)]
          + ["symmetric:%d" % n for n in (1, 2, 3, 4, 5)]
          + ["mirror:%d" % n for n in (2, 4, 6, 8)]
          + ["shift:6:3", "shift:9:3", "shift:8:4", "trivial:3", "trivial:5"])


@pytest.mark.parametrize("desc", ROSTER)
def test_every_consumer_has_one_channel_per_occurring_irrep(desc):
    ps = projector_set(from_descriptor(desc))
    n = len(ps.present)
    labels = [item.irrep.label for item in ps.items if item.multiplicity > 0]
    x = Rng(13).uniform(-1.0, 1.0, shape=(2, ps.window, 3))
    lay = WindowAttentionLayer.random(ps, 3, 1, "pre", Rng(14))
    _, cache = lay.forward(x)
    rows = activation_mapping(lay, list(x), list(x)).rows
    assert len(ps.stack) == n and lay.w_energy.shape == (n, 1)
    assert cache["energy"].shape == (2, n)
    assert list(ps.labels) == labels and [row.label for row in rows] == labels
    for decompose in (decompose_pre, decompose_post):
        assert [ch.label for ch in decompose(x, x, x, ps).channels] == labels


@pytest.mark.parametrize("desc", ABSENT_DESCRIPTORS)
def test_kernel_attends_in_the_present_channels_only(desc, monkeypatch):
    # Records the channel axis of every kernel workspace that is made: the
    # one-shot entries, activation_mapping's weights and the layer's pass
    # each make one per call.
    ps = projector_set(from_descriptor(desc))
    seen = []
    make = ChannelAttention.__init__

    def spied(self, qp, kp, vp):
        seen.append(qp.shape[1])
        make(self, qp, kp, vp)
    monkeypatch.setattr(ChannelAttention, "__init__", spied)
    x = np.ones((2, ps.window, 3))
    decompose_pre(x, x, x, ps)
    lay = WindowAttentionLayer.random(ps, 3, 1, "pre", Rng(1))
    _, cache = lay.forward(x)
    assert cache["px"].shape == (2, len(ps.present), ps.window, 3)
    assert cache["energy"].shape == (2, len(ps.present))
    assert seen == [len(ps.present)] * 2
    seen.clear()
    activation_mapping(lay, x, x)  # one kernel pass per window set
    assert seen == [len(ps.present)] * 2
    seen.clear()
    decompose_post(x, x, x, ps)
    WindowAttentionLayer.random(ps, 3, 1, "baseline", Rng(1)).forward(x)
    assert seen == [1, 1]


def full_stack_layer(lay):
    """lay on full_stack: zero w_energy rows on the absent items, the other
    weights shared."""
    ps = lay.projectors
    w_energy = np.zeros((len(ps.items), 1))
    w_energy[list(ps.present)] = lay.w_energy
    return WindowAttentionLayer(full_stack(ps), lay.w_q, lay.w_k, lay.w_v, lay.w_out,
                                lay.variant, w_energy)


@pytest.mark.parametrize("batch_size", [1, 16])
def test_layer_on_present_channels_runs_as_the_full_stack(batch_size):
    # The energy matmul has fewer rows than the full stack's, so the sums
    # differ in rounding: to within 1e-12, not bit for bit.
    for desc in ("symmetric:4", "dihedral:12"):
        ps = projector_set(from_descriptor(desc))
        present = list(ps.present)
        for variant in VARIANTS:
            lay = WindowAttentionLayer.random(ps, 3, 1, variant, Rng(7))
            lay.w_energy[...] = rand_matrix(Rng(8), *lay.w_energy.shape, 1.0)
            ref = full_stack_layer(lay)
            xs = make_windows(lay, 45, 9)
            labels = Rng(10).integers(2, size=45)
            logits, cache = lay.forward(xs)
            ref_logits, ref_cache = ref.forward(xs)
            assert_close(logits, ref_logits)
            for key in ("y", "pooled"):
                assert_close(cache[key], ref_cache[key])
            assert_close(cache["energy"], ref_cache["energy"][:, present])
            dlogits = Rng(11).uniform(-1.0, 1.0, shape=logits.shape)
            grads, ref_grads = lay.backward(cache, dlogits), ref.backward(ref_cache, dlogits)
            for name in WEIGHT_NAMES[:4]:
                assert_close(grads[name], ref_grads[name])
            assert_close(grads["w_energy"], ref_grads["w_energy"][present])
            assert not np.delete(ref_grads["w_energy"], present, axis=0).any()
            cfg = TrainConfig(epochs=2, learning_rate=0.5, seed=12, batch_size=batch_size,
                              tracker_trials=1)
            samples, val = (xs[:37], labels[:37]), (xs[37:], labels[37:])
            for row, ref_row in zip(train(lay, samples, val, cfg), train(ref, samples, val, cfg),
                                    strict=True):
                for key in ("train_loss", "val_loss", "val_acc", "equivariance_max"):
                    assert_close(row[key], ref_row[key])
            for name in WEIGHT_NAMES[:4]:
                assert_close(getattr(lay, name), getattr(ref, name))
            assert_close(lay.w_energy, ref.w_energy[present])
            assert not np.delete(ref.w_energy, present, axis=0).any()
            report = activation_mapping(lay, list(xs[:5]), list(xs[5:9]))
            ref_rows = activation_mapping(ref, list(xs[:5]), list(xs[5:9])).rows
            for row, c in zip(report.rows, present, strict=True):
                ref_row = ref_rows[c]
                assert row.label == ref_row.label
                for got, want in ((row.motif_mass, ref_row.motif_mass),
                                  (row.background_mass, ref_row.background_mass),
                                  (row.ratio, ref_row.ratio)):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert_close(got, want)
            assert all(ref_rows[c].motif_mass is None for c in range(len(ref_rows))
                       if c not in present)


# ---------- the kernel against the transposed-copy softmax, bit for bit ----------
#
# Rows of fewer than 8 entries sum in the same order whichever way a softmax
# adds them, so these cases use windows of 5 to 24 rows. The reference is
# the kernel as it stood with softmax_rows normalising a transposed copy of
# the query-major scores, and its closed-form backward.

def copy_softmax_rows(m):
    t = m.reshape(-1, m.shape[-1]).T.copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= t.sum(axis=0)
    return np.ascontiguousarray(t.T).reshape(m.shape)


def copy_softmax_rows_vjp(weights, grad):
    dot = (grad * weights).sum(axis=-1, keepdims=True)
    return weights * (grad - dot)


def copy_kernel(qp, kp, vp, dtotal):
    d = qp.shape[-1]
    wts = copy_softmax_rows((qp @ kp.swapaxes(-1, -2)) / math.sqrt(d))
    outputs = wts @ vp
    dout = dtotal[:, None]
    ds = copy_softmax_rows_vjp(wts, dout @ vp.swapaxes(-1, -2)) / math.sqrt(d)
    grads = (ds @ kp, ds.swapaxes(-1, -2) @ qp, wts.swapaxes(-1, -2) @ dout)
    return wts, outputs, outputs.sum(axis=1), grads


WIDE_STACKS = {5: "symmetric:5", 8: None, 12: "dihedral:12", 24: "cyclic:24"}


@pytest.mark.parametrize("layout", ["contiguous", "qkv columns"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("d", [1, 4, 8])
@pytest.mark.parametrize("n, desc", [(n, desc) for n, desc in WIDE_STACKS.items()]
                         + [(n, None) for n, desc in WIDE_STACKS.items() if desc])
def test_kernel_on_wide_windows_is_the_transposed_copy_softmax_bit_for_bit(n, desc, d, batch,
                                                                         layout):
    stack = None if desc is None else projector_set(from_descriptor(desc)).stack
    rng = Rng(n * 100 + d * 10 + batch)
    x = rng.uniform(-2.0, 2.0, (batch, n, d))
    if layout == "contiguous":
        qp, kp, vp = (project(stack, x @ rand_matrix(rng, d, d, 1.0)) for _ in range(3))
    else:
        # The layer's layout: q, k and v as column blocks of one product.
        qkv = project(stack, x).reshape(-1, d) @ rng.uniform(-1.0, 1.0, (d, 3 * d))
        qp, kp, vp = qkv.reshape(batch, -1, n, 3, d).transpose(3, 0, 1, 2, 4)
    dtotal = rng.uniform(-1.0, 1.0, (batch, n, d))
    att = ChannelAttention(qp, kp, vp)
    att.forward()
    wts, outputs, total, grads = copy_kernel(qp, kp, vp, dtotal)
    assert np.array_equal(att.weights, wts)
    assert np.array_equal(att.outputs, outputs)
    assert np.array_equal(att.total, total)
    att.make_backward()
    assert np.array_equal(att.backward(dtotal[:, None]), np.stack(grads))
