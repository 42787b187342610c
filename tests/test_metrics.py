"""Scores, activation mapping and the per-epoch equivariance tracker.

The tracker is `equivariance_report` on the layer's window map, as `train`
calls it once per epoch.
"""

import numpy as np
import pytest

from isoattn.attention import ChannelAttention, equivariance_report, project
from isoattn.groups import from_descriptor, mirror_group, trivial_group
from isoattn.irreps import projector_set
from isoattn.layer import EVAL_CHUNK, VARIANTS, WindowAttentionLayer, _Pass
from isoattn.metrics import (
    ActivationReport,
    ActivationRow,
    accuracy,
    activation_mapping,
    f1,
)
from isoattn.numerics import Rng
from isoattn.synth import (DatasetSpec, WindowSet, gen_nonpalindrome, gen_palindrome,
                           make_dataset, perturb)


def test_perfect_predictions():
    labels = [1, 0, 1, 1, 0]
    assert accuracy(labels, labels) == 1.0
    assert f1(labels, labels) == 1.0


def test_all_wrong_predictions():
    labels = [1, 0, 1, 0]
    flipped = [0, 1, 0, 1]
    assert accuracy(flipped, labels) == 0.0
    assert f1(flipped, labels) == 0.0


def test_hand_counted_confusion():
    preds = (1, 1, 0, 0)
    labels = (1, 0, 1, 0)
    assert accuracy(preds, labels) == 0.5
    assert f1(preds, labels) == 0.5


def test_all_negative_predictions_give_zero_f1():
    assert f1([0, 0, 0], [1, 1, 0]) == 0.0


def test_scores_match_brute_force_oracle():
    rng = Rng(1)
    for _ in range(100):
        n = 1 + int(rng.integers(30))
        preds = rng.integers(2, size=n)
        labels = rng.integers(2, size=n)
        tp = fp = fn = tn = 0
        for p, l in zip(preds, labels):
            if p == 1 and l == 1:
                tp += 1
            elif p == 1 and l == 0:
                fp += 1
            elif p == 0 and l == 1:
                fn += 1
            else:
                tn += 1
        assert accuracy(preds, labels) == (tp + tn) / n
        denom = 2 * tp + fp + fn
        want_f1 = 2 * tp / denom if denom else 0.0
        assert f1(preds, labels) == want_f1


def test_score_validation():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1, 0], [1])
    with pytest.raises(ValueError):
        f1([2, 0], [1, 0])


def test_activation_trivial_group_mass_one():
    ps = projector_set(trivial_group(4))
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(2))
    rng = Rng(3)
    motifs = [gen_palindrome(4, 4, rng) for _ in range(5)]
    backgrounds = [gen_nonpalindrome(4, 4, rng) for _ in range(5)]
    report = activation_mapping(lay, motifs, backgrounds)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.motif_mass == pytest.approx(1.0, abs=1e-9)
    assert row.background_mass == pytest.approx(1.0, abs=1e-9)
    assert row.ratio == pytest.approx(1.0, abs=1e-9)


def test_activation_sign_channel_absent_on_pure_palindromes():
    ps = projector_set(mirror_group(6))
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(4))
    rng = Rng(5)
    motifs = [gen_palindrome(6, 4, rng) for _ in range(8)]
    backgrounds = [gen_nonpalindrome(6, 4, rng) for _ in range(8)]
    report = activation_mapping(lay, motifs, backgrounds)
    by_label = {row.label: row for row in report.rows}
    sign = by_label["sign"]
    assert sign.motif_mass is None
    assert sign.background_mass is not None
    assert sign.ratio is None
    trivial = by_label["trivial"]
    assert trivial.motif_mass is not None
    assert trivial.ratio is not None


def test_activation_masses_in_unit_interval_and_deterministic():
    ps = projector_set(mirror_group(6))
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(6))
    rng = Rng(7)
    motifs = [perturb(gen_palindrome(6, 4, rng), 0.2, rng) for _ in range(10)]
    backgrounds = [gen_nonpalindrome(6, 4, rng) for _ in range(10)]
    a = activation_mapping(lay, motifs, backgrounds)
    b = activation_mapping(lay, motifs, backgrounds)
    assert a == b
    for row in a.rows:
        for mass in (row.motif_mass, row.background_mass):
            if mass is not None:
                assert 0.0 <= mass <= 1.0 + 1e-12


def test_activation_requires_windows():
    ps = projector_set(mirror_group(4))
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(8))
    with pytest.raises(ValueError):
        activation_mapping(lay, [], [gen_palindrome(4, 4, Rng(9))])


def test_tracker_architecture_guarantee():
    g = mirror_group(6)
    ps = projector_set(g)
    for variant in ("pre", "post", "baseline"):
        lay = WindowAttentionLayer.random(ps, 4, 1, variant, Rng(10))
        assert equivariance_report(lay.window_map, g, 4, 5, Rng(11)).max_error < 1e-12


def test_tracker_flags_row_biased_fixture():
    class RowBiased:
        def window_map(self, x):
            x = np.asarray(x, dtype=float)
            return x + np.arange(x.shape[-2])[:, None]

    g = mirror_group(6)
    assert equivariance_report(RowBiased().window_map, g, 4, 5, Rng(12)).max_error > 1e-3


def test_tracker_order_independent():
    g = mirror_group(4)
    ps = projector_set(g)
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(13))
    a = equivariance_report(lay.window_map, g, 4, 8, Rng(14)).max_error
    b = equivariance_report(lay.window_map, g, 4, 8, Rng(14)).max_error
    assert a == b


def test_trained_layer_scores_feed_metrics():
    ds = make_dataset(DatasetSpec(task="palindrome", n=40, k=4, seed=15))
    ps = projector_set(mirror_group(4))
    lay = WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(16))
    preds = [int(lay.forward(w.features)[0][0] > 0.0) for w in ds.val]
    labels = [w.label for w in ds.val]
    acc = accuracy(preds, labels)
    assert 0.0 <= acc <= 1.0


def test_activation_mapping_reads_window_sets_as_their_windows():
    # A WindowSet's features array gives the report its windows give, for
    # either set and for a set that spans more than one EVAL_CHUNK.
    ds = make_dataset(DatasetSpec(task="palindrome", n=400, k=6, noise_p=0.1, seed=70))
    lay = WindowAttentionLayer.random(projector_set(mirror_group(6)), 4, 1, "pre", Rng(71))
    split = ds.train
    by_label = [WindowSet(split.symbols[split.labels == label], split.alphabet_size,
                          split.labels[split.labels == label], split.metas[split.labels == label])
                for label in (1, 0)]
    motifs, backgrounds = by_label
    assert len(motifs) > 64 and len(backgrounds) > 64
    want = activation_mapping(lay, list(motifs), list(backgrounds))
    assert activation_mapping(lay, motifs, backgrounds) == want
    assert activation_mapping(lay, motifs, list(backgrounds)) == want
    assert activation_mapping(lay, list(motifs), backgrounds) == want
    assert (activation_mapping(lay, ds.train, ds.val)
            == activation_mapping(lay, list(ds.train), [w.features for w in ds.val]))
    with pytest.raises(ValueError):
        activation_mapping(lay, motifs[:0], backgrounds)


def refuse_kernel(*args):
    raise AssertionError("kernel pass before the window check")


@pytest.mark.parametrize("which", ["motif", "background"])
@pytest.mark.parametrize("case", ["rows", "features", "flat", "nan"])
def test_activation_mapping_rejects_bad_windows_by_set(which, case, monkeypatch):
    # Each set is checked against the layer's (k, d) and for finite features
    # before any kernel pass, in the list form too, where "flat" is a list of
    # 1-D rows.
    monkeypatch.setattr("isoattn.metrics._Pass", refuse_kernel)
    lay = WindowAttentionLayer.random(projector_set(mirror_group(6)), 4, 1, "pre", Rng(72))
    good = Rng(73).uniform(-1.0, 1.0, (3, 6, 4))
    bad = {"rows": good[:, :5], "features": good[:, :, :3], "flat": good[:, 0],
           "nan": good.copy()}[case]
    if case == "nan":
        bad[1, 2, 3] = np.nan
    sets = (bad, good) if which == "motif" else (good, bad)
    for form in (np.asarray, list):
        with pytest.raises(ValueError, match=f"activation_mapping: {which} window"):
            activation_mapping(lay, *(form(s) for s in sets))


def test_activation_mapping_stacks_nested_lists_and_refuses_ragged_ones(monkeypatch):
    # Nested-list matrices, of ints or floats, give the float array's report;
    # a ragged list of matrices is refused before any kernel pass.
    lay = WindowAttentionLayer.random(projector_set(mirror_group(6)), 4, 1, "pre", Rng(74))
    good = Rng(75).uniform(-1.0, 1.0, (3, 6, 4))
    ints = (good > 0).astype(int)
    assert (activation_mapping(lay, good.tolist(), ints.tolist())
            == activation_mapping(lay, good, ints.astype(np.float64)))
    monkeypatch.setattr("isoattn.metrics._Pass", refuse_kernel)
    ragged = [good[0], good[1, :5], good[2]]
    for sets in ((ragged, good), (good, ragged)):
        with pytest.raises(ValueError):
            activation_mapping(lay, *sets)


def hand_mapped_activation(layer, motifs, backgrounds):
    """activation_mapping as it was written before it ran the layer's pass:
    the windows projected, then mapped by hand through w_q and w_k, and only
    the weights of a ChannelAttention on them read. Takes window stacks."""
    ps = layer.projectors

    def set_masses(windows):
        masses, counted = [], []
        for start in range(0, len(windows), EVAL_CHUNK):
            px = project(ps.stack, windows[start:start + EVAL_CHUNK])
            qp, kp = px @ layer.w_q, px @ layer.w_k
            att = ChannelAttention(qp, kp, kp)
            att.forward()
            wts = att.weights
            valid_rows = np.abs(qp).max(axis=-1) > 1e-12
            valid_cols = np.abs(kp).max(axis=-1) > 1e-12
            row_masses = (wts * valid_cols[:, :, None, :]).sum(axis=-1)
            n_rows = valid_rows.sum(axis=-1)
            masses.append((row_masses * valid_rows).sum(axis=-1) / np.maximum(n_rows, 1))
            counted.append((n_rows > 0) & valid_cols.any(axis=-1))
        masses, counted = np.concatenate(masses), np.concatenate(counted)
        return [float(masses[counted[:, c], c].mean()) if counted[:, c].any() else None
                for c in range(len(ps.stack))]

    rows = []
    for label, motif, background in zip(ps.labels, set_masses(motifs), set_masses(backgrounds)):
        ratio = None if motif is None or background is None else motif / max(background, 1e-12)
        rows.append(ActivationRow(label, motif, background, ratio))
    return ActivationReport(rows=tuple(rows))


@pytest.mark.parametrize("desc", ["mirror:6", "cyclic:12", "dihedral:12", "symmetric:4"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_activation_mapping_is_the_hand_mapped_computation_bit_for_bit(desc, variant):
    # Set sizes around the EVAL_CHUNK boundary, one-hot windows half of which
    # are palindromes (whose odd channels vanish) and the WindowSet and list
    # forms of each set.
    ps = projector_set(from_descriptor(desc))
    lay = WindowAttentionLayer.random(ps, 4, 1, variant, Rng(80))
    rng = Rng(81)
    sizes = (1, 63, 64, 65, 130)
    for n, other in zip(sizes, sizes[::-1]):
        sets = []
        for size in (n, other):
            symbols = rng.integers(4, (size, ps.window))
            symbols[::2] = np.maximum(symbols[::2], symbols[::2, ::-1])
            sets.append(WindowSet(symbols, 4, np.zeros(size, dtype=int), [""] * size))
        want = hand_mapped_activation(lay, *(s.features for s in sets))
        assert activation_mapping(lay, *sets) == want
        assert activation_mapping(lay, *(list(s) for s in sets)) == want


class _HeadlessPass(_Pass):
    """A layer pass whose head, the bound forward, must not run."""

    def __init__(self, *args):
        super().__init__(*args)

        def forward(px):
            raise AssertionError("the classifier head ran")
        self.forward = forward


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_map_readers_never_run_the_head(variant, monkeypatch):
    # window_map and activation_mapping read the map y and the channel
    # weights; pooling, energies and logits are work neither needs.
    ps = projector_set(mirror_group(6))
    lay = WindowAttentionLayer.random(ps, 4, 1, variant, Rng(90))
    xs = Rng(91).uniform(-1.0, 1.0, (EVAL_CHUNK + 1, 6, 4))
    ys = [lay.forward(x)[1]["y"] for x in (xs[0], xs)]
    want = hand_mapped_activation(lay, xs[:3], xs[3:])
    monkeypatch.setattr("isoattn.layer._Pass", _HeadlessPass)
    monkeypatch.setattr("isoattn.metrics._Pass", _HeadlessPass)
    with pytest.raises(AssertionError, match="head ran"):
        lay.forward(xs)
    assert np.array_equal(lay.window_map(xs[0]), ys[0])
    assert np.array_equal(lay.window_map(xs), ys[1])
    assert activation_mapping(lay, xs[:3], xs[3:]) == want
