"""Scaled dot-product attention, channel decompositions, equivariance."""

import math
import sys

import numpy as np
import pytest

from isoattn.attention import (
    ChannelAttention,
    attention,
    decompose_post,
    decompose_pre,
    equivariance_error,
    equivariance_report,
)
from isoattn.groups import (
    cyclic_group,
    dihedral_group,
    mirror_group,
    permute_rows,
    trivial_group,
)
from isoattn.irreps import projector_set
from isoattn.numerics import Rng, rand_matrix


def seeded_qkv(seed, window, dim, scale=1.0):
    rng = Rng(seed)
    return (rand_matrix(rng, window, dim, scale),
            rand_matrix(rng, window, dim, scale),
            rand_matrix(rng, window, dim, scale))


def test_zero_query_returns_column_means():
    rng = Rng(1)
    v = rand_matrix(rng, 5, 3, 2.0)
    out = attention(np.zeros((5, 3)), rand_matrix(rng, 5, 3, 1.0), v)
    mean = v.mean(axis=0)
    for row in out:
        assert np.abs(row - mean).max() < 1e-12


def test_window_one_returns_value():
    q, k, v = seeded_qkv(2, 1, 4)
    assert np.abs(attention(q, k, v) - v).max() < 1e-15


def test_channel_weights_row_stochastic():
    q, k, _ = seeded_qkv(3, 6, 8, 3.0)
    att = ChannelAttention(q[None, None], k[None, None], k[None, None])
    att.forward()
    w = att.weights[0, 0]
    assert np.all(w >= 0)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12


def test_channel_attention_rejects_bad_stacks():
    good = np.zeros((2, 1, 4, 3))
    for qp, kp, vp in ((good[:, 0], good[:, 0], good[:, 0]),
                       (good, good[:, :, :3], good),
                       (good, good, good[..., :2])):
        with pytest.raises(ValueError, match=r"^ChannelAttention: expected equal \(B, C, n, d\)"):
            ChannelAttention(qp, kp, vp)


def test_attention_equivariant_under_reversal():
    q, k, v = seeded_qkv(4, 4, 8)
    h = [3, 2, 1, 0]
    left = attention(permute_rows(h, q), permute_rows(h, k), permute_rows(h, v))
    right = permute_rows(h, attention(q, k, v))
    assert ((left - right) ** 2).sum() < 1e-12


def test_attention_shape_validation():
    with pytest.raises(ValueError):
        attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        attention(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)))


def test_post_total_is_plain_attention():
    ps = projector_set(dihedral_group(4))
    q, k, v = seeded_qkv(5, 4, 6)
    dec = decompose_post(q, k, v, ps)
    assert np.abs(dec.total - attention(q, k, v)).max() < 1e-12
    summed = sum(ch.output for ch in dec.channels)
    assert np.abs(dec.total - summed).max() < 1e-12


def test_post_sign_channel_vanishes_on_identical_value_rows():
    ps = projector_set(cyclic_group(2))
    q, k, _ = seeded_qkv(6, 2, 3)
    v = np.tile(np.array([[1.0, -2.0, 0.5]]), (2, 1))
    dec = decompose_post(q, k, v, ps)
    sign = next(ch for ch in dec.channels if ch.label == "sign")
    assert np.abs(sign.output).max() < 1e-12


def test_post_trivial_channel_uniform_average():
    ps = projector_set(cyclic_group(2))
    v = np.array([[2.0, 4.0], [6.0, 8.0]])
    dec = decompose_post(np.zeros((2, 2)), np.zeros((2, 2)), v, ps)
    trivial = next(ch for ch in dec.channels if ch.label == "trivial")
    expected = np.tile((v[0] + v[1]) / 2.0, (2, 1))
    assert np.abs(trivial.output - expected).max() < 1e-12


def test_pre_symmetric_input_kills_sign_channel():
    ps = projector_set(cyclic_group(2))
    row = np.array([[0.3, -1.2, 2.0]])
    x = np.tile(row, (2, 1))
    dec = decompose_pre(x, x, x, ps)
    sign = next(ch for ch in dec.channels if ch.label == "sign")
    trivial = next(ch for ch in dec.channels if ch.label == "trivial")
    assert np.abs(sign.output).max() < 1e-12
    assert np.abs(dec.total - trivial.output).max() < 1e-12


def test_pre_equivariant_total_and_channels():
    g = mirror_group(6)
    ps = projector_set(g)
    q, k, v = seeded_qkv(7, 6, 4)
    h = g.perm[1]
    dec_moved = decompose_pre(permute_rows(h, q), permute_rows(h, k),
                              permute_rows(h, v), ps)
    dec = decompose_pre(q, k, v, ps)
    assert ((dec_moved.total - permute_rows(h, dec.total)) ** 2).sum() < 1e-12
    for ch_m, ch in zip(dec_moved.channels, dec.channels):
        assert ch_m.label == ch.label
        assert ((ch_m.output - permute_rows(h, ch.output)) ** 2).sum() < 1e-12


def test_pre_trivial_group_reduces_to_attention():
    ps = projector_set(trivial_group(4))
    q, k, v = seeded_qkv(8, 4, 5)
    dec = decompose_pre(q, k, v, ps)
    assert len(dec.channels) == 1
    assert np.abs(dec.total - attention(q, k, v)).max() < 1e-12


def test_pre_total_equals_channel_sum():
    ps = projector_set(dihedral_group(6))
    q, k, v = seeded_qkv(9, 6, 8)
    dec = decompose_pre(q, k, v, ps)
    summed = sum(ch.output for ch in dec.channels)
    assert np.abs(dec.total - summed).max() < 1e-12


def test_channel_weights_row_stochastic_both_variants():
    ps = projector_set(dihedral_group(4))
    q, k, v = seeded_qkv(10, 4, 6)
    for dec in (decompose_pre(q, k, v, ps), decompose_post(q, k, v, ps)):
        for ch in dec.channels:
            assert np.abs(ch.weights.sum(axis=1) - 1.0).max() < 1e-12


def test_decompose_window_mismatch():
    ps = projector_set(cyclic_group(3))
    q, k, v = seeded_qkv(11, 4, 4)
    with pytest.raises(ValueError):
        decompose_pre(q, k, v, ps)
    with pytest.raises(ValueError):
        decompose_post(q, k, v, ps)


def test_equivariance_error_identity_is_zero():
    x = rand_matrix(Rng(12), 4, 4, 1.0)
    fn = lambda m: attention(m, m, m)
    assert equivariance_error(fn, x, range(4)) == 0.0


def test_equivariance_error_attention_tiny():
    rng = Rng(13)
    g = cyclic_group(4)
    fn = lambda m: attention(m, m, m)
    for _ in range(10):
        x = rand_matrix(rng, 4, 6, 1.0)
        for h in g.perm:
            assert equivariance_error(fn, x, h) < 1e-20


def test_equivariance_error_flags_broken_map():
    def zero_row0(m):
        out = np.array(m, dtype=float)
        out[..., 0, :] = 0.0
        return out

    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    err = equivariance_error(zero_row0, x, (1, 0))
    assert err > 0.0


def test_equivariance_error_rejects_shape_change():
    fn = lambda m: m[..., :1, :]
    with pytest.raises(ValueError):
        equivariance_error(fn, np.eye(3), (0, 1, 2))


@pytest.mark.parametrize("h", [(0, 0, 1), (), (0, 1)])
def test_equivariance_error_rejects_a_non_bijection_or_wrong_degree(h):
    fn = lambda m: attention(m, m, m)
    with pytest.raises(ValueError, match="^permute_rows: "):
        equivariance_error(fn, np.eye(3), h)


def test_equivariance_report_attention():
    g = cyclic_group(2)
    fn = lambda m: attention(m, m, m)
    report = equivariance_report(fn, g, 8, 100, Rng(14))
    assert report.max_error < 1e-12
    assert report.trials == 100
    assert report.group_order == 2


def test_equivariance_report_post_d4():
    g = dihedral_group(4)
    ps = projector_set(g)
    rng = Rng(15)
    wq = rand_matrix(rng, 16, 16, 1.0)
    wk = rand_matrix(rng, 16, 16, 1.0)
    wv = rand_matrix(rng, 16, 16, 1.0)

    def fn(x):
        return decompose_post(x @ wq, x @ wk, x @ wv, ps).total

    report = equivariance_report(fn, g, 16, 50, Rng(16))
    assert report.max_error < 1e-12


def test_equivariance_report_flags_fixture():
    g = cyclic_group(2)

    def biased(m):
        out = np.array(m, dtype=float)
        out[..., 0, :] += 1.0
        return out

    report = equivariance_report(biased, g, 4, 5, Rng(17))
    assert report.max_error > 1e-3


def test_equivariance_report_flags_nan_outside_identity():
    # NaN on every window except the first trial's x itself: the identity of
    # that trial is clean and every other error is NaN, so a max that drops
    # NaN after a finite first error would read 0.
    g = mirror_group(4)
    x = rand_matrix(Rng(18), 4, 3, 1.0)  # the report's first draw

    def fn(m):
        out = np.array(m, dtype=float)
        out[(out != x).any(axis=(-2, -1))] = np.nan
        return out

    report = equivariance_report(fn, g, 3, 3, Rng(18))
    assert math.isnan(report.max_error) and math.isnan(report.mean_error)
    assert not report.max_error < 1e-12


def test_equivariance_error_calls_fn_once_on_two_windows():
    calls = []

    def fn(m):
        calls.append(np.array(m))
        return attention(m, m, m)

    g = cyclic_group(4)
    x = rand_matrix(Rng(19), 4, 3, 1.0)
    h = g.perm[1]
    err = equivariance_error(fn, x, h)
    assert len(calls) == 1 and calls[0].shape == (2, 4, 3)
    assert np.array_equal(calls[0][0], x) and np.array_equal(calls[0][1], permute_rows(h, x))
    assert err < 1e-20


def test_package_attribute_attention_is_the_submodule():
    # Plain attention is not re-exported, so the package attribute is the
    # module and patching one of its attributes reaches the module.
    import isoattn
    from isoattn import attention as attention_module

    assert isoattn.attention is sys.modules["isoattn.attention"]
    assert attention_module is sys.modules["isoattn.attention"]
    assert attention_module.attention is attention
