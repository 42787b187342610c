"""Matrix kernel, softmax and seeded rng."""

import itertools
import math
import re

import numpy as np
import pytest

from isoattn.numerics import (
    Rng,
    as_matrix,
    frobenius_sq,
    rand_matrix,
    softmax_rows,
    softmax_rows_vjp,
    stack_matrices,
)


def perm_matrix_from_tuple(perm):
    # Independent of the groups module on purpose: row p(j) of column j.
    k = len(perm)
    m = np.zeros((k, k))
    for j, img in enumerate(perm):
        m[img, j] = 1.0
    return m


def test_softmax_uniform_row():
    out = softmax_rows([[0.0, 0.0]])
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_log_row_closed_form():
    out = softmax_rows([[math.log(1), math.log(2), math.log(3)]])
    assert np.allclose(out, [[1 / 6, 1 / 3, 1 / 2]], atol=1e-12)


def test_softmax_rows_sum_to_one_large_spread():
    rng = Rng(3)
    base = rng.uniform(-700.0, 700.0, (20, 7))
    out = softmax_rows(base)
    assert np.all(out >= 0.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert np.isfinite(out).all()


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax_rows([[0.0, float("nan")]])
    with pytest.raises(ValueError):
        softmax_rows([[0.0, float("inf")]])


def test_softmax_permutation_conjugation_all_s4():
    rng = Rng(11)
    m = rand_matrix(rng, 4, 4, 2.0)
    for perm in itertools.permutations(range(4)):
        p = perm_matrix_from_tuple(perm)
        left = softmax_rows(p @ m @ p.T)
        right = p @ softmax_rows(m) @ p.T
        assert np.abs(left - right).max() < 1e-12


def test_softmax_vjp_of_constant_upstream_is_zero():
    # Rows sum to a constant, so a constant upstream gradient is annihilated.
    w = softmax_rows(rand_matrix(Rng(5), 6, 6, 3.0))
    out = softmax_rows_vjp(w, np.ones_like(w))
    assert np.abs(out).max() < 1e-15


def test_softmax_vjp_matches_finite_differences():
    rng = Rng(9)
    z = rand_matrix(rng, 3, 4, 1.0)
    g = rand_matrix(rng, 3, 4, 1.0)
    analytic = softmax_rows_vjp(softmax_rows(z), g)
    eps = 1e-6
    fd = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += eps
            zm[i, j] -= eps
            fd[i, j] = ((softmax_rows(zp) - softmax_rows(zm)) * g).sum() / (2 * eps)
    assert np.abs(analytic - fd).max() < 1e-8


def test_frobenius_closed_forms():
    assert frobenius_sq(np.zeros((3, 3))) == 0.0
    assert frobenius_sq(np.eye(3)) == 3.0
    assert frobenius_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0


def test_frobenius_self_difference_exact_zero():
    a = rand_matrix(Rng(2), 5, 5, 10.0)
    assert frobenius_sq(a - a) == 0.0


def test_shape_validation():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0, 3.0])


def test_rand_matrix_determinism_and_range():
    a = rand_matrix(Rng(123), 4, 6, 0.5)
    b = rand_matrix(Rng(123), 4, 6, 0.5)
    c = rand_matrix(Rng(124), 4, 6, 0.5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.abs(a).max() <= 0.5


def test_rng_streams_reproducible():
    a = Rng(42).uniform(0.0, 1.0, 10_000)
    b = Rng(42).uniform(0.0, 1.0, 10_000)
    assert a.tobytes() == b.tobytes()


def test_rng_derive_independent_streams():
    root = Rng(8)
    a = root.derive(1).uniform(0.0, 1.0, 100)
    b = root.derive(2).uniform(0.0, 1.0, 100)
    a2 = Rng(8).derive(1).uniform(0.0, 1.0, 100)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_rng_integers_and_permutation():
    vals = Rng(1).integers(4, size=1000)
    assert vals.min() >= 0 and vals.max() <= 3
    perm = Rng(1).permutation(10)
    assert sorted(perm.tolist()) == list(range(10))


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


# ---------- uniform_integer_rows against the row loop ----------
#
# The reference is the loop the block draw replaced: per row, one uniform
# call for k values, then one integers call for k values.

def _ref_uniform_integer_rows(rng, n, k, a):
    u = np.empty((n, k))
    fresh = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        u[i] = rng.uniform(0.0, 1.0, k)
        fresh[i] = rng.integers(a, size=k)
    return u, fresh


def _philox_state(rng):
    st = rng._gen.bit_generator.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(),
            st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"], st["uinteger"])


def _assert_same_draws_and_stream(got_rng, want_rng, n, k, a):
    got = got_rng.uniform_integer_rows(n, k, a)
    want = _ref_uniform_integer_rows(want_rng, n, k, a)
    context = (n, k, a)
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype, context
    assert got[0].tobytes() == want[0].tobytes(), context
    assert got[1].tobytes() == want[1].tobytes(), context
    assert _philox_state(got_rng) == _philox_state(want_rng), context
    # The stream continues from the same place, spare half-word included.
    assert got_rng.permutation(11).tolist() == want_rng.permutation(11).tolist(), context
    assert got_rng.uniform(0.0, 1.0, 3).tolist() == want_rng.uniform(0.0, 1.0, 3).tolist()
    assert got_rng.integers(a, size=3).tolist() == want_rng.integers(a, size=3).tolist()


@pytest.mark.parametrize("a", [2, 3, 4, 5, 26])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_uniform_integer_rows_match_the_row_loop(a, seed):
    spares = set()
    for k in range(1, 13):
        for n in (1, 2, 3, 37):
            # One small draw beforehand leaves a spare half-word, two use it up.
            for before in (0, 1, 2):
                got_rng, want_rng = Rng(seed).derive(k), Rng(seed).derive(k)
                for rng in (got_rng, want_rng):
                    for _ in range(before):
                        rng.integers(3, size=1)
                spares.add(_philox_state(got_rng)[4])
                _assert_same_draws_and_stream(got_rng, want_rng, n, k, a)
    assert spares == {0, 1}


@pytest.mark.parametrize("a", [1, 2**31 + 1, 2**32 - 1])
def test_uniform_integer_rows_match_the_row_loop_at_the_edges(a):
    # a = 1 draws no integer words, nor does k = 0; near 2**32 about half
    # the values are redrawn.
    for k in (0, 1, 4, 7):
        for n in (1, 5):
            _assert_same_draws_and_stream(Rng(k).derive(n), Rng(k).derive(n), n, k, a)


def test_uniform_integer_rows_falls_back_when_a_value_is_redrawn(monkeypatch):
    # With a spare half-word of 0 and a = 3, the first value has leftover
    # (0 * 3) mod 2**32 = 0, below the threshold (2**32 - 3) mod 3 = 1.
    assert (2**32 - 3) % 3 == 1
    got_rng, want_rng = Rng(5), Rng(5)
    for rng in (got_rng, want_rng):
        bits = rng._gen.bit_generator
        st = bits.state
        st["has_uint32"], st["uinteger"] = 1, 0
        bits.state = st
    loops = []
    row_loop = Rng._uniform_integer_loop
    monkeypatch.setattr(Rng, "_uniform_integer_loop",
                        lambda self, *args: loops.append(args) or row_loop(self, *args))
    _assert_same_draws_and_stream(got_rng, want_rng, 4, 3, 3)
    assert loops == [(4, 3, 3)]


def test_softmax_and_vjp_act_matrix_by_matrix_on_stacks():
    rng = Rng(9)
    z = np.stack([rand_matrix(rng, 3, 5, 4.0) for _ in range(6)]).reshape(2, 3, 3, 5)
    g = np.stack([rand_matrix(rng, 3, 5, 1.0) for _ in range(6)]).reshape(2, 3, 3, 5)
    w = softmax_rows(z)
    vjp = softmax_rows_vjp(w, g)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(w[idx], softmax_rows(z[idx]))
        assert np.array_equal(vjp[idx], softmax_rows_vjp(w[idx], g[idx]))


def two_line_softmax(m):
    # The row-major formula softmax_rows used before its key-major copy.
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


SHORT_ROW_STACKS = [(1, 2, 6, 6), (16, 2, 6, 6), (64, 2, 6, 6), (120, 2, 5, 5), (24, 7, 7)] \
    + [(9, 3, 4, n) for n in range(1, 8)]


@pytest.mark.parametrize("shape", SHORT_ROW_STACKS)
@pytest.mark.parametrize("scale", [0.1, 3.0, 300.0])
def test_softmax_short_rows_equal_the_two_line_formula_bit_for_bit(shape, scale):
    # Below 8 entries numpy sums a row left to right, as the axis-0 sum does.
    m = Rng(31).uniform(-scale, scale, shape)
    assert np.array_equal(softmax_rows(m), two_line_softmax(m))


@pytest.mark.parametrize("n", [8, 9, 12, 16, 17, 31, 64, 100, 120])
@pytest.mark.parametrize("scale", [0.1, 3.0, 300.0])
def test_softmax_long_rows_match_the_two_line_formula(n, scale):
    # Both compute the same exponentials and differ only in the order of the
    # row sum (pairwise against left to right), so each entry agrees to n
    # machine epsilons of itself.
    m = Rng(32).uniform(-scale, scale, (40, 3, n))
    out, ref = softmax_rows(m), two_line_softmax(m)
    assert np.all(np.abs(out - ref) <= n * np.finfo(np.float64).eps * ref)


@pytest.mark.parametrize("n", [1, 3, 6, 7, 8, 12, 40])
def test_softmax_stack_equals_its_matrices_one_at_a_time(n):
    m = Rng(33).uniform(-5.0, 5.0, (4, 3, n))
    out = softmax_rows(m)
    for idx in np.ndindex(4):
        assert np.array_equal(out[idx], softmax_rows(m[idx]))


@pytest.mark.parametrize("n", range(1, 8))
def test_softmax_stack_equals_its_rows_one_at_a_time(n):
    m = Rng(34).uniform(-5.0, 5.0, (4, 3, n))
    out = softmax_rows(m)
    for idx in np.ndindex(4, 3):
        assert np.array_equal(out[idx], softmax_rows(m[idx][None])[0])


@pytest.mark.parametrize("n", [8, 12, 40, 120])
def test_softmax_single_long_row_equals_the_two_line_formula(n):
    # A lone row is one contiguous sum, pairwise for 8 or more entries as in
    # the two-line formula; inside a stack the same row is summed left to right.
    row = Rng(35).uniform(-5.0, 5.0, (1, n))
    assert np.array_equal(softmax_rows(row), two_line_softmax(row))


def test_stack_matrices_stacks_once_and_keeps_the_matrix_check():
    out = stack_matrices([[[1, 2]], np.array([[3.0, 4.0]])])
    assert out.dtype == np.float64 and out.shape == (2, 1, 2)
    assert np.array_equal(out, [[[1.0, 2.0]], [[3.0, 4.0]]])
    for bad, shape in (([np.zeros(3), np.zeros(3)], "(3,)"),
                       ([np.zeros((0, 2))], "(0, 2)"),
                       ([np.zeros((2, 2, 2))], "(2, 2, 2)")):
        with pytest.raises(ValueError, match=rf"^expected a non-empty 2-D matrix, got shape "
                                             rf"{re.escape(shape)}$"):
            stack_matrices(bad)


def test_softmax_stack_validation():
    with pytest.raises(ValueError):
        softmax_rows([1.0, 2.0])
    with pytest.raises(ValueError):
        softmax_rows(np.zeros((2, 0, 3)))
    stack = np.zeros((2, 2, 2))
    stack[1, 0, 1] = float("nan")
    with pytest.raises(ValueError):
        softmax_rows(stack)
    with pytest.raises(ValueError):
        softmax_rows_vjp(np.zeros((2, 2, 2)), np.zeros((2, 2)))
