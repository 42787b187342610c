"""Dense float64 matrix kernels and the deterministic seeded generator.

Everything downstream works on 2-D numpy arrays in double precision, or on
stacks of them along leading axes. The helpers here add the shape and finiteness checks the rest of the package
relies on, so callers can assume clean inputs after any public call.
"""

from __future__ import annotations

import numpy as np

# Public alias used in signatures: a 2-D float64 ndarray.
Matrix = np.ndarray

_UINT64_MAX = 2**64 - 1


def as_matrix(values) -> Matrix:
    """Coerce to a 2-D float64 array, rejecting anything of other rank."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    return m


def stack_matrices(items) -> np.ndarray:
    """Stack equal-shape 2-D matrices into one (N, rows, cols) float64 array.

    One np.stack makes the array, and as_matrix's check runs once on the
    shape its matrices share.
    """
    m = np.asarray(np.stack(items), dtype=np.float64)
    if m.ndim != 3 or 0 in m.shape[1:]:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {m.shape[1:]}")
    return m


def frobenius_sq(m) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    m = np.asarray(m, dtype=np.float64)
    return float((m * m).sum())


def _as_stack(values) -> np.ndarray:
    """Coerce to a float64 array of rank >= 2 with no empty axis."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim < 2 or 0 in m.shape:
        raise ValueError(f"expected a non-empty stack of matrices, got shape {m.shape}")
    return m


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Acts on the last axis, so a stack (..., rows, cols) of matrices is
    normalized matrix by matrix. Safe for entries anywhere in the finite
    float64 range; each output row is nonnegative and sums to 1. Non-finite
    input is rejected.

    The work runs on a transposed copy, one column per row of the input, so
    each max, sum and broadcast is one numpy loop across all rows rather
    than one short loop per row. The axis-0 sum adds a row's entries left to
    right, as numpy's own sum does for rows of fewer than 8 entries; longer
    rows may differ from a last-axis sum in the last bit. A single row is one
    contiguous sum, which numpy adds pairwise from 8 entries on, so a lone
    row of 8 or more entries may differ in the last bit from the same row
    inside a stack; a matrix of two or more rows never does.
    """
    m = _as_stack(m)
    if not np.isfinite(m).all():
        raise ValueError("softmax_rows: input contains NaN or Inf")
    t = m.reshape(-1, m.shape[-1]).T.copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= t.sum(axis=0)
    return np.ascontiguousarray(t.T).reshape(m.shape)


def softmax_rows_vjp(weights, grad) -> np.ndarray:
    """Backward of softmax_rows in closed form, on stacks as well.

    Per row p with upstream gradient g: p * (g - <g, p>), which is the action
    of the Jacobian diag(p) - p p^T.
    """
    weights = _as_stack(weights)
    grad = _as_stack(grad)
    if weights.shape != grad.shape:
        raise ValueError(f"softmax_rows_vjp: shapes differ, {weights.shape} vs {grad.shape}")
    dot = (grad * weights).sum(axis=-1, keepdims=True)
    return weights * (grad - dot)


class Rng:
    """Deterministic random stream with a counter-based (Philox) core.

    The same 64-bit unsigned seed always reproduces the same byte stream,
    independent of platform. `derive(tag)` opens an independent stream
    addressed by (seed, tag) without consuming from this one.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed <= _UINT64_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self._path = _path
        ss = np.random.SeedSequence(entropy=seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, tag: int) -> "Rng":
        return Rng(self.seed, self._path + (int(tag),))

    def uniform(self, low: float, high: float, shape=None):
        return self._gen.uniform(low, high, shape)

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n)."""
        if n < 1:
            raise ValueError(f"integers: need n >= 1, got {n}")
        return self._gen.integers(0, n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def rand_matrix(rng: Rng, rows: int, cols: int, scale: float = 1.0) -> Matrix:
    """Matrix with entries drawn uniformly from [-scale, +scale]."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rand_matrix: need positive dimensions, got {rows}x{cols}")
    if not scale > 0:
        raise ValueError(f"rand_matrix: scale must be positive, got {scale}")
    return rng.uniform(-scale, scale, (rows, cols))
