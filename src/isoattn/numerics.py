"""Dense float64 matrix kernels and the deterministic seeded generator.

Everything downstream works on 2-D numpy arrays in double precision, or on
stacks of them along leading axes. The helpers here add the shape and finiteness checks the rest of the package
relies on, so callers can assume clean inputs after any public call.
"""

from __future__ import annotations

import numbers

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

    The work runs in softmax_columns on a transposed copy, one column per
    row of the input, so each max, sum and division is one numpy loop across
    all rows rather than one short loop per row. The axis-0 sum adds a row's
    entries left to right, as numpy's own sum does for rows of fewer than 8
    entries; longer rows may differ from a last-axis sum in the last bit. A
    single row is one contiguous sum, which numpy adds pairwise from 8
    entries on, so a lone row of 8 or more entries may differ in the last
    bit from the same row inside a stack; a matrix of two or more rows never
    does.
    """
    m = _as_stack(m)
    return softmax_columns(m.reshape(-1, m.shape[-1]).T.copy()).reshape(m.shape)


def softmax_columns(t: np.ndarray, out: np.ndarray | None = None,
                    finite: np.ndarray | None = None,
                    columns: np.ndarray | None = None) -> np.ndarray:
    """Softmax of every column of a C-contiguous key-major matrix t (keys,
    rows), returned as the row-stochastic weights (rows, keys), a
    C-contiguous array. t is overwritten.

    softmax_rows(m) is softmax_columns of m's rows as columns; a caller that
    makes its scores key-major in the first place skips that copy. The max
    subtraction, exp and column sums run in place on t, and the division
    writes straight into the transposed layout. Non-finite input is rejected
    with softmax_rows' error. A caller that runs many softmaxes of one shape
    passes the weights out, the finiteness mask finite (t's shape, bool) and
    the column buffer columns (rows,) that holds the max and then the sums;
    each is made when it is None.
    """
    if not np.logical_and.reduce(np.isfinite(t, out=finite), axis=None):
        raise ValueError("softmax_rows: input contains NaN or Inf")
    columns = np.maximum.reduce(t, 0, out=columns)
    t -= columns
    np.exp(t, out=t)
    if out is None:
        out = np.empty((t.shape[1], t.shape[0]))
    np.divide(t, np.add.reduce(t, 0, out=columns), out=out.T)
    return out


def softmax_rows_vjp(weights, grad) -> np.ndarray:
    """Backward of softmax_rows in closed form, on stacks as well.

    Per row p with upstream gradient g: p * (g - <g, p>), which is the action
    of the Jacobian diag(p) - p p^T.
    """
    weights = _as_stack(weights)
    grad = _as_stack(grad)
    if weights.shape != grad.shape:
        raise ValueError(f"softmax_rows_vjp: shapes differ, {weights.shape} vs {grad.shape}")
    return softmax_vjp(weights, grad)


def softmax_vjp(weights: np.ndarray, grad: np.ndarray, out: np.ndarray | None = None,
                product: np.ndarray | None = None,
                sums: np.ndarray | None = None) -> np.ndarray:
    """softmax_rows_vjp without its checks, on float64 stacks of one shape.

    A caller that runs it many times passes the result out (which may be
    grad itself), the product grad * weights and the row sums (..., 1);
    each is made when it is None.
    """
    sums = np.add.reduce(np.multiply(grad, weights, out=product), -1, keepdims=True, out=sums)
    out = np.subtract(grad, sums, out=out)
    out *= weights
    return out


class Rng:
    """Deterministic random stream with a counter-based (Philox) core.

    The same 64-bit unsigned seed always reproduces the same byte stream,
    independent of platform. `derive(tag)` opens an independent stream
    addressed by (seed, tag) without consuming from this one.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if not (isinstance(seed, numbers.Integral) and 0 <= seed <= _UINT64_MAX):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        self.seed = seed = int(seed)
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

    def uniform_integer_rows(self, n: int, k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        """(n, k) uniforms in [0, 1) and (n, k) integers in [0, a), drawn as
        n rounds of uniform(0, 1, k) then integers(a, size=k).

        The values and the stream position after the call, spare half-word
        included, are those of the n rounds. They are decoded from one raw
        block: numpy makes a uniform of one 64-bit word, (w >> 11) * 2**-53,
        and an integer of one 32-bit half-word x by Lemire's method,
        (x * a) >> 32. The half-words are the integer words' low then high
        halves, after the half the bit generator may hold spare from an
        earlier call; the high half of a row's last word, when that row
        leaves it, is the first value of the next row. Lemire's method draws
        again when (x * a) mod 2**32 < (2**32 - a) mod a, which never happens
        for a power of two and otherwise has probability below a / 2**32
        per value; if any decoded value would be redrawn, the stream is
        restored and the rounds are drawn one by one.
        """
        bits = self._gen.bit_generator
        if n * k == 0 or not 2 <= a < 2**32:
            return self._uniform_integer_loop(n, k, a)
        saved = bits.state
        spare = saved["has_uint32"]
        # Words drawn for integers up to the end of each row; row i's words
        # start after i rows of k uniforms and the integer words before it.
        int_words = (np.arange(1, n + 1) * k - spare + 1) // 2
        starts = np.arange(n) * k + np.concatenate(([0], int_words[:-1]))
        at_uniform = starts[:, None] + np.arange(k)
        raw = bits.random_raw(n * k + int(int_words[-1]))
        u = np.take(raw, at_uniform)
        u >>= 11
        u = u * 2.0**-53
        is_int = np.ones(len(raw), dtype=bool)
        is_int[at_uniform] = False
        words = raw[is_int]
        # Viewed as little-endian 32-bit pairs, the words are their low and
        # high halves in draw order.
        halves = words.astype("<u8", copy=False).view("<u4")
        if spare:
            halves = np.concatenate(([np.uint32(saved["uinteger"])], halves))
        m = halves[:n * k] * np.uint64(a)
        redraw_below = (2**32 - a) % a
        if redraw_below and ((m & 0xFFFFFFFF) < redraw_below).any():
            bits.state = saved
            return self._uniform_integer_loop(n, k, a)
        state = bits.state
        state["has_uint32"] = len(halves) - n * k
        if len(words):
            state["uinteger"] = int(words[-1] >> 32)
        bits.state = state
        m >>= 32
        # Every value is below 2**32, so int64 reads the same bits as uint64.
        return u, m.view(np.int64).reshape(n, k)

    def _uniform_integer_loop(self, n: int, k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.empty((n, k))
        fresh = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            u[i] = self.uniform(0.0, 1.0, k)
            fresh[i] = self.integers(a, size=k)
        return u, fresh


def rand_matrix(rng: Rng, rows: int, cols: int, scale: float = 1.0) -> Matrix:
    """Matrix with entries drawn uniformly from [-scale, +scale]."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rand_matrix: need positive dimensions, got {rows}x{cols}")
    if not scale > 0:
        raise ValueError(f"rand_matrix: scale must be positive, got {scale}")
    return rng.uniform(-scale, scale, (rows, cols))
