"""Scaled dot-product attention and its symmetry-channel decompositions.

Plain attention on a window is softmax_rows(q k^T / sqrt(d)) v. Because
conjugating a matrix by a permutation commutes with the row softmax, this map
is equivariant under the window action of any permutation group when q, k, v
all come from the same window.

Two decompositions split it into one channel per irrep that occurs in the
window action, with its isotypic projector P:

    post: channel = P @ attention(q, k, v); the channels share the plain
          attention weights and sum exactly to plain attention.
    pre:  channel = softmax_rows((Pq)(Pk)^T / sqrt(d)) @ (Pv); the total is
          defined as the channel sum. Each channel is itself equivariant,
          but the total is not numerically equal to plain attention.

Every attention in the package runs through one batched kernel, a
`ChannelAttention`: `project` splits a stack of windows into channels, the
kernel's forward attends in all channels of all windows with batched
matmuls, and its backward is the closed-form vjp. The kernel makes its
scores key-major and normalises them in place with numerics.softmax_columns,
in softmax_rows' summation order and without its transposed copy.

A `ChannelAttention` is the workspace of one pass over stacks of one shape
(B, C, n, d): every array from the scores to the gradients, written with
out= and in-place ufuncs in the order of operations of the plain formulas
by a forward and a backward bound once, as closures over them. It is the
kernel's only entry, and it checks the stacks it is given. Every caller
makes one and calls its bound passes: the attention functions below (one
window or a stack) share one entry that checks q, k and v (finite values
included) and runs a fresh one's forward, so nothing they return is
overwritten by a later call; the layer's pass
makes one over its own q/k/v block and runs its forward and backward, or
its window map alone (`isoattn check`, `metrics.activation_mapping`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, permute_rows
from .irreps import ProjectorSet
from .numerics import Rng, as_matrix, frobenius_sq, rand_matrix, softmax_columns, softmax_vjp


# ---------- the channel-attention kernel ----------
#
# Shapes: B windows, C channels, n window rows, d features. A stack of
# windows (B, n, d) is split into channels by a projector stack (C, n, n),
# such as ProjectorSet.stack; a stack of None stands for one unprojected
# channel (plain attention) and skips the projection. Attention then runs in
# every channel of every window at once.

def project(stack, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(B, C, n, d) channel copies P_c m of a window stack m (B, n, d),
    written into out when it is given; with no stack, a view of m."""
    return m[:, None] if stack is None else np.matmul(stack, m[:, None], out=out)


class ChannelAttention:
    """Workspace and state of channel attention on projected stacks qp, kp
    and vp of one shape (B, C, n, d), the kernel's only entry.

    It makes every array the kernel writes. Only the passes read the
    key-major scores (n, B C n), their finiteness mask and one (B C n,)
    buffer for the softmax column max and then the column sums. Callers
    read the attributes weights, the row-stochastic (B, C, n, n); outputs,
    the channel outputs weights @ vp (B, C, n, d); and total, their channel
    sum (B, n, d). make_backward, called once before the first backward
    through the workspace, adds the softmax-vjp arrays and grads
    (3, B, C, n, d). A later call through the same workspace overwrites
    them all.

    The passes are bound once: forward() writes the scores and the weights,
    then mixes the values and sums the channels, and backward(dout), bound
    by make_backward, runs the vjp given d(loss)/d(total) as a
    (B, 1, n, d) view and returns grads: dqp, dkp and dvp in that order.
    Each is a closure over the arrays and views it reads and writes, never
    over the workspace itself, so a workspace is freed by reference
    counting alone.
    """

    def __init__(self, qp, kp, vp):
        if qp.ndim != 4 or not (qp.shape == kp.shape == vp.shape):
            raise ValueError(f"ChannelAttention: expected equal (B, C, n, d) stacks, got "
                             f"{qp.shape}, {kp.shape}, {vp.shape}")
        b, c, n, d = qp.shape
        self.qp, self.kp, self.vp = qp, kp, vp
        self.scale = scale = math.sqrt(d)
        scores = np.empty((n, b * c * n))
        finite = np.empty(scores.shape, dtype=bool)
        columns = np.empty(b * c * n)
        self.weights = weights = np.empty((b, c, n, n))
        self.outputs = outputs = np.empty(qp.shape)
        self.total = total = np.empty((b, n, d))
        self.grads = self.backward = None
        # kp qp^T lands key-major, as (B, C, n keys, n queries) axes of the
        # scores: the layout softmax_rows makes by copying, so
        # softmax_columns normalises them in place in the same summation
        # order, into the weights.
        qp_t = qp.swapaxes(-1, -2)
        scores_kq = scores.reshape(n, b, c, n).transpose(1, 2, 0, 3)
        weights_rows = weights.reshape(-1, n)
        matmul, divide, add_reduce = np.matmul, np.divide, np.add.reduce

        def forward() -> None:
            matmul(kp, qp_t, out=scores_kq)
            divide(scores, scale, out=scores)
            softmax_columns(scores, weights_rows, finite, columns)
            matmul(weights, vp, out=outputs)
            add_reduce(outputs, 1, out=total)
        self.forward = forward

    def make_backward(self) -> None:
        """Allocates the backward arrays and binds backward over them."""
        qp, kp, vp, weights, scale = self.qp, self.kp, self.vp, self.weights, self.scale
        dscores, product = np.empty(weights.shape), np.empty(weights.shape)
        row_sums = np.empty(weights.shape[:-1] + (1,))
        self.grads = grads = np.empty((3,) + qp.shape)
        vp_t, weights_t = vp.swapaxes(-1, -2), weights.swapaxes(-1, -2)
        dscores_t = dscores.swapaxes(-1, -2)
        dqp, dkp, dvp = grads
        matmul, divide = np.matmul, np.divide

        def backward(dout: np.ndarray) -> np.ndarray:
            matmul(dout, vp_t, out=dscores)
            softmax_vjp(weights, dscores, dscores, product, row_sums)
            divide(dscores, scale, out=dscores)
            matmul(dscores, kp, out=dqp)
            matmul(dscores_t, qp, out=dkp)
            matmul(weights_t, dout, out=dvp)
            return grads
        self.backward = backward


def lift(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """x as a window stack, one window (k, d) as a stack of one whose results
    are read back at index 0; and whether x was one window."""
    return (x[None], True) if x.ndim == 2 else (x, False)


# ---------- attention and decompositions of one window or a stack ----------
#
# q, k and v are one window (k, d) or a stack (B, k, d). Outputs, channel
# outputs and channel weights carry the same leading axis as the input; the
# decompositions take the channel axis of a kernel array (..., C, n, x),
# read back or not, to the front with swapaxes(0, -3).

def _attend(q, k, v, ps: ProjectorSet | None = None, stack=None) -> tuple[ChannelAttention, bool]:
    """The one-shot functions' entry: q, k and v as float64, checked, through
    a fresh ChannelAttention over stack; and whether they were one window."""
    q, k, v = qkv = [np.asarray(m, dtype=np.float64) for m in (q, k, v)]
    if q.ndim not in (2, 3) or 0 in q.shape or not (q.shape == k.shape == v.shape):
        raise ValueError(f"attention: expected equal (k, d) or (B, k, d) q/k/v, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if ps is not None and q.shape[-2] != ps.window:
        raise ValueError(f"decomposition: window is {ps.window}, input has {q.shape[-2]} rows")
    for name, m in zip("qkv", qkv):
        if not np.isfinite(m).all():
            raise ValueError(f"attention: {name} has a non-finite entry")
    (q, one), (k, _), (v, _) = map(lift, qkv)
    att = ChannelAttention(project(stack, q), project(stack, k), project(stack, v))
    att.forward()
    return att, one


def attention(q, k, v) -> np.ndarray:
    att, one = _attend(q, k, v)
    return att.total[0] if one else att.total


@dataclass(frozen=True, eq=False)
class Channel:
    label: str
    output: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class DecompositionOutput:
    total: np.ndarray
    channels: tuple[Channel, ...]


def decompose_post(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Project the plain attention output onto each isotypic component."""
    att, one = _attend(q, k, v, ps)
    total, weights, outputs = (a[0] if one else a for a in
                               (att.total, att.weights[:, 0], ps.stack @ att.total[:, None]))
    channels = tuple(Channel(label, out, weights)
                     for label, out in zip(ps.labels, outputs.swapaxes(0, -3)))
    return DecompositionOutput(total, channels)


def decompose_pre(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Run attention inside each isotypic component and sum the results."""
    att, one = _attend(q, k, v, ps, ps.stack)
    total, weights, outputs = (a[0] if one else a for a in (att.total, att.weights, att.outputs))
    channels = tuple(map(Channel, ps.labels, outputs.swapaxes(0, -3), weights.swapaxes(0, -3)))
    return DecompositionOutput(total, channels)


# ---------- equivariance of window maps ----------
#
# A window map fn takes a stack of windows (B, k, d) to a stack of the same
# shape, window by window; every map in the package does. The helpers below
# pass it many windows per call.

# Bound on B k^2 per window-map call: one (k, k) attention weight matrix per
# window and channel, so a call holds at most about this many weights per
# channel (and still at least one window).
_REPORT_CHUNK = 4096


def _map_stack(fn, stack: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(stack), dtype=np.float64)
    if out.shape != stack.shape:
        raise ValueError(f"equivariance: fn changed the window stack shape "
                         f"{stack.shape} to {out.shape}")
    return out


def equivariance_error(fn, x, h) -> float:
    """Squared Frobenius norm of fn(action(h) x) - action(h) fn(x) for a mapping h.

    fn maps a stack of windows (B, k, d) to a stack of the same shape; it is
    called once, on the stack (x, action(h) x).
    """
    x = as_matrix(x)
    out = _map_stack(fn, np.stack((x, permute_rows(h, x))))
    return frobenius_sq(out[1] - permute_rows(h, out[0]))


@dataclass(frozen=True)
class EquivarianceReport:
    max_error: float
    mean_error: float
    trials: int
    group_order: int


def equivariance_report(fn, g: FiniteGroup, feature_dim: int, trials: int,
                        rng: Rng) -> EquivarianceReport:
    """Exhaustive-in-h, sampled-in-x equivariance check of a window map.

    fn maps a stack of windows (B, k, d) to a stack of the same shape. Each
    trial draws one window x and evaluates its |G| images action(h) x
    together, in calls of at most max(1, 4096 // k^2) windows; fn(x) is the
    identity element's slot. Any non-finite error makes max_error non-finite.
    trials must be an integer >= 1, checked before anything is drawn; the
    report holds it as a Python int.
    """
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"equivariance_report: trials must be an integer >= 1, got {trials!r}")
    trials = int(trials)
    # Row i is h_i^-1, so x[inv] stacks action(h_i) x = x[h_i^-1] for every i.
    inv = g.inverse_perm
    chunk = max(1, _REPORT_CHUNK // g.degree ** 2)
    errors = []
    for _ in range(trials):
        x = rand_matrix(rng, g.degree, feature_dim, 1.0)
        moved = x[inv]
        out = np.concatenate([_map_stack(fn, moved[s:s + chunk])
                              for s in range(0, g.order, chunk)])
        errors.append(((out - out[g.identity_index][inv]) ** 2).sum((1, 2)))
    errors = np.concatenate(errors)
    return EquivarianceReport(max_error=float(errors.max()),
                              mean_error=float(errors.mean()),
                              trials=trials, group_order=g.order)
