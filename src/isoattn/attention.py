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

Every attention in the package runs through one batched kernel: `project`
splits a stack of windows into channels, `channel_attention` attends in all
channels of all windows with batched matmuls, and `channel_attention_vjp`
is its closed-form backward. The attention functions below (which take one
window or a stack), the layer's forward and backward passes and
`metrics.activation_mapping` all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, permute_rows
from .irreps import ProjectorSet
from .numerics import (Rng, as_matrix, frobenius_sq, rand_matrix, softmax_rows,
                       softmax_rows_vjp)


def _check_qkv(q, k, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v = (np.asarray(m, dtype=np.float64) for m in (q, k, v))
    if q.ndim not in (2, 3) or 0 in q.shape or not (q.shape == k.shape == v.shape):
        raise ValueError(f"attention: expected equal (k, d) or (B, k, d) q/k/v, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    return q, k, v


# ---------- the channel-attention kernel ----------
#
# Shapes: B windows, C channels, n window rows, d features. A stack of
# windows (B, n, d) is split into channels by a projector stack (C, n, n),
# such as ProjectorSet.stack; a stack of None stands for one unprojected
# channel (plain attention) and skips the projection. Attention then runs in
# every channel of every window at once.

def project(stack, m: np.ndarray) -> np.ndarray:
    """(B, C, n, d) channel copies P_c m of a window stack m (B, n, d)."""
    return m[:, None] if stack is None else stack @ m[:, None]


def channel_weights(qp: np.ndarray, kp: np.ndarray) -> np.ndarray:
    """Row-stochastic weights softmax_rows(qp kp^T / sqrt(d)), (B, C, n, n),
    of projected query and key stacks (B, C, n, d)."""
    return softmax_rows((qp @ kp.swapaxes(-1, -2)) / math.sqrt(qp.shape[-1]))


@dataclass(eq=False)
class ChannelAttention:
    """Forward state of channel attention over a stack of windows."""

    qp: np.ndarray       # (B, C, n, d) projected queries
    kp: np.ndarray       # (B, C, n, d) projected keys
    vp: np.ndarray       # (B, C, n, d) projected values
    weights: np.ndarray  # (B, C, n, n) row-stochastic weights
    outputs: np.ndarray  # (B, C, n, d) channel outputs weights @ vp
    total: np.ndarray    # (B, n, d) channel sum


def channel_attention(qp, kp, vp) -> ChannelAttention:
    """Attention inside each channel of every window, summed over channels.

    qp, kp and vp are projected (B, C, n, d) stacks, as made by project.
    """
    if qp.ndim != 4 or not (qp.shape == kp.shape == vp.shape):
        raise ValueError(f"channel_attention: expected equal (B, C, n, d) stacks, got "
                         f"{qp.shape}, {kp.shape}, {vp.shape}")
    wts = channel_weights(qp, kp)
    outputs = wts @ vp
    return ChannelAttention(qp, kp, vp, wts, outputs, outputs.sum(axis=1))


def channel_attention_vjp(att: ChannelAttention, dtotal: np.ndarray):
    """Gradients (dqp, dkp, dvp) wrt the projected stacks, each (B, C, n, d),
    given d(loss)/d(total) of shape (B, n, d)."""
    dout = dtotal[:, None]
    ds = softmax_rows_vjp(att.weights, dout @ att.vp.swapaxes(-1, -2)) \
        / math.sqrt(att.qp.shape[-1])
    return (ds @ att.kp, ds.swapaxes(-1, -2) @ att.qp,
            att.weights.swapaxes(-1, -2) @ dout)


def _channels(q, k, v, stack) -> ChannelAttention:
    # One window (k, d) or a stack (B, k, d) through the kernel.
    return channel_attention(*(project(stack, m.reshape(-1, *m.shape[-2:])) for m in (q, k, v)))


def _like(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    # A kernel result (B, ...) with the leading window axis of the input q.
    return a[0] if q.ndim == 2 else a


# ---------- attention and decompositions of one window or a stack ----------
#
# q, k and v are one window (k, d) or a stack (B, k, d). Outputs, channel
# outputs and channel weights carry the same leading axis as the input.

def attention(q, k, v) -> np.ndarray:
    q, k, v = _check_qkv(q, k, v)
    return _like(_channels(q, k, v, None).total, q)


@dataclass(frozen=True, eq=False)
class Channel:
    label: str
    output: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class DecompositionOutput:
    total: np.ndarray
    channels: tuple[Channel, ...]


def _check_window(q: np.ndarray, ps: ProjectorSet) -> None:
    if q.shape[-2] != ps.window:
        raise ValueError(f"decomposition: window is {ps.window}, input has {q.shape[-2]} rows")


def decompose_post(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Project the plain attention output onto each isotypic component."""
    q, k, v = _check_qkv(q, k, v)
    _check_window(q, ps)
    att = _channels(q, k, v, None)
    weights = _like(att.weights[:, 0], q)
    outputs = (ps.stack @ att.total[:, None]).swapaxes(0, 1)
    channels = tuple(Channel(label, _like(out, q), weights)
                     for label, out in zip(ps.labels, outputs))
    return DecompositionOutput(total=_like(att.total, q), channels=channels)


def decompose_pre(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Run attention inside each isotypic component and sum the results."""
    q, k, v = _check_qkv(q, k, v)
    _check_window(q, ps)
    att = _channels(q, k, v, ps.stack)
    channels = tuple(Channel(label, _like(out, q), _like(wts, q))
                     for label, out, wts in zip(ps.labels, att.outputs.swapaxes(0, 1),
                                                att.weights.swapaxes(0, 1)))
    return DecompositionOutput(total=_like(att.total, q), channels=channels)


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
    """
    if trials < 1:
        raise ValueError(f"equivariance_report: trials must be >= 1, got {trials}")
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
