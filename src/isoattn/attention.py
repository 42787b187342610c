"""Scaled dot-product attention and its symmetry-channel decompositions.

Plain attention on a window is softmax_rows(q k^T / sqrt(d)) v. Because
conjugating a matrix by a permutation commutes with the row softmax, this map
is equivariant under the window action of any permutation group when q, k, v
all come from the same window.

Two decompositions split it into one channel per isotypic projector P:

    post: channel = P @ attention(q, k, v); the channels share the plain
          attention weights and sum exactly to plain attention.
    pre:  channel = softmax_rows((Pq)(Pk)^T / sqrt(d)) @ (Pv); the total is
          defined as the channel sum. Each channel is itself equivariant,
          but the total is not numerically equal to plain attention.

Channels whose irrep does not occur in the window carry a zero projector:
their weights are uniform rows and their output is exactly zero.

Every attention in the package runs through one batched kernel: `project`
splits a stack of windows into channels, `channel_attention` attends in all
channels of all windows with batched matmuls, and `channel_attention_vjp`
is its closed-form backward. The single-window functions below, the layer's
forward and backward passes and `metrics.activation_mapping` all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, Permutation, permute_rows
from .irreps import ProjectorSet
from .numerics import (Matrix, Rng, as_matrix, frobenius_sq, rand_matrix, softmax_rows,
                       softmax_rows_vjp)


def _check_qkv(q, k, v) -> tuple[Matrix, Matrix, Matrix]:
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"attention: q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
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
    # One window through the kernel.
    return channel_attention(*(project(stack, m[None]) for m in (q, k, v)))


# ---------- single-window attention and decompositions ----------

def attention_weights(q: Matrix, k: Matrix) -> Matrix:
    """Row-stochastic weights softmax_rows(q k^T / sqrt(d))."""
    return channel_weights(q[None, None], k[None, None])[0, 0]


def attention(q, k, v) -> Matrix:
    q, k, v = _check_qkv(q, k, v)
    return _channels(q, k, v, None).total[0]


@dataclass(frozen=True, eq=False)
class Channel:
    label: str
    output: Matrix
    weights: Matrix


@dataclass(frozen=True, eq=False)
class DecompositionOutput:
    total: Matrix
    channels: tuple[Channel, ...]


def _check_window(q: Matrix, ps: ProjectorSet) -> None:
    if q.shape[0] != ps.window:
        raise ValueError(f"decomposition: window is {ps.window}, input has {q.shape[0]} rows")


def decompose_post(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Project the plain attention output onto each isotypic component."""
    q, k, v = _check_qkv(q, k, v)
    _check_window(q, ps)
    att = _channels(q, k, v, None)
    total, weights = att.total[0], att.weights[0, 0]
    outputs = ps.stack @ total
    channels = tuple(Channel(item.irrep.label, out, weights)
                     for item, out in zip(ps.items, outputs))
    return DecompositionOutput(total=total, channels=channels)


def decompose_pre(q, k, v, ps: ProjectorSet) -> DecompositionOutput:
    """Run attention inside each isotypic component and sum the results."""
    q, k, v = _check_qkv(q, k, v)
    _check_window(q, ps)
    att = _channels(q, k, v, ps.stack)
    channels = tuple(Channel(item.irrep.label, out, wts)
                     for item, out, wts in zip(ps.items, att.outputs[0], att.weights[0]))
    return DecompositionOutput(total=att.total[0], channels=channels)


def equivariance_error(fn, x, h: Permutation) -> float:
    """Squared Frobenius norm of fn(action(h) x) - action(h) fn(x).

    fn must map window-by-feature matrices to matrices of the same shape.
    """
    x = as_matrix(x)
    left = fn(permute_rows(h, x))
    base = fn(x)
    if np.asarray(base).shape != x.shape or np.asarray(left).shape != x.shape:
        raise ValueError("equivariance_error: fn changed the window shape")
    return frobenius_sq(left - permute_rows(h, base))


@dataclass(frozen=True)
class EquivarianceReport:
    max_error: float
    mean_error: float
    trials: int
    group_order: int


def equivariance_report(fn, g: FiniteGroup, feature_dim: int, trials: int,
                        rng: Rng) -> EquivarianceReport:
    """Exhaustive-in-h, sampled-in-x equivariance check of a window map."""
    if trials < 1:
        raise ValueError(f"equivariance_report: trials must be >= 1, got {trials}")
    errors = []
    for _ in range(trials):
        x = rand_matrix(rng, g.degree, feature_dim, 1.0)
        for h in g.elements:
            errors.append(equivariance_error(fn, x, h))
    return EquivarianceReport(max_error=max(errors),
                              mean_error=float(np.mean(errors)),
                              trials=trials, group_order=g.order)
