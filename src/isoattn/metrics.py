"""Classification scores and channel activation mapping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ChannelAttention, project
from .layer import EVAL_CHUNK
from .numerics import stack_matrices
from .synth import WindowSet

_ZERO_ROW_TOL = 1e-12


def _check_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name}: empty input")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name}: entries must be 0 or 1")
    return arr.astype(np.int64)


def accuracy(preds, labels) -> float:
    preds = _check_binary(preds, "accuracy")
    labels = _check_binary(labels, "accuracy")
    if preds.shape != labels.shape:
        raise ValueError(f"accuracy: shapes differ, {preds.shape} vs {labels.shape}")
    return float((preds == labels).mean())


def f1(preds, labels) -> float:
    """Binary F1 = 2 TP / (2 TP + FP + FN); 0 when that denominator is 0."""
    preds = _check_binary(preds, "f1")
    labels = _check_binary(labels, "f1")
    if preds.shape != labels.shape:
        raise ValueError(f"f1: shapes differ, {preds.shape} vs {labels.shape}")
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


@dataclass(frozen=True)
class ActivationRow:
    """Mean attention mass of one channel over the two window sets.

    For one window, the channel's mass is how much attention the active rows
    (nonzero projected query) place on the active columns (nonzero projected
    key), averaged over those rows; each such row mass lies in [0, 1] because
    the weight matrix is row-stochastic. A channel whose projection kills
    every row of every window in a set has no mass there and is reported as
    None instead of dividing by nothing. The ratio is motif /
    max(background, 1e-12) when both sides are present.
    """

    label: str
    motif_mass: float | None
    background_mass: float | None
    ratio: float | None


@dataclass(frozen=True)
class ActivationReport:
    rows: tuple[ActivationRow, ...]


def _features(windows):
    # A WindowSet's own features array as it is; windows or (k, d) matrices
    # stacked, or an empty list.
    if isinstance(windows, WindowSet):
        return windows.features
    feats = [w.features if hasattr(w, "features") else w for w in windows]
    return stack_matrices(feats) if feats else feats


def _check_windows(layer, name: str, windows: np.ndarray) -> None:
    """Reject a window set the layer cannot attend over, naming the set."""
    shape = (layer.window, layer.feature_dim)
    if windows.shape[1:] != shape:
        raise ValueError(f"activation_mapping: {name} windows must be {shape[0]}x{shape[1]}, "
                         f"got {windows.shape[1:]}")
    bad = np.flatnonzero(~np.isfinite(windows).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"activation_mapping: {name} window at index {bad[0]} has a "
                         f"non-finite feature")


def activation_mapping(layer, motif_windows, background_windows) -> ActivationReport:
    """Per-channel attention mass on motif versus background windows.

    Each set is a synth.WindowSet, whose features array is read as it is, or
    a sequence of windows or (k, d) feature matrices; that form and
    numerics.stack_matrices stay only because bench/run.py passes lists.
    Both sets are checked for the layer's (k, d) window shape and finite
    features before any kernel pass; a bad set raises ValueError naming it.

    Uses the pre-variant channel weights: each channel attends with
    softmax((Pq)(Pk)^T / sqrt(d)). Rows where the projected query vanishes
    carry no channel signal and are excluded, and the mass of a surviving row
    is the attention it pays to columns whose projected key survives; windows
    with no valid rows are excluded; channels degenerate on a whole set come
    back as None.
    """
    motifs, backgrounds = _features(motif_windows), _features(background_windows)
    if not len(motifs) or not len(backgrounds):
        raise ValueError("activation_mapping: both window sets must be non-empty")
    _check_windows(layer, "motif", motifs)
    _check_windows(layer, "background", backgrounds)
    ps = layer.projectors

    def set_masses(windows: np.ndarray) -> list[float | None]:
        masses, counted = [], []
        for start in range(0, len(windows), EVAL_CHUNK):
            px = project(ps.stack, windows[start:start + EVAL_CHUNK])
            qp, kp = px @ layer.w_q, px @ layer.w_k
            att = ChannelAttention(qp, kp, kp)  # vp is not read
            att.weigh()
            wts = att.weights
            valid_rows = np.abs(qp).max(axis=-1) > _ZERO_ROW_TOL  # (B, C, k)
            valid_cols = np.abs(kp).max(axis=-1) > _ZERO_ROW_TOL
            row_masses = (wts * valid_cols[:, :, None, :]).sum(axis=-1)
            n_rows = valid_rows.sum(axis=-1)
            masses.append((row_masses * valid_rows).sum(axis=-1) / np.maximum(n_rows, 1))
            # A window counts for a channel when it has a valid row and column.
            counted.append((n_rows > 0) & valid_cols.any(axis=-1))  # (B, C)
        masses, counted = np.concatenate(masses), np.concatenate(counted)
        return [float(masses[counted[:, c], c].mean()) if counted[:, c].any() else None
                for c in range(len(ps.stack))]

    rows = []
    for label, motif_mass, background_mass in zip(ps.labels, set_masses(motifs),
                                                  set_masses(backgrounds)):
        ratio = None
        if motif_mass is not None and background_mass is not None:
            ratio = motif_mass / max(background_mass, 1e-12)
        rows.append(ActivationRow(label, motif_mass, background_mass, ratio))
    return ActivationReport(rows=tuple(rows))
