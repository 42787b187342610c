"""Classification scores and channel activation mapping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import project
from .layer import EVAL_CHUNK, _check_windows, _Pass
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
    # stacked into one float64 array, or an empty list.
    if isinstance(windows, WindowSet):
        return windows.features
    feats = [w.features if hasattr(w, "features") else w for w in windows]
    return np.asarray(np.stack(feats), dtype=np.float64) if feats else feats


def activation_mapping(layer, motif_windows, background_windows) -> ActivationReport:
    """Per-channel attention mass on motif versus background windows.

    Each set is a synth.WindowSet, whose features array is read as it is, or
    a sequence of windows or (k, d) feature matrices, stacked with one
    np.stack; that form stays only because bench/run.py passes lists. Both
    sets are checked to be non-empty, of the layer's (k, d) window shape and
    of finite features before any kernel pass; a bad set raises ValueError
    naming it.

    Whatever the layer's variant, the layer pass's window map, run alone
    over every channel per EVAL_CHUNK windows, gives the pre-variant weights
    softmax((Pq)(Pk)^T / sqrt(d)). Rows where the projected query vanishes
    carry no channel signal and are excluded, and the mass of a surviving
    row is the attention it pays to columns whose projected key survives;
    windows with no valid rows are excluded; channels degenerate on a whole
    set come back as None.
    """
    motifs, backgrounds = _features(motif_windows), _features(background_windows)
    _check_windows(layer, "activation_mapping", "motif", motifs)
    _check_windows(layer, "activation_mapping", "background", backgrounds)
    ps = layer.projectors

    def set_masses(windows: np.ndarray) -> list[float | None]:
        masses, counted = [], []
        for chunk in np.split(windows, range(EVAL_CHUNK, len(windows), EVAL_CHUNK)):
            ws = _Pass(layer, len(chunk), ps.stack)
            ws.window_map(project(ps.stack, chunk, ws.px_buffer))
            qp, kp, wts = ws.att.qp, ws.att.kp, ws.att.weights
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
