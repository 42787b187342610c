"""A trainable window-attention classifier with symmetry channels.

Forward pass, for a window x of shape (k, d):

    q = x w_q,  k = x w_k,  v = x w_v
    y = attention output of the selected variant
    pooled = column mean of y over the k window rows
    e_c = ||P_c y||_F^2 / k, one energy per channel, with its projector P_c
    logits = pooled w_out + e w_energy

A stack of windows (B, k, d) runs through the same pass at once: the
attention is the batched channel-attention kernel of the attention module,
and the backward pass sums the weight gradients over the stack.

Variants share identical weight shapes so comparisons are parameter-matched:

    baseline  plain attention, ignores the projectors
    pre       per-channel attention on projected q/k/v, summed
    post      plain attention (its channel split is a post-hoc projection of
              the output, so training is identical to baseline)

The channel energies are read out for every variant, the baseline included,
so every variant has the same readout and differs only in its attention.
Mean pooling alone gives each non-trivial one-dimensional channel of the pre
variant (sign, alt, alt_sign) an exactly zero share of the logit, because its
column masses cancel in pairs; the energies are what let those channels, such
as the sign channel that tells palindromes apart, reach the readout.

Gradients are computed by hand. The only nonlinearity is the row softmax,
whose Jacobian is applied in closed form; the energies are quadratic in y.
The logits are invariant under the group action for every variant: y is
equivariant, the column mean of permuted rows is unchanged, and each P_c
commutes with the orthogonal window action, so ||P_c y|| is unchanged too.
This is checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import (ChannelAttention, channel_attention, channel_attention_vjp,
                        equivariance_report, project)
from .irreps import ProjectorSet
from .numerics import Matrix, Rng, as_matrix, rand_matrix

VARIANTS = ("baseline", "pre", "post")
WEIGHT_NAMES = ("w_q", "w_k", "w_v", "w_out", "w_energy")
# Windows per kernel pass in _evaluate and metrics.activation_mapping; bounds
# their memory on large window sets.
EVAL_CHUNK = 64


def loss_bce(logits, label):
    """Stable binary cross-entropy on a single logit per window.

    logits has shape (1,) for one window, with an int label, or (B, 1) for a
    stack, with B labels. Returns (loss, gradient wrt the logits): a float
    and shape (1,), or shape (B,) and (B, 1). The gradient is sigmoid(z) - y,
    and the loss is evaluated as max(z, 0) - z y + log(1 + exp(-|z|)) so
    large logits of either sign stay finite.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(label)
    if z.ndim not in (1, 2) or z.shape[-1] != 1:
        raise ValueError(f"loss_bce: expected a single logit per window, got shape {z.shape}")
    if y.shape != z.shape[:-1] or not ((y == 0) | (y == 1)).all():
        raise ValueError(f"loss_bce: expected one label of 0 or 1 per logit, got {label!r}")
    loss, grad = _bce(z, y)
    return (float(loss), grad) if z.ndim == 1 else (loss, grad)


def _bce(z: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """loss_bce without its checks: logits z (..., 1), labels y of shape z.shape[:-1]."""
    z = z[..., 0]
    t = np.exp(-np.abs(z))
    loss = np.maximum(z, 0.0) - z * y + np.log1p(t)
    # sigmoid(z) from exp(-|z|), which cannot overflow.
    sigmoid = np.where(z >= 0.0, 1.0, t) / (1.0 + t)
    return loss, (sigmoid - y)[..., None]


def _weight(index: int) -> property:
    # A read-only attribute over one weight's view of the flat buffer.
    return property(lambda self: self._weights[index],
                    doc=f"{WEIGHT_NAMES[index]}: a view into params; edit it in place.")


class WindowAttentionLayer:
    """Window attention with a linear readout of pooled and invariant features.

    The readout sees the column mean of the attention output through w_out
    (d x n_classes) and one energy ||P_c y||_F^2 / k per channel of the
    projector set through w_energy (one row per channel, n_classes columns).
    w_energy is optional and defaults to zeros, which makes the logits
    exactly pooled w_out.

    The five weights are views into one flat float64 buffer, params, laid
    out in WEIGHT_NAMES order, so one in-place update of params moves all
    of them. They cannot be rebound (layer.w_q = m raises AttributeError,
    since it would detach w_q from the buffer); edit them in place instead.
    """

    w_q, w_k, w_v, w_out, w_energy = (_weight(i) for i in range(len(WEIGHT_NAMES)))

    def __init__(self, projectors: ProjectorSet, w_q: Matrix, w_k: Matrix,
                 w_v: Matrix, w_out: Matrix, variant: str, w_energy: Matrix | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        w_q, w_k, w_v, w_out = (np.array(w, dtype=np.float64) for w in (w_q, w_k, w_v, w_out))
        d = w_q.shape[0]
        for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            if w.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got {w.shape}")
        if w_out.ndim != 2 or w_out.shape[0] != d:
            raise ValueError(f"w_out must have {d} rows, got shape {w_out.shape}")
        energy_shape = (len(projectors.stack), w_out.shape[1])
        w_energy = (np.zeros(energy_shape) if w_energy is None
                    else np.array(w_energy, dtype=np.float64))
        if w_energy.shape != energy_shape:
            raise ValueError(f"w_energy must have shape {energy_shape}, got {w_energy.shape}")
        self.projectors = projectors
        self.variant = variant
        weights = (w_q, w_k, w_v, w_out, w_energy)
        ends = np.cumsum([w.size for w in weights])
        self._layout = tuple((slice(end - w.size, end), w.shape)
                             for end, w in zip(ends, weights))
        self._params = np.concatenate([w.ravel() for w in weights])
        self._weights = self._split(self._params)
        # Row c is P_c / k flattened, so energies = rows @ vec(y y^T): since P_c
        # is a symmetric idempotent, <P_c, y y^T> = ||P_c y||_F^2.
        kwin = projectors.window
        self._energy_rows = projectors.stack.reshape(len(projectors.stack), -1) / kwin

    @classmethod
    def random(cls, projectors: ProjectorSet, feature_dim: int, n_classes: int,
               variant: str, rng: Rng) -> "WindowAttentionLayer":
        """Uniform init in [-s, s] with s = 1/sqrt(feature_dim); w_energy starts at zero."""
        if feature_dim < 1 or n_classes < 1:
            raise ValueError(f"feature_dim and n_classes must be >= 1, got {feature_dim} "
                             f"and {n_classes}")
        s = feature_dim ** -0.5
        return cls(projectors,
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, n_classes, s),
                   variant)

    @property
    def params(self) -> np.ndarray:
        """The flat float64 buffer behind the five weights, in WEIGHT_NAMES order."""
        return self._params

    @property
    def window(self) -> int:
        return self.projectors.window

    @property
    def feature_dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[1]

    def _split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The five weight-shaped views of a buffer laid out like params."""
        return tuple(flat[part].reshape(shape) for part, shape in self._layout)

    def _project(self, x) -> np.ndarray:
        """The channel stack (B, C, k, d) of one window (k, d) or a stack
        (B, k, d). Projecting x before the weight maps is the same as
        projecting q, k and v: P_c (x w) = (P_c x) w."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-2:] != (self.window, self.feature_dim) or x.ndim not in (2, 3) \
                or x.shape[0] < 1:
            raise ValueError(f"forward: expected {self.window}x{self.feature_dim} windows, "
                             f"got shape {x.shape}")
        return project(self.projectors.stack if self.variant == "pre" else None,
                       x.reshape(-1, self.window, self.feature_dim))

    def _attend(self, px: np.ndarray) -> ChannelAttention:
        w_q, w_k, w_v = self._weights[:3]
        return channel_attention(px @ w_q, px @ w_k, px @ w_v)

    # _forward and _backward hold the layer's math, on a channel stack px
    # (B, C, k, d); the public methods below validate and reshape around them.

    def _forward(self, px: np.ndarray):
        """Logits (B, n_classes) and the state _backward reads."""
        att = self._attend(px)
        y = att.total
        pooled = y.sum(axis=1) / self.window
        energy = (y @ y.swapaxes(1, 2)).reshape(len(y), -1) @ self._energy_rows.T
        logits = pooled @ self._weights[3] + energy @ self._weights[4]
        return logits, (px, att, pooled, energy)

    def _backward(self, state, dlogits: np.ndarray, out: tuple[np.ndarray, ...]) -> None:
        """Writes the five weight gradients, summed over the B windows, into
        out (views shaped like the weights) given d(loss)/d(logits) of shape
        (B, n_classes)."""
        px, att, pooled, energy = state
        b, _, kwin, d = px.shape
        w_out, w_energy = self._weights[3:]
        g_q, g_k, g_v, g_out, g_energy = out
        np.matmul(pooled.T, dlogits, out=g_out)
        np.matmul(energy.T, dlogits, out=g_energy)
        dpooled = dlogits @ w_out.T
        denergy = dlogits @ w_energy.T
        # pooled = (1/k) ones^T y adds dpooled / k to every row of dy, and
        # e_c = ||P_c y||^2 / k adds 2 (sum_c denergy_c P_c / k) y.
        dy = 2.0 * (denergy @ self._energy_rows).reshape(b, kwin, kwin) @ att.total \
            + dpooled[:, None, :] / kwin
        # qp = px w_q, so d w_q sums px^T dqp over windows and channels.
        dqp, dkp, dvp = channel_attention_vjp(att, dy)
        pxt = px.reshape(-1, d).T
        np.matmul(pxt, dqp.reshape(-1, d), out=g_q)
        np.matmul(pxt, dkp.reshape(-1, d), out=g_k)
        np.matmul(pxt, dvp.reshape(-1, d), out=g_v)

    def forward(self, x) -> tuple[np.ndarray, dict]:
        """Logits of one window (k, d), shape (n_classes,), or of a stack
        (B, k, d), shape (B, n_classes). The cache entries y, pooled and
        energy carry the same leading window axis as the input; energy has
        one entry per channel. The channel axis of px and attention counts
        the attending channels: one for baseline and post, every channel for
        pre."""
        px = self._project(x)
        logits, (_, att, pooled, energy) = self._forward(px)
        y = att.total
        if np.ndim(x) == 2:
            logits, y, pooled, energy = logits[0], y[0], pooled[0], energy[0]
        cache = {"layer": self, "px": px, "attention": att, "y": y, "pooled": pooled,
                 "energy": energy}
        return logits, cache

    def window_map(self, x) -> Matrix:
        """The pre-pooling window-to-window map; equivariant for all variants."""
        return self._attend(self._project(x)).total.reshape(np.shape(x))

    def backward(self, cache: dict, dlogits) -> dict[str, Matrix]:
        """Gradients of the five weight matrices given d(loss)/d(logits),
        summed over the windows of the cache. They are views into one flat
        gradient laid out like params."""
        if cache.get("layer") is not self:
            raise ValueError("backward: cache does not belong to this layer")
        px = cache["px"]
        b = len(px)
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.size != b * self.n_classes:
            raise ValueError(f"backward: dlogits must have shape "
                             f"{cache['pooled'].shape[:-1] + (self.n_classes,)}")
        state = (px, cache["attention"], cache["pooled"].reshape(b, -1),
                 cache["energy"].reshape(b, -1))
        grads = self._split(np.empty_like(self._params))
        self._backward(state, dlogits.reshape(b, self.n_classes), grads)
        return dict(zip(WEIGHT_NAMES, grads))

    def loss_and_grads(self, x, label):
        """Loss and weight gradients of one window, or per-window losses (B,)
        and batch-summed gradients of a stack with B labels."""
        logits, cache = self.forward(x)
        loss, dlogits = loss_bce(logits, label)
        return loss, self.backward(cache, dlogits)


def finite_diff_check(layer: WindowAttentionLayer, x, label: int,
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The relative error of a pair (a, b) is |a - b| / max(|a|, |b|, 1e-4).
    The 1e-4 floor keeps central-difference round-off (about 1e-11 per entry
    at eps = 1e-5 for unit-scale losses) from registering as error on
    components whose true gradient is near zero. eps must lie in
    [1e-7, 1e-4].
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"finite_diff_check: eps {eps} outside [1e-7, 1e-4]")
    x = as_matrix(x)
    _, grads = layer.loss_and_grads(x, label)
    worst = 0.0
    for name in WEIGHT_NAMES:
        w = getattr(layer, name)
        g = grads[name]
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            up, _ = loss_bce(layer.forward(x)[0], label)
            w[idx] = orig - eps
            down, _ = loss_bce(layer.forward(x)[0], label)
            w[idx] = orig
            fd = (up - down) / (2.0 * eps)
            a = float(g[idx])
            rel = abs(fd - a) / max(abs(fd), abs(a), 1e-4)
            worst = max(worst, rel)
    return worst


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float
    seed: int
    batch_size: int = 1
    # train never reads task; it stays because the CLI and bench/run.py pass it.
    task: str = ""
    tracker_trials: int = 2


def _as_arrays(items) -> tuple[np.ndarray, np.ndarray]:
    """Window stack (N, k, d) and labels (N,) of windows or (features, label) pairs."""
    feats, labels = [], []
    for item in items:
        if hasattr(item, "features") and hasattr(item, "label"):
            f, label = item.features, item.label
        else:
            f, label = item
        feats.append(as_matrix(f))
        labels.append(label)
    if not feats:
        return np.empty((0, 0, 0)), np.empty(0, dtype=np.int64)
    # Labels keep their values, so a label such as 0.5 fails the 0/1 check
    # instead of being truncated.
    return np.stack(feats), np.array(labels)


def _evaluate(layer: WindowAttentionLayer, xs: np.ndarray,
              labels: np.ndarray) -> tuple[float, float]:
    """Mean loss and accuracy over a window stack with valid 0/1 labels, one
    forward pass per EVAL_CHUNK windows."""
    losses = []
    correct = 0
    for start in range(0, len(xs), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        logits, _ = layer.forward(xs[chunk])
        loss, _ = _bce(logits, labels[chunk])
        losses.append(loss)
        correct += int(((logits[:, 0] > 0.0) == (labels[chunk] == 1)).sum())
    return math.fsum(np.concatenate(losses)) / len(xs), correct / len(xs)


def _check_split(layer: WindowAttentionLayer, name: str, xs: np.ndarray,
                 labels: np.ndarray) -> None:
    """Reject a split that training cannot use, naming its first bad window."""
    if xs.shape[1:] != (layer.window, layer.feature_dim):
        raise ValueError(f"train: {name} windows must be {layer.window}x"
                         f"{layer.feature_dim}, got {xs.shape[1:]}")
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValueError(f"train: {name} label at index {bad[0]} is "
                         f"{labels[bad[0]]}, expected 0 or 1")
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"train: {name} window at index {bad[0]} has a non-finite feature")


def _diverged(epoch: int, step: int, epoch_losses: list, batch_size: int,
              what: str) -> RuntimeError:
    # Names the first step of the epoch whose loss is not finite, if any,
    # else the step that was running.
    losses = np.concatenate(epoch_losses) if epoch_losses else np.empty(0)
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        step, what = bad[0] // batch_size + 1, f"train loss {float(losses[bad[0]])!r}"
    return RuntimeError(f"train: loss diverged at epoch {epoch}, step {step} ({what})")


def train(layer: WindowAttentionLayer, train_data, val_data,
          cfg: TrainConfig) -> list[dict]:
    """Plain SGD with mean gradients per shuffled mini-batch.

    Returns one history row per epoch: epoch, train_loss, val_loss, val_acc
    and equivariance_max (the layer's window map, checked against its group).

    Before any weight changes, the call checks both splits (window shape,
    finite features, labels of 0 or 1) and projects the training windows
    once; each step then runs the layer's internal forward and backward
    passes on its rows of that stack and updates the flat params buffer in
    place. Step s of an epoch covers windows order[(s-1) b : s b] of that
    epoch's shuffle, with b = batch_size. With clean inputs a non-finite
    value can only come from diverging weights: it raises RuntimeError
    naming the epoch and step instead of training on.
    """
    if cfg.epochs < 1:
        raise ValueError(f"train: epochs must be >= 1, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ValueError(f"train: batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.tracker_trials < 1:
        raise ValueError(f"train: tracker_trials must be >= 1, got {cfg.tracker_trials}")
    train_x, train_y = _as_arrays(train_data)
    val_x, val_y = _as_arrays(val_data)
    if not len(train_x) or not len(val_x):
        raise ValueError("train: empty train or validation split")
    _check_split(layer, "train", train_x, train_y)
    _check_split(layer, "validation", val_x, val_y)
    train_px = layer._project(train_x)

    n, batch_size, params = len(train_x), cfg.batch_size, layer.params
    # Every step writes its gradient into the same buffer, laid out like params.
    grad = np.empty_like(params)
    grads = layer._split(grad)
    shuffle_rng = Rng(cfg.seed).derive(1)
    history = []
    # Diverging weights overflow long before softmax_rows rejects them, so
    # numpy's warnings are silenced and the error names the step instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            epoch_losses = []
            step = 0
            try:
                for step, start in enumerate(range(0, n, batch_size), 1):
                    batch = order[start:start + batch_size]
                    logits, state = layer._forward(train_px[batch])
                    losses, dlogits = _bce(logits, train_y[batch])
                    epoch_losses.append(losses)
                    layer._backward(state, dlogits, grads)
                    params -= cfg.learning_rate * grad / len(batch)
                losses = np.concatenate(epoch_losses)
                if not np.isfinite(losses).all():
                    raise _diverged(epoch, step, epoch_losses, batch_size, "train loss")
                # fsum keeps the reported loss independent of the shuffle order.
                train_loss = math.fsum(losses) / n
                val_loss, val_acc = _evaluate(layer, val_x, val_y)
                if not math.isfinite(val_loss):
                    raise _diverged(epoch, step, epoch_losses, batch_size,
                                    f"validation loss {val_loss!r}")
                report = equivariance_report(
                    layer.window_map, layer.projectors.group, layer.feature_dim,
                    cfg.tracker_trials, Rng(cfg.seed).derive(1000 + epoch))
            except (ValueError, OverflowError) as exc:
                # softmax_rows rejecting non-finite scores, or fsum overflowing.
                raise _diverged(epoch, step, epoch_losses, batch_size, str(exc)) from None
            history.append({"epoch": epoch,
                            "train_loss": float(train_loss),
                            "val_loss": float(val_loss),
                            "val_acc": float(val_acc),
                            "equivariance_max": float(report.max_error)})
    return history
