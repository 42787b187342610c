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

from .attention import ChannelAttention, equivariance_report, project
from .irreps import ProjectorSet
from .numerics import Matrix, Rng, as_matrix, rand_matrix
from .synth import WindowSet

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
    loss, grad = _bce_loss(z, y), _bce_grad(z, y[..., None])
    return (float(loss), grad) if z.ndim == 1 else (loss, grad)


# The two halves of loss_bce without its checks, on logits z (..., 1).

def _bce_loss(z: np.ndarray, y) -> np.ndarray:
    """Losses (...) given labels y of shape z.shape[:-1]."""
    z = z[..., 0]
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _bce_grad(z: np.ndarray, y, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
    """Gradients (..., 1) given labels y of z's shape, written into out with
    tmp as scratch, both of z's shape; each is made when it is None."""
    # sigmoid(z) = exp(min(z, 0)) / (1 + exp(-|z|)), which cannot overflow;
    # for z < 0 both exponents are the same number z.
    out = np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    tmp = np.abs(z, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    tmp += 1.0
    out /= tmp
    out -= y
    return out


def _bce_grad_one(z, y):
    """_bce_grad of one logit z and label y as float64 scalars, bit for bit:
    exp(min(z, 0)) is exp(-|z|) for z < 0 and 1.0 otherwise, and np.exp of a
    scalar runs the array loop (math.exp may differ in the last bit)."""
    e = np.exp(-abs(z))
    return (e if z < 0 else 1.0) / (e + 1.0) - y


def _weight(index: int) -> property:
    # A read-only attribute over one weight's view of the flat buffer.
    return property(lambda self: self._weights[index],
                    doc=f"{WEIGHT_NAMES[index]}: a view into params; edit it in place.")


class WindowAttentionLayer:
    """Window attention with a linear readout of pooled and invariant features.

    The layer has one logit, for binary cross-entropy. The readout sees the
    column mean of the attention output through w_out (d x 1) and one energy
    ||P_c y||_F^2 / k per channel of the projector set through w_energy (one
    row per channel, one column). w_energy is optional and defaults to
    zeros, which makes the logit exactly pooled w_out.

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
        if w_q.ndim != 2 or w_q.shape[0] < 1:
            raise ValueError(f"w_q must be a d x d matrix with d >= 1, got shape {w_q.shape}")
        d = w_q.shape[0]
        for name, w in (("w_q", w_q), ("w_k", w_k), ("w_v", w_v)):
            if w.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got {w.shape}")
        if w_out.shape != (d, 1):
            raise ValueError(f"w_out must be {d}x1 (one logit), got shape {w_out.shape}")
        energy_shape = (len(projectors.stack), 1)
        w_energy = (np.zeros(energy_shape) if w_energy is None
                    else np.array(w_energy, dtype=np.float64))
        if w_energy.shape != energy_shape:
            raise ValueError(f"w_energy must have shape {energy_shape}, got {w_energy.shape}")
        self.projectors = projectors
        self.variant = variant
        # The stack the variant attends over: every channel for pre, else None.
        self._stack = projectors.stack if variant == "pre" else None
        weights = (w_q, w_k, w_v, w_out, w_energy)
        ends = np.cumsum([w.size for w in weights])
        self._layout = tuple((slice(end - w.size, end), w.shape)
                             for end, w in zip(ends, weights))
        self._params = np.concatenate([w.ravel() for w in weights])
        self._weights = self._split(self._params)
        # Views and sizes the forward and backward passes read on every call;
        # the window size divides as a float, which numpy takes faster than
        # an int and rounds the same.
        kwin = projectors.window
        self._kwin = float(kwin)
        # w_q, w_k and w_v as one (3, d, d) block: one stacked product maps a
        # channel stack through all three, and the backward writes their
        # gradients in the same layout.
        self._qkv = self._params[:3 * d * d].reshape(3, d, d)
        # w_out and w_energy stacked, (d + C, 1), are the end of params; as
        # one row, one product gives d pooled and d energy.
        self._readout_t = self._params[3 * d * d:].reshape(1, -1)
        # Row c is P_c / k flattened, so energies = rows @ vec(y y^T): since P_c
        # is a symmetric idempotent, <P_c, y y^T> = ||P_c y||_F^2. Twice the
        # rows give d e_c / dy = 2 P_c y / k in the backward pass.
        self._energy_rows = projectors.stack.reshape(len(projectors.stack), -1) / kwin
        self._energy_rows_t = self._energy_rows.T
        self._energy_grad_rows = 2.0 * self._energy_rows

    @classmethod
    def random(cls, projectors: ProjectorSet, feature_dim: int, n_classes: int,
               variant: str, rng: Rng) -> "WindowAttentionLayer":
        """Uniform init in [-s, s] with s = 1/sqrt(feature_dim); w_energy starts at
        zero. The only class count it takes is 1: the layer has one logit."""
        if feature_dim < 1 or n_classes != 1:
            raise ValueError(f"random: need feature_dim >= 1 and n_classes == 1 (one logit), "
                             f"got {feature_dim} and {n_classes}")
        s = feature_dim ** -0.5
        return cls(projectors,
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, feature_dim, s),
                   rand_matrix(rng, feature_dim, 1, s),
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

    def _split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The five weight-shaped views of a buffer laid out like params."""
        return tuple(flat[part].reshape(shape) for part, shape in self._layout)

    def _grad_views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The views of a buffer laid out like params that a pass's backward writes:
        w_q, w_k and w_v as one (3, d, d) block, then w_out and w_energy."""
        d = self.feature_dim
        return (flat[:3 * d * d].reshape(3, d, d),) + self._split(flat)[3:]

    def _windows(self, x) -> np.ndarray:
        """One window (k, d) or a stack (B, k, d), checked, as a float64
        stack (B, k, d)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-2:] != (self.window, self.feature_dim) or x.ndim not in (2, 3) \
                or x.shape[0] < 1:
            raise ValueError(f"forward: expected {self.window}x{self.feature_dim} windows, "
                             f"got shape {x.shape}")
        return x.reshape(-1, self.window, self.feature_dim)

    def _project(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The channel stack (B, C, k, d) of xs (B, k, d): written into out for
        pre when given, else a view of xs. Projecting x projects q, k and v,
        since P_c (x w) = (P_c x) w."""
        return project(self._stack, xs, out)

    def forward(self, x) -> tuple[np.ndarray, dict]:
        """Logits of one window (k, d), shape (1,), or of a stack (B, k, d),
        shape (B, 1). The cache entries y, pooled and energy carry the same
        leading window axis as the input; energy has one entry per channel.
        The channel axis of px and attention counts the attending channels:
        one for baseline and post, every channel for pre.

        Each call writes into a workspace of its own, which the cache holds,
        so a later call leaves the returned arrays as they are."""
        xs = self._windows(x)
        ws = _Pass(self, len(xs), self._stack)
        px = self._project(xs, ws.px_buffer)
        logits = ws.forward(px)
        y, pooled, energy = ws.att.total, ws.pooled, ws.energy
        if np.ndim(x) == 2:
            logits, y, pooled, energy = logits[0], y[0], pooled[0], energy[0]
        cache = {"layer": self, "px": px, "attention": ws.att, "y": y, "pooled": pooled,
                 "energy": energy, "workspace": ws}
        return logits, cache

    def window_map(self, x) -> Matrix:
        """The pre-pooling window-to-window map, forward's y; equivariant for
        all variants."""
        return self.forward(x)[1]["y"]

    def backward(self, cache: dict, dlogits) -> dict[str, Matrix]:
        """Gradients of the five weight matrices given d(loss)/d(logits),
        summed over the windows of the cache. They are views into one flat
        gradient laid out like params. The backward arrays of the cache's
        workspace are overwritten; its forward state is not."""
        if cache.get("layer") is not self:
            raise ValueError("backward: cache does not belong to this layer")
        ws = cache["workspace"]
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.size != ws.b:
            raise ValueError(f"backward: expected {ws.b} dlogits, got shape {dlogits.shape}")
        if ws.backward is None:
            ws.make_backward(self)
        np.copyto(ws.dlogits, dlogits.reshape(ws.b, 1))
        grad = np.empty_like(self._params)
        ws.backward(self._grad_views(grad))
        return dict(zip(WEIGHT_NAMES, self._split(grad)))

    def loss_and_grads(self, x, label):
        """Loss and weight gradients of one window, or per-window losses (B,)
        and batch-summed gradients of a stack with B labels."""
        logits, cache = self.forward(x)
        loss, dlogits = loss_bce(logits, label)
        return loss, self.backward(cache, dlogits)


class _Pass:
    """Workspace of one forward and backward pass of a layer over B windows
    attending over a projector stack (C, k, k), or over one unprojected
    channel (C = 1) when the stack is None; the energies read every channel.

    It makes every array the forward pass writes: a (B, C, k, d) buffer of
    projected windows, px_buffer; the q/k/v block (3, B C k, d), whose three
    contiguous slices are qp, kp and vp; the kernel's ChannelAttention att
    on them; pooled, energy, the products y y^T, the logits and one (B, 1)
    scratch. make_backward, which train calls at once and backward on its
    first pass, adds the BCE gradient dlogits, d pooled and d energy as
    column views of one (B, d + C) array, the energy term of dy, dy and the
    kernel's backward arrays. A pass through it overwrites all of them.

    The layer's math runs in two closures, bound once over these arrays and
    over the layer's weight views, which point into params, so an in-place
    update of the weights reaches them:

        forward(px)     px through the (3, d, d) block of w_q, w_k and w_v,
                        the kernel's bound forward, pooling, energies and
                        logits; returns the logits (B, 1)
        backward(out)   bound by make_backward: writes the five weight
                        gradients, summed over the B windows, into out (the
                        views of _grad_views, the same (3, d, d) block first)
                        given dlogits, for the last forward pass

    px is a channel stack (B, C, k, d): px_buffer or any array of its shape.
    No closure captures the pass itself, so it is freed by reference
    counting alone; backward reads the last px from a one-slot list.
    """

    def __init__(self, layer: WindowAttentionLayer, b: int, stack: np.ndarray | None):
        kwin, d = layer.window, layer.feature_dim
        e = len(layer.projectors.stack)
        c = 1 if stack is None else len(stack)
        self.b, self.backward = b, None
        self.px_buffer = np.empty((b, c, kwin, d))
        qkv = np.empty((3, b * c * kwin, d))
        qp, kp, vp = qkv.reshape(3, b, c, kwin, d)
        self.att = att = ChannelAttention(qp, kp, vp)
        self.pooled = pooled = np.empty((b, d))
        self.energy = energy = np.empty((b, e))
        logits = np.empty((b, 1))
        self.scratch = scratch = np.empty((b, 1))
        yy = np.empty((b, kwin, kwin))
        # The rows of the px the last forward pass mapped, for backward.
        self._px_rows = px_rows = [None]
        qkv_weights, (w_out, w_energy) = layer._qkv, layer._weights[3:]
        energy_rows_t, kwin_f = layer._energy_rows_t, layer._kwin
        kernel_forward, y = att.forward, att.total
        y_t, yy_rows = y.swapaxes(1, 2), yy.reshape(b, -1)
        dot, matmul = np.dot, np.matmul
        add, divide, add_reduce = np.add, np.divide, np.add.reduce

        def forward(px: np.ndarray) -> np.ndarray:
            # One stacked product (B C k, d) @ (3, d, d) maps px through w_q,
            # w_k and w_v into the q/k/v block.
            rows = px.reshape(-1, d)
            matmul(rows, qkv_weights, out=qkv)
            px_rows[0] = rows
            kernel_forward()
            add_reduce(y, 1, out=pooled)
            divide(pooled, kwin_f, out=pooled)
            matmul(y, y_t, out=yy)
            dot(yy_rows, energy_rows_t, out=energy)
            dot(pooled, w_out, out=logits)
            dot(energy, w_energy, out=scratch)
            return add(logits, scratch, out=logits)
        self.forward = forward

    def make_backward(self, layer: WindowAttentionLayer) -> None:
        att, px_rows = self.att, self._px_rows
        pooled, energy, y = self.pooled, self.energy, att.total
        (b, kwin, d), e = y.shape, energy.shape[1]
        self.dlogits = dlogits = np.empty((b, 1))
        dreadout = np.empty((b, d + e))
        dpooled, denergy = dreadout[:, :d], dreadout[:, d:]
        dyy, dy = np.empty((b, kwin, kwin)), np.empty((b, kwin, d))
        att.make_backward()
        kernel_backward, dqkv_rows = att.backward, att.grads.reshape(3, -1, d)
        readout_t, energy_grad_rows, kwin_f = layer._readout_t, layer._energy_grad_rows, layer._kwin
        pooled_t, energy_t = pooled.T, energy.T
        dpooled_rows, dyy_rows, dout = dpooled[:, None, :], dyy.reshape(b, -1), dy[:, None]
        dot, matmul, add, divide = np.dot, np.matmul, np.add, np.divide

        def backward(out: tuple[np.ndarray, ...]) -> None:
            g_qkv, g_out, g_energy = out
            dot(pooled_t, dlogits, out=g_out)
            dot(energy_t, dlogits, out=g_energy)
            dot(dlogits, readout_t, out=dreadout)
            # pooled = (1/k) ones^T y adds dpooled / k to every row of dy, and
            # e_c = ||P_c y||^2 / k adds (sum_c denergy_c 2 P_c / k) y.
            dot(denergy, energy_grad_rows, out=dyy_rows)
            matmul(dyy, y, out=dy)
            divide(dpooled, kwin_f, out=dpooled)
            add(dy, dpooled_rows, out=dy)
            # qp = px w_q, so d w_q sums px^T dqp over windows and channels;
            # the same matmul gives d w_k and d w_v.
            kernel_backward(dout)
            matmul(px_rows[0].T, dqkv_rows, out=g_qkv)
        self.backward = backward


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
    # train never reads task; it stays because bench/run.py passes it.
    task: str = ""
    tracker_trials: int = 2


def _as_arrays(split, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Window stack (N, k, d) and labels (N,) of a WindowSet, whose own
    read-only arrays are returned as they are, or of a (features, labels)
    pair of arrays, checked for shape."""
    if isinstance(split, WindowSet):
        return split.features, split.labels
    if not (isinstance(split, tuple) and len(split) == 2):
        raise ValueError(f"train: {name} split must be a WindowSet or a (features, labels) "
                         f"pair of arrays, got {type(split).__name__}")
    features, labels = np.asarray(split[0], dtype=np.float64), np.asarray(split[1])
    if features.ndim != 3 or labels.shape != features.shape[:1]:
        raise ValueError(f"train: {name} features must be (N, k, d) with N labels, got "
                         f"shapes {features.shape} and {labels.shape}")
    return features, labels


def _evaluate(layer: WindowAttentionLayer, xs: np.ndarray,
              labels: np.ndarray) -> tuple[float, float]:
    """Mean loss and accuracy over a window stack with valid 0/1 labels, one
    forward pass per EVAL_CHUNK windows."""
    losses = []
    correct = 0
    for start in range(0, len(xs), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        logits, _ = layer.forward(xs[chunk])
        losses.append(_bce_loss(logits, labels[chunk]))
        correct += int(((logits[:, 0] > 0.0) == (labels[chunk] == 1)).sum())
    return math.fsum(np.concatenate(losses)) / len(xs), correct / len(xs)


def _check_windows(layer: WindowAttentionLayer, who: str, name: str, xs: np.ndarray) -> None:
    """Reject a window stack the layer cannot attend over: empty, not (N, k, d)
    for the layer's k and d, or with a non-finite feature. The ValueError
    names the caller, the set and its first bad window."""
    if not len(xs):
        raise ValueError(f"{who}: no {name} windows")
    if xs.shape[1:] != (layer.window, layer.feature_dim):
        raise ValueError(f"{who}: {name} windows must be {layer.window}x"
                         f"{layer.feature_dim}, got {xs.shape[1:]}")
    bad = np.flatnonzero(~np.isfinite(xs).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"{who}: {name} window at index {bad[0]} has a non-finite feature")


def _diverged(epoch: int, step: int, losses: np.ndarray, batch_size: int,
              what: str) -> RuntimeError:
    # Names the first step of the epoch whose loss is not finite, if any,
    # else the step that was running. losses holds the epoch's window losses
    # in step order, up to the last step that ran.
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        step, what = bad[0] // batch_size + 1, f"train loss {float(losses[bad[0]])!r}"
    return RuntimeError(f"train: loss diverged at epoch {epoch}, step {step} ({what})")


def train(layer: WindowAttentionLayer, train_data, val_data,
          cfg: TrainConfig) -> list[dict]:
    """Plain SGD with mean gradients per shuffled mini-batch.

    Returns one history row per epoch: epoch, train_loss, val_loss, val_acc
    and equivariance_max (the layer's window map, checked against its group).

    Each split is a WindowSet, read from its own features and labels
    arrays, or a (features, labels) pair of arrays: an (N, k, d) window
    stack and N labels. The loss is binary cross-entropy on the layer's one
    logit. Before any weight changes, the call checks both splits (window
    shape, finite features, labels of 0 or 1), projects the training windows
    once and allocates the step's gradient and update buffers and two
    workspaces, one for a full batch and one for a shorter last batch, each
    holding every array of one forward and backward pass. Each step gathers
    its rows of the projected stack into its workspace with np.take (or
    takes a one-row slice at b = 1, with no copy), runs the workspace's bound
    forward and backward passes there, writing every intermediate in place
    and the gradient into its buffer, and updates the flat params buffer in
    place as params -= (lr * grad) / b, computed in that order inside the
    update buffer (b = 1 skips the division). A step over one window (every
    step at b = 1, or a last step of one) computes its loss gradient from
    its one logit in numpy scalar arithmetic, _bce_grad_one: the same
    operations on the same numbers as _bce_grad's eight array calls, so the
    same bits. No epoch copies the training stack. Step s of an epoch covers
    windows order[(s-1) b : s b] of that epoch's shuffle, with b =
    batch_size. The steps keep their logits, and the epoch's losses are
    computed from them once, after its last step. With clean inputs a
    non-finite value can only come from diverging weights: it raises
    RuntimeError naming the epoch and step instead of training on;
    non-finite attention scores are caught by the kernel's softmax check,
    whose message the error carries.
    """
    if cfg.epochs < 1:
        raise ValueError(f"train: epochs must be >= 1, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ValueError(f"train: batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.tracker_trials < 1:
        raise ValueError(f"train: tracker_trials must be >= 1, got {cfg.tracker_trials}")
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate >= 0):
        raise ValueError(f"train: learning_rate must be finite and >= 0, got {cfg.learning_rate}")
    train_x, train_y = _as_arrays(train_data, "train")
    val_x, val_y = _as_arrays(val_data, "validation")
    for name, xs, labels in (("train", train_x, train_y), ("validation", val_x, val_y)):
        _check_windows(layer, "train", name, xs)
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise ValueError(f"train: {name} label at index {bad[0]} is "
                             f"{labels[bad[0]]}, expected 0 or 1")
    train_px = layer._project(train_x)

    n, batch_size, params, lr = len(train_x), cfg.batch_size, layer.params, cfg.learning_rate
    # Every step writes its gradient into the same buffer, laid out like params,
    # its update into a second one and its logits into its rows of an epoch's
    # logits, in shuffled order; its forward and backward passes run in one
    # workspace for the full batches and one for a shorter last batch.
    grad, update = np.empty_like(params), np.empty_like(params)
    grad_views = layer._grad_views(grad)
    logits = np.empty((n, 1))
    full = _Pass(layer, min(batch_size, n), layer._stack)
    tail = _Pass(layer, n % batch_size, layer._stack) if n > batch_size and n % batch_size else full
    for ws in {full, tail}:
        ws.make_backward(layer)
    shuffle_rng = Rng(cfg.seed).derive(1)
    history = []
    # Diverging weights overflow long before the kernel's softmax rejects
    # non-finite scores, so numpy's warnings are silenced and the error names
    # the step instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            labels = train_y[order]
            # Float labels, so no step casts them to subtract them from its sigmoids.
            label_col = labels[:, None].astype(np.float64)
            step = done = 0
            try:
                for step, start in enumerate(range(0, n, batch_size), 1):
                    end = min(start + batch_size, n)
                    ws = full if end - start == full.b else tail
                    if end - start == 1:
                        i = order[start]
                        px = train_px[i:i + 1]
                    else:
                        # order is a permutation, so no index needs the
                        # default mode's check, which copies out first.
                        px = np.take(train_px, order[start:end], axis=0, out=ws.px_buffer,
                                     mode="clip")
                    step_logits = ws.forward(px)
                    done = end
                    if done - start == 1:
                        z = logits[start, 0] = step_logits[0, 0]
                        ws.dlogits[0, 0] = _bce_grad_one(z, label_col[start, 0])
                    else:
                        logits[start:done] = step_logits
                        _bce_grad(step_logits, label_col[start:done], ws.dlogits, ws.scratch)
                    ws.backward(grad_views)
                    # params -= lr * grad / b, in that order, with no temporaries.
                    np.multiply(grad, lr, out=update)
                    if done - start > 1:
                        update /= done - start
                    params -= update
                losses = _bce_loss(logits, labels)
                if not np.isfinite(losses).all():
                    raise _diverged(epoch, step, losses, batch_size, "train loss")
                # fsum keeps the reported loss independent of the shuffle order.
                train_loss = math.fsum(losses) / n
                val_loss, val_acc = _evaluate(layer, val_x, val_y)
                if not math.isfinite(val_loss):
                    raise _diverged(epoch, step, losses, batch_size,
                                    f"validation loss {val_loss!r}")
                report = equivariance_report(
                    layer.window_map, layer.projectors.group, layer.feature_dim,
                    cfg.tracker_trials, Rng(cfg.seed).derive(1000 + epoch))
            except (ValueError, OverflowError) as exc:
                # The kernel's softmax rejecting non-finite scores, or fsum
                # overflowing.
                # The losses are those of the steps that ran.
                raise _diverged(epoch, step, _bce_loss(logits[:done], labels[:done]),
                                batch_size, str(exc)) from None
            history.append({"epoch": epoch,
                            "train_loss": float(train_loss),
                            "val_loss": float(val_loss),
                            "val_acc": float(val_acc),
                            "equivariance_max": float(report.max_error)})
    return history
