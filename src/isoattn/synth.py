"""Synthetic symbol-window generators for the symmetry tasks.

Windows are short sequences over a small alphabet, one-hot encoded row per
position. The DNA alphabet of size 4 maps A, C, G, T to rows 0..3. Mirror
palindromes read the same forwards and backwards (symbols[i] equals
symbols[k-1-i]), so their features are exact fixed points of the window
reversal. Cyclic windows repeat a base block and are fixed points of the
shift by their period.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass, field

import numpy as np

from .numerics import Matrix, Rng

_LETTERS = string.ascii_uppercase
_DNA = "ACGT"
MAX_ALPHABET = len(_LETTERS)


def encode_onehot(symbols, alphabet_size: int) -> Matrix:
    """One row per symbol, a single 1 in its column: (k, a) for a window of k
    symbols, (n, k, a) for an (n, k) block. All symbols are checked first;
    the error names the first that is not an integer in [0, a)."""
    if alphabet_size < 1:
        raise ValueError(f"encode_onehot: alphabet_size must be >= 1, got {alphabet_size}")
    s = np.asarray(symbols if isinstance(symbols, np.ndarray) else list(symbols))
    if s.dtype.kind not in "biu":
        s = s.astype(np.float64)
    bad = ~((s >= 0) & (s < alphabet_size) & (s == np.floor(s)))
    if bad.any():
        v = s.ravel()[bad.argmax()]
        if not (np.isfinite(v) and v == np.floor(v)):
            raise ValueError(f"encode_onehot: symbol {v} is not an integer")
        raise ValueError(f"encode_onehot: symbol {int(v)} outside alphabet of size {alphabet_size}")
    # take gathers the rows of the identity, as np.eye(a)[s] does, several
    # times faster for a block of windows.
    return np.eye(alphabet_size).take(s.astype(np.intp, copy=False), axis=0)


@dataclass(frozen=True)
class SequenceWindow:
    symbols: tuple[int, ...]
    alphabet_size: int
    label: int
    meta: str = ""
    features: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = encode_onehot(self.symbols, self.alphabet_size)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @classmethod
    def _encoded(cls, symbols, alphabet_size, label, meta, features) -> "SequenceWindow":
        """Window around read-only features already encoded from its symbols."""
        window = object.__new__(cls)
        window.__dict__.update(symbols=symbols, alphabet_size=alphabet_size, label=label,
                               meta=meta, features=features)
        return window


class WindowSet:
    """Windows over one alphabet, held as read-only arrays.

    symbols is (n, k) int64, labels (n,) integers, metas (n,) the windows' meta
    strings (an object array), and features the (n, k, alphabet_size)
    one-hot rows of symbols, made by one encode_onehot call, which checks
    every symbol. len counts the windows. ws[i] and iteration build each
    SequenceWindow on demand, equal field for field to one made from the
    same symbols, label and meta, around a read-only view of its features
    row. A slice is a WindowSet of views into the same arrays.
    """

    __slots__ = ("symbols", "alphabet_size", "labels", "metas", "features")

    def __init__(self, symbols, alphabet_size: int, labels, metas):
        features = encode_onehot(symbols, alphabet_size)
        symbols = np.array(symbols, dtype=np.int64)
        labels, metas = np.array(labels), np.array(metas, dtype=object)
        if symbols.ndim != 2 or labels.shape != symbols.shape[:1] or metas.shape != labels.shape:
            raise ValueError(f"WindowSet: expected (n, k) symbols with n labels and n metas, "
                             f"got shapes {symbols.shape}, {labels.shape} and {metas.shape}")
        # ws[i] serves a label as an int, which needs an int64 or uint64
        # array: numpy keeps an int beyond 64 bits as an object, a float as a
        # float and a string as a string.
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"WindowSet: labels must be integers of at most 64 bits, got "
                             f"{labels.dtype} labels")
        for array in (symbols, labels, metas, features):
            array.setflags(write=False)
        self._fill(symbols, alphabet_size, labels, metas, features)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"WindowSet is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = object.__new__(WindowSet)
            part._fill(self.symbols[index], self.alphabet_size, self.labels[index],
                       self.metas[index], self.features[index])
            return part
        i = operator.index(index)
        return SequenceWindow._encoded(tuple(self.symbols[i].tolist()), self.alphabet_size,
                                       self.labels[i].item(), self.metas[i], self.features[i])

    def __iter__(self):
        for row, label, meta, feats in zip(self.symbols.tolist(), self.labels.tolist(),
                                           self.metas, self.features):
            yield SequenceWindow._encoded(tuple(row), self.alphabet_size, label, meta, feats)


def symbols_to_text(symbols, alphabet_size: int) -> str:
    if alphabet_size == 4:
        return "".join(_DNA[s] for s in symbols)
    return "".join(_LETTERS[s] for s in symbols)


def text_to_symbols(text: str, alphabet_size: int) -> tuple[int, ...]:
    table = _DNA if alphabet_size == 4 else _LETTERS[:alphabet_size]
    out = []
    for ch in text:
        pos = table.find(ch)
        if pos < 0:
            raise ValueError(f"symbol {ch!r} is not in the alphabet {table!r}")
        out.append(pos)
    return tuple(out)


def _check_geometry(k: int, alphabet_size: int) -> None:
    if k < 1:
        raise ValueError(f"window size must be >= 1, got {k}")
    if not 2 <= alphabet_size <= MAX_ALPHABET:
        raise ValueError(f"alphabet_size must be in [2, {MAX_ALPHABET}], got {alphabet_size}")


def _check_nonpalindrome(k: int, who: str) -> None:
    if k < 2:
        raise ValueError(f"{who}: impossible for windows shorter than 2")


def _check_period(k: int, period: int, who: str) -> None:
    if period < 1 or period > k or k % period != 0:
        raise ValueError(f"{who}: period must divide the window size, got k={k} period={period}")


def _check_noncyclic(k: int, period: int, who: str) -> None:
    _check_period(k, period, who)
    if period == k:
        raise ValueError(f"{who}: period equal to the window size excludes nothing")


# ---------- draw rules ----------
#
# Each rule draws n windows as the rows of an (n, k) symbol array, and the
# one-window generators below are its n = 1 case. One call for an (n, h)
# block of small integers gives the same values, and leaves the stream in the
# same place, as n calls of size h: numpy draws one 32-bit word per value and
# the bit generator keeps a spare half-word across calls.

def _palindromes(n: int, k: int, alphabet_size: int, rng: Rng) -> np.ndarray:
    half = rng.integers(alphabet_size, size=(n, (k + 1) // 2))
    return np.concatenate([half, half[:, :k // 2][:, ::-1]], axis=1)


def _cyclics(n: int, k: int, period: int, alphabet_size: int, rng: Rng) -> np.ndarray:
    return np.tile(rng.integers(alphabet_size, size=(n, period)), (1, k // period))


def _rejecting(n: int, k: int, alphabet_size: int, rng: Rng, keep) -> np.ndarray:
    """n uniform windows for which keep(rows) holds, drawn in blocks.

    Each block is as many rows as are still missing. Drawing and testing one
    window at a time would draw at least that many more rows, so the kept
    rows and the stream position after the last one are the same. The
    caller makes sure keep accepts some window, or this never ends.
    """
    blocks = []
    while n:
        rows = rng.integers(alphabet_size, size=(n, k))
        rows = rows[keep(rows)]
        blocks.append(rows)
        n -= len(rows)
    return np.concatenate(blocks)


def _nonpalindromes(n: int, k: int, alphabet_size: int, rng: Rng) -> np.ndarray:
    return _rejecting(n, k, alphabet_size, rng,
                      lambda rows: (rows != rows[:, ::-1]).any(axis=1))


def _noncyclics(n: int, k: int, period: int, alphabet_size: int, rng: Rng) -> np.ndarray:
    wrap = np.arange(k) % period
    return _rejecting(n, k, alphabet_size, rng,
                      lambda rows: (rows != rows[:, wrap]).any(axis=1))


def _noisy(symbols: np.ndarray, p: float, alphabet_size: int, rng: Rng) -> np.ndarray:
    """Resample each entry of an (n, k) symbol array with probability p.

    The draws are those of perturb applied row by row: a uniform per
    position, then k fresh symbols. Rng.uniform_integer_rows draws all rows
    as one block, with the same values and the same stream position after.
    """
    n, k = symbols.shape
    u, fresh = rng.uniform_integer_rows(n, k, alphabet_size)
    return np.where(u < p, fresh, symbols)


def gen_palindrome(k: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform mirror palindrome: the free half determines the mirrored half."""
    _check_geometry(k, alphabet_size)
    rows = _palindromes(1, k, alphabet_size, rng)
    return WindowSet(rows, alphabet_size, [1], ["palindrome"])[0]


def gen_nonpalindrome(k: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform window conditioned on at least one mismatched mirror pair.

    Rejection sampling; for k = 6 over 4 symbols the rejection rate is
    4^3/4^6 = 1/64 per draw, so this terminates fast.
    """
    _check_geometry(k, alphabet_size)
    _check_nonpalindrome(k, "gen_nonpalindrome")
    rows = _nonpalindromes(1, k, alphabet_size, rng)
    return WindowSet(rows, alphabet_size, [0], ["nonpalindrome"])[0]


def gen_cyclic(k: int, period: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Window repeating a random block of the given period; period | k."""
    _check_geometry(k, alphabet_size)
    _check_period(k, period, "gen_cyclic")
    rows = _cyclics(1, k, period, alphabet_size, rng)
    return WindowSet(rows, alphabet_size, [1], [f"cyclic:{period}"])[0]


def gen_noncyclic(k: int, period: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform window conditioned on breaking the given period somewhere."""
    _check_geometry(k, alphabet_size)
    _check_noncyclic(k, period, "gen_noncyclic")
    rows = _noncyclics(1, k, period, alphabet_size, rng)
    return WindowSet(rows, alphabet_size, [0], [f"noncyclic:{period}"])[0]


def perturb(window: SequenceWindow, p: float, rng: Rng) -> SequenceWindow:
    """Resample each position independently with probability p, keeping the label."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"perturb: probability must be in [0, 1], got {p}")
    rows = np.array(window.symbols, dtype=np.int64).reshape(1, -1)
    meta = window.meta if p == 0.0 else f"{window.meta}+noise"
    return WindowSet(_noisy(rows, p, window.alphabet_size, rng), window.alphabet_size,
                     [window.label], [meta])[0]


def train_size(n: int) -> int:
    """Windows in the train split of an n-window dataset: 80%, rounded, and
    at least one fewer than n."""
    return min(int(round(0.8 * n)), n - 1)


def default_period(k: int) -> int:
    """Largest proper divisor of k: the block length of the cyclic task."""
    for q in range(2, k + 1):
        if k % q == 0:
            return k // q
    return 1


@dataclass(frozen=True)
class DatasetSpec:
    task: str
    n: int
    k: int
    noise_p: float = 0.0
    seed: int = 0
    alphabet_size: int = 4
    period: int = 0  # 0 means default_period(k) for the cyclic task


@dataclass(frozen=True)
class Dataset:
    spec: DatasetSpec
    train: WindowSet
    val: WindowSet


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Balanced labeled windows with an 80/20 split, fully seeded.

    Positives and negatives are generated in equal number (n odd gets the
    extra positive), each perturbed at noise_p, then shuffled and split.
    The spec is checked in full before anything is drawn. The order of the
    draws defines what each seed gives: all positives; then the
    rejection-sampled negatives; then, if noise_p > 0, for each window in
    turn a uniform draw per position followed by fresh symbols; then the
    shuffle. Each phase is drawn in blocks (the noise as one raw block
    decoded in Rng.uniform_integer_rows), which gives the same windows as
    the one-window generators and perturb called window by window in that
    order. The train and val splits are WindowSets cut from one shuffled
    WindowSet, so no window object is built until one is asked for.
    """
    if spec.task not in ("palindrome", "cyclic"):
        raise ValueError(f"make_dataset: unknown task {spec.task!r}")
    if spec.n < 2:
        raise ValueError(f"make_dataset: need n >= 2 for a non-empty split, got {spec.n}")
    _check_geometry(spec.k, spec.alphabet_size)
    if not 0.0 <= spec.noise_p <= 1.0:
        raise ValueError(f"make_dataset: noise_p must be in [0, 1], got {spec.noise_p}")
    k, a = spec.k, spec.alphabet_size
    if spec.task == "palindrome":
        _check_nonpalindrome(k, "make_dataset")
    else:
        period = spec.period or default_period(k)
        _check_noncyclic(k, period, "make_dataset")
    n_pos = (spec.n + 1) // 2
    n_neg = spec.n - n_pos
    rng = Rng(spec.seed).derive(7)
    if spec.task == "palindrome":
        metas = ("palindrome", "nonpalindrome")
        rows = np.concatenate([_palindromes(n_pos, k, a, rng),
                               _nonpalindromes(n_neg, k, a, rng)])
    else:
        metas = (f"cyclic:{period}", f"noncyclic:{period}")
        rows = np.concatenate([_cyclics(n_pos, k, period, a, rng),
                               _noncyclics(n_neg, k, period, a, rng)])
    if spec.noise_p > 0.0:
        rows = _noisy(rows, spec.noise_p, a, rng)
        metas = tuple(f"{meta}+noise" for meta in metas)
    order = rng.permutation(spec.n)
    # Windows before n_pos are the positives.
    labels = (order < n_pos).astype(np.int64)
    shuffled = WindowSet(rows[order], a, labels, np.array(metas, dtype=object)[1 - labels])
    cut = train_size(spec.n)
    return Dataset(spec=spec, train=shuffled[:cut], val=shuffled[cut:])


def save_windows(windows, path: str) -> None:
    """Line-delimited export: symbols text, label, generator meta."""
    with open(path, "w", encoding="utf-8") as fh:
        for w in windows:
            text = symbols_to_text(w.symbols, w.alphabet_size)
            fh.write(f"{text} {w.label} {w.alphabet_size} {w.meta}\n")


def load_windows(path: str) -> WindowSet:
    """Read the windows of a file written by save_windows, skipping blank
    lines, as one WindowSet (one encode_onehot call). A malformed record,
    one with a label outside int64, or one whose alphabet size or length
    differs from the first record's raises ValueError naming the file, the
    line number and the record; a file with no records names the file."""
    rows, labels, metas, first = [], [], [], None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                bad = f"line {number}: bad window record {line!r}"
                toks = line.split(None, 3)
                if len(toks) < 3:
                    raise ValueError(bad)
                try:
                    text, label, alphabet_size = toks[0], int(toks[1]), int(toks[2])
                except ValueError:
                    raise ValueError(f"{bad}: label and alphabet_size must be integers") from None
                if not -2**63 <= label < 2**63:
                    raise ValueError(f"{bad}: label must fit in int64")
                if not 2 <= alphabet_size <= MAX_ALPHABET:
                    raise ValueError(f"{bad}: alphabet_size must be in [2, {MAX_ALPHABET}]")
                try:
                    symbols = text_to_symbols(text, alphabet_size)
                except ValueError as exc:
                    raise ValueError(f"{bad}: {exc}") from None
                shape = (alphabet_size, len(symbols))
                first = first or shape
                if shape != first:
                    raise ValueError(f"{bad}: alphabet_size and length {shape} differ from the "
                                     f"first record's {first}")
                rows.append(symbols)
                labels.append(label)
                metas.append(toks[3] if len(toks) > 3 else "")
        if not rows:
            raise ValueError("no window records")
    except ValueError as exc:
        raise ValueError(f"window file {path!r}: {exc}") from None
    return WindowSet(rows, first[0], labels, metas)
