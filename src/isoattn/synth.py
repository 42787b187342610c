"""Synthetic symbol-window generators for the symmetry tasks.

Windows are short sequences over a small alphabet, one-hot encoded row per
position. The DNA alphabet of size 4 maps A, C, G, T to rows 0..3. Mirror
palindromes read the same forwards and backwards (symbols[i] equals
symbols[k-1-i]), so their features are exact fixed points of the window
reversal. Cyclic windows repeat a base block and are fixed points of the
shift by their period.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .numerics import Matrix, Rng

_LETTERS = string.ascii_uppercase
_DNA = "ACGT"
MAX_ALPHABET = len(_LETTERS)


def encode_onehot(symbols, alphabet_size: int) -> Matrix:
    """One row per symbol, a single 1 in the symbol's column."""
    symbols = list(symbols)
    if alphabet_size < 1:
        raise ValueError(f"encode_onehot: alphabet_size must be >= 1, got {alphabet_size}")
    out = np.zeros((len(symbols), alphabet_size), dtype=np.float64)
    for i, s in enumerate(symbols):
        s = int(s)
        if not 0 <= s < alphabet_size:
            raise ValueError(f"encode_onehot: symbol {s} outside alphabet of size {alphabet_size}")
        out[i, s] = 1.0
    return out


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


def gen_palindrome(k: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform mirror palindrome: the free half determines the mirrored half."""
    _check_geometry(k, alphabet_size)
    half = rng.integers(alphabet_size, size=(k + 1) // 2)
    symbols = list(half) + [half[k - 1 - i] for i in range((k + 1) // 2, k)]
    return SequenceWindow(tuple(int(s) for s in symbols), alphabet_size, 1, "palindrome")


def _is_palindrome(symbols) -> bool:
    k = len(symbols)
    return all(symbols[i] == symbols[k - 1 - i] for i in range(k // 2))


def gen_nonpalindrome(k: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform window conditioned on at least one mismatched mirror pair.

    Rejection sampling; for k = 6 over 4 symbols the rejection rate is
    4^3/4^6 = 1/64 per draw, so this terminates fast.
    """
    _check_geometry(k, alphabet_size)
    if k < 2:
        raise ValueError("gen_nonpalindrome: impossible for windows shorter than 2")
    while True:
        symbols = tuple(int(s) for s in rng.integers(alphabet_size, size=k))
        if not _is_palindrome(symbols):
            return SequenceWindow(symbols, alphabet_size, 0, "nonpalindrome")


def gen_cyclic(k: int, period: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Window repeating a random block of the given period; period | k."""
    _check_geometry(k, alphabet_size)
    if period < 1 or period > k or k % period != 0:
        raise ValueError(f"gen_cyclic: period must divide the window size, got k={k} period={period}")
    base = [int(s) for s in rng.integers(alphabet_size, size=period)]
    symbols = tuple(base[i % period] for i in range(k))
    return SequenceWindow(symbols, alphabet_size, 1, f"cyclic:{period}")


def _is_periodic(symbols, period: int) -> bool:
    return all(symbols[i] == symbols[i % period] for i in range(len(symbols)))


def gen_noncyclic(k: int, period: int, alphabet_size: int, rng: Rng) -> SequenceWindow:
    """Uniform window conditioned on breaking the given period somewhere."""
    _check_geometry(k, alphabet_size)
    if period < 1 or period > k or k % period != 0:
        raise ValueError(f"gen_noncyclic: period must divide the window size, got k={k} period={period}")
    if period == k:
        raise ValueError("gen_noncyclic: period equal to the window size excludes nothing")
    while True:
        symbols = tuple(int(s) for s in rng.integers(alphabet_size, size=k))
        if not _is_periodic(symbols, period):
            return SequenceWindow(symbols, alphabet_size, 0, f"noncyclic:{period}")


def perturb(window: SequenceWindow, p: float, rng: Rng) -> SequenceWindow:
    """Resample each position independently with probability p, keeping the label."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"perturb: probability must be in [0, 1], got {p}")
    k = len(window.symbols)
    hits = rng.uniform(0.0, 1.0, k) < p
    fresh = rng.integers(window.alphabet_size, size=k)
    symbols = tuple(int(fresh[i]) if hits[i] else window.symbols[i] for i in range(k))
    meta = window.meta if p == 0.0 else f"{window.meta}+noise"
    return SequenceWindow(symbols, window.alphabet_size, window.label, meta)


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
    train: tuple[SequenceWindow, ...]
    val: tuple[SequenceWindow, ...]


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Balanced labeled windows with an 80/20 split, fully seeded.

    Positives and negatives are generated in equal number (n odd gets the
    extra positive), each perturbed at noise_p, then shuffled and split.
    """
    if spec.task not in ("palindrome", "cyclic"):
        raise ValueError(f"make_dataset: unknown task {spec.task!r}")
    if spec.n < 2:
        raise ValueError(f"make_dataset: need n >= 2 for a non-empty split, got {spec.n}")
    _check_geometry(spec.k, spec.alphabet_size)
    rng = Rng(spec.seed).derive(7)
    n_pos = (spec.n + 1) // 2
    windows: list[SequenceWindow] = []
    if spec.task == "palindrome":
        for _ in range(n_pos):
            windows.append(gen_palindrome(spec.k, spec.alphabet_size, rng))
        for _ in range(spec.n - n_pos):
            windows.append(gen_nonpalindrome(spec.k, spec.alphabet_size, rng))
    else:
        period = spec.period or default_period(spec.k)
        for _ in range(n_pos):
            windows.append(gen_cyclic(spec.k, period, spec.alphabet_size, rng))
        for _ in range(spec.n - n_pos):
            windows.append(gen_noncyclic(spec.k, period, spec.alphabet_size, rng))
    if spec.noise_p > 0.0:
        windows = [perturb(w, spec.noise_p, rng) for w in windows]
    order = rng.permutation(len(windows))
    shuffled = [windows[i] for i in order]
    cut = min(int(round(0.8 * len(shuffled))), len(shuffled) - 1)
    return Dataset(spec=spec, train=tuple(shuffled[:cut]), val=tuple(shuffled[cut:]))


def save_windows(windows, path: str) -> None:
    """Line-delimited export: symbols text, label, generator meta."""
    with open(path, "w", encoding="utf-8") as fh:
        for w in windows:
            text = symbols_to_text(w.symbols, w.alphabet_size)
            fh.write(f"{text} {w.label} {w.alphabet_size} {w.meta}\n")


def load_windows(path: str) -> tuple[SequenceWindow, ...]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            toks = line.split(None, 3)
            if len(toks) < 3:
                raise ValueError(f"bad window record {line!r}")
            text, label, alphabet_size = toks[0], int(toks[1]), int(toks[2])
            if not 2 <= alphabet_size <= MAX_ALPHABET:
                raise ValueError(f"bad window record {line!r}: alphabet_size must be in "
                                 f"[2, {MAX_ALPHABET}]")
            meta = toks[3] if len(toks) > 3 else ""
            out.append(SequenceWindow(text_to_symbols(text, alphabet_size),
                                      alphabet_size, label, meta))
    return tuple(out)
