"""Synthetic window generators, encoding and dataset assembly."""

import numpy as np
import pytest

from isoattn import synth
from isoattn.groups import permutation_matrix
from isoattn.numerics import Rng
from isoattn.synth import (
    Dataset,
    DatasetSpec,
    SequenceWindow,
    default_period,
    encode_onehot,
    gen_cyclic,
    gen_noncyclic,
    gen_nonpalindrome,
    gen_palindrome,
    load_windows,
    make_dataset,
    perturb,
    save_windows,
    symbols_to_text,
    text_to_symbols,
)


def test_onehot_dna_rows():
    assert np.array_equal(encode_onehot(text_to_symbols("A", 4), 4),
                          [[1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(encode_onehot(text_to_symbols("T", 4), 4),
                          [[0.0, 0.0, 0.0, 1.0]])
    ag = encode_onehot(text_to_symbols("AG", 4), 4)
    assert np.array_equal(ag, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


def test_onehot_validation():
    with pytest.raises(ValueError):
        encode_onehot((0, 4), 4)
    with pytest.raises(ValueError):
        text_to_symbols("AXG", 4)


def test_text_roundtrip():
    assert symbols_to_text(text_to_symbols("GATTACA", 4), 4) == "GATTACA"
    assert symbols_to_text((0, 1, 2), 26) == "ABC"


def test_gen_palindrome_mirror_property():
    rng = Rng(1)
    w2 = gen_palindrome(2, 4, rng)
    assert w2.symbols[0] == w2.symbols[1]
    for _ in range(20):
        w = gen_palindrome(6, 4, rng)
        assert w.label == 1
        assert all(w.symbols[i] == w.symbols[5 - i] for i in range(6))


def test_palindrome_features_fixed_under_reversal():
    w = gen_palindrome(6, 4, Rng(2))
    flip = permutation_matrix([5, 4, 3, 2, 1, 0])
    assert np.array_equal(flip @ w.features, w.features)


def test_gen_nonpalindrome_contract():
    rng = Rng(3)
    for _ in range(20):
        w = gen_nonpalindrome(6, 4, rng)
        assert w.label == 0
        assert any(w.symbols[i] != w.symbols[5 - i] for i in range(6))
    w2 = gen_nonpalindrome(2, 4, rng)
    assert w2.symbols[0] != w2.symbols[1]


def test_palindrome_density_matches_rejection_rate():
    # Mirror palindromes occupy 4^3 of the 4^6 windows, so uniform draws hit
    # one with probability 1/64. Binomial bounds: 12800 draws, mean 200,
    # sigma about 14.
    rng = Rng(4)
    draws = rng.integers(4, size=(12_800, 6))
    hits = sum(1 for row in draws if all(row[i] == row[5 - i] for i in range(6)))
    assert 130 <= hits <= 270


def test_perturb_zero_and_meta():
    w = gen_palindrome(6, 4, Rng(5))
    same = perturb(w, 0.0, Rng(6))
    assert same.symbols == w.symbols
    assert same.label == w.label
    noisy = perturb(w, 0.5, Rng(7))
    assert noisy.label == w.label
    assert "+noise" in noisy.meta


def test_perturb_change_fraction_statistics():
    # Change probability per position is p*(1 - 1/alphabet) = 0.075.
    rng = Rng(8)
    changed = 0
    total = 0
    for _ in range(100):
        w = gen_palindrome(100, 4, rng)
        out = perturb(w, 0.1, rng)
        changed += sum(1 for a, b in zip(w.symbols, out.symbols) if a != b)
        total += 100
    assert total == 10_000
    assert 0.06 <= changed / total <= 0.09


def test_perturb_validation():
    w = gen_palindrome(4, 4, Rng(9))
    with pytest.raises(ValueError):
        perturb(w, -0.1, Rng(10))
    with pytest.raises(ValueError):
        perturb(w, 1.5, Rng(10))


def test_gen_cyclic_period_structure():
    rng = Rng(11)
    w = gen_cyclic(9, 3, 4, rng)
    assert w.label == 1
    assert w.symbols[0:3] == w.symbols[3:6] == w.symbols[6:9]
    m = permutation_matrix([(i + 3) % 9 for i in range(9)])
    assert np.array_equal(m @ w.features, w.features)
    unconstrained = gen_cyclic(4, 4, 4, rng)
    assert len(unconstrained.symbols) == 4
    with pytest.raises(ValueError):
        gen_cyclic(9, 4, 4, rng)


def test_gen_noncyclic_contract():
    rng = Rng(12)
    for _ in range(20):
        w = gen_noncyclic(9, 3, 4, rng)
        assert w.label == 0
        assert any(w.symbols[i] != w.symbols[i % 3] for i in range(9))


def test_default_period():
    assert default_period(6) == 3
    assert default_period(9) == 3
    assert default_period(8) == 4
    assert default_period(7) == 1


def test_make_dataset_balance_and_split():
    ds = make_dataset(DatasetSpec(task="palindrome", n=100, k=6, seed=13))
    assert isinstance(ds, Dataset)
    labels = [w.label for w in ds.train] + [w.label for w in ds.val]
    assert sum(labels) == 50
    assert len(ds.train) == 80
    assert len(ds.val) == 20


def test_make_dataset_deterministic():
    a = make_dataset(DatasetSpec(task="palindrome", n=60, k=6, noise_p=0.1, seed=14))
    b = make_dataset(DatasetSpec(task="palindrome", n=60, k=6, noise_p=0.1, seed=14))
    assert [w.symbols for w in a.train] == [w.symbols for w in b.train]
    assert [w.symbols for w in a.val] == [w.symbols for w in b.val]
    assert [w.label for w in a.train] == [w.label for w in b.train]


def test_make_dataset_noiseless_palindrome_labels_exact():
    ds = make_dataset(DatasetSpec(task="palindrome", n=80, k=6, seed=15))
    for w in list(ds.train) + list(ds.val):
        mirrored = all(w.symbols[i] == w.symbols[5 - i] for i in range(6))
        assert mirrored == bool(w.label)


def test_make_dataset_cyclic_task():
    ds = make_dataset(DatasetSpec(task="cyclic", n=40, k=6, seed=16))
    for w in list(ds.train) + list(ds.val):
        periodic = all(w.symbols[i] == w.symbols[i % 3] for i in range(6))
        assert periodic == bool(w.label)


def test_make_dataset_validation():
    with pytest.raises(ValueError):
        make_dataset(DatasetSpec(task="sorting", n=40, k=6, seed=0))
    with pytest.raises(ValueError):
        make_dataset(DatasetSpec(task="palindrome", n=1, k=6, seed=0))


def _no_draws(monkeypatch):
    """Make any random draw inside synth fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("make_dataset drew before rejecting its spec")
    monkeypatch.setattr(synth, "Rng", refuse)


@pytest.mark.parametrize("noise_p", [-0.5, float("nan"), float("inf"), 1.5])
def test_make_dataset_rejects_noise_outside_unit_interval(noise_p, monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match="noise_p must be in"):
        make_dataset(DatasetSpec(task="palindrome", n=40, k=6, noise_p=noise_p, seed=0))


@pytest.mark.parametrize("task, k, period, message", [
    ("palindrome", 1, 0, "shorter than 2"),
    ("cyclic", 6, -1, "period must divide"),
    ("cyclic", 6, 4, "period must divide"),
    ("cyclic", 6, 7, "period must divide"),
    ("cyclic", 6, 6, "excludes nothing"),
    ("cyclic", 1, 0, "excludes nothing"),
])
def test_make_dataset_rejects_impossible_task_before_drawing(task, k, period, message,
                                                             monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=message):
        make_dataset(DatasetSpec(task=task, n=40, k=k, seed=0, period=period))


def test_make_dataset_small_n_keeps_validation_nonempty():
    ds = make_dataset(DatasetSpec(task="palindrome", n=2, k=4, seed=17))
    assert len(ds.train) == 1
    assert len(ds.val) == 1


def test_save_load_roundtrip(tmp_path):
    ds = make_dataset(DatasetSpec(task="palindrome", n=30, k=5, noise_p=0.2, seed=18))
    windows = list(ds.train) + list(ds.val)
    path = tmp_path / "windows.txt"
    save_windows(windows, str(path))
    back = load_windows(str(path))
    assert len(back) == len(windows)
    for orig, loaded in zip(windows, back):
        assert loaded.symbols == orig.symbols
        assert loaded.label == orig.label
        assert loaded.alphabet_size == orig.alphabet_size
        assert loaded.meta == orig.meta
        assert np.array_equal(loaded.features, orig.features)


def test_window_features_match_symbols():
    w = SequenceWindow((0, 2, 1), 4, 1, "hand")
    assert np.array_equal(w.features, encode_onehot((0, 2, 1), 4))


@pytest.mark.parametrize("alphabet_size", [1, 27, 99])
def test_load_rejects_alphabet_out_of_range(tmp_path, alphabet_size):
    path = tmp_path / "windows.txt"
    path.write_text(f"AAAA 1 4 palindrome\nAAAA 1 {alphabet_size} palindrome\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"'AAAA 1 {alphabet_size} palindrome'"):
        load_windows(str(path))


# ---------- bulk generation against the per-window reference ----------
#
# The reference below is the per-window make_dataset that bulk generation
# replaced: one generator call and one SequenceWindow per window, perturb
# per window, then the shuffle and the split. Bulk generation must give the
# same windows, bit for bit, for every seed.

def _ref_gen_palindrome(k, alphabet_size, rng):
    half = rng.integers(alphabet_size, size=(k + 1) // 2)
    symbols = list(half) + [half[k - 1 - i] for i in range((k + 1) // 2, k)]
    return SequenceWindow(tuple(int(s) for s in symbols), alphabet_size, 1, "palindrome")


def _ref_gen_nonpalindrome(k, alphabet_size, rng):
    if k < 2:
        raise ValueError("impossible for windows shorter than 2")
    while True:
        symbols = tuple(int(s) for s in rng.integers(alphabet_size, size=k))
        if not all(symbols[i] == symbols[k - 1 - i] for i in range(k // 2)):
            return SequenceWindow(symbols, alphabet_size, 0, "nonpalindrome")


def _ref_gen_cyclic(k, period, alphabet_size, rng):
    if period < 1 or period > k or k % period != 0:
        raise ValueError("period must divide the window size")
    base = [int(s) for s in rng.integers(alphabet_size, size=period)]
    symbols = tuple(base[i % period] for i in range(k))
    return SequenceWindow(symbols, alphabet_size, 1, f"cyclic:{period}")


def _ref_gen_noncyclic(k, period, alphabet_size, rng):
    if period < 1 or period > k or k % period != 0:
        raise ValueError("period must divide the window size")
    if period == k:
        raise ValueError("period equal to the window size excludes nothing")
    while True:
        symbols = tuple(int(s) for s in rng.integers(alphabet_size, size=k))
        if not all(symbols[i] == symbols[i % period] for i in range(k)):
            return SequenceWindow(symbols, alphabet_size, 0, f"noncyclic:{period}")


def _ref_perturb(window, p, rng):
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    k = len(window.symbols)
    hits = rng.uniform(0.0, 1.0, k) < p
    fresh = rng.integers(window.alphabet_size, size=k)
    symbols = tuple(int(fresh[i]) if hits[i] else window.symbols[i] for i in range(k))
    meta = window.meta if p == 0.0 else f"{window.meta}+noise"
    return SequenceWindow(symbols, window.alphabet_size, window.label, meta)


def _ref_make_dataset(spec):
    if spec.task not in ("palindrome", "cyclic"):
        raise ValueError("unknown task")
    if spec.n < 2:
        raise ValueError("need n >= 2")
    if spec.k < 1 or not 2 <= spec.alphabet_size <= 26:
        raise ValueError("bad geometry")
    rng = Rng(spec.seed).derive(7)
    n_pos = (spec.n + 1) // 2
    windows = []
    if spec.task == "palindrome":
        for _ in range(n_pos):
            windows.append(_ref_gen_palindrome(spec.k, spec.alphabet_size, rng))
        for _ in range(spec.n - n_pos):
            windows.append(_ref_gen_nonpalindrome(spec.k, spec.alphabet_size, rng))
    else:
        period = spec.period or default_period(spec.k)
        for _ in range(n_pos):
            windows.append(_ref_gen_cyclic(spec.k, period, spec.alphabet_size, rng))
        for _ in range(spec.n - n_pos):
            windows.append(_ref_gen_noncyclic(spec.k, period, spec.alphabet_size, rng))
    if spec.noise_p > 0.0:
        windows = [_ref_perturb(w, spec.noise_p, rng) for w in windows]
    order = rng.permutation(len(windows))
    shuffled = [windows[i] for i in order]
    cut = min(int(round(0.8 * len(shuffled))), len(shuffled) - 1)
    return shuffled[:cut], shuffled[cut:]


def _assert_same_windows(got, want, context):
    assert len(got) == len(want), context
    assert [(w.symbols, w.label, w.meta, w.alphabet_size) for w in got] == \
           [(w.symbols, w.label, w.meta, w.alphabet_size) for w in want], context
    assert b"".join(w.features.tobytes() for w in got) == \
           b"".join(w.features.tobytes() for w in want), context
    assert all(w.features.shape == v.features.shape and w.features.strides == v.features.strides
               and w.features.dtype == v.features.dtype and not w.features.flags.writeable
               for w, v in zip(got, want)), context


def _sweep_specs(task, alphabet_size, sizes=(2, 5, 11, 64)):
    """Every k, period (default, valid and not), noise level and seed at each
    size in sizes; then n = 2500 at k = 6 for each noise level."""
    for k in (2, 3, 4, 5, 6, 7, 8, 9, 12):
        periods = (0,) if task == "palindrome" else (0, -1) + tuple(range(1, k + 1))
        for period in periods:
            for noise_p in (0.0, 0.1, 1.0):
                for n in sizes:
                    for seed in (0, 1, 2**64 - 1):
                        yield DatasetSpec(task=task, n=n, k=k, noise_p=noise_p, seed=seed,
                                          alphabet_size=alphabet_size, period=period)
    for noise_p in (0.0, 0.1, 1.0):
        yield DatasetSpec(task=task, n=2500, k=6, noise_p=noise_p, seed=3,
                          alphabet_size=alphabet_size)


@pytest.mark.parametrize("task", ["palindrome", "cyclic"])
@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 26])
def test_make_dataset_matches_per_window_reference(task, alphabet_size):
    checked = rejected = 0
    for spec in _sweep_specs(task, alphabet_size):
        try:
            want = _ref_make_dataset(spec)
        except ValueError:
            with pytest.raises(ValueError):
                make_dataset(spec)
            rejected += 1
            continue
        got = make_dataset(spec)
        _assert_same_windows(got.train, want[0], spec)
        _assert_same_windows(got.val, want[1], spec)
        checked += 1
    assert checked > 0 and (task == "palindrome" or rejected > 0)


@pytest.mark.parametrize("alphabet_size", [2, 3, 4, 26])
@pytest.mark.parametrize("seed", [0, 21])
def test_per_window_generators_match_reference(alphabet_size, seed):
    a = alphabet_size
    cases = [
        (lambda r: gen_palindrome(1, a, r), lambda r: _ref_gen_palindrome(1, a, r)),
        (lambda r: gen_palindrome(7, a, r), lambda r: _ref_gen_palindrome(7, a, r)),
        (lambda r: gen_nonpalindrome(2, a, r), lambda r: _ref_gen_nonpalindrome(2, a, r)),
        (lambda r: gen_nonpalindrome(6, a, r), lambda r: _ref_gen_nonpalindrome(6, a, r)),
        (lambda r: gen_cyclic(9, 3, a, r), lambda r: _ref_gen_cyclic(9, 3, a, r)),
        (lambda r: gen_cyclic(4, 4, a, r), lambda r: _ref_gen_cyclic(4, 4, a, r)),
        (lambda r: gen_noncyclic(4, 2, a, r), lambda r: _ref_gen_noncyclic(4, 2, a, r)),
        (lambda r: gen_noncyclic(9, 1, a, r), lambda r: _ref_gen_noncyclic(9, 1, a, r)),
    ]
    for p in (0.0, 0.1, 0.5, 1.0):
        cases.append((lambda r, p=p: perturb(gen_palindrome(5, a, r), p, r),
                      lambda r, p=p: _ref_perturb(_ref_gen_palindrome(5, a, r), p, r)))
    for i, (new, ref) in enumerate(cases):
        rng_new, rng_ref = Rng(seed).derive(i), Rng(seed).derive(i)
        got = [new(rng_new) for _ in range(25)]
        want = [ref(rng_ref) for _ in range(25)]
        _assert_same_windows(got, want, i)
        # The stream continues from the same place, spare half-word included.
        assert rng_new.integers(a, size=3).tolist() == rng_ref.integers(a, size=3).tolist()
        assert rng_new.uniform(0.0, 1.0, 2).tolist() == rng_ref.uniform(0.0, 1.0, 2).tolist()
