"""Synthetic window generators, encoding and dataset assembly."""

import numpy as np
import pytest

from isoattn.groups import permutation_matrix, reversal, shift
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
    flip = permutation_matrix(reversal(6))
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
    m = permutation_matrix(shift(9, 3))
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
