"""Acceptance suite: nine desk-scale checks, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Criterion 8
is a recorded experiment: it asserts only that the runs complete
deterministically and prints the measured outcome.
"""

import itertools
import statistics
import time

import numpy as np

from isoattn.attention import attention, decompose_post, decompose_pre
from isoattn.groups import (
    cyclic_group,
    dihedral_group,
    mirror_group,
    permute_rows,
    shift_group,
    symmetric_group,
    trivial_group,
    verify_homomorphism,
)
from isoattn.irreps import projector_set, verify_projector_set
from isoattn.layer import TrainConfig, WindowAttentionLayer, finite_diff_check, train
from isoattn.numerics import Rng, frobenius_sq, rand_matrix, softmax_rows
from isoattn.synth import DatasetSpec, gen_palindrome, make_dataset


def _report(num: int, name: str, ok: bool) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} {name}: {status}", flush=True)
    return ok


def _roster():
    gs = [cyclic_group(n) for n in (1, 2, 3, 4, 6, 12, 24)]
    gs += [dihedral_group(n) for n in (1, 2, 3, 4, 6, 12)]
    gs += [symmetric_group(k) for k in (1, 2, 3, 4, 5)]
    gs += [mirror_group(k) for k in (2, 4, 6, 8)]
    gs += [shift_group(6, 3), shift_group(9, 3), shift_group(8, 4)]
    gs += [trivial_group(3), trivial_group(5)]
    return gs


def test_criterion_1_homomorphism():
    ok = True
    for g in _roster():
        assert g.order <= 120
        rep = verify_homomorphism(g)
        ok = ok and rep.ok and rep.pairs_checked == g.order * g.order
    assert _report(1, "homomorphism", ok)


def test_criterion_2_projector_identities():
    tol = 1e-12
    worst = 0.0
    gs = [cyclic_group(n) for n in range(1, 13)]
    gs += [dihedral_group(n) for n in range(1, 13)]
    gs += [symmetric_group(k) for k in range(1, 6)]
    for g in gs:
        rep = verify_projector_set(projector_set(g))
        for name in ("idempotency", "orthogonality", "completeness",
                     "symmetry", "commutation"):
            worst = max(worst, getattr(rep, name))
    assert _report(2, "projector-identities", worst < tol), worst


def test_criterion_3_integer_multiplicities():
    ok = True
    for g in _roster():
        ps = projector_set(g)
        total = 0
        for item in ps.items:
            raw = float(np.trace(item.projector)) / item.irrep.dim
            ok = ok and abs(raw - round(raw)) < 1e-9
            ok = ok and round(raw) == item.multiplicity
            total += item.irrep.dim * item.multiplicity
        ok = ok and total == g.degree
    mults = tuple(i.multiplicity for i in projector_set(mirror_group(2)).items)
    ok = ok and mults == (1, 1)
    s3 = {i.irrep.label: i.multiplicity for i in projector_set(symmetric_group(3)).items}
    ok = ok and s3["sign"] == 0
    d4_two_dim = [i.multiplicity for i in projector_set(dihedral_group(4)).items
                  if i.irrep.dim == 2]
    ok = ok and d4_two_dim == [1]
    assert _report(3, "integer-multiplicities", ok)


def test_criterion_4_softmax_conjugation():
    rng = np.random.default_rng(911)
    mats = [rng.standard_normal((4, 4)) for _ in range(50)]
    perms = [np.eye(4)[list(p)] for p in itertools.permutations(range(4))]
    assert len(perms) == 24
    worst = 0.0
    for m in mats:
        sm = softmax_rows(m)
        for p in perms:
            diff = softmax_rows(p @ m @ p.T) - p @ sm @ p.T
            worst = max(worst, float(np.abs(diff).max()))
    assert _report(4, "softmax-conjugation", worst < 1e-12), worst


def test_criterion_5_attention_equivariance():
    cases = [
        (cyclic_group(6), 32),
        (dihedral_group(4), 16),
        (symmetric_group(4), 8),
        (mirror_group(8), 12),
        (shift_group(8, 4), 24),
        (trivial_group(5), 32),
    ]
    worst = 0.0
    for g, dim in cases:
        ps = projector_set(g)
        rng = Rng(g.order * 1000 + dim)
        wq = rand_matrix(rng, dim, dim, 1.0)
        wk = rand_matrix(rng, dim, dim, 1.0)
        wv = rand_matrix(rng, dim, dim, 1.0)
        for _ in range(100):
            x = rand_matrix(rng, g.degree, dim, 1.0)
            base_plain = attention(x @ wq, x @ wk, x @ wv)
            base_pre = decompose_pre(x @ wq, x @ wk, x @ wv, ps)
            base_post = decompose_post(x @ wq, x @ wk, x @ wv, ps)
            for h in g.perm:
                xp = permute_rows(h, x)
                perm_plain = attention(xp @ wq, xp @ wk, xp @ wv)
                perm_pre = decompose_pre(xp @ wq, xp @ wk, xp @ wv, ps)
                perm_post = decompose_post(xp @ wq, xp @ wk, xp @ wv, ps)
                worst = max(worst, frobenius_sq(
                    perm_plain - permute_rows(h, base_plain)))
                worst = max(worst, frobenius_sq(
                    perm_pre.total - permute_rows(h, base_pre.total)))
                worst = max(worst, frobenius_sq(
                    perm_post.total - permute_rows(h, base_post.total)))
                for cp, cb in zip(perm_pre.channels, base_pre.channels):
                    worst = max(worst, frobenius_sq(
                        cp.output - permute_rows(h, cb.output)))
    assert _report(5, "attention-equivariance", worst < 1e-12), worst


def test_criterion_6_decomposition_identity():
    worst = 0.0
    for g, dim in ((mirror_group(6), 8), (dihedral_group(4), 6), (cyclic_group(5), 4)):
        ps = projector_set(g)
        rng = Rng(g.order + dim)
        for _ in range(50):
            q = rand_matrix(rng, g.degree, dim, 1.0)
            k = rand_matrix(rng, g.degree, dim, 1.0)
            v = rand_matrix(rng, g.degree, dim, 1.0)
            post = decompose_post(q, k, v, ps)
            worst = max(worst, float(np.abs(post.total - attention(q, k, v)).max()))
            pre = decompose_pre(q, k, v, ps)
            channel_sum = sum(c.output for c in pre.channels)
            worst = max(worst, float(np.abs(pre.total - channel_sum).max()))
    assert _report(6, "decomposition-identity", worst < 1e-12), worst


def test_criterion_7_gradient_correctness():
    # Each case runs at the initial w_energy = 0 and again with random energy
    # weights, so the channel-energy term of the backward pass is checked too.
    ps = projector_set(mirror_group(6))
    worst = 0.0
    for variant in ("baseline", "pre", "post"):
        for seed in range(10):
            rng = Rng(100 + seed)
            lay = WindowAttentionLayer.random(ps, 8, 1, variant, rng)
            x = rand_matrix(rng, 6, 8, 1.0)
            worst = max(worst, finite_diff_check(lay, x, seed % 2, eps=1e-5))
            lay.w_energy[...] = rand_matrix(rng, len(ps.items), 1, 1.0)
            worst = max(worst, finite_diff_check(lay, x, seed % 2, eps=1e-5))
    assert _report(7, "gradient-correctness", worst < 1e-5), worst


def test_criterion_8_hypothesis_check():
    start = time.perf_counter()
    g = mirror_group(6)
    ps = projector_set(g)
    cfg_args = dict(epochs=30, learning_rate=1.0, batch_size=16,
                    task="palindrome", tracker_trials=1)

    def run(variant: str, seed: int):
        ds = make_dataset(DatasetSpec(task="palindrome", n=2500, k=6,
                                      noise_p=0.1, seed=seed))
        assert len(ds.train) == 2000 and len(ds.val) == 500
        lay = WindowAttentionLayer.random(ps, 4, 1, variant, Rng(seed).derive(2))
        history = train(lay, ds.train, ds.val, TrainConfig(seed=seed, **cfg_args))
        return history

    final = {"pre": [], "baseline": []}
    for variant in final:
        for seed in range(10):
            final[variant].append(run(variant, seed)[-1]["val_loss"])
    deterministic = run("pre", 0)[-1]["val_loss"] == final["pre"][0]
    med_pre = statistics.median(final["pre"])
    med_base = statistics.median(final["baseline"])
    verdict = "holds" if med_pre <= med_base else "does not hold"
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion 8 detail: pre median val loss {med_pre:.6f}, "
          f"baseline {med_base:.6f}, hypothesis {verdict} "
          f"({elapsed:.1f} s)", flush=True)
    assert _report(8, "hypothesis-check", deterministic)


def test_criterion_9_sign_channel_nulling():
    ps = projector_set(mirror_group(6))
    worst = 0.0
    for seed in range(100):
        rng = Rng(7000 + seed)
        x = gen_palindrome(6, 4, rng).features
        wq = rand_matrix(rng, 4, 4, 1.0)
        wk = rand_matrix(rng, 4, 4, 1.0)
        wv = rand_matrix(rng, 4, 4, 1.0)
        dec = decompose_pre(x @ wq, x @ wk, x @ wv, ps)
        sign = next(c for c in dec.channels if c.label == "sign")
        worst = max(worst, float(np.sqrt(frobenius_sq(sign.output))))
    assert _report(9, "sign-channel-nulling", worst < 1e-12), worst
