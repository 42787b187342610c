"""Command-line front end for group inspection, projector export, equivariance
checks, sequence demos and training runs.

Usage examples:

    isoattn info --group cyclic:2
    isoattn projectors --group dihedral:4 --out d4.proj
    isoattn check --group cyclic:2 --dim 8 --trials 100 --variant pre
    isoattn demo-dna AG --out demo_out
    isoattn dataset --task palindrome --n 200 --k 6 --noise 0.1 --out data.txt
    isoattn train --task palindrome --variant pre --k 6 --epochs 20 --lr 0.05 \
        --out metrics.jsonl

check tests the window map of a layer of the chosen variant whose w_q,
w_k and w_v are three random --dim square matrices.

Exit codes: 0 success, 1 runtime failure (including failed checks where the
command promises it), 2 usage error. An empty --out, a file --out
(projectors, dataset, train) that is a directory or whose directory does
not exist, and a directory --out (demo-dna) that exists as something else
or cannot be made, are usage errors, found before any work: demo-dna makes
its directory before it builds the group.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import groups, irreps, layer, synth
from .attention import equivariance_report
from .numerics import Rng, rand_matrix

CHECK_TOL = 1e-10
EXPORT_TOL = 1e-12
# The largest window --k builds (and the longest demo-dna sequence): the cap
# group descriptor parameters have.
MAX_K = groups._MAX_ORDER
# Caps on dataset size and check feature width, which bound the memory a
# command asks for before it allocates anything.
MAX_N = 100_000
MAX_DIM = 1024
# Cap on the bytes train holds for its projected training stack, and for the
# attention weights of its largest kernel pass (a mini-batch or an
# evaluation chunk), checked before the dataset is made.
MAX_TRAIN_BYTES = 256 * 2**20


class UsageError(Exception):
    pass


def _log(msg: str) -> None:
    print(msg, flush=True)


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= 2**64 - 1:
        raise UsageError(f"--seed must be in [0, 2**64 - 1], got {seed}")


def _check_out(path: str) -> None:
    # A file --out that cannot be created is found before any work is done.
    if not path:
        raise UsageError("--out is empty")
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")


def _parse_group(descriptor: str) -> groups.FiniteGroup:
    try:
        return groups.from_descriptor(descriptor)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------- commands ----------

def cmd_info(args) -> int:
    g = _parse_group(args.group)
    ps = irreps.projector_set(g)
    hom = groups.verify_homomorphism(g)
    _log(f"group {g.descriptor}")
    _log(f"order {g.order}")
    _log(f"window {g.degree}")
    sizes = [len(c) for c in g.classes]
    _log(f"classes {len(g.classes)} sizes {sizes}")
    _log("irreps:")
    for item in ps.items:
        note = " absent" if item.absent else ""
        _log(f"  {item.irrep.label} dim {item.irrep.dim} mult {item.multiplicity}{note}")
    status = "ok" if hom.ok else f"FAILED with {len(hom.violations)} violations"
    _log(f"homomorphism {status} ({hom.pairs_checked} pairs)")
    return 0 if hom.ok else 1


def cmd_projectors(args) -> int:
    _check_out(args.out)
    g = _parse_group(args.group)
    ps = irreps.projector_set(g)
    report = irreps.verify_projector_set(ps)
    for name in ("idempotency", "orthogonality", "completeness", "symmetry", "commutation"):
        _log(f"{name} deviation {getattr(report, name):.3e}")
    irreps.save_projectors(ps, args.out)
    _log(f"wrote {args.out}")
    if not report.ok(EXPORT_TOL):
        _log(f"deviation above {EXPORT_TOL}")
        return 1
    return 0


def cmd_check(args) -> int:
    _check_seed(args.seed)
    g = _parse_group(args.group)
    if not 1 <= args.dim <= MAX_DIM:
        raise UsageError(f"--dim must be in [1, {MAX_DIM}], got {args.dim}")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    ps = irreps.projector_set(g)
    rng = Rng(args.seed)
    wq = rand_matrix(rng, args.dim, args.dim, 1.0)
    wk = rand_matrix(rng, args.dim, args.dim, 1.0)
    wv = rand_matrix(rng, args.dim, args.dim, 1.0)
    lay = layer.WindowAttentionLayer(ps, wq, wk, wv, np.zeros((args.dim, 1)), args.variant)
    report = equivariance_report(lay.window_map, g, args.dim, args.trials, rng)
    _log(f"group {g.descriptor} variant {args.variant} trials {args.trials}")
    _log(f"max {report.max_error:.3e}")
    _log(f"mean {report.mean_error:.3e}")
    if report.max_error < CHECK_TOL:
        _log(f"equivariance ok (below {CHECK_TOL})")
        return 0
    _log(f"equivariance FAILED (at or above {CHECK_TOL})")
    return 1


def cmd_demo_dna(args) -> int:
    _check_seed(args.seed)
    seq = args.sequence.upper()
    for ch in seq:
        if ch not in "ACGT":
            raise UsageError(f"symbol {ch!r} is not a DNA base (expected A, C, G or T)")
    if not 2 <= len(seq) <= MAX_K:
        raise UsageError(f"sequence must have 2 to {MAX_K} bases, got {len(seq)}")
    if not args.out:
        raise UsageError("--out is empty")
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise UsageError(f"--out {args.out} exists and is not a directory")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: cannot make the directory ({exc.strerror})") from None
    g = groups.mirror_group(len(seq))
    ps = irreps.projector_set(g)
    rng = Rng(args.seed)
    lay = layer.WindowAttentionLayer.random(ps, 4, 1, "pre", rng)
    x = synth.encode_onehot(synth.text_to_symbols(seq, 4), 4)
    att = lay.forward(x)[1]["attention"]
    _log(f"sequence {seq} window {len(seq)} group {g.descriptor}")
    for label, weights, output in zip(ps.labels, att.weights[0], att.outputs[0]):
        norm = float(np.sqrt((output * output).sum()))
        path = os.path.join(args.out, f"attn_{label}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for row in weights:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
        _log(f"channel {label} output-norm {norm:.6e} weights {path}")
    return 0


def cmd_dataset(args) -> int:
    _check_out(args.out)
    spec = _dataset_spec(args)
    ds = synth.make_dataset(spec)
    synth.save_windows(list(ds.train) + list(ds.val), args.out)
    _log(f"task {spec.task} k {spec.k} noise {spec.noise_p} seed {spec.seed}")
    _log(f"wrote {len(ds.train)} train + {len(ds.val)} val windows to {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_out(args.out)
    spec = _dataset_spec(args)
    if args.epochs < 1:
        raise UsageError(f"--epochs must be >= 1, got {args.epochs}")
    if args.batch_size < 1:
        raise UsageError(f"--batch-size must be >= 1, got {args.batch_size}")
    if not (np.isfinite(args.lr) and args.lr >= 0):
        raise UsageError(f"--lr must be finite and >= 0, got {args.lr}")
    if spec.task == "palindrome":
        g = groups.mirror_group(spec.k)
    else:
        period = spec.period or synth.default_period(spec.k)
        g = groups.shift_group(spec.k, period)
    ps = irreps.projector_set(g)
    stack = layer.attending_stack(ps, args.variant)
    _check_train_memory(spec, 1 if stack is None else len(stack), args.batch_size)
    ds = synth.make_dataset(spec)
    lay = layer.WindowAttentionLayer.random(ps, spec.alphabet_size, 1, args.variant,
                                            Rng(args.seed).derive(2))
    cfg = layer.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                            seed=args.seed, batch_size=args.batch_size)
    history = layer.train(lay, ds.train, ds.val, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row) + "\n")
    last = history[-1]
    _, train_acc = layer._evaluate(lay, ds.train.features, ds.train.labels)
    _log(f"group {g.descriptor} variant {args.variant} epochs {args.epochs}")
    _log(f"final train_loss {last['train_loss']:.6f} train_acc "
         f"{train_acc:.4f} val_loss {last['val_loss']:.6f} "
         f"val_acc {last['val_acc']:.4f}")
    _log(f"equivariance_max {last['equivariance_max']:.3e}")
    _log(f"wrote {args.out}")
    return 0


def _check_train_memory(spec: synth.DatasetSpec, channels: int, batch_size: int) -> None:
    """Reject a run whose projected training stack (train windows, attending
    channels, k, d), or whose largest kernel pass's attention weights
    (windows, channels, k, k), would exceed MAX_TRAIN_BYTES."""
    n_train = synth.train_size(spec.n)
    per_pass = min(max(layer.EVAL_CHUNK, batch_size), n_train)
    for what, shape in (("training stack", (n_train, channels, spec.k, spec.alphabet_size)),
                        ("attention weights of one kernel pass",
                         (per_pass, channels, spec.k, spec.k))):
        size = 8 * int(np.prod(shape, dtype=np.int64))
        if size > MAX_TRAIN_BYTES:
            raise UsageError(f"the {what} {shape} would take {size / 2**20:.1f} MiB, "
                             f"above the {MAX_TRAIN_BYTES // 2**20} MiB budget")


# ---------- wiring ----------

def _dataset_spec(args) -> synth.DatasetSpec:
    if not 5 <= args.n <= MAX_N:
        raise UsageError(f"--n must be in [5, {MAX_N}], got {args.n}")
    if args.k < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    if args.k > MAX_K:
        raise UsageError(f"--k must be <= {MAX_K}, got {args.k}")
    if not 0.0 <= args.noise <= 1.0:
        raise UsageError(f"--noise must be in [0, 1], got {args.noise}")
    _check_seed(args.seed)
    return synth.DatasetSpec(task=args.task, n=args.n, k=args.k, noise_p=args.noise,
                             seed=args.seed, alphabet_size=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isoattn",
                                     description="symmetry-channel window attention tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="group structure, irreps and multiplicities")
    p.add_argument("--group", required=True, help="descriptor, e.g. cyclic:2 or dihedral:4")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("projectors", help="verify and export isotypic projectors")
    p.add_argument("--group", required=True)
    p.add_argument("--out", required=True, help="output text file")
    p.set_defaults(func=cmd_projectors)

    p = sub.add_parser("check", help="equivariance check with random weights")
    p.add_argument("--group", required=True)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=layer.VARIANTS, default="pre")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("demo-dna", help="per-channel attention maps for a DNA window")
    p.add_argument("sequence", help=f"sequence over A/C/G/T, 2 to {MAX_K} bases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="demo_out", help="directory for weight CSVs")
    p.set_defaults(func=cmd_demo_dna)

    p = sub.add_parser("dataset", help="generate and export a labeled window set")
    p.add_argument("--task", choices=("palindrome", "cyclic"), default="palindrome")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train a window classifier and log metrics")
    p.add_argument("--task", choices=("palindrome", "cyclic"), default="palindrome")
    p.add_argument("--variant", choices=layer.VARIANTS, default="pre")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--out", required=True, help="line-delimited metrics file")
    p.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
