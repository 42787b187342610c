"""isoattn benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload train-c8 --seed 0 --seconds 40 --trace 0

One workload runs per process. It runs one untimed warm-up round, then
measured rounds until --seconds have passed (and at least MIN_ROUNDS rounds
ran), and sets itself up afresh before every round (setup_s is the median).
Each round is also divided by a reference kernel timed around it, which
cancels the shared machine's drift. Every operation is checked; failures
are counted, never skipped.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 rounds alternate between untraced and traced and the last line
holds the per-layer metrics from the traced ones. See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread; this must happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_ROUNDS = 4   # measured rounds per run, even past --seconds
CONFIGS = 2      # training configurations cycled through; later rounds rerun them
TOL = 1e-12      # equivariance, homomorphism and projector deviation limit
REF_ITERS = 1000  # size of the reference kernel, about 10 ms


@dataclass
class Round:
    ops: int = 0
    failed: int = 0
    items: int = 0        # train windows or (x, h) evaluations done
    item_s: float = 0.0   # wall time of the calls that did them
    wall: float = 0.0
    ref: float = 0.0      # reference kernel time around the round
    traced: bool = False
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)


def _op(rnd: Round, label: str, fn) -> None:
    """Run one operation. fn returns None when its checks pass, else a reason."""
    rnd.ops += 1
    try:
        problem = fn()
    except Exception:  # a failed operation is counted; the run goes on
        problem = traceback.format_exc()
    if problem:
        rnd.failed += 1
        print(f"FAILED {label}: {problem}", file=sys.stderr)


def _check_history(history, epochs: int):
    if len(history) != epochs:
        return f"{len(history)} history rows, expected {epochs}"
    for row in history:
        for key in ("train_loss", "val_loss", "val_acc"):
            if not math.isfinite(row[key]):
                return f"epoch {row['epoch']}: {key} is {row[key]!r}"
        if not row["equivariance_max"] < TOL:
            return f"epoch {row['epoch']}: equivariance_max {row['equivariance_max']!r}"
    return None


def _subseed(seed: int, tag: int) -> int:
    return int(numerics.Rng(seed).derive(tag).integers(2**31))


# ---------- workloads ----------

class TrainC8:
    """Criterion-8 shape: pre and baseline at batch 16, then activation_mapping."""

    def __init__(self, seed: int, n: int = 2500, epochs: int = 3):
        self.seed, self.n, self.epochs = seed, n, epochs
        self.first = {}

    def setup(self) -> None:
        self.ds = synth.make_dataset(synth.DatasetSpec(
            task="palindrome", n=self.n, k=6, noise_p=0.1, seed=self.seed))
        self.palindromes = [w for w in self.ds.val if w.label == 1]
        self.others = [w for w in self.ds.val if w.label == 0]
        ps = irreps.projector_set(groups.mirror_group(6))
        # Both variants of one configuration start from the same weights.
        self.inits = {(variant, j): layer.WindowAttentionLayer.random(
                          ps, 4, 1, variant, numerics.Rng(self.seed).derive(2).derive(j))
                      for variant in ("pre", "baseline") for j in range(CONFIGS)}
        self.train_seeds = [_subseed(self.seed, 3 + j) for j in range(CONFIGS)]

    def run_round(self, r: int, rnd: Round) -> None:
        for variant in ("pre", "baseline"):
            _op(rnd, f"train {variant} config {r % CONFIGS}",
                lambda: self._train(variant, r % CONFIGS, rnd))

    def _train(self, variant: str, j: int, rnd: Round):
        init = self.inits[variant, j]
        lay = layer.WindowAttentionLayer(init.projectors, init.w_q, init.w_k, init.w_v,
                                         init.w_out, variant)
        cfg = layer.TrainConfig(epochs=self.epochs, learning_rate=1.0,
                                seed=self.train_seeds[j], batch_size=16,
                                task="palindrome", tracker_trials=1)
        start = time.perf_counter()
        history = layer.train(lay, self.ds.train, self.ds.val, cfg)
        rnd.item_s += time.perf_counter() - start
        rnd.items += self.epochs * len(self.ds.train)
        mapping = metrics.activation_mapping(lay, self.palindromes, self.others)
        problem = _check_history(history, self.epochs)
        for row in mapping.rows:
            for mass in (row.motif_mass, row.background_mass):
                if mass is not None and not 0.0 <= mass <= 1.0 + TOL:
                    problem = f"channel {row.label}: attention mass {mass!r}"
        if problem:
            return problem
        first = self.first.setdefault((variant, j), json.dumps(history))
        if json.dumps(history) != first:
            return "rerun differs from the first run of this configuration"
        rnd.val_loss.append(history[-1]["val_loss"])
        rnd.val_acc.append(history[-1]["val_acc"])
        return None


class CliTrain:
    """`isoattn train` in-process at the README settings, per-sample SGD."""

    # items_per_s times the layer.train call inside cli.main with one span.
    stopwatch = "layer.train"

    def __init__(self, seed: int, workdir: str, n: int = 400, epochs: int = 20):
        self.seed, self.workdir, self.n, self.epochs = seed, workdir, n, epochs
        self.seeds = [_subseed(seed, 5 + j) for j in range(CONFIGS)]
        self.first = {}

    def setup(self) -> None:
        # The inputs cmd_train builds before it trains, built the same way.
        # The train split has the same size for every seed.
        s = self.seeds[0]
        ds = synth.make_dataset(synth.DatasetSpec(
            task="palindrome", n=self.n, k=6, noise_p=0.0, seed=s))
        ps = irreps.projector_set(groups.mirror_group(6))
        layer.WindowAttentionLayer.random(ps, 4, 1, "pre", numerics.Rng(s).derive(2))
        self.n_train = len(ds.train)

    def run_round(self, r: int, rnd: Round) -> None:
        _op(rnd, f"cli train config {r % CONFIGS}", lambda: self._call(r % CONFIGS, rnd))

    def _call(self, j: int, rnd: Round):
        path = os.path.join(self.workdir, f"metrics_{j}.jsonl")
        argv = ["train", "--task", "palindrome", "--variant", "pre", "--k", "6",
                "--n", str(self.n), "--epochs", str(self.epochs), "--lr", "0.05",
                "--batch-size", "1", "--seed", str(self.seeds[j]), "--out", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()}"
        rnd.items += self.epochs * self.n_train
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        history = [json.loads(line) for line in text.splitlines()]
        problem = _check_history(history, self.epochs)
        if problem:
            return problem
        if f"val_loss {history[-1]['val_loss']:.6f}" not in out.getvalue():
            return "summary line disagrees with the metrics file"
        if self.first.setdefault(j, text) != text:
            return "rerun differs from the first run of this configuration"
        rnd.val_loss.append(history[-1]["val_loss"])
        rnd.val_acc.append(history[-1]["val_acc"])
        return None


EQUIV_GROUPS = ("mirror:6", "cyclic:12", "dihedral:12", "symmetric:4", "symmetric:5")
EQUIV_DIM = 8


class EquivSweep:
    """Group and projector verification plus the `isoattn check` window maps."""

    def __init__(self, seed: int, descriptors=EQUIV_GROUPS, trials: int = 2):
        self.seed, self.descriptors, self.trials = seed, descriptors, trials

    def setup(self) -> None:
        rng = numerics.Rng(self.seed).derive(1)
        w = [numerics.rand_matrix(rng, EQUIV_DIM, EQUIV_DIM, 1.0) for _ in range(3)]
        self.cases = []
        for desc in self.descriptors:
            g = groups.from_descriptor(desc)
            ps = irreps.projector_set(g)
            maps = {variant: self._window_map(variant, ps, *w)
                    for variant in ("baseline", "pre", "post")}
            self.cases.append((desc, g, ps, maps))

    @staticmethod
    def _window_map(variant, ps, wq, wk, wv):
        # The same maps `isoattn check` builds for each variant.
        def fn(x):
            q, k, v = x @ wq, x @ wk, x @ wv
            if variant == "baseline":
                return attention.attention(q, k, v)
            if variant == "pre":
                return attention.decompose_pre(q, k, v, ps).total
            return attention.decompose_post(q, k, v, ps).total
        return fn

    def run_round(self, r: int, rnd: Round) -> None:
        rng = numerics.Rng(self.seed).derive(2).derive(r)
        for desc, g, ps, maps in self.cases:
            _op(rnd, f"verify_homomorphism {desc}", lambda: self._homomorphism(g))
            _op(rnd, f"verify_projector_set {desc}", lambda: self._projectors(ps))
            for variant, fn in maps.items():
                _op(rnd, f"check {desc} {variant}", lambda: self._check(fn, g, rng, rnd))

    @staticmethod
    def _homomorphism(g):
        report = groups.verify_homomorphism(g)
        return None if report.ok else f"{len(report.violations)} violating pairs"

    @staticmethod
    def _projectors(ps):
        dev = irreps.verify_projector_set(ps).max_deviation()
        return None if dev < TOL else f"projector deviation {dev!r}"

    def _check(self, fn, g, rng, rnd: Round):
        start = time.perf_counter()
        report = attention.equivariance_report(fn, g, EQUIV_DIM, self.trials, rng)
        rnd.item_s += time.perf_counter() - start
        rnd.items += self.trials * g.order
        return None if report.max_error < TOL else f"equivariance_max {report.max_error!r}"


WORKLOADS = {
    "train-c8": lambda seed, workdir: TrainC8(seed),
    "cli-train": lambda seed, workdir: CliTrain(seed, workdir),
    "equiv-sweep": lambda seed, workdir: EquivSweep(seed),
}


# ---------- runner ----------

@contextlib.contextmanager
def _unit(tracer):
    if tracer is None:
        yield
        return
    tracer.begin_unit()
    with tracer:
        yield
    tracer.end_unit()


def reference_s() -> float:
    """Wall time of a fixed piece of small-array numpy and interpreter work
    that does not touch isoattn: how fast the shared machine runs right now."""
    a = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    start = time.perf_counter()
    for i in range(REF_ITERS):
        m = a @ a.T
        e = np.exp(m - m.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        {j: j * i for j in range(20)}
    return time.perf_counter() - start


def _round(wl, r: int, tracer, traced: bool = False) -> Round:
    rnd = Round(traced=traced)
    before = reference_s()
    with _unit(tracer):
        start = time.perf_counter()
        wl.run_round(r, rnd)
        rnd.wall = time.perf_counter() - start
    rnd.ref = (before + reference_s()) / 2.0
    if tracer is not None and getattr(wl, "stopwatch", None):
        rnd.item_s = tracer.units[-1]["spans"][wl.stopwatch][1]
    return rnd


def run(wl, seconds: float, trace: bool):
    """Set up, warm up and measure one workload. Returns (rounds, setup times, tracer)."""
    tracer = tracing.Tracer() if trace else None
    stopwatch = tracing.Tracer({wl.stopwatch}) if getattr(wl, "stopwatch", None) else None
    setup_times, rounds = [], []
    begin = time.perf_counter()
    r = 0
    while r <= MIN_ROUNDS or time.perf_counter() - begin < seconds:
        # A set-up before every round spreads the set-ups over the run, so
        # their median sees the same machine drift as the rounds do.
        with _unit(tracer):
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        traced = trace and r > 0 and r % 2 == 0
        rounds.append(_round(wl, r, tracer if traced else stopwatch, traced))
        if r == 0:
            begin = time.perf_counter()  # the clock starts after the warm-up round
        r += 1
    return rounds, setup_times, tracer


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def wall_clock(rounds) -> dict:
    """Round time and throughput in seconds, as measured."""
    timed = rounds[1:]  # rounds[0] is the warm-up
    return {
        "run_s": (_median([r.wall for r in timed]), "s"),
        "items_per_s": (_median([r.items / r.item_s for r in timed if r.item_s > 0]), "1/s"),
    }


def end_to_end(rounds, setup_times) -> dict:
    # Round time and throughput are divided by the reference kernel time
    # taken around the same round, which cancels the machine's drift.
    timed = rounds[1:]
    return {
        "setup_s": (_median(setup_times), "s"),
        "run_ref": (_median([r.wall / r.ref for r in timed]), "ref"),
        "items_per_ref": (_median([r.items * r.ref / r.item_s for r in timed if r.item_s > 0]),
                          "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rounds, tracer) -> dict:
    units = tracer.units

    def spans(metric, idx):
        return _median([u["spans"][metric][idx] for u in units if metric in u["spans"]])

    def count(name):
        return _median([u["counts"][name] for u in units if name in u["counts"]])

    def forward(purpose):
        return _median([u["counts"].get(f"layer.forward.{purpose}_s", 0.0)
                        for u in units if "layer.forward" in u["spans"]])

    ratios = [u["counts"]["attention.equivariance_report.distinct"]
              / u["counts"]["attention.equivariance_report.fn_calls"]
              for u in units if u["counts"].get("attention.equivariance_report.fn_calls")]
    timed = rounds[1:]
    overhead = (_median([r.wall for r in timed if r.traced])
                - _median([r.wall for r in timed if not r.traced]))
    out = {
        "synth.make_dataset.s": (spans("synth.make_dataset", 1), "s"),
        "synth.windows": (count("synth.windows"), "count"),
        "groups.build.s": (spans("groups.build", 1), "s"),
        "groups.verify_homomorphism.s": (spans("groups.verify_homomorphism", 1), "s"),
        "groups.verify_homomorphism.pairs": (count("groups.verify_homomorphism.pairs"), "count"),
        "irreps.projector_set.s": (spans("irreps.projector_set", 1), "s"),
        "irreps.verify_projector_set.s": (spans("irreps.verify_projector_set", 1), "s"),
        "irreps.real_irreps.calls": (spans("irreps.real_irreps", 0), "count"),
    }
    for metric in ("numerics.softmax_rows", "numerics.softmax_rows_vjp",
                   "attention.decompose_pre", "attention.decompose_post"):
        out[f"{metric}.calls"] = (spans(metric, 0), "count")
        out[f"{metric}.s"] = (spans(metric, 1), "s")
    out.update({
        "attention.equivariance_report.s": (spans("attention.equivariance_report", 1), "s"),
        "attention.equivariance_report.fn_calls":
            (count("attention.equivariance_report.fn_calls"), "count"),
        "attention.equivariance_report.useful_ratio": (_median(ratios), "ratio"),
        "layer.forward.calls": (spans("layer.forward", 0), "count"),
        "layer.forward.s": (spans("layer.forward", 1), "s"),
        "layer.forward.train_s": (forward("train"), "s"),
        "layer.forward.eval_s": (forward("eval"), "s"),
        "layer.forward.tracker_s": (forward("tracker"), "s"),
        "layer.backward.calls": (spans("layer.backward", 0), "count"),
        "layer.backward.s": (spans("layer.backward", 1), "s"),
        "layer.train.self_s": (spans("layer.train", 2), "s"),
        "layer.train.val_loss": (_median([v for r in rounds for v in r.val_loss]), "nats"),
        "layer.train.val_acc": (_median([v for r in rounds for v in r.val_acc]), "ratio"),
        "metrics.activation_mapping.s": (spans("metrics.activation_mapping", 1), "s"),
        "metrics.activation_mapping.windows": (count("metrics.activation_mapping.windows"), "count"),
        "cli.main.self_s": (spans("cli.main", 2), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": _git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="isoattn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        rounds, setup_times, tracer = run(wl, args.seconds, bool(args.trace))
    values = per_layer(rounds, tracer) if args.trace else end_to_end(rounds, setup_times)

    timed = [r.wall for r in rounds[1:]]
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} rounds {len(timed)} "
          f"round_s min {min(timed):.4f} median {statistics.median(timed):.4f} "
          f"max {max(timed):.4f} reference_s median "
          f"{statistics.median(r.ref for r in rounds[1:]):.6f}")
    for name, (value, unit) in wall_clock(rounds).items():
        print(f"wall-clock {name} {value:.6g} {unit}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in values.items()}}))
    return 0


if not (SRC / "isoattn" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no isoattn sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import tracing  # noqa: E402  (bench/tracing.py, next to this file)
from tracing import module  # noqa: E402

from isoattn import cli, groups, irreps, layer, metrics, numerics, synth  # noqa: E402

attention = module("attention")

if __name__ == "__main__":
    sys.exit(main())
