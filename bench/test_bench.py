"""Checks of the benchmark itself. From the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Each workload at a size that runs in about a second.
SMOKE = {
    "train-c8": lambda workdir: run.TrainC8(0, n=60, epochs=1),
    "cli-train": lambda workdir: run.CliTrain(0, workdir, n=20, epochs=2),
    "equiv-sweep": lambda workdir: run.EquivSweep(0, ("mirror:6", "symmetric:3"), trials=1),
}


def test_smoke_table_covers_every_workload():
    assert set(SMOKE) == set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_has_no_failures_and_reports_the_declared_metrics(name, trace, tmp_path):
    rounds, setup_times, tracer = run.run(SMOKE[name](str(tmp_path)), 0.0, trace)
    assert sum(r.ops for r in rounds) > 0
    assert sum(r.failed for r in rounds) == 0
    if trace:
        # Traced rounds rerun configurations first run untraced, and each
        # rerun is checked bit for bit, so tracing changed no training result.
        assert any(r.traced for r in rounds)
        values = run.per_layer(rounds, tracer)
        declared = SPEC["per_layer"]
    else:
        values = run.end_to_end(rounds, setup_times)
        declared = SPEC["end_to_end"]
        assert all(value > 0 for value, _ in values.values())
    assert {name: unit for name, (_, unit) in values.items()} == \
        {m["name"]: m["unit"] for m in declared}


def _results() -> str:
    """Final training histories and check maxima, as exact decimal text."""
    ds = run.synth.make_dataset(run.synth.DatasetSpec(
        task="palindrome", n=60, k=6, noise_p=0.1, seed=3))
    ps = run.irreps.projector_set(run.groups.mirror_group(6))
    out = []
    for variant in ("pre", "baseline", "post"):
        lay = run.layer.WindowAttentionLayer.random(ps, 4, 1, variant,
                                                    run.numerics.Rng(3).derive(2))
        cfg = run.layer.TrainConfig(epochs=2, learning_rate=1.0, seed=3, batch_size=16,
                                    tracker_trials=1)
        out.append(run.layer.train(lay, ds.train, ds.val, cfg))
    sweep = run.EquivSweep(3, ("cyclic:4", "symmetric:3"), trials=1)
    sweep.setup()
    for _, g, _, maps in sweep.cases:
        for fn in maps.values():
            report = run.attention.equivariance_report(fn, g, run.EQUIV_DIM, 2,
                                                       run.numerics.Rng(5))
            out.append(report.max_error)
    return json.dumps(out)


def test_tracing_leaves_losses_and_equivariance_bit_identical():
    originals = (run.layer.train, run.numerics.softmax_rows,
                 run.layer.WindowAttentionLayer.forward)
    plain = _results()
    tracer = tracing.Tracer()
    tracer.begin_unit()
    with tracer:
        traced = _results()
    tracer.end_unit()
    assert traced == plain
    spans = tracer.units[0]["spans"]
    assert spans["layer.forward"][0] > 0 and spans["attention.decompose_pre"][0] > 0
    assert (run.layer.train, run.numerics.softmax_rows,
            run.layer.WindowAttentionLayer.forward) == originals


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-c8",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
