"""End-to-end checks of the command line interface via main(argv)."""

import hashlib
import itertools
import json
import os
import warnings

import numpy as np
import pytest

from isoattn.attention import decompose_pre
from isoattn.cli import main
from isoattn.groups import cyclic_group, mirror_group
from isoattn.irreps import load_projectors, projector_set
from isoattn.layer import WindowAttentionLayer
from isoattn.numerics import Rng
from isoattn.synth import encode_onehot, text_to_symbols


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def final_summary_value(out, key):
    """Pull a float that follows `key` in the cmd_train summary line."""
    for line in out.splitlines():
        parts = line.split()
        if key in parts:
            return float(parts[parts.index(key) + 1])
    raise AssertionError(f"no {key!r} in output:\n{out}")


def test_info_cyclic_two(capsys):
    code, out, _ = run(capsys, "info", "--group", "cyclic:2")
    assert code == 0
    assert "order 2" in out
    assert "trivial" in out
    assert "sign" in out
    assert "homomorphism ok" in out


def test_info_dihedral_four(capsys):
    code, out, _ = run(capsys, "info", "--group", "dihedral:4")
    assert code == 0
    assert "order 8" in out
    assert "classes 5" in out


@pytest.mark.parametrize("desc, order", [("dihedral:61", 122), ("dihedral:120", 240)])
def test_info_verifies_every_group_a_descriptor_builds(desc, order, capsys):
    # dihedral:61 .. dihedral:120 exceed order 120 but are built from
    # descriptors, so they must verify.
    code, out, err = run(capsys, "info", "--group", desc)
    assert code == 0 and err == ""
    assert f"order {order}" in out
    assert f"homomorphism ok ({order * order} pairs)" in out


def test_info_rejects_untabulated_group(capsys):
    code, _, err = run(capsys, "info", "--group", "symmetric:9")
    assert code == 2
    assert "error" in err


def test_group_parameter_above_the_cap_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "never.proj"
    code, _, err = run(capsys, "projectors", "--group", "cyclic:121", "--out", str(out))
    assert code == 2
    assert "capped at 120" in err
    assert not out.exists()


def test_projectors_export_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "proj_c2.txt"
    code, text, _ = run(capsys, "projectors", "--group", "cyclic:2", "--out", str(out))
    assert code == 0
    assert "completeness deviation" in text
    assert out.exists()
    loaded = load_projectors(str(out))
    ps = projector_set(cyclic_group(2))
    assert loaded.group.descriptor == ps.group.descriptor
    assert loaded.window == ps.window
    for got, want in zip(loaded.items, ps.items):
        assert got.irrep == want.irrep
        assert np.array_equal(got.projector, want.projector)
    eye = np.eye(2)
    r = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(loaded.items[0].projector, (eye + r) / 2, atol=1e-15)
    assert np.allclose(loaded.items[1].projector, (eye - r) / 2, atol=1e-15)


def test_projectors_cyclic_three(tmp_path, capsys):
    out = tmp_path / "proj_c3.txt"
    code, _, _ = run(capsys, "projectors", "--group", "cyclic:3", "--out", str(out))
    assert code == 0
    loaded = load_projectors(str(out))
    ones = np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(loaded.items[0].projector, ones, atol=1e-15)
    assert np.allclose(loaded.items[1].projector, np.eye(3) - ones, atol=1e-15)


def test_check_passes_for_pre(capsys):
    code, out, _ = run(capsys, "check", "--group", "cyclic:2", "--dim", "8",
                       "--trials", "100", "--variant", "pre")
    assert code == 0
    assert "equivariance ok" in out


def test_check_passes_for_post(capsys):
    code, out, _ = run(capsys, "check", "--group", "dihedral:4", "--dim", "16",
                       "--trials", "50", "--variant", "post")
    assert code == 0
    assert "equivariance ok" in out


def test_check_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "check", "--group", "cyclic:2", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_unknown_variant_is_usage_error(capsys):
    code, _, _ = run(capsys, "check", "--group", "cyclic:2", "--variant", "sideways")
    assert code == 2


def test_demo_dna_palindrome_kills_sign_channel(tmp_path, capsys):
    out = tmp_path / "demo"
    code, text, _ = run(capsys, "demo-dna", "AA", "--out", str(out))
    assert code == 0
    norms = {}
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["channel"]:
            norms[parts[1]] = float(parts[3])
    assert norms["sign"] < 1e-12
    assert norms["trivial"] > 1e-12
    assert (out / "attn_trivial.csv").exists()
    assert (out / "attn_sign.csv").exists()


def test_demo_dna_generic_sequence_keeps_both_channels(tmp_path, capsys):
    code, text, _ = run(capsys, "demo-dna", "AG", "--out", str(tmp_path / "d"))
    assert code == 0
    norms = [float(line.split()[3]) for line in text.splitlines()
             if line.startswith("channel ")]
    assert len(norms) == 2
    assert all(n > 1e-6 for n in norms)


def test_demo_dna_rejects_non_base(tmp_path, capsys):
    code, _, err = run(capsys, "demo-dna", "AXG", "--out", str(tmp_path / "d"))
    assert code == 2
    assert "'X'" in err


def demo_layer(n, seed=0):
    """The projector set and layer demo-dna builds for n bases and a seed."""
    ps = projector_set(mirror_group(n))
    return ps, WindowAttentionLayer.random(ps, 4, 1, "pre", Rng(seed))


def hand_mapped_demo(seq, out):
    """The lines and CSV texts demo-dna wrote before it ran the layer's pass:
    decompose_pre of the window mapped by hand through w_q, w_k and w_v."""
    ps, lay = demo_layer(len(seq))
    x = encode_onehot(text_to_symbols(seq, 4), 4)
    dec = decompose_pre(x @ lay.w_q, x @ lay.w_k, x @ lay.w_v, ps)
    lines, files = [f"sequence {seq} window {len(seq)} group {ps.group.descriptor}"], {}
    for ch in dec.channels:
        norm = float(np.sqrt((ch.output * ch.output).sum()))
        path = os.path.join(out, f"attn_{ch.label}.csv")
        files[path] = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                              for row in ch.weights)
        lines.append(f"channel {ch.label} output-norm {norm:.6e} weights {path}")
    return lines, files


def test_demo_dna_channels_are_decompose_pre_of_the_hand_mapped_window():
    # Every sequence of 2 to 6 bases, and seeded random ones up to the cap:
    # the channels of the layer's forward pass, which demo-dna prints and
    # writes, are decompose_pre of x w_q, x w_k and x w_v, bit for bit.
    rng = Rng(90)
    seqs = ["".join(p) for n in range(2, 7) for p in itertools.product("ACGT", repeat=n)]
    seqs += ["".join("ACGT"[s] for s in rng.integers(4, int(n)))
             for n in rng.integers(119, 40) + 2]
    layers = {}
    for seq in seqs:
        if len(seq) not in layers:
            layers[len(seq)] = demo_layer(len(seq))
        ps, lay = layers[len(seq)]
        x = encode_onehot(text_to_symbols(seq, 4), 4)
        att = lay.forward(x)[1]["attention"]
        dec = decompose_pre(x @ lay.w_q, x @ lay.w_k, x @ lay.w_v, ps)
        assert len(dec.channels) == att.weights.shape[1]
        for weights, output, ch in zip(att.weights[0], att.outputs[0], dec.channels):
            assert np.array_equal(weights, ch.weights) and np.array_equal(output, ch.output)


def test_demo_dna_writes_what_the_hand_mapped_path_wrote(tmp_path, capsys):
    out = str(tmp_path / "demo")
    code, text, err = run(capsys, "demo-dna", "GAATTCAGT", "--out", out)
    lines, files = hand_mapped_demo("GAATTCAGT", out)
    assert (code, err) == (0, "")
    assert text.splitlines() == lines
    assert sorted(os.listdir(out)) == sorted(os.path.basename(path) for path in files)
    for path, csv in files.items():
        with open(path, "rb") as fh:
            assert fh.read() == csv.encode("utf-8")


def test_dataset_export_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        code, _, _ = run(capsys, "dataset", "--task", "palindrome", "--n", "60",
                         "--k", "6", "--noise", "0.1", "--seed", "3",
                         "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_dataset_file_is_the_recorded_bytes(tmp_path, capsys):
    out = tmp_path / "data.txt"
    code, _, _ = run(capsys, "dataset", "--task", "palindrome", "--n", "200", "--k", "6",
                     "--noise", "0.1", "--seed", "0", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "a4ea01f8f704b6f3422c9c867af201925e1f3cc3ec80906d332cc35b72ec7f42"


def test_train_metrics_at_the_readme_settings_are_the_recorded_bytes(tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    code, _, _ = run(capsys, "train", "--task", "palindrome", "--variant", "pre", "--k", "6",
                     "--n", "400", "--epochs", "20", "--lr", "0.05", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "e8510929dfdda979a96706d808ec5b9fae501db72d802b1fe69e3a02a51ddf3f"


def test_train_metrics_file_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    flags = ["train", "--task", "palindrome", "--variant", "pre", "--k", "4",
             "--n", "40", "--epochs", "3", "--lr", "0.1", "--seed", "1"]
    for out in (a, b):
        code, _, _ = run(capsys, *flags, "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert len(rows) == 3
    assert set(rows[0]) == {"epoch", "train_loss", "val_loss", "val_acc",
                            "equivariance_max"}


def test_train_zero_learning_rate_freezes_losses(tmp_path, capsys):
    out = tmp_path / "frozen.jsonl"
    code, _, _ = run(capsys, "train", "--task", "palindrome", "--k", "4",
                     "--n", "40", "--epochs", "4", "--lr", "0", "--seed", "2",
                     "--out", str(out))
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len({row["train_loss"] for row in rows}) == 1
    assert len({row["val_loss"] for row in rows}) == 1


def test_train_summary_reports_scores(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    code, text, _ = run(capsys, "train", "--task", "cyclic", "--k", "6",
                        "--n", "40", "--epochs", "2", "--seed", "4",
                        "--out", str(out))
    assert code == 0
    acc = final_summary_value(text, "train_acc")
    assert 0.0 <= acc <= 1.0
    assert final_summary_value(text, "val_acc") <= 1.0
    assert "wrote" in text


def test_train_noiseless_palindrome_reaches_target(tmp_path, capsys):
    # Desk-scale run; measured results are recorded in the repo docs and the
    # threshold below is asserted exactly as stated there.
    out = tmp_path / "desk.jsonl"
    code, text, _ = run(capsys, "train", "--task", "palindrome", "--variant", "pre",
                        "--k", "6", "--n", "400", "--noise", "0", "--epochs", "50",
                        "--lr", "0.05", "--seed", "0", "--batch-size", "1",
                        "--out", str(out))
    assert code == 0
    acc = final_summary_value(text, "train_acc")
    assert acc > 0.95, f"final train accuracy {acc:.4f}"


def test_train_divergence_is_one_error_line_naming_the_step(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "train", "--n", "60", "--epochs", "3", "--lr", "1e6",
                           "--out", str(tmp_path / "diverged.jsonl"))
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0] == "error: train: loss diverged at epoch 1, step 8 (train loss inf)", err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("setting, message", [
    ("--epochs=0", "--epochs must be >= 1, got 0"),
    ("--epochs=-2", "--epochs must be >= 1, got -2"),
    ("--batch-size=0", "--batch-size must be >= 1, got 0"),
    ("--batch-size=-1", "--batch-size must be >= 1, got -1"),
    ("--lr=-1", "--lr must be finite and >= 0, got -1.0"),
    ("--lr=nan", "--lr must be finite and >= 0, got nan"),
    ("--lr=inf", "--lr must be finite and >= 0, got inf"),
    ("--lr=-inf", "--lr must be finite and >= 0, got -inf"),
])
def test_train_rejects_bad_settings_as_usage_errors(setting, message, tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    code, text, err = run(capsys, "train", "--n", "40", "--k", "4", setting, "--out", str(out))
    assert (code, text, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [
    ["dataset", "--out", "OUT"],
    ["train", "--n", "40", "--k", "4", "--out", "OUT"],
    ["check", "--group", "cyclic:2"],
    ["demo-dna", "AG", "--out", "OUT"],
])
def test_seed_outside_uint64_is_a_usage_error(command, seed, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in command] + ["--seed", str(seed)]
    code, text, err = run(capsys, *argv)
    assert (code, text, err) == (2, "", f"error: --seed must be in [0, 2**64 - 1], got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["dataset"], ["train", "--n", "40"]])
def test_window_size_above_the_cap_is_a_usage_error(command, tmp_path, capsys):
    out = tmp_path / "out"
    code, text, err = run(capsys, *command, "--k", "121", "--out", str(out))
    assert (code, text, err) == (2, "", "error: --k must be <= 120, got 121\n")
    assert not out.exists()


def refuse(*args, **kwargs):
    raise AssertionError("called after a usage error")


@pytest.mark.parametrize("command", [["dataset"], ["train", "--n", "40"]])
def test_dataset_size_above_the_cap_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("isoattn.cli.synth.make_dataset", refuse)
    out = tmp_path / "out"
    code, text, err = run(capsys, *command, "--n", "100001", "--out", str(out))
    assert (code, text, err) == (2, "", "error: --n must be in [5, 100000], got 100001\n")
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    # shift:113:1 has 57 channels: the (80000, 57, 113, 4) stack is about 16.5 GB.
    (["--task", "cyclic", "--k", "113", "--n", "100000"],
     "the training stack (80000, 57, 113, 4) would take 15725.1 MiB"),
    # A small stack, but 64-window evaluation chunks of (57, 113, 113) weights.
    (["--task", "cyclic", "--k", "113", "--n", "400"],
     "the attention weights of one kernel pass (64, 57, 113, 113) would take 355.4 MiB"),
    (["--k", "120", "--n", "100000", "--variant", "baseline"],
     "the training stack (80000, 1, 120, 4) would take 293.0 MiB"),
    (["--k", "120", "--n", "10000", "--variant", "baseline", "--batch-size", "5000"],
     "the attention weights of one kernel pass (5000, 1, 120, 120) would take 549.3 MiB"),
])
def test_train_above_the_memory_budget_is_a_usage_error(settings, message, tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr("isoattn.cli.synth.make_dataset", refuse)
    monkeypatch.setattr("isoattn.cli.layer.WindowAttentionLayer.random", refuse)
    out = tmp_path / "m.jsonl"
    code, text, err = run(capsys, "train", *settings, "--out", str(out))
    assert (code, text, err) == (2, "", f"error: {message}, above the 256 MiB budget\n")
    assert not out.exists()


def test_readme_train_settings_run_within_the_memory_budget(tmp_path, capsys):
    out = tmp_path / "metrics.jsonl"
    code, text, err = run(capsys, "train", "--task", "palindrome", "--variant", "pre",
                          "--k", "6", "--n", "400", "--epochs", "20", "--lr", "0.05",
                          "--out", str(out))
    assert (code, err) == (0, "")
    assert len(out.read_text().splitlines()) == 20


def test_check_feature_width_above_the_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("isoattn.cli.irreps.projector_set", refuse)
    monkeypatch.setattr("isoattn.cli.rand_matrix", refuse)
    code, text, err = run(capsys, "check", "--group", "cyclic:2", "--dim", "1025")
    assert (code, text, err) == (2, "", "error: --dim must be in [1, 1024], got 1025\n")


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 1.00 TiB"), "error: Unable to allocate 1.00 TiB\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_memory_error_is_one_error_line(exc, line, capsys, monkeypatch):
    def command(args):
        raise exc
    monkeypatch.setattr("isoattn.cli.cmd_info", command)
    code, text, err = run(capsys, "info", "--group", "cyclic:2")
    assert (code, text, err) == (1, "", line)


def test_demo_dna_sequence_above_the_cap_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "demo"
    code, text, err = run(capsys, "demo-dna", "A" * 121, "--out", str(out))
    assert (code, text, err) == (2, "", "error: sequence must have 2 to 120 bases, got 121\n")
    assert not out.exists()
    code, text, err = run(capsys, "demo-dna", "ACGT" * 30, "--out", str(out))
    assert code == 0 and err == ""
    assert "window 120 group mirror:120" in text
    assert sorted(os.listdir(out)) == ["attn_sign.csv", "attn_trivial.csv"]


def test_demo_dna_out_that_is_a_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # Found before any work, like every other --out that cannot be used.
    monkeypatch.setattr("isoattn.cli.irreps.projector_set", refuse)
    out = tmp_path / "taken"
    out.write_text("kept\n")
    code, text, err = run(capsys, "demo-dna", "ACGT", "--out", str(out))
    assert (code, text, err) == (2, "", f"error: --out {out} exists and is not a directory\n")
    assert out.read_text() == "kept\n"


def test_demo_dna_out_that_cannot_be_made_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # An empty path, or a path under a regular file, is found before any work.
    monkeypatch.setattr("isoattn.cli.irreps.projector_set", refuse)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    under = taken / "sub"
    for out, message in (("", "--out is empty"),
                         (under, f"--out {under}: cannot make the directory (Not a directory)")):
        code, text, err = run(capsys, "demo-dna", "ACGT", "--out", str(out))
        assert (code, text, err) == (2, "", f"error: {message}\n")
    assert taken.read_text() == "kept\n"


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


@pytest.mark.parametrize("command", [["train", "--n", "50", "--k", "6", "--epochs", "1"],
                                     ["dataset", "--n", "50"],
                                     ["projectors", "--group", "mirror:6"]])
def test_an_out_file_that_cannot_be_made_is_a_usage_error(command, tmp_path, capsys,
                                                          monkeypatch):
    # Found before any work: a directory, a path in a missing directory, or
    # an empty path.
    for name in ("isoattn.cli.synth.make_dataset", "isoattn.cli.irreps.projector_set"):
        monkeypatch.setattr(name, refuse)
    missing = tmp_path / "missing" / "m.jsonl"
    for out, message in ((tmp_path, f"--out {tmp_path} is a directory"),
                         (missing, f"--out {missing}: no directory {missing.parent}"),
                         ("", "--out is empty")):
        code, text, err = run(capsys, *command, "--out", str(out))
        assert (code, text, err) == (2, "", f"error: {message}\n")
    assert not missing.parent.exists()
