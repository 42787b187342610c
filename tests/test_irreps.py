"""Real irreducible characters and isotypic projectors."""

import dataclasses
import math
import re

import numpy as np
import pytest

from isoattn.groups import (
    cyclic_group,
    dihedral_group,
    from_descriptor,
    mirror_group,
    permutation_matrix,
    shift_group,
    symmetric_group,
    trivial_group,
)
from isoattn.irreps import (
    ProjectorSet,
    ProjectorSetReport,
    _projector,
    load_projectors,
    projector_set,
    real_irreps,
    save_projectors,
    verify_projector_set,
)

ROSTER = [
    cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
    cyclic_group(5), cyclic_group(6), cyclic_group(12),
    dihedral_group(1), dihedral_group(2), dihedral_group(3), dihedral_group(4),
    dihedral_group(6), dihedral_group(12),
    symmetric_group(1), symmetric_group(2), symmetric_group(3),
    symmetric_group(4), symmetric_group(5),
    mirror_group(6), shift_group(9, 3), trivial_group(4),
]


def oracle_multiplicity(g, irrep):
    # trace(P) recomputed from characters and fixed-point counts alone.
    coeff = irrep.dim / 2 if irrep.pair else float(irrep.dim)
    total = 0.0
    for idx, p in enumerate(g.perm.tolist()):
        fixed = sum(1 for i, img in enumerate(p) if img == i)
        total += irrep.characters[g.inverse[idx]] * fixed
    return coeff * total / (g.order * irrep.dim)


def test_cyclic2_characters():
    g = cyclic_group(2)
    irr = real_irreps(g)
    by_label = {i.label: i for i in irr}
    assert set(by_label) == {"trivial", "sign"}
    assert by_label["trivial"].characters == (1.0, 1.0)
    assert by_label["sign"].characters == (1.0, -1.0)
    assert by_label["trivial"].dim == by_label["sign"].dim == 1


def test_cyclic3_merged_pair():
    g = cyclic_group(3)
    irr = real_irreps(g)
    assert len(irr) == 2
    pair = [i for i in irr if i.pair]
    assert len(pair) == 1
    assert pair[0].dim == 2
    assert pair[0].characters[0] == 2.0
    assert abs(pair[0].characters[1] + 1.0) < 1e-12
    assert abs(pair[0].characters[2] + 1.0) < 1e-12


def test_symmetric3_dims():
    irr = real_irreps(symmetric_group(3))
    dims = sorted(i.dim for i in irr)
    assert dims == [1, 1, 2]
    assert sum(d * d for d in dims) == 6


def test_character_dimension_sum_identity():
    for g in ROSTER:
        total = 0
        for irr in real_irreps(g):
            assert irr.characters[g.identity_index] == float(irr.dim)
            if irr.pair:
                total += 2 * (irr.dim // 2) ** 2
            else:
                total += irr.dim**2
        assert total == g.order


def test_characters_constant_on_classes():
    for g in ROSTER:
        for irr in real_irreps(g):
            for cls in g.classes:
                vals = {irr.characters[i] for i in cls}
                assert max(vals) - min(vals) < 1e-12


def test_one_dim_characters_orthogonal_to_trivial():
    for g in ROSTER:
        for irr in real_irreps(g):
            if irr.label == "trivial" or irr.pair or irr.dim != 1:
                continue
            assert abs(sum(irr.characters)) < 1e-12


def projectors_by_label(g):
    return {item.irrep.label: item.projector for item in projector_set(g).items}


def test_projector_z2_closed_forms():
    p = projectors_by_label(cyclic_group(2))
    assert np.array_equal(p["trivial"], [[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(p["sign"], [[0.5, -0.5], [-0.5, 0.5]])


def test_projector_c3_closed_forms():
    p = projectors_by_label(cyclic_group(3))
    assert np.abs(p["trivial"] - 1.0 / 3.0).max() < 1e-15
    assert np.abs(p["rot_1"] - (np.eye(3) - 1.0 / 3.0)).max() < 1e-15


def test_projector_set_reads_the_character_table_once(monkeypatch):
    import isoattn.irreps as irreps_module

    calls = []

    def counted(g):
        calls.append(g)
        return real_irreps(g)

    monkeypatch.setattr(irreps_module, "real_irreps", counted)
    g = dihedral_group(6)
    ps = projector_set(g)
    assert len(calls) == 1
    for item in ps.items:
        want = np.zeros((6, 6)) if item.absent else reference_projector(g, item.irrep)
        assert item.projector.tobytes() == want.tobytes()


def test_projector_stack_matches_items():
    # symmetric:4 has 2 of its 5 irreps: the stack holds their projectors.
    ps = projector_set(symmetric_group(4))
    assert ps.stack.shape == (2, 4, 4)
    assert not ps.stack.flags.writeable
    for c, p in zip(ps.present, ps.stack, strict=True):
        assert np.array_equal(ps.items[c].projector, p)


@pytest.mark.parametrize("desc, present", [("symmetric:5", (0, 2)), ("symmetric:4", (0, 3)),
                                            ("dihedral:12", (0, 2, 4, 5, 6, 7, 8)),
                                            ("mirror:6", (0, 1)), ("cyclic:12", tuple(range(7)))])
def test_present_channels_index_the_irreps_that_occur(desc, present):
    ps = projector_set(from_descriptor(desc))
    assert ps.present == present
    assert ps.present == tuple(c for c, item in enumerate(ps.items) if not item.absent)
    assert ps.labels == tuple(ps.items[c].irrep.label for c in present)
    st = ps.stack
    assert st is ps.stack and not st.flags.writeable
    assert st.tobytes() == np.stack([ps.items[c].projector for c in present]).tobytes()


def test_multiplicities_z2_reversal():
    ps = projector_set(cyclic_group(2))
    mults = {item.irrep.label: item.multiplicity for item in ps.items}
    assert mults == {"trivial": 1, "sign": 1}


def test_multiplicities_s3_sign_vanishes():
    g = symmetric_group(3)
    ps = projector_set(g)
    sign_item = next(i for i in ps.items if i.irrep.label == "sign")
    assert sign_item.multiplicity == 0
    assert sign_item.absent
    assert np.array_equal(sign_item.projector, np.zeros((3, 3)))
    # Hand oracle: (1/6) * (3*1 - 3*1 + 2*0) over classes id/transpositions/3-cycles.
    assert oracle_multiplicity(g, sign_item.irrep) == pytest.approx(0.0, abs=1e-12)


def test_multiplicities_d4_vertices():
    ps = projector_set(dihedral_group(4))
    one_dim = [i for i in ps.items if i.irrep.dim == 1]
    two_dim = [i for i in ps.items if i.irrep.dim == 2]
    trivial = next(i for i in one_dim if i.irrep.label == "trivial")
    assert trivial.multiplicity == 1
    others = [i for i in one_dim if i.irrep.label != "trivial"]
    assert sorted(i.multiplicity for i in others) == [0, 0, 1]
    assert [i.multiplicity for i in two_dim] == [1]


def test_multiplicities_match_character_oracle():
    for g in ROSTER:
        for item in projector_set(g).items:
            want = oracle_multiplicity(g, item.irrep)
            assert abs(want - round(want)) < 1e-9
            assert item.multiplicity == round(want)


def test_dimension_times_multiplicity_sums_to_window():
    for g in ROSTER:
        ps = projector_set(g)
        assert sum(i.irrep.dim * i.multiplicity for i in ps.items) == g.degree


def test_projector_identities_all_builtins():
    for g in ROSTER:
        report = verify_projector_set(projector_set(g))
        assert report.ok(1e-12), (g.descriptor, report)


def test_projector_commutes_with_action():
    g = dihedral_group(4)
    ps = projector_set(g)
    for item in ps.items:
        for p in g.perm:
            m = permutation_matrix(p)
            delta = np.abs(item.projector @ m - m @ item.projector).max()
            assert delta < 1e-12


def reference_projector(g, irrep):
    # Sum of chi(h^-1) times the action matrix, element by element.
    k = g.degree
    acc = np.zeros((k, k), dtype=np.float64)
    for h in range(g.order):
        acc += irrep.characters[g.inverse[h]] * permutation_matrix(g.perm[h])
    coeff = irrep.dim / 2.0 if irrep.pair else float(irrep.dim)
    return acc * (coeff / g.order)


DESCRIPTORS = ([f"cyclic:{n}" for n in range(1, 13)]
                         + [f"dihedral:{n}" for n in range(1, 13)]
                         + [f"symmetric:{k}" for k in range(1, 6)]
                         + ["mirror:6", "shift:6:2", "shift:6:3", "trivial:3"])


@pytest.mark.parametrize("desc", DESCRIPTORS)
def test_projectors_match_reference_sum_bitwise(desc):
    # Every irrep, absent ones included: projector_set zeroes those afterwards.
    g = from_descriptor(desc)
    for irrep in real_irreps(g):
        assert _projector(g, irrep).tobytes() == reference_projector(g, irrep).tobytes()


def reference_report(ps):
    # Per-projector, per-pair and per-element products, as the identities read.
    frob = lambda m: math.sqrt(float((m * m).sum()))  # noqa: E731
    projs = [item.projector for item in ps.items]
    mats = [permutation_matrix(p) for p in ps.group.perm]
    return ProjectorSetReport(
        idempotency=max(frob(p @ p - p) for p in projs),
        orthogonality=max([frob(p @ q) for i, p in enumerate(projs) for q in projs[i + 1:]],
                          default=0.0),
        completeness=frob(sum(projs) - np.eye(ps.window)),
        symmetry=max(frob(p - p.T) for p in projs),
        commutation=max(frob(p @ m - m @ p) for m in mats for p in projs))


def replace_projector(ps, index, matrix):
    items = list(ps.items)
    items[index] = dataclasses.replace(items[index], projector=matrix)
    return dataclasses.replace(ps, items=tuple(items))


@pytest.mark.parametrize("desc", ["mirror:6", "cyclic:12", "dihedral:12", "symmetric:4",
                                  "symmetric:5", "cyclic:48", "trivial:3"])
def test_verify_projector_set_matches_reference_bitwise(desc):
    ps = projector_set(from_descriptor(desc))
    assert verify_projector_set(ps) == reference_report(ps)
    noisy = ps.items[-1].projector + 1e-3 * np.random.default_rng(1).standard_normal(
        (ps.window, ps.window))
    bad = replace_projector(ps, len(ps.items) - 1, noisy)
    report = verify_projector_set(bad)
    assert report == reference_report(bad) and not report.ok()


@pytest.mark.parametrize("desc", ["cyclic:6", "dihedral:4", "cyclic:48"])
def test_non_commuting_projector_detected(desc):
    # e0 e0^T is a symmetric idempotent, but every element that moves
    # position 0 breaks commutation with it, by sqrt(2) in Frobenius norm.
    ps = projector_set(from_descriptor(desc))
    e0 = np.zeros((ps.window, ps.window))
    e0[0, 0] = 1.0
    bad = replace_projector(ps, 0, e0)
    report = verify_projector_set(bad)
    assert report == reference_report(bad)
    assert report.idempotency < 1e-12 and report.symmetry < 1e-12
    assert report.commutation == math.sqrt(2.0) and not report.ok()


def test_nan_projector_fails_verification():
    ps = projector_set(dihedral_group(4))
    p = ps.items[-1].projector.copy()
    p[0, 0] = np.nan
    report = verify_projector_set(replace_projector(ps, len(ps.items) - 1, p))
    assert math.isnan(report.completeness)
    assert not math.isfinite(report.max_deviation())
    assert not report.ok()
    late_nan = ProjectorSetReport(0.0, 0.0, 0.0, 0.0, float("nan"))
    assert math.isnan(late_nan.max_deviation()) and not late_nan.ok()


def test_corrupted_projector_detected():
    ps = projector_set(cyclic_group(2))
    bad_matrix = ps.items[0].projector.copy()
    bad_matrix[0, 0] += 0.1
    bad_item = dataclasses.replace(ps.items[0], projector=bad_matrix)
    bad = dataclasses.replace(ps, items=(bad_item,) + ps.items[1:])
    report = verify_projector_set(bad)
    assert report.idempotency > 0.05
    assert not report.ok(1e-12)


def test_z2_window6_completeness_exact():
    ps = projector_set(mirror_group(6))
    total = sum(item.projector for item in ps.items)
    assert np.array_equal(total, np.eye(6))
    report = verify_projector_set(ps)
    assert report.completeness == 0.0


def test_save_load_roundtrip_bit_exact(tmp_path):
    for g in (dihedral_group(4), cyclic_group(3), mirror_group(6)):
        ps = projector_set(g)
        path = tmp_path / f"{g.descriptor.replace(':', '_')}.proj"
        save_projectors(ps, str(path))
        back = load_projectors(str(path))
        assert isinstance(back, ProjectorSet)
        assert back.group.descriptor == g.descriptor
        assert back.window == g.degree
        assert len(back.items) == len(ps.items)
        for loaded, item in zip(back.items, ps.items):
            assert loaded.irrep == item.irrep
            assert loaded.multiplicity == item.multiplicity
            assert np.array_equal(loaded.projector, item.projector)


@pytest.mark.parametrize("desc", DESCRIPTORS + ["cyclic:120"])
def test_load_returns_the_rebuilt_set_bitwise(desc, tmp_path):
    ps = projector_set(from_descriptor(desc))
    path = tmp_path / "p.proj"
    save_projectors(ps, str(path))
    back = load_projectors(str(path))
    assert isinstance(back, ProjectorSet)
    assert back.stack.tobytes() == ps.stack.tobytes()


def test_window_is_the_group_degree():
    ps = projector_set(shift_group(9, 3))
    assert ps.window == ps.group.degree == 9
    with pytest.raises(TypeError):
        ProjectorSet(group=ps.group, window=9, items=ps.items)


def saved_lines(tmp_path, desc="cyclic:3"):
    path = tmp_path / "saved.proj"
    save_projectors(projector_set(from_descriptor(desc)), str(path))
    return path.read_text(encoding="utf-8").splitlines()


def assert_rejected(tmp_path, lines):
    path = tmp_path / "bad.proj"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(repr(str(path)))):
        load_projectors(str(path))


def test_load_rejects_a_short_irrep_line(tmp_path):
    lines = saved_lines(tmp_path)
    lines[2] = "irrep trivial dim"
    assert_rejected(tmp_path, lines)


def test_load_rejects_rows_before_the_first_irrep_line(tmp_path):
    lines = saved_lines(tmp_path)
    assert_rejected(tmp_path, lines[:2] + [lines[3]] + lines[2:])


def test_load_rejects_a_bare_window_line(tmp_path):
    lines = saved_lines(tmp_path)
    assert_rejected(tmp_path, [lines[0], "window"] + lines[2:])
    assert_rejected(tmp_path, lines[:2] + ["window"] + lines[2:])


def test_load_rejects_one_tampered_entry(tmp_path):
    lines = saved_lines(tmp_path)
    assert lines[3].split()[0] == "0.33333333333333331"
    lines[3] = lines[3].replace("0.33333333333333331", "0.33333333333333337", 1)
    assert_rejected(tmp_path, lines)


def test_load_rejects_every_entry_set_to_nine(tmp_path):
    lines = saved_lines(tmp_path)
    assert_rejected(tmp_path, [line if line.startswith(("group", "window", "irrep"))
                               else "  9 9 9" for line in lines])


def test_load_rejects_a_wrong_multiplicity(tmp_path):
    lines = saved_lines(tmp_path)
    assert lines[2] == "irrep trivial dim 1 mult 1 pair 0"
    lines[2] = "irrep trivial dim 1 mult 2 pair 0"
    assert_rejected(tmp_path, lines)


def test_load_rejects_a_missing_block(tmp_path):
    lines = saved_lines(tmp_path)
    assert len(lines) == 10  # header, then two blocks of an irrep line and 3 rows
    assert_rejected(tmp_path, lines[:6])
    assert_rejected(tmp_path, lines[:2] + lines[6:])


def test_load_rejects_a_window_that_differs_from_the_group(tmp_path):
    lines = saved_lines(tmp_path, "mirror:2")
    assert_rejected(tmp_path, ["group mirror:3"] + lines[1:])


def test_load_rejects_an_oversized_descriptor_at_once(tmp_path, monkeypatch):
    # Building cyclic:100000 would need tens of GB, so the test fails on a
    # stub instead if the descriptor cap is ever lost.
    import isoattn.groups as groups_module

    built = []
    monkeypatch.setattr(groups_module, "cyclic_group", lambda n: built.append(n))
    assert_rejected(tmp_path, ["group cyclic:100000", "window 100000"])
    assert_rejected(tmp_path, ["group cyclic:99999999", "window 2"])
    assert built == []
