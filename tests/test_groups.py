"""Group construction, the permutation action and its homomorphism property."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoattn.groups as groups_module
from isoattn.groups import (
    FiniteGroup,
    _cayley_by_lookup,
    _row_codes,
    cyclic_group,
    dihedral_group,
    from_descriptor,
    from_permutations,
    load_group,
    mirror_group,
    permutation_matrix,
    permute_rows,
    save_group,
    shift_group,
    symmetric_group,
    trivial_group,
    verify_homomorphism,
)
from isoattn.irreps import _cycle_type

ROSTER = [
    cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
    cyclic_group(6), cyclic_group(12),
    dihedral_group(1), dihedral_group(2), dihedral_group(3), dihedral_group(4),
    dihedral_group(6), dihedral_group(12),
    symmetric_group(1), symmetric_group(2), symmetric_group(3),
    symmetric_group(4), symmetric_group(5),
    mirror_group(6), shift_group(9, 3), trivial_group(4),
]


def compose(p, q):  # apply q first, then p
    return tuple(p[j] for j in q)


def inverse(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def shift(k, step):
    return tuple((i + step) % k for i in range(k))


def rows(g):
    return [tuple(row) for row in g.perm.tolist()]


def brute_force_classes(g):
    # Independent oracle: orbit of each element under conjugation, using only
    # the Cayley table (mappings collapse for non-faithful actions).
    seen = set()
    classes = []
    for i in range(g.order):
        if i in seen:
            continue
        orbit = {int(g.cayley[g.cayley[h, i], g.inverse[h]]) for h in range(g.order)}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def test_permutation_rejects_non_bijection():
    for bad in ((0, 0, 1), (), (1, 2), (0, 1.5), ((0, 1), (1, 0)), "ab"):
        with pytest.raises(ValueError, match="^from_permutations: .* is not a bijection"):
            from_permutations([bad])
        with pytest.raises(ValueError, match="^permute_rows: .* is not a bijection"):
            permute_rows(bad, np.eye(3))
        with pytest.raises(ValueError, match="^permutation_matrix: .* is not a bijection"):
            permutation_matrix(bad)


MAPPINGS = st.one_of(st.integers(1, 6).flatmap(lambda k: st.permutations(range(k))),
                     st.lists(st.integers(-2, 6), max_size=6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=MAPPINGS, data=st.data())
def test_mappings_accepted_exactly_when_bijections(p, data):
    # The three entry points accept exactly the bijections of 0..k-1, k >= 1,
    # and the gather permute_rows equals the matrix product exactly.
    if not p or sorted(p) != list(range(len(p))):
        for call in (lambda: from_permutations([p]), lambda: permute_rows(p, np.eye(len(p))),
                     lambda: permutation_matrix(p)):
            with pytest.raises(ValueError, match="is not a bijection of 0..k-1$"):
                call()
        return
    assert tuple(p) in rows(from_permutations(closure([tuple(p)], len(p))))
    x = np.array(data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
                                    min_size=len(p), max_size=len(p))), dtype=np.float64)
    assert np.array_equal(permute_rows(p, x), permutation_matrix(p) @ x)


def test_permutation_matrix_hand_values():
    assert np.array_equal(permutation_matrix([0, 1, 2]), np.eye(3))
    assert np.array_equal(permutation_matrix([1, 0]), [[0.0, 1.0], [1.0, 0.0]])


def test_permutation_matrix_shift_rows():
    x = np.array([[0.0, 1.0], [10.0, 11.0], [20.0, 21.0]])
    moved = permutation_matrix(shift(3, 1)) @ x
    assert np.array_equal(moved, x[[2, 0, 1]])
    assert np.array_equal(permute_rows(shift(3, 1), x), x[[2, 0, 1]])


def test_permutation_matrices_orthogonal():
    for g in (symmetric_group(4), dihedral_group(6)):
        for p in g.perm:
            m = permutation_matrix(p)
            assert np.array_equal(m.T @ m, np.eye(g.degree))


def test_cyclic_structure():
    g1 = cyclic_group(1)
    assert g1.order == 1 and len(g1.classes) == 1

    g2 = cyclic_group(2)
    assert g2.order == 2 and len(g2.classes) == 2
    flip = rows(g2)[1]
    assert flip == (1, 0)
    assert compose(flip, flip) == (0, 1)

    g4 = cyclic_group(4)
    assert g4.order == 4
    assert len(g4.classes) == 4
    for a in range(4):
        for b in range(4):
            assert g4.cayley[a, b] == g4.cayley[b, a]


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        dihedral_group(0)


def test_dihedral_structure():
    g3 = dihedral_group(3)
    assert g3.order == 6
    assert len(g3.classes) == 3
    assert sorted(len(c) for c in g3.classes) == [1, 2, 3]

    g4 = dihedral_group(4)
    assert g4.order == 8
    assert len(g4.classes) == 5


def test_dihedral_2_nonfaithful_kernel():
    g = dihedral_group(2)
    assert g.order == 4
    assert g.degree == 2
    kernel = [p for p in g.perm
              if np.array_equal(permutation_matrix(p), np.eye(2))]
    assert len(kernel) == 2


def test_symmetric_structure():
    assert symmetric_group(2).order == 2
    g3 = symmetric_group(3)
    assert sorted(len(c) for c in g3.classes) == [1, 2, 3]
    g4 = symmetric_group(4)
    assert g4.order == 24
    assert len(g4.classes) == 5
    with pytest.raises(ValueError):
        symmetric_group(6)


def test_extended_constructors():
    m = mirror_group(6)
    assert m.order == 2 and m.degree == 6
    assert rows(m)[1] == (5, 4, 3, 2, 1, 0)
    s = shift_group(9, 3)
    assert s.order == 3 and s.degree == 9
    t = trivial_group(4)
    assert t.order == 1 and t.degree == 4
    with pytest.raises(ValueError):
        shift_group(9, 2)


def test_group_axioms_exhaustive():
    for g in ROSTER:
        n = g.order
        e = g.identity_index
        assert all(g.cayley[e, j] == j for j in range(n))
        assert all(g.cayley[i, e] == i for i in range(n))
        for i in range(n):
            assert g.cayley[i, g.inverse[i]] == e
            assert g.cayley[g.inverse[i], i] == e
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert g.cayley[g.cayley[a, b], c] == g.cayley[a, g.cayley[b, c]]


def assert_cayley_composes(g):
    # Per-pair reference: entry (i, j) names the composed mapping.
    elements = rows(g)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            assert elements[g.cayley[i, j]] == compose(p, q)


KLEIN4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
S3 = list(itertools.permutations(range(3)))


def test_cayley_matches_composition():
    custom = [from_permutations(perms) for perms in (KLEIN4, S3, S3[::-1])]
    for g in ROSTER + custom:
        assert_cayley_composes(g)


def test_conjugacy_classes_against_brute_force():
    for g in ROSTER:
        ours = {frozenset(c) for c in g.classes}
        assert ours == brute_force_classes(g)


def test_homomorphism_reports():
    rep = verify_homomorphism(cyclic_group(6))
    assert rep.ok and rep.pairs_checked == 36 and not rep.violations
    rep = verify_homomorphism(dihedral_group(4))
    assert rep.ok and rep.pairs_checked == 64


@pytest.mark.parametrize("desc", ["cyclic:120", "symmetric:5", "dihedral:61", "dihedral:120",
                                  "shift:120:1"])
def test_every_group_a_descriptor_builds_verifies(desc):
    g = from_descriptor(desc)
    rep = verify_homomorphism(g)
    assert rep.ok and rep.pairs_checked == g.order ** 2


def test_homomorphism_caps_groups_built_another_way():
    # A family constructor called directly skips the descriptor's parameter cap.
    with pytest.raises(ValueError, match="^verify_homomorphism: order 241 exceeds the cap 240$"):
        verify_homomorphism(cyclic_group(241))


def brute_violations(g, table):
    # Per-pair oracle: every (i, j), in order, whose product disagrees with table.
    mats = [permutation_matrix(p).astype(np.int64) for p in g.perm]
    return tuple((i, j) for i in range(g.order) for j in range(g.order)
                 if not np.array_equal(mats[i] @ mats[j], mats[table[i, j]]))


def test_homomorphism_catches_corrupted_cayley():
    g = cyclic_group(3)
    bad = np.array(g.cayley)
    bad[1, 1], bad[1, 2] = bad[1, 2], bad[1, 1]
    bad.setflags(write=False)
    corrupted = dataclasses.replace(g, cayley=bad)
    rep = verify_homomorphism(corrupted)
    assert not rep.ok
    assert len(rep.violations) >= 1
    assert rep.violations == brute_violations(g, bad)
    assert rep.pairs_checked == g.order ** 2


@pytest.mark.parametrize("g, rows", [(symmetric_group(4), (1, 7, 23)),
                                     (cyclic_group(48), (1, 40))])
def test_homomorphism_violations_in_pair_order(g, rows):
    # A shuffled table breaks many pairs in several rows; the report lists
    # exactly the failing (i, j) pairs, row by row, as the per-pair check does.
    bad = np.array(g.cayley)
    rng = np.random.default_rng(3)
    for i in rows:
        bad[i] = rng.permutation(bad[i])
    bad.setflags(write=False)
    rep = verify_homomorphism(dataclasses.replace(g, cayley=bad))
    brute = brute_violations(g, bad)
    assert len(brute) > len(rows) and rep.violations == brute


def test_composition_lemma_exhaustive():
    # M_p M_q = M_{p o q}, (p o q) = perm[i][perm[j]], and for any matrix x,
    # x M_p = x[:, p] and M_p x = x[p^-1, :] bit for bit: all of verification
    # rests on these gathers.
    g = symmetric_group(4)
    perm = g.perm
    assert perm.shape == (24, 4) and not perm.flags.writeable
    assert rows(g) == list(itertools.permutations(range(4)))
    x = np.random.default_rng(0).standard_normal((4, 4))
    pairs = 0
    for i, p in enumerate(rows(g)):
        mp = permutation_matrix(p)
        assert np.array_equal(x @ mp, x[:, perm[i]])
        assert np.array_equal(mp @ x, x[list(inverse(p)), :])
        for j, q in enumerate(rows(g)):
            pq = compose(p, q)
            assert np.array_equal(mp @ permutation_matrix(q), permutation_matrix(pq))
            assert tuple(perm[i][perm[j]]) == pq
            pairs += 1
    assert pairs == 576


def fixing_tail(mapping, n):
    # The permutation `mapping` of the first positions of an n-window.
    return tuple(mapping) + tuple(range(len(mapping), n))


@pytest.mark.parametrize("n", [16, 32, 48, 120])
def test_from_permutations_large_degree(n):
    # From degree 16 on, row codes are renumbered before they overflow; groups
    # that move only the first positions differ only in the leading digits.
    closed = (rows(cyclic_group(n))[::-1],
              [fixing_tail(m, n) for m in itertools.permutations(range(4))])
    for perms in closed:
        assert_cayley_composes(from_permutations(perms))
    not_closed = ([shift(n, 0), shift(n, 1)],
                  [fixing_tail(m, n) for m in ((0, 1, 2), (1, 0, 2), (0, 2, 1))])
    for perms in not_closed:
        with pytest.raises(ValueError, match="^from_permutations: element list is not closed"):
            from_permutations(perms)


def ref_cayley_by_lookup(perm):
    # The one-shot lookup: every product at once, an order x order x degree array.
    n, k = perm.shape
    codes = _row_codes(np.concatenate([perm, perm[:, perm].reshape(-1, k)]), k)
    order = np.argsort(codes[:n])
    known = codes[:n][order]
    pos = np.searchsorted(known, codes[n:]).clip(max=n - 1)
    return np.where(known[pos] == codes[n:], order[pos], -1).reshape(n, n)


def block_shifts(degree, order):
    # The cyclic group of the given order shifting a window by whole blocks
    # of degree // order positions.
    step = degree // order
    return np.array([[(i + step * m) % degree for i in range(degree)] for m in range(order)],
                    dtype=np.intp)


LOOKUP_GROUPS = ROSTER + [from_descriptor(d) for d in ("cyclic:120", "dihedral:120",
                                                         "shift:120:60", "mirror:120")]


@pytest.mark.parametrize("budget", [1, 50, 1000, 1 << 14, 1 << 20])
def test_blocked_lookup_matches_the_one_shot_table(budget, monkeypatch):
    # Budget 1 gives one table row per block; the default fits each of these
    # groups in one block.
    monkeypatch.setattr(groups_module, "_LOOKUP_BUDGET", budget)
    perms = [g.perm for g in LOOKUP_GROUPS] + [block_shifts(120, 12), block_shifts(240, 24)]
    # A product that is not a row: the table marks it -1.
    perms.append(np.array([shift(5, 0), shift(5, 1)], dtype=np.intp))
    for perm in perms:
        table = _cayley_by_lookup(perm)
        assert table.dtype == np.int64
        assert np.array_equal(table, ref_cayley_by_lookup(perm))


def test_blocked_lookup_memory_is_bounded_at_degree_1200():
    # The one-shot lookup held 120 x 120 x 1200 products at once (138 MB,
    # about 280 MB traced peak); the blocked one holds one table row of
    # products (1.2 MB) at a time.
    perm = block_shifts(1200, 120)
    tracemalloc.start()
    try:
        table = _cayley_by_lookup(perm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    ref = np.add.outer(np.arange(120), np.arange(120)) % 120
    assert np.array_equal(table, ref)


def test_inverse_perm_is_the_argsort_of_perm():
    for g in LOOKUP_GROUPS:
        inv = g.inverse_perm
        assert inv is g.inverse_perm and not inv.flags.writeable
        assert np.array_equal(inv, np.argsort(g.perm, axis=1))


def test_from_permutations_errors_unchanged():
    e3, e2, swap, cycle = (0, 1, 2), (0, 1), (1, 0, 2), (1, 2, 0)
    with pytest.raises(ValueError, match="^from_permutations: element list is not closed "
                                         "under composition$"):
        from_permutations([e3, swap, cycle])
    with pytest.raises(ValueError, match=r"^from_permutations: duplicate element \(1, 0, 2\)$"):
        from_permutations([e3, swap, cycle, swap])
    with pytest.raises(ValueError, match=r"^from_permutations: duplicate element \(1, 0, 2\)$"):
        from_permutations(np.array([e3, swap, cycle, swap]))
    with pytest.raises(ValueError, match="^from_permutations: mixed degrees in element list$"):
        from_permutations([e3, e2, e2])
    with pytest.raises(ValueError, match=r"^from_permutations: duplicate element \(0, 1\)$"):
        from_permutations([e2, e2, e3])


def test_from_permutations_closure_check():
    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    g = from_permutations([(0, 1, 2), swap, cycle, compose(cycle, cycle),
                           compose(swap, cycle), compose(cycle, swap)])
    assert g.order == 6
    with pytest.raises(ValueError):
        from_permutations([(0, 1, 2), swap, cycle])


def test_from_descriptor():
    assert from_descriptor("cyclic:4").order == 4
    assert from_descriptor("dihedral:3").order == 6
    assert from_descriptor("symmetric:3").order == 6
    assert from_descriptor("mirror:6").degree == 6
    assert from_descriptor("shift:9:3").order == 3
    assert from_descriptor("trivial:5").order == 1
    assert from_descriptor("cyclic:120").order == 120
    assert from_descriptor("shift:120:60").order == 2
    for bad in ("cyclic", "cyclic:x", "wedge:3", "symmetric:9", "shift:9",
                "shift:9:2", "cyclic:0"):
        with pytest.raises(ValueError):
            from_descriptor(bad)


@pytest.mark.parametrize("desc", ["cyclic:121", "dihedral:121", "symmetric:121", "mirror:121",
                                  "trivial:121", "shift:121:1", "shift:242:121",
                                  "cyclic:100000"])
def test_from_descriptor_caps_parameters_before_building(desc, monkeypatch):
    import isoattn.groups as groups_module

    built = []
    for name in ("cyclic_group", "dihedral_group", "symmetric_group", "mirror_group",
                 "trivial_group", "shift_group"):
        monkeypatch.setattr(groups_module, name, lambda *args: built.append(args))
    with pytest.raises(ValueError, match="capped at 120"):
        from_descriptor(desc)
    assert built == []


def test_save_load_roundtrip(tmp_path):
    for g in (dihedral_group(4), mirror_group(5)):
        path = tmp_path / f"{g.descriptor.replace(':', '_')}.grp"
        save_group(g, str(path))
        back = load_group(str(path))
        assert back.descriptor == g.descriptor
        assert rows(back) == rows(g)
        assert np.array_equal(back.cayley, g.cayley)


def test_save_load_custom_group(tmp_path):
    perms = list(itertools.permutations(range(3)))
    g = from_permutations(perms)
    path = tmp_path / "custom.grp"
    save_group(g, str(path))
    back = load_group(str(path))
    assert back.order == 6
    assert set(rows(back)) == set(rows(g))


@pytest.mark.parametrize("edit", [("order 8", "order 9"), ("kind dihedral", "kind cyclic"),
                                  ("n 4", "n 5"), ("group dihedral:4", "group custom")])
def test_load_group_rejects_a_header_that_disagrees(tmp_path, edit):
    path = tmp_path / "d4.grp"
    save_group(dihedral_group(4), str(path))
    path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
    with pytest.raises(ValueError, match="does not match"):
        load_group(str(path))


def test_load_group_rejects_a_truncated_custom_group(tmp_path):
    # The first two elements of S3 in this order form a closed subgroup, so
    # only the stored order line tells the cut apart from a group of order 2.
    perms = list(itertools.permutations(range(3)))
    path = tmp_path / "custom.grp"
    save_group(from_permutations(perms), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:7]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="does not match"):
        load_group(str(path))


def test_cycle_type():
    assert _cycle_type([0, 1, 2, 3]) == (1, 1, 1, 1)
    assert _cycle_type([1, 0]) == (2,)
    assert _cycle_type([1, 2, 0, 3]) == (3, 1)
    assert _cycle_type([1, 0, 3, 4, 2]) == (3, 2)


# Reference: the per-element builders the array builders replaced. Each
# family lists mapping tuples and a Python-list table; ref_assemble finds
# the identity, inverses and classes with per-element loops.

def ref_conjugacy_classes(cayley, inverse):
    order = len(inverse)
    seen = [False] * order
    classes = []
    for x in range(order):
        if seen[x]:
            continue
        orbit = sorted({int(cayley[cayley[g, x], inverse[g]]) for g in range(order)})
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
    return tuple(classes)


def ref_assemble(kind, n, degree, descriptor, elements, cayley):
    cayley = np.asarray(cayley, dtype=np.int64)
    order = len(elements)
    ref = np.arange(order)
    identity_index = -1
    for e in range(order):
        if np.array_equal(cayley[e], ref) and np.array_equal(cayley[:, e], ref):
            identity_index = e
            break
    assert identity_index >= 0
    inverse = []
    for i in range(order):
        hits = np.where(cayley[i] == identity_index)[0]
        assert len(hits) == 1 and cayley[hits[0], i] == identity_index
        inverse.append(int(hits[0]))
    inverse = tuple(inverse)
    perm = np.array(elements, dtype=np.intp)
    return dict(kind=kind, n=n, degree=degree, descriptor=descriptor, perm=perm, cayley=cayley,
                inverse=inverse, classes=ref_conjugacy_classes(cayley, inverse),
                identity_index=identity_index, mappings=list(elements),
                inverse_perm=perm[list(inverse)])


def ref_cyclic(n):
    elements = [shift(n, m) for m in range(n)]
    cayley = [[(a + b) % n for b in range(n)] for a in range(n)]
    return ref_assemble("cyclic", n, n, f"cyclic:{n}", elements, cayley)


def ref_shift(k, step):
    n = k // step
    elements = [shift(k, m * step) for m in range(n)]
    cayley = [[(a + b) % n for b in range(n)] for a in range(n)]
    return ref_assemble("cyclic", n, k, f"shift:{k}:{step}", elements, cayley)


def ref_trivial(k):
    return ref_assemble("cyclic", 1, k, f"trivial:{k}", [shift(k, 0)], [[0]])


def ref_mirror(k):
    return ref_assemble("cyclic", 2, k, f"mirror:{k}", [shift(k, 0), shift(k, 0)[::-1]],
                        [[0, 1], [1, 0]])


def ref_dihedral(n):
    elements = [shift(n, m) for m in range(n)]
    elements += [tuple((m - i) % n for i in range(n)) for m in range(n)]

    def mult(i, j):
        # Index m < n is rotation by m, index n+m reflects through m.
        ti, a = (0, i) if i < n else (1, i - n)
        tj, b = (0, j) if j < n else (1, j - n)
        if ti == 0 and tj == 0:
            return (a + b) % n
        if ti == 0 and tj == 1:
            return n + (a + b) % n
        if ti == 1 and tj == 0:
            return n + (a - b) % n
        return (a - b) % n

    cayley = [[mult(i, j) for j in range(2 * n)] for i in range(2 * n)]
    return ref_assemble("dihedral", n, n, f"dihedral:{n}", elements, cayley)


def ref_lookup(kind, n, descriptor, elements):
    # Faithful groups: entry (i, j) is the index of the composed mapping.
    index = {p: i for i, p in enumerate(elements)}
    cayley = [[index[compose(p, q)] for q in elements] for p in elements]
    return ref_assemble(kind, n, len(elements[0]), descriptor, elements, cayley)


def ref_symmetric(k):
    elements = list(itertools.permutations(range(k)))
    return ref_lookup("symmetric", k, f"symmetric:{k}", elements)


def ref_custom(perms):
    elements = [tuple(map(int, p)) for p in perms]
    return ref_lookup("custom", 0, "custom", elements)


def assert_matches_reference(g, ref):
    for field in ("kind", "n", "degree", "descriptor", "inverse", "classes", "identity_index"):
        assert getattr(g, field) == ref[field], field
    for field in ("perm", "cayley", "inverse_perm"):
        ours = getattr(g, field)
        assert ours.dtype == ref[field].dtype and ours.shape == ref[field].shape, field
        assert ours.tobytes() == ref[field].tobytes(), field
    assert rows(g) == ref["mappings"]


SIZES = list(range(1, 25)) + [48, 61, 120]
CUSTOM = ([KLEIN4, S3, S3[::-1], [list(p) for p in S3]]
          + [rows(cyclic_group(n))[::-1] for n in (16, 32, 48, 120)]
          + [[fixing_tail(m, n) for m in itertools.permutations(range(4))]
             for n in (16, 32, 48, 120)]
          + [block_shifts(120, 12), block_shifts(240, 24)])
FAMILIES = {
    "cyclic": [(cyclic_group, ref_cyclic, (n,)) for n in SIZES],
    "dihedral": [(dihedral_group, ref_dihedral, (n,)) for n in SIZES],
    "symmetric": [(symmetric_group, ref_symmetric, (k,)) for k in range(1, 6)],
    "mirror": [(mirror_group, ref_mirror, (k,)) for k in range(2, 121)],
    "shift": [(shift_group, ref_shift, (k, s)) for k in range(1, 25) for s in range(1, k + 1)
              if k % s == 0],
    "trivial": [(trivial_group, ref_trivial, (k,)) for k in range(1, 121)],
    "custom": [(from_permutations, ref_custom, (perms,)) for perms in CUSTOM],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_builders_match_the_per_element_reference(family):
    for build, ref, args in FAMILIES[family]:
        assert_matches_reference(build(*args), ref(*args))


def closure(gens, degree):
    # Breadth-first search over products with the generators.
    start = tuple(range(degree))
    found, queue = [start], [start]
    seen = {start}
    while queue:
        p = queue.pop(0)
        for q in gens:
            r = tuple(p[j] for j in q)
            if r not in seen:
                seen.add(r)
                found.append(r)
                queue.append(r)
    return found


@st.composite
def random_subgroups(draw):
    degree = draw(st.integers(2, 5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return closure([tuple(p) for p in gens], degree)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perms=random_subgroups())
def test_random_closed_subgroups_are_groups(perms):
    g = from_permutations(perms)
    n, table, e = g.order, g.cayley, g.identity_index
    assert n == len(perms)
    assert np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n))
    inv = np.array(g.inverse)
    assert (table[np.arange(n), inv] == e).all() and (table[inv, np.arange(n)] == e).all()
    assert np.array_equal(table[table], table[:, table])  # (ab)c = a(bc)
    undone = np.take_along_axis(g.perm[inv], g.perm, axis=1)
    assert np.array_equal(undone, np.broadcast_to(np.arange(g.degree), g.perm.shape))
    assert verify_homomorphism(g).ok
    # Brute-force conjugation on the mappings: the class of x is {p x p^-1}.
    index = {tuple(row): i for i, row in enumerate(g.perm.tolist())}
    brute = {frozenset(index[compose(compose(p, x), inverse(p))] for p in index)
             for x in index}
    assert {frozenset(c) for c in g.classes} == brute
