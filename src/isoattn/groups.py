"""Finite permutation groups acting on token windows.

A group here is one read-only (order, degree) array of window-position
mappings, `perm`, together with its abstract multiplication table. The
cyclic, shift, mirror, trivial and dihedral tables are built by array
arithmetic from the family structure (not by permutation lookup), so actions
that are not faithful, such as the dihedral groups on 1 or 2 points, still
carry the full abstract group. Symmetric groups and custom lists act
faithfully and are tabled by looking up each composed mapping. The identity,
inverses and conjugacy classes are then read off the table with array
comparisons and gathers.

Families:
    cyclic_group(n)      order n, shift action on an n-window
    dihedral_group(n)    order 2n, rotations and reflections of an n-window
    symmetric_group(k)   order k!, all permutations of a k-window (k <= 5)
    mirror_group(k)      order 2, index reversal on a k-window
    shift_group(k, s)    order k/s, generated by shift-by-s on a k-window
    trivial_group(k)     order 1 on a k-window
    from_permutations    custom group from an explicit closed permutation list

A permutation is a mapping, a sequence p of ints with p[j] the image of j;
the elements of a group are the rows of its `perm`. Composing is p[q] (apply
q first) and inverting is np.argsort(p). The window action is row-based:
element h moves row j of a window matrix to row h[j], i.e.
(action(h) x)[i] = x[h^-1[i]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import Matrix

_MAX_ORDER = 120
_MAX_SYMMETRIC = 5
# The largest order a descriptor builds: dihedral:120, from the largest
# parameter. verify_homomorphism checks groups up to this order; a group
# built any other way is capped there too.
_MAX_BUILT_ORDER = 2 * _MAX_ORDER
_CODE_CAP = np.iinfo(np.int64).max
# Product entries per block in _cayley_by_lookup and verify_homomorphism:
# 128 KB of intp in the lookup, less in the check, whose entries are narrowed.
# Blocks this small reuse freed heap memory; with 1 << 20 entries, building
# symmetric:5 after other work touched about 140 fresh pages per call.
_LOOKUP_BUDGET = 1 << 14


def _mapping(p, who: str) -> np.ndarray:
    """p as an intp array, checked to be a bijection of 0..k-1 for some k >= 1."""
    m = np.asarray(p)
    if (m.ndim != 1 or not m.size or m.dtype.kind not in "biuf"
            or not np.array_equal(np.sort(m), np.arange(m.size))):
        raise ValueError(f"{who}: {p!r} is not a bijection of 0..k-1")
    return m.astype(np.intp)


def permutation_matrix(p) -> Matrix:
    """Orthogonal 0/1 matrix P with (P x)[i] = x[p^-1(i)] for row vectors x."""
    p = _mapping(p, "permutation_matrix")
    m = np.zeros((p.size, p.size), dtype=np.float64)
    m[p, np.arange(p.size)] = 1.0
    return m


def permute_rows(p, x: Matrix) -> Matrix:
    """Apply the window action of the mapping p to x without forming the matrix."""
    p = _mapping(p, "permute_rows")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != p.size:
        raise ValueError(f"permute_rows: expected {p.size} rows, got shape {x.shape}")
    return x[np.argsort(p)]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group with a fixed permutation action on window positions.

    `perm` is the read-only (order, degree) int array of element mappings:
    row i maps window position j to perm[i, j]. Products of permutation
    matrices are gathers on these rows: M_p M_q = M_{p o q} with
    (p o q) = perm[i][perm[j]], and for any matrix P, P M_p = P[:, p] and
    M_p P = P[p^-1, :] exactly.

    `cayley[i, j]` is the index of the product of elements i and j, which acts
    by applying element j first. `kind` names the abstract family and `n`
    its parameter; `degree` is the window size acted on, which for the mirror,
    shift and trivial families differs from the natural degree of the family.
    """

    kind: str
    n: int
    degree: int
    descriptor: str
    perm: np.ndarray
    cayley: np.ndarray
    inverse: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.perm)

    @cached_property
    def inverse_perm(self) -> np.ndarray:
        """The inverse mappings as one read-only (order, degree) int array.

        Row i is the inverse of row i of perm, so x[inverse_perm[i]] is the
        action of element i on a window x.
        """
        inv = self.perm[list(self.inverse)]
        inv.setflags(write=False)
        return inv


def _conjugacy_classes(cayley: np.ndarray, inverse: np.ndarray) -> tuple[tuple[int, ...], ...]:
    # Column x of conj holds g x g^-1 for every g: the class of x.
    order = len(inverse)
    conj = cayley[cayley, inverse[:, None]]
    seen = np.zeros(order, dtype=bool)
    classes = []
    for x in range(order):
        if not seen[x]:
            orbit = np.flatnonzero(np.bincount(conj[:, x], minlength=order))
            seen[orbit] = True
            classes.append(tuple(orbit.tolist()))
    return tuple(classes)


def _row_codes(rows: np.ndarray, k: int) -> np.ndarray:
    """One int64 code per row of an int array with entries in 0..k-1, equal
    exactly when the rows are equal. The codes are base-k numbers, renumbered
    densely whenever the next digit could overflow, so any degree works."""
    codes = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # every code is below bound
    for col in rows.T:
        if bound * k > _CODE_CAP:
            codes = np.unique(codes, return_inverse=True)[1]
            bound = len(rows)
        codes = codes * k + col
        bound *= k
    return codes


def _cayley_by_lookup(perm: np.ndarray) -> np.ndarray:
    """Table of distinct mappings: entry (i, j) is the row index of the
    product perm[i][perm[j]] (apply j first), or -1 where it is not a row.

    The products are built a block of table rows at a time, at most
    _LOOKUP_BUDGET entries per block, so memory does not grow with the
    degree. Codes are only comparable within one _row_codes call, so each
    block is encoded together with perm."""
    n, k = perm.shape
    rows = max(1, _LOOKUP_BUDGET // (n * k))
    table = np.empty((n, n), dtype=np.int64)
    for start in range(0, n, rows):
        block = np.take(perm[start:start + rows], perm, axis=1).reshape(-1, k)
        codes = _row_codes(np.concatenate([perm, block]), k)
        order = np.argsort(codes[:n])
        known = codes[:n][order]
        pos = np.searchsorted(known, codes[n:]).clip(max=n - 1)
        table[start:start + rows] = np.where(known[pos] == codes[n:], order[pos],
                                             -1).reshape(-1, n)
    return table


def _assemble(kind: str, n: int, degree: int, descriptor: str, perm, cayley) -> FiniteGroup:
    perm = np.asarray(perm, dtype=np.intp)
    cayley = np.asarray(cayley, dtype=np.int64)
    order = len(perm)
    if cayley.shape != (order, order):
        raise ValueError(f"cayley table shape {cayley.shape} does not match order {order}")
    ref = np.arange(order)
    is_identity = (cayley == ref).all(axis=1) & (cayley == ref[:, None]).all(axis=0)
    if not is_identity.any():
        raise ValueError("cayley table has no identity element")
    identity_index = int(is_identity.argmax())
    hits = cayley == identity_index
    inverse = hits.argmax(axis=1)
    bad = (hits.sum(axis=1) != 1) | (cayley[inverse, ref] != identity_index)
    if bad.any():
        raise ValueError(f"element {int(bad.argmax())} has no unique two-sided inverse")
    perm.setflags(write=False)
    cayley.setflags(write=False)
    return FiniteGroup(kind=kind, n=n, degree=degree, descriptor=descriptor, perm=perm,
                       cayley=cayley, inverse=tuple(inverse.tolist()),
                       classes=_conjugacy_classes(cayley, inverse),
                       identity_index=identity_index)


def _cyclic_table(n: int) -> np.ndarray:
    """(a + b) mod n: the table of the cyclic group of order n, and also the
    mappings of the n shifts of an n-window."""
    r = np.arange(n)
    return (r[:, None] + r) % n


def cyclic_group(n: int) -> FiniteGroup:
    """Order n acting on an n-window by shifts; for n = 2 the non-identity
    element is exactly the index reversal."""
    if n < 1:
        raise ValueError(f"cyclic_group: n must be >= 1, got {n}")
    return _assemble("cyclic", n, n, f"cyclic:{n}", _cyclic_table(n), _cyclic_table(n))


def shift_group(k: int, step: int) -> FiniteGroup:
    """Cyclic group of order k/step acting on a k-window, generated by
    shift-by-step. Requires step to divide k."""
    if k < 1:
        raise ValueError(f"shift_group: window must be >= 1, got {k}")
    if step < 1 or step > k or k % step != 0:
        raise ValueError(f"shift_group: step must divide the window size, got k={k} step={step}")
    n = k // step
    perm = (np.arange(k) + step * np.arange(n)[:, None]) % k
    return _assemble("cyclic", n, k, f"shift:{k}:{step}", perm, _cyclic_table(n))


def trivial_group(k: int) -> FiniteGroup:
    """The one-element group on a k-window."""
    if k < 1:
        raise ValueError(f"trivial_group: window must be >= 1, got {k}")
    return _assemble("cyclic", 1, k, f"trivial:{k}", [np.arange(k)], _cyclic_table(1))


def mirror_group(k: int) -> FiniteGroup:
    """Order-2 group on a k-window whose non-identity element reverses it."""
    if k < 2:
        raise ValueError(f"mirror_group: window must be >= 2, got {k}")
    r = np.arange(k)
    return _assemble("cyclic", 2, k, f"mirror:{k}", [r, r[::-1]], _cyclic_table(2))


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n acting on an n-window: rotations i -> i+m and reflections
    i -> m-i (mod n). For n <= 2 the action is not faithful; the abstract
    group still has order 2n."""
    if n < 1:
        raise ValueError(f"dihedral_group: n must be >= 1, got {n}")
    r = np.arange(n)
    perm = np.concatenate([_cyclic_table(n), (r[:, None] - r) % n])
    # Index s*n + m is the rotation by m (s = 0) or the reflection through m
    # (s = 1). Composing the index maps, (s_i, m_i)(s_j, m_j) is
    # (s_i xor s_j, m_i + (-1)^s_i m_j mod n).
    s, m = np.divmod(np.arange(2 * n), n)
    cayley = n * (s[:, None] ^ s) + (m[:, None] + (1 - 2 * s[:, None]) * m) % n
    return _assemble("dihedral", n, n, f"dihedral:{n}", perm, cayley)


def symmetric_group(k: int) -> FiniteGroup:
    """All permutations of a k-window, in lexicographic order. Capped at
    k = 5 (order 120); larger k is rejected as unsupported."""
    if k < 1:
        raise ValueError(f"symmetric_group: k must be >= 1, got {k}")
    if k > _MAX_SYMMETRIC:
        raise ValueError(f"symmetric_group: k = {k} is unsupported, the cap is {_MAX_SYMMETRIC}")
    perm = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    return _assemble("symmetric", k, k, f"symmetric:{k}", perm, _cayley_by_lookup(perm))


def from_permutations(perms) -> FiniteGroup:
    """Build a custom group from an explicit list of distinct mappings, each a
    sequence of ints.

    The list must be closed under composition; the table is found by lookup,
    so the action must be faithful (no duplicate permutations).
    """
    rows = [_mapping(p, "from_permutations") for p in perms]
    if not rows:
        raise ValueError("from_permutations: empty element list")
    if len(rows) > _MAX_ORDER:
        raise ValueError(f"from_permutations: order {len(rows)} exceeds the cap {_MAX_ORDER}")
    degree = rows[0].size
    seen = set()
    for row in rows:
        if row.size != degree:
            raise ValueError("from_permutations: mixed degrees in element list")
        key = tuple(row.tolist())
        if key in seen:
            raise ValueError(f"from_permutations: duplicate element {key!r}")
        seen.add(key)
    perm = np.stack(rows)
    cayley = _cayley_by_lookup(perm)
    if (cayley < 0).any():
        raise ValueError("from_permutations: element list is not closed under composition")
    return _assemble("custom", 0, degree, "custom", perm, cayley)


def from_descriptor(desc: str) -> FiniteGroup:
    """Parse a group descriptor string.

    Grammar: cyclic:n, dihedral:n, symmetric:k, mirror:k, shift:k:step,
    trivial:k. Anything else is rejected, and so is any parameter above
    _MAX_ORDER, before a group is built: a descriptor may come from a file.
    """
    parts = desc.strip().split(":")
    kind = parts[0]
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"bad group descriptor {desc!r}: numeric parameters expected") from None
    if any(a > _MAX_ORDER for a in args):
        raise ValueError(f"bad group descriptor {desc!r}: parameters are capped at {_MAX_ORDER}")
    makers = {"cyclic": (cyclic_group, 1), "dihedral": (dihedral_group, 1),
              "symmetric": (symmetric_group, 1), "mirror": (mirror_group, 1),
              "trivial": (trivial_group, 1), "shift": (shift_group, 2)}
    if kind not in makers:
        raise ValueError(f"bad group descriptor {desc!r}: unknown kind {kind!r}")
    maker, argc = makers[kind]
    if len(args) != argc:
        raise ValueError(f"bad group descriptor {desc!r}: {kind} takes {argc} parameter(s)")
    return maker(*args)


@dataclass(frozen=True)
class HomomorphismReport:
    pairs_checked: int
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_homomorphism(g: FiniteGroup) -> HomomorphismReport:
    """Check P(h1 h2) = P(h1) P(h2) for every pair, exactly.

    P(h_i) P(h_j) = P(h_i o h_j), so pair (i, j) holds where the composed
    mapping perm[i, perm[j, x]] equals perm[cayley[i, j], x] at every
    position x. The check reads a transposed copy of perm, t[x, i] =
    perm[i, x], in the narrowest dtype that holds each entry exactly; the
    copy is one pass. The table columns are checked a block at a time, at
    most _LOOKUP_BUDGET products per block: both sides are gathered from t
    as (degree, columns, order) arrays, and a pair fails if any position
    disagrees, an elementwise or over the leading axis rather than one short
    reduction per pair. A block gathers with its own rows of perm only:
    np.take copies a read-only index whole, so gathering with all of perm
    would copy it for every block. Violations are listed row by row, (i, j)
    in increasing order.
    """
    if g.order > _MAX_BUILT_ORDER:
        raise ValueError(f"verify_homomorphism: order {g.order} exceeds the cap "
                         f"{_MAX_BUILT_ORDER}")
    perm = g.perm
    n, k = perm.shape
    t = perm.T.astype(np.result_type(np.min_scalar_type(perm.min()),
                                     np.min_scalar_type(perm.max())), order="C")
    cols = max(1, _LOOKUP_BUDGET // (n * k))
    bad = np.empty((n, n), dtype=bool)  # bad[j, i]: pair (i, j) fails
    for start in range(0, n, cols):
        block = slice(start, start + cols)
        products = np.take(t, perm[block].T, axis=0)
        targets = np.take(t, g.cayley[:, block].T, axis=1)
        bad[block] = np.logical_or.reduce(products != targets, axis=0)
    violations = tuple(map(tuple, np.argwhere(bad.T).tolist()))
    return HomomorphismReport(pairs_checked=n * n, violations=violations)


def _group_lines(g: FiniteGroup) -> list[str]:
    return [f"group {g.descriptor}", f"kind {g.kind}", f"n {g.n}", f"degree {g.degree}",
            f"order {g.order}"] + ["elem " + " ".join(map(str, row)) for row in g.perm.tolist()]


def save_group(g: FiniteGroup, path: str) -> None:
    """Write the group to a structured text file (descriptor and elements)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_group_lines(g)) + "\n")


def load_group(path: str) -> FiniteGroup:
    """Rebuild a group saved by save_group: from its descriptor, or from its
    element list for a custom group. Every line of the file must then match
    what save_group writes for the rebuilt group; anything else raises
    ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split() for line in fh if line.strip()]
        if not lines or lines[0][0] != "group" or len(lines[0]) != 2:
            raise ValueError("no descriptor line")
        desc = lines[0][1]
        if desc == "custom":
            g = from_permutations([tuple(int(t) for t in toks[1:])
                                   for toks in lines if toks[0] == "elem"])
        else:
            g = from_descriptor(desc)
        if lines != [line.split() for line in _group_lines(g)]:
            raise ValueError(f"does not match descriptor {desc!r}")
    except ValueError as exc:
        raise ValueError(f"group file {path!r}: {exc}") from None
    return g
