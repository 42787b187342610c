"""Real irreducible characters and isotypic projectors.

For a group H acting on window positions, the isotypic projector of an irrep
with character chi and coefficient c is

    P = (c / |H|) * sum_h chi(h^-1) * action(h)

where c is the irrep dimension, except for a merged conjugate pair of complex
characters, whose stored real character is chi + conj(chi) and whose
coefficient is the complex dimension of one member (half the real dimension).
The projectors of a group are symmetric, idempotent, mutually orthogonal, sum
to the identity, and commute with the action.

Character data: cyclic groups get the trivial character, the sign character
for even order, and merged pairs 2*cos(2*pi*j*m/n); dihedral groups get the
2 or 4 one-dimensional characters plus two-dimensional ones with
chi(rot_m) = 2*cos(2*pi*j*m/n) and 0 on reflections; symmetric groups up to
k = 5 use tabulated integer tables keyed by cycle type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import FiniteGroup, from_descriptor
from .numerics import Matrix, frobenius_sq

_INTEGRALITY_TOL = 1e-9
# Matrix entries per chunk in verify_projector_set: 128 KB of float64. On
# cyclic:120, chunks of 1 << 16 entries or more made the check about 3x slower.
_VERIFY_CHUNK = 1 << 14


@dataclass(frozen=True)
class RealIrrep:
    """A real irreducible character, one value per group element.

    `dim` is the dimension over the reals; `pair` marks a merged pair of
    complex-conjugate characters (then dim = 2 and the values are chi + chibar).
    The value at the identity always equals dim.
    """

    label: str
    dim: int
    characters: tuple[float, ...]
    pair: bool = False


def _cyclic_irreps(g: FiniteGroup) -> list[RealIrrep]:
    n = g.n
    out = [RealIrrep("trivial", 1, (1.0,) * n)]
    if n % 2 == 0:
        out.append(RealIrrep("sign", 1, tuple(float((-1) ** m) for m in range(n))))
    for j in range(1, (n + 1) // 2):
        vals = tuple(2.0 * math.cos(2.0 * math.pi * j * m / n) for m in range(n))
        out.append(RealIrrep(f"rot_{j}", 2, vals, pair=True))
    return out


def _dihedral_irreps(g: FiniteGroup) -> list[RealIrrep]:
    n = g.n
    # Element order matches the constructor: rotations 0..n-1, then reflections.
    rot = list(range(n))
    out = [RealIrrep("trivial", 1, (1.0,) * (2 * n))]
    out.append(RealIrrep("sign", 1, tuple([1.0] * n + [-1.0] * n)))
    if n % 2 == 0:
        alt_rot = [float((-1) ** m) for m in rot]
        out.append(RealIrrep("alt", 1, tuple(alt_rot + alt_rot)))
        out.append(RealIrrep("alt_sign", 1, tuple(alt_rot + [-v for v in alt_rot])))
    for j in range(1, (n + 1) // 2):
        vals = [2.0 * math.cos(2.0 * math.pi * j * m / n) for m in rot] + [0.0] * n
        out.append(RealIrrep(f"rot_{j}", 2, tuple(vals)))
    return out


# Symmetric group character tables keyed by cycle type, k <= 5. Rows are
# (label, dim, {cycle_type: value}).
_SYMMETRIC_TABLES: dict[int, list[tuple[str, int, dict[tuple[int, ...], int]]]] = {
    1: [("trivial", 1, {(1,): 1})],
    2: [("trivial", 1, {(1, 1): 1, (2,): 1}),
        ("sign", 1, {(1, 1): 1, (2,): -1})],
    3: [("trivial", 1, {(1, 1, 1): 1, (2, 1): 1, (3,): 1}),
        ("sign", 1, {(1, 1, 1): 1, (2, 1): -1, (3,): 1}),
        ("std", 2, {(1, 1, 1): 2, (2, 1): 0, (3,): -1})],
    4: [("trivial", 1, {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1}),
        ("sign", 1, {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1}),
        ("p22", 2, {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0}),
        ("std", 3, {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1}),
        ("std_sign", 3, {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1})],
    5: [("trivial", 1, {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 1): 1,
                        (3, 1, 1): 1, (3, 2): 1, (4, 1): 1, (5,): 1}),
        ("sign", 1, {(1, 1, 1, 1, 1): 1, (2, 1, 1, 1): -1, (2, 2, 1): 1,
                     (3, 1, 1): 1, (3, 2): -1, (4, 1): -1, (5,): 1}),
        ("std", 4, {(1, 1, 1, 1, 1): 4, (2, 1, 1, 1): 2, (2, 2, 1): 0,
                    (3, 1, 1): 1, (3, 2): -1, (4, 1): 0, (5,): -1}),
        ("std_sign", 4, {(1, 1, 1, 1, 1): 4, (2, 1, 1, 1): -2, (2, 2, 1): 0,
                         (3, 1, 1): 1, (3, 2): 1, (4, 1): 0, (5,): -1}),
        ("p32", 5, {(1, 1, 1, 1, 1): 5, (2, 1, 1, 1): 1, (2, 2, 1): 1,
                    (3, 1, 1): -1, (3, 2): 1, (4, 1): -1, (5,): 0}),
        ("p221", 5, {(1, 1, 1, 1, 1): 5, (2, 1, 1, 1): -1, (2, 2, 1): 1,
                     (3, 1, 1): -1, (3, 2): -1, (4, 1): 1, (5,): 0}),
        ("p311", 6, {(1, 1, 1, 1, 1): 6, (2, 1, 1, 1): 0, (2, 2, 1): -2,
                     (3, 1, 1): 0, (3, 2): 0, (4, 1): 0, (5,): 1})],
}


def _cycle_type(p: list[int]) -> tuple[int, ...]:
    """Cycle lengths of a mapping in decreasing order."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _symmetric_irreps(g: FiniteGroup) -> list[RealIrrep]:
    table = _SYMMETRIC_TABLES[g.n]
    types = [_cycle_type(row) for row in g.perm.tolist()]
    out = []
    for label, dim, by_type in table:
        out.append(RealIrrep(label, dim, tuple(float(by_type[t]) for t in types)))
    return out


def real_irreps(g: FiniteGroup) -> tuple[RealIrrep, ...]:
    """The complete list of real irreducible characters of a built-in group."""
    if g.kind == "cyclic":
        irreps = _cyclic_irreps(g)
    elif g.kind == "dihedral":
        irreps = _dihedral_irreps(g)
    elif g.kind == "symmetric":
        irreps = _symmetric_irreps(g)
    else:
        raise ValueError(f"real_irreps: no character data for group kind {g.kind!r}")
    # Cheap structural checks on the table before anything downstream uses it:
    # identity value equals the dimension, complex dimensions square-sum to |H|.
    sq = 0
    for ir in irreps:
        if len(ir.characters) != g.order:
            raise RuntimeError(f"character length mismatch for {ir.label}")
        if abs(ir.characters[g.identity_index] - ir.dim) > 1e-12:
            raise RuntimeError(f"character of {ir.label} at identity differs from its dimension")
        sq += 2 * (ir.dim // 2) ** 2 if ir.pair else ir.dim**2
    if sq != g.order:
        raise RuntimeError(f"characters of {g.descriptor} square-sum to {sq}, expected {g.order}")
    return tuple(irreps)


def _projectors(g: FiniteGroup, irreps: tuple[RealIrrep, ...]) -> np.ndarray:
    """Every irrep's projector, absent ones included, as one (irreps, k, k) array.

    action(h) has its ones at (perm[h, j], j): one scatter adds chi(h^-1) there,
    in h order. Merged pairs scale by the complex dimension of one member."""
    k = g.degree
    chi_inv = np.array([ir.characters for ir in irreps], dtype=np.float64)[:, g.inverse]
    acc = np.zeros((len(irreps), k, k), dtype=np.float64)
    np.add.at(acc, (np.arange(len(irreps))[:, None, None], g.perm, np.arange(k)),
              chi_inv[:, :, None])
    coeffs = np.array([ir.dim / 2.0 if ir.pair else float(ir.dim) for ir in irreps])
    acc *= (coeffs / g.order)[:, None, None]
    return acc


@dataclass(frozen=True, eq=False)
class ProjectorItem:
    irrep: RealIrrep
    projector: Matrix
    multiplicity: int

    @property
    def absent(self) -> bool:
        return self.multiplicity == 0


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """All isotypic projectors of a group action on its window.

    `items` lists every irrep of the group with its multiplicity; an irrep
    that does not occur in the action is absent and keeps an exactly zero
    projector. The channels are the irreps that occur: `present` indexes
    their items and `stack` holds their projectors, in item order.
    """

    group: FiniteGroup
    items: tuple[ProjectorItem, ...]

    @property
    def window(self) -> int:
        return self.group.degree

    @cached_property
    def present(self) -> tuple[int, ...]:
        """Indices into items of the irreps that occur, in item order."""
        return tuple(c for c, item in enumerate(self.items) if not item.absent)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The irrep label of each channel."""
        return tuple(self.items[c].irrep.label for c in self.present)

    @cached_property
    def stack(self) -> np.ndarray:
        """The channel projectors as one read-only (channels, window, window) array."""
        stack = np.stack([self.items[c].projector for c in self.present])
        stack.setflags(write=False)
        return stack


def projector_set(g: FiniteGroup) -> ProjectorSet:
    """Build every projector of the action, with integer multiplicities.

    The multiplicity of an irrep is trace(P)/dim; a non-integer value (beyond
    1e-9) means the character data and the action disagree, which is an
    internal error. Irreps that do not occur are kept with an exactly zero
    projector and flagged absent.
    """
    irreps = real_irreps(g)
    projectors = _projectors(g, irreps)
    dims = np.array([ir.dim for ir in irreps])
    m_real = np.trace(projectors, axis1=1, axis2=2) / dims
    mults = np.rint(m_real)
    off = np.flatnonzero(np.abs(m_real - mults) > _INTEGRALITY_TOL)
    if off.size:
        raise RuntimeError(f"projector_set: non-integer multiplicity {float(m_real[off[0]])!r} "
                           f"for {irreps[off[0]].label} of {g.descriptor}")
    total_dim = int(dims @ mults)
    if total_dim != g.degree:
        raise RuntimeError(f"projector_set: multiplicities of {g.descriptor} fill "
                           f"{total_dim} of {g.degree} dimensions")
    projectors[mults == 0] = 0.0
    projectors.setflags(write=False)
    return ProjectorSet(group=g, items=tuple(
        ProjectorItem(irrep=ir, projector=p, multiplicity=int(m))
        for ir, p, m in zip(irreps, projectors, mults)))


@dataclass(frozen=True)
class ProjectorSetReport:
    """Maximum Frobenius-norm deviations from the projector identities."""

    idempotency: float
    orthogonality: float
    completeness: float
    symmetry: float
    commutation: float

    def max_deviation(self) -> float:
        """The largest deviation; NaN if any deviation is NaN."""
        return float(np.max([self.idempotency, self.orthogonality, self.completeness,
                             self.symmetry, self.commutation]))

    def ok(self, tol: float = 1e-12) -> bool:
        return self.max_deviation() < tol


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix in a stack (..., k, k)."""
    return (m * m).reshape(-1, m.shape[-2] * m.shape[-1]).sum(axis=1)


def _max_norm(squared: list[np.ndarray]) -> float:
    """Square root of the largest squared norm (0 if none); NaN if any is NaN."""
    return math.sqrt(float(np.max([s.max(initial=0.0) for s in squared], initial=0.0)))


def verify_projector_set(ps: ProjectorSet) -> ProjectorSetReport:
    """Largest deviation of each projector identity, over all projectors
    (and pairs of them, and group elements). Any NaN entry makes the
    affected deviations NaN, so the report is not ok().

    Products run on the projectors of every item, absent ones included, a
    chunk of at most max(1, _VERIFY_CHUNK // k^2) matrices at a time, so a
    nonzero projector on an absent item fails. Commutation needs no
    products: P M_h = P[:, h] and M_h P = P[h^-1, :] exactly, for the
    permutation matrix M_h of h.
    """
    st, k = np.stack([item.projector for item in ps.items]), ps.window
    per = max(1, _VERIFY_CHUNK // k ** 2)
    chunks = [st[c:c + per] for c in range(0, len(st), per)]
    left, right = np.triu_indices(len(st), 1)
    fwd, back = ps.group.perm, ps.group.inverse_perm
    hs = max(1, per // len(chunks[0]))  # group elements per projector chunk
    return ProjectorSetReport(
        idempotency=_max_norm([_squared_norms(p @ p - p) for p in chunks]),
        orthogonality=_max_norm([_squared_norms(st[left[s:s + per]] @ st[right[s:s + per]])
                                 for s in range(0, len(left), per)]),
        completeness=math.sqrt(frobenius_sq(st.sum(axis=0) - np.eye(k))),
        symmetry=_max_norm([_squared_norms(p - p.swapaxes(1, 2)) for p in chunks]),
        commutation=_max_norm([
            _squared_norms(p[:, :, fwd[h:h + hs]].swapaxes(1, 2) - p[:, back[h:h + hs]])
            for p in chunks for h in range(0, len(fwd), hs)]))


def _file_lines(ps: ProjectorSet):
    """The lines of a projector file after its group line: the window line,
    then per item its irrep line (text) and its rows (float arrays)."""
    yield f"window {ps.window}"
    for item in ps.items:
        ir = item.irrep
        yield f"irrep {ir.label} dim {ir.dim} mult {item.multiplicity} pair {int(ir.pair)}"
        yield from item.projector


def save_projectors(ps: ProjectorSet, path: str) -> None:
    """Write a projector set as structured text, entries at 17 significant
    digits so a round-trip through load_projectors is bit-exact. Rows are
    written as they are formatted, so the text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"group {ps.group.descriptor}\n")
        fh.writelines((line if isinstance(line, str) else
                       "  " + " ".join(format(v, ".17g") for v in line)) + "\n"
                      for line in _file_lines(ps))


def load_projectors(path: str) -> ProjectorSet:
    """Read a file written by save_projectors back as the ProjectorSet it holds.

    The set is rebuilt from its `group <descriptor>` line; the other lines,
    blank ones skipped, must then be what save_projectors writes for it:
    text lines token for token, rows equal as floats, and nothing after the
    last row. Anything else raises ValueError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = ((f"line {n}", toks) for n, toks in enumerate(map(str.split, fh), 1) if toks)
            where, toks = next(lines, ("line 1", []))
            if len(toks) != 2 or toks[0] != "group":
                raise ValueError(f"{where}: expected 'group <descriptor>'")
            ps = projector_set(from_descriptor(toks[1]))
            for want in _file_lines(ps):
                where, toks = next(lines, ("the end of the file", []))
                text = isinstance(want, str)
                if (toks != want.split()) if text else (list(map(float, toks)) != want.tolist()):
                    raise ValueError(f"{where}: expected {want if text else 'the rebuilt row'}")
            extra = next(lines, None)
            if extra:
                raise ValueError(f"{extra[0]} follows the last row")
    except ValueError as exc:
        raise ValueError(f"projector file {path!r}: {exc}") from None
    return ps
