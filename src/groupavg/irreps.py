"""Irreducible representation tables for the built-in group families.

Construction routes: cyclic and sign-flip groups get their character
irreps, dihedral groups get explicit 1- and 2-dimensional blocks,
symmetric groups (d <= 6) get Young's orthogonal form over standard
tableaux, and products get tensor products of factor irreps.  Everything
is complex and unitary; real forms are embedded as complex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .errors import CapabilityError, GroupMismatchError, NumericalConsistencyError, UsageError
from .groups import Group, ConjugacyPartition, conjugacy_classes, symmetric_permutations
from .reps import INT_ROUND_TOL, CharacterVector, Representation

ORTHOGONALITY_TOL = 1e-9
SYMMETRIC_IRREPS_MAX_DIM = 6


@dataclass
class IrrepTable:
    """All irreducible representations of a group, trivial first.

    Ordering after the trivial: by dimension, then lexicographically by
    character values over the class list.  ``characters[i, c]`` is the
    trace of irrep i at the representative of class c.
    """

    group: Group
    partition: ConjugacyPartition
    irreps: list[Representation]
    dims: tuple[int, ...]
    characters: np.ndarray
    trivial_index: int = 0

    def __len__(self) -> int:
        return len(self.irreps)

    @functools.cached_property
    def stacks(self) -> list[tuple[list[int], np.ndarray]]:
        """Irreps grouped by dimension d, in order of first appearance.

        Each entry is ``(indices, mats)``: the table indices of the irreps
        of that dimension and their matrices stacked as ``(k, |G|, d, d)``.
        """
        out = []
        for d in dict.fromkeys(self.dims):
            idx = [i for i, di in enumerate(self.dims) if di == d]
            out.append((idx, np.stack([self.irreps[i].mats for i in idx])))
        return out

    @functools.cached_property
    def conj_stacks(self) -> list[tuple[list[int], np.ndarray]]:
        """:attr:`stacks` with every matrix entry complex-conjugated, the
        operand every Fourier transform over this table reads."""
        return [(idx, mats.conj()) for idx, mats in self.stacks]

    def labels(self) -> list[str]:
        return [f"pi{i}_d{d}" for i, d in enumerate(self.dims)]

    def validate(self) -> None:
        """The character gram must be the identity: its diagonal certifies
        each irrep irreducible, its off-diagonal the irreps inequivalent."""
        group, part = self.group, self.partition
        if len(self.irreps) != len(part):
            raise NumericalConsistencyError(
                f"irrep count {len(self.irreps)} != class count {len(part)}"
            )
        if sum(d * d for d in self.dims) != group.order:
            raise NumericalConsistencyError("sum of squared dims does not equal the group order")
        gram = _class_inner(self.characters, self)
        dev = float(np.abs(gram - np.eye(len(self.irreps))).max())
        if not dev <= ORTHOGONALITY_TOL:
            raise NumericalConsistencyError(f"character orthogonality deviation {dev:.3e}")
        triv = self.irreps[self.trivial_index]
        if triv.dim != 1 or np.abs(triv.mats - 1.0).max() > 1e-12:
            raise NumericalConsistencyError("trivial irrep is not at trivial_index")


# -- Young's orthogonal form -------------------------------------------------


def partitions_of(d: int) -> list[tuple[int, ...]]:
    """Integer partitions of d in reverse-lexicographic order, (d,) first."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(d, d, ())
    return out


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard fillings of ``shape`` with 0..d-1, rows and columns increasing.

    Generated by recursively removing the largest entry from a corner
    cell; the output order is deterministic.
    """
    d = sum(shape)
    if d == 0:
        return [()]
    results = []

    def corners(sh: tuple[int, ...]):
        for i in range(len(sh)):
            if sh[i] > 0 and (i == len(sh) - 1 or sh[i + 1] < sh[i]):
                yield i

    def rec(sh: tuple[int, ...], value: int, cells: dict):
        if value < 0:
            rows = []
            for i in range(len(shape)):
                rows.append(tuple(cells[(i, j)] for j in range(shape[i])))
            results.append(tuple(rows))
            return
        for i in corners(sh):
            j = sh[i] - 1
            cells[(i, j)] = value
            reduced = list(sh)
            reduced[i] -= 1
            rec(tuple(x for x in reduced), value - 1, cells)
            del cells[(i, j)]

    rec(shape, d - 1, {})
    return results


def _tableau_positions(tab) -> dict[int, tuple[int, int]]:
    pos = {}
    for i, row in enumerate(tab):
        for j, v in enumerate(row):
            pos[v] = (i, j)
    return pos


def _adjacent_transposition_matrices(shape: tuple[int, ...]) -> tuple[list, list[np.ndarray]]:
    """Orthogonal matrices for the adjacent transpositions (i, i+1).

    Axial-distance construction: with delta the content difference
    between the cells holding i+1 and i, the transposition acts on the
    tableau basis vector with diagonal 1/delta and off-diagonal
    sqrt(1 - 1/delta^2) toward the swapped tableau when that is standard.
    """
    d = sum(shape)
    tabs = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    positions = [_tableau_positions(t) for t in tabs]
    mats = []
    for a in range(max(d - 1, 0)):
        m = np.zeros((len(tabs), len(tabs)))
        for t_idx, tab in enumerate(tabs):
            pos = positions[t_idx]
            (r1, c1), (r2, c2) = pos[a], pos[a + 1]
            delta = (c2 - r2) - (c1 - r1)
            m[t_idx, t_idx] = 1.0 / delta
            if r1 != r2 and c1 != c2:
                swapped = tuple(
                    tuple(a + 1 if v == a else a if v == a + 1 else v for v in row) for row in tab
                )
                m[index[swapped], t_idx] = math.sqrt(1.0 - 1.0 / delta**2)
        mats.append(m)
    return tabs, mats


def _adjacent_decomposition(one_line: list[int]) -> list[int]:
    """Swap positions s.t. sigma = s[last] ... s[first] as composition."""
    work = list(one_line)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                swaps.append(i)
                changed = True
    return swaps[::-1]


def _symmetric_irreps(group: Group) -> list[Representation]:
    d = group.params[0]
    if d > SYMMETRIC_IRREPS_MAX_DIM:
        raise CapabilityError(
            f"symmetric-group irreps supported up to d = {SYMMETRIC_IRREPS_MAX_DIM}, got {d}"
        )
    words = [_adjacent_decomposition(perm) for perm in symmetric_permutations(d).tolist()]
    out = []
    for shape in partitions_of(d):
        tabs, gens = _adjacent_transposition_matrices(shape)
        dim = len(tabs)
        mats = np.empty((group.order, dim, dim), dtype=np.complex128)
        eye = np.eye(dim)
        for g, word in enumerate(words):
            m = eye
            for i in word:
                m = m @ gens[i]
            mats[g] = m
        out.append(Representation(group, mats, name=f"yor{shape}"))
    return out


# -- per-family tables --------------------------------------------------------


def _cyclic_irreps(group: Group) -> list[Representation]:
    n = group.order
    g_idx = np.arange(n)
    out = []
    for j in range(n):
        vals = np.exp(2j * np.pi * j * g_idx / n)
        out.append(Representation(group, vals.reshape(n, 1, 1), name=f"chi{j}"))
    return out


def _sign_flip_irreps(group: Group) -> list[Representation]:
    n = group.order
    x = np.arange(n)
    out = []
    for mask in range(n):
        signs = 1.0 - 2.0 * (np.bitwise_count(x & mask) % 2)
        out.append(
            Representation(
                group, signs.astype(np.complex128).reshape(n, 1, 1), name=f"chi{mask:b}"
            )
        )
    return out


def _dihedral_irreps(group: Group) -> list[Representation]:
    n = group.params[0]
    order = group.order
    a = np.arange(order) % n
    b = np.arange(order) // n
    out = []

    def one_dim(values):
        out.append(Representation(group, values.reshape(order, 1, 1), name="chi"))

    one_dim(np.ones(order, dtype=np.complex128))
    one_dim(np.where(b == 1, -1.0, 1.0).astype(np.complex128))
    if n % 2 == 0:
        one_dim(((-1.0) ** a).astype(np.complex128))
        one_dim(((-1.0) ** (a + b)).astype(np.complex128))
    two_dim_count = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    reflect = np.array([[1.0, 0.0], [0.0, -1.0]])
    for h in range(1, two_dim_count + 1):
        theta = 2 * np.pi * h * a / n
        mats = np.zeros((order, 2, 2), dtype=np.complex128)
        mats[:, 0, 0] = np.cos(theta)
        mats[:, 0, 1] = -np.sin(theta)
        mats[:, 1, 0] = np.sin(theta)
        mats[:, 1, 1] = np.cos(theta)
        flip = b == 1
        mats[flip] = mats[flip] @ reflect
        out.append(Representation(group, mats, name=f"rot{h}"))
    return out


def _product_irreps(group: Group) -> list[Representation]:
    g1, g2 = group.factors
    t1, t2 = irreps_of(g1), irreps_of(g2)
    o2 = g2.order
    idx = np.arange(group.order)
    a, b = idx // o2, idx % o2
    out = []
    for p1 in t1.irreps:
        for p2 in t2.irreps:
            mats = np.einsum("gij,gkl->gikjl", p1.mats[a], p2.mats[b]).reshape(
                group.order, p1.dim * p2.dim, p1.dim * p2.dim
            )
            out.append(Representation(group, mats, name=f"{p1.name}*{p2.name}"))
    return out


def irreps_of(group: Group) -> IrrepTable:
    """Full irrep table for a supported family.

    Supported: cyclic, sign_flip, dihedral, symmetric (d <= 6), and
    products of supported families.  Custom table groups are out of
    scope for irrep computation.
    """
    if group.family == "cyclic":
        raw = _cyclic_irreps(group)
    elif group.family == "sign_flip":
        raw = _sign_flip_irreps(group)
    elif group.family == "dihedral":
        raw = _dihedral_irreps(group)
    elif group.family == "symmetric":
        raw = _symmetric_irreps(group)
    elif group.family == "product":
        raw = _product_irreps(group)
    else:
        raise CapabilityError(f"irreps not available for family {group.family!r}")
    partition = conjugacy_classes(group)
    reps = list(partition.representatives)
    characters = np.array([np.trace(r.mats[reps], axis1=1, axis2=2) for r in raw])
    # trivial first, then by dimension, then by rounded (re, im) per class in turn
    dims = np.array([r.dim for r in raw])
    trivial = (dims == 1) & (np.abs(characters - 1.0).max(axis=1) < 1e-9)
    values = np.stack([np.round(characters.real, 9), np.round(characters.imag, 9)], axis=2)
    order = np.lexsort([*values.reshape(len(raw), -1).T[::-1], dims, ~trivial])
    raw, characters = [raw[i] for i in order], characters[order]
    table = IrrepTable(
        group=group,
        partition=partition,
        irreps=raw,
        dims=tuple(r.dim for r in raw),
        characters=characters,
    )
    table.validate()
    return table


# -- multiplicities ------------------------------------------------------------


def _class_inner(values: np.ndarray, table: IrrepTable) -> np.ndarray:
    """Inner products ``sum_c |c| * f(c) * conj(chi_i(c)) / |G|`` of the class
    functions f on the last axis of ``values`` with every irrep character."""
    sizes = np.array(table.partition.sizes, dtype=float)
    return (values * sizes) @ table.characters.conj().T / table.group.order


def _as_character(rho, table: IrrepTable) -> CharacterVector:
    if isinstance(rho, CharacterVector):
        if rho.group != table.group:
            raise GroupMismatchError("character/table group mismatch")
        return rho
    if isinstance(rho, Representation):
        if rho.group != table.group:
            raise GroupMismatchError("representation/table group mismatch")
        return rho.character(table.partition)
    raise UsageError("expected a Representation or CharacterVector")


def decompose(rho, table: IrrepTable) -> np.ndarray:
    """Multiplicity vector of ``rho`` over the table: character inner
    products rounded to integers, each within ``INT_ROUND_TOL``, checked
    non-negative and for dim match."""
    chi = _as_character(rho, table)
    values = _class_inner(chi.values, table)
    nearest = np.rint(values.real)
    off = np.abs(values - nearest)
    worst = int(off.argmax())
    if not off[worst] <= INT_ROUND_TOL:
        raise NumericalConsistencyError(
            f"multiplicity {values[worst]} is {off[worst]:.3e} from an integer"
        )
    if nearest.min() < 0:
        raise NumericalConsistencyError(f"negative multiplicity {int(nearest.min())}")
    mults = nearest.astype(np.int64)
    total = int((mults * np.array(table.dims)).sum())
    expected = round(chi.values[table.partition.class_of[0]].real)
    if total != expected:
        raise NumericalConsistencyError(
            f"multiplicities reconstruct dim {total}, expected {expected}"
        )
    return mults


def multiplicity(rho, irrep_index: int, table: IrrepTable) -> int:
    """How many copies of the indexed irrep appear in ``rho``: one entry of
    :func:`decompose`."""
    return int(decompose(rho, table)[irrep_index])


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def character_table_csv(table: IrrepTable) -> str:
    """CSV export: rows = irreps, columns = class representatives, a+bi cells."""
    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    group = table.group
    header = ["irrep"] + [_csv_field(group.labels[r]) for r in table.partition.representatives]
    lines = [",".join(header)]
    for label, row in zip(table.labels(), table.characters):
        lines.append(",".join([label] + [fmt(z) for z in row]))
    return "\n".join(lines) + "\n"
