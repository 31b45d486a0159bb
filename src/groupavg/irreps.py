"""Irreducible representation tables for the built-in group families.

A table is its per-dimension stacks: one ``(k, |G|, d, d)`` complex array
per irrep dimension d, in ascending d.  The builders return stacks:
cyclic and sign-flip groups all their characters as one array, dihedral
groups one 1- and one 2-dimensional stack, symmetric groups (d <= 6) one
stack per shape from Young's orthogonal form over standard tableaux, and
products one tensor product per pair of factor stacks.  Everything is
complex and unitary; real forms are embedded as complex.  Each irrep is
a validated :class:`Representation` viewing its slice of a stack, so the
matrices are held once, plus the conjugated copy the Fourier transforms
read.  The signed-permutation forms of a stack's irreps are read in one
pass over the stack, and each irrep gets its slice.  A build peaks near
``order**2 * 96`` bytes and is refused above ``GROUP_TABLE_MAX_BYTES``
before any builder allocates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .errors import CapabilityError, GroupMismatchError, NumericalConsistencyError
from .errors import SizeLimitError, UsageError
from .groups import GROUP_TABLE_MAX_BYTES, Group, ConjugacyPartition, conjugacy_classes
from .groups import group_spec_string, symmetric_permutations
from .reps import INT_ROUND_TOL, CharacterVector, Representation, _signed_permutations

ORTHOGONALITY_TOL = 1e-9
SYMMETRIC_IRREPS_MAX_DIM = 6


@dataclass
class IrrepTable:
    """All irreducible representations of a group, trivial first.

    ``stacks`` holds one ``(k, |G|, d, d)`` array per irrep dimension d, in
    ascending d, and the irreps are numbered through them in turn: the
    trivial irrep, then by dimension, then lexicographically by character
    values over the class list.  ``characters[i, c]`` is the trace of
    irrep i at the representative of class c; ``irreps[i]`` views irrep
    i's slice of its stack.
    """

    group: Group
    partition: ConjugacyPartition
    stacks: list[np.ndarray]
    characters: np.ndarray

    trivial_index = 0  # the sort puts the trivial irrep first

    def __post_init__(self):
        self.dims = tuple(int(s.shape[2]) for s in self.stacks for _ in range(len(s)))
        labels = iter(self.labels())
        self.irreps = [Representation(self.group, m, next(labels), signed=form)
                       for s in self.stacks for m, form in zip(s, _signed_permutations(s))]

    def __len__(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def conj_stacks(self) -> list[np.ndarray]:
        """:attr:`stacks` with every matrix entry complex-conjugated, the
        operand every Fourier transform over this table reads."""
        return [s.conj() for s in self.stacks]

    def labels(self) -> list[str]:
        return [f"pi{i}_d{d}" for i, d in enumerate(self.dims)]

    def validate(self) -> None:
        """The character gram must be the identity: its diagonal certifies
        each irrep irreducible, its off-diagonal the irreps inequivalent."""
        group, part = self.group, self.partition
        if len(self) != len(part):
            raise NumericalConsistencyError(f"irrep count {len(self)} != class count {len(part)}")
        if sum(d * d for d in self.dims) != group.order:
            raise NumericalConsistencyError("sum of squared dims does not equal the group order")
        gram = _class_inner(self.characters, self)
        dev = float(np.abs(gram - np.eye(len(self))).max())
        if not dev <= ORTHOGONALITY_TOL:
            raise NumericalConsistencyError(f"character orthogonality deviation {dev:.3e}")
        if self.dims[0] != 1 or np.abs(self.stacks[0][0] - 1.0).max() > 1e-12:
            raise NumericalConsistencyError("trivial irrep is not first")


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


def _symmetric_stacks(group: Group) -> list[np.ndarray]:
    """Each element's matrix is the product of its word's generators, left
    to right from the identity: step j multiplies, in one batched matmul,
    every element whose word is longer than j by its j-th generator."""
    d = group.params[0]
    words = [_adjacent_decomposition(perm) for perm in symmetric_permutations(d).tolist()]
    lengths = np.array([len(word) for word in words])
    letters = np.zeros((group.order, lengths.max()), dtype=np.intp)
    for g, word in enumerate(words):
        letters[g, : len(word)] = word
    out = []
    for shape in partitions_of(d):
        tabs, gens = _adjacent_transposition_matrices(shape)
        gens, dim = np.array(gens), len(tabs)
        mats = np.broadcast_to(np.eye(dim), (group.order, dim, dim)).copy()
        for j in range(letters.shape[1]):
            live = np.flatnonzero(lengths > j)
            mats[live] = np.matmul(mats[live], gens[letters[live, j]])
        out.append(mats.astype(np.complex128)[None])
    return out


# -- per-family stacks ---------------------------------------------------------


def _cyclic_stacks(group: Group) -> list[np.ndarray]:
    n = group.order
    theta = 2j * np.pi * np.arange(n)[:, None] * np.arange(n)  # (character, element)
    theta /= n
    return [np.exp(theta, out=theta).reshape(n, n, 1, 1)]


def _sign_flip_stacks(group: Group) -> list[np.ndarray]:
    n = group.order
    x = np.arange(n)
    signs = 1.0 - 2.0 * (np.bitwise_count(x[:, None] & x) % 2)  # (mask, element)
    return [signs.astype(np.complex128).reshape(n, n, 1, 1)]


def _dihedral_stacks(group: Group) -> list[np.ndarray]:
    n = group.params[0]
    order = group.order
    a = np.arange(order) % n
    b = np.arange(order) // n
    chars = [np.ones(order), np.where(b == 1, -1.0, 1.0)]
    if n % 2 == 0:
        chars += [(-1.0) ** a, (-1.0) ** (a + b)]
    h = np.arange(1, (n - 1) // 2 + 1)[:, None]  # one rotation block per h
    theta = 2 * np.pi * h * a / n
    mats = np.zeros((len(h), order, 2, 2), dtype=np.complex128)
    mats[..., 0, 0] = np.cos(theta)
    mats[..., 0, 1] = -np.sin(theta)
    mats[..., 1, 0] = np.sin(theta)
    mats[..., 1, 1] = np.cos(theta)
    flip = b == 1
    mats[:, flip] = mats[:, flip] @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return [np.array(chars, dtype=np.complex128).reshape(-1, order, 1, 1), mats]


def _product_stacks(group: Group) -> list[np.ndarray]:
    g1, g2 = group.factors
    o2 = g2.order
    idx = np.arange(group.order)
    a, b = idx // o2, idx % o2
    return [
        np.einsum("pgij,qgkl->pqgikjl", s1[:, a], s2[:, b]).reshape(
            len(s1) * len(s2), group.order, s1.shape[2] * s2.shape[2], s1.shape[2] * s2.shape[2]
        )
        for s1 in irreps_of(g1).stacks
        for s2 in irreps_of(g2).stacks
    ]


_BUILDERS = {
    "cyclic": _cyclic_stacks,
    "sign_flip": _sign_flip_stacks,
    "dihedral": _dihedral_stacks,
    "symmetric": _symmetric_stacks,
    "product": _product_stacks,
}
_PEAK_BYTES_PER_ENTRY = 96


def irreps_of(group: Group) -> IrrepTable:
    """Full irrep table for a supported family.

    Supported: cyclic, sign_flip, dihedral, symmetric (d <= 6), and
    products of supported families.  Custom table groups are out of
    scope for irrep computation.  The build's peak, about
    ``order**2 * 96`` bytes (the largest peak RSS over order**2 measured
    on every family at two sizes), is checked against
    ``GROUP_TABLE_MAX_BYTES`` before any builder allocates.
    """
    builder = _BUILDERS.get(group.family)
    too_large = group.family == "symmetric" and group.params[0] > SYMMETRIC_IRREPS_MAX_DIM
    if builder is None or too_large:
        raise CapabilityError(
            f"no irreps for {group_spec_string(group)}: supported are cyclic, signflip, dihedral, "
            f"symmetric up to d = {SYMMETRIC_IRREPS_MAX_DIM} and products of them"
        )
    need = group.order**2 * _PEAK_BYTES_PER_ENTRY
    if need > GROUP_TABLE_MAX_BYTES:
        raise SizeLimitError(
            f"irrep table of order {group.order:,} needs about {need:,} bytes "
            f"(order**2 * {_PEAK_BYTES_PER_ENTRY}), above the cap of {GROUP_TABLE_MAX_BYTES:,}"
        )
    raw = builder(group)
    partition = conjugacy_classes(group)
    reps = partition.representatives
    characters = np.concatenate([np.trace(s[:, reps], axis1=2, axis2=3) for s in raw])
    dims = np.concatenate([np.full(len(s), s.shape[2]) for s in raw])
    # trivial first, then by dimension, then by rounded (re, im) per class in turn
    trivial = (dims == 1) & (np.abs(characters - 1.0).max(axis=1) < 1e-9)
    values = np.stack([np.round(characters.real, 9), np.round(characters.imag, 9)], axis=2)
    order = np.lexsort([*values.reshape(len(dims), -1).T[::-1], dims, ~trivial])
    del values
    characters = characters[order]
    # each dimension is a contiguous run of the order: gather its rows from
    # that dimension's raw stacks, releasing them as it goes
    by_dim: dict[int, list[np.ndarray]] = {}
    for stack in raw:
        by_dim.setdefault(stack.shape[2], []).append(stack)
    del raw, stack
    ranked, stacks = dims[order], []
    for d in sorted(by_dim):
        parts = by_dim.pop(d)
        rows = np.searchsorted(np.flatnonzero(dims == d), order[ranked == d])
        stacks.append((parts[0] if len(parts) == 1 else np.concatenate(parts))[rows])
    del parts
    table = IrrepTable(group, partition, stacks, characters)
    table.validate()
    return table


# -- multiplicities ------------------------------------------------------------


def _class_inner(values: np.ndarray, table: IrrepTable) -> np.ndarray:
    """Inner products ``sum_c |c| * f(c) * conj(chi_i(c)) / |G|`` of the class
    functions f on the last axis of ``values`` with every irrep character."""
    return (values * table.partition.sizes) @ table.characters.conj().T / table.group.order


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
