"""Irreducible representation tables for the built-in group families.

A table is its group and its per-dimension stacks: one ``(k, |G|, d, d)``
complex array per irrep dimension d, in ascending d.  The builders return
stacks: cyclic and sign-flip groups all their characters as one array,
dihedral groups one 1- and one 2-dimensional stack, symmetric groups
(d <= 6) one stack per shape from Young's orthogonal form over standard
tableaux, and products one tensor product per pair of their factors'
builder stacks, with no factor table.  Everything is complex and unitary;
real forms are embedded as complex.  :class:`IrrepTable` derives the rest
from the stacks it is given, in any order: one stable sort of the
characters per dimension puts copies of them in table order, and the
table computes its classes and characters, checks each stack once, then
checks two linear character identities.  Each irrep is a
:class:`Representation` viewing its slice of a stack, so the matrices are
held once, plus the element-major adjoint table the Fourier transforms
gather from (row g holds pi(g)^dagger of every irrep), built when first
read, and the layout of its stacks in that table's columns, computed once.
The stack check is ``reps._stack_views``: a 1x1 stack's signed forms read
in one pass (int8 signs sharing one read-only zero permutation) and its
+-1 irreps checked by one packed sign law, every other irrep by stacked
unitarity and homomorphism residuals; each view's one ``validate()``
reads its irrep's verdict.  A build is refused before any builder
allocates when ``order**2 * 96`` bytes, above its measured peak, pass
``MEMORY_CAP_BYTES``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
import numpy as np

from .errors import CapabilityError, GroupMismatchError, NumericalConsistencyError
from .errors import UsageError, check_bytes
from .groups import Group, conjugacy_classes
from .groups import group_spec_string, symmetric_permutations
from .reps import INT_ROUND_TOL, CharacterVector, Representation, _stack_views

# IrrepTable.validate's bound: a valid table reads at most 6.1e-14 (cyclic:2000),
# a reducible block at least 1, and a missing or duplicated irrep at least
# 1/|G|, above 2e-4 at every order the table cap admits.
ORTHOGONALITY_TOL = 1e-9
SYMMETRIC_IRREPS_MAX_DIM = 6
_CSV_BLOCK_CELLS = 256  # character table cells formatted per block


@dataclass
class IrrepTable:
    """All irreducible representations of a group, from its stacks alone.

    ``stacks`` are ``(k, |G|, d, d)`` complex arrays in any order.  The
    table keeps a sorted copy per irrep dimension d, in ascending d, and
    numbers the irreps through them in turn: trivial first, then by the
    rounded character values over the class list (the real parts alone
    where a dimension's imaginary parts are all zero), ties in the given
    order.  ``partition`` is the group's conjugacy classes,
    ``characters[i, c]`` the trace of irrep i at class c's representative
    (on an abelian group a view of its 1x1 stack), and ``irreps[i]`` a view
    of irrep i's slice, its identity pinned.  Construction checks every
    stack (:func:`reps._stack_views`), then the characters (:meth:`validate`).
    """

    group: Group
    stacks: list[np.ndarray]

    trivial_index = 0  # the sort puts the trivial irrep first

    def __post_init__(self):
        by_dim: dict[int, list[np.ndarray]] = {}
        for stack in self.stacks:
            by_dim.setdefault(stack.shape[2], []).append(stack)
        n, self.partition = self.group.order, conjugacy_classes(self.group)
        abelian = len(self.partition) == n  # its representatives are all its elements, in order
        self.stacks, characters = [], []
        for d in sorted(by_dim):
            parts = by_dim.pop(d)
            stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
            del parts
            at_classes = stack if abelian else stack[:, self.partition.representatives]
            chars = np.trace(at_classes, axis1=2, axis2=3)
            del at_classes
            # chi == 1 within 1e-9 in each part, by reductions over the real and
            # imaginary views: no |G|**2 temporary.  chi(e) = d rules out d > 1
            trivial = ((chars.real.min(axis=1) > 1 - 1e-9) & (chars.real.max(axis=1) < 1 + 1e-9)
                       & (chars.imag.min(axis=1) > -1e-9) & (chars.imag.max(axis=1) < 1e-9))
            values = np.empty((*chars.shape, 2 if chars.imag.any() else 1))  # rounded in place
            np.round(chars.real, 9, out=values[:, :, 0])
            if values.shape[2] == 2:
                np.round(chars.imag, 9, out=values[:, :, 1])
            order = np.lexsort([*values.reshape(len(chars), -1).T[::-1], ~trivial])
            del values
            view = abelian and d == 1  # characters over all elements: the stack itself
            sorted_chars = None if view else chars[order]
            del chars
            self.stacks.append(stack[order])  # a copy: the given arrays are never pinned
            del stack
            characters.append(self.stacks[-1].reshape(-1, n) if view else sorted_chars)
        self.characters = characters[0] if len(characters) == 1 else np.concatenate(characters)
        self.dims = tuple(int(s.shape[2]) for s in self.stacks for _ in range(len(s)))
        self.irreps = _stack_views(self.group, self.stacks, self.labels())
        self.validate()

    def __len__(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def adjoint_rows(self) -> np.ndarray:
        """``(|G|, sum k*d*d)`` complex array, the operand every Fourier
        transform over this table reads: row g holds pi(g)^dagger of every
        irrep, each flattened row-major, in table order.

        Each stack's conjugated ``transpose(1, 0, 3, 2)`` is written
        straight into its column slice, so the build makes no temporary.
        """
        n = self.group.order
        out = np.empty((n, self.layout[-1][1]), dtype=np.complex128)
        for s, (start, end, shape) in zip(self.stacks, self.layout):
            cols = out[:, start:end]
            np.conjugate(s.transpose(1, 0, 3, 2), out=cols.reshape(n, *shape))  # a view
        return out

    @functools.cached_property
    def layout(self) -> list[tuple[int, int, tuple[int, int, int]]]:
        """``(start, end, (k, d, d))`` per stack: its columns of
        :attr:`adjoint_rows`, and so its entries of a transform's one vector,
        and the shape of its coefficient stack."""
        out, first = [], 0
        for s in self.stacks:
            k, d = len(s), s.shape[2]
            out.append((first, first + k * d * d, (k, d, d)))
            first += k * d * d
        return out

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """Each transform entry's block column: (i, j) of irrep p lies in sum(dims[:p]) + j."""
        dims, sizes = np.array(self.dims), np.square(self.dims)
        d, first = np.repeat(dims, sizes), np.repeat(np.cumsum(sizes) - sizes, sizes)
        return np.repeat(np.cumsum(dims) - dims, sizes) + (np.arange(d.size) - first) % d

    def labels(self) -> list[str]:
        return [f"pi{i}_d{d}" for i, d in enumerate(self.dims)]

    def validate(self) -> None:
        """Two linear checks on the characters (Serre, *Linear
        Representations of Finite Groups*, 2.3-2.4), each within
        ``ORTHOGONALITY_TOL``: every norm <chi_i, chi_i> is 1, so each irrep
        is irreducible; and sum_i d_i chi_i / |G| is the identity's indicator,
        the regular character over |G|, so by the linear independence of
        irreducible characters each irrep appears exactly once."""
        chars, order = self.characters, self.group.order
        norms = np.abs(chars) ** 2 @ self.partition.sizes / order - 1.0
        regular = np.array(self.dims) @ chars / order
        regular[0] -= 1.0  # class 0 is the identity's
        dev = float(np.abs(np.concatenate([norms, regular])).max())
        if not dev <= ORTHOGONALITY_TOL:
            raise NumericalConsistencyError(f"character orthogonality deviation {dev:.3e}")


# -- Young's orthogonal form -------------------------------------------------


def partitions_of(d: int) -> list[tuple[int, ...]]:
    """Integer partitions of d in reverse-lexicographic order, (d,) first."""

    def rec(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        parts = range(min(cap, remaining), 0, -1)
        return [(part, *rest) for part in parts for rest in rec(remaining - part, part)]

    return rec(d, d)


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Standard fillings of ``shape`` with 0..d-1, rows and columns
    increasing, each as its row word: the row of every entry in turn.

    The largest entry sits in a corner; removing it recursively, top
    corner first, fixes the order.
    """
    if sum(shape) == 0:
        return [()]
    out = []
    for i, length in enumerate(shape):
        if length and (i + 1 == len(shape) or shape[i + 1] < length):
            smaller = shape[:i] + (length - 1,) + shape[i + 1 :]
            out += [rows + (i,) for rows in standard_tableaux(smaller)]
    return out


def _adjacent_transposition_matrices(shape: tuple[int, ...]) -> tuple[list, list[np.ndarray]]:
    """Orthogonal matrices for the adjacent transpositions (i, i+1).

    Axial-distance construction: with delta the content difference
    between the cells holding i+1 and i, the transposition acts on the
    tableau basis vector with diagonal 1/delta and off-diagonal
    sqrt(1 - 1/delta^2) toward the swapped tableau, which is standard
    exactly when |delta| > 1.  An entry's column is the number of smaller
    entries in its row.
    """
    tabs = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    mats = []
    for a in range(max(sum(shape) - 1, 0)):
        m = np.zeros((len(tabs), len(tabs)))
        for t_idx, rows in enumerate(tabs):
            r1, r2 = rows[a], rows[a + 1]
            delta = (rows[: a + 1].count(r2) - r2) - (rows[:a].count(r1) - r1)
            m[t_idx, t_idx] = 1.0 / delta
            if abs(delta) > 1:
                swapped = rows[:a] + (r2, r1) + rows[a + 2 :]
                m[index[swapped], t_idx] = math.sqrt(1.0 - 1.0 / delta**2)
        mats.append(m)
    return tabs, mats


def _symmetric_stacks(group: Group) -> list[np.ndarray]:
    """Each element's matrix is the product of its word's generators, left
    to right from the identity: step j multiplies, in one batched matmul,
    every element whose word is longer than j by its j-th generator.

    The words come from one bubble sort over all one-line forms, d - 1
    passes: the swaps s_1 .. s_m that sort sigma give sigma = s_m ... s_1,
    so a word is its row's swaps reversed."""
    d = group.params[0]
    work, steps = symmetric_permutations(d), []  # steps: (position, rows swapped there)
    for i in [*range(d - 1)] * (d - 1):  # d - 1 passes
        rows = np.flatnonzero(work[:, i] > work[:, i + 1])
        work[rows, i], work[rows, i + 1] = work[rows, i + 1], work[rows, i]
        steps.append((i, rows))
    letters = np.zeros((group.order, d * (d - 1) // 2), dtype=np.intp)
    lengths = np.zeros(group.order, dtype=np.intp)
    for i, rows in reversed(steps):
        letters[rows, lengths[rows]] = i
        lengths[rows] += 1
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
    signs = np.where(np.bitwise_count(x[:, None] & x) & 1, -1 + 0j, 1 + 0j)  # (mask, element)
    return [signs.reshape(n, n, 1, 1)]


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
    """One tensor product per pair of the factors' builder stacks: the
    product's own sort and check cover every product irrep."""
    a, b = np.divmod(np.arange(group.order), group.factors[1].order)
    first, second = (_builder(g)(g) for g in group.factors)
    return [
        np.einsum("pgij,qgkl->pqgikjl", s1[:, a], s2[:, b]).reshape(
            len(s1) * len(s2), group.order, s1.shape[2] * s2.shape[2], s1.shape[2] * s2.shape[2]
        )
        for s1 in first for s2 in second
    ]


_BUILDERS = {
    "cyclic": _cyclic_stacks,
    "sign_flip": _sign_flip_stacks,
    "dihedral": _dihedral_stacks,
    "symmetric": _symmetric_stacks,
    "product": _product_stacks,
}
_PEAK_BYTES_PER_ENTRY = 96


def _builder(group: Group):
    """The stack builder of ``group``'s family, or :class:`CapabilityError`
    naming ``group`` (symmetric groups up to ``SYMMETRIC_IRREPS_MAX_DIM``)."""
    builder = _BUILDERS.get(group.family)
    too_large = group.family == "symmetric" and group.params[0] > SYMMETRIC_IRREPS_MAX_DIM
    if builder is None or too_large:
        raise CapabilityError(
            f"no irreps for {group_spec_string(group)}: supported are cyclic, signflip, dihedral, "
            f"symmetric up to d = {SYMMETRIC_IRREPS_MAX_DIM} and products of them"
        )
    return builder


def check_table_order(order: int) -> None:
    """Refuse an order whose irrep table build, ``order**2 * 96`` bytes, would
    pass ``MEMORY_CAP_BYTES``."""
    check_bytes(order**2 * _PEAK_BYTES_PER_ENTRY, f"irrep table of order {order:,} needs",
                f"order**2 * {_PEAK_BYTES_PER_ENTRY}")


def irreps_of(group: Group) -> IrrepTable:
    """Full irrep table for a supported family: :class:`IrrepTable` on the
    family builder's stacks, which sorts and checks them.

    Supported: cyclic, sign_flip, dihedral, symmetric (d <= 6), and
    products of supported families.  Custom table groups are out of
    scope for irrep computation.  ``order**2 * 96`` bytes is checked
    against ``MEMORY_CAP_BYTES`` before any builder allocates; tracemalloc
    peaks lie below it, at most 54 bytes per order**2 entry at orders 1000
    to 2048 (more below, where fixed costs weigh: 59 at cyclic:500).
    """
    builder = _builder(group)
    check_table_order(group.order)
    return IrrepTable(group, builder(group))


# -- multiplicities ------------------------------------------------------------


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
    """Multiplicity vector of ``rho`` over the table: the class-weighted
    inner products ``sum_c |c| * chi(c) * conj(chi_i(c)) / |G|`` rounded
    to integers, each within ``INT_ROUND_TOL``, checked non-negative and
    for dim match."""
    chi = _as_character(rho, table)
    values = (chi.values * table.partition.sizes) @ table.characters.conj().T / table.group.order
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


def _csv_field(text: str) -> str:
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def character_table_csv(table: IrrepTable) -> Iterator[str]:
    """CSV export: rows = irreps, columns = class representatives, a+bi
    cells; the header, then one chunk per irrep.

    Rows go in blocks of about ``_CSV_BLOCK_CELLS`` cells, so the writer
    holds about one block.  A block formats each of its distinct values
    once, keyed on its bits, so -0.0 and 0.0 keep their own text."""
    group = table.group
    header = ["irrep"] + [_csv_field(group.labels[r]) for r in table.partition.representatives]
    yield ",".join(header) + "\n"
    chars, labels = np.ascontiguousarray(table.characters), table.labels()
    step = max(1, _CSV_BLOCK_CELLS // chars.shape[1])
    for start in range(0, len(chars), step):
        block = chars[start : start + step]
        values, where = np.unique(block.view("V16"), return_inverse=True)
        texts = [f"{z.real:.17g}{z.imag:+.17g}i" for z in values.view(np.complex128).tolist()]
        rows = np.array(texts, dtype=object)[where.reshape(block.shape)].tolist()
        for label, row in zip(labels[start : start + step], rows):
            yield f"{label},{','.join(row)}\n"
