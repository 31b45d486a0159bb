"""Unitary matrix representations of finite groups.

Dense complex matrices per element, plus characters, the invariant
projector, symmetric tensor powers, eigenvalue profiles over roots of
unity, and the polynomial-degree bound derived from them.  A character
is the traces gathered at the class representatives, checked constant
on each class in one array step.  The characters of all symmetric
powers up to a degree come from one walk of the power-sum recursion.
Eigenvalue multiplicities come from the character on each element's
power orbit, so a profile needs no eigensolver and the regular action's
degree bound needs no matrices.

A representation is its matrices.  When every matrix is a signed
permutation matrix (entries 0 and +-1 with zero imaginary part, one
nonzero per row and column) the integer (perm, sign) form is read off
the stack once, when the representation is built; an irrep table reads
the forms of all the irreps in one of its stacks in one pass.  This covers
characters with values +-1, the sign action, and every permutation
action (the all-plus case), however its matrices were made.  On that
form validation checks the homomorphism law exactly on the group's
generators, and a permutation action's products are row moves.  Every
other representation is checked in floating point: unitarity per
element, then the homomorphism law on each element against the group's
word basis, which bounds the deviation of every pair (see
:meth:`Group.word_basis`).  A residual that is not finite fails either
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Optional

import numpy as np

from .errors import (
    GroupMismatchError,
    NumericalConsistencyError,
    SizeLimitError,
    UsageError,
)
from .groups import Group, ConjugacyPartition, conjugacy_classes, symmetric_permutations
from .groups import _BLOCK_ENTRIES, power_table

UNITARITY_TOL = 1e-9
HOMOMORPHISM_TOL = 1e-9
IDENTITY_TOL = 1e-9
EIG_SNAP_TOL = 1e-6  # multiplicity snap
INT_ROUND_TOL = 1e-6
CHARACTER_CLASS_TOL = 1e-8
SYM_POWER_DIM_CAP = 2000
REGULAR_REP_MAX_BYTES = 2 << 30
_READ_SIGNED = object()  # Representation reads the signed form off its matrices


def _max_frobenius(diff: np.ndarray) -> float:
    """Largest Frobenius norm over the matrices of the ``(k, d, d)`` stack ``diff``."""
    flat = diff.reshape(len(diff), -1)
    return float(np.sqrt(np.vecdot(flat, flat).real.max()))


def _signed_homomorphism_holds(group: Group, perm: np.ndarray, sign: np.ndarray) -> bool:
    """Exact homomorphism law for signed permutation matrices.

    Checks rho(g*s) == rho(g) @ rho(s) for every g and every s in
    ``group.generators`` in one gather; with rho(e) = I it then holds for
    all pairs, by induction on word length.  In (perm, sign) form,
    rho(g) @ rho(s) maps e_j to sign[s, j] * sign[g, perm[s, j]] times
    e_{perm[g, perm[s, j]]}.  Row g*s of ``perm`` and ``sign`` is read
    flat through :meth:`Group.generator_rows`, made once per group and
    row width.
    """
    gens, at_product = group.generator_rows(perm.shape[1])  # (generators,), (order, generators, dim)
    after = perm[gens]  # (generators, dim)
    return bool(
        (perm.ravel()[at_product] == perm[:, after]).all()
        and (sign.ravel()[at_product] == sign[:, after] * sign[gens]).all()
    )


def _signed_permutation_of(mats: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Integer ``(perm, sign)`` with ``mats[g] e_j = sign[g, j] e_{perm[g, j]}``,
    or None when some matrix is not a signed permutation matrix.

    One ``!= 0`` pass over the float64 view, real and imaginary parts
    interleaved, gives the count of nonzero parts and each column's row,
    the argmax of its real part.  Exactly ``order * dim`` nonzero parts and
    a +-1 in each column's row leave one real nonzero per column and no
    imaginary part; the rows must then form a permutation.  NaN and inf
    count as nonzero but are not +-1.
    """
    n, d = mats.shape[0], mats.shape[1]
    parts = mats.view(np.float64)  # (order, dim, 2 * dim)
    nonzero = parts != 0
    if np.count_nonzero(nonzero) != n * d:
        return None
    perm = nonzero[:, :, ::2].argmax(axis=1)
    at = np.arange(0, n * d, d)[:, None] + perm  # flat (element, row) of each column's entry
    sign = parts.reshape(-1)[2 * (at * d + np.arange(d))]
    hit = np.zeros(n * d, dtype=bool)
    hit[at] = True
    if not (np.all(np.abs(sign) == 1) and hit.all()):
        return None
    return perm, sign.astype(np.int8)


def _signed_permutations(stack: np.ndarray) -> list[Optional[tuple[np.ndarray, np.ndarray]]]:
    """:func:`_signed_permutation_of` for every ``(order, dim, dim)`` block of
    the ``(k, order, dim, dim)`` stack, in one pass over the whole stack:
    an irrep table's forms, without a call per irrep.

    Element 0 is read as the exact identity a representation pins it to,
    so a block gets the form its representation's matrices have.  On the
    other elements a block needs exactly ``(order - 1) * dim`` nonzero
    parts, real and imaginary counted apart, as :func:`_signed_permutation_of`
    does.  One walk over the rows then sums each column's real parts and
    the row indices of its nonzero real parts.  Every column summing to
    +-1 leaves one real nonzero per column and no imaginary part, so a
    column's row is its row-index sum and its sign its sum; the rows
    must then each hold a nonzero.  NaN and inf count as nonzero but are
    not +-1.  Every step is elementwise over the stack, so a 1x1 stack
    costs no per-block work; the walk takes ``dim`` steps, which suits the
    small blocks of a table, while :func:`_signed_permutation_of` suits one
    large representation.
    """
    k, n, d = stack.shape[:3]
    flat = stack.reshape(k, n, -1).view(np.float64)
    counted = np.count_nonzero(flat.reshape(k, -1), axis=1) - np.count_nonzero(flat[:, 0], axis=1)
    ok = counted == (n - 1) * d
    if not ok.any():
        return [None] * k
    real = stack[:, 1:].view(np.float64)[..., ::2]  # (k, order - 1, row, column)
    nonzero = real != 0
    perm = np.zeros((k, n, d), dtype=np.intp)
    perm[:, 0] = np.arange(d)
    sign = np.ones((k, n, d))
    sign[:, 1:] = real[:, :, 0]
    for row in range(1, d):
        sign[:, 1:] += real[:, :, row]
        perm[:, 1:] += row * nonzero[:, :, row]
    ok &= (np.abs(sign) == 1).all(axis=(1, 2)) & nonzero.any(axis=3).all(axis=(1, 2))
    signs = np.zeros((k, n, d), dtype=np.int8)
    signs[ok] = sign[ok]
    return [(perm[i], signs[i]) if ok[i] else None for i in range(k)]


def _dense_homomorphism_residual(mats: np.ndarray, group: Group) -> float:
    """Bound on the deviation over all pairs from each element against the
    group's word basis, one ``(order * dim, dim) @ (dim, dim)`` product per
    basis element: the rows of every rho(g) side by side times rho(t) (proof
    at :meth:`Group.word_basis`).  A NaN in any product is the result."""
    basis, depth = group.word_basis()
    rows = mats.reshape(-1, mats.shape[2])
    worst = 0.0
    for t in basis:
        prods = (rows @ mats[t]).reshape(mats.shape)
        worst = np.maximum(worst, _max_frobenius(mats[group.mult[:, t]] - prods))
    sigma = math.sqrt(1.0 + UNITARITY_TOL)
    return float(depth * (1.0 + sigma) * sigma ** max(depth - 1, 0) * worst)


class Representation:
    """Unitary representation stored as one dense complex matrix per element.

    ``mats`` has shape ``(order, dim, dim)``; ``mats[0]`` is pinned to the
    exact identity.  ``perms`` is the permutation each matrix realizes
    (``e_j -> e_{perms[g][j]}``), read off the matrices when all of them
    are permutation matrices, and None otherwise.  A caller that has read
    the signed-permutation form of ``mats`` already, as an irrep table
    does for a whole stack with :func:`_signed_permutations`, passes it
    as ``signed`` (None for none); otherwise it is read here.
    """

    def __init__(self, group: Group, mats, name: str = "rep", validate: bool = True,
                 signed=_READ_SIGNED):
        self.group = group
        m = np.ascontiguousarray(mats, dtype=np.complex128)
        if m.ndim != 3 or m.shape[0] != group.order or m.shape[1] != m.shape[2] or not m.shape[1]:
            raise UsageError("mats must have shape (order, dim, dim) with dim >= 1")
        eye = np.eye(m.shape[1], dtype=np.complex128)
        if not np.linalg.norm(m[0] - eye) <= IDENTITY_TOL:  # a NaN identity fails too
            raise NumericalConsistencyError("identity element does not map to the identity matrix")
        m[0] = eye
        self.mats = m
        self.name = str(name)
        self._signed = _signed_permutation_of(m) if signed is _READ_SIGNED else signed
        all_plus = self._signed is not None and np.all(self._signed[1] == 1)
        self.perms = self._signed[0] if all_plus else None
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return int(self.mats.shape[1])

    # -- validation --------------------------------------------------

    def unitarity_residual(self) -> float:
        gram = np.matmul(self.mats.conj().transpose(0, 2, 1), self.mats)
        gram -= np.eye(self.dim)
        return _max_frobenius(gram)

    def signed_permutation(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Integer ``(perm, sign)`` with ``mats[g] e_j = sign[g, j] e_{perm[g, j]}``,
        or None when some matrix is not a signed permutation matrix; read
        off the matrices when the representation was built."""
        return self._signed

    def homomorphism_residual(self) -> float:
        """Bound on the Frobenius deviation of mats[g*h] from mats[g] @ mats[h]
        over all pairs g, h.

        Exact on signed permutation matrices: 0 when the law holds for all
        pairs, inf otherwise (two distinct signed permutation matrices lie
        at least sqrt(2) apart).  Otherwise a float bound, valid once the
        unitarity check of :meth:`validate` passes; see
        :func:`_dense_homomorphism_residual`.
        """
        if self._signed is None:
            return _dense_homomorphism_residual(self.mats, self.group)
        return 0.0 if _signed_homomorphism_holds(self.group, *self._signed) else float("inf")

    def validate(self) -> None:
        if self._signed is None:  # signed permutation matrices are orthogonal
            resid = self.unitarity_residual()
            if not resid <= UNITARITY_TOL:  # a NaN residual fails too
                raise NumericalConsistencyError(f"unitarity residual {resid:.3e} exceeds tolerance")
        resid = self.homomorphism_residual()
        if not resid <= HOMOMORPHISM_TOL:
            raise NumericalConsistencyError(f"homomorphism residual {resid:.3e} exceeds tolerance")

    # -- characters ---------------------------------------------------

    def character(self, partition: Optional[ConjugacyPartition] = None) -> "CharacterVector":
        part = partition if partition is not None else conjugacy_classes(self.group)
        traces = np.einsum("gii->g", self.mats)
        values = traces[part.representatives]
        spread = float(np.abs(traces - values[part.class_of]).max())
        if not spread <= CHARACTER_CLASS_TOL:  # a NaN trace fails too
            raise NumericalConsistencyError(f"character varies on a class by {spread:.3e}")
        return CharacterVector(group=self.group, partition=part, values=values)


@dataclass
class CharacterVector:
    """Trace of a representation per conjugacy class."""

    group: Group
    partition: ConjugacyPartition
    values: np.ndarray  # complex, one per class


@dataclass(frozen=True)
class EigenProfile:
    """Distinct root-of-unity eigenvalues and their peak multiplicities.

    ``fractions[i] = (p, q)`` in lowest terms encodes the root
    ``exp(2*pi*1j*p/q)``; ``max_mult[i]`` is the largest multiplicity of
    that root across all element matrices.
    """

    fractions: tuple[tuple[int, int], ...]
    roots: np.ndarray
    max_mult: np.ndarray

    def __len__(self) -> int:
        return len(self.fractions)


# -- constructors ----------------------------------------------------------


def _mats_from_perms(perms: np.ndarray, signs=1.0) -> np.ndarray:
    """Stack with ``mats[g] e_j = signs[g, j] e_{perms[g, j]}``."""
    n, d = perms.shape
    mats = np.zeros((n, d, d), dtype=np.complex128)
    np.put_along_axis(mats, perms[:, None, :], np.broadcast_to(signs, (n, d))[:, None, :], axis=1)
    return mats


def permutation_rep(group: Group) -> Representation:
    """Natural coordinate-permuting action of a symmetric-family group."""
    if group.family != "symmetric":
        raise UsageError("permutation representation requires the symmetric family")
    d = group.params[0]
    return Representation(group, _mats_from_perms(symmetric_permutations(d)), name=f"perm{d}")


def sign_action_rep(group: Group) -> Representation:
    """Diagonal +-1 action of a sign-flip group on coordinates."""
    if group.family != "sign_flip":
        raise UsageError("sign action requires the sign_flip family")
    dim = group.params[0]
    x = np.arange(group.order)
    shifts = dim - 1 - np.arange(dim)
    bits = (x[:, None] >> shifts[None, :]) & 1
    diag = 1.0 - 2.0 * bits
    mats = np.zeros((group.order, dim, dim), dtype=np.complex128)
    mats[:, np.arange(dim), np.arange(dim)] = diag
    return Representation(group, mats, name=f"sign{dim}")


def regular_rep(group: Group) -> Representation:
    """Left-translation action on functions over the group itself.

    The dense complex stack takes ``order**3 * 16`` bytes; that estimate
    is checked against ``REGULAR_REP_MAX_BYTES`` (2 GiB, so order at most
    512) before anything is allocated.
    """
    need = group.order**3 * 16
    if need > REGULAR_REP_MAX_BYTES:
        raise SizeLimitError(
            f"regular representation of order {group.order} needs {need:,} bytes "
            f"(order**3 * 16), above the cap of {REGULAR_REP_MAX_BYTES:,}"
        )
    return Representation(group, _mats_from_perms(group.mult), name="regular")  # e_h -> e_{g h}


def trivial_rep(group: Group) -> Representation:
    mats = np.ones((group.order, 1, 1), dtype=np.complex128)
    return Representation(group, mats, name="trivial")


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    if r1.group != r2.group:
        raise GroupMismatchError("direct sum requires the same group")
    n, d1, d2 = r1.group.order, r1.dim, r2.dim
    mats = np.zeros((n, d1 + d2, d1 + d2), dtype=np.complex128)
    mats[:, :d1, :d1] = r1.mats
    mats[:, d1:, d1:] = r2.mats
    return Representation(r1.group, mats, name=f"({r1.name})+({r2.name})")


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    if r1.group != r2.group:
        raise GroupMismatchError("tensor product requires the same group")
    mats = np.einsum("gij,gkl->gikjl", r1.mats, r2.mats).reshape(
        r1.group.order, r1.dim * r2.dim, r1.dim * r2.dim
    )
    return Representation(r1.group, mats, name=f"({r1.name})x({r2.name})")


# -- symmetric powers -------------------------------------------------------


def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Degree-``degree`` monomials over ``dim`` variables as count vectors."""
    out = []
    for combo in combinations_with_replacement(range(dim), degree):
        counts = [0] * dim
        for v in combo:
            counts[v] += 1
        out.append(tuple(counts))
    return out


def sym_power_dim(dim: int, k: int) -> int:
    return math.comb(dim + k - 1, k)


def _sym_power_signed(perm: np.ndarray, sign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)`` form of the degree-k symmetric power of a signed
    permutation action: each monomial maps to the sorted images of its
    coordinates, with the product of their signs.  The identity's images
    list every monomial, so one ``np.unique`` ranks them all."""
    n, d = perm.shape
    monos = np.array(list(combinations_with_replacement(range(d), k)), dtype=np.int64)
    images = np.sort(perm[:, monos], axis=2).reshape(-1, k)  # (order * monomials, k)
    _, rank = np.unique(images, axis=0, return_inverse=True)
    return rank.reshape(n, -1), sign[:, monos].prod(axis=2)


def _sym_power_dense(rep: Representation, k: int) -> np.ndarray:
    """Degree-graded recursion producing exactly unitary matrices.

    With the multiplicity-normalized monomial basis, each degree-j basis
    vector decomposes over (degree j-1) x (degree 1) with weights
    sqrt(alpha_v / j); the induced matrix is the compression of
    M_{j-1} (x) U onto that isometric embedding.
    """
    n, d = rep.group.order, rep.dim
    current = np.ones((n, 1, 1), dtype=np.complex128)
    monos_prev = _monomials(d, 0)
    for j in range(1, k + 1):
        monos = _monomials(d, j)
        idx_prev = {m: i for i, m in enumerate(monos_prev)}
        dim_j = len(monos)
        parent = np.full((dim_j, d), -1, dtype=np.int64)
        weight = np.zeros((dim_j, d))
        for i, counts in enumerate(monos):
            for v in range(d):
                if counts[v]:
                    reduced = list(counts)
                    reduced[v] -= 1
                    parent[i, v] = idx_prev[tuple(reduced)]
                    weight[i, v] = math.sqrt(counts[v] / j)
        nxt = np.zeros((n, dim_j, dim_j), dtype=np.complex128)
        for v in range(d):
            rows = weight[:, v] > 0
            pv = parent[rows, v]
            wv = weight[rows, v]
            for w in range(d):
                cols = weight[:, w] > 0
                pw = parent[cols, w]
                ww = weight[cols, w]
                gathered = current[:, pv[:, None], pw[None, :]]
                scale = wv[:, None] * ww[None, :]
                nxt[:, np.ix_(rows, cols)[0], np.ix_(rows, cols)[1]] += (
                    gathered * scale[None, :, :] * rep.mats[:, v, w][:, None, None]
                )
        current = nxt
        monos_prev = monos
    return current


def sym_power_rep(rep: Representation, k: int) -> Representation:
    """Induced representation on degree-k products of base coordinates.

    The monomial basis carries multiplicity weights so the result is
    unitary; the power of a signed permutation action is built from its
    ``(perm, sign)`` form.  Raises a size-limit error pointing at the
    character-only path when the monomial count exceeds ``SYM_POWER_DIM_CAP``.
    """
    if k < 0:
        raise UsageError("symmetric power degree must be >= 0")
    target_dim = sym_power_dim(rep.dim, k)
    if target_dim > SYM_POWER_DIM_CAP:
        raise SizeLimitError(
            f"sym power dim {target_dim} exceeds cap {SYM_POWER_DIM_CAP}; "
            "use sym_power_character for character-only computations"
        )
    name = f"sym{k}({rep.name})"
    if k == 0:
        return Representation(
            rep.group, np.ones((rep.group.order, 1, 1), dtype=np.complex128), name=name
        )
    if k == 1:
        return Representation(rep.group, rep.mats.copy(), name=name)
    signed = rep.signed_permutation()
    if signed is not None:
        mats = _mats_from_perms(*_sym_power_signed(*signed, k))
        return Representation(rep.group, mats, name=name)
    return Representation(rep.group, _sym_power_dense(rep, k), name=name)


def power_class_map(group: Group, partition: ConjugacyPartition, max_power: int) -> np.ndarray:
    """``out[c, j]`` = class index of ``rep_c ** j`` for j in 0..max_power.

    Well-defined on classes since conjugation commutes with powers.
    """
    return partition.class_of[power_table(group, partition.representatives, max_power + 1)].T


def sym_power_characters(chi: CharacterVector, max_degree: int) -> Iterator[CharacterVector]:
    """Characters of the symmetric powers of degree 0..max_degree, in turn,
    from one walk of the power-sum recursion over one power-class map:
    chi_k(g) = (1/k) * sum_{j=1..k} chi(g^j) * chi_{k-j}(g), chi_0 = 1.
    """
    if max_degree < 0:
        raise UsageError("symmetric power degree must be >= 0")
    part = chi.partition
    powers = chi.values[power_class_map(chi.group, part, max_degree)]  # chi(rep_c ** j)
    table = np.zeros((max_degree + 1, len(part)), dtype=np.complex128)
    table[0] = 1.0
    yield CharacterVector(group=chi.group, partition=part, values=table[0])
    for k in range(1, max_degree + 1):
        acc = np.zeros(len(part), dtype=np.complex128)
        for j in range(1, k + 1):
            acc += powers[:, j] * table[k - j]
        table[k] = acc / k
        yield CharacterVector(group=chi.group, partition=part, values=table[k])


def sym_power_character(chi: CharacterVector, k: int) -> CharacterVector:
    """Character of the degree-k symmetric power, the last of
    :func:`sym_power_characters`; it matches the trace of the explicit
    symmetric power whenever that is buildable."""
    for chi_k in sym_power_characters(chi, k):
        pass
    return chi_k


# -- invariants and spectra --------------------------------------------------


def invariant_projector(rep: Representation) -> np.ndarray:
    """Group average of the representation matrices.

    Orthogonal projector onto the subspace fixed by every element; it
    commutes with every representation matrix.
    """
    return rep.mats.mean(axis=0)


def invariant_dimension(rep: Representation) -> int:
    """Dimension of the fixed subspace = average trace, rounded."""
    value = complex(np.einsum("gii->g", rep.mats).mean())
    nearest = round(value.real)
    if abs(value - nearest) > INT_ROUND_TOL:
        raise NumericalConsistencyError(
            f"average trace {value} is {abs(value - nearest):.3e} from an integer"
        )
    return int(nearest)


def _character_profile(group: Group, traces: np.ndarray) -> EigenProfile:
    """Eigenvalue profile of a representation from its character alone.

    Over a period L of the power walk (a multiple of each element's
    order), ``exp(2*pi*1j*t/L)`` is an eigenvalue of g with multiplicity
    ``(1/L) * sum_{j<L} chi(g**j) * exp(-2*pi*1j*t*j/L)``: one FFT along
    the power orbit of g.  Elements are walked in blocks of at most
    ``_BLOCK_ENTRIES`` orbit entries, each block until its own period.
    """
    n = group.order
    rows = max(1, _BLOCK_ENTRIES // n)  # a period divides the exponent, so it is at most n
    keys, peaks = [], []
    for start in range(0, n, rows):
        orbits = power_table(group, np.arange(start, min(start + rows, n))).T
        period = orbits.shape[1]
        mults = np.fft.fft(traces[orbits], axis=1) / period
        counts = np.rint(mults.real)
        bad = float(np.abs(mults - counts).max())
        if bad > EIG_SNAP_TOL:
            raise NumericalConsistencyError(f"eigenvalue multiplicity is {bad:.3e} from an integer")
        t = np.arange(period)
        common = np.gcd(t, period)
        keys.append(period // common * n + t // common)  # root t/period in lowest terms, by (q, p)
        peaks.append(counts.max(axis=0).astype(np.int64))
    keys, peak = np.concatenate(keys), np.concatenate(peaks)
    order = np.lexsort((peak, keys))
    keys, peak = keys[order], peak[order]
    last = np.append(keys[1:] != keys[:-1], True) & (peak > 0)  # largest peak per root
    fracs = tuple(zip((keys[last] % n).tolist(), (keys[last] // n).tolist()))
    roots = np.array([np.exp(2j * np.pi * p / q) for p, q in fracs])
    return EigenProfile(fractions=fracs, roots=roots, max_mult=peak[last])


def eigen_profile(rep: Representation) -> EigenProfile:
    """Root-of-unity eigenvalues of the element matrices, from the character:
    multiplicities rounded to integers (tolerance ``EIG_SNAP_TOL``), roots
    deduplicated as reduced fractions, the peak multiplicity per root."""
    return _character_profile(rep.group, np.einsum("gii->g", rep.mats))


def k_bound(rep: Representation) -> int:
    """Polynomial-feature degree bound min{order, sum of peak multiplicities - 1}."""
    return int(min(rep.group.order, int(eigen_profile(rep).max_mult.sum()) - 1))


def regular_k_bound(group: Group) -> int:
    """Degree bound of the regular action, from its character alone.

    The regular character is |G| at the identity and 0 elsewhere, so no
    matrices are materialized.
    """
    traces = np.zeros(group.order)
    traces[0] = group.order
    return int(min(group.order, int(_character_profile(group, traces).max_mult.sum()) - 1))


# -- export ------------------------------------------------------------------


def rep_to_text(rep: Representation) -> str:
    """Text export: header then one row-major block of a+bi entries per element."""
    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    lines = [f"rep {rep.name} {rep.dim} {rep.group.order}"]
    for g in range(rep.group.order):
        for row in rep.mats[g]:
            lines.append(" ".join(fmt(z) for z in row))
    return "\n".join(lines) + "\n"
