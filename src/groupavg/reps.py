"""Unitary matrix representations of finite groups.

One complex matrix per element, plus characters, the invariant
projector, symmetric tensor powers, eigenvalue profiles over roots of
unity, and the polynomial-degree bound derived from them.  A character
is the traces gathered at the class representatives, checked constant
on each class in one array step.  The characters of all symmetric
powers up to a degree come from one walk of the power-sum recursion.
Eigenvalue multiplicities come from the character on each element's
power orbit, so a profile needs no eigensolver and the regular action's
degree bound needs no matrices.

A signed permutation action (entries 0 and +-1 with zero imaginary part,
one nonzero per row and column) has an integer (perm, sign) form, and
this module alone reads it.  The regular, permutation, sign and signed
symmetric-power actions are held by that form, their stack built on the
first read of ``mats``; any other stack has its form read once, by one
reader that also takes an irrep table's stacks whole (a 1x1 stack's forms
are int8 signs sharing one read-only zero permutation).  On that form the
homomorphism law is checked exactly on the group's generators (a
diagonal form by its signs alone, packed eight rows to a byte); traces
are signed counts, the projector and an averaging operator one
``bincount``, and the strong certificate's differences signed row moves,
all with the dense bits; the moves of g and g^-1 are signed row
permutations of each other, exactly.
Every other representation is checked in floating point: unitarity per
element, then the homomorphism law on each element against the group's
word basis, which bounds the deviation of every pair (see
:meth:`Group.word_basis`), in a fixed number of array steps per
representation over products g*t the group caches for all of them.  A
residual that is not finite fails either check.  An irrep table is
checked a stack at a time (:func:`_stack_views`): one sign law over its
+-1 irreps, and the float checks over groups of its other irreps in
stacked products, each irrep's residuals with the bits of its own check;
each irrep's view then reads its verdict in its one ``validate()``.  A
dense symmetric power takes one gather per pair of coordinate slots, with
the bits of one per pair of coordinates.
"""

from __future__ import annotations

import functools
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
    check_bytes,
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
_ROW_BLOCK_ENTRIES = 1 << 14  # real entries per stack of moved rows: 128 KiB
_DENSE_BLOCK_ENTRIES = 1 << 16  # complex entries per block of dense products: 1 MiB
_READ_SIGNED = object()  # Representation reads the signed form off its matrices


def _sign_laws_hold(group: Group, signs: np.ndarray) -> np.ndarray:
    """Per row of the ``(k, order)`` array of signs +-1, whether the sign law
    sign[g*s] == sign[g] * sign[s] holds for every g and generator s: the
    exact homomorphism law of a +-1 character, by induction on word length
    once sign[e] = 1.

    The rows are packed eight to a byte, a sign -1 as a set bit, one
    ``(order, ceil(k / 8))`` array, so the law is bits[g*s] == bits[g] ^
    bits[s], a whole byte row at once: rows g*s are gathered through the
    group's ``(order, generators)`` products, elements in blocks of about
    ``_DENSE_BLOCK_ENTRIES`` compared bytes, and the bits that ever differ
    are or-ed into one byte row."""
    products = group._generator_products
    gens = products[0]  # e * s
    bits = np.ascontiguousarray(np.packbits(signs < 0, axis=0).T)  # (order, bytes)
    step = max(1, _DENSE_BLOCK_ENTRIES // max(len(gens) * bits.shape[1], 1))
    differ = np.zeros(bits.shape[1], dtype=np.uint8)
    for start in range(0, len(bits), step):
        law = bits[products[start : start + step]] ^ bits[start : start + step, None] ^ bits[gens]
        differ |= np.bitwise_or.reduce(law.reshape(-1, bits.shape[1]), axis=0)
    return np.unpackbits(differ, count=len(signs)) == 0


def _signed_homomorphism_holds(group: Group, perm: np.ndarray, sign: np.ndarray) -> bool:
    """Exact homomorphism law for signed permutation matrices: rho(g*s) ==
    rho(g) @ rho(s) for every g and generator s, rows g*s gathered through
    the group's ``(order, generators)`` products; with rho(e) = I it then
    holds for all pairs, by induction on word length.  rho(g) @ rho(s) maps
    e_j to sign[s, j] * sign[g, perm[s, j]] times e_{perm[g, perm[s, j]]}.
    A diagonal form (every ``perm`` row the identity: a 1x1 form by its
    shape, a wider one by its first column, then one compare) composes no
    permutation, so the law is the sign law of each coordinate, one
    :func:`_sign_laws_hold` row per column."""
    d, products = perm.shape[1], group._generator_products
    # column 0 first: a permutation action moves 0 on some row, so it leaves
    # after |G| entries, before the full (order, dim) compare
    if d == 1 or (not perm[:, 0].any() and (perm == np.arange(d)).all()):
        return bool(_sign_laws_hold(group, sign.T).all())
    gens = products[0]
    after = perm[gens]  # (generators, dim)
    return bool(
        (np.take(perm, products, axis=0) == perm[:, after]).all()
        and (np.take(sign, products, axis=0) == sign[:, after] * sign[gens]).all()
    )


def _stack_forms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer ``(perm, sign, ok)`` of the ``(k, order, dim, dim)`` stack in
    one pass: ``block[g] e_j = sign[i, g, j] e_{perm[i, g, j]}`` for every
    block i with ``ok[i]``, where ``ok[i]`` is False when some matrix of
    block i is not a signed permutation matrix (its rows are then
    placeholders, and both arrays None when no block is one).  A 1x1
    stack's ``perm`` is one read-only ``(order, 1)`` zero permutation that
    every block shares.

    Element 0 is read as the exact identity a representation pins it to,
    so a block gets the form its representation's matrices have.  A 1x1
    block is a form when every other element is +-1 with zero imaginary
    part; its signs are its real parts as int8.  A wider block needs
    exactly ``(order - 1) * dim`` nonzero parts on the other elements, real
    and imaginary parts counted apart.  Each column's row is then the first
    row of its nonzero real parts (one ``argmax``) and its sign the real
    part there: every sign being +-1 leaves one real nonzero per column and
    no imaginary part, and the rows must then each hold a nonzero.  NaN and
    inf count as nonzero but are not +-1.
    """
    k, n, d = stack.shape[:3]
    if d == 1:
        values = stack[:, 1:, 0, 0]
        ok = ((np.abs(values.real) == 1) & (values.imag == 0)).all(axis=1)
        signs = np.ones((k, n, 1), dtype=np.int8)
        signs[ok, 1:, 0] = values.real[ok]
        zero = np.zeros((n, 1), dtype=np.intp)
        zero.flags.writeable = False
        return zero, signs, ok
    nonzero = stack[:, 1:].reshape(k, n - 1, d * d).view(np.float64) != 0  # real, imaginary apart
    ok = np.count_nonzero(nonzero.reshape(k, -1), axis=1) == (n - 1) * d
    if not ok.any():
        return None, None, ok
    nonzero = nonzero[..., ::2].reshape(k, n - 1, d, d)  # real parts: (k, order - 1, row, column)
    perm = np.empty((k, n, d), dtype=np.intp)
    perm[:, 0] = np.arange(d)
    perm[:, 1:] = nonzero.argmax(axis=2)
    real = stack[:, 1:].view(np.float64)[..., ::2]
    sign = np.take_along_axis(real, perm[:, 1:, None], axis=2)[:, :, 0]
    ok &= (np.abs(sign) == 1).all(axis=(1, 2)) & nonzero.any(axis=3).all(axis=(1, 2))
    signs = np.ones((k, n, d), dtype=np.int8)
    signs[ok, 1:] = sign[ok]
    return perm, signs, ok


def _signed_permutations(stack: np.ndarray) -> list[Optional[tuple[np.ndarray, np.ndarray]]]:
    """Per block of the ``(k, order, dim, dim)`` stack, its ``(perm, sign)``
    form from :func:`_stack_forms`, or None where it has none."""
    perm, sign, ok = _stack_forms(stack)
    wide = stack.shape[2] > 1
    return [((perm[i] if wide else perm), sign[i]) if good else None
            for i, good in enumerate(ok.tolist())]


def _pin_identity(stack: np.ndarray, copy: bool = False) -> np.ndarray:
    """``stack`` with the exact identity at element 0 of each ``(order, dim,
    dim)`` block, each checked within IDENTITY_TOL of it in Frobenius distance
    (a NaN fails), in place or, with ``copy``, in a copy if a byte changes."""
    eye = np.zeros(stack.shape[-2:], dtype=np.complex128)
    eye.ravel()[:: stack.shape[-1] + 1] = 1  # np.eye costs twice as much
    first = stack[..., 0, :, :]
    if first.tobytes() == eye.tobytes() * (first.size // eye.size):  # exact already, the common case
        return stack
    if not (np.linalg.norm((first - eye).reshape(-1, eye.size), axis=1) <= IDENTITY_TOL).all():
        raise NumericalConsistencyError("identity element does not map to the identity matrix")
    stack = stack.copy() if copy else stack
    stack[..., 0, :, :] = eye
    return stack


def _row_max(values: np.ndarray) -> np.ndarray:
    """Per row of the 2-d ``values``, its maximum (NaN if any entry is NaN),
    reduced from a contiguous copy: numpy reduces the rows of a strided
    real-part view about five times slower."""
    return np.ascontiguousarray(values).max(axis=1)


def _unitarity_residuals(blocks: np.ndarray) -> np.ndarray:
    """Per block of the ``(k, order, dim, dim)`` array, the largest Frobenius
    norm of rho(g)^dagger rho(g) - I over its elements: one stacked
    ``np.matmul``, the same product per element as for one block, so each
    block's residual has the bits it has alone.  A NaN or inf entry gives a
    NaN or inf residual, with no floating-point warning."""
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite blocks fail the check
        gram = np.matmul(blocks.conj().swapaxes(-1, -2), blocks)
        gram -= np.eye(blocks.shape[-1])
        flat = gram.reshape(len(blocks), -1, blocks.shape[-1] ** 2)
        return np.sqrt(_row_max(np.vecdot(flat, flat).real))


def _basis_step(entries: int) -> int:
    """Word-basis elements per pass of :func:`_homomorphism_residuals` over
    blocks of ``entries`` entries each: at most ``_DENSE_BLOCK_ENTRIES``
    product entries per block, at least one basis element."""
    return max(1, _DENSE_BLOCK_ENTRIES // entries)


def _homomorphism_residuals(blocks: np.ndarray, group: Group) -> np.ndarray:
    """Per block of the ``(k, order, dim, dim)`` array, the bound on the
    deviation over all pairs from each element against the group's word
    basis (proof at :meth:`Group.word_basis`).

    Each basis element t takes one ``(order * dim, dim) @ (dim, dim)``
    product per block, the rows of every rho(g) side by side times rho(t),
    all of them from one stacked ``np.matmul`` into one basis-major array
    (the same gemm per block and basis element, so the same bits as for one
    block alone); then one gather of rho(g*t) from the group's shared
    ``(order, basis)`` products, one subtraction and one Frobenius reduction
    per block serve every basis element.  The basis is taken
    :func:`_basis_step` elements at a time, so a pass holds ``k`` times
    ``_DENSE_BLOCK_ENTRIES`` product entries or fewer: one pass on every
    table the benchmark builds, a few on a large irrep.  A NaN in any
    product is the result, with no floating-point warning.
    """
    basis, depth = group.word_basis()
    at = group._word_products
    k, n, d = blocks.shape[:3]
    rows = blocks.reshape(k, 1, n * d, d)
    step = _basis_step(n * d * d)
    worst = np.zeros(k)
    for start in range(0, len(basis), step):
        block = list(basis[start : start + step])
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite blocks fail the check
            prods = np.matmul(rows, blocks[:, block])  # one gemm per block and basis element
            diff = np.take(blocks, at[:, start : start + step].T, axis=1)  # (k, basis, order, dim, dim)
            diff -= prods.reshape(diff.shape)
            flat = diff.reshape(k, -1, d * d)
            worst = np.maximum(worst, np.sqrt(_row_max(np.vecdot(flat, flat).real)))
    sigma = math.sqrt(1.0 + UNITARITY_TOL)
    return depth * (1.0 + sigma) * sigma ** max(depth - 1, 0) * worst


def _dense_homomorphism_residual(mats: np.ndarray, group: Group) -> float:
    """:func:`_homomorphism_residuals` of the ``(order, dim, dim)`` stack ``mats`` alone."""
    return float(_homomorphism_residuals(mats[None], group)[0])


def _stack_views(group: Group, stacks: list[np.ndarray], names) -> list["Representation"]:
    """The irreps of an irrep table's ``(k, order, dim, dim)`` stacks, each a
    :class:`Representation` viewing its slice, named in turn from ``names``.

    Every stack's identities are pinned first, in place.  Then each stack's
    forms are read in one pass (:func:`_stack_forms`) and its blocks
    checked together: the +-1 blocks of a 1x1 stack by one sign law
    (:func:`_sign_laws_hold`), any wider signed form by
    :func:`_signed_homomorphism_holds`, and every other block by its
    unitarity residual and, once unitary, its word-basis homomorphism
    residual, over groups of blocks of about an eighth of
    ``_DENSE_BLOCK_ENTRIES`` product entries per pass.  Each view is built
    around its form and residuals by :meth:`Representation._from_stack` and
    validated once, in table order, so the first bad irrep raises the error
    its own check would, before the next stack is read.
    """
    for stack in stacks:
        _pin_identity(stack)
    names, views = iter(names), []
    for stack in stacks:
        perm, sign, ok = _stack_forms(stack)
        k, n, d = stack.shape[:3]
        # a signed form is orthogonal exactly; a non-unitary block's
        # homomorphism residual is never read, validate stops before it
        unitarity, homomorphism = np.zeros(k), np.full(k, np.nan)
        signed, dense = np.flatnonzero(ok), np.flatnonzero(~ok)
        if d == 1 and signed.size:
            rows = sign[:, :, 0] if signed.size == k else sign[signed, :, 0]
            homomorphism[signed] = np.where(_sign_laws_hold(group, rows), 0.0, np.inf)
        elif d > 1:
            for i in signed.tolist():
                homomorphism[i] = 0.0 if _signed_homomorphism_holds(group, perm[i], sign[i]) else np.inf
        # blocks checked together: an eighth of _DENSE_BLOCK_ENTRIES product
        # entries per pass (128 KiB).  Larger groups saved no time on the
        # benchmark's tables and raised a build's peak by up to 0.7 MB
        entries = n * d * d  # per block and basis element of a pass
        per_block = entries * max(min(_basis_step(entries), len(group.word_basis()[0])), 1)
        step = max(1, _DENSE_BLOCK_ENTRIES // (8 * per_block))
        for start in range(0, len(dense), step):
            which = dense[start : start + step]
            run = which[-1] - which[0] == len(which) - 1  # a run of the stack: a view, no copy
            blocks = stack[which[0] : which[-1] + 1] if run else stack[which]
            unitarity[which] = _unitarity_residuals(blocks)
            unitary = unitarity[which] <= UNITARITY_TOL  # a NaN fails
            if unitary.any():  # validate stops at a unitarity error, so only these are read
                kept = blocks if unitary.all() else blocks[unitary]
                homomorphism[which[unitary]] = _homomorphism_residuals(kept, group)
        for i, (u, h, good) in enumerate(zip(unitarity.tolist(), homomorphism.tolist(), ok.tolist())):
            form = ((perm if d == 1 else perm[i]), sign[i]) if good else None
            view = Representation._from_stack(group, stack[i], next(names), form, (u, h))
            view.validate()
            views.append(view)
    return views


class Representation:
    """Unitary representation of a group, one complex matrix per element.

    ``mats`` has shape ``(order, dim, dim)``; ``mats[0]`` is pinned to the
    exact identity, in a copy if the given array would change.  ``perms`` is
    the permutation each matrix realizes (``e_j -> e_{perms[g][j]}``) when
    all of them are permutation matrices, and None otherwise.  The
    signed-permutation form of ``mats`` is read here by
    :func:`_stack_forms`, from ``mats`` as a stack of one once element 0 is
    pinned; ``signed=None`` holds ``mats`` as dense without reading one.
    With ``mats`` None, ``signed=(perm, sign)`` is the representation, and
    ``mats`` is built from it on first read.  An irrep table's views are
    built by :func:`_stack_views` through :meth:`_from_stack` instead.
    """

    def __init__(self, group: Group, mats, name: str = "rep", validate: bool = True,
                 signed=_READ_SIGNED):
        self.group = group
        self.name = str(name)
        if mats is None:
            perm, sign = (np.asarray(a) for a in signed)
            n, d = perm.shape if perm.ndim == 2 else (-1, 0)
            if not (perm.dtype.kind == "i" and sign.shape == perm.shape and n == group.order and d
                    and perm.min() >= 0 and (np.abs(sign) == 1).all()
                    and (np.bincount((perm + d * np.arange(n)[:, None]).ravel()) == 1).all()):
                raise UsageError("a signed form is two (order, dim) arrays of ints, each row "
                                 "a permutation with signs +-1")
            if not ((perm[0] == np.arange(d)).all() and (sign[0] == 1).all()):
                raise NumericalConsistencyError("identity element does not map to the identity matrix")
            self._mats, self.dim = None, d
            self._signed = perm.astype(np.intp, copy=False), sign.astype(np.int8)
        else:
            m = np.ascontiguousarray(mats, dtype=np.complex128)
            if m.ndim != 3 or m.shape[0] != group.order or m.shape[1] != m.shape[2] or not m.shape[1]:
                raise UsageError("mats must have shape (order, dim, dim) with dim >= 1")
            m = _pin_identity(m, copy=m is mats)
            self._mats, self.dim = m, m.shape[1]
            self._signed = _signed_permutations(m[None])[0] if signed is _READ_SIGNED else signed
        self._recorded = None
        if validate:
            self.validate()

    @classmethod
    def _from_stack(cls, group: Group, mats: np.ndarray, name: str, signed,
                    residuals: tuple[float, float]) -> "Representation":
        """A view of one irrep's slice ``mats`` of a stack that
        :func:`_stack_views` has pinned, read and checked, set without
        ``__init__``'s identity pin, dtype copy and form read: ``signed`` is
        its form or None, and ``residuals`` its unitarity and homomorphism
        residuals, which the first :meth:`validate` reads and drops.  Only
        :func:`_stack_views` builds representations so (an ``ast`` test
        keeps it so); every other caller goes through ``__init__``."""
        rep = cls.__new__(cls)
        rep.group, rep.name, rep._mats, rep.dim = group, name, mats, mats.shape[1]
        rep._signed, rep._recorded = signed, residuals
        return rep

    @functools.cached_property
    def perms(self) -> Optional[np.ndarray]:
        """The signed form's permutation when every sign is +1, else None."""
        if self._signed is None or self._signed[1].min() != 1:
            return None
        return self._signed[0]

    @property
    def mats(self) -> np.ndarray:
        """The ``(order, dim, dim)`` complex stack, built on first read from a signed form."""
        if self._mats is None:
            self._mats = _mats_from_perms(*self._signed)
        return self._mats

    # -- validation --------------------------------------------------

    def unitarity_residual(self) -> float:
        """Largest Frobenius norm of mats[g]^dagger mats[g] - I; see :func:`_unitarity_residuals`."""
        return float(_unitarity_residuals(self.mats[None])[0])

    def signed_permutation(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Integer ``(perm, sign)`` with ``mats[g] e_j = sign[g, j] e_{perm[g, j]}``,
        or None when some matrix is not a signed permutation matrix; given,
        or read off the matrices, when the representation was built."""
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
        """Unitarity, then the homomorphism law, each within its tolerance.
        A view of an irrep table reads the residuals its stack check
        recorded, once; every later call computes them from the matrices
        (and a signed form's from its form)."""
        recorded, self._recorded = self._recorded, None
        if self._signed is None:  # signed permutation matrices are orthogonal
            resid = self.unitarity_residual() if recorded is None else recorded[0]
            if not resid <= UNITARITY_TOL:  # a NaN residual fails too
                raise NumericalConsistencyError(f"unitarity residual {resid:.3e} exceeds tolerance")
        resid = self.homomorphism_residual() if recorded is None else recorded[1]
        if not resid <= HOMOMORPHISM_TOL:
            raise NumericalConsistencyError(f"homomorphism residual {resid:.3e} exceeds tolerance")

    # -- characters ---------------------------------------------------

    def character(self, partition: Optional[ConjugacyPartition] = None) -> "CharacterVector":
        part = partition if partition is not None else conjugacy_classes(self.group)
        traces = _traces(self)
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


def _mats_from_perms(perms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Stack with ``mats[g] e_j = signs[g, j] e_{perms[g, j]}``."""
    n, d = perms.shape
    mats = np.zeros((n, d, d), dtype=np.complex128)
    np.put_along_axis(mats, perms[:, None, :], signs[:, None, :], axis=1)
    return mats


def permutation_rep(group: Group) -> Representation:
    """Natural coordinate-permuting action of a symmetric-family group."""
    if group.family != "symmetric":
        raise UsageError("permutation representation requires the symmetric family")
    d = group.params[0]
    perm = symmetric_permutations(d)
    return Representation(group, None, name=f"perm{d}", signed=(perm, np.ones_like(perm)))


def sign_action_rep(group: Group) -> Representation:
    """Diagonal +-1 action of a sign-flip group on coordinates."""
    if group.family != "sign_flip":
        raise UsageError("sign action requires the sign_flip family")
    dim = group.params[0]
    x = np.arange(group.order)
    shifts = dim - 1 - np.arange(dim)
    bits = (x[:, None] >> shifts[None, :]) & 1
    perm = np.broadcast_to(np.arange(dim), bits.shape)
    return Representation(group, None, name=f"sign{dim}", signed=(perm, 1 - 2 * bits))


def regular_rep(group: Group) -> Representation:
    """Left-translation action ``e_h -> e_{g h}``, held as the group's table.

    The dense stack that the first read of ``.mats`` builds takes
    ``order**3 * 16`` bytes; that estimate is checked against
    ``MEMORY_CAP_BYTES`` (2 GiB, so order at most 512) here.
    """
    check_bytes(group.order**3 * 16, f"regular representation of order {group.order} needs",
                "order**3 * 16")
    return Representation(group, None, name="regular", signed=(group.mult, np.ones_like(group.mult)))


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


def _sym_power_signed(perm: np.ndarray, sign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, sign)`` form of the degree-k symmetric power of a signed
    permutation action: each monomial maps to the sorted images of its
    coordinates, with the product of their signs.  The identity's images
    list every monomial, so one ``np.unique`` ranks them all."""
    n, d = perm.shape
    monos = np.array(list(combinations_with_replacement(range(d), k)), dtype=np.int64)
    images = np.sort(perm[:, monos], axis=2).reshape(n * len(monos), k)  # k = 0: one empty monomial
    _, rank = np.unique(images, axis=0, return_inverse=True)
    return rank.reshape(n, -1), sign[:, monos].prod(axis=2)


def _sym_power_dense(rep: Representation, k: int) -> np.ndarray:
    """Degree-graded recursion producing exactly unitary matrices.

    With the multiplicity-normalized monomial basis, each degree-j basis
    vector decomposes over (degree j-1) x (degree 1) with weights
    sqrt(alpha_v / j); the induced matrix is the compression of
    M_{j-1} (x) U onto that isometric embedding.  Monomials are sorted
    coordinate tuples in ``combinations_with_replacement`` order, as in
    :func:`_sym_power_signed`: removing one v from each monomial holding
    it lists every degree j-1 monomial, so one ``np.unique`` ranks the
    parents.

    Entry (a, b) sums one term per pair of a coordinate v of monomial a
    and w of monomial b, in increasing (v, w), from 0.0.  A monomial's
    s-th smallest distinct coordinate is its slot s, so the slot pairs
    (s, t) in increasing order add each entry's terms in that order: one
    gather and one scatter-add per slot pair, at most j**2 per degree, over
    blocks of rows of about ``_DENSE_BLOCK_ENTRIES`` entries each, with the
    bits of one gather per coordinate pair.
    """
    n, d = rep.group.order, rep.dim
    current = np.ones((n, 1, 1), dtype=np.complex128)
    for j in range(1, k + 1):
        monos = np.array(list(combinations_with_replacement(range(d), j)), dtype=np.int64)
        hits = monos[:, :, None] == np.arange(d)  # (monomials, j, d)
        weight = np.sqrt(hits.sum(axis=1) / j)  # zero where v is absent
        mono, var = np.nonzero(weight)  # per monomial, its coordinates in increasing order
        keep = np.arange(j) != hits.argmax(axis=1)[mono, var][:, None]  # all but the first var
        parent = np.unique(monos[mono][keep].reshape(len(mono), j - 1), axis=0,
                           return_inverse=True)[1].reshape(-1)  # per (monomial, var) pair
        slot = np.arange(len(mono)) - np.searchsorted(mono, mono)
        slots = [np.flatnonzero(slot == s) for s in range(slot.max() + 1)]
        nxt = np.zeros((n, len(monos), len(monos)), dtype=np.complex128)
        step = max(1, _DENSE_BLOCK_ENTRIES // nxt[:, 0].size)
        for pairs in slots:
            for start in range(0, len(pairs), step):
                rows = pairs[start : start + step]
                a, v = mono[rows][:, None], var[rows][:, None]
                for cols in slots:
                    b, w = mono[cols][None, :], var[cols][None, :]
                    gathered = current[:, parent[rows][:, None], parent[cols][None, :]]
                    scale = weight[a, v] * weight[b, w]
                    nxt[:, a, b] += gathered * scale[None, :, :] * rep.mats[:, v, w]
        current = nxt
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
    target_dim = math.comb(rep.dim + k - 1, k)
    if target_dim > SYM_POWER_DIM_CAP:
        raise SizeLimitError(
            f"sym power dim {target_dim} exceeds cap {SYM_POWER_DIM_CAP}; "
            "use sym_power_characters for character-only computations"
        )
    name = f"sym{k}({rep.name})"
    signed = rep.signed_permutation()
    if signed is not None:
        return Representation(rep.group, None, name=name, signed=_sym_power_signed(*signed, k))
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


# -- invariants and spectra --------------------------------------------------


def _traces(rep: Representation) -> np.ndarray:
    """Complex trace of every element's matrix: a signed permutation
    action's are its signed fixed-point counts, with the dense bits."""
    if rep._signed is None:
        return np.einsum("gii->g", rep.mats)
    perm, sign = rep._signed
    return np.where(perm == np.arange(rep.dim), sign, 0).sum(axis=1).astype(np.complex128)


def _signed_sum(perm: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``(dim, dim)`` complex matrix whose entry (i, j) sums ``weights[g, j]``
    over the rows g with ``perm[g, j] == i``, in row order: one ``bincount``."""
    d = perm.shape[1]
    sums = np.bincount((perm * d + np.arange(d)).ravel(), weights.ravel(), minlength=d * d)
    return sums.astype(np.complex128).reshape(d, d)


def _weighted_sum(rep: Representation, support: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_s weights[s] * rep.mats[support[s]] in support order; on a signed
    permutation action one :func:`_signed_sum`, with the dense sum's bits."""
    if rep._signed is None:
        return np.einsum("s,sij->ij", weights.astype(np.complex128), rep.mats[support])
    perm, sign = rep._signed
    return _signed_sum(perm[support], weights[:, None] * sign[support])


def invariant_projector(rep: Representation) -> np.ndarray:
    """Group average of the representation matrices: the orthogonal projector
    onto the subspace fixed by every element, which commutes with every
    matrix.  On a signed permutation action, the signed counts of
    :func:`_signed_sum` over the order, with the dense mean's bits."""
    if rep._signed is None:
        return rep.mats.mean(axis=0)
    return _signed_sum(*rep._signed) / rep.group.order


def _deviations(rep: Representation, block: np.ndarray) -> Iterator[np.ndarray]:
    """Stacks of ``rep.mats[g] @ block - block`` over the elements g in turn:
    on a signed permutation action, row j of the real ``block`` moved to row
    ``perm[g, j]`` times ``sign[g, j]`` (no multiply if every sign is +1),
    about ``_ROW_BLOCK_ENTRIES`` entries per stack; else one complex matmul."""
    if rep._signed is None:
        yield np.matmul(rep.mats, block) - block
        return
    if np.any(block.imag != 0):
        raise NumericalConsistencyError("operator on a signed action has an imaginary part")
    (perm, sign), real = rep._signed, block.real
    step = max(1, _ROW_BLOCK_ENTRIES // real.size)
    for start in range(0, rep.group.order, step):
        rows, signs = perm[start : start + step], sign[start : start + step, :, None]
        moved = np.empty((len(rows), *real.shape))
        moved[np.arange(len(rows))[:, None], rows] = real if rep.perms is not None else real * signs
        yield moved - real


def _inverse_twins(rep: Representation) -> list[int]:
    """Per element g, the index of g^-1 when it is smaller than g and its
    signed form is exactly the inverse of g's, else -1.  :func:`_deviations`
    then forms g's difference as an exact signed row permutation of its
    twin's: row j of g^-1's is ``-sign[g, j]`` times row ``perm[g, j]`` of
    g's, since fl(s*x - y) = -s * fl(s*y - x) for s = +-1, so the two have
    the same singular values.  Every entry is -1 on a dense representation,
    whose differences agree only up to matmul rounding, and on a 1x1 one,
    whose differences take no SVD."""
    n = rep.group.order
    if rep._signed is None or rep.dim == 1:
        return [-1] * n
    (perm, sign), inv = rep._signed, rep.group.inv
    g = np.flatnonzero(inv < np.arange(n))
    # rho(g^-1) e_perm[g, j] = sign[g, j] e_j, checked: a representation built
    # with validate=False need not be a homomorphism
    back = np.take_along_axis(perm[inv[g]], perm[g], axis=1) == np.arange(rep.dim)
    same = np.take_along_axis(sign[inv[g]], perm[g], axis=1) == sign[g]
    g = g[(back & same).all(axis=1)]
    twins = np.full(n, -1)
    twins[g] = inv[g]
    return twins.tolist()


def invariant_dimension(rep: Representation) -> int:
    """Dimension of the fixed subspace = average trace, rounded."""
    value = complex(_traces(rep).mean())
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
    return _character_profile(rep.group, _traces(rep))


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
