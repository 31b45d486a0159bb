"""Fourier analysis of signals on finite groups.

Transforms are direct summations against an irrep table (no fast
transform): one gather of the support's rows of the table's
element-major adjoint table and one einsum over them, fed the sparse
``(support, weights)`` of a scheme or signal as they are.  The
coefficients are that one vector, viewed as one ``(k, d, d)`` stack per
irrep dimension, and the per-irrep blocks are views of the stacks.
Spectral norms are closed form on 1x1 blocks and dense SVD on larger
ones.  The weak certificate passes the entries of the 1x1 stack to
:func:`spectral_norm` as numpy scalars through one C-level ``map``, with
no Python loop and no 1x1 views.  It takes the Frobenius norms of each
larger stack in one reduction and skips the SVD of every block whose
Frobenius norm cannot beat the running maximum; it keeps the same bits,
since sigma_max <= ||.||_F and the maximum does not depend on the order
the blocks are visited in.  A caller that only compares the certificate
with a threshold may pass it as ``stop_above`` and skip the SVDs left
once the running maximum exceeds it.  A stacked 1x1 path would have to
take ``np.hypot`` of the parts, not ``np.abs``, to keep those bits (see
:func:`spectral_norm`).  The strong certificate takes one SVD per
element of the differences ``rho(g) @ block - block`` formed in
:mod:`groupavg.reps`, the one module that reads a signed-permutation form,
except for an element whose inverse twin came out below the running
maximum.  On a signed action the difference for g^-1 is an exact signed
row permutation of the one for g, so both have the same exact singular
values, and each computed sigma_max lies within p(n)*u*sigma_max of its
exact value (p(n)*u <= 2.2e-13 at every width the caps admit): with the
weak prune's margin, a skipped element could not have raised the
maximum, which keeps the bits of one SVD per element.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GroupMismatchError, UsageError
from .groups import Group
from .irreps import IrrepTable
from .reps import Representation, _deviations, _inverse_twins

SUPPORT_EPS = 1e-15
# slack on a block's squared Frobenius norm before it may skip its SVD:
# relative rounding in either norm is a few ulps, far below the margin,
# and the absolute rounding of subnormal squares is far below the
# smallest normal float
_PRUNE_MARGIN = 1e-12
_PRUNE_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass
class GroupSignal:
    """A real or complex weight per group element."""

    group: Group
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.shape != (self.group.order,):
            raise UsageError("weights must have one entry per group element")
        self.weights = w.astype(np.complex128) if np.iscomplexobj(w) else w.astype(np.float64)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(np.abs(self.weights) > SUPPORT_EPS)

    def sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """``(support, weights on the support)``."""
        idx = self.support
        return idx, self.weights[idx]


@dataclass
class FourierCoefficients:
    """The transform over an irrep table, as the table lays out its irreps.

    ``stacks`` holds one ``(k, d, d)`` complex array per stack of the
    table, in the same order, so iterating the stacks in turn yields one
    ``d_pi x d_pi`` block per irrep in table order.
    """

    table: IrrepTable
    stacks: list[np.ndarray]


def spectral_norm(mat) -> float:
    """Largest singular value: ``abs`` of a 1x1 block or of a numpy scalar
    (the entry of one), dense SVD otherwise.

    A numpy scalar goes straight to its ``abs``, which is what a 1x1
    block's entry gets, so both give the same bits.  Scalar ``abs`` has
    the bits of ``np.hypot(z.real, z.imag)``, but not always those of
    ``np.abs`` over a complex array, whose vectorized loop rounds
    differently.  The SVD is the one ``np.linalg.norm(mat, 2)`` runs,
    without its axis handling and reduction: singular values come
    sorted, largest first.
    """
    if isinstance(mat, np.generic):
        return float(abs(mat))
    mat = np.asarray(mat)
    if mat.size == 1:
        # numpy's abs: Python's complex abs raises OverflowError where it gives inf
        return float(abs(mat.flat[0]))
    return float(np.linalg.svd(np.atleast_2d(mat), compute_uv=False)[0])


def max_deviation(rep: Representation, block: np.ndarray) -> float:
    """max over g of the spectral norm of ``rep.mats[g] @ block - block``:
    the strong certificate's and the exact-invariance violation's worst case.

    One pass over the stacks of ``reps._deviations`` (real on a signed
    action) in element order, with one ``spectral_norm`` call per element,
    except that g skips its SVD when its inverse twin (``reps._inverse_twins``,
    signed actions only) came out below the running maximum by the
    rounding margin of :func:`max_nontrivial_norm`'s prune.  The two
    differences have the same exact singular values, and LAPACK's computed
    sigma_max lies within p(n)*u*sigma_max of the exact one, p(n)*u <= 2.2e-13
    at every width the caps admit, so a skipped value could not have raised
    the maximum; ``max`` does not depend on the order of its arguments, so
    the result has the bits of the maximum over every element.  As in
    ``max``, the first value seeds the maximum, and a NaN never prunes.
    """
    twins = _inverse_twins(rep)
    diffs = itertools.chain.from_iterable(_deviations(rep, block))
    best = spectral_norm(next(diffs))  # the identity: twin -1
    norms = [best]
    for twin, diff in zip(itertools.islice(twins, 1, None), diffs):
        if twin >= 0 and norms[twin] * (1.0 + _PRUNE_MARGIN) + _PRUNE_FLOOR < best:
            norms.append(norms[twin])  # never read: an element with a twin is no element's twin
            continue
        value = spectral_norm(diff)
        norms.append(value)
        if value > best:
            best = value
    return best


def fourier_transform(signal, table: IrrepTable) -> FourierCoefficients:
    """Per-irrep sums of weights against the adjoint irrep matrices.

    ``signal`` is a :class:`GroupSignal` or an ``AveragingScheme``:
    anything with a ``group`` and a ``sparse()`` giving its support and
    the weights there, so a scheme is never made dense.  One gather of
    the support's rows of :attr:`IrrepTable.adjoint_rows` and one einsum
    give every coefficient, summed over the support in increasing order
    as the per-stack einsum sums them; each stack is a C-contiguous
    ``(k, d, d)`` view of that one vector.
    """
    if signal.group != table.group:
        raise GroupMismatchError("signal and table are over different groups")
    idx, w = signal.sparse()
    flat = np.einsum("g,gx->x", w, table.adjoint_rows[idx])
    stacks, first = [], 0
    for s in table.stacks:
        k, d = len(s), s.shape[2]
        stacks.append(flat[first : first + k * d * d].reshape(k, d, d))
        first += k * d * d
    return FourierCoefficients(table=table, stacks=stacks)


def inverse_fourier(coeffs: FourierCoefficients) -> GroupSignal:
    """Reconstruct the signal over the table the coefficients carry; inverse
    of :func:`fourier_transform`."""
    table = coeffs.table
    n = table.group.order
    shapes = [(len(s), s.shape[2], s.shape[2]) for s in table.stacks]
    if [np.shape(c) for c in coeffs.stacks] != shapes:
        raise UsageError(f"coefficient stacks have shapes "
                         f"{[np.shape(c) for c in coeffs.stacks]}, expected {shapes}")
    out = np.zeros(n, dtype=np.complex128)
    for blocks, stack in zip(coeffs.stacks, table.stacks):
        out += stack.shape[2] * np.einsum("kij,kgji->g", blocks, stack)
    out /= n
    if np.abs(out.imag).max() < 1e-12:
        out = out.real
    return GroupSignal(group=table.group, weights=out)


def plancherel_residual(signal: GroupSignal, table: IrrepTable) -> float:
    """| sum |w|^2 - (1/|G|) sum_pi d_pi ||what(pi)||_F^2 |."""
    coeffs = fourier_transform(signal, table)
    lhs = float((np.abs(signal.weights) ** 2).sum())
    rhs = sum(
        s.shape[2] * float((np.abs(s) ** 2).sum()) for s in coeffs.stacks
    ) / table.group.order
    return abs(lhs - rhs)


def max_nontrivial_norm(
    coeffs: FourierCoefficients,
    restrict_to: Optional[np.ndarray] = None,
    stop_above: float = math.inf,
) -> float:
    """Largest squared spectral norm over nontrivial coefficient blocks.

    ``restrict_to`` optionally limits the maximum to irreps with nonzero
    multiplicity in a supplied decomposition vector.

    Pruned but exact: 1x1 blocks go first, each entry as a numpy scalar,
    then larger blocks in decreasing squared Frobenius norm (one
    reduction per stack, ties in table order), and the SVDs stop at the
    first block whose Frobenius bound, widened for rounding, falls below
    the running maximum.
    sigma_max <= ||.||_F, so no skipped block could raise the maximum,
    and ``max`` does not depend on the order of its arguments, so the
    result has the same bits as the maximum over every block.

    ``stop_above`` also ends the SVDs once the running maximum exceeds
    it (the 1x1 entries are still read in full).  The result is then
    exact whenever the certificate is at most ``stop_above``, and
    otherwise a lower bound on it that lies above ``stop_above``: enough
    for a caller that only compares the certificate with that value.
    """
    best = 0.0
    frob2, parts, starts = [], [], []
    first = 0
    for stack in coeffs.stacks:
        kept = stack[1:] if first == 0 else stack  # the trivial irrep opens the table
        end = first + len(stack)
        if restrict_to is not None:
            kept = kept[~(np.asarray(restrict_to[end - len(kept) : end]) < 1)]
        first = end
        if stack.shape[2] == 1:
            # each entry as a numpy scalar; the 0.0 seed skips NaN as a
            # running max does, and squaring the max keeps its bits
            best = max(best, max(itertools.chain((0.0,), map(spectral_norm, kept.ravel()))) ** 2)
        elif len(kept):
            flat = kept.reshape(len(kept), -1)
            starts.append(len(frob2))
            frob2 += np.vecdot(flat, flat).real.tolist()  # the bits of np.vdot per block
            parts.append(kept)
    for i in sorted(range(len(frob2)), key=frob2.__getitem__, reverse=True):  # stable
        if frob2[i] * (1.0 + _PRUNE_MARGIN) + _PRUNE_FLOOR < best or best > stop_above:
            break
        p = bisect.bisect_right(starts, i) - 1
        best = max(best, spectral_norm(parts[p][i - starts[p]]) ** 2)
    return best


def per_irrep_norms(coeffs: FourierCoefficients) -> dict[str, float]:
    blocks = itertools.chain.from_iterable(coeffs.stacks)
    return {label: spectral_norm(m) ** 2 for label, m in zip(coeffs.table.labels(), blocks)}


def convolve(s1: GroupSignal, s2: GroupSignal) -> GroupSignal:
    """Group convolution ``(s1 * s2)(g) = sum_h s1(h) s2(h^{-1} g)``.

    Support is contained in the elementwise product of supports, and the
    transform of the convolution is ``fourier(s2) @ fourier(s1)`` blockwise
    (the adjoint in the transform reverses the order).
    """
    if s1.group != s2.group:
        raise GroupMismatchError("convolution requires the same group")
    group = s1.group
    complex_out = np.iscomplexobj(s1.weights) or np.iscomplexobj(s2.weights)
    out = np.zeros(group.order, dtype=np.complex128 if complex_out else np.float64)
    idx = np.arange(group.order)
    for h in s1.support:
        out += s1.weights[h] * s2.weights[group.product(group.inv[h], idx)]
    return GroupSignal(group=group, weights=out)

