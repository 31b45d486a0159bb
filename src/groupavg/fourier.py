"""Fourier analysis of signals on finite groups.

Transforms are direct summations against an irrep table (no fast
transform), one summation per irrep dimension over the table's stacked
matrices; spectral norms are closed form on 1x1 blocks and dense SVD on
larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GroupMismatchError, UsageError
from .groups import Group
from .irreps import IrrepTable

SUPPORT_EPS = 1e-15


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


@dataclass
class FourierCoefficients:
    """One ``d_pi x d_pi`` complex matrix per irrep of the table."""

    table: IrrepTable
    mats: list[np.ndarray]


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value: ``abs`` of a 1x1 block, dense SVD otherwise."""
    mat = np.atleast_2d(mat)
    if mat.size == 1:
        return float(abs(mat[0, 0]))
    return float(np.linalg.norm(mat, 2))


def max_deviation(mats: np.ndarray, block: np.ndarray) -> float:
    """max over g of the spectral norm of ``mats[g] @ block - block``.

    The per-element worst case behind the strong certificate and the
    exact-invariance violation; ``mats`` is a stack of one matrix per
    group element.
    """
    return max(spectral_norm(m @ block - block) for m in mats)


def fourier_transform(signal: GroupSignal, table: IrrepTable) -> FourierCoefficients:
    """Per-irrep sums of weights against the adjoint irrep matrices."""
    if signal.group != table.group:
        raise GroupMismatchError("signal and table are over different groups")
    idx = signal.support
    w = signal.weights[idx]
    mats: list = [None] * len(table)
    for irreps, stack in table.stacks:
        blocks = np.einsum("g,kgji->kij", w, stack[:, idx].conj())
        for i, block in zip(irreps, blocks):
            mats[i] = block
    return FourierCoefficients(table=table, mats=mats)


def inverse_fourier(coeffs: FourierCoefficients, table: IrrepTable) -> GroupSignal:
    """Reconstruct the signal; inverse of :func:`fourier_transform`."""
    if coeffs.table.group != table.group:
        raise GroupMismatchError("coefficients and table are over different groups")
    n = table.group.order
    out = np.zeros(n, dtype=np.complex128)
    for d, rep, mat in zip(table.dims, table.irreps, coeffs.mats):
        if mat.shape != (d, d):
            raise UsageError(f"coefficient block has shape {mat.shape}, expected {(d, d)}")
        out += d * np.einsum("ij,gji->g", mat, rep.mats)
    out /= n
    if np.abs(out.imag).max() < 1e-12:
        out = out.real
    return GroupSignal(group=table.group, weights=out)


def plancherel_residual(signal: GroupSignal, table: IrrepTable) -> float:
    """| sum |w|^2 - (1/|G|) sum_pi d_pi ||what(pi)||_F^2 |."""
    coeffs = fourier_transform(signal, table)
    lhs = float((np.abs(signal.weights) ** 2).sum())
    rhs = sum(
        d * float((np.abs(m) ** 2).sum()) for d, m in zip(table.dims, coeffs.mats)
    ) / table.group.order
    return abs(lhs - rhs)


def max_nontrivial_norm(
    coeffs: FourierCoefficients,
    table: IrrepTable,
    restrict_to: Optional[np.ndarray] = None,
) -> float:
    """Largest squared spectral norm over nontrivial coefficient blocks.

    ``restrict_to`` optionally limits the maximum to irreps with nonzero
    multiplicity in a supplied decomposition vector.
    """
    best = 0.0
    for i, mat in enumerate(coeffs.mats):
        if i == table.trivial_index:
            continue
        if restrict_to is not None and restrict_to[i] < 1:
            continue
        best = max(best, spectral_norm(mat) ** 2)
    return best


def per_irrep_norms(coeffs: FourierCoefficients, table: IrrepTable) -> dict[str, float]:
    labels = table.labels()
    return {labels[i]: spectral_norm(m) ** 2 for i, m in enumerate(coeffs.mats)}


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
    for h in s1.support:
        out += s1.weights[h] * s2.weights[group.mult[group.inv[h]]]
    return GroupSignal(group=group, weights=out)


def coefficients_to_json(coeffs: FourierCoefficients) -> dict:
    """JSON-ready mapping of irrep label to [[re, im], ...] row-major matrix."""
    labels = coeffs.table.labels()
    out = {}
    for label, mat in zip(labels, coeffs.mats):
        out[label] = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return out
