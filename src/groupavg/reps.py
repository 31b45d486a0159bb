"""Unitary matrix representations of finite groups.

Dense complex matrices per element, plus characters, the invariant
projector, symmetric tensor powers, eigenvalue profiles over roots of
unity, and the polynomial-degree bound derived from them.

Representations built from permutations (permutation action, regular
action, symmetric powers of either) also carry integer permutation
arrays; validation and eigenvalue profiles then use exact integer
arithmetic with output identical to the dense path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .errors import (
    GroupMismatchError,
    NumericalConsistencyError,
    SizeLimitError,
    UsageError,
)
from .groups import Group, ConjugacyPartition, conjugacy_classes, symmetric_permutations

UNITARITY_TOL = 1e-9
HOMOMORPHISM_TOL = 1e-9
IDENTITY_TOL = 1e-9
EIG_SNAP_TOL = 1e-6
INT_ROUND_TOL = 1e-6
CHARACTER_CLASS_TOL = 1e-8
SYM_POWER_DIM_CAP = 2000
REGULAR_REP_MAX_ORDER = 4096

_HOM_EXHAUSTIVE_MAX_ORDER = 256
_HOM_FLOP_BUDGET = 4e9
_HOM_SAMPLE_SEED = 0xC0FFEE
_HOM_CHUNK_ELEMENTS = 1 << 14  # complex entries per batched homomorphism check


def _max_frobenius(diff: np.ndarray) -> float:
    """Largest Frobenius norm over the trailing matrix axes of ``diff``."""
    return float(np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1))).max())


class Representation:
    """Unitary representation stored as one dense complex matrix per element.

    ``mats`` has shape ``(order, dim, dim)``; ``mats[0]`` is pinned to the
    exact identity.  ``perms`` optionally holds the permutation realized
    by each matrix (``e_j -> e_{perms[g][j]}``) when the representation
    is a permutation action.
    """

    def __init__(self, group: Group, mats, name: str = "rep", perms=None, validate: bool = True):
        self.group = group
        m = np.ascontiguousarray(mats, dtype=np.complex128)
        if m.ndim != 3 or m.shape[0] != group.order or m.shape[1] != m.shape[2]:
            raise UsageError("mats must have shape (order, dim, dim)")
        eye = np.eye(m.shape[1], dtype=np.complex128)
        if np.linalg.norm(m[0] - eye) > IDENTITY_TOL:
            raise NumericalConsistencyError("identity element does not map to the identity matrix")
        m[0] = eye
        self.mats = m
        self.name = str(name)
        self.perms = None if perms is None else np.ascontiguousarray(perms, dtype=np.int64)
        if self.perms is not None and self.perms.shape != (group.order, m.shape[1]):
            raise UsageError("perms must have shape (order, dim)")
        self._partition: Optional[ConjugacyPartition] = None
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return int(self.mats.shape[1])

    def matrix(self, g: int) -> np.ndarray:
        return self.mats[g]

    def partition(self) -> ConjugacyPartition:
        if self._partition is None:
            self._partition = conjugacy_classes(self.group)
        return self._partition

    # -- validation --------------------------------------------------

    def unitarity_residual(self) -> float:
        gram = np.matmul(self.mats.conj().transpose(0, 2, 1), self.mats)
        gram -= np.eye(self.dim)
        return _max_frobenius(gram)

    def homomorphism_residual(self) -> float:
        """Max Frobenius deviation of mats[g*h] from mats[g] @ mats[h].

        Exhaustive over all pairs when affordable, seeded random pairs
        otherwise; exact integer check when perms are available.  Pairs
        are checked in batches of at most ``_HOM_CHUNK_ELEMENTS`` entries.
        """
        n, d, mult = self.group.order, self.dim, self.group.mult
        if self.perms is not None:
            step = max(1, _HOM_CHUNK_ELEMENTS // (n * d))
            for start in range(0, n, step):
                gs = slice(start, start + step)
                if not np.array_equal(self.perms[mult[gs]], self.perms[gs][:, self.perms]):
                    return float("inf")
            return 0.0
        exhaustive = n <= _HOM_EXHAUSTIVE_MAX_ORDER and (n * n * 2 * d**3) <= _HOM_FLOP_BUDGET
        worst = 0.0
        if exhaustive:
            step = max(1, _HOM_CHUNK_ELEMENTS // (n * d * d))
            for start in range(0, n, step):
                gs = slice(start, start + step)
                prods = np.tensordot(self.mats[gs], self.mats, axes=([2], [1]))  # (g, i, h, k)
                diff = self.mats[mult[gs]] - prods.transpose(0, 2, 1, 3)
                worst = max(worst, _max_frobenius(diff))
        else:
            rng = np.random.default_rng(_HOM_SAMPLE_SEED)
            count = max(64, 2 * n)
            gs = rng.integers(0, n, size=count)
            hs = rng.integers(0, n, size=count)
            step = max(1, _HOM_CHUNK_ELEMENTS // (d * d))
            for start in range(0, count, step):
                g, h = gs[start : start + step], hs[start : start + step]
                diff = self.mats[mult[g, h]] - np.matmul(self.mats[g], self.mats[h])
                worst = max(worst, _max_frobenius(diff))
        return worst

    def validate(self) -> None:
        if self.perms is not None:
            # spot-check that the dense matrices realize the permutations
            for g in (0, self.group.order - 1):
                expect = np.zeros((self.dim, self.dim))
                expect[self.perms[g], np.arange(self.dim)] = 1.0
                if np.abs(self.mats[g] - expect).max() > 0:
                    raise NumericalConsistencyError("dense matrices disagree with perm arrays")
        resid = self.unitarity_residual()
        if resid > UNITARITY_TOL:
            raise NumericalConsistencyError(f"unitarity residual {resid:.3e} exceeds tolerance")
        resid = self.homomorphism_residual()
        if resid > HOMOMORPHISM_TOL:
            raise NumericalConsistencyError(f"homomorphism residual {resid:.3e} exceeds tolerance")

    # -- characters ---------------------------------------------------

    def character(self, partition: Optional[ConjugacyPartition] = None) -> "CharacterVector":
        part = partition if partition is not None else self.partition()
        traces = np.einsum("gii->g", self.mats)
        values = np.array([traces[c[0]] for c in part.classes])
        spread = max(
            float(np.abs(traces[list(c)] - values[i]).max()) for i, c in enumerate(part.classes)
        )
        if spread > CHARACTER_CLASS_TOL:
            raise NumericalConsistencyError(f"character varies on a class by {spread:.3e}")
        return CharacterVector(group=self.group, partition=part, values=values)


@dataclass
class CharacterVector:
    """Trace of a representation per conjugacy class."""

    group: Group
    partition: ConjugacyPartition
    values: np.ndarray  # complex, one per class

    def at_elements(self) -> np.ndarray:
        """Expand to one value per element index."""
        return self.values[self.partition.class_of]

    def __add__(self, other: "CharacterVector") -> "CharacterVector":
        return CharacterVector(self.group, self.partition, self.values + other.values)

    def __mul__(self, other: "CharacterVector") -> "CharacterVector":
        return CharacterVector(self.group, self.partition, self.values * other.values)


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


def _mats_from_perms(perms: np.ndarray) -> np.ndarray:
    n, d = perms.shape
    mats = np.zeros((n, d, d), dtype=np.complex128)
    rows = perms.reshape(-1)
    cols = np.tile(np.arange(d), n)
    mats[np.repeat(np.arange(n), d), rows, cols] = 1.0
    return mats


def permutation_rep(group: Group) -> Representation:
    """Natural coordinate-permuting action of a symmetric-family group."""
    if group.family != "symmetric":
        raise UsageError("permutation representation requires the symmetric family")
    d = group.params[0]
    perms = np.array(symmetric_permutations(d), dtype=np.int64)
    return Representation(group, _mats_from_perms(perms), name=f"perm{d}", perms=perms)


def sign_action_rep(group: Group, d: Optional[int] = None) -> Representation:
    """Diagonal +-1 action of a sign-flip group on coordinates."""
    if group.family != "sign_flip":
        raise UsageError("sign action requires the sign_flip family")
    dim = group.params[0]
    if d is not None and int(d) != dim:
        raise UsageError(f"requested dimension {d} but group has d={dim}")
    x = np.arange(group.order)
    shifts = dim - 1 - np.arange(dim)
    bits = (x[:, None] >> shifts[None, :]) & 1
    diag = 1.0 - 2.0 * bits
    mats = np.zeros((group.order, dim, dim), dtype=np.complex128)
    mats[:, np.arange(dim), np.arange(dim)] = diag
    return Representation(group, mats, name=f"sign{dim}")


def regular_rep(group: Group) -> Representation:
    """Left-translation action on functions over the group itself.

    Memory scales as ``order**3``; the cap admits orders where that is
    already hundreds of megabytes.
    """
    if group.order > REGULAR_REP_MAX_ORDER:
        raise SizeLimitError(
            f"regular representation capped at order {REGULAR_REP_MAX_ORDER}, got {group.order}"
        )
    perms = group.mult.copy()  # e_h -> e_{g h}
    return Representation(group, _mats_from_perms(perms), name="regular", perms=perms)


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
    perms = None
    if r1.perms is not None and r2.perms is not None:
        perms = np.concatenate([r1.perms, r2.perms + d1], axis=1)
    return Representation(r1.group, mats, name=f"({r1.name})+({r2.name})", perms=perms)


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    if r1.group != r2.group:
        raise GroupMismatchError("tensor product requires the same group")
    mats = np.einsum("gij,gkl->gikjl", r1.mats, r2.mats).reshape(
        r1.group.order, r1.dim * r2.dim, r1.dim * r2.dim
    )
    perms = None
    if r1.perms is not None and r2.perms is not None:
        perms = (r1.perms[:, :, None] * r2.dim + r2.perms[:, None, :]).reshape(
            r1.group.order, r1.dim * r2.dim
        )
    return Representation(r1.group, mats, name=f"({r1.name})x({r2.name})", perms=perms)


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


def _sym_power_perms(base_perms: np.ndarray, k: int) -> np.ndarray:
    """Permutation of degree-k monomials induced by coordinate permutations."""
    n, d = base_perms.shape
    monos = list(combinations_with_replacement(range(d), k))
    index = {m: i for i, m in enumerate(monos)}
    out = np.empty((n, len(monos)), dtype=np.int64)
    for g in range(n):
        p = base_perms[g]
        for j, m in enumerate(monos):
            out[g, j] = index[tuple(sorted(int(p[v]) for v in m))]
    return out


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


def sym_power_rep(rep: Representation, k: int, dim_cap: int = SYM_POWER_DIM_CAP) -> Representation:
    """Induced representation on degree-k products of base coordinates.

    The monomial basis carries multiplicity weights so the result is
    unitary.  Raises a size-limit error pointing at the character-only
    path when the monomial count exceeds ``dim_cap``.
    """
    if k < 0:
        raise UsageError("symmetric power degree must be >= 0")
    target_dim = sym_power_dim(rep.dim, k)
    if target_dim > dim_cap:
        raise SizeLimitError(
            f"sym power dim {target_dim} exceeds cap {dim_cap}; "
            "use sym_power_character for character-only computations"
        )
    name = f"sym{k}({rep.name})"
    if k == 0:
        return Representation(
            rep.group, np.ones((rep.group.order, 1, 1), dtype=np.complex128), name=name
        )
    if k == 1:
        return Representation(rep.group, rep.mats.copy(), name=name, perms=rep.perms)
    if rep.perms is not None:
        perms = _sym_power_perms(rep.perms, k)
        return Representation(rep.group, _mats_from_perms(perms), name=name, perms=perms)
    return Representation(rep.group, _sym_power_dense(rep, k), name=name)


def power_class_map(group: Group, partition: ConjugacyPartition, max_power: int) -> np.ndarray:
    """``out[c, j]`` = class index of ``rep_c ** j`` for j in 0..max_power.

    Well-defined on classes since conjugation commutes with powers.
    """
    r = len(partition)
    out = np.empty((r, max_power + 1), dtype=np.int64)
    for c, g in enumerate(partition.representatives):
        x = 0
        for j in range(max_power + 1):
            out[c, j] = partition.class_of[x]
            x = int(group.mult[x, g])
    return out


def sym_power_character(chi: CharacterVector, k: int) -> CharacterVector:
    """Character of the degree-k symmetric power via the power-sum recursion.

    chi_k(g) = (1/k) * sum_{j=1..k} chi(g^j) * chi_{k-j}(g), chi_0 = 1.
    Matches the trace of the explicit symmetric power whenever that is
    buildable.
    """
    if k < 0:
        raise UsageError("symmetric power degree must be >= 0")
    part = chi.partition
    pcm = power_class_map(chi.group, part, k)
    r = len(part)
    table = np.zeros((k + 1, r), dtype=np.complex128)
    table[0] = 1.0
    for kk in range(1, k + 1):
        acc = np.zeros(r, dtype=np.complex128)
        for j in range(1, kk + 1):
            acc += chi.values[pcm[np.arange(r), j]] * table[kk - j]
        table[kk] = acc / kk
    return CharacterVector(group=chi.group, partition=part, values=table[k])


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


def _reduced(p: int, q: int) -> tuple[int, int]:
    p %= q
    g = math.gcd(p, q)
    return (p // g, q // g)


def _perm_cycle_lengths(perm: np.ndarray) -> list[int]:
    n = perm.shape[0]
    seen = np.zeros(n, dtype=bool)
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = int(perm[x])
            length += 1
        lengths.append(length)
    return lengths


def eigen_profile(rep: Representation) -> EigenProfile:
    """Eigenvalues of every element matrix, snapped to roots of unity.

    Eigenvalues of ``mats[g]`` are snapped to ``exp(2*pi*1j*p/ord(g))``
    (tolerance 1e-6), deduplicated across the group as reduced fractions,
    and the per-root maximum multiplicity is recorded.
    """
    counts: dict[tuple[int, int], int] = {}
    if rep.perms is not None:
        for g in range(rep.group.order):
            local: dict[tuple[int, int], int] = {}
            for length in _perm_cycle_lengths(rep.perms[g]):
                for p in range(length):
                    key = _reduced(p, length)
                    local[key] = local.get(key, 0) + 1
            for key, c in local.items():
                counts[key] = max(counts.get(key, 0), c)
    else:
        for g in range(rep.group.order):
            q = rep.group.element_order(g)
            eigs = np.linalg.eigvals(rep.mats[g])
            ps = np.mod(np.rint(np.angle(eigs) / (2 * np.pi) * q).astype(np.int64), q)
            snapped = np.exp(2j * np.pi * ps / q)
            bad = np.abs(eigs - snapped).max()
            if bad > EIG_SNAP_TOL:
                raise NumericalConsistencyError(
                    f"eigenvalue of element {g} is {bad:.3e} from the nearest order-{q} root"
                )
            local = {}
            for p in ps:
                key = _reduced(int(p), q)
                local[key] = local.get(key, 0) + 1
            for key, c in local.items():
                counts[key] = max(counts.get(key, 0), c)
    fracs = sorted(counts, key=lambda pq: (pq[1], pq[0]))
    roots = np.array([np.exp(2j * np.pi * p / q) for p, q in fracs])
    mult = np.array([counts[f] for f in fracs], dtype=np.int64)
    return EigenProfile(fractions=tuple(fracs), roots=roots, max_mult=mult)


def k_bound(rep: Representation) -> int:
    """Polynomial-feature degree bound min{order, sum of peak multiplicities - 1}."""
    profile = eigen_profile(rep)
    return int(min(rep.group.order, int(profile.max_mult.sum()) - 1))


def regular_k_bound(group: Group) -> int:
    """Degree bound of the regular action, from element orders only.

    Left translation by g decomposes into |G|/ord(g) cycles of length
    ord(g), so its eigenvalues are the ord(g)-th roots of unity with
    multiplicity |G|/ord(g) each; no matrices are materialized.
    """
    orders = sorted({group.element_order(g) for g in range(group.order)})
    divisors: dict[int, int] = {}
    for q in orders:
        for dv in range(1, q + 1):
            if q % dv == 0:
                best = divisors.get(dv)
                mult = group.order // q
                if best is None or mult > best:
                    divisors[dv] = mult
    euler = lambda n: sum(1 for t in range(1, n + 1) if math.gcd(t, n) == 1)
    total = sum(euler(dv) * m for dv, m in divisors.items())
    return int(min(group.order, total - 1))


# -- export ------------------------------------------------------------------


def rep_to_text(rep: Representation) -> str:
    """Text export: header then one row-major block of a+bi entries per element."""
    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    lines = [f"rep {rep.name} {rep.dim} {rep.group.order}"]
    for g in range(rep.group.order):
        for row in rep.mats[g]:
            lines.append(" ".join(fmt(z) for z in row))
    return "\n".join(lines) + "\n"
