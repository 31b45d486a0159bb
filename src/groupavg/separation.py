"""Exact-vs-approximate symmetry cost machinery.

Feasibility of exact enforcement on a restricted support, coverage of
irreps by symmetric powers up to the degree bound, the generating-set
lower bound on sign-flip groups, and cost tables contrasting exact and
approximate enforcement across a family of growing groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import UsageError
from .fourier import fourier_transform, max_deviation, max_nontrivial_norm
from .groups import closure, group_spec_string, parse_group_spec, sign_flip_group
from .irreps import IrrepTable, _as_character, decompose, irreps_of
from .reps import (
    CharacterVector,
    Representation,
    regular_k_bound,
    sym_power_characters,
)
from .schemes import AveragingScheme, apply_scheme, minimize_scheme

FEASIBILITY_RCOND = 1e-9


@dataclass
class SeparationRow:
    """One family member in the exact-vs-approximate cost table."""

    family: str
    order: int
    k_bound: int
    exact_cost: int
    approx_cost: int
    eps: float
    seed: int
    status: str


@dataclass
class FeasibilityResult:
    feasible: bool
    witness: Optional[np.ndarray]  # weights aligned with the support when feasible


def sym_power_coverage(
    rho: Union[Representation, CharacterVector], max_degree: int, table: IrrepTable
) -> np.ndarray:
    """Which irreps appear in some symmetric power of degree 0..max_degree.

    One walk of the character recursion, each degree decomposed in full,
    stopping at the first degree by which every irrep has appeared; for a
    faithful base class every entry is True once max_degree reaches the
    degree bound.
    """
    present = np.zeros(len(table), dtype=bool)
    for chi_k in sym_power_characters(_as_character(rho, table), max_degree):
        present |= decompose(chi_k, table) >= 1
        if present.all():
            break
    return present


def exact_violation(scheme: AveragingScheme, rep: Representation) -> float:
    """Worst-case deviation of averaged outputs from exact invariance.

    max over g of the spectral norm of (rho(g) - I) M; zero exactly when
    every averaged function is invariant.
    """
    return max_deviation(rep, apply_scheme(scheme, rep))


def exact_feasible_on_support(support: Iterable[int], table: IrrepTable) -> FeasibilityResult:
    """Can weights on this support make every averaged function invariant?

    Solves the real linear system {sum_g w_g pi(g)^dagger = 0 for every
    nontrivial irrep, sum_g w_g = 1} by SVD rank analysis (threshold
    1e-9 * sigma_max).  With all irreps in the table this is feasible
    only when the support is the whole group, with the uniform witness.
    """
    sup = sorted(set(int(g) for g in support))
    if not sup:
        raise UsageError("support must be nonempty")
    # rows: the real, then the imaginary parts of every pi(g)^dagger, a column per support
    # element; the trivial irrep gives the unit sum (all ones) and a zero row
    adjoint = table.adjoint_rows[sup].T
    mat = np.concatenate([adjoint.real, adjoint.imag])
    rhs = np.zeros(mat.shape[0])
    rhs[0] = 1.0
    sv = np.linalg.svd(mat, compute_uv=False)
    sv_aug = np.linalg.svd(np.column_stack([mat, rhs]), compute_uv=False)
    cutoff = FEASIBILITY_RCOND * (sv_aug[0] if sv_aug.size else 1.0)
    rank = int((sv > cutoff).sum())
    rank_aug = int((sv_aug > cutoff).sum())
    if rank_aug > rank:
        return FeasibilityResult(feasible=False, witness=None)
    witness = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    return FeasibilityResult(feasible=True, witness=witness)


def sign_flip_generation_report(
    d: int, supports: Sequence[Sequence[int]], weights: Sequence[Sequence[float]]
) -> list[dict]:
    """Generation status and weak certificate of each sign-flip scheme
    ``(supports[i], weights[i])``, over one build of the group and its table.

    ``generates`` is whether the support's closure is the whole group;
    the certificate is the maximum squared magnitude of the transform
    over nontrivial characters, which (all characters being present in
    the translation action) equals the weak certificate on the regular
    representation.  Non-generating supports always certify >= 1.
    """
    group = sign_flip_group(d)
    schemes = [AveragingScheme(group, s, w) for s, w in zip(supports, weights, strict=True)]
    table = irreps_of(group)
    return [
        {
            "d": int(d),
            "generates": len(closure(group, scheme.support.tolist())) == group.order,
            "eps_weak_on_regular": float(max_nontrivial_norm(fourier_transform(scheme, table))),
            "support_size": scheme.size,
        }
        for scheme in schemes
    ]


def separation_table(
    family: str,
    params: Sequence[int],
    eps: float,
    trial_budget: int = 40,
    seed: int = 0,
) -> list[SeparationRow]:
    """Exact vs approximate enforcement cost across a growing family.

    Per member: degree bound of the regular action (from element orders),
    exact cost = group order, approximate cost = size of the smallest
    scheme found certifying ``eps`` against the full irrep table (the
    regular action's spectrum).  Search failures are flagged per row.
    """
    rows = []
    for idx, p in enumerate(params):
        group = parse_group_spec(f"{family}:{p}")
        table = irreps_of(group)
        row_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)).generate_state(1)[0])
        result = minimize_scheme(table, eps, trial_budget=trial_budget, seed=row_seed)
        rows.append(
            SeparationRow(
                family=group_spec_string(group),
                order=group.order,
                k_bound=regular_k_bound(group),
                exact_cost=group.order,
                approx_cost=result.size,
                eps=float(eps),
                seed=row_seed,
                status=result.status if result.feasible else "incomplete",
            )
        )
    return rows


def separation_csv(rows: Iterable[SeparationRow]) -> str:
    lines = ["family,order,K,exact_cost,approx_cost,eps,seed,status"]
    for r in rows:
        lines.append(
            f"{r.family},{r.order},{r.k_bound},{r.exact_cost},{r.approx_cost},"
            f"{r.eps:.17g},{r.seed},{r.status}"
        )
    return "\n".join(lines) + "\n"
