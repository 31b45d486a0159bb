"""Averaging schemes: construction, certification, and size minimization.

A scheme is a sparse real weighting on group elements with unit sum
(negative weights allowed).  Certification measures how strongly the
induced averaging operator shrinks the non-symmetric component of a
function class, either from a concrete representation (projector path)
or from Fourier coefficient norms over an irrep table (fourier path).
The Fourier path's strong certificate takes the differences
``pi(g) @ B - B`` of a whole table stack at once and runs an SVD only where
a difference's Frobenius norm can beat the running maximum.
The projector path's operator, projector and per-element differences come
from :mod:`groupavg.reps`, which alone reads a signed-permutation form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import GroupMismatchError, NumericalConsistencyError, UsageError, check_bytes
from .fourier import (
    _PRUNE_MARGIN,
    SUPPORT_EPS,
    FourierCoefficients,
    fourier_transform,
    max_deviation,
    max_nontrivial_norm,
    per_irrep_norms,
    spectral_norm,
)
from .groups import Group, sample_uniform
from .irreps import IrrepTable
from .reps import Representation, _weighted_sum, invariant_dimension, invariant_projector

WEIGHT_SUM_TOL = 1e-12
SANDWICH_SLACK = 1e-9
# bound on a scheme's l1 norm: below it every certificate (at most 2 * norm**2)
# and every squared Frobenius bound the certificates read stays finite
WEIGHT_L1_MAX = 2.0**500
# entries of pi(g) @ B - B the Fourier strong certificate holds at once: 64 KiB of
# complex, small beside the irrep table it reads
_DEVIATION_CHUNK_ENTRIES = 1 << 12


@dataclass
class AveragingScheme:
    """Sparse unit-sum weighting on group elements.

    ``support`` holds sorted distinct element indices and ``weights`` the
    matching values; entries below the support threshold are dropped.
    The weights' l1 norm must be finite and at most ``WEIGHT_L1_MAX``, and
    the weight sum 1 within 1e-12.
    """

    group: Group
    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if support.shape != weights.shape or support.ndim != 1:
            raise UsageError("support and weights must be matching 1-d arrays")
        # the l1 norm in units of WEIGHT_L1_MAX: one reduction, which cannot
        # overflow; a NaN or inf weight fails the test too
        norm = float(np.abs(weights / WEIGHT_L1_MAX).sum())
        if not norm <= 1.0:
            raise UsageError(f"weights must be finite with l1 norm at most 2**500, "
                             f"got {norm * WEIGHT_L1_MAX!r}")
        if support.size and (support.min() < 0 or support.max() >= self.group.order):
            raise UsageError("support index out of range")
        # merge duplicates in input order from 0.0, sort, drop numerically-zero weights
        merged = np.bincount(support, weights=weights, minlength=self.group.order)
        self.support = np.flatnonzero(np.abs(merged) > SUPPORT_EPS)
        self.weights = merged[self.support]
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise UsageError(f"weights sum to {total!r}, expected 1")

    @property
    def size(self) -> int:
        return int(self.support.size)

    def sparse(self) -> tuple[np.ndarray, np.ndarray]:
        """``(support, weights)``, the form :func:`fourier_transform` reads."""
        return self.support, self.weights


@dataclass
class CertificationReport:
    """Certified shrink factors for a scheme on a function class.

    ``eps_weak`` bounds the average-over-group shrink, ``eps_strong`` the
    per-element worst case; the sandwich eps_weak <= eps_strong <=
    4*eps_weak holds up to numerical slack.  ``degenerate`` marks classes
    with no non-symmetric component (both values vacuously 0).
    """

    eps_weak: float
    eps_strong: float
    method: str
    per_irrep_norms: Optional[dict[str, float]] = None
    degenerate: bool = False

    def __post_init__(self):
        if self.eps_weak > self.eps_strong + SANDWICH_SLACK:
            raise NumericalConsistencyError(
                f"eps_weak {self.eps_weak} exceeds eps_strong {self.eps_strong}"
            )
        if self.eps_strong > 4.0 * self.eps_weak + SANDWICH_SLACK:
            raise NumericalConsistencyError(
                f"eps_strong {self.eps_strong} exceeds 4 * eps_weak {self.eps_weak}"
            )

    def to_json(self) -> dict:
        return {
            "eps_weak": float(self.eps_weak),
            "eps_strong": float(self.eps_strong),
            "method": self.method,
            "per_irrep_norms": self.per_irrep_norms,
            "degenerate": self.degenerate,
            "tolerances": {"sandwich_slack": SANDWICH_SLACK, "weight_sum": WEIGHT_SUM_TOL},
        }


# -- constructors ----------------------------------------------------------


def uniform_scheme(group: Group) -> AveragingScheme:
    n = group.order
    return AveragingScheme(group, np.arange(n), np.full(n, 1.0 / n))


def delta_scheme(group: Group, g: int) -> AveragingScheme:
    if not 0 <= g < group.order:
        raise UsageError(f"element index {g} out of range")
    return AveragingScheme(group, np.array([g]), np.array([1.0]))


def random_scheme(group: Group, n: int, seed) -> AveragingScheme:
    """Empirical measure of n i.i.d. uniform draws; collisions merge."""
    counts = np.bincount(sample_uniform(group, n, seed), minlength=group.order)
    support = np.flatnonzero(counts)
    return AveragingScheme(group, support, counts[support] / float(n))


SAMPLE_LAW_SCALE = 2.67
SAMPLE_LAW_OFFSET = 0.7


def required_sample_count(order: int, eps: float, delta: float) -> int:
    """Draw count sufficient for a random scheme to certify eps w.p. 1 - delta.

    ceil(2.67 * (ln(order) + ln(1/delta) + 0.7) / eps), natural logs; the
    constant comes from the exp(-3 n eps / 8) tail of the matrix
    concentration bound behind the construction.
    """
    if not 0.0 < eps < 1.0:
        raise UsageError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise UsageError(f"delta must lie in (0, 1), got {delta}")
    if order < 1:
        raise UsageError("order must be positive")
    count = SAMPLE_LAW_SCALE * (math.log(order) + math.log(1.0 / delta) + SAMPLE_LAW_OFFSET) / eps
    if not count < 2**63:  # inf included
        raise UsageError(f"eps {eps} is so small that the draw count passes 2**63")
    return int(math.ceil(count))


# -- certification ----------------------------------------------------------


def apply_scheme(scheme: AveragingScheme, rep: Representation) -> np.ndarray:
    """Matrix of the averaging operator on the representation space, the
    weighted sum of the support's matrices (see :func:`reps._weighted_sum`)."""
    if scheme.group != rep.group:
        raise GroupMismatchError("scheme and representation are over different groups")
    return _weighted_sum(rep, scheme.support, scheme.weights)


def certify_weak(scheme: AveragingScheme, rep: Representation) -> float:
    """Tight average-case shrink factor of the scheme on this class.

    Squared spectral norm of the averaging operator compressed to the
    orthogonal complement of the fixed subspace; 0 when that complement
    is trivial (degenerate class).
    """
    if invariant_dimension(rep) == rep.dim:
        return 0.0
    proj = invariant_projector(rep)
    comp = np.eye(rep.dim) - proj
    return spectral_norm(comp @ apply_scheme(scheme, rep) @ comp) ** 2


def certify_strong(scheme: AveragingScheme, rep: Representation) -> float:
    """Tight worst-case-over-elements shrink factor on this class.

    Half the squared spectral norm of (rho(g) - I) M (I - Pi), maximized
    over g.
    """
    if invariant_dimension(rep) == rep.dim:
        return 0.0
    proj = invariant_projector(rep)
    averaged = apply_scheme(scheme, rep) @ (np.eye(rep.dim) - proj)
    return 0.5 * max_deviation(rep, averaged) ** 2


def _fourier_eps_strong(
    coeffs: FourierCoefficients, table: IrrepTable, present: np.ndarray, weight_norm: float
) -> float:
    """Strong certificate over the irreps the boolean mask ``present`` keeps:
    half the squared maximum over g and pi of ||pi(g) @ B - B||, B = what(pi)^dagger.

    One pass per table stack, ``_DEVIATION_CHUNK_ENTRIES`` entries of
    differences at a time, formed by the complex matmul that
    :func:`reps._deviations` runs on a dense representation, so each has its
    bits; on a +-1 irrep, which the built-in tables hold only at dimension 1,
    its signed row moves give the same real parts.  Each difference's
    Frobenius norm comes from one reduction (``np.hypot`` of the parts on a
    1x1 stack, the bits of :func:`spectral_norm`), and ``spectral_norm``
    runs in decreasing-bound order with the running maximum carried across
    irreps and stacks.  Once that maximum is above the rounding floor
    ``weight_norm * _PRUNE_MARGIN`` (``weight_norm`` is the scheme's l1
    norm), an element whose bound, widened by ``_PRUNE_MARGIN`` on larger
    stacks as in :func:`max_nontrivial_norm`, is at most the maximum is
    skipped: sigma_max <= ||.||_F, so it could not raise the maximum, and
    the result has the bits of one ``spectral_norm`` per element and irrep.
    A scheme whose differences are all rounding noise, such as the uniform
    one, stays below the floor and takes every call.
    """
    worst, floor, first = 0.0, weight_norm * _PRUNE_MARGIN, 0
    for stack, blocks in zip(table.stacks, coeffs.stacks):
        d = stack.shape[2]
        kept = np.flatnonzero(present[first : first + len(stack)])
        first += len(stack)
        widen = 1.0 if d == 1 else 1.0 + _PRUNE_MARGIN  # a 1x1 bound is exact
        step = max(1, _DEVIATION_CHUNK_ENTRIES // stack[0].size)
        for start in range(0, len(kept), step):
            pick = kept[start : start + step]
            adjoint = blocks[pick].conj().transpose(0, 2, 1)[:, None]  # the operator per irrep
            diffs = np.matmul(stack[pick], adjoint)
            diffs -= adjoint
            if d == 1:
                bounds = np.hypot(diffs.real, diffs.imag).ravel()
                items = diffs.ravel()  # each entry goes as a numpy scalar
            else:
                flat = diffs.reshape(-1, d * d)
                bounds = np.sqrt(np.vecdot(flat, flat).real)
                items = diffs.reshape(-1, d, d)
            if worst > floor:
                # sort only what can still beat the maximum: on an abelian
                # table that is almost nothing, and sorting every bound
                # would be most of the certificate's time
                keep = np.flatnonzero(bounds * widen > worst)
                bounds, items = bounds[keep], items[keep]
            order = np.argsort(bounds)[::-1]
            for i, bound in zip(order.tolist(), bounds[order].tolist()):
                if worst > floor and bound * widen <= worst:
                    break
                worst = max(worst, spectral_norm(items[i]))
    return 0.5 * worst**2


def certify(
    scheme: AveragingScheme,
    target: Union[Representation, IrrepTable],
    multiplicities: Optional[np.ndarray] = None,
) -> CertificationReport:
    """Full certification report via the projector or fourier path.

    A Representation target uses the projector path; an IrrepTable target
    uses Fourier coefficient norms, optionally restricted to irreps with
    nonzero entries of ``multiplicities`` (all irreps by default, which
    matches the regular action).
    """
    if isinstance(target, Representation):
        weak = certify_weak(scheme, target)
        degenerate = invariant_dimension(target) == target.dim
        strong = certify_strong(scheme, target)
        return CertificationReport(
            eps_weak=weak, eps_strong=strong, method="projector_path", degenerate=degenerate
        )
    if isinstance(target, IrrepTable):
        coeffs = fourier_transform(scheme, target)
        weak = max_nontrivial_norm(coeffs, restrict_to=multiplicities)
        # the nontrivial irreps the target holds, as max_nontrivial_norm keeps them
        present = np.ones(len(target), bool) if multiplicities is None else ~(np.asarray(multiplicities) < 1)
        present[target.trivial_index] = False
        return CertificationReport(
            eps_weak=weak,
            eps_strong=_fourier_eps_strong(
                coeffs, target, present, float(np.abs(scheme.weights).sum())
            ),
            method="fourier_path",
            per_irrep_norms=per_irrep_norms(coeffs),
            degenerate=not present.any(),
        )
    raise UsageError("certification target must be a Representation or IrrepTable")


def certify_weak_target(
    scheme: AveragingScheme,
    target: Union[Representation, IrrepTable],
    multiplicities: Optional[np.ndarray] = None,
    stop_above: float = math.inf,
) -> float:
    """Weak certificate only (cheaper than the full report).

    On an irrep table the certificate may stop once it exceeds
    ``stop_above``, as :func:`max_nontrivial_norm` documents: the value
    is exact when the certificate is at most ``stop_above`` and otherwise
    a lower bound above it.  The projector path is always exact.
    """
    if isinstance(target, Representation):
        return certify_weak(scheme, target)
    if isinstance(target, IrrepTable):
        coeffs = fourier_transform(scheme, target)
        return max_nontrivial_norm(coeffs, restrict_to=multiplicities, stop_above=stop_above)
    raise UsageError("certification target must be a Representation or IrrepTable")


# -- minimization ------------------------------------------------------------


@dataclass
class MinimizeResult:
    """Outcome of the scheme-size search."""

    scheme: AveragingScheme
    eps: float
    status: str  # "ok" | "search_failure"
    eps_target: float
    trace: list[dict] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.status == "ok"

    @property
    def size(self) -> int:
        return self.scheme.size


def _candidate_key(eps: float, scheme: AveragingScheme):
    return (scheme.size, eps, tuple(scheme.support.tolist()))


def check_trial_budget(order: int, trials: int) -> None:
    """Refuse ``trials`` random schemes held at once, as a search holds one draw
    count's and ``lowerbound`` its supports, when they could pass
    ``MEMORY_CAP_BYTES``.  Tracemalloc read 836 bytes per search trial
    plus 16 per support element (fewer than ``order``), and 920 per
    ``lowerbound`` trial plus 32 per element (at most ``order / 2``)."""
    check_bytes(trials * (920 + 16 * order), f"{trials:,} trial schemes on order {order:,} need",
                "trials * (920 + 16 * order)")


def minimize_scheme(
    group: Group,
    target: Union[Representation, IrrepTable],
    eps_target: float,
    trial_budget: int = 40,
    seed: int = 0,
    swap_budget: int = 200,
    multiplicities: Optional[np.ndarray] = None,
) -> MinimizeResult:
    """Heuristic search for a small scheme certifying at most ``eps_target``.

    Binary search over the draw count with ``trial_budget`` random
    schemes per count, followed by local support swaps that keep the
    certificate from increasing.  The uniform scheme is always a
    feasible fallback, so the search-failure status is reserved for
    degenerate call patterns.  Global optimality is not claimed.

    Deterministic given ``seed``: ties break toward lower certified eps,
    then lexicographically smaller support.

    Certificates that cannot change the outcome may stop early (the
    ``stop_above`` of :func:`certify_weak_target`), yet every reported
    value is exact.  A trial stops above ``max(eps_target, m)``, with m
    the least certificate of the earlier trials at its draw count, so a
    stopped trial is infeasible and above m: every feasible trial and
    each count's ``best_eps`` are exact.  A swap stops above the current
    ``best_eps``, which it must reach to be accepted, so every accepted
    swap is exact.
    """
    if not 0.0 < eps_target < 1.0:
        raise UsageError(f"eps_target must lie in (0, 1), got {eps_target}")
    if trial_budget < 0 or swap_budget < 0:
        raise UsageError("budgets must be nonnegative")
    check_trial_budget(group.order, trial_budget)

    def cert(s: AveragingScheme, stop_above: float = math.inf) -> float:
        return certify_weak_target(s, target, multiplicities, stop_above=stop_above)

    trace: list[dict] = []
    best_scheme = uniform_scheme(group)
    best_eps = cert(best_scheme)
    best_feasible = best_eps <= eps_target
    trace.append(
        {"phase": "fallback", "size": best_scheme.size, "eps": best_eps, "feasible": best_feasible}
    )

    def trials_at(n: int):
        seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(n, t)) for t in range(trial_budget)]
        schemes = [random_scheme(group, n, s) for s in seeds]
        results, least = [], math.inf
        for s in schemes:
            e = cert(s, stop_above=max(eps_target, least))
            least = min(least, e)
            results.append((s, e))
        return results

    lo, hi = 1, group.order
    while lo < hi:
        mid = (lo + hi) // 2
        results = trials_at(mid)
        feasible = [(s, e) for s, e in results if e <= eps_target]
        trace.append(
            {
                "phase": "search",
                "draws": mid,
                "trials": len(results),
                "feasible_trials": len(feasible),
                "best_eps": min((e for _, e in results), default=None),
            }
        )
        if feasible:
            cand_scheme, cand_eps = min(feasible, key=lambda se: _candidate_key(se[1], se[0]))
            if not best_feasible or _candidate_key(cand_eps, cand_scheme) < _candidate_key(
                best_eps, best_scheme
            ):
                best_scheme, best_eps, best_feasible = cand_scheme, cand_eps, True
            hi = mid
        else:
            lo = mid + 1

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xABCD,)))
    accepted = 0
    for _ in range(swap_budget):
        if best_scheme.size <= 1:
            break
        pos = int(rng.integers(0, best_scheme.size))
        replacement = int(rng.integers(0, group.order))
        support = best_scheme.support.copy()
        if replacement == support[pos]:
            continue
        support[pos] = replacement
        try:
            candidate = AveragingScheme(group, support, best_scheme.weights.copy())
        except UsageError:
            continue
        cand_eps = cert(candidate, stop_above=best_eps)
        if cand_eps <= best_eps and (not best_feasible or cand_eps <= eps_target):
            if _candidate_key(cand_eps, candidate) < _candidate_key(best_eps, best_scheme):
                best_scheme, best_eps = candidate, cand_eps
                best_feasible = best_feasible or cand_eps <= eps_target
                accepted += 1
    trace.append({"phase": "swaps", "accepted": accepted, "size": best_scheme.size, "eps": best_eps})

    status = "ok" if best_feasible else "search_failure"
    return MinimizeResult(
        scheme=best_scheme, eps=best_eps, status=status, eps_target=eps_target, trace=trace
    )


# -- serialization ------------------------------------------------------------


def scheme_to_json(scheme: AveragingScheme) -> dict:
    from .groups import group_spec_string

    return {
        "group": {
            "spec": group_spec_string(scheme.group),
            "family": scheme.group.family,
            "order": scheme.group.order,
        },
        "support": [int(g) for g in scheme.support],
        "weights": [float(w) for w in scheme.weights],
        "size": scheme.size,
    }


def scheme_from_json(data: dict, group: Optional[Group] = None) -> AveragingScheme:
    from .groups import parse_group_spec

    if group is None:
        group = parse_group_spec(data["group"]["spec"])
    if group.order != data["group"]["order"]:
        raise UsageError("scheme JSON order does not match the supplied group")
    support, weights = data["support"], data["weights"]
    if not isinstance(support, list) or any(type(g) is not int for g in support):
        raise UsageError("scheme support must be a list of JSON integers")
    if not isinstance(weights, list) or any(type(w) not in (int, float) for w in weights):
        raise UsageError("scheme weights must be a list of JSON numbers")
    return AveragingScheme(group, np.array(support, dtype=np.int64), np.array(weights, dtype=np.float64))
