"""Monte Carlo risk of plain vs symmetrized least squares.

The domain is the group itself with the uniform measure and the
orthonormal indicator basis, the group acting on functions by left
translation.  The target is an invariant function of unit norm; the
plain least-squares coefficients are post-multiplied either by the full
group average (exact symmetrization) or by the averaging matrix of a
scheme certified at a requested shrink factor (weak symmetrization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SearchFailureError, SizeLimitError, UsageError
from ..groups import GROUP_TABLE_MAX_BYTES, Group, parse_group_spec
from ..reps import Representation, regular_rep, invariant_dimension
from ..schemes import (
    AveragingScheme,
    apply_scheme,
    certify_weak,
    random_scheme,
    required_sample_count,
    uniform_scheme,
)

_MAX_REDRAWS = 64
_MAX_SCHEME_TRIES = 256


@dataclass
class RegressionConfig:
    group_spec: str = "signflip:2"
    sigma: float = 1.0
    n_samples: int = 400
    trials: int = 2000
    eps: float = 0.0  # 0 -> uniform scheme for the weak estimator
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError("need at least one trial")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise UsageError(f"noise level must be finite and nonnegative, got {self.sigma!r}")
        if not self.eps >= 0:
            raise UsageError(f"eps must be nonnegative (0 for the uniform scheme), got {self.eps!r}")


@dataclass
class RegressionResult:
    config: RegressionConfig
    m: int
    m_triv: int
    risks: dict[str, float]
    stderrs: dict[str, float]
    scheme_eps: float
    scheme_size: int


def find_certified_scheme(
    group: Group, rep: Representation, eps: float, delta: float, seed
) -> AveragingScheme:
    """Random schemes at the sufficient draw count until one certifies eps."""
    n = required_sample_count(group.order, eps, delta)
    for attempt in range(_MAX_SCHEME_TRIES):
        scheme = random_scheme(group, n, np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        if certify_weak(scheme, rep) <= eps:
            return scheme
    raise SearchFailureError(f"no random scheme certified eps={eps} in {_MAX_SCHEME_TRIES} tries")


def regression_risk(cfg: RegressionConfig) -> RegressionResult:
    """Monte Carlo excess risks of the three estimators.

    Exact symmetrization multiplies coefficients by the averaging matrix
    of the uniform scheme (the invariant projector); the weak estimator
    uses a scheme certified at ``cfg.eps``.  Risks are mean squared
    coefficient-space distances to the target.
    """
    group = parse_group_spec(cfg.group_spec)
    # refused before any array is made: peak RSS growth read 40.3 bytes per trial and
    # element (counts, X^T y, coefficients, errors) and 32.0 per draw of one trial
    need = cfg.trials * group.order * 41 + cfg.n_samples * 32
    if need > GROUP_TABLE_MAX_BYTES:
        raise SizeLimitError(
            f"{cfg.trials:,} trials of {cfg.n_samples:,} draws on order {group.order:,} need about "
            f"{need:,} bytes (trials * order * 41 + draws * 32), above the cap of "
            f"{GROUP_TABLE_MAX_BYTES:,}")
    rep = regular_rep(group)
    m = rep.dim
    if cfg.n_samples < m:
        raise UsageError(f"need n >= {m} samples for a full-rank design, got {cfg.n_samples}")
    m_triv = invariant_dimension(rep)

    projector = apply_scheme(uniform_scheme(group), rep).real
    if cfg.eps <= 0.0:
        scheme = uniform_scheme(group)
    else:
        scheme = find_certified_scheme(group, rep, cfg.eps, 0.1, cfg.seed)
    scheme_eps = certify_weak(scheme, rep)
    averaging = apply_scheme(scheme, rep).real

    target = np.full(m, 1.0 / np.sqrt(m))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2,)))
    scale = np.sqrt(m)  # indicator basis normalized against the uniform measure
    # Trials draw from one stream in turn, so the draws stay in a per-trial
    # loop; each trial keeps only its per-element counts and X^T y, and the
    # estimators and their errors are computed for all trials at once.
    counts = np.empty((cfg.trials, m), dtype=np.int64)
    xty = np.empty((cfg.trials, m))
    for t in range(cfg.trials):
        for _ in range(_MAX_REDRAWS):
            draws = rng.integers(0, m, size=cfg.n_samples)
            counts[t] = np.bincount(draws, minlength=m)
            if counts[t].min() > 0:  # diagonal design: full rank iff all elements hit
                break
        else:
            raise UsageError("could not draw a full-rank design; increase n_samples")
        y = scale * target[draws] + (
            rng.normal(0.0, cfg.sigma, size=cfg.n_samples) if cfg.sigma > 0 else 0.0
        )
        xty[t] = scale * np.bincount(draws, weights=y, minlength=m)
    # normal equations per trial; X^T X = m * diag(counts)
    coef = xty / (m * counts)
    sq = {
        "erm": ((coef - target) ** 2).sum(axis=1),
        "exact": ((np.einsum("ij,tj->ti", projector, coef) - target) ** 2).sum(axis=1),
        "weak": ((np.einsum("ij,tj->ti", averaging, coef) - target) ** 2).sum(axis=1),
    }
    risks = {k: float(v.mean()) for k, v in sq.items()}
    stderrs = {k: float(v.std(ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0 for k, v in sq.items()}
    return RegressionResult(
        config=cfg,
        m=m,
        m_triv=m_triv,
        risks=risks,
        stderrs=stderrs,
        scheme_eps=float(scheme_eps),
        scheme_size=scheme.size,
    )


def regression_csv(result: RegressionResult) -> str:
    cfg = result.config
    lines = ["estimator,risk,stderr,m,m_triv,n,sigma,eps"]
    for name in ("erm", "exact", "weak"):
        lines.append(f"{name},{result.risks[name]:.17g},{result.stderrs[name]:.17g},{result.m},"
                     f"{result.m_triv},{cfg.n_samples},{cfg.sigma:.17g},{cfg.eps:.17g}")
    return "\n".join(lines) + "\n"
