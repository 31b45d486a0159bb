"""Acceptance suite: one test per criterion, one PASS line printed each.

Stated tolerances are pinned in the assertions; run with ``pytest -s`` to
see the PASS lines as they complete.  The slow entries (separation curve,
MLP study) stay within their documented runtime budgets on a laptop CPU.
"""

from itertools import combinations

import numpy as np
import pytest

from groupavg import (
    AveragingScheme,
    GroupSignal,
    certify_strong,
    certify_weak,
    closure,
    decompose,
    exact_feasible_on_support,
    fourier_transform,
    inverse_fourier,
    irreps_of,
    k_bound,
    max_nontrivial_norm,
    parse_group_spec,
    permutation_rep,
    plancherel_residual,
    random_scheme,
    regular_rep,
    required_sample_count,
    separation_table,
    sign_action_rep,
    sign_flip_generation_report,
    sym_power_coverage,
)
from groupavg.experiments.mlp import MlpConfig, mlp_experiment
from groupavg.experiments.regression import RegressionConfig, regression_risk
from groupavg.experiments.rotation import RotationDemoConfig, rotation_averaging_demo

from oracles import scheme_signal

SMALL_CATALOG = (
    ["cyclic:%d" % n for n in range(1, 13)]
    + ["signflip:%d" % d for d in (1, 2, 3)]
    + ["dihedral:%d" % n for n in (3, 4, 5, 6)]
    + ["symmetric:%d" % d for d in (1, 2, 3)]
    + ["product(cyclic:2,cyclic:5)", "product(cyclic:2,symmetric:3)"]
)


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_01_exactness_requires_whole_group():
    rng = np.random.default_rng(101)
    checked = 0
    for spec in SMALL_CATALOG:
        group = parse_group_spec(spec)
        if group.order > 12:
            continue
        table = irreps_of(group)
        full = list(range(group.order))
        res = exact_feasible_on_support(full, table)
        assert res.feasible, spec
        assert np.abs(res.witness - 1.0 / group.order).max() <= 1e-9, spec
        if group.order <= 8:
            for size in range(1, group.order):
                for support in combinations(full, size):
                    assert not exact_feasible_on_support(support, table).feasible, (spec, support)
                    checked += 1
        else:
            for _ in range(500):
                size = int(rng.integers(1, group.order))
                support = rng.choice(group.order, size=size, replace=False)
                assert not exact_feasible_on_support(support, table).feasible, (spec, support)
                checked += 1
    _report(1, f"{checked} proper supports infeasible; full supports give the uniform witness")


def test_criterion_02_degree_bound_closed_form():
    for d in (2, 3, 4, 5):
        rep = permutation_rep(parse_group_spec(f"symmetric:{d}"))
        assert k_bound(rep) == d * (d + 1) // 2 - 1, d
    _report(2, "degree bound equals d(d+1)/2 - 1 for d = 2..5")


def test_criterion_03_symmetric_power_coverage():
    for d in (3, 4):
        group = parse_group_spec(f"symmetric:{d}")
        rep = permutation_rep(group)
        table = irreps_of(group)
        bound = k_bound(rep)
        assert bound == d * (d + 1) // 2 - 1
        flags = sym_power_coverage(rep, bound, table)
        assert flags.all(), (d, flags)
    _report(3, "every irrep of S3 and S4 appears among symmetric powers up to the bound")


def test_criterion_04_sampler_success_rate():
    trials, delta = 200, 0.1
    p0 = 1.0 - delta
    slack = 3.0 * np.sqrt(p0 * (1.0 - p0) / trials)
    for spec in ("cyclic:64", "signflip:6", "dihedral:7"):
        group = parse_group_spec(spec)
        rep = regular_rep(group)
        for eps in (0.5, 0.25):
            n = required_sample_count(group.order, eps, delta)
            wins = 0
            for t in range(trials):
                sch = random_scheme(group, n, np.random.SeedSequence(entropy=404, spawn_key=(t,)))
                wins += certify_weak(sch, rep) <= eps
            frac = wins / trials
            assert frac >= p0 - slack, (spec, eps, frac)
    _report(4, f"empirical success fraction >= {p0 - slack:.4f} for all six configurations")


def test_criterion_05_separation_curve():
    ds = list(range(2, 10))
    rows = separation_table("signflip", ds, eps=0.5, trial_budget=40, seed=505)
    assert all(r.status == "ok" for r in rows)
    assert [r.exact_cost for r in rows] == [1 << d for d in ds]
    approx = np.array([r.approx_cost for r in rows], dtype=float)
    for d, r in zip(ds, rows):
        if d >= 4:
            assert r.approx_cost < r.exact_cost, (d, r)
    slope, intercept = np.polyfit(ds, approx, 1)
    fitted = slope * np.array(ds) + intercept
    ss_res = float(((approx - fitted) ** 2).sum())
    ss_tot = float(((approx - approx.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.8, (approx.tolist(), r2)
    _report(
        5,
        f"approx cost {approx.astype(int).tolist()} fits {slope:.2f}*d{intercept:+.2f} "
        f"with R^2 = {r2:.3f} against exact 2^d",
    )


def test_criterion_06_sandwich():
    specs = ("cyclic:5", "signflip:3", "dihedral:4", "symmetric:3", "product(cyclic:2,cyclic:3)")
    rng = np.random.default_rng(606)
    instances = 0
    for spec in specs:
        group = parse_group_spec(spec)
        rep = regular_rep(group)
        for _ in range(20):
            size = int(rng.integers(1, group.order + 1))
            support = rng.choice(group.order, size=size, replace=False)
            raw = rng.normal(size=size) if rng.random() < 0.5 else rng.random(size)
            if abs(raw.sum()) < 1e-2:
                raw[0] += 1.0
            sch = AveragingScheme(group, support, raw / raw.sum())
            weak = certify_weak(sch, rep)
            strong = certify_strong(sch, rep)
            assert 0.0 <= weak <= strong + 1e-9, (spec, weak, strong)
            assert strong <= 4.0 * weak + 1e-9, (spec, weak, strong)
            instances += 1
    assert instances == 100
    _report(6, "0 <= weak <= strong <= 4*weak held on 100 random scheme/representation pairs")


def test_criterion_07_fourier_identities():
    specs = (
        "cyclic:24",
        "cyclic:97",
        "signflip:4",
        "signflip:6",
        "dihedral:7",
        "dihedral:12",
        "symmetric:4",
        "symmetric:5",
        "product(cyclic:2,symmetric:4)",
        "product(signflip:2,cyclic:5)",
    )
    rng = np.random.default_rng(707)
    for spec in specs:
        group = parse_group_spec(spec)
        assert group.order <= 120
        table = irreps_of(group)
        assert sum(d * d for d in table.dims) == group.order, spec
        for _ in range(50):
            sig = GroupSignal(group=group, weights=rng.normal(size=group.order))
            back = inverse_fourier(fourier_transform(sig, table), table)
            assert np.abs(back.weights - sig.weights).max() <= 1e-10, spec
            assert plancherel_residual(sig, table) <= 1e-10, spec
    # certifier (projector path) versus fourier-norm path on 50 scheme/rep pairs
    pair_specs = ("cyclic:6", "signflip:3", "dihedral:4", "symmetric:3", "product(cyclic:2,cyclic:3)")
    pairs = 0
    for spec in pair_specs:
        group = parse_group_spec(spec)
        table = irreps_of(group)
        reps = [regular_rep(group)]
        if group.family == "symmetric":
            reps.append(permutation_rep(group))
        if group.family == "sign_flip":
            reps.append(sign_action_rep(group))
        while len(reps) < 2:
            reps.append(regular_rep(group))
        for rep in reps[:2]:
            for _ in range(5):
                sch = random_scheme(group, int(rng.integers(2, 2 * group.order)), rng.integers(1 << 31))
                mults = decompose(rep, table)
                weak_proj = certify_weak(sch, rep)
                weak_fourier = max_nontrivial_norm(
                    fourier_transform(scheme_signal(sch), table), restrict_to=mults
                )
                assert abs(weak_proj - weak_fourier) <= 1e-8, spec
                pairs += 1
    assert pairs == 50
    _report(7, "inversion/Plancherel within 1e-10 on 500 signals; paths agree on 50 pairs")


def test_criterion_08_sign_flip_lower_bound():
    rng = np.random.default_rng(808)
    cases = 0
    for d in range(2, 9):
        group = parse_group_spec(f"signflip:{d}")
        for _ in range(50):
            # proper subgroup: span of fewer than d random bit-vectors
            n_gens = int(rng.integers(1, d))
            gens = rng.integers(1, group.order, size=n_gens)
            subgroup = closure(group, [int(g) for g in gens])
            if len(subgroup) == group.order:  # rare accidental full span: drop a generator
                subgroup = closure(group, [int(gens[0])])
            size = int(rng.integers(1, len(subgroup) + 1))
            support = rng.choice(subgroup, size=size, replace=False)
            if rng.random() < 0.5:
                raw = rng.random(size)
            else:
                raw = rng.normal(size=size)
                if abs(raw.sum()) < 1e-2:
                    raw[0] += 1.0
            [report] = sign_flip_generation_report(d, [support], [raw / raw.sum()])
            assert not report["generates"]
            assert report["eps_weak_on_regular"] >= 1.0 - 1e-9, (d, support)
            cases += 1
    assert cases == 350
    _report(8, "all 350 non-generating supports certified eps >= 1 - 1e-9")


def test_criterion_09_regression_risk_ratios():
    for spec, m in (("signflip:2", 4), ("signflip:3", 8)):
        cfg = RegressionConfig(
            group_spec=spec, sigma=1.0, n_samples=100 * m, trials=2000, eps=0.0, seed=909
        )
        res = regression_risk(cfg)
        assert res.m == m and res.m_triv == 1
        ratio = res.risks["erm"] / res.risks["exact"]
        assert 0.75 * m <= ratio <= 1.25 * m, (spec, ratio)
        assert res.risks["weak"] == res.risks["exact"], spec  # uniform scheme, same matrix
        cfg_weak = RegressionConfig(
            group_spec=spec, sigma=1.0, n_samples=100 * m, trials=2000, eps=0.05, seed=909
        )
        res_weak = regression_risk(cfg_weak)
        assert res_weak.scheme_eps <= 0.05
        assert res_weak.risks["weak"] <= res_weak.risks["erm"], spec
    _report(9, "risk ratios within 25% of m; uniform weak estimator identical to exact")


@pytest.mark.slow
def test_criterion_10_mlp_subset_averaging():
    seeds = range(10)
    win_32_vs_1 = 0
    win_saturation = 0
    for seed in seeds:
        cfg = MlpConfig(
            input_dim=20,
            n_train=10_000,
            n_test=10_000,
            epochs=100,
            subset_exponents=(0, 5, 10),
            curve_subset_exponent=5,
            epoch_eval_size=256,
            seed=seed,
        )
        res = mlp_experiment(cfg)
        l1, l32, l1024 = (res.loss_by_subset[s] for s in (1, 32, 1024))
        win_32_vs_1 += l32 < l1
        gain_full = l1 - l32
        gain_tail = l32 - l1024
        win_saturation += gain_full > 0 and gain_tail < 0.25 * gain_full
    assert win_32_vs_1 >= 9, win_32_vs_1
    assert win_saturation >= 8, win_saturation
    _report(
        10,
        f"|S|=32 beat |S|=1 in {win_32_vs_1}/10 seeds; tail gain below 25% in "
        f"{win_saturation}/10 seeds",
    )


def test_criterion_11_rotation_demo():
    wins = 0
    for seed in range(100):
        cfg = RotationDemoConfig(
            n_rotations=100, grid=100, subset_sizes=(1, 5, 100), seed=seed
        )
        res = rotation_averaging_demo(cfg)
        assert res.rel_l2_to_full[100] == 0.0
        wins += res.rel_l2_to_full[5] < res.rel_l2_to_full[1]
    assert wins >= 95, wins
    _report(11, f"size-5 subsets beat size-1 in {wins}/100 seeds; full subset distance is 0")
