from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import (
    GroupMismatchError,
    UsageError,
    certify_weak,
    delta_scheme,
    exact_feasible_on_support,
    exact_violation,
    irreps_of,
    max_nontrivial_norm,
    fourier_transform,
    parse_group_spec,
    permutation_rep,
    random_scheme,
    regular_rep,
    separation_csv,
    separation_table,
    sign_flip_generation_report,
    sym_power_coverage,
    trivial_rep,
    uniform_scheme,
    k_bound,
)
from groupavg.schemes import AveragingScheme
from oracles import character_layer_reps, gf2_rank, scheme_signal, sym_power_coverage_by_loop


def test_coverage_all_true_at_bound():
    for spec in ("symmetric:3", "symmetric:4"):
        group = parse_group_spec(spec)
        rep = permutation_rep(group)
        table = irreps_of(group)
        flags = sym_power_coverage(rep, k_bound(rep), table)
        assert flags.all()


def test_coverage_control_case():
    s3 = parse_group_spec("symmetric:3")
    table = irreps_of(s3)
    flags = sym_power_coverage(trivial_rep(s3), 5, table)
    assert flags[table.trivial_index]
    assert not flags[1] and not flags[2]  # unfaithful base misses nontrivial irreps


def test_coverage_sign_rep_of_c2():
    c2 = parse_group_spec("cyclic:2")
    table = irreps_of(c2)
    sign = table.irreps[1]
    flags = sym_power_coverage(sign, 1, table)
    assert flags.all()  # trivial at degree 0, sign at degree 1


def test_coverage_monotone_in_degree():
    s4 = parse_group_spec("symmetric:4")
    rep = permutation_rep(s4)
    table = irreps_of(s4)
    prev = np.zeros(len(table), dtype=bool)
    for k in range(0, 10, 2):
        flags = sym_power_coverage(rep, k, table)
        assert (flags | prev == flags).all()  # never flips true -> false
        prev = flags


def test_coverage_matches_loop_oracle(small_groups):
    for spec, group in small_groups.items():
        table = irreps_of(group)
        for rep in character_layer_reps(group):
            values = rep.character(table.partition).values
            for degree in sorted({0, 1, 2, min(k_bound(rep), 8)}):
                want = sym_power_coverage_by_loop(values, degree, table)
                got = sym_power_coverage(rep, degree, table)
                assert np.array_equal(got, want), (spec, rep.name, degree)


def test_coverage_rejects_a_rep_over_another_group():
    table = irreps_of(parse_group_spec("symmetric:3"))
    with pytest.raises(GroupMismatchError):
        sym_power_coverage(regular_rep(parse_group_spec("cyclic:3")), 3, table)


def test_exact_violation_values():
    c2 = parse_group_spec("cyclic:2")
    sign = irreps_of(c2).irreps[1]
    assert exact_violation(uniform_scheme(c2), sign) < 1e-12
    assert abs(exact_violation(delta_scheme(c2, 0), sign) - 2.0) < 1e-12
    d4 = parse_group_spec("dihedral:4")
    reg = regular_rep(d4)
    assert exact_violation(uniform_scheme(d4), reg) < 1e-9


def test_violation_iff_nontrivial_norms_vanish():
    group = parse_group_spec("dihedral:4")
    table = irreps_of(group)
    reg = regular_rep(group)
    for seed in range(25):
        sch = random_scheme(group, 6, seed)
        viol = exact_violation(sch, reg)
        norm = max_nontrivial_norm(fourier_transform(scheme_signal(sch), table))
        assert (viol < 1e-9) == (norm < 1e-9)
    uni = uniform_scheme(group)
    assert exact_violation(uni, reg) < 1e-9
    assert certify_weak(uni, reg) < 1e-18


def test_exact_feasibility_small_groups(small_groups):
    for spec in ("cyclic:3", "cyclic:4", "symmetric:3", "signflip:2"):
        group = small_groups[spec]
        table = irreps_of(group)
        full = list(range(group.order))
        res = exact_feasible_on_support(full, table)
        assert res.feasible
        assert np.abs(res.witness - 1.0 / group.order).max() < 1e-9  # unique uniform witness
        for size in range(1, group.order):
            for support in combinations(full, size):
                assert not exact_feasible_on_support(support, table).feasible


def test_exact_feasibility_examples():
    c3 = parse_group_spec("cyclic:3")
    table = irreps_of(c3)
    assert not exact_feasible_on_support([0, 1], table).feasible
    z1 = parse_group_spec("signflip:1")
    assert not exact_feasible_on_support([0], irreps_of(z1)).feasible
    with pytest.raises(UsageError):
        exact_feasible_on_support([], table)


def test_sign_flip_report_non_generating_exact_one():
    group = parse_group_spec("signflip:3")
    sub = [0, group.index_of_label("100")]
    rng = np.random.default_rng(0)
    for _ in range(10):
        raw = rng.random(2)
        [report] = sign_flip_generation_report(3, [sub], [raw / raw.sum()])
        assert not report["generates"]
        assert report["eps_weak_on_regular"] == 1.0  # subgroup-trivial character sums to 1


def test_sign_flip_report_generating():
    group = parse_group_spec("signflip:3")
    sup = [group.index_of_label(s) for s in ("100", "010", "001", "000")]
    report, full = sign_flip_generation_report(3, [sup, list(range(8))], [[0.25] * 4, [0.125] * 8])
    assert report["generates"]
    assert report["eps_weak_on_regular"] < 1.0
    assert full["generates"]
    assert full["eps_weak_on_regular"] < 1e-20


def test_sign_flip_report_matches_regular_rep_certifier():
    for d in (2, 3, 4, 5):
        group = parse_group_spec(f"signflip:{d}")
        reg = regular_rep(group)
        rng = np.random.default_rng(d)
        size = int(rng.integers(1, group.order))
        support = rng.choice(group.order, size=size, replace=False)
        raw = rng.random(size)
        weights = raw / raw.sum()
        [report] = sign_flip_generation_report(d, [support], [weights])
        sch = AveragingScheme(group, support, weights)
        assert abs(report["eps_weak_on_regular"] - certify_weak(sch, reg)) < 1e-8


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 10_000))
def test_generation_matches_rank_oracle(d, seed):
    group = parse_group_spec(f"signflip:{d}")
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, group.order))
    support = rng.choice(group.order, size=size, replace=False)
    raw = rng.random(size)
    [report] = sign_flip_generation_report(d, [support], [raw / raw.sum()])
    assert report["generates"] == (gf2_rank([int(x) for x in support], d) == d)
    if not report["generates"]:
        assert report["eps_weak_on_regular"] >= 1.0 - 1e-9


def test_separation_table_small():
    rows = separation_table("signflip", [2, 3, 4], eps=0.5, trial_budget=20, seed=5)
    assert [r.order for r in rows] == [4, 8, 16]
    for r in rows:
        assert r.exact_cost == r.order
        assert r.approx_cost <= r.exact_cost
        assert r.k_bound == r.order  # regular action of an involution group
        assert r.status == "ok"
    csv = separation_csv(rows)
    assert csv.splitlines()[0] == "family,order,K,exact_cost,approx_cost,eps,seed,status"


def test_separation_table_deterministic():
    a = separation_csv(separation_table("cyclic", [4], eps=0.5, trial_budget=10, seed=1))
    b = separation_csv(separation_table("cyclic", [4], eps=0.5, trial_budget=10, seed=1))
    assert a == b
