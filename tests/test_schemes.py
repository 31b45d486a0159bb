import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import (
    AveragingScheme,
    Representation,
    UsageError,
    apply_scheme,
    certify,
    certify_strong,
    certify_weak,
    decompose,
    delta_scheme,
    fourier_transform,
    invariant_projector,
    irreps_of,
    max_nontrivial_norm,
    minimize_scheme,
    parse_group_spec,
    permutation_rep,
    random_scheme,
    regular_rep,
    required_sample_count,
    scheme_from_json,
    scheme_to_json,
    trivial_rep,
    uniform_scheme,
)
from groupavg.fourier import SUPPORT_EPS
from oracles import merged_support, unique_merged_support, unique_random_scheme
from test_irreps import TABLE_SPECS

def sign_rep_c2():
    table = irreps_of(parse_group_spec("cyclic:2"))
    return table.irreps[1]


def scheme_c2(p0: float) -> AveragingScheme:
    group = parse_group_spec("cyclic:2")
    return AveragingScheme(group, np.array([0, 1]), np.array([p0, 1.0 - p0]))


def test_uniform_and_delta_shapes():
    c10 = parse_group_spec("cyclic:10")
    uni = uniform_scheme(c10)
    assert uni.size == 10 and np.allclose(uni.weights, 0.1)
    dl = delta_scheme(c10, 0)
    assert dl.size == 1 and dl.weights[0] == 1.0
    with pytest.raises(UsageError):
        delta_scheme(c10, 10)


def test_weight_sum_validation():
    c3 = parse_group_spec("cyclic:3")
    with pytest.raises(UsageError):
        AveragingScheme(c3, np.array([0, 1]), np.array([0.5, 0.4]))
    # negative weights allowed when the sum is one
    sch = AveragingScheme(c3, np.array([0, 1, 2]), np.array([1.5, -1.0, 0.5]))
    assert sch.size == 3


def test_collisions_merge():
    c3 = parse_group_spec("cyclic:3")
    sch = AveragingScheme(c3, np.array([1, 1, 0]), np.array([0.25, 0.25, 0.5]))
    assert sch.size == 2
    assert np.allclose(sch.weights, [0.5, 0.5])


@pytest.mark.parametrize(
    "support, weights",
    [
        ([5, 0, 3, 1], [0.1, 0.2, 0.3, 0.4]),
        ([2, 2, 7, 2, 0, 7], [0.3, -0.1, 0.25, 0.05, 0.4, 0.1]),
        ([4, 1, 4, 6, 1], [0.3, 0.6, -0.3, 0.4, 0.0]),  # element 4 cancels and is dropped
        ([3, 3, 3], [0.1, 0.7, 0.2]),
    ],
)
def test_scheme_merge_matches_dict_oracle(support, weights):
    c8 = parse_group_spec("cyclic:8")
    sch = AveragingScheme(c8, np.array(support), np.array(weights))
    expect_support, expect_weights = merged_support(support, weights, SUPPORT_EPS)
    assert np.array_equal(sch.support, expect_support)
    assert np.array_equal(sch.weights, expect_weights)


@settings(max_examples=50, deadline=None)
@given(draws=st.lists(st.tuples(st.integers(0, 11), st.floats(-2, 2)), min_size=1, max_size=30))
def test_scheme_merge_matches_dict_oracle_random(draws):
    support = np.array([g for g, _ in draws])
    raw = np.array([w for _, w in draws])
    if abs(raw.sum()) < 1e-3:
        return
    weights = raw / raw.sum()
    expect_support, expect_weights = merged_support(support, weights, SUPPORT_EPS)
    if abs(expect_weights.sum() - 1.0) > 1e-12:
        return
    sch = AveragingScheme(parse_group_spec("cyclic:12"), support, weights)
    assert np.array_equal(sch.support, expect_support)
    assert np.array_equal(sch.weights, expect_weights)
    unique_support, unique_weights = unique_merged_support(support, weights, SUPPORT_EPS)
    assert np.array_equal(sch.support, unique_support) and sch.support.dtype == np.int64
    assert np.array_equal(sch.weights.view(np.uint64), unique_weights.view(np.uint64))


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_random_scheme_has_the_bits_of_np_unique(spec):
    group = parse_group_spec(spec)
    for n in (1, 2, 5, group.order, 3 * group.order + 1):
        for seed in range(4):
            got = random_scheme(group, n, np.random.SeedSequence(entropy=seed, spawn_key=(n, 0)))
            support, weights = unique_random_scheme(
                group, n, np.random.SeedSequence(entropy=seed, spawn_key=(n, 0)), SUPPORT_EPS)
            assert np.array_equal(got.support, support) and got.support.dtype == np.int64
            assert np.array_equal(got.weights.view(np.uint64), weights.view(np.uint64))


def test_random_scheme_contract():
    c4 = parse_group_spec("cyclic:4")
    one = random_scheme(c4, 1, seed=5)
    assert one.size == 1 and one.weights[0] == 1.0
    again = random_scheme(c4, 17, seed=9)
    assert np.array_equal(again.support, random_scheme(c4, 17, seed=9).support)
    big = random_scheme(c4, 4 * 10_000, seed=11)
    assert np.abs(big.weights - 0.25).max() < 0.01  # law of large numbers
    assert np.allclose(big.weights * 4 * 10_000, np.round(big.weights * 4 * 10_000))


def test_required_sample_count_frozen():
    assert required_sample_count(100, 0.5, 0.1) == 41
    assert required_sample_count(2, 0.9, 0.5) == 7
    # halving eps doubles the count up to ceiling effects
    n1 = required_sample_count(64, 0.5, 0.1)
    n2 = required_sample_count(64, 0.25, 0.1)
    assert n1 * 2 - 1 <= n2 <= n1 * 2 + 1
    with pytest.raises(UsageError):
        required_sample_count(100, 1.5, 0.1)
    with pytest.raises(UsageError):
        required_sample_count(100, 0.5, 0.0)


def test_apply_scheme_values():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    uni_mat = apply_scheme(uniform_scheme(s3), rep)
    assert np.abs(uni_mat - invariant_projector(rep)).max() < 1e-12
    for g in (0, 3, 5):
        assert np.array_equal(apply_scheme(delta_scheme(s3, g), rep), rep.mats[g])
    assert abs(apply_scheme(scheme_c2(0.75), sign_rep_c2())[0, 0] - 0.5) < 1e-15


def test_apply_scheme_fixes_invariants():
    d4 = parse_group_spec("dihedral:4")
    rep = regular_rep(d4)
    proj = invariant_projector(rep)
    for seed in range(3):
        sch = random_scheme(d4, 5, seed)
        m = apply_scheme(sch, rep)
        assert np.abs(m @ proj - proj).max() < 1e-9
        assert np.abs(proj @ m - proj).max() < 1e-9


def test_certify_frozen_values():
    rep = sign_rep_c2()
    sch = scheme_c2(0.75)
    assert abs(certify_weak(sch, rep) - 0.25) < 1e-12
    assert abs(certify_strong(sch, rep) - 0.5) < 1e-12
    ident = delta_scheme(rep.group, 0)
    assert abs(certify_weak(ident, rep) - 1.0) < 1e-12
    assert abs(certify_strong(ident, rep) - 2.0) < 1e-12
    assert certify_weak(uniform_scheme(rep.group), rep) < 1e-20
    assert certify_strong(uniform_scheme(rep.group), rep) < 1e-20


# Frozen from the complex matmul path.  Row gathers leave the weak
# certificate and the projector-path search bit for bit the same, and move
# the strong certificate by rounding only.
@pytest.mark.parametrize(
    "spec, kind, weak, strong, size, eps, support",
    [
        ("symmetric:4", "permutation", 0.7515365134794425, 1.5000000000000002,
         2, 0.4999999999999999, [2, 15]),
        ("dihedral:5", "regular", 0.5923954978124794, 1.0736798845138484,
         4, 0.31250000000000017, [0, 2, 5, 6]),
    ],
)
def test_projector_path_frozen_on_permutation_actions(spec, kind, weak, strong, size, eps, support):
    group = parse_group_spec(spec)
    rep = permutation_rep(group) if kind == "permutation" else regular_rep(group)
    report = certify(random_scheme(group, 6, 3), rep)
    assert report.eps_weak == weak
    assert abs(report.eps_strong - strong) <= 1e-14
    result = minimize_scheme(group, rep, 0.5, seed=3)
    assert (result.status, result.size, result.eps) == ("ok", size, eps)
    assert result.scheme.support.tolist() == support


def test_strong_certificate_depends_only_on_the_matrices():
    specs = ("cyclic:7", "dihedral:5", "symmetric:4", "signflip:4", "product(cyclic:2,symmetric:3)")
    for spec in specs:
        group = parse_group_spec(spec)
        built = regular_rep(group)
        given_mats = Representation(group, built.mats.copy())
        for seed in range(5):
            scheme = random_scheme(group, 5, seed)
            assert certify_strong(scheme, built) == certify_strong(scheme, given_mats), (spec, seed)


def test_certify_degenerate_rep():
    s3 = parse_group_spec("symmetric:3")
    tri = trivial_rep(s3)
    sch = delta_scheme(s3, 2)
    assert certify_weak(sch, tri) == 0.0
    report = certify(sch, tri)
    assert report.degenerate and report.eps_weak == 0.0


@settings(max_examples=25, deadline=None)
@given(
    spec=st.sampled_from(["cyclic:5", "dihedral:4", "symmetric:3", "signflip:3"]),
    seed=st.integers(0, 100_000),
    signed=st.booleans(),
)
def test_sandwich_property(spec, seed, signed):
    group = parse_group_spec(spec)
    rep = regular_rep(group)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, group.order + 1))
    support = rng.choice(group.order, size=size, replace=False)
    if signed:
        raw = rng.normal(size=size)
        if abs(raw.sum()) < 1e-3:
            raw[0] += 1.0
        weights = raw / raw.sum()
    else:
        raw = rng.random(size)
        weights = raw / raw.sum()
    sch = AveragingScheme(group, support, weights)
    weak = certify_weak(sch, rep)
    strong = certify_strong(sch, rep)
    assert 0.0 <= weak <= strong + 1e-9
    assert strong <= 4.0 * weak + 1e-9


@functools.lru_cache(maxsize=None)
def _regular_and_table(spec):
    group = parse_group_spec(spec)
    return regular_rep(group), irreps_of(group)


def _assert_paths_agree(spec, seed):
    rep, table = _regular_and_table(spec)
    sch = random_scheme(rep.group, 6, seed)
    projector, fourier = certify(sch, rep), certify(sch, table)
    assert abs(projector.eps_weak - fourier.eps_weak) < 1e-8
    assert abs(projector.eps_strong - fourier.eps_strong) < 1e-8


@settings(max_examples=20, deadline=None)
@given(
    # one group per catalogued family
    spec=st.sampled_from(
        ["cyclic:6", "signflip:3", "dihedral:4", "symmetric:3", "product(cyclic:2,symmetric:3)"]
    ),
    seed=st.integers(0, 100_000),
)
def test_projector_path_matches_fourier_path(spec, seed):
    _assert_paths_agree(spec, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_projector_path_matches_fourier_path_above_64(seed):
    _assert_paths_agree("dihedral:36", seed)  # regular rep is 72 x 72


def test_fourier_path_respects_multiplicities():
    s3 = parse_group_spec("symmetric:3")
    table = irreps_of(s3)
    rep = permutation_rep(s3)  # contains trivial + standard, not sign
    mults = decompose(rep, table)
    for seed in range(5):
        sch = random_scheme(s3, 4, seed)
        weak_proj = certify_weak(sch, rep)
        coeffs = fourier_transform(sch.to_signal(), table)
        weak_fourier = max_nontrivial_norm(coeffs, restrict_to=mults)
        assert abs(weak_proj - weak_fourier) < 1e-8


def test_certify_report_paths():
    d4 = parse_group_spec("dihedral:4")
    table = irreps_of(d4)
    rep = regular_rep(d4)
    sch = random_scheme(d4, 6, seed=3)
    rep_report = certify(sch, rep)
    tab_report = certify(sch, table)
    assert rep_report.method == "projector_path"
    assert tab_report.method == "fourier_path"
    assert abs(rep_report.eps_weak - tab_report.eps_weak) < 1e-8
    assert abs(rep_report.eps_strong - tab_report.eps_strong) < 1e-8
    assert set(tab_report.per_irrep_norms) == set(table.labels())


def test_monotone_feasibility_statement():
    rep = sign_rep_c2()
    sch = scheme_c2(0.75)
    eps = certify_weak(sch, rep)
    for eps_prime in (eps, 2 * eps, 0.9):
        assert eps <= eps_prime  # feasible for every looser target


def test_minimize_uniform_needed():
    c3 = parse_group_spec("cyclic:3")
    table = irreps_of(c3)
    result = minimize_scheme(c3, table, 1e-12, trial_budget=10, seed=0)
    assert result.feasible
    assert result.size == 3  # only the uniform scheme certifies this tight
    assert np.allclose(result.scheme.weights, 1 / 3)


def test_minimize_c2_needs_both_elements():
    rep = sign_rep_c2()
    group = rep.group
    # oracle: every size-1 scheme has certificate 1
    for g in range(group.order):
        assert certify_weak(delta_scheme(group, g), rep) >= 1.0 - 1e-12
    result = minimize_scheme(group, rep, 0.3, trial_budget=16, seed=2)
    assert result.feasible and result.size == 2


def test_minimize_beats_whole_group():
    z4 = parse_group_spec("signflip:4")
    table = irreps_of(z4)
    result = minimize_scheme(z4, table, 0.5, trial_budget=30, seed=3)
    assert result.feasible
    assert result.size < 16
    assert result.eps <= 0.5
    assert result.trace  # search trace recorded


def test_minimize_deterministic():
    z3 = parse_group_spec("signflip:3")
    table = irreps_of(z3)
    a = minimize_scheme(z3, table, 0.4, trial_budget=12, seed=9)
    b = minimize_scheme(z3, table, 0.4, trial_budget=12, seed=9)
    assert np.array_equal(a.scheme.support, b.scheme.support)
    assert np.array_equal(a.scheme.weights, b.scheme.weights)
    assert a.eps == b.eps


def test_scheme_json_round_trip():
    d5 = parse_group_spec("dihedral:5")
    sch = random_scheme(d5, 7, seed=1)
    payload = scheme_to_json(sch)
    back = scheme_from_json(payload)
    assert back.group == d5
    assert np.array_equal(back.support, sch.support)
    assert np.array_equal(back.weights, sch.weights)


def test_sampler_success_rate_small():
    # quick version of the acceptance check on one group
    group = parse_group_spec("cyclic:16")
    table = irreps_of(group)
    eps, delta, trials = 0.5, 0.2, 60
    n = required_sample_count(group.order, eps, delta)
    wins = 0
    for t in range(trials):
        sch = random_scheme(group, n, np.random.SeedSequence(entropy=77, spawn_key=(t,)))
        coeffs = fourier_transform(sch.to_signal(), table)
        if max_nontrivial_norm(coeffs) <= eps:
            wins += 1
    p0 = 1.0 - delta
    slack = 3.0 * np.sqrt(p0 * delta / trials)
    assert wins / trials >= p0 - slack
