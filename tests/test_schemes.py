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
    sign_action_rep,
    sym_power_rep,
    trivial_rep,
    uniform_scheme,
)
from groupavg.fourier import SUPPORT_EPS
from groupavg.groups import sample_uniform
from groupavg import fourier as fourier_module
from groupavg import reps as reps_module
from groupavg import schemes as schemes_module
from oracles import dense_apply_scheme, dense_invariant_dimension, dense_invariant_projector
from oracles import dense_max_deviation
from oracles import merged_support, minimize_scheme_unstopped, unique_merged_support
from oracles import scheme_signal, unique_random_scheme, unpruned_fourier_eps_strong
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


def test_l1_norm_bound_keeps_certificates_finite():
    """A scheme whose l1 norm rounds to WEIGHT_L1_MAX = 2**500 is accepted and
    both paths certify it finitely, at the largest certificate the bound
    allows, 2 * norm**2 = 2**1001; one ulp of weight above the bound is refused."""
    assert schemes_module.WEIGHT_L1_MAX == 2.0**500
    d3 = parse_group_spec("dihedral:3")
    half = 2.0**499
    # element 3 is a reflection: w(e) - w(s) with |w| = 2**499 on each
    sch = AveragingScheme(d3, np.array([0, 3, 5]), np.array([half, -half, 1.0]))
    assert float(np.abs(sch.weights).sum()) == 2.0**500
    table = irreps_of(d3)
    for target in (regular_rep(d3), table):
        report = certify(sch, target)
        assert np.isfinite(report.eps_weak) and np.isfinite(report.eps_strong)
        assert report.eps_weak == 2.0**1000 and report.eps_strong == 2.0**1001
    assert certify(sch, table).eps_strong.hex() == unpruned_fourier_eps_strong(sch, table).hex()
    above = half * (1 + 2.0**-52)
    with pytest.raises(UsageError, match="at most 2\\*\\*500"):
        AveragingScheme(d3, np.array([0, 3, 5]), np.array([above, -above, 1.0]))


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
    """A random scheme, set without the checking constructor's merge, has the
    bytes of the ``np.unique`` oracle and of ``AveragingScheme`` over the
    same counts: one draw, few, and more draws than elements, which collide."""
    group = parse_group_spec(spec)
    for n in (1, 2, 5, group.order, 3 * group.order + 1):
        for seed in range(4):
            key = functools.partial(np.random.SeedSequence, entropy=seed, spawn_key=(n, 0))
            got = random_scheme(group, n, key())
            support, weights = unique_random_scheme(group, n, key(), SUPPORT_EPS)
            assert np.array_equal(got.support, support) and got.support.dtype == np.int64
            assert np.array_equal(got.weights.view(np.uint64), weights.view(np.uint64))
            counts = np.bincount(sample_uniform(group, n, key()), minlength=group.order)
            checked = AveragingScheme(group, np.flatnonzero(counts), counts[counts > 0] / float(n))
            assert got.support.tobytes() == checked.support.tobytes()
            assert got.weights.tobytes() == checked.weights.tobytes()
            assert type(got) is AveragingScheme and got.group is group


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
    result = minimize_scheme(rep, 0.5, seed=3)
    assert (result.status, result.size, result.eps) == ("ok", size, eps)
    assert result.scheme.support.tolist() == support


def test_permutation_routes_have_the_bits_of_the_dense_stack(small_groups, monkeypatch):
    # schemes with negative weights, duplicate support entries and the
    # uniform scheme; the traces, projector and operator by tobytes, the
    # full report's certificates by float.hex against the dense oracles.
    # Signed actions (the sign action and its symmetric powers) also keep
    # the strong certificate's bits of one dense matmul and SVD per element.
    reps = [regular_rep(g) for g in [*small_groups.values(), parse_group_spec("cyclic:37")]]
    reps += [permutation_rep(parse_group_spec(f"symmetric:{d}")) for d in (4, 5)]
    signs = [sign_action_rep(parse_group_spec(f"signflip:{d}")) for d in (1, 3, 5)]
    reps += signs + [sym_power_rep(signs[1], k) for k in (2, 3)]
    reps.append(sym_power_rep(sign_action_rep(parse_group_spec("signflip:6")), 2))
    for rep in reps:
        group = rep.group
        case = (rep.name, group.order)
        assert rep.signed_permutation() is not None, case
        assert reps_module._traces(rep).tobytes() == np.einsum("gii->g", rep.mats).tobytes(), case
        rng = np.random.default_rng(group.order)
        schemes = [uniform_scheme(group)]
        for size in (1, 3, 2 * group.order + 1):
            support = rng.integers(0, group.order, size=size)
            weights = rng.normal(size=size)
            schemes.append(AveragingScheme(group, support, weights - (weights.sum() - 1.0) / size))
        projector, dim = invariant_projector(rep), schemes_module.invariant_dimension(rep)
        routes = [(apply_scheme(s, rep), certify(s, rep)) for s in schemes]
        assert projector.tobytes() == dense_invariant_projector(rep).tobytes(), case
        assert dim == dense_invariant_dimension(rep), case
        with monkeypatch.context() as patch:
            patch.setattr(schemes_module, "apply_scheme", dense_apply_scheme)
            patch.setattr(schemes_module, "invariant_projector", dense_invariant_projector)
            patch.setattr(schemes_module, "invariant_dimension", dense_invariant_dimension)
            if rep.perms is None:
                patch.setattr(schemes_module, "max_deviation", dense_max_deviation)
            for scheme, (operator, report) in zip(schemes, routes):
                assert operator.tobytes() == dense_apply_scheme(scheme, rep).tobytes(), case
                want = certify(scheme, rep)
                assert report.eps_weak.hex() == want.eps_weak.hex(), case
                assert report.eps_strong.hex() == want.eps_strong.hex(), case
                assert report.degenerate == want.degenerate, case


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
        coeffs = fourier_transform(scheme_signal(sch), table)
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
    result = minimize_scheme(table, 1e-12, trial_budget=10, seed=0)
    assert result.feasible
    assert result.size == 3  # only the uniform scheme certifies this tight
    assert np.allclose(result.scheme.weights, 1 / 3)


def test_minimize_c2_needs_both_elements():
    rep = sign_rep_c2()
    group = rep.group
    # oracle: every size-1 scheme has certificate 1
    for g in range(group.order):
        assert certify_weak(delta_scheme(group, g), rep) >= 1.0 - 1e-12
    result = minimize_scheme(rep, 0.3, trial_budget=16, seed=2)
    assert result.feasible and result.size == 2


def test_minimize_beats_whole_group():
    z4 = parse_group_spec("signflip:4")
    table = irreps_of(z4)
    result = minimize_scheme(table, 0.5, trial_budget=30, seed=3)
    assert result.feasible
    assert result.size < 16
    assert result.eps <= 0.5
    assert result.trace  # search trace recorded


def test_minimize_deterministic():
    z3 = parse_group_spec("signflip:3")
    table = irreps_of(z3)
    a = minimize_scheme(table, 0.4, trial_budget=12, seed=9)
    b = minimize_scheme(table, 0.4, trial_budget=12, seed=9)
    assert np.array_equal(a.scheme.support, b.scheme.support)
    assert np.array_equal(a.scheme.weights, b.scheme.weights)
    assert a.eps == b.eps


def _same_search(got, want) -> None:
    assert np.array_equal(got.scheme.support, want.scheme.support)
    assert got.scheme.weights.tobytes() == want.scheme.weights.tobytes()
    assert got.eps.hex() == want.eps.hex()
    assert got.status == want.status
    assert repr(got.trace) == repr(want.trace)


SEARCH_SPECS = ["dihedral:10", "dihedral:35", "dihedral:58", "symmetric:4", "symmetric:5",
                "product(cyclic:2,symmetric:4)", "product(cyclic:3,dihedral:7)",
                "product(cyclic:3,dihedral:12)",
                "signflip:3", "signflip:4", "signflip:5", "signflip:6", "signflip:8"]


@functools.lru_cache(maxsize=None)
def _search_table(spec):
    return irreps_of(parse_group_spec(spec))


@pytest.mark.parametrize("spec", SEARCH_SPECS)
def test_stopped_certificates_leave_the_search_unchanged(spec):
    table = _search_table(spec)
    for seed in (0, 1):
        for eps in (0.2, 0.5):
            got = minimize_scheme(table, eps, seed=seed)
            _same_search(got, minimize_scheme_unstopped(table, eps, seed=seed))


def test_stopped_certificates_leave_a_restricted_search_unchanged():
    table = _search_table("symmetric:4")
    mults = decompose(permutation_rep(table.group), table)
    assert 0 < (mults[1:] > 0).sum() < len(table) - 1  # some nontrivial irreps left out
    for seed in (0, 1):
        got = minimize_scheme(table, 0.2, seed=seed, multiplicities=mults)
        want = minimize_scheme_unstopped(table, 0.2, seed=seed, multiplicities=mults)
        _same_search(got, want)


def test_stopped_certificates_take_fewer_svds(monkeypatch):
    table = _search_table("dihedral:58")
    svds, original = [], fourier_module.spectral_norm

    def counting(mat):
        svds[-1] += not isinstance(mat, np.generic) and np.size(mat) > 1
        return original(mat)

    monkeypatch.setattr(fourier_module, "spectral_norm", counting)
    for search in (minimize_scheme, minimize_scheme_unstopped):
        svds.append(0)
        search(table, 0.2, seed=0)
    assert 0 < svds[0] < svds[1]


def _screened_swaps(monkeypatch) -> list:
    """Every swap the screen rejects from now on, as (best scheme, best_eps,
    position, replacement)."""
    screened, rejects = [], schemes_module._SwapScreen.rejects

    def recording(self, scheme, best_eps, pos, replacement):
        verdict = rejects(self, scheme, best_eps, pos, replacement)
        if verdict:
            screened.append((scheme, best_eps, pos, replacement))
        return verdict

    monkeypatch.setattr(schemes_module._SwapScreen, "rejects", recording)
    return screened


def _assert_screened_swaps_certify_above_the_best(screened, table, mults=None) -> None:
    assert screened
    for scheme, best_eps, pos, replacement in screened:
        support = scheme.support.copy()
        support[pos] = replacement
        candidate = AveragingScheme(scheme.group, support, scheme.weights.copy())
        assert schemes_module.certify_weak_target(candidate, table, mults) > best_eps


@pytest.mark.parametrize("spec", SEARCH_SPECS)
def test_swap_screen_rejects_only_candidates_above_the_best(spec, monkeypatch):
    table = _search_table(spec)
    screened = _screened_swaps(monkeypatch)
    for seed in (0, 1):
        for eps in (0.2, 0.5):
            minimize_scheme(table, eps, seed=seed)
    _assert_screened_swaps_certify_above_the_best(screened, table)


def test_swap_screen_rejects_only_candidates_above_the_best_on_a_restricted_search(monkeypatch):
    table = _search_table("symmetric:4")
    mults = decompose(permutation_rep(table.group), table)
    screened = _screened_swaps(monkeypatch)
    for seed in (0, 1):
        for eps in (0.2, 0.5):
            minimize_scheme(table, eps, seed=seed, multiplicities=mults)
    _assert_screened_swaps_certify_above_the_best(screened, table, mults)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_swap_screen_keeps_a_coordinate_permutation_of_the_best(d):
    """Transposing coordinates i and j of signflip:d permutes its characters,
    so it keeps every exact certificate.  A support whose elements all have
    bits i and j equal, but for one element x, is one swap (x to its image)
    from its image; the screen must never reject that swap, however the two
    computed certificates round."""
    table = _search_table(f"signflip:{d}")
    screen = schemes_module._SwapScreen(table, None)

    def rejects(support, weights, x, image):
        best = AveragingScheme(table.group, support, weights)
        swapped = AveragingScheme(table.group, np.where(support == x, image, support), weights)
        best_eps = schemes_module.certify_weak_target(best, table)
        assert abs(schemes_module.certify_weak_target(swapped, table) - best_eps) < 1e-14
        return screen.rejects(best, best_eps, int(np.flatnonzero(best.support == x)[0]), image)

    assert not rejects(np.array([0, 1]), np.array([0.5, 0.5]), 1, 2)  # {0, e1} -> {0, e2}
    rng = np.random.default_rng(d)
    elements = np.arange(1 << d)
    for _ in range(60):
        i, j = rng.choice(d, 2, replace=False)
        equal = ((elements >> i) & 1) == ((elements >> j) & 1)
        x = int(rng.choice(elements[~equal]))
        size = int(rng.integers(1, min(12, equal.sum()) + 1))
        support = np.append(rng.choice(elements[equal], size, replace=False), x)
        weights = rng.uniform(0.1, 1.0, support.size)
        assert not rejects(support, weights / weights.sum(), x, x ^ (1 << i) ^ (1 << j))


@pytest.mark.parametrize("spec", ["dihedral:58", "signflip:6"])
def test_swap_screen_certifies_fewer_swaps_than_it_draws(spec, monkeypatch):
    table = _search_table(spec)
    certs, original = [], schemes_module.certify_weak_target

    def counting(*args, **kwargs):
        certs[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes_module, "certify_weak_target", counting)
    for search in (minimize_scheme, minimize_scheme_unstopped):
        certs.append(0)
        result = search(table, 0.5, seed=0)
    # the fallback and every trial of the draw phase, then one per swap certified;
    # the oracle certifies every drawn swap that moves the support
    draw_phase = 1 + sum(step["trials"] for step in result.trace if step["phase"] == "search")
    screened, drawn = certs[0] - draw_phase, certs[1] - draw_phase
    assert drawn > 150
    assert screened < drawn / 2


def test_a_multiplicity_vector_has_one_entry_per_irrep():
    # dihedral:5 has 4 irreps: a 3-entry vector ended in an IndexError, and a
    # 6-entry one was read as its first 4 entries
    table = irreps_of(parse_group_spec("dihedral:5"))
    scheme = random_scheme(table.group, 6, 2)
    for mults in (np.ones(3, np.int64), np.ones(6, np.int64), np.ones((4, 1), np.int64)):
        for run in (lambda: certify(scheme, table, mults),
                    lambda: schemes_module.certify_weak_target(scheme, table, mults),
                    lambda: minimize_scheme(table, 0.5, multiplicities=mults)):
            with pytest.raises(UsageError, match="the table has 4 irreps"):
                run()
    assert certify(scheme, table, np.ones(4, np.int64)).eps_weak == certify(scheme, table).eps_weak


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
        coeffs = fourier_transform(scheme_signal(sch), table)
        if max_nontrivial_norm(coeffs) <= eps:
            wins += 1
    p0 = 1.0 - delta
    slack = 3.0 * np.sqrt(p0 * delta / trials)
    assert wins / trials >= p0 - slack
