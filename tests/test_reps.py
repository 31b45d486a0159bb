import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import reps as reps_module
from groupavg import (
    NumericalConsistencyError,
    Representation,
    SizeLimitError,
    UsageError,
    direct_sum,
    eigen_profile,
    invariant_dimension,
    invariant_projector,
    k_bound,
    parse_group_spec,
    permutation_rep,
    regular_k_bound,
    regular_rep,
    rep_to_text,
    sign_action_rep,
    sym_power_character,
    sym_power_rep,
    tensor_product,
    trivial_rep,
)

RESID = 1e-9


def _sign_rep_c2():
    c2 = parse_group_spec("cyclic:2")
    mats = np.array([[[1.0]], [[-1.0]]], dtype=complex)
    return Representation(c2, mats, name="sign")


def test_permutation_rep_frozen_values():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    assert rep.dim == 3
    assert np.array_equal(rep.mats[0], np.eye(3))
    # character by fixed points per cycle type: identity 3, transpositions 1, 3-cycles 0
    chi = rep.character()
    assert sorted(np.round(chi.values.real).astype(int)) == [0, 1, 3]
    assert chi.values[0] == 3


def test_permutation_rep_requires_symmetric():
    with pytest.raises(UsageError):
        permutation_rep(parse_group_spec("cyclic:3"))


def test_permutation_rep_unitary_s4():
    rep = permutation_rep(parse_group_spec("symmetric:4"))
    assert rep.unitarity_residual() < 1e-12


def test_sign_action_diagonal():
    z3 = parse_group_spec("signflip:3")
    rep = sign_action_rep(z3)
    g = z3.index_of_label("101")
    assert np.array_equal(rep.mats[g].real, np.diag([-1.0, 1.0, -1.0]))
    for g in range(z3.order):  # order-2 elements are their own inverses
        assert np.allclose(rep.mats[g] @ rep.mats[g], np.eye(3))
    d1 = sign_action_rep(parse_group_spec("signflip:1"))
    assert d1.mats[1][0, 0] == -1.0
    with pytest.raises(UsageError):
        sign_action_rep(parse_group_spec("cyclic:4"))


def test_regular_rep_frozen_values(small_groups):
    c2 = small_groups["cyclic:2"]
    reg = regular_rep(c2)
    assert np.array_equal(reg.mats[1].real, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for spec in ("cyclic:6", "dihedral:4", "symmetric:3"):
        group = small_groups.get(spec) or parse_group_spec(spec)
        reg = regular_rep(group)
        chi = reg.character()
        expect = np.zeros(len(chi.values))
        expect[0] = group.order
        assert np.allclose(chi.values, expect)  # translation has no fixed points off identity
        assert invariant_dimension(reg) == 1


def test_regular_rep_cap():
    with pytest.raises(SizeLimitError):
        regular_rep(parse_group_spec("signflip:13"))


def test_direct_sum_and_tensor_characters(small_groups):
    s3 = small_groups["symmetric:3"]
    rep = permutation_rep(s3)
    both = direct_sum(rep, rep)
    assert both.dim == 6
    assert np.allclose(both.character().values, 2 * rep.character().values)
    prod = tensor_product(rep, rep)
    assert prod.dim == 9
    assert np.allclose(prod.character().values, rep.character().values ** 2)
    tri = trivial_rep(s3)
    assert invariant_dimension(direct_sum(tri, tri)) == 2


def test_rep_validation_rejects_non_homomorphism():
    c3 = parse_group_spec("cyclic:3")
    mats = np.stack([np.eye(2)] * 3).astype(complex)
    mats[1] = np.array([[0, 1], [1, 0]])  # order 2 cannot represent an order-3 element
    with pytest.raises(NumericalConsistencyError):
        Representation(c3, mats)


def test_sym_power_edges():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    s0 = sym_power_rep(rep, 0)
    assert s0.dim == 1 and np.allclose(s0.mats, 1.0)
    s1 = sym_power_rep(rep, 1)
    assert np.allclose(s1.mats, rep.mats)
    sign = _sign_rep_c2()
    s2 = sym_power_rep(sign, 2)
    assert np.allclose(s2.mats, 1.0)  # (-1)^2
    with pytest.raises(SizeLimitError):
        sym_power_rep(permutation_rep(parse_group_spec("symmetric:4")), 40, dim_cap=100)


def test_sym_power_character_frozen():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    chi = rep.character()
    assert np.allclose(sym_power_character(chi, 0).values, 1.0)
    assert np.allclose(sym_power_character(chi, 1).values, chi.values)
    # frozen from the explicit degree-2 matrices: traces (6, 2, 0)
    assert np.allclose(sym_power_character(chi, 2).values, [6.0, 2.0, 0.0])


def test_sym_power_dense_matches_perm_path():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    dense_base = Representation(s3, rep.mats.copy(), name="dense")  # drop the perm arrays
    for k in (2, 3):
        via_perms = sym_power_rep(rep, k)
        via_dense = sym_power_rep(dense_base, k)
        assert np.allclose(
            via_perms.character().values, via_dense.character().values, atol=1e-10
        )


@settings(max_examples=12, deadline=None)
@given(spec=st.sampled_from(["symmetric:3", "dihedral:4", "signflip:2"]), k=st.integers(0, 4))
def test_sym_character_matches_explicit_traces(spec, k):
    group = parse_group_spec(spec)
    if spec == "symmetric:3":
        rep = permutation_rep(group)
    elif spec == "signflip:2":
        rep = sign_action_rep(group)
    else:
        rep = regular_rep(group)
    explicit = sym_power_rep(rep, k)
    chi_explicit = explicit.character()
    chi_rec = sym_power_character(rep.character(), k)
    assert np.abs(chi_explicit.values - chi_rec.values).max() < 1e-8


def test_sym_power_stays_unitary():
    d4 = parse_group_spec("dihedral:4")
    reg = regular_rep(d4)
    dense = Representation(d4, reg.mats.copy())  # force the dense recursion
    power = sym_power_rep(dense, 2)
    assert power.unitarity_residual() < RESID
    assert power.homomorphism_residual() < RESID


def test_invariant_projector_properties(small_groups):
    s3 = small_groups["symmetric:3"]
    rep = permutation_rep(s3)
    proj = invariant_projector(rep)
    assert np.allclose(proj, np.full((3, 3), 1 / 3))
    assert np.linalg.norm(proj @ proj - proj) < RESID
    assert np.linalg.norm(proj.conj().T - proj) < RESID
    for g in range(s3.order):
        assert np.linalg.norm(proj @ rep.mats[g] - proj) < RESID
        assert np.linalg.norm(rep.mats[g] @ proj - proj) < RESID
    assert abs(np.trace(proj) - invariant_dimension(rep)) < 1e-6
    sign = _sign_rep_c2()
    assert np.allclose(invariant_projector(sign), 0.0)
    assert np.allclose(invariant_projector(trivial_rep(s3)), 1.0)


def test_eigen_profile_frozen(small_groups):
    sign = _sign_rep_c2()
    prof = eigen_profile(sign)
    assert prof.fractions == ((0, 1), (1, 2))
    assert list(prof.max_mult) == [1, 1]
    reg = regular_rep(small_groups["cyclic:2"])
    prof = eigen_profile(reg)
    assert prof.fractions == ((0, 1), (1, 2))
    assert list(prof.max_mult) == [2, 1]


def test_eigen_profile_full_cycle():
    for d in (3, 4, 5):
        group = parse_group_spec(f"symmetric:{d}")
        rep = permutation_rep(group)
        prof = eigen_profile(rep)
        # a single d-cycle contributes every d-th root of unity
        for p in range(d):
            g = int(np.gcd(p, d))
            assert (p // g, d // g) in prof.fractions


def test_eigen_profile_dense_matches_perm_path(small_groups):
    s3 = small_groups["symmetric:3"]
    rep = permutation_rep(s3)
    dense = Representation(s3, rep.mats.copy())
    a, b = eigen_profile(rep), eigen_profile(dense)
    assert a.fractions == b.fractions
    assert np.array_equal(a.max_mult, b.max_mult)


def test_k_bound_closed_form():
    for d, expect in ((2, 2), (3, 5), (4, 9), (5, 14)):
        rep = permutation_rep(parse_group_spec(f"symmetric:{d}"))
        assert k_bound(rep) == expect
    assert k_bound(_sign_rep_c2()) == 1


def test_k_bound_monotone_under_direct_sum(small_groups):
    s3 = small_groups["symmetric:3"]
    rep = permutation_rep(s3)
    assert k_bound(direct_sum(rep, trivial_rep(s3))) >= k_bound(rep)


def test_regular_k_bound_matches_dense(small_groups):
    for spec in ("cyclic:6", "dihedral:4", "symmetric:3", "signflip:3", "cyclic:12"):
        group = small_groups.get(spec) or parse_group_spec(spec)
        assert regular_k_bound(group) == k_bound(regular_rep(group))


def test_homomorphism_and_unitarity_residuals(small_groups):
    for spec in ("symmetric:4", "dihedral:6", "signflip:3"):
        group = small_groups.get(spec) or parse_group_spec(spec)
        rep = regular_rep(group)
        assert rep.unitarity_residual() < RESID
        assert rep.homomorphism_residual() < RESID


def test_rep_export_header():
    rep = permutation_rep(parse_group_spec("symmetric:3"))
    text = rep_to_text(rep)
    head, first = text.splitlines()[:2]
    assert head == "rep perm3 3 6"
    assert first.split()[0] == "1+0i"


# -- batched homomorphism check against a per-pair loop ---------------------

HOM_PATHS = ["perm", "exhaustive-1x1", "exhaustive", "sampled-1x1", "sampled"]


def _parity_character(d: int) -> Representation:
    group = parse_group_spec(f"signflip:{d}")
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(group.order)) % 2)
    return Representation(group, signs.astype(complex).reshape(-1, 1, 1), name="parity")


def _path_rep(path: str) -> Representation:
    """A representation whose homomorphism check takes the named path.

    Orders up to 256 are checked exhaustively (all of these are within the
    flop budget), larger ones on seeded pairs; each dense case spans
    several batches.
    """
    if path == "perm":
        return permutation_rep(parse_group_spec("symmetric:4"))
    if path == "exhaustive-1x1":
        return _parity_character(8)
    if path == "exhaustive":
        return sign_action_rep(parse_group_spec("signflip:7"))
    if path == "sampled-1x1":
        return _parity_character(9)
    return sign_action_rep(parse_group_spec("signflip:9"))


def _checked_pairs(rep: Representation) -> list[tuple[int, int]]:
    n = rep.group.order
    if rep.perms is not None or n <= reps_module._HOM_EXHAUSTIVE_MAX_ORDER:
        return [(g, h) for g in range(n) for h in range(n)]
    rng = np.random.default_rng(reps_module._HOM_SAMPLE_SEED)
    count = max(64, 2 * n)
    gs = rng.integers(0, n, size=count)
    hs = rng.integers(0, n, size=count)
    return list(zip(gs.tolist(), hs.tolist()))


def _reference_residual(rep: Representation) -> float:
    mult = rep.group.mult
    pairs = _checked_pairs(rep)
    if rep.perms is not None:
        ok = all(
            np.array_equal(rep.perms[mult[g, h]], rep.perms[g][rep.perms[h]]) for g, h in pairs
        )
        return 0.0 if ok else float("inf")
    return max(
        float(np.linalg.norm(rep.mats[mult[g, h]] - rep.mats[g] @ rep.mats[h])) for g, h in pairs
    )


def _corruptible_element(rep: Representation) -> int:
    """First checked g in a pair (g, h) with g and h both non-identity."""
    return next(g for g, h in _checked_pairs(rep) if g and h)


def _corrupted(rep: Representation, g: int, phase: float) -> Representation:
    """Copy of ``rep`` with element g changed: another element's permutation
    on the perm path, a phase factor on the dense paths; still unitary."""
    mats, perms = rep.mats.copy(), rep.perms
    if perms is not None:
        perms = perms.copy()
        perms[g], mats[g] = perms[g + 1], mats[g + 1]
    else:
        mats[g] *= np.exp(1j * phase)
    return Representation(rep.group, mats, name="corrupted", perms=perms, validate=False)


@pytest.mark.parametrize("path", HOM_PATHS)
def test_homomorphism_check_rejects_one_corrupted_element(path):
    rep = _path_rep(path)
    bad = _corrupted(rep, _corruptible_element(rep), np.pi)
    assert bad.unitarity_residual() < RESID
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        bad.validate()


@pytest.mark.parametrize("path", HOM_PATHS)
def test_homomorphism_residual_matches_per_pair_loop(path):
    rep = _path_rep(path)
    nudged = _corrupted(rep, _corruptible_element(rep), 1e-6)
    for r in (rep, nudged):
        got, want = r.homomorphism_residual(), _reference_residual(r)
        assert got == want or abs(got - want) <= 1e-12, (got, want)
    assert nudged.homomorphism_residual() > (1e-7 if rep.perms is None else 1.0)
