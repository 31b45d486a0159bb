import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import groups as groups_module
from groupavg import reps as reps_module
from groupavg import (
    NumericalConsistencyError,
    Representation,
    SizeLimitError,
    UsageError,
    certify,
    conjugacy_classes,
    direct_sum,
    eigen_profile,
    invariant_dimension,
    irreps_of,
    invariant_projector,
    k_bound,
    parse_group_spec,
    permutation_rep,
    random_scheme,
    regular_k_bound,
    regular_rep,
    rep_to_text,
    sign_action_rep,
    sym_power_rep,
    tensor_product,
    trivial_rep,
)
from groupavg.errors import MEMORY_CAP_BYTES
from groupavg.groups import custom_group
from groupavg.reps import power_class_map, sym_power_characters
from oracles import (
    all_pairs_homomorphism_residual,
    character_layer_reps,
    eigvals_profile,
    forked_homomorphism_residual,
    per_basis_homomorphism_residual,
    power_class_map_by_loop,
    seeded_pairs,
    signed_homomorphism_by_pairs,
    signed_permutation_by_masks,
    stacked_homomorphism_residual,
    sym_power_character_by_restart,
    sym_power_dense_by_pairs,
    sym_power_perms_by_loop,
)
from test_irreps import TABLE_SPECS

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
        regular_rep(parse_group_spec("cyclic:4097"))


def test_regular_rep_cap_is_a_byte_estimate(monkeypatch):
    assert 512**3 * 16 == MEMORY_CAP_BYTES < 513**3 * 16
    with pytest.raises(SizeLimitError, match="2,160,091,152 bytes"):
        regular_rep(parse_group_spec("cyclic:513"))

    class Allocating(Exception):
        pass

    def stop(perm, sign):
        raise Allocating

    # order 512 passes the check; the 2 GiB stack is built on the first
    # read of .mats, so stop it there
    monkeypatch.setattr(reps_module, "_mats_from_perms", stop)
    rep = regular_rep(parse_group_spec("cyclic:512"))
    with pytest.raises(Allocating):
        rep.mats


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_regular_rep_holds_its_table_not_its_stack():
    # the largest order the cap admits: the dense stack would take 2 GiB
    c512 = parse_group_spec("cyclic:512")
    assert _traced_peak(lambda: regular_rep(c512)) < 16 * 2**20
    # the projector path reads the table: the stack alone would take 33.5 MB
    c128 = parse_group_spec("cyclic:128")
    assert _traced_peak(lambda: certify(random_scheme(c128, 8, 0), regular_rep(c128))) < 12 * 2**20


def test_sign_flip_certificate_reads_neither_table_nor_stack():
    # the sign action reads only generator rows of a closed-form group; the
    # signflip:10 table alone would take 8 MiB and the stack 1.6 MiB, and
    # the whole run peaked at 15.1 MiB when both were built
    holder = {}

    def run():
        group = parse_group_spec("signflip:10")
        rep = sign_action_rep(group)
        holder.update(group=group, rep=rep, report=certify(random_scheme(group, 8, 7), rep))

    assert _traced_peak(run) < 4 * 2**20
    assert holder["group"]._mult is None and holder["rep"]._mats is None
    assert (holder["report"].eps_weak, holder["report"].eps_strong) == (0.5625, 1.125)


def test_signed_actions_certify_without_their_stack(monkeypatch):
    # each step of the projector path reads the signed form: the stack,
    # which the first read of .mats would build, is never asked for
    def stop(perm, sign):
        raise AssertionError("the dense stack was built")

    monkeypatch.setattr(reps_module, "_mats_from_perms", stop)
    for rep in (sign_action_rep(parse_group_spec("signflip:10")),
                sym_power_rep(sign_action_rep(parse_group_spec("signflip:6")), 2),
                regular_rep(parse_group_spec("cyclic:64"))):
        report = certify(random_scheme(rep.group, 8, 3), rep)
        assert 0 < report.eps_weak <= report.eps_strong and rep._mats is None


def test_signed_form_constructor_checks_its_rows():
    c3 = parse_group_spec("cyclic:3")
    perm, sign = c3.mult.copy(), np.ones((3, 3), dtype=np.int8)
    rep = Representation(c3, None, signed=(perm, sign))
    assert rep.dim == 3 and rep.perms is not None
    assert np.array_equal(rep.mats, regular_rep(c3).mats)
    for row, col, value in [(1, 0, 2), (2, 2, 5), (2, 0, -1)]:  # a repeat, out of range, negative
        bad = perm.copy()
        bad[row, col] = value
        with pytest.raises(UsageError, match="permutation"):
            Representation(c3, None, signed=(bad, sign))
    halved = sign.copy()
    halved[1, 1] = 2
    with pytest.raises(UsageError, match="permutation"):
        Representation(c3, None, signed=(perm, halved))
    with pytest.raises(NumericalConsistencyError, match="identity"):
        Representation(c3, None, signed=(perm[[1, 0, 2]], sign))
    flipped = sign.copy()
    flipped[0, 2] = -1
    with pytest.raises(NumericalConsistencyError, match="identity"):
        Representation(c3, None, signed=(perm, flipped))
    unsigned = perm.astype(np.uint64)  # uint64 + int64 offsets would be float
    for form in [(perm[:2], sign[:2]), (perm, sign[:, :2]), (perm + 0.0, sign), (unsigned, sign),
                 (perm[0], sign[0])]:
        with pytest.raises(UsageError):
            Representation(c3, None, signed=form)
    negated = sign.copy()
    negated[1:] = -1
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        Representation(c3, None, signed=(perm, negated))  # -rho(1) squared is not -rho(2)


@pytest.mark.parametrize("corruption", ["swap", "extra-entry"])
def test_perm_rep_reads_its_perms_off_the_matrices(corruption):
    c5 = parse_group_spec("cyclic:5")
    mats = regular_rep(c5).mats.copy()
    if corruption == "swap":
        mats[[2, 3]] = mats[[3, 2]]  # still a unitary permutation matrix per element
        with pytest.raises(NumericalConsistencyError, match="homomorphism"):
            Representation(c5, mats)
    else:
        mats[2, 0, 0] = 1e-12  # no longer a permutation matrix, within the float tolerances
        rep = Representation(c5, mats)
        assert rep.perms is None and rep.signed_permutation() is None


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


def test_perm_homomorphism_check_uses_every_generator():
    # relabel the regular rep of signflip:3 by swapping elements 2 and 3:
    # the relabelling commutes with right multiplication by the first
    # generator, 1, so the check on 1 alone passes; 2 and 4 expose it
    group = parse_group_spec("signflip:3")
    assert group.generators == (1, 2, 4)
    good = regular_rep(group)
    order = np.array([0, 1, 3, 2, 4, 5, 6, 7])
    bad = Representation(group, good.mats[order], validate=False)
    assert np.array_equal(bad.perms[group.mult[:, 1]], bad.perms[:, bad.perms[1]])
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        bad.validate()


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
    with pytest.raises(SizeLimitError, match="use sym_power_characters"):
        sym_power_rep(permutation_rep(parse_group_spec("symmetric:4")), 40)  # C(43, 40) > cap


def test_sym_power_of_degree_one_has_the_bits_of_the_base():
    # the degree-1 recursion of a dense rep, and the signed form of a signed action
    s3 = parse_group_spec("symmetric:3")
    dense = irreps_of(s3).irreps[2]  # the standard irrep
    signed = sign_action_rep(parse_group_spec("signflip:3"))
    assert dense.signed_permutation() is None and signed.signed_permutation() is not None
    for rep in (dense, signed, permutation_rep(s3)):
        assert sym_power_rep(rep, 1).mats.tobytes() == rep.mats.tobytes(), rep.name


def test_sym_power_character_frozen():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    chi = rep.character()
    walk = list(sym_power_characters(chi, 2))
    assert np.allclose(walk[0].values, 1.0)
    assert np.allclose(walk[1].values, chi.values)
    # frozen from the explicit degree-2 matrices: traces (6, 2, 0)
    assert np.allclose(walk[2].values, [6.0, 2.0, 0.0])


def test_sym_power_dense_matches_perm_path():
    s3 = parse_group_spec("symmetric:3")
    rep = permutation_rep(s3)
    for k in (2, 3):
        via_perms = sym_power_rep(rep, k)
        via_dense = Representation(s3, reps_module._sym_power_dense(rep, k))
        assert np.allclose(
            via_perms.character().values, via_dense.character().values, atol=1e-10
        )


def _dense_power_cases() -> list[Representation]:
    """Dense bases of dimension 2 to 27: irreps of dihedral:7 and symmetric:5,
    the triple tensor power of symmetric:4's 3-dimensional irrep, and a
    dense copy of symmetric:4's regular action."""
    s4 = parse_group_spec("symmetric:4")
    three = next(r for r in irreps_of(s4).irreps if r.dim == 3)
    cases = [next(r for r in irreps_of(parse_group_spec("dihedral:7")).irreps if r.dim == 2),
             three, max(irreps_of(parse_group_spec("symmetric:5")).irreps, key=lambda r: r.dim),
             tensor_product(tensor_product(three, three), three),
             Representation(s4, regular_rep(s4).mats, signed=None)]
    assert all(r.signed_permutation() is None for r in cases)
    return cases


@pytest.mark.parametrize("block_entries", [None, 1], ids=["blocks-of-1MiB", "row-per-block"])
def test_dense_sym_power_has_the_bits_of_the_pair_loop(block_entries, monkeypatch):
    """Each degree up to 3 within the dimension cap has the bytes of one
    gather per coordinate pair, pinned to the identity as the representation
    pins it, whatever the blocks of rows."""
    if block_entries is not None:
        monkeypatch.setattr(reps_module, "_DENSE_BLOCK_ENTRIES", block_entries)
    for rep in _dense_power_cases():
        for k in range(4):
            if math.comb(rep.dim + k - 1, k) > reps_module.SYM_POWER_DIM_CAP:
                continue
            want = Representation(rep.group, sym_power_dense_by_pairs(rep, k), validate=False)
            assert sym_power_rep(rep, k).mats.tobytes() == want.mats.tobytes(), (rep.name, k)


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
    *_, chi_rec = sym_power_characters(rep.character(), k)
    assert np.abs(chi_explicit.values - chi_rec.values).max() < 1e-8


def test_sym_power_walk_matches_restarted_recursion(small_groups):
    for spec, group in small_groups.items():
        part = conjugacy_classes(group)
        for rep in character_layer_reps(group):
            chi = rep.character(part)
            walk = [chi_k.values for chi_k in sym_power_characters(chi, 5)]
            for k in range(6):
                want = sym_power_character_by_restart(chi.values, group, part, k)
                assert np.array_equal(walk[k], want), (spec, rep.name, k)
                *_, last = sym_power_characters(chi, k)  # a walk that ends at degree k
                assert np.array_equal(last.values, want)


def test_sym_power_stays_unitary():
    d4 = parse_group_spec("dihedral:4")
    power = Representation(d4, reps_module._sym_power_dense(regular_rep(d4), 2))
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


def _profile_cases(group):
    """Regular, trivial, the family's natural action, every irrep, a direct
    sum, a tensor product and symmetric squares."""
    table = irreps_of(group)
    top = table.irreps[-1]
    cases = [regular_rep(group), trivial_rep(group), *table.irreps,
             direct_sum(top, trivial_rep(group)), tensor_product(top, top), sym_power_rep(top, 2)]
    if group.family == "symmetric":
        cases += [permutation_rep(group), sym_power_rep(permutation_rep(group), 2)]
    if group.family == "sign_flip":
        cases += [sign_action_rep(group), sym_power_rep(sign_action_rep(group), 2)]
    return cases


def test_eigen_profile_matches_eigvals_oracle(small_groups):
    for spec, group in small_groups.items():
        for rep in _profile_cases(group):
            fractions, max_mult = eigvals_profile(rep)
            prof = eigen_profile(rep)
            assert prof.fractions == fractions, (spec, rep.name)
            assert np.array_equal(prof.max_mult, max_mult), (spec, rep.name)
            expect = np.array([np.exp(2j * np.pi * p / q) for p, q in fractions])
            assert np.array_equal(prof.roots, expect), (spec, rep.name)


def test_eigen_profile_rejects_a_non_integer_multiplicity():
    # traces (1, 0.5) on C2 would give the roots 1 and -1 multiplicities 0.75 and 0.25
    c2 = parse_group_spec("cyclic:2")
    with pytest.raises(NumericalConsistencyError, match="multiplicity"):
        reps_module._character_profile(c2, np.array([1.0, 0.5]))


def test_power_class_map_matches_loop_oracle(small_groups):
    for spec in [*small_groups, "symmetric:4", "product(cyclic:3,dihedral:4)"]:
        group = small_groups.get(spec) or parse_group_spec(spec)
        part = conjugacy_classes(group)
        for max_power in (0, 1, 7, 25):
            got = power_class_map(group, part, max_power)
            assert np.array_equal(got, power_class_map_by_loop(group, part, max_power)), spec


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
    for spec in ("cyclic:6", "dihedral:4", "symmetric:3", "signflip:3", "cyclic:12",
                 "dihedral:7", "symmetric:4", "cyclic:30", "product(cyclic:3,dihedral:4)"):
        group = small_groups.get(spec) or parse_group_spec(spec)
        assert regular_k_bound(group) == k_bound(regular_rep(group)), spec


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

HOM_PATHS = ["perm", "signed-1x1", "signed", "exhaustive-1x1", "exhaustive", "sampled-1x1",
             "sampled"]


def _parity_character(d: int) -> Representation:
    group = parse_group_spec(f"signflip:{d}")
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(group.order)) % 2)
    return Representation(group, signs.astype(complex).reshape(-1, 1, 1), name="parity")


def _cyclic_character(n: int) -> Representation:
    group = parse_group_spec(f"cyclic:{n}")
    values = np.exp(2j * np.pi * np.arange(n) / n)
    return Representation(group, values.reshape(-1, 1, 1), name="chi1")


def _rotated_sign_action(d: int) -> Representation:
    """The sign action of signflip:d in a fixed random orthonormal basis:
    dense real matrices, no longer signed permutations."""
    rep = sign_action_rep(parse_group_spec(f"signflip:{d}"))
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    return Representation(rep.group, q @ rep.mats @ q.T, name="rotated")


def _path_rep(path: str) -> Representation:
    """A representation whose homomorphism check takes the named path.

    Signed permutation matrices take the exact path on generators; other
    matrices are checked in floats, each element against the group's word
    basis.  The "exhaustive" cases have orders up to 256, where
    :func:`forked_homomorphism_residual` checks all pairs, the "sampled"
    ones lie above, where it checks seeded pairs only.
    """
    if path == "perm":
        return permutation_rep(parse_group_spec("symmetric:4"))
    if path == "signed-1x1":
        return _parity_character(8)
    if path == "signed":
        return sign_action_rep(parse_group_spec("signflip:7"))
    if path == "exhaustive-1x1":
        return _cyclic_character(200)
    if path == "exhaustive":
        table = irreps_of(parse_group_spec("dihedral:60"))
        return table.irreps[table.dims.index(2)]
    if path == "sampled-1x1":
        return _cyclic_character(300)
    return _rotated_sign_action(9)


def _checked_pairs(rep: Representation) -> list[tuple[int, int]]:
    """Every pair on signed permutation matrices; otherwise each element
    against each word-basis element."""
    n = rep.group.order
    if rep.signed_permutation() is not None:
        return [(g, h) for g in range(n) for h in range(n)]
    basis, _ = rep.group.word_basis()
    return [(g, t) for g in range(n) for t in basis]


def _word_factor(group) -> float:
    """L (1 + sigma) sigma**(L - 1): the worst basis pair times this bounds
    every pair, with L the word depth and sigma**2 = 1 + UNITARITY_TOL."""
    _, depth = group.word_basis()
    sigma = math.sqrt(1 + reps_module.UNITARITY_TOL)
    return depth * (1 + sigma) * sigma ** max(depth - 1, 0)


def _reference_residual(rep: Representation) -> float:
    """Per-pair loop; on signed permutation matrices, 0 or inf as the exact
    path, otherwise the worst checked pair scaled to the all-pairs bound."""
    mult = rep.group.mult
    pairs = _checked_pairs(rep)
    if rep.perms is not None:
        ok = all(
            np.array_equal(rep.perms[mult[g, h]], rep.perms[g][rep.perms[h]]) for g, h in pairs
        )
        return 0.0 if ok else float("inf")
    worst = max(
        float(np.linalg.norm(rep.mats[mult[g, h]] - rep.mats[g] @ rep.mats[h])) for g, h in pairs
    )
    if rep.signed_permutation() is not None:
        return 0.0 if worst <= RESID else float("inf")
    return _word_factor(rep.group) * worst


def _corruptible_element(rep: Representation) -> int:
    """First checked g in a pair (g, h) with g and h both non-identity."""
    return next(g for g, h in _checked_pairs(rep) if g and h)


def _corrupted(rep: Representation, g: int, phase: float) -> Representation:
    """Copy of ``rep`` with element g changed, still unitary and on the same
    path: another element's matrix on a permutation action, the negated
    matrix on other signed permutation matrices, a phase factor otherwise."""
    mats = rep.mats.copy()
    if rep.perms is not None:
        mats[g] = mats[g + 1]
    elif rep.signed_permutation() is not None:
        mats[g] *= -1
    else:
        mats[g] *= np.exp(1j * phase)
    return Representation(rep.group, mats, name="corrupted", validate=False)


@pytest.mark.parametrize("path", HOM_PATHS)
def test_homomorphism_check_rejects_one_corrupted_element(path):
    rep = _path_rep(path)
    bad = _corrupted(rep, _corruptible_element(rep), np.pi)
    assert (bad.signed_permutation() is None) == path.startswith(("exhaustive", "sampled"))
    assert bad.unitarity_residual() < RESID
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        bad.validate()


@pytest.mark.parametrize("path", HOM_PATHS)
def test_homomorphism_residual_matches_per_pair_loop(path):
    rep = _path_rep(path)
    nudged = _corrupted(rep, _corruptible_element(rep), 1e-6)
    for r in (rep, nudged):
        got, want = r.homomorphism_residual(), _reference_residual(r)
        assert got == want or abs(got - want) <= 1e-12 * want, (got, want)
    exact = rep.signed_permutation() is not None
    assert nudged.homomorphism_residual() > (1.0 if exact else 1e-7)


def _with_nan(case: str) -> tuple:
    """Group and matrices of a float-path representation with one NaN entry
    at an element that the homomorphism check reaches."""
    if case == "1x1":
        rep, g = _cyclic_character(3), 1
    elif case == "2x2":
        table = irreps_of(parse_group_spec("dihedral:5"))
        rep, g = table.irreps[table.dims.index(2)], 1
    else:
        rep = _cyclic_character(300)
        g = _corruptible_element(rep)
    mats = rep.mats.copy()
    mats[g, 0, -1] = np.nan
    return rep.group, mats


@pytest.mark.parametrize("case", ["1x1", "2x2", "sampled-1x1"])
def test_nan_matrices_fail_validation(case):
    group, mats = _with_nan(case)
    assert np.isnan(Representation(group, mats, validate=False).homomorphism_residual())
    with pytest.raises(NumericalConsistencyError, match="unitarity"):
        Representation(group, mats)


def test_nan_identity_is_rejected():
    rep = _cyclic_character(3)
    mats = rep.mats.copy()
    mats[0] = np.nan
    with pytest.raises(NumericalConsistencyError, match="identity"):
        Representation(rep.group, mats)


def test_identity_check_is_a_frobenius_distance():
    c3 = parse_group_spec("cyclic:3")
    mats = regular_rep(c3).mats.copy()
    mats[0, 0, 1] = 0.9e-9j
    rep = Representation(c3, mats.copy())  # within IDENTITY_TOL, and pinned to the identity
    assert np.array_equal(rep.mats[0], np.eye(3)) and rep.perms is not None
    mats[0, 1, 0] = 0.9e-9  # each entry within the tolerance, the distance 1.27e-9 above it
    with pytest.raises(NumericalConsistencyError, match="identity"):
        Representation(c3, mats)


def test_the_identity_pin_leaves_the_given_array_alone():
    c3 = parse_group_spec("cyclic:3")
    mats = regular_rep(c3).mats.copy()
    mats[0, 0, 1] = 0.9e-9j  # within IDENTITY_TOL
    given = mats.copy()
    first = Representation(c3, mats)
    assert np.array_equal(first.mats[0], np.eye(3)) and mats.tobytes() == given.tobytes()
    mats[0, 1, 0] = 0.9e-9  # the distance 1.27e-9 now lies above the tolerance
    with pytest.raises(NumericalConsistencyError, match="identity"):
        Representation(c3, mats)
    mats[0, 1, 0] = -0.0  # a signed zero is a changed byte too
    given = mats.copy()
    for signed in ({}, {"signed": None}):
        pinned = Representation(c3, mats, **signed)
        assert pinned.mats[0].tobytes() == np.eye(3, dtype=complex).tobytes()
        assert mats.tobytes() == given.tobytes() and pinned.mats is not mats
    exact = regular_rep(c3).mats.copy()
    assert Representation(c3, exact).mats is exact  # nothing to pin, nothing copied
    assert Representation(c3, exact, signed=None).mats is exact


def test_an_order_one_dense_rep_checks_against_an_empty_word_basis():
    for group in (parse_group_spec("symmetric:1"), custom_group([[0]]), parse_group_spec("cyclic:1")):
        rep = Representation(group, np.ones((1, 1, 1)), signed=None)
        assert group.word_basis() == ((), 0) and rep.homomorphism_residual() == 0.0


def test_nan_trace_fails_the_character_class_check():
    rep = _cyclic_character(3)
    mats = rep.mats.copy()
    mats[1] = np.nan
    with pytest.raises(NumericalConsistencyError, match="character varies"):
        Representation(rep.group, mats, validate=False).character()


def test_empty_matrices_are_a_usage_error():
    with pytest.raises(UsageError, match="dim >= 1"):
        Representation(parse_group_spec("cyclic:3"), np.zeros((3, 0, 0)), validate=False)


# -- exact path on signed permutation matrices --------------------------------

EQUIVALENCE_SPECS = [
    "signflip:4", "signflip:6", "dihedral:8", "dihedral:32", "symmetric:4", "cyclic:64",
    "product(cyclic:2,symmetric:4)", "product(signflip:2,dihedral:4)",
    "product(cyclic:3,dihedral:10)",
]


def _signed_cases(group) -> list[Representation]:
    """Signed permutation representations: up to four +-1 characters, and
    the last of them times a permutation action (the regular one up to
    order 16, the family's natural one above)."""
    chars = [r for r in irreps_of(group).irreps
             if r.dim == 1 and not r.mats.imag.any() and np.all(np.abs(r.mats.real) == 1)]
    cases = chars[:: max(1, len(chars) // 4)][:4]
    if group.order <= 16:
        action = regular_rep(group)
    elif group.family == "symmetric":
        action = permutation_rep(group)
    elif group.family == "sign_flip":
        action = sign_action_rep(group)
    else:
        return cases
    return [*cases, tensor_product(cases[-1], action)]


def _corruptions(rep: Representation, rng) -> list[tuple[str, np.ndarray]]:
    """The clean matrices, one element's sign flipped (one column of its
    matrix), two elements' matrices swapped, and a second nonzero +-1 in
    one column of one element's matrix."""
    n, d = rep.group.order, rep.dim
    out = [("clean", rep.mats)]
    if n < 3:
        return out
    g, h = rng.choice(np.arange(1, n), size=2, replace=False)
    j = int(rng.integers(d))
    flipped = rep.mats.copy()
    flipped[g, :, j] *= -1
    swapped = rep.mats.copy()
    swapped[[g, h]] = swapped[[h, g]]
    out += [("sign", flipped), ("swap", swapped)]
    if d > 1:
        doubled = rep.mats.copy()
        i = int(rng.choice(np.flatnonzero(doubled[g, :, j] == 0)))
        doubled[g, i, j] = rng.choice([-1.0, 1.0])
        out.append(("column", doubled))
    return out


def _unitary(rep: Representation) -> bool:
    eye = np.eye(rep.dim)
    return all(np.linalg.norm(m.conj().T @ m - eye) <= RESID for m in rep.mats)


def test_exact_path_accepts_exactly_what_the_pair_loop_accepts(small_groups):
    rng = np.random.default_rng(909)
    verdicts = {True: 0, False: 0}
    groups = [*small_groups.values(), *map(parse_group_spec, EQUIVALENCE_SPECS)]
    for group in groups:
        assert group.order <= 64
        for rep in _signed_cases(group):
            for kind, mats in _corruptions(rep, rng):
                case = Representation(group, mats, name=kind, validate=False)
                assert (case.signed_permutation() is None) == (kind == "column"), kind
                want = _unitary(case) and _reference_residual(case) <= RESID
                try:
                    case.validate()
                    got = True
                except NumericalConsistencyError:
                    got = False
                assert got == want, (group, rep.name, kind)
                verdicts[got] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_signed_permutation_reads_perm_and_sign():
    s3 = parse_group_spec("symmetric:3")
    sign = irreps_of(s3).irreps[1]  # the sign character
    action = Representation(s3, permutation_rep(s3).mats)
    perm, signs = tensor_product(sign, action).signed_permutation()
    assert np.array_equal(perm, permutation_rep(s3).perms)
    assert np.array_equal(signs, np.repeat(sign.mats.real.reshape(-1, 1), 3, axis=1))
    assert signs.dtype == np.int8
    assert _cyclic_character(4).signed_permutation() is None  # i is not real
    assert _rotated_sign_action(3).signed_permutation() is None


def _signed_form_cases(group, rng) -> list[tuple[str, np.ndarray]]:
    """Stacks the signed-permutation form is compared on: the regular,
    trivial and the family's natural action and every irrep, the direct
    sum and tensor product of each pair of them, the corrupted signed
    cases, and the regular action with a NaN or an infinity in one entry
    of its last element's matrix."""
    base = [regular_rep(group), trivial_rep(group)]
    if group.family == "symmetric":
        base.append(permutation_rep(group))
    if group.family == "sign_flip":
        base.append(sign_action_rep(group))
    base += irreps_of(group).irreps
    cases = [(rep.name, rep.mats) for rep in base]
    for i, a in enumerate(base):
        for b in base[i:]:
            cases += [("+", direct_sum(a, b).mats), ("x", tensor_product(a, b).mats)]
    for rep in _signed_cases(group):
        cases += _corruptions(rep, rng)
    if group.order > 1:
        g = group.order - 1
        one = int(group.mult[g, 0])  # the 1 in column 0 of the last element's matrix
        for value in (np.nan, np.inf, -np.inf, complex(1, np.nan), complex(1, np.inf)):
            for row in {one, (one + 1) % group.order}:
                mats = regular_rep(group).mats.copy()
                mats[g, row, 0] = value
                cases.append((f"{value}@{row}", mats))
    return cases


def test_signed_form_matches_the_mask_oracle(small_groups):
    rng = np.random.default_rng(31)
    found = {True: 0, False: 0}
    for spec, group in small_groups.items():
        for name, mats in _signed_form_cases(group, rng):
            rep = Representation(group, mats, validate=False)
            got, want = rep.signed_permutation(), signed_permutation_by_masks(rep.mats)
            assert (got is None) == (want is None), (spec, name)
            found[want is None] += 1
            if want is None:
                assert rep.perms is None, (spec, name)
                continue
            assert np.array_equal(got[0], want[0]) and got[0].dtype == np.int64, (spec, name)
            assert np.array_equal(got[1], want[1]) and got[1].dtype == np.int8, (spec, name)
            if np.all(want[1] == 1):
                assert np.array_equal(rep.perms, want[0]), (spec, name)
            else:
                assert rep.perms is None, (spec, name)
    assert min(found.values()) > 100, found


def _same_signed_form(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return (np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
            and np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype)


def test_stacked_signed_forms_match_the_per_matrix_form(small_groups):
    rng = np.random.default_rng(37)
    found = {True: 0, False: 0}
    mixed = 0
    for spec, group in small_groups.items():
        by_dim: dict[int, list[np.ndarray]] = {}
        for name, mats in _signed_form_cases(group, rng):
            pinned = Representation(group, mats, validate=False).mats
            by_dim.setdefault(pinned.shape[1], []).append(pinned)
        for dim, blocks in by_dim.items():
            signed = [b for b in blocks if signed_permutation_by_masks(b) is not None]
            if dim > 1 and signed and group.order > 1:
                shared = signed[0].copy()
                shared[-1, :, 1] = shared[-1, :, 0]  # two columns hit one row
                blocks.append(shared)
            # signed and unsigned blocks interleaved
            stack = np.stack(blocks)[rng.permutation(len(blocks))]
            forms = reps_module._signed_permutations(stack)
            assert len(forms) == len(blocks)
            for block, form in zip(stack, forms):
                want = signed_permutation_by_masks(block)
                assert _same_signed_form(form, want), (spec, dim)
                found[want is None] += 1
            mixed += len({form is None for form in forms}) == 2
            # element 0 is read as the identity a representation pins it to
            if group.order > 1:
                unpinned = stack.copy()
                unpinned[:, 0] = rng.normal(size=unpinned[:, 0].shape)
                unpinned[:, 0, 0, 0] = np.nan
                assert all(_same_signed_form(a, b) for a, b in
                           zip(reps_module._signed_permutations(unpinned), forms)), (spec, dim)
    assert min(found.values()) > 100 and mixed >= 10, (found, mixed)


def test_exact_path_rejects_a_corruption_the_sampled_pairs_miss():
    # the seeded pairs on signflip:10 never touch one element, as g, h or g*h
    # (on signflip:9 every element is reached by some pair)
    rep = _parity_character(10)
    group = rep.group
    touched = set()
    for g, h in seeded_pairs(group.order):
        touched |= {g, h, int(group.mult[g, h])}
    missed = sorted(set(range(group.order)) - touched)
    assert missed
    mats = rep.mats.copy()
    mats[missed[0]] *= -1
    bad = Representation(group, mats, validate=False)
    assert forked_homomorphism_residual(bad.mats, group.mult) == 0.0
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        bad.validate()


def test_sign_flip_irreps_never_enter_the_float_kernel(monkeypatch):
    class FloatKernel(Exception):
        pass

    def refuse(*args):
        raise FloatKernel

    # the stacked kernels, which the per-irrep residuals call as their one-block case
    monkeypatch.setattr(reps_module, "_homomorphism_residuals", refuse)
    monkeypatch.setattr(reps_module, "_unitarity_residuals", refuse)
    table = irreps_of(parse_group_spec("signflip:6"))
    assert len(table) == 64
    sign_action_rep(table.group)
    with pytest.raises(FloatKernel):  # the 2-dim irrep is not a signed permutation
        irreps_of(parse_group_spec("dihedral:4"))


# -- diagonal signed forms -------------------------------------------------------


def _diagonal_forms() -> list[tuple[str, object, tuple[np.ndarray, np.ndarray]]]:
    """Every +-1 irrep form of the ``TABLE_SPECS`` tables and the sign actions
    of signflip:1..6, as ``(name, group, (perm, sign))``."""
    cases = []
    for spec in TABLE_SPECS:
        for irrep in irreps_of(parse_group_spec(spec)).irreps:
            if irrep.dim == 1 and irrep.signed_permutation() is not None:
                cases.append((f"{spec} {irrep.name}", irrep.group, irrep.signed_permutation()))
    for d in range(1, 7):
        rep = sign_action_rep(parse_group_spec(f"signflip:{d}"))
        cases.append((rep.name, rep.group, rep.signed_permutation()))
    return cases


def test_diagonal_forms_match_the_all_pairs_oracle():
    cases = _diagonal_forms()
    assert sum(group.family == "symmetric" for _, group, _ in cases) >= 8
    refused = 0
    for name, group, (perm, sign) in cases:
        assert reps_module._signed_homomorphism_holds(group, perm, sign), name
        assert signed_homomorphism_by_pairs(group, perm, sign), name
        for g in range(1, group.order):  # one sign flipped at each non-identity element
            flipped = sign.copy()
            flipped[g, g % sign.shape[1]] *= -1
            got = reps_module._signed_homomorphism_holds(group, perm, flipped)
            assert got == signed_homomorphism_by_pairs(group, perm, flipped), (name, g)
            # with an element a outside {e, g}, the pair (a, a^-1 g) sees the flip
            assert not got or group.order <= 2, (name, g)
            refused += not got
    assert refused == sum(group.order - 1 for _, group, _ in cases if group.order > 2) > 800


def test_a_form_that_only_its_permutation_breaks_is_refused():
    # signflip:2 on two coordinates, every sign +1: diagonal except that
    # element 3 swaps the coordinates, so the sign law holds and the
    # permutation law fails (rho(1) rho(2) = I, rho(3) a swap)
    group = parse_group_spec("signflip:2")
    perm = np.tile(np.arange(2), (4, 1))
    perm[3] = [1, 0]
    sign = np.ones((4, 2), dtype=np.int8)
    assert not signed_homomorphism_by_pairs(group, perm, sign)
    assert not reps_module._signed_homomorphism_holds(group, perm, sign)
    with pytest.raises(NumericalConsistencyError, match="homomorphism"):
        Representation(group, None, signed=(perm, sign))
    # the regular action of cyclic:5 with two rows of element 2 swapped
    c5 = parse_group_spec("cyclic:5")
    perm = c5.mult.copy()
    perm[2, [0, 1]] = perm[2, [1, 0]]
    sign = np.ones((5, 5), dtype=np.int8)
    assert not signed_homomorphism_by_pairs(c5, perm, sign)
    assert not reps_module._signed_homomorphism_holds(c5, perm, sign)


def test_one_by_one_forms_of_a_stack_share_one_read_only_permutation():
    for spec in ("signflip:3", "dihedral:4", "symmetric:4", "product(signflip:2,cyclic:2)"):
        table = irreps_of(parse_group_spec(spec))
        forms = [r.signed_permutation() for r in table.irreps if r.dim == 1]
        perms = [form[0] for form in forms if form is not None]
        assert len(perms) >= 2, spec
        shared = perms[0]
        assert all(p is shared for p in perms), spec
        assert shared.shape == (table.group.order, 1) and shared.dtype == np.intp
        assert not shared.any() and not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1
        assert all(form[1].dtype == np.int8 for form in forms if form is not None)


def test_sign_action_peaks_under_a_mebibyte():
    # the diagonal check reads (order, generators) signs; the general one
    # gathered (order, generators, dim) int64 positions: 2.8 MB at signflip:10
    group = parse_group_spec("signflip:10")
    assert _traced_peak(lambda: sign_action_rep(group)) < 2**20


# -- float check against the word basis -----------------------------------------

BOUND_SPECS = ["dihedral:60", "symmetric:5", "symmetric:6", "product(cyclic:3,dihedral:12)",
               "cyclic:300"]


def test_float_check_rejects_corruptions_the_seeded_pairs_miss():
    for n, g in ((300, 141), (1000, 53)):
        bad = _corrupted(_cyclic_character(n), g, np.pi)  # negated
        assert forked_homomorphism_residual(bad.mats, bad.group.mult) <= RESID
        assert all_pairs_homomorphism_residual(bad.mats, bad.group.mult) >= 2.0
        with pytest.raises(NumericalConsistencyError, match="homomorphism"):
            bad.validate()


def test_every_negated_element_of_a_cyclic_character_is_rejected():
    rep = _cyclic_character(300)
    missed = 0
    for g in range(1, rep.group.order):
        bad = _corrupted(rep, g, np.pi)  # negated
        missed += forked_homomorphism_residual(bad.mats, bad.group.mult) <= RESID
        with pytest.raises(NumericalConsistencyError, match="homomorphism"):
            bad.validate()
    assert missed == 2  # what a check on seeded pairs lets through


def test_homomorphism_residual_bounds_every_pair():
    """oracle <= residual <= L (1 + sigma) sigma**(L - 1) * oracle, with the
    all-pairs oracle; signed permutation matrices give 0 on both sides."""
    cases = [_path_rep(path) for path in HOM_PATHS]
    for spec in BOUND_SPECS:
        cases += [r for r in irreps_of(parse_group_spec(spec)).irreps
                  if r.signed_permutation() is None]
    assert sum(r.signed_permutation() is None for r in cases) > 20
    for rep in cases:
        oracle = all_pairs_homomorphism_residual(rep.mats, rep.group.mult)
        resid = rep.homomorphism_residual()
        assert oracle <= resid <= _word_factor(rep.group) * oracle, (rep.group, rep.name)


def test_row_gemm_residual_matches_the_stacked_products():
    """One ``(order * dim, dim)`` product per basis element gives the residual
    of the per-element stacked products, up to the rounding of the norms."""
    cases = []
    for spec in ("dihedral:58", "symmetric:5", "product(cyclic:3,dihedral:12)"):
        irreps = [r for r in irreps_of(parse_group_spec(spec)).irreps if r.dim > 1]
        cases += irreps + [_corrupted(r, g, phase) for r in irreps[:2] for g in (1, r.group.order - 1)
                           for phase in (1e-6, np.pi)]
    for rep in cases:
        got = reps_module._dense_homomorphism_residual(rep.mats, rep.group)
        want = stacked_homomorphism_residual(rep.mats, rep.group)
        assert abs(got - want) <= 1e-12 * want, (rep.group, rep.name, got, want)


@pytest.mark.parametrize("block_entries", [None, 1], ids=["one-block", "block-per-basis-element"])
def test_one_pass_residual_has_the_bits_of_the_per_basis_loop(block_entries, monkeypatch):
    """Every dense irrep of every ``TABLE_SPECS`` table, and the larger tables
    the certify-fourier workload builds, read the residual of the per-basis
    loop bit for bit, in one block or split as a large irrep splits it;
    corrupted copies and a NaN do too, and still fail."""
    if block_entries is not None:
        monkeypatch.setattr(reps_module, "_DENSE_BLOCK_ENTRIES", block_entries)
    specs = TABLE_SPECS + ["dihedral:57", "product(cyclic:3,dihedral:12)",
                           "product(cyclic:2,symmetric:4)", "cyclic:300"]
    dense = [r for spec in specs for r in irreps_of(parse_group_spec(spec)).irreps
             if r.signed_permutation() is None]
    assert {r.dim for r in dense} == {1, 2, 3, 4, 5, 6}
    for rep in dense:
        got = reps_module._dense_homomorphism_residual(rep.mats, rep.group)
        want = per_basis_homomorphism_residual(rep.mats, rep.group)
        assert got.hex() == want.hex(), (rep.group, rep.name, got, want)
    for rep in (r for r in dense if r.group.order > 2 and r.dim > 1):
        bad = _corrupted(rep, rep.group.order - 1, np.pi / 3)
        got = reps_module._dense_homomorphism_residual(bad.mats, bad.group)
        assert got.hex() == per_basis_homomorphism_residual(bad.mats, bad.group).hex()
        with pytest.raises(NumericalConsistencyError, match="homomorphism"):
            bad.validate()
        mats = rep.mats.copy()
        mats[1, 0, -1] = np.nan
        assert math.isnan(reps_module._dense_homomorphism_residual(mats, rep.group))
        with pytest.raises(NumericalConsistencyError):
            Representation(rep.group, mats)


def test_one_table_build_makes_the_word_basis_products_once(monkeypatch):
    """All dense irreps of a table gather from one ``(order, basis)`` table
    of products g*t, cached on the group: a product table's build makes it
    once for the product and once for each factor's own table."""
    made = []
    cached = groups_module.Group.__dict__["_word_products"]
    original = cached.func
    monkeypatch.setattr(cached, "func", lambda group: made.append(group) or original(group))
    for spec in ("dihedral:57", "symmetric:5", "product(cyclic:3,dihedral:12)"):
        group = parse_group_spec(spec)
        table = irreps_of(group)
        assert sum(r.signed_permutation() is None for r in table.irreps) > 1
        assert [id(g) for g in made].count(id(group)) == 1
        assert len({id(g) for g in made}) == len(made) == (3 if group.factors else 1)
        basis = np.array(group.word_basis()[0])
        assert np.array_equal(group._word_products, group.mult[:, basis])
        made.clear()


def test_every_corrupted_element_of_a_two_dim_irrep_is_rejected():
    rep = next(r for r in irreps_of(parse_group_spec("dihedral:58")).irreps if r.dim == 2)
    for g in range(1, rep.group.order):
        bad = _corrupted(rep, g, np.pi / 3)
        assert bad.unitarity_residual() < RESID
        with pytest.raises(NumericalConsistencyError, match="homomorphism"):
            bad.validate()


# -- symmetric powers of signed permutation actions -------------------------------


def test_sym_power_of_a_signed_action_is_read_off_its_form():
    s4 = parse_group_spec("symmetric:4")
    sign = irreps_of(s4).irreps[1]  # the sign character
    all_plus = [permutation_rep(s4), regular_rep(parse_group_spec("dihedral:4")),
                trivial_rep(s4), direct_sum(permutation_rep(s4), trivial_rep(s4))]
    signed = [sign_action_rep(parse_group_spec("signflip:3")), _parity_character(4),
              tensor_product(sign, permutation_rep(s4)), sign]
    for k in (2, 3):
        for rep in all_plus:
            power = sym_power_rep(rep, k)
            assert np.array_equal(power.perms, sym_power_perms_by_loop(rep.perms, k)), rep.name
        for rep in signed:
            power = sym_power_rep(rep, k)
            assert power.signed_permutation() is not None, rep.name
            dense = reps_module._sym_power_dense(rep, k)
            assert np.abs(power.mats - dense).max() <= 1e-12, rep.name
