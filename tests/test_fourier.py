import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import (
    AveragingScheme,
    GroupMismatchError,
    GroupSignal,
    NumericalConsistencyError,
    Representation,
    apply_scheme,
    convolve,
    delta_scheme,
    direct_sum,
    fourier_transform,
    invariant_projector,
    inverse_fourier,
    irreps_of,
    max_nontrivial_norm,
    parse_group_spec,
    permutation_rep,
    plancherel_residual,
    random_scheme,
    regular_rep,
    sign_action_rep,
    sym_power_rep,
    tensor_product,
    trivial_rep,
    uniform_scheme,
)
from groupavg import fourier as fourier_module
from groupavg.fourier import coefficients_to_json, max_deviation, spectral_norm

from oracles import (
    dense_max_deviation,
    fourier_blocks_by_list,
    sorted_weak_visits,
    unpruned_max_nontrivial_norm,
)

SIGNAL_SPECS = ["cyclic:5", "signflip:2", "dihedral:4", "symmetric:3", "symmetric:4"]


@pytest.fixture(scope="module")
def tables():
    return {spec: irreps_of(parse_group_spec(spec)) for spec in SIGNAL_SPECS}


def test_uniform_signal_transform(tables):
    for table in tables.values():
        sig = uniform_scheme(table.group).to_signal()
        coeffs = fourier_transform(sig, table)
        assert abs(coeffs.mats[table.trivial_index][0, 0] - 1.0) < 1e-12
        for i, m in enumerate(coeffs.mats):
            if i != table.trivial_index:
                assert np.abs(m).max() < 1e-12
        assert max_nontrivial_norm(coeffs) < 1e-20


def test_delta_at_identity_transform(tables):
    for table in tables.values():
        sig = delta_scheme(table.group, 0).to_signal()
        coeffs = fourier_transform(sig, table)
        for d, m in zip(table.dims, coeffs.mats):
            assert np.abs(m - np.eye(d)).max() < 1e-12
        if len(table) > 1:
            assert abs(max_nontrivial_norm(coeffs) - 1.0) < 1e-12


def test_frozen_c2_value():
    table = irreps_of(parse_group_spec("cyclic:2"))
    sig = GroupSignal(group=table.group, weights=np.array([0.75, 0.25]))
    coeffs = fourier_transform(sig, table)
    assert abs(coeffs.mats[1][0, 0] - 0.5) < 1e-15
    assert abs(max_nontrivial_norm(coeffs) - 0.25) < 1e-15


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(SIGNAL_SPECS), seed=st.integers(0, 10_000))
def test_roundtrip_and_plancherel(spec, seed, tables):
    table = tables[spec]
    rng = np.random.default_rng(seed)
    sig = GroupSignal(group=table.group, weights=rng.normal(size=table.group.order))
    back = inverse_fourier(fourier_transform(sig, table), table)
    assert np.abs(back.weights - sig.weights).max() < 1e-10
    assert plancherel_residual(sig, table) < 1e-10


def test_inverse_of_uniform_coefficients(tables):
    table = tables["symmetric:3"]
    sig = uniform_scheme(table.group).to_signal()
    back = inverse_fourier(fourier_transform(sig, table), table)
    assert np.abs(back.weights - 1.0 / table.group.order).max() < 1e-12
    # all-zero coefficients invert to the zero signal
    zero = fourier_transform(GroupSignal(group=table.group, weights=np.zeros(6)), table)
    assert np.abs(inverse_fourier(zero, table).weights).max() == 0.0


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(SIGNAL_SPECS), seed=st.integers(0, 10_000))
def test_convolution_support_and_transform(spec, seed, tables):
    table = tables[spec]
    group = table.group
    rng = np.random.default_rng(seed)
    w1 = np.zeros(group.order)
    w2 = np.zeros(group.order)
    s1 = rng.choice(group.order, size=min(3, group.order), replace=False)
    s2 = rng.choice(group.order, size=min(2, group.order), replace=False)
    w1[s1] = rng.normal(size=s1.size)
    w2[s2] = rng.normal(size=s2.size)
    a, b = GroupSignal(group=group, weights=w1), GroupSignal(group=group, weights=w2)
    conv = convolve(a, b)
    products = {int(group.mult[x, y]) for x in a.support for y in b.support}
    assert set(conv.support.tolist()) <= products
    lhs = fourier_transform(conv, table)
    fa, fb = fourier_transform(a, table), fourier_transform(b, table)
    for la, ma, mb in zip(lhs.mats, fa.mats, fb.mats):
        assert np.abs(la - mb @ ma).max() < 1e-9  # adjoint reverses the order


def test_group_mismatch_raises(tables):
    sig = GroupSignal(group=parse_group_spec("cyclic:5"), weights=np.ones(5) / 5)
    with pytest.raises(GroupMismatchError):
        fourier_transform(sig, tables["symmetric:3"])


def test_coefficients_json_shape(tables):
    table = tables["symmetric:3"]
    sig = delta_scheme(table.group, 0).to_signal()
    payload = coefficients_to_json(fourier_transform(sig, table))
    assert set(payload) == set(table.labels())
    label2 = table.labels()[2]
    assert len(payload[label2]) == table.dims[2]
    assert payload[table.labels()[0]][0][0] == [1.0, 0.0]


@pytest.mark.parametrize(
    "spec",
    ["cyclic:12", "signflip:5", "dihedral:9", "symmetric:4", "product(cyclic:3,dihedral:6)"],
)
def test_stacked_transform_equals_per_irrep_sums(spec):
    table = irreps_of(parse_group_spec(spec))
    rng = np.random.default_rng(11)
    n = table.group.order
    for weights in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        weights[rng.random(n) < 0.5] = 0.0
        signal = GroupSignal(group=table.group, weights=weights)
        idx = signal.support
        coeffs = fourier_transform(signal, table)
        for rep, mat in zip(table.irreps, coeffs.mats):
            expect = np.einsum("g,gji->ij", signal.weights[idx], rep.mats[idx].conj())
            assert np.array_equal(mat, expect)


def test_scalar_spectral_norm_is_abs():
    for z in (0.0, -0.75, 3e-200, 0.6 + 0.8j, -1e-3j, 1.5e300 - 2e300j):
        block = np.array([[z]], dtype=np.complex128 if isinstance(z, complex) else np.float64)
        assert spectral_norm(block) == abs(z)
        svd = np.linalg.svd(block, compute_uv=False)[0]
        assert abs(spectral_norm(block) - svd) <= 1e-15 * svd


def test_scalar_spectral_norm_has_the_bits_of_numpy_abs():
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    real = np.concatenate([rng.normal(size=10_000), special])
    complex_ = np.concatenate([rng.normal(size=10_000) + 1j * rng.normal(size=10_000),
                               special, [complex(-0.0, np.nan), 1.5e308 + 1.5e308j]])
    for values in (real, complex_):
        # 1x1 views of one stack, as the certificates pass them
        got = np.array([spectral_norm(block) for block in values.reshape(-1, 1, 1)])
        want = np.array([float(abs(np.atleast_2d(v)[0, 0])) for v in values])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # Python's complex abs would raise OverflowError here
    assert spectral_norm(np.array([[1.5e308 + 1.5e308j]])) == np.inf


def test_scalar_spectral_norm_has_the_bits_of_hypot():
    # a stacked 1x1 path keeps these bits only with np.hypot of the parts:
    # np.abs over a complex array takes a vectorized loop that rounds otherwise
    rng = np.random.default_rng(1)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    real = np.concatenate([rng.normal(size=10_000), special])
    complex_ = np.concatenate([rng.normal(size=10_000) + 1j * rng.normal(size=10_000),
                               special, [complex(-0.0, np.nan), 1.5e308 + 1.5e308j]])
    for values in (real, complex_):
        with np.errstate(over="ignore"):
            want = np.hypot(values.real, values.imag)
        scalars = list(values)  # numpy scalars, as the weak certificate passes them
        assert all(isinstance(z, np.generic) for z in scalars)
        for got in ([spectral_norm(z) for z in scalars],
                    [spectral_norm(block) for block in values.reshape(-1, 1, 1)]):
            assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


def _norm_blocks(d: int, complex_: bool) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(10 * d + complex_)

    def draw(*shape):
        real = rng.normal(size=shape)
        return real + 1j * rng.normal(size=shape) if complex_ else real

    u, v = draw(d, 1), draw(d, 1)
    dense = draw(d, d)
    return {
        "zero": np.zeros((d, d), dtype=np.complex128 if complex_ else np.float64),
        "rank-1": u @ v.conj().T,
        "unitary": np.linalg.qr(draw(d, d))[0],
        "dense": dense,
        "tiny": 1e-200 * dense,
        "huge": 1e200 * dense,
    }


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d", range(1, 7))
def test_spectral_norm_has_the_bits_of_numpy_2_norm(d, complex_):
    for name, block in _norm_blocks(d, complex_).items():
        got = spectral_norm(block)
        # a complex 1x1 block takes abs (test_scalar_spectral_norm_is_abs),
        # which may differ from LAPACK's value in the last bit
        want = abs(block[0, 0]) if d == 1 and complex_ else np.linalg.norm(block, 2)
        assert got.hex() == float(want).hex(), name


# dihedral and product(cyclic:3, dihedral) tables mix 1x1 and 2x2 blocks;
# symmetric:5 has blocks up to 6x6
WEAK_SPECS = ["dihedral:3", "dihedral:8", "dihedral:13", "symmetric:4", "symmetric:5",
              "product(cyclic:3,dihedral:4)", "product(cyclic:3,dihedral:7)"]


@pytest.fixture(scope="module")
def weak_tables():
    return {spec: irreps_of(parse_group_spec(spec)) for spec in WEAK_SPECS}


def _weak_scheme(group, kind: str, size: int, seed: int) -> AveragingScheme:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return uniform_scheme(group)
    if kind == "delta":
        return delta_scheme(group, int(rng.integers(group.order)))
    if kind == "random":
        return random_scheme(group, size, seed)
    support = rng.choice(group.order, size=min(size, group.order), replace=False)
    weights = rng.normal(size=support.size)
    weights[0] += 1.0 - weights.sum()
    return AveragingScheme(group, support, weights)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(WEAK_SPECS),
    kind=st.sampled_from(["uniform", "delta", "random", "signed"]),
    size=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    restrict=st.booleans(),
)
def test_pruned_weak_certificate_has_the_bits_of_the_full_maximum(
    weak_tables, spec, kind, size, seed, restrict
):
    table = weak_tables[spec]
    coeffs = fourier_transform(_weak_scheme(table.group, kind, size, seed).to_signal(), table)
    restrict_to = np.random.default_rng(seed).integers(0, 2, len(table)) if restrict else None
    got = max_nontrivial_norm(coeffs, restrict_to=restrict_to)
    assert got.hex() == unpruned_max_nontrivial_norm(coeffs, table, restrict_to).hex()


def _bits(mat: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(mat).view(np.uint64)


@pytest.mark.parametrize("spec", SIGNAL_SPECS + WEAK_SPECS)
def test_coefficient_stacks_have_the_bits_of_the_per_irrep_list(spec, weak_tables):
    table = weak_tables.get(spec) or irreps_of(parse_group_spec(spec))
    n = table.group.order
    rng = np.random.default_rng(n)
    signals = [random_scheme(table.group, 5, 1).to_signal(), uniform_scheme(table.group).to_signal()]
    for trial in range(4):
        w = rng.normal(size=n) * (rng.random(n) < 0.5)  # about half the elements in the support
        signals.append(GroupSignal(table.group, w + 1j * rng.normal(size=n) if trial % 2 else w))
    for signal in signals:
        coeffs = fourier_transform(signal, table)
        assert "mats" not in vars(coeffs)  # the per-irrep views are made when first read
        assert [s.shape for s in coeffs.stacks] == [(len(s), s.shape[2], s.shape[2])
                                                    for s in table.stacks]
        want = fourier_blocks_by_list(signal, table)
        assert len(coeffs.mats) == len(want) == len(table)
        for i, (got, block) in enumerate(zip(coeffs.mats, want)):
            assert any(np.shares_memory(got, s) for s in coeffs.stacks), i
            assert np.array_equal(_bits(got), _bits(block)), (spec, i)


def test_weak_certificate_visits_blocks_in_the_sorted_order(weak_tables, monkeypatch):
    seen = []

    def recording(mat):
        seen.append(mat)
        return spectral_norm(mat)

    monkeypatch.setattr(fourier_module, "spectral_norm", recording)
    for spec, table in weak_tables.items():
        for kind in ("uniform", "delta", "random", "signed"):
            for seed in range(6):
                scheme = _weak_scheme(table.group, kind, 1 + 3 * seed, seed)
                coeffs = fourier_transform(scheme.to_signal(), table)
                restrict_to = np.random.default_rng(seed).integers(0, 2, len(table))
                for restrict in (None, restrict_to):
                    seen.clear()
                    max_nontrivial_norm(coeffs, restrict_to=restrict)
                    want = sorted_weak_visits(coeffs.mats, table, restrict)
                    assert len(seen) == len(want), (spec, kind, seed)
                    for got, i in zip(seen, want):
                        block = coeffs.mats[i]
                        if block.size == 1:  # the entry of a 1x1 block, as a numpy scalar
                            assert isinstance(got, np.generic), (spec, kind, seed, i)
                            assert got.tobytes() == block.tobytes(), (spec, kind, seed, i)
                        else:
                            assert np.array_equal(got, block), (spec, kind, seed, i)


def test_weak_certificate_skips_blocks_below_the_running_maximum(weak_tables, monkeypatch):
    table = weak_tables["dihedral:13"]
    coeffs = fourier_transform(random_scheme(table.group, 6, 2).to_signal(), table)
    seen = []

    def recording(mat):
        seen.append(np.shape(mat))
        return spectral_norm(mat)

    monkeypatch.setattr(fourier_module, "spectral_norm", recording)
    got = max_nontrivial_norm(coeffs)
    svds = sum(shape != () for shape in seen)
    assert seen.count(()) == table.dims.count(1) - 1  # every nontrivial 1x1 entry, as a scalar
    assert 1 <= svds < table.dims.count(2)
    assert got.hex() == unpruned_max_nontrivial_norm(coeffs, table).hex()


def _s3_perm():
    return permutation_rep(parse_group_spec("symmetric:3"))


def _d5():
    return parse_group_spec("dihedral:5")


# every constructor that builds a permutation action, and two stacks of
# permutation matrices no constructor declares as one
PERM_ACTIONS = {
    "regular-cyclic": lambda: regular_rep(parse_group_spec("cyclic:7")),
    "regular-dihedral": lambda: regular_rep(parse_group_spec("dihedral:5")),
    "regular-symmetric": lambda: regular_rep(parse_group_spec("symmetric:4")),
    "regular-product": lambda: regular_rep(parse_group_spec("product(cyclic:2,symmetric:3)")),
    "permutation": lambda: permutation_rep(parse_group_spec("symmetric:4")),
    "direct-sum": lambda: direct_sum(_s3_perm(), regular_rep(parse_group_spec("symmetric:3"))),
    "tensor-product": lambda: tensor_product(_s3_perm(), _s3_perm()),
    "sym-power": lambda: sym_power_rep(permutation_rep(parse_group_spec("symmetric:4")), 2),
    "direct-sum-trivial": lambda: direct_sum(_s3_perm(), trivial_rep(parse_group_spec("symmetric:3"))),
    "undeclared": lambda: Representation(_d5(), regular_rep(_d5()).mats, name="undeclared"),
}


@pytest.mark.parametrize("name", sorted(PERM_ACTIONS))
def test_row_gathers_match_the_dense_products(name, monkeypatch):
    rep = PERM_ACTIONS[name]()
    assert rep.perms is not None
    seen = []

    def recording(mat):
        seen.append(mat)
        return spectral_norm(mat)

    monkeypatch.setattr(fourier_module, "spectral_norm", recording)
    comp = np.eye(rep.dim) - invariant_projector(rep)
    rng = np.random.default_rng(17)
    blocks = [
        apply_scheme(random_scheme(rep.group, 5, 1), rep) @ comp,  # the strong certificate's block
        rng.normal(size=(rep.dim, rep.dim)).astype(np.complex128),
    ]
    for block in blocks:
        seen.clear()
        value = max_deviation(rep, block)
        assert len(seen) == rep.group.order  # one norm per element
        for g, diff in enumerate(seen):
            assert diff.dtype == np.float64
            assert np.array_equal(diff, (rep.mats[g] @ block - block).real), g
        assert abs(value - dense_max_deviation(rep, block)) <= 1e-14


def test_row_gathers_reject_an_imaginary_part():
    rep = regular_rep(parse_group_spec("cyclic:4"))
    block = np.eye(4, dtype=np.complex128)
    block[1, 2] = 1e-300j
    with pytest.raises(NumericalConsistencyError, match="imaginary"):
        max_deviation(rep, block)


def test_dense_actions_keep_the_complex_products():
    s3 = irreps_of(parse_group_spec("symmetric:3"))
    rng = np.random.default_rng(23)
    for rep in (sign_action_rep(parse_group_spec("signflip:3")), s3.irreps[s3.dims.index(2)]):
        assert rep.perms is None
        block = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
        assert max_deviation(rep, block) == dense_max_deviation(rep, block)
