import itertools

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
    certify_strong,
    convolve,
    delta_scheme,
    direct_sum,
    exact_violation,
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
from groupavg import fourier as fourier_module, reps as reps_module
from groupavg.fourier import max_deviation, spectral_norm

from oracles import (
    coefficient_blocks,
    dense_max_deviation,
    fourier_blocks_by_list,
    scheme_signal,
    sorted_weak_visits,
    unpruned_max_nontrivial_norm,
)
from test_irreps import TABLE_SPECS

SIGNAL_SPECS = ["cyclic:5", "signflip:2", "dihedral:4", "symmetric:3", "symmetric:4"]


@pytest.fixture(scope="module")
def tables():
    return {spec: irreps_of(parse_group_spec(spec)) for spec in SIGNAL_SPECS}


def test_uniform_signal_transform(tables):
    for table in tables.values():
        sig = scheme_signal(uniform_scheme(table.group))
        coeffs = fourier_transform(sig, table)
        blocks = coefficient_blocks(coeffs)
        assert abs(blocks[table.trivial_index][0, 0] - 1.0) < 1e-12
        for i, m in enumerate(blocks):
            if i != table.trivial_index:
                assert np.abs(m).max() < 1e-12
        assert max_nontrivial_norm(coeffs) < 1e-20


def test_delta_at_identity_transform(tables):
    for table in tables.values():
        sig = scheme_signal(delta_scheme(table.group, 0))
        coeffs = fourier_transform(sig, table)
        for d, m in zip(table.dims, coefficient_blocks(coeffs)):
            assert np.abs(m - np.eye(d)).max() < 1e-12
        if len(table) > 1:
            assert abs(max_nontrivial_norm(coeffs) - 1.0) < 1e-12


def test_frozen_c2_value():
    table = irreps_of(parse_group_spec("cyclic:2"))
    sig = GroupSignal(group=table.group, weights=np.array([0.75, 0.25]))
    coeffs = fourier_transform(sig, table)
    assert abs(coefficient_blocks(coeffs)[1][0, 0] - 0.5) < 1e-15
    assert abs(max_nontrivial_norm(coeffs) - 0.25) < 1e-15


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(SIGNAL_SPECS), seed=st.integers(0, 10_000))
def test_roundtrip_and_plancherel(spec, seed, tables):
    table = tables[spec]
    rng = np.random.default_rng(seed)
    sig = GroupSignal(group=table.group, weights=rng.normal(size=table.group.order))
    back = inverse_fourier(fourier_transform(sig, table))
    assert np.abs(back.weights - sig.weights).max() < 1e-10
    assert plancherel_residual(sig, table) < 1e-10


def test_inverse_of_uniform_coefficients(tables):
    table = tables["symmetric:3"]
    sig = scheme_signal(uniform_scheme(table.group))
    back = inverse_fourier(fourier_transform(sig, table))
    assert np.abs(back.weights - 1.0 / table.group.order).max() < 1e-12
    # all-zero coefficients invert to the zero signal
    zero = fourier_transform(GroupSignal(group=table.group, weights=np.zeros(6)), table)
    assert np.abs(inverse_fourier(zero).weights).max() == 0.0


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
    for la, ma, mb in zip(coefficient_blocks(lhs), coefficient_blocks(fa), coefficient_blocks(fb)):
        assert np.abs(la - mb @ ma).max() < 1e-9  # adjoint reverses the order


def test_group_mismatch_raises(tables):
    sig = GroupSignal(group=parse_group_spec("cyclic:5"), weights=np.ones(5) / 5)
    with pytest.raises(GroupMismatchError):
        fourier_transform(sig, tables["symmetric:3"])


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
        for rep, mat in zip(table.irreps, coefficient_blocks(coeffs)):
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
    coeffs = fourier_transform(scheme_signal(_weak_scheme(table.group, kind, size, seed)), table)
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
    signals = [scheme_signal(s) for s in (random_scheme(table.group, 5, 1), uniform_scheme(table.group))]
    for trial in range(4):
        w = rng.normal(size=n) * (rng.random(n) < 0.5)  # about half the elements in the support
        signals.append(GroupSignal(table.group, w + 1j * rng.normal(size=n) if trial % 2 else w))
    for signal in signals:
        coeffs = fourier_transform(signal, table)
        assert [s.shape for s in coeffs.stacks] == [(len(s), s.shape[2], s.shape[2])
                                                    for s in table.stacks]
        want = fourier_blocks_by_list(signal, table)
        blocks = coefficient_blocks(coeffs)
        assert len(blocks) == len(want) == len(table)
        for i, (got, block) in enumerate(zip(blocks, want)):
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
                coeffs = fourier_transform(scheme_signal(scheme), table)
                blocks = coefficient_blocks(coeffs)
                restrict_to = np.random.default_rng(seed).integers(0, 2, len(table))
                for restrict in (None, restrict_to):
                    seen.clear()
                    max_nontrivial_norm(coeffs, restrict_to=restrict)
                    want = sorted_weak_visits(blocks, table, restrict)
                    assert len(seen) == len(want), (spec, kind, seed)
                    for got, i in zip(seen, want):
                        block = blocks[i]
                        if block.size == 1:  # the entry of a 1x1 block, as a numpy scalar
                            assert isinstance(got, np.generic), (spec, kind, seed, i)
                            assert got.tobytes() == block.tobytes(), (spec, kind, seed, i)
                        else:
                            assert np.array_equal(got, block), (spec, kind, seed, i)


def test_weak_certificate_skips_blocks_below_the_running_maximum(weak_tables, monkeypatch):
    table = weak_tables["dihedral:13"]
    coeffs = fourier_transform(scheme_signal(random_scheme(table.group, 6, 2)), table)
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


@pytest.mark.parametrize("spec", TABLE_SPECS + ["symmetric:6"])
def test_transform_keeps_the_bits_of_the_per_stack_einsum(spec, weak_tables):
    table = weak_tables.get(spec) or irreps_of(parse_group_spec(spec))
    group, n = table.group, table.group.order
    rows = table.adjoint_rows
    assert rows.shape == (n, sum(len(s) * s.shape[2] ** 2 for s in table.stacks))
    for g in range(n):  # row g: pi(g)^dagger of every irrep, row-major, in table order
        want = np.concatenate([s[:, g].conj().transpose(0, 2, 1).ravel() for s in table.stacks])
        assert np.array_equal(_bits(rows[g]), _bits(want)), g
    rng = np.random.default_rng(n)
    inputs = [_weak_scheme(group, kind, 1 + 5 * seed, seed)
              for kind in ("uniform", "delta", "random", "signed") for seed in range(3)]
    w = rng.normal(size=n) * (rng.random(n) < 0.5)
    inputs += [GroupSignal(group, w), GroupSignal(group, w + 1j * rng.normal(size=n))]
    for x in inputs:
        signal = x if isinstance(x, GroupSignal) else scheme_signal(x)
        coeffs = fourier_transform(x, table)
        flat = coeffs.stacks[0].base
        assert flat.ndim == 1 and flat.flags.c_contiguous
        first = 0
        for stack, ref in zip(coeffs.stacks, table.stacks):
            assert stack.base is flat and stack.flags.c_contiguous
            assert stack.shape == (len(ref), ref.shape[2], ref.shape[2])
            assert np.shares_memory(stack, flat[first : first + stack.size])
            first += stack.size
        assert first == flat.size
        want = fourier_blocks_by_list(signal, table)
        for i, (got, block) in enumerate(zip(coefficient_blocks(coeffs), want)):
            assert np.array_equal(_bits(got), _bits(block)), (spec, type(x).__name__, i)


STOP_SPECS = ["dihedral:8", "dihedral:13", "symmetric:4", "symmetric:5",
              "product(cyclic:3,dihedral:7)", "product(cyclic:2,symmetric:4)"]


@pytest.mark.parametrize("spec", STOP_SPECS)
def test_stopped_certificate_is_exact_at_or_below_its_threshold(spec, weak_tables):
    table = weak_tables.get(spec) or irreps_of(parse_group_spec(spec))
    for kind in ("uniform", "delta", "random", "signed"):
        for seed in range(4):
            scheme = _weak_scheme(table.group, kind, 2 + 3 * seed, seed)
            coeffs = fourier_transform(scheme, table)
            restrict_to = np.random.default_rng(seed).integers(0, 2, len(table))
            for restrict in (None, restrict_to):
                e = max_nontrivial_norm(coeffs, restrict_to=restrict)
                for t in (0.0, e * (1 - 1e-9), e, e * (1 + 1e-9), np.inf):
                    got = max_nontrivial_norm(coeffs, restrict_to=restrict, stop_above=t)
                    if e <= t:
                        assert got.hex() == e.hex(), (spec, kind, seed, t)
                    else:
                        assert t < got <= e, (spec, kind, seed, t)


def test_stopped_certificate_reads_every_1x1_entry(monkeypatch):
    table = irreps_of(parse_group_spec("signflip:5"))
    coeffs = fourier_transform(random_scheme(table.group, 7, 3), table)
    seen = []

    def recording(mat):
        seen.append(mat.tobytes())
        return spectral_norm(mat)

    monkeypatch.setattr(fourier_module, "spectral_norm", recording)
    e = max_nontrivial_norm(coeffs)
    full = list(seen)
    assert len(full) == table.group.order - 1
    for t in (0.0, e / 2, e):
        seen.clear()
        assert max_nontrivial_norm(coeffs, stop_above=t).hex() == e.hex()
        assert seen == full


def _s3_perm():
    return permutation_rep(parse_group_spec("symmetric:3"))


def _d5():
    return parse_group_spec("dihedral:5")


def _s4_sign_character():
    table = irreps_of(parse_group_spec("symmetric:4"))
    return next(r for r in table.irreps if r.dim == 1 and r.perms is None)


def _signed_irrep_of_d6():
    table = irreps_of(parse_group_spec("dihedral:6"))
    return next(r for r in table.irreps if r.perms is None and r.signed_permutation() is not None)


# every constructor that builds a permutation action, two stacks of
# permutation matrices no constructor declares as one, and signed actions
# with some sign -1: diagonal, a symmetric power, a non-diagonal tensor
# product and a +-1 irrep; signflip:9 (dim 9) moves its 512 elements in
# blocks of 202, 202 and 108, and cyclic:130 (dim 130) one element per block
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
    "sign-signflip3": lambda: sign_action_rep(parse_group_spec("signflip:3")),
    "sign-signflip9": lambda: sign_action_rep(parse_group_spec("signflip:9")),
    "sym-power-sign": lambda: sym_power_rep(sign_action_rep(parse_group_spec("signflip:4")), 2),
    "sign-tensor-permutation": lambda: tensor_product(_s4_sign_character(),
                                                      permutation_rep(parse_group_spec("symmetric:4"))),
    "signed-irrep": _signed_irrep_of_d6,
    "regular-cyclic130": lambda: regular_rep(parse_group_spec("cyclic:130")),
}


def _unpruned_max_deviation(rep, block) -> float:
    """The strong certificate's maximum with one ``spectral_norm`` per element."""
    return max(map(spectral_norm, itertools.chain.from_iterable(reps_module._deviations(rep, block))))


@pytest.mark.parametrize("name", sorted(PERM_ACTIONS))
def test_row_gathers_match_the_dense_products(name):
    rep = PERM_ACTIONS[name]()
    assert rep.signed_permutation() is not None
    assert (rep.perms is None) == name.startswith(("sign", "sym-power-sign"))
    step = max(1, reps_module._ROW_BLOCK_ENTRIES // rep.dim**2)
    blocks_of = [min(step, rep.group.order - start) for start in range(0, rep.group.order, step)]
    comp = np.eye(rep.dim) - invariant_projector(rep)
    rng = np.random.default_rng(17)
    blocks = [
        apply_scheme(random_scheme(rep.group, 5, 1), rep) @ comp,  # the strong certificate's block
        rng.normal(size=(rep.dim, rep.dim)).astype(np.complex128),
    ]
    for block in blocks:
        stacks = list(reps_module._deviations(rep, block))
        assert [len(s) for s in stacks] == blocks_of
        diffs = list(itertools.chain.from_iterable(stacks))
        for g, diff in enumerate(diffs):
            assert diff.dtype == np.float64
            assert np.array_equal(diff, (rep.mats[g] @ block - block).real), g
        value = max_deviation(rep, block)
        assert value.hex() == max(map(spectral_norm, diffs)).hex()
        oracle = dense_max_deviation(rep, block)
        assert abs(value - oracle) <= 1e-14 * max(1.0, oracle)  # relative above 1: a few ulps


# tie-rich cases: cyclic:45's random 8-draw scheme repeats 1.151921 over
# many elements, and on cyclic:32's seed-3 scheme skipping every twin
# unconditionally moves the maximum by 4 ulps
_TWIN_CASES = [("cyclic:45", 8, 0), ("cyclic:32", 8, 3), ("cyclic:12", 8, 1), ("dihedral:12", 8, 0),
               ("dihedral:7", 5, 2), ("symmetric:4", 8, 3)]


@pytest.mark.parametrize("name", sorted(PERM_ACTIONS))
def test_twin_prune_keeps_the_bits_on_every_action(name):
    rep = PERM_ACTIONS[name]()
    comp = np.eye(rep.dim) - invariant_projector(rep)
    for scheme in (uniform_scheme(rep.group), random_scheme(rep.group, 8, 0), random_scheme(rep.group, 8, 3)):
        averaged = apply_scheme(scheme, rep)
        for block in (averaged @ comp, averaged):
            assert max_deviation(rep, block).hex() == _unpruned_max_deviation(rep, block).hex()
        assert exact_violation(scheme, rep).hex() == _unpruned_max_deviation(rep, averaged).hex()


@pytest.mark.parametrize("spec, draws, seed", _TWIN_CASES)
def test_twin_prune_keeps_the_bits_on_ties(spec, draws, seed):
    group = parse_group_spec(spec)
    scheme = random_scheme(group, draws, seed)
    rep = regular_rep(group)
    averaged = apply_scheme(scheme, rep)
    strong_block = averaged @ (np.eye(rep.dim) - invariant_projector(rep))
    for block in (strong_block, averaged):
        assert max_deviation(rep, block).hex() == _unpruned_max_deviation(rep, block).hex()
    assert exact_violation(scheme, rep).hex() == _unpruned_max_deviation(rep, averaged).hex()
    assert certify_strong(scheme, rep).hex() == (0.5 * _unpruned_max_deviation(rep, strong_block) ** 2).hex()


def test_twin_prune_svd_counts(monkeypatch):
    seen = []

    def recording(mat):
        seen.append(mat)
        return spectral_norm(mat)

    def svds(rep, block):
        seen.clear()
        max_deviation(rep, block)
        return len(seen)

    monkeypatch.setattr(fourier_module, "spectral_norm", recording)

    c12 = parse_group_spec("cyclic:12")
    for rep in (regular_rep(c12), regular_rep(parse_group_spec("dihedral:5")), _s3_perm()):
        # an exactly zero block keeps the maximum at 0: nothing is skipped
        assert svds(rep, apply_scheme(uniform_scheme(rep.group), rep)) == rep.group.order
        assert svds(rep, np.zeros((rep.dim, rep.dim))) == rep.group.order
    signflip = parse_group_spec("signflip:5")
    rep = sign_action_rep(signflip)  # every element its own inverse
    assert svds(rep, apply_scheme(random_scheme(signflip, 8, 0), rep)) == signflip.order
    d5 = irreps_of(parse_group_spec("dihedral:5"))
    rng = np.random.default_rng(5)
    for irrep in d5.irreps:  # dense 2x2 irreps, and 1x1 ones whose differences take no SVD
        assert svds(irrep, rng.normal(size=(irrep.dim, irrep.dim))) == d5.group.order
    c128 = parse_group_spec("cyclic:128")
    rep = regular_rep(c128)
    block = apply_scheme(random_scheme(c128, 8, 0), rep) @ (np.eye(rep.dim) - invariant_projector(rep))
    assert svds(rep, block) <= 66  # one per inverse pair, the identity and the involution


def test_twins_are_exact_inverses_only():
    rep = regular_rep(parse_group_spec("cyclic:6"))
    assert reps_module._inverse_twins(rep) == [-1, -1, -1, -1, 2, 1]
    perm, sign = rep.signed_permutation()
    swapped = perm.copy()
    swapped[[4, 5]] = swapped[[5, 4]]  # rho(4) and rho(5) swapped: not a homomorphism
    broken = Representation(rep.group, None, signed=(swapped, sign), validate=False)
    assert reps_module._inverse_twins(broken) == [-1] * 6
    dense = next(r for r in irreps_of(parse_group_spec("dihedral:5")).irreps if r.dim == 2)
    assert reps_module._inverse_twins(dense) == [-1] * 10


def test_row_gathers_reject_an_imaginary_part():
    for rep in (regular_rep(parse_group_spec("cyclic:4")), sign_action_rep(parse_group_spec("signflip:2"))):
        block = np.eye(rep.dim, dtype=np.complex128)
        block[1, 0] = 1e-300j
        with pytest.raises(NumericalConsistencyError, match="imaginary"):
            max_deviation(rep, block)


def test_dense_actions_keep_the_complex_products():
    s3 = irreps_of(parse_group_spec("symmetric:3"))
    rng = np.random.default_rng(23)
    rep = s3.irreps[s3.dims.index(2)]
    assert rep.signed_permutation() is None
    block = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    assert max_deviation(rep, block) == dense_max_deviation(rep, block)
