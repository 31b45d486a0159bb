import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import (
    GroupMismatchError,
    GroupSignal,
    convolve,
    delta_scheme,
    fourier_transform,
    inverse_fourier,
    irreps_of,
    max_nontrivial_norm,
    parse_group_spec,
    plancherel_residual,
    uniform_scheme,
)
from groupavg.fourier import coefficients_to_json

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
        assert max_nontrivial_norm(coeffs, table) < 1e-20


def test_delta_at_identity_transform(tables):
    for table in tables.values():
        sig = delta_scheme(table.group, 0).to_signal()
        coeffs = fourier_transform(sig, table)
        for d, m in zip(table.dims, coeffs.mats):
            assert np.abs(m - np.eye(d)).max() < 1e-12
        if len(table) > 1:
            assert abs(max_nontrivial_norm(coeffs, table) - 1.0) < 1e-12


def test_frozen_c2_value():
    table = irreps_of(parse_group_spec("cyclic:2"))
    sig = GroupSignal(group=table.group, weights=np.array([0.75, 0.25]))
    coeffs = fourier_transform(sig, table)
    assert abs(coeffs.mats[1][0, 0] - 0.5) < 1e-15
    assert abs(max_nontrivial_norm(coeffs, table) - 0.25) < 1e-15


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
