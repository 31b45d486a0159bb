import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupavg import (
    SizeLimitError,
    UsageError,
    build_group,
    closure,
    conjugacy_classes,
    group_from_text,
    group_spec_string,
    group_to_text,
    parse_group_spec,
    sample_uniform,
)
from groupavg.groups import custom_group
from oracles import brute_force_classes, gf2_rank


def test_family_orders(small_groups):
    assert small_groups["cyclic:4"].order == 4
    assert small_groups["signflip:3"].order == 8
    assert small_groups["dihedral:5"].order == 10
    assert small_groups["symmetric:3"].order == 6
    assert small_groups["product(cyclic:2,cyclic:3)"].order == 6


def test_identity_is_index_zero(small_groups):
    for g in small_groups.values():
        assert g.identity == 0
        idx = np.arange(g.order)
        assert np.array_equal(g.mult[0], idx) and np.array_equal(g.mult[:, 0], idx)
        assert np.array_equal(g.mult[idx, g.inv], np.zeros(g.order, dtype=int))


def test_parameter_caps_and_usage_errors():
    with pytest.raises(UsageError):
        build_group("cyclic", 0)
    with pytest.raises(UsageError):
        build_group("dihedral", 2)
    with pytest.raises(SizeLimitError):
        build_group("sign_flip", 17)
    with pytest.raises(SizeLimitError):
        build_group("symmetric", 9)
    with pytest.raises(UsageError):
        build_group("nonsense", 3)


def test_conjugacy_class_counts(small_groups):
    # abelian groups split into singletons
    assert len(conjugacy_classes(small_groups["cyclic:4"])) == 4
    assert len(conjugacy_classes(small_groups["signflip:2"])) == 4
    # frozen counts: dihedral n=5 -> 4 classes, symmetric d=4 -> 5 classes
    assert len(conjugacy_classes(small_groups["dihedral:5"])) == 4
    assert len(conjugacy_classes(parse_group_spec("symmetric:4"))) == 5


def test_conjugacy_against_brute_force(small_groups):
    for spec in ("symmetric:3", "dihedral:5", "dihedral:6", "product(cyclic:2,symmetric:3)"):
        group = small_groups[spec]
        part = conjugacy_classes(group)
        oracle = brute_force_classes(group)
        assert sorted(map(sorted, part.classes)) == sorted(map(sorted, oracle))


def test_conjugacy_sizes_frozen(small_groups):
    assert sorted(conjugacy_classes(small_groups["symmetric:3"]).sizes) == [1, 2, 3]
    assert sorted(conjugacy_classes(small_groups["dihedral:5"]).sizes) == [1, 2, 2, 5]


def test_class_count_equals_order_iff_abelian(small_groups):
    for group in small_groups.values():
        part = conjugacy_classes(group)
        assert (len(part) == group.order) == group.is_abelian


def test_closure_examples(small_groups):
    z3 = small_groups["signflip:3"]
    assert closure(z3, [z3.index_of_label("100")]) == [0, z3.index_of_label("100")]
    gens = [z3.index_of_label(s) for s in ("100", "010", "001")]
    assert len(closure(z3, gens)) == 8
    c6 = small_groups["cyclic:6"]
    assert closure(c6, [2]) == [0, 2, 4]
    with pytest.raises(UsageError):
        closure(c6, [])


def test_closure_idempotent_and_lagrange(small_groups):
    rng = np.random.default_rng(0)
    for group in small_groups.values():
        gens = list(rng.integers(0, group.order, size=2))
        first = closure(group, gens)
        assert closure(group, first) == first
        assert group.order % len(first) == 0


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), data=st.data())
def test_signflip_closure_matches_gf2_rank(d, data):
    group = build_group("sign_flip", d)
    gens = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=5))
    size = len(closure(group, gens))
    assert size == 1 << gf2_rank(gens, d)


def test_sample_uniform_contract(small_groups):
    c10 = parse_group_spec("cyclic:10")
    with pytest.raises(UsageError):
        sample_uniform(c10, 0, 0)
    a = sample_uniform(c10, 50, seed=123)
    b = sample_uniform(c10, 50, seed=123)
    assert np.array_equal(a, b)
    # binomial concentration: each element frequency within 5 sigma
    n = 100_000
    draws = sample_uniform(c10, n, seed=7)
    counts = np.bincount(draws, minlength=10)
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert np.abs(counts - n / 10).max() < 5 * sigma


def test_sign_flip_label_convention(small_groups):
    z3 = small_groups["signflip:3"]
    assert z3.labels[5] == "101"
    assert z3.multiply(z3.index_of_label("100"), z3.index_of_label("001")) == z3.index_of_label(
        "101"
    )


def test_dihedral_relation(small_groups):
    d5 = small_groups["dihedral:5"]
    n = 5
    r, s = 1, n  # rotation by one step, base reflection
    # s r s^{-1} = r^{-1}
    conj = d5.multiply(d5.multiply(s, r), d5.inverse(s))
    assert conj == d5.inverse(r)


def test_symmetric_composition_convention():
    s3 = parse_group_spec("symmetric:3")
    # labels are one-line notation; composing (sigma tau)(x) = sigma(tau(x))
    sigma = s3.index_of_label("120")  # 0->1, 1->2, 2->0
    tau = s3.index_of_label("102")  # swap 0,1
    composed = s3.multiply(sigma, tau)
    assert s3.labels[composed] == "210"


def test_element_order_and_power(small_groups):
    d5 = small_groups["dihedral:5"]
    assert d5.element_order(1) == 5
    assert d5.element_order(5) == 2
    assert d5.power(1, 5) == 0
    assert d5.power(1, -1) == d5.inverse(1)


def test_group_text_round_trip(small_groups):
    for spec in ("cyclic:6", "signflip:2", "dihedral:4", "symmetric:3", "product(cyclic:2,cyclic:3)"):
        group = small_groups[spec] if spec in small_groups else parse_group_spec(spec)
        text = group_to_text(group)
        back = group_from_text(text)
        assert back == group
        assert group_to_text(back) == text
        assert group_spec_string(back) == group_spec_string(group)


def test_group_text_rejects_tampered_table(small_groups):
    text = group_to_text(small_groups["cyclic:3"])
    lines = text.strip().splitlines()
    lines[1] = "0 2 1"
    with pytest.raises(UsageError):
        group_from_text("\n".join(lines))


def test_spec_string_round_trip(small_groups):
    for spec, group in small_groups.items():
        assert parse_group_spec(group_spec_string(group)) == group


def test_equal_groups_hash_equal(small_groups):
    c4 = small_groups["cyclic:4"]
    copy = custom_group(c4.mult)
    assert copy == c4
    assert hash(copy) == hash(c4)
    assert len({copy, c4}) == 1
