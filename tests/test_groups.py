import math
from itertools import islice, permutations

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
from groupavg import groups as groups_module
from groupavg.errors import MEMORY_CAP_BYTES
from groupavg.groups import custom_group, product_group
from oracles import (
    brute_force_classes,
    brute_force_is_group,
    dense_family_table,
    element_order_by_loop,
    generated_by_unique,
    gf2_rank,
    group_to_text_as_string,
    lehmer_ranks,
    light_test_by_take,
    reduced_latin_squares,
    word_layers_by_sets,
)
from test_irreps import TABLE_SPECS


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



def _nested_product(depth: int, leaf: str) -> str:
    spec = "cyclic:2"
    for _ in range(depth):
        spec = f"product({leaf},{spec})"
    return spec


def test_product_depth_limit_is_what_the_table_cap_leaves_room_for():
    depth = groups_module.PRODUCT_MAX_DEPTH
    # the smallest order of a product nested d deep without order-1 factors is 2**(d + 1)
    assert 2 ** (depth + 1) <= 7327 < 2 ** (depth + 2)
    assert parse_group_spec(_nested_product(depth, "cyclic:1")).order == 2
    assert parse_group_spec(_nested_product(3, "cyclic:2")).order == 16
    for too_deep in (depth + 1, 2000):
        with pytest.raises(SizeLimitError, match=f"nests products {too_deep} deep, above the limit of {depth}"):
            parse_group_spec(_nested_product(too_deep, "cyclic:1"))

class _Allocating(Exception):
    pass


class _NumpyStub:
    """Stands in for numpy inside ``groups``: any use means the size check passed."""

    def __getattr__(self, name):
        raise _Allocating(name)


def _family(name):
    return lambda n: (lambda: build_group(name, n))


def _product_with_c17(n):
    factors = build_group("cyclic", 17), build_group("cyclic", n)
    return lambda: product_group(*factors)


@pytest.mark.parametrize(
    "prepare, fits, over, order",
    [
        (_family("cyclic"), 7327, 7328, lambda n: n),
        (_family("dihedral"), 3663, 3664, lambda n: 2 * n),
        (_family("sign_flip"), 12, 13, lambda d: 2**d),
        (_family("symmetric"), 7, 8, math.factorial),
        (_product_with_c17, 431, 432, lambda n: 17 * n),
    ],
    ids=["cyclic", "dihedral", "signflip", "symmetric", "product"],
)
def test_group_table_cap_is_a_byte_estimate(monkeypatch, prepare, fits, over, order):
    cap = MEMORY_CAP_BYTES
    assert cap == 2 << 30 and 7327**2 * 40 <= cap < 7328**2 * 40
    assert order(fits) ** 2 * 40 <= cap < order(over) ** 2 * 40
    build_fits, build_over = prepare(fits), prepare(over)
    with pytest.raises(SizeLimitError, match=f"needs about {order(over) ** 2 * 40:,} bytes"):
        build_over()
    # every table is built with numpy; without it, a size that passes the
    # check stops at its first allocation and one that fails never gets there
    monkeypatch.setattr(groups_module, "np", _NumpyStub())
    with pytest.raises(SizeLimitError):
        build_over()
    with pytest.raises(_Allocating):
        build_fits()


def test_custom_group_cap_is_a_byte_estimate(monkeypatch):
    fits, over = 7327, 7328
    assert fits**2 * 40 <= MEMORY_CAP_BYTES < over**2 * 40

    def stop(*args, **kwargs):
        raise _Allocating

    # ``Group`` copies the table and builds its temporaries: stop there.
    # Zero-stride views stand for tables of either order without memory.
    monkeypatch.setattr(groups_module, "Group", stop)
    view = lambda n: np.broadcast_to(np.int64(0), (n, n))
    with pytest.raises(SizeLimitError, match=f"needs about {over**2 * 40:,} bytes"):
        custom_group(view(over))
    with pytest.raises(_Allocating):
        custom_group(view(fits))


def test_conjugacy_class_counts(small_groups):
    # abelian groups split into singletons
    assert len(conjugacy_classes(small_groups["cyclic:4"])) == 4
    assert len(conjugacy_classes(small_groups["signflip:2"])) == 4
    # frozen counts: dihedral n=5 -> 4 classes, symmetric d=4 -> 5 classes
    assert len(conjugacy_classes(small_groups["dihedral:5"])) == 4
    assert len(conjugacy_classes(parse_group_spec("symmetric:4"))) == 5


def test_conjugacy_against_brute_force():
    for spec in TABLE_SPECS + ["symmetric:5", "symmetric:6"]:
        group = parse_group_spec(spec)
        part = conjugacy_classes(group)
        oracle = brute_force_classes(group)  # in order of class minimum
        fields = (part.representatives, part.sizes, part.class_of)
        assert [a.dtype for a in fields] == [np.int64] * 3, spec
        assert part.representatives.tolist() == [min(c) for c in oracle], spec
        assert np.all(np.diff(part.representatives) > 0), spec
        assert part.sizes.tolist() == [len(c) for c in oracle], spec
        want = np.empty(group.order, dtype=np.int64)
        for i, c in enumerate(oracle):
            want[list(c)] = i
        assert np.array_equal(part.class_of, want), spec


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
    a, b = z3.index_of_label("100"), z3.index_of_label("001")
    assert z3.product(a, b) == z3.index_of_label("101")


def test_dihedral_relation(small_groups):
    d5 = small_groups["dihedral:5"]
    n = 5
    r, s = 1, n  # rotation by one step, base reflection
    # s r s^{-1} = r^{-1}
    conj = d5.product(d5.product(s, r), d5.inv[s])
    assert conj == d5.inv[r]


def test_symmetric_composition_convention():
    s3 = parse_group_spec("symmetric:3")
    # labels are one-line notation; composing (sigma tau)(x) = sigma(tau(x))
    sigma = s3.index_of_label("120")  # 0->1, 1->2, 2->0
    tau = s3.index_of_label("102")  # swap 0,1
    composed = s3.product(sigma, tau)
    assert s3.labels[composed] == "210"


def test_symmetric_table_matches_lehmer_rank_oracle():
    # column j of the table holds the lexicographic ranks of sigma o tau_j
    for d in range(1, 7):
        group = build_group("symmetric", d)
        perms = np.array([[int(c) for c in label] for label in group.labels])
        assert np.array_equal(lehmer_ranks(perms), np.arange(group.order))
        for j in range(group.order):
            assert np.array_equal(group.mult[:, j], lehmer_ranks(perms[:, perms[j]])), (d, j)


def test_group_text_round_trip(small_groups):
    for spec in ("cyclic:6", "signflip:2", "dihedral:4", "symmetric:3", "product(cyclic:2,cyclic:3)"):
        group = small_groups[spec] if spec in small_groups else parse_group_spec(spec)
        text = "".join(group_to_text(group))
        back = group_from_text(text)
        assert back == group
        assert "".join(group_to_text(back)) == text
        assert group_spec_string(back) == group_spec_string(group)


def test_group_to_text_streams_the_bytes_of_the_string_oracle(small_groups):
    # signflip:5 is closed form and fresh: its table is built at the first row
    groups = [*small_groups.values(), parse_group_spec("signflip:5"),
              custom_group(small_groups["dihedral:3"].mult)]
    for group in groups:
        chunks = list(group_to_text(group))
        assert len(chunks) == 1 + group.order  # the header, then one chunk per table row
        assert "".join(chunks) == group_to_text_as_string(group), group_spec_string(group)


def test_group_text_rejects_tampered_table(small_groups):
    text = "".join(group_to_text(small_groups["cyclic:3"]))
    lines = text.strip().splitlines()
    lines[1] = "0 2 1"
    with pytest.raises(UsageError):
        group_from_text("\n".join(lines))


@pytest.mark.parametrize(
    "text, message",
    [
        ("group custom 0 2\n0 1\n1", "row 1 has 1 entries, expected 2"),
        ("group custom - 2\n0 1 1\n1 0", "row 0 has 3 entries"),
        ("group custom - 2\n0 1\n1 x", "non-integer table entry 'x'"),
        ("group custom - 2\n0 1\n1 0.5", "non-integer table entry '0.5'"),
        ("group custom - two\n0", "non-integer group order 'two'"),
        ("group cyclic three 3\n0 1 2\n1 2 0\n2 0 1", "non-integer group parameter"),
        ("", "malformed group header"),
        ("group custom - 0", "square"),
    ],
)
def test_group_text_malformed_input_is_a_usage_error(text, message):
    with pytest.raises(UsageError, match=message) as err:
        group_from_text(text)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize(
    "mult, message",
    [(np.zeros((0, 0), dtype=np.int64), "nonempty"), ([[0, 1], [1]], "square array of integers")],
)
def test_custom_group_malformed_table_is_a_usage_error(mult, message):
    with pytest.raises(UsageError, match=message):
        custom_group(mult)


def test_spec_string_round_trip(small_groups):
    for spec, group in small_groups.items():
        assert parse_group_spec(group_spec_string(group)) == group


def test_equal_groups_hash_equal(small_groups):
    c4 = small_groups["cyclic:4"]
    copy = custom_group(c4.mult)
    assert copy == c4
    assert hash(copy) == hash(c4)
    assert len({copy, c4}) == 1


# -- table validation ----------------------------------------------------------


def test_generators_are_greedy_and_generate(small_groups):
    for group in small_groups.values():
        gens = list(group.generators)
        assert len(gens) <= math.log2(group.order)
        for i, b in enumerate(gens):
            generated = closure(group, gens[:i]) if i else [0]
            assert b == min(set(range(group.order)) - set(generated))
        assert closure(group, gens or [0]) == list(range(group.order))


WORD_BASIS_SPECS = ["dihedral:60", "symmetric:5", "symmetric:6", "product(cyclic:3,dihedral:12)",
                    "cyclic:300"]


def test_word_basis_is_repeated_squares_that_reach_every_element(small_groups):
    for spec in [*small_groups, *WORD_BASIS_SPECS]:
        group = small_groups.get(spec) or parse_group_spec(spec)
        basis, depth = group.word_basis()
        assert set(group.generators) <= set(basis), spec
        assert len(set(basis)) == len(basis), spec
        squares = set()
        for s in group.generators:
            order, x, power = element_order_by_loop(group, s), s, 1
            while power < order:  # x = s**power
                squares.add(int(x))
                x, power = group.product(x, x), 2 * power
        assert set(basis) == squares, spec
        layers = word_layers_by_sets(group.mult, basis)
        assert set().union(*layers) == set(range(group.order)), spec
        assert depth == len(layers) - 1, spec


def test_word_basis_sizes_and_depths_frozen():
    frozen = {"cyclic:1": (0, 0), "cyclic:1000": (10, 9), "dihedral:58": (7, 5),
              "symmetric:6": (5, 15), "signflip:9": (9, 9), "cyclic:7000": (13, 11)}
    for spec, (size, depth) in frozen.items():
        basis, got = parse_group_spec(spec).word_basis()
        assert (len(basis), got) == (size, depth), spec


def test_symmetric_permutations_are_a_lexicographic_array():
    for d in range(1, 8):
        perms = groups_module.symmetric_permutations(d)
        assert isinstance(perms, np.ndarray) and perms.dtype == np.int64, d
        assert np.array_equal(perms, np.array(sorted(permutations(range(d))))), d


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56)])
def test_custom_group_matches_brute_force_oracle(n, count):
    squares = reduced_latin_squares(n)
    assert len(squares) == count
    for square in squares:
        try:
            custom_group(square)
            accepted = True
        except UsageError:
            accepted = False
        assert accepted == brute_force_is_group(square), square


def _swapped_intercalate(n: int, a: int, b: int) -> np.ndarray:
    """cyclic:n with the 2x2 Latin subsquare at rows a, a + n/2 and
    columns b, b + n/2 swapped: still a Latin square with identity and
    two-sided inverses, but not associative."""
    mult = build_group("cyclic", n).mult.copy()
    rows, h = [a, a + n // 2], n // 2
    mult[rows, b], mult[rows, b + h] = mult[rows, b + h].copy(), mult[rows, b].copy()
    return mult


@pytest.mark.parametrize(
    "mult, message",
    [
        ([[0, 1], [1, 2]], "out of range"),
        ([[1, 0], [0, 1]], "identity"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "inverse"),
        (_swapped_intercalate(8, 1, 2), "associativity"),
    ],
)
def test_custom_group_error_messages(mult, message):
    assert not brute_force_is_group(np.asarray(mult).tolist())
    with pytest.raises(UsageError, match=message):
        custom_group(mult)


@pytest.mark.parametrize("spec", ["signflip:3", "product(cyclic:4,cyclic:2)"])
def test_every_intercalate_swap_matches_brute_force_oracle(spec):
    base = parse_group_spec(spec).mult
    n, failed_at = base.shape[0], set()
    for a in range(1, n):
        for a2 in range(a + 1, n):
            for b in range(1, n):
                for b2 in range(b + 1, n):
                    u, v = base[a, b], base[a, b2]
                    if base[a2, b2] != u or base[a2, b] != v or 0 in (u, v):
                        continue
                    mult = base.copy()
                    mult[a, b] = mult[a2, b2] = v
                    mult[a, b2] = mult[a2, b] = u
                    assert not brute_force_is_group(mult.tolist())
                    with pytest.raises(UsageError, match="associativity") as err:
                        custom_group(mult)
                    failed_at.add(str(err.value).rsplit("=", 1)[1])
    assert failed_at == {"1", "2"}  # some tables pass Light's test at b=1


def test_large_non_associative_table_is_rejected():
    # 15 952 of the 10^9 triples fail; 20 000 uniform triples miss them all
    # with probability 0.73
    mult = _swapped_intercalate(1000, 5, 7)
    idx = np.arange(1000)
    assert np.array_equal(np.sort(mult, axis=0), np.tile(idx[:, None], (1, 1000)))
    assert np.array_equal(np.sort(mult, axis=1), np.tile(idx, (1000, 1)))
    with pytest.raises(UsageError, match="associativity"):
        custom_group(mult)


def _generator_subsets(order: int, rng) -> list[list[int]]:
    """Every single element and 20 seeded sets of one to three elements, sorted."""
    subsets = [[g] for g in range(order)]
    for _ in range(20):
        size = int(rng.integers(1, min(3, order) + 1))
        subsets.append(sorted(rng.choice(order, size=size, replace=False).tolist()))
    return subsets


def _assert_generated_matches_oracle(group, mult, gens) -> None:
    mask, depth = groups_module._generated(group, gens)
    want_mask, want_depth = generated_by_unique(mult, gens)
    assert np.array_equal(mask, want_mask) and depth == want_depth, gens


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_generators_depth_and_closure_match_the_unique_oracle(spec):
    group = parse_group_spec(spec)
    assert light_test_by_take(group.mult) == (group.generators, None)
    basis, depth = group.word_basis()
    reached, want_depth = generated_by_unique(group.mult, list(basis))
    assert reached.all() and depth == want_depth
    for gens in _generator_subsets(group.order, np.random.default_rng(group.order)):
        _assert_generated_matches_oracle(group, group.mult, gens)
        assert closure(group, gens) == np.flatnonzero(generated_by_unique(group.mult, gens)[0]).tolist()


def _intercalate_swaps(spec: str):
    """Every table made from ``spec``'s by swapping one 2x2 Latin subsquare
    that avoids the identity's row, column and products."""
    base = parse_group_spec(spec).mult
    n = base.shape[0]
    for a in range(1, n):
        for a2 in range(a + 1, n):
            for b in range(1, n):
                for b2 in range(b + 1, n):
                    u, v = base[a, b], base[a, b2]
                    if base[a2, b2] != u or base[a2, b] != v or 0 in (u, v):
                        continue
                    mult = base.copy()
                    mult[a, b] = mult[a2, b2] = v
                    mult[a, b2] = mult[a2, b] = u
                    yield mult


def test_corrupted_tables_fail_where_the_take_oracle_fails():
    rng = np.random.default_rng(53)
    specs = ["signflip:3", "product(cyclic:4,cyclic:2)", "dihedral:4"]
    tables = [mult for spec in specs for mult in _intercalate_swaps(spec)]
    tables += [_swapped_intercalate(n, a, b) for n in (8, 12, 64, 200) for a, b in ((1, 2), (2, 3), (3, 2))]
    failed_at = set()
    for mult in tables:
        _, b = light_test_by_take(mult)
        assert b is not None
        with pytest.raises(UsageError) as err:
            custom_group(mult)
        assert str(err.value) == f"associativity fails at b={b}"
        failed_at.add(b)
        unproved = _closed_form(mult)  # a closed form defers Light's test to its table's first read
        for gens in _generator_subsets(mult.shape[0], rng)[-20:]:
            _assert_generated_matches_oracle(unproved, mult, gens)
    assert len(failed_at) > 1


# -- closed forms ------------------------------------------------------------------

CLOSED_FORM_SPECS = (
    [f"cyclic:{n}" for n in range(1, 41)]
    + [f"signflip:{d}" for d in range(1, 9)]
    + [
        "product(cyclic:3,signflip:2)",
        "product(signflip:2,dihedral:4)",
        "product(symmetric:3,cyclic:4)",
        "product(symmetric:4,signflip:1)",
        "product(product(cyclic:2,symmetric:3),dihedral:3)",
        "product(cyclic:5,product(signflip:1,symmetric:4))",
        "product(product(cyclic:2,cyclic:2),product(dihedral:5,cyclic:3))",
        "product(cyclic:1,product(cyclic:1,cyclic:4))",
    ]
)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_closed_forms_match_the_dense_constructors(spec):
    group = parse_group_spec(spec)
    oracle = custom_group(dense_family_table(group))
    assert np.array_equal(group.inv, oracle.inv) and group.generators == oracle.generators
    assert group.word_basis() == oracle.word_basis()
    part, want = conjugacy_classes(group), conjugacy_classes(oracle)
    for field in ("representatives", "sizes", "class_of"):
        assert np.array_equal(getattr(part, field), getattr(want, field)), field
    assert group.is_abelian == bool(np.array_equal(oracle.mult, oracle.mult.T))
    assert all(leaf._mult is None for leaf in _leaves(group) if leaf.family in ("cyclic", "sign_flip"))
    assert group.mult.dtype == np.int64 and group.mult.flags.c_contiguous
    assert np.array_equal(group.mult, oracle.mult)
    assert group == oracle and hash(group) == hash(oracle)


def _leaves(group) -> list:
    """The factors of a nested product that are not products, or the group itself."""
    if group.family != "product":
        return [group]
    return [leaf for factor in group.factors for leaf in _leaves(factor)]


def _closed_form(table, inv=None) -> groups_module.Group:
    n = len(table)
    return groups_module.Group(None, [str(i) for i in range(n)], "custom", (),
                               product=lambda a, b: table[a, b],
                               inv=np.argmax(table == 0, axis=1) if inv is None else inv)


def test_a_closed_form_is_proved_on_the_first_read_of_its_table():
    # one Latin subsquare swapped in signflip:3 breaks associativity but
    # keeps the identity and every inverse, which construction checks
    for bad in islice(_intercalate_swaps("signflip:3"), 6):
        gens, b = light_test_by_take(bad)
        group = _closed_form(bad)
        assert group.generators[: len(gens)] == gens and b is not None
        for _ in range(2):  # refused at every read, and never kept
            with pytest.raises(UsageError, match=f"^associativity fails at b={b}$"):
                group.mult
            assert group._mult is None
    c5 = build_group("cyclic", 5).mult
    with pytest.raises(UsageError, match="two-sided identity"):
        _closed_form(np.roll(c5, 1, axis=1))
    with pytest.raises(UsageError, match="inverse table inconsistent"):
        _closed_form(c5, inv=np.arange(5))


def test_groups_compare_by_table():
    a, b = parse_group_spec("product(signflip:3,cyclic:5)"), parse_group_spec("product(signflip:3,cyclic:5)")
    assert a == b and hash(a) == hash(b)
    assert a != parse_group_spec("product(cyclic:5,signflip:3)")
    assert parse_group_spec("product(cyclic:1,cyclic:4)") == parse_group_spec("cyclic:4")


def test_abelian_classes_are_the_loops_partition(small_groups, monkeypatch):
    abelian = {spec: g for spec, g in small_groups.items() if g.is_abelian}
    assert len(abelian) >= 8
    shortcut = {spec: conjugacy_classes(g) for spec, g in abelian.items()}
    monkeypatch.setattr(groups_module.Group, "is_abelian", property(lambda self: False))
    for spec, group in abelian.items():
        loop = conjugacy_classes(group)
        for field in ("representatives", "sizes", "class_of"):
            got, want = getattr(shortcut[spec], field), getattr(loop, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (spec, field)


def test_is_abelian_agrees_with_the_transposed_table(small_groups):
    for spec in [*small_groups, "dihedral:12", "symmetric:5", "product(signflip:2,dihedral:3)"]:
        group = parse_group_spec(spec)
        assert group.is_abelian == bool(np.array_equal(group.mult, group.mult.T)), spec
