from types import SimpleNamespace

import numpy as np
import pytest

from groupavg import (
    CapabilityError,
    CharacterVector,
    NumericalConsistencyError,
    character_table_csv,
    decompose,
    direct_sum,
    irreps_of,
    multiplicity,
    parse_group_spec,
    permutation_rep,
    regular_rep,
    trivial_rep,
)
from groupavg import SizeLimitError
from groupavg import irreps as irreps_module
from groupavg import reps as reps_module
from groupavg.groups import GROUP_TABLE_MAX_BYTES
from groupavg.irreps import IrrepTable
from oracles import character_by_loop, character_layer_reps, decompose_by_loop, irrep_mats_by_loop

TABLE_SPECS = [
    "cyclic:1",
    "cyclic:4",
    "cyclic:7",
    "signflip:1",
    "signflip:3",
    "signflip:4",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:7",
    "symmetric:2",
    "symmetric:3",
    "symmetric:4",
    "symmetric:5",
    "product(cyclic:2,cyclic:3)",
    "product(cyclic:2,symmetric:3)",
    "product(signflip:2,cyclic:2)",
]


@pytest.fixture(scope="module")
def tables():
    return {spec: irreps_of(parse_group_spec(spec)) for spec in TABLE_SPECS}


def test_table_signed_forms_match_the_per_irrep_form(tables):
    mixed = set()
    for spec, table in tables.items():
        for irrep in table.irreps:
            got = irrep.signed_permutation()
            want = reps_module._signed_permutation_of(irrep.mats)
            assert (got is None) == (want is None), (spec, irrep.name)
            if want is not None:
                assert np.array_equal(got[0], want[0]) and got[0].dtype == want[0].dtype
                assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
        start = 0
        for stack in table.stacks:
            signed = {table.irreps[i].signed_permutation() is None
                      for i in range(start, start + len(stack))}
            if len(signed) == 2:
                mixed.add(spec)
            start += len(stack)
    assert {"cyclic:4", "cyclic:7", "product(cyclic:2,cyclic:3)"} <= mixed, mixed


def test_table_invariants(tables):
    for spec, table in tables.items():
        group = table.group
        assert len(table) == len(table.partition), spec
        assert sum(d * d for d in table.dims) == group.order, spec
        sizes = np.array(table.partition.sizes, dtype=float)
        gram = (table.characters * sizes) @ table.characters.conj().T / group.order
        assert np.abs(gram - np.eye(len(table))).max() < 1e-9, spec
        # irreducibility certificate per irrep
        for i in range(len(table)):
            norm = float((sizes * np.abs(table.characters[i]) ** 2).sum() / group.order)
            assert abs(norm - 1.0) < 1e-9, spec
        # trivial first
        assert table.dims[table.trivial_index] == 1
        assert np.abs(table.characters[table.trivial_index] - 1.0).max() < 1e-12


def test_abelian_all_one_dimensional(tables):
    assert tables["cyclic:4"].dims == (1, 1, 1, 1)
    assert set(tables["signflip:3"].dims) == {1}
    assert len(tables["signflip:3"]) == 8


def test_frozen_dimension_patterns(tables):
    assert sorted(tables["symmetric:3"].dims) == [1, 1, 2]
    assert sorted(tables["dihedral:5"].dims) == [1, 1, 2, 2]
    assert sorted(tables["symmetric:4"].dims) == [1, 1, 2, 3, 3]
    assert sorted(tables["dihedral:4"].dims) == [1, 1, 1, 1, 2]


def test_unsupported_families():
    with pytest.raises(CapabilityError):
        irreps_of(parse_group_spec("symmetric:7"))


def test_symmetric_six_at_cap():
    table = irreps_of(parse_group_spec("symmetric:6"))
    assert len(table) == 11  # integer partitions of 6
    assert sum(d * d for d in table.dims) == 720
    assert max(table.dims) == 16


def test_product_labels_quoted_in_csv():
    import csv as csv_mod
    import io

    table = irreps_of(parse_group_spec("product(cyclic:2,cyclic:3)"))
    rows = list(csv_mod.reader(io.StringIO(character_table_csv(table))))
    assert len(rows[0]) == 1 + len(table.partition)
    assert rows[0][1] == "(0,0)"


def test_multiplicity_perm_rep(tables):
    table = tables["symmetric:3"]
    rep = permutation_rep(table.group)
    mults = decompose(rep, table)
    # ordering is trivial, sign, standard
    assert list(mults) == [1, 0, 1]
    assert multiplicity(rep, 0, table) == 1
    assert multiplicity(rep, 1, table) == 0
    assert multiplicity(rep, 2, table) == 1


def test_multiplicity_regular_rep(tables):
    for spec in ("cyclic:7", "symmetric:3", "dihedral:4"):
        table = tables[spec]
        reg = regular_rep(table.group)
        mults = decompose(reg, table)
        assert list(mults) == list(table.dims)  # every irrep d_pi times


def test_multiplicity_trivial_cases(tables):
    table = tables["symmetric:3"]
    tri = trivial_rep(table.group)
    assert multiplicity(tri, 0, table) == 1
    rep = permutation_rep(table.group)
    doubled = direct_sum(rep, rep)
    assert list(decompose(doubled, table)) == [2, 0, 2]


def test_decompose_reconstructs_character(tables):
    for spec in ("symmetric:4", "dihedral:5", "product(cyclic:2,symmetric:3)"):
        table = tables[spec]
        reg = regular_rep(table.group)
        mults = decompose(reg, table)
        recon = (np.asarray(mults)[:, None] * table.characters).sum(axis=0)
        chi = reg.character(table.partition)
        assert np.abs(recon - chi.values).max() < 1e-8


def test_character_table_csv(tables):
    table = tables["symmetric:3"]
    csv = character_table_csv(table)
    lines = csv.strip().splitlines()
    assert len(lines) == 4  # header + 3 irreps
    assert lines[0].startswith("irrep,")
    assert lines[1].split(",")[1] == "1+0i"


# Recorded before the irrep sort key and the character extraction were
# vectorized; any change of order or of a last bit shows here.
FROZEN_CSV_SHA256 = {
    "symmetric:5": (
        ["pi0_d1", "pi1_d1", "pi2_d4", "pi3_d4", "pi4_d5", "pi5_d5", "pi6_d6"],
        "7796377fff2445d806c19d68b4f8ceed28fbe11bc7c87c274e2f4aadcb888775",
    ),
    "product(cyclic:3,dihedral:6)": (
        [f"pi{i}_d1" for i in range(12)] + [f"pi{i}_d2" for i in range(12, 18)],
        "9b394f2a0305ebc03aa358cd396bdf52a8c9b0d75015a637822a8be90dd728f1",
    ),
}


@pytest.mark.parametrize("spec", sorted(FROZEN_CSV_SHA256))
def test_character_table_csv_frozen(spec):
    import hashlib

    labels, digest = FROZEN_CSV_SHA256[spec]
    table = irreps_of(parse_group_spec(spec))
    assert table.labels() == labels
    assert hashlib.sha256(character_table_csv(table).encode()).hexdigest() == digest


def test_characters_and_multiplicities_match_loop_oracles(small_groups):
    for spec, group in small_groups.items():
        table = irreps_of(group)
        for rep in character_layer_reps(group):
            chi = rep.character(table.partition)
            assert np.array_equal(chi.values, character_by_loop(rep)), spec
            want = decompose_by_loop(chi.values, table)
            assert np.array_equal(decompose(rep, table), want), (spec, rep.name)
            assert [multiplicity(chi, i, table) for i in range(len(table))] == want.tolist()


def test_validate_rejects_a_reducible_block(tables):
    # trivial + sign has the standard irrep's dimension, so the irrep count
    # and the squared dimensions still match; the gram's diagonal reads 2
    table = tables["symmetric:3"]
    trivial, sign, _ = table.irreps
    block = direct_sum(trivial, sign)
    characters = table.characters.copy()
    characters[2] = block.character(table.partition).values
    bad = IrrepTable(table.group, table.partition, [table.stacks[0], block.mats[None]], characters)
    with pytest.raises(NumericalConsistencyError, match="orthogonality"):
        bad.validate()


@pytest.mark.parametrize("scale", [0.5, np.nan], ids=["half", "nan"])
def test_decompose_rejects_a_character_off_the_integers(tables, scale):
    table = tables["symmetric:3"]
    chi = regular_rep(table.group).character(table.partition)
    with pytest.raises(NumericalConsistencyError, match="from an integer"):
        decompose(CharacterVector(chi.group, chi.partition, chi.values * scale), table)


STACK_ORACLE_SPECS = {
    "cyclic": [f"cyclic:{n}" for n in range(1, 129)],
    "signflip": [f"signflip:{d}" for d in range(1, 9)],
    "dihedral": [f"dihedral:{n}" for n in range(3, 61)],
    "symmetric": [f"symmetric:{d}" for d in range(1, 7)],
    "product": ["product(cyclic:3,dihedral:6)", "product(signflip:2,symmetric:3)"],
}


@pytest.mark.parametrize("family", sorted(STACK_ORACLE_SPECS))
def test_stacks_match_per_irrep_oracle(family):
    # same bits as building one irrep at a time and sorting afterwards
    for spec in STACK_ORACLE_SPECS[family]:
        table = irreps_of(parse_group_spec(spec))
        mats, characters = irrep_mats_by_loop(table.group)
        assert [s.shape[2] for s in table.stacks] == sorted(set(table.dims)), spec
        want = [np.stack([m for m in mats if m.shape[1] == s.shape[2]]) for s in table.stacks]
        for got, expect in zip(table.stacks, want):
            assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), spec
        assert np.array_equal(table.characters.view(np.uint64), characters.view(np.uint64)), spec


def test_irreps_view_their_stacks(tables):
    for spec, table in tables.items():
        views = [(i, s) for s in table.stacks for i in range(len(s))]
        assert len(views) == len(table.irreps), spec
        for rep, (i, stack) in zip(table.irreps, views):
            assert np.shares_memory(rep.mats, stack), spec
            assert np.array_equal(rep.mats, stack[i]), spec


def _fake(family, order, **attrs):
    return SimpleNamespace(family=family, order=order, **attrs)


class _Allocating(Exception):
    pass


class _NumpyStub:
    """Stands in for numpy inside ``irreps``: any use means the size check passed."""

    def __getattr__(self, name):
        raise _Allocating(name)


@pytest.mark.parametrize(
    "fits, over",
    [
        (_fake("cyclic", 4729), _fake("cyclic", 4730)),
        (_fake("dihedral", 4728, params=(2364,)), _fake("dihedral", 4730, params=(2365,))),
        (_fake("sign_flip", 4096, params=(12,)), _fake("sign_flip", 8192, params=(13,))),
        (_fake("product", 4729, factors=(_fake("cyclic", 1), _fake("cyclic", 4729))),
         _fake("product", 4730, factors=(_fake("cyclic", 10), _fake("cyclic", 473)))),
    ],
    ids=["cyclic", "dihedral", "signflip", "product"],
)
def test_irrep_table_cap_is_a_byte_estimate(monkeypatch, fits, over):
    assert irreps_module._PEAK_BYTES_PER_ENTRY == 96 and GROUP_TABLE_MAX_BYTES == 2 << 30
    assert 4729**2 * 96 <= GROUP_TABLE_MAX_BYTES < 4730**2 * 96
    assert fits.order**2 * 96 <= GROUP_TABLE_MAX_BYTES < over.order**2 * 96
    # every builder allocates with numpy; without it, a size that passes the
    # check stops at its first allocation and one that fails never gets there
    monkeypatch.setattr(irreps_module, "np", _NumpyStub())
    with pytest.raises(SizeLimitError, match=f"needs about {over.order**2 * 96:,} bytes"):
        irreps_of(over)
    with pytest.raises(_Allocating):
        irreps_of(fits)

