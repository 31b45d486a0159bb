import numpy as np
import pytest

from groupavg import (
    CapabilityError,
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
