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
    parse_group_spec,
    permutation_rep,
    regular_rep,
    trivial_rep,
)
from groupavg import SizeLimitError
from groupavg import irreps as irreps_module
from groupavg.groups import GROUP_TABLE_MAX_BYTES
from groupavg.irreps import IrrepTable
from oracles import character_by_loop, character_layer_reps, decompose_by_loop, irrep_mats_by_loop
from oracles import character_table_csv_as_string, signed_permutation_by_masks, table_order_by_re_im

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
            want = signed_permutation_by_masks(irrep.mats)
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


ORDER_SPECS = list(dict.fromkeys(
    TABLE_SPECS + [f"signflip:{d}" for d in range(1, 9)] + [f"cyclic:{n}" for n in range(1, 13)]
))


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_table_order_matches_the_re_im_lexsort(spec):
    # a real dimension sorts on its real parts alone, in the (re, im) order
    table = irreps_of(parse_group_spec(spec))
    want = table_order_by_re_im(table.group)
    assert len(table.stacks) == len(want)
    for got, stack in zip(table.stacks, want):
        assert got.shape == stack.shape and got.tobytes() == stack.tobytes(), spec


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
    rows = list(csv_mod.reader(io.StringIO("".join(character_table_csv(table)))))
    assert len(rows[0]) == 1 + len(table.partition)
    assert rows[0][1] == "(0,0)"


def test_multiplicity_perm_rep(tables):
    table = tables["symmetric:3"]
    rep = permutation_rep(table.group)
    mults = decompose(rep, table)
    # ordering is trivial, sign, standard
    assert list(mults) == [1, 0, 1]
    assert mults[0] == 1
    assert mults[1] == 0
    assert mults[2] == 1


def test_multiplicity_regular_rep(tables):
    for spec in ("cyclic:7", "symmetric:3", "dihedral:4"):
        table = tables[spec]
        reg = regular_rep(table.group)
        mults = decompose(reg, table)
        assert list(mults) == list(table.dims)  # every irrep d_pi times


def test_multiplicity_trivial_cases(tables):
    table = tables["symmetric:3"]
    tri = trivial_rep(table.group)
    assert decompose(tri, table)[0] == 1
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
    csv = "".join(character_table_csv(table))
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
    assert hashlib.sha256("".join(character_table_csv(table)).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_character_table_csv_streams_the_bytes_of_the_string_oracle(spec, tables):
    # product labels such as "(0,0)" need CSV quoting
    table = tables[spec]
    chunks = list(character_table_csv(table))
    assert len(chunks) == 1 + len(table)  # the header, then one chunk per irrep
    assert "".join(chunks) == character_table_csv_as_string(table)


def test_character_table_is_written_row_by_row(tmp_path):
    import tracemalloc

    from groupavg.io import write_text

    table = irreps_of(parse_group_spec("cyclic:300"))
    path = tmp_path / "character_table.csv"
    tracemalloc.start()
    try:
        write_text(path, character_table_csv(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 10, (peak, path.stat().st_size)


def test_characters_and_multiplicities_match_loop_oracles(small_groups):
    for spec, group in small_groups.items():
        table = irreps_of(group)
        for rep in character_layer_reps(group):
            chi = rep.character(table.partition)
            assert np.array_equal(chi.values, character_by_loop(rep)), spec
            want = decompose_by_loop(chi.values, table)
            assert np.array_equal(decompose(rep, table), want), (spec, rep.name)
            assert [decompose(chi, table)[i] for i in range(len(table))] == want.tolist()


def test_validate_rejects_a_reducible_block(tables):
    # trivial + sign has the standard irrep's dimension, so the irrep count
    # and the squared dimensions still match; its norm <chi, chi> reads 2
    table = tables["symmetric:3"]
    trivial, sign, _ = table.irreps
    block = direct_sum(trivial, sign)
    characters = table.characters.copy()
    characters[2] = block.character(table.partition).values
    bad = IrrepTable(table.group, table.partition, [table.stacks[0], block.mats[None]], characters)
    with pytest.raises(NumericalConsistencyError, match="orthogonality"):
        bad.validate()
    # on dihedral:5 (dims 1, 1, 2, 2), one 2-dimensional irrep twice keeps
    # the count, the squared dimensions and every norm; dropping one breaks
    # the regular character
    table = tables["dihedral:5"]
    ones, twos = table.stacks
    duplicated = IrrepTable(table.group, table.partition, [ones, twos[[0, 0]]],
                            table.characters[[0, 1, 2, 2]])
    missing = IrrepTable(table.group, table.partition, [ones, twos[:1]], table.characters[:3])
    for bad in (duplicated, missing):
        with pytest.raises(NumericalConsistencyError):
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


# sha256 of each shape's stacked adjacent-transposition matrices, recorded
# before the tableaux became row words; a moved bit in any matrix shows here
YOUNG_SHA256 = {
    (1,): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2,): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (1, 1): "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    (3,): "5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005",
    (2, 1): "c4a4c96ebedd434e34352b4f3d669f092dbf37ed3af6046c1c7bd0bc214efbf7",
    (1, 1, 1): "e077172409ed971e7cbc8aaf3f5fc99ffd5806da65b60973369d000cf6a32fc6",
    (4,): "cc143326a2646c605ea66139d7b440df7cbde18c050f1f8cf4dd30f42cfe7123",
    (3, 1): "cfcff5657a1c9f6f7358ac8b3ee4585228d0feb511f74affdaf73c36eaa4c188",
    (2, 2): "5a3782fede0903a1f0cb9d381b48777f726ada8fcf704a0ea3e40584ea305a47",
    (2, 1, 1): "45af14bc7edcc0d3f452ef78fa44410d4c9a4324dfea5e77bd412c061d6a6ef8",
    (1, 1, 1, 1): "7104782d6bdc0fdba5f94a4023afa0312e8e90258a7090d2dd0743633c47cc38",
    (5,): "c914e8188e43fff1c96e25283e15b252af0d9f39b469f2d1518915802c756d18",
    (4, 1): "2fbba865b93bd5ae0c78f3a3bb357b695f181f8581b58fb81e6bfab5235a053f",
    (3, 2): "340ec9cb0be54376db0eeaec7f4190c5f5728c0f82fc6a5da5c441a6b36fef64",
    (3, 1, 1): "c0f04ed9733da86cbb13ea283e46071523f12d33f85b14d2ee22867f5685e45a",
    (2, 2, 1): "3e7a956f82a8ec78f07e2315612cf78e14ebd72cb32513b838dd0ee6529f666d",
    (2, 1, 1, 1): "22506c7e102d5242c97f7015464e44933fffa3a131e3b688afd84bec4bc6122d",
    (1, 1, 1, 1, 1): "b9cb9f435b7b679dcbb305667ccf159deeb454bc85831f25cf93ab33cbd36c70",
    (6,): "6e91e92205f42beb0df4ddf13cf0af352b29ffd2de9465348cdb1447a324e828",
    (5, 1): "f2567b77f9d49b1293737534f0e2ee22cede0f14ce415e10b711099dceca6c93",
    (4, 2): "f67240a114c50eda9dda6b6cc9d747351364f123fe80e94970ca8df0b9c02507",
    (4, 1, 1): "d10df32d1e709d71f710caac37a554c6a1625603016a20b94233faf36cda4ef0",
    (3, 3): "3e035b3869c0eb684ded9406145ac0c61f7f7700af0dfb142fdea5c9a74274b4",
    (3, 2, 1): "83c0ba7c18a3a847f2a92ed36a287393136dacfe98de9e2e355b9758af959d4a",
    (3, 1, 1, 1): "edd911ff5ebed9fd8f383a0589fcd1e826285d0abf0603d2e857faab5fd0720c",
    (2, 2, 2): "ddc770917b0e8b3c25817856e5aade9f721ca3c2831539a51804181c4eb72e0d",
    (2, 2, 1, 1): "8f553ae28d26f36753b1296d449e753b2782541cea2254ffe4d111e684515702",
    (2, 1, 1, 1, 1): "392f080b2c6f5666371ee510968c5139975887f3e825b77a33195205766805bc",
    (1, 1, 1, 1, 1, 1): "9cb2b0781202d34b99680abef0d0c8797b5ceb0a7a87bcf1c5c7bd0b0d68bbe0",
    (7,): "961e76f1c44f5ce8d5761ea1aa65e20225642a79548cbe995da4644fae5f8c11",
    (6, 1): "069fdc2535ef35213387781a2eb47d585cf0a4f2b99f22f434cb0624903fdb27",
    (5, 2): "fe20acab98a86ad8daef05ddbfa1fc7c622ff84c90317a8360280d3bfc03200d",
    (5, 1, 1): "f5472785be0a047598807b14d3badd8f80dd309ceb340e380cf79d343c02c0d2",
    (4, 3): "c093439b5f4fe7fd8e620b248ac668d888445a2e40d9fc60809df241d6341819",
    (4, 2, 1): "1a1b94373c68d8d38cba3f7135dbcf339dd48c56f8b7768a3a37b295d77026bb",
    (4, 1, 1, 1): "5a4e77a793308809439f5a4f1731f06108cebc0ba241999be7411bf40d090de4",
    (3, 3, 1): "ce9375fa504999b16580356c6ad371ffeb4f58716bb93ee7b10fdcba01b1a16a",
    (3, 2, 2): "ab0a53df9546b3a0e6fcdbae856c2931a0f5325d5b495124273c09d92d086697",
    (3, 2, 1, 1): "876994d01b6ed528d63f26e4fe68d1a8b3ac02135022335fa6a68d2d31ca7feb",
    (3, 1, 1, 1, 1): "160d8f0cb0f9da40ae793de2cd895d2382fb3f3ef6865e5c973fb2b042869c31",
    (2, 2, 2, 1): "4bfa2c685c08a421392ece300070566b2fac48ca5610b65c6acabb3e117ae749",
    (2, 2, 1, 1, 1): "3659c48544b6e7256abbdc7c13dc05e31eff6c75670c4560ebd768bbd349955a",
    (2, 1, 1, 1, 1, 1): "2d0e1ecd7bcab2829fa2149d1163d660d20c55a3e51ddfd420e28a5aa3a7532a",
    (1, 1, 1, 1, 1, 1, 1): "36add7b8674fa00a9c08ee599427b019a59937ed7815d0c5d961c4a5e5895834",
}


def test_young_form_keeps_its_bits():
    import hashlib
    import math

    for d in range(1, 8):
        squares = 0
        for shape in irreps_module.partitions_of(d):
            tabs, mats = irreps_module._adjacent_transposition_matrices(shape)
            digest = hashlib.sha256(np.array(mats, dtype=np.float64).tobytes()).hexdigest()
            assert digest == YOUNG_SHA256[shape], shape
            squares += len(tabs) ** 2
        assert squares == math.factorial(d), d  # sum of (f^lambda)^2 is d!
    assert len(YOUNG_SHA256) == sum(len(irreps_module.partitions_of(d)) for d in range(1, 8))


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

