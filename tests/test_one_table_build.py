"""Each irrep table is built and checked once.

A product table is built from its factors' builder stacks, with no factor
table of its own: the product's sort, its stack check and its two
character identities cover every product irrep.  A signed form is read on
1x1 stacks only, where the +-1 characters live.  No builder makes a signed
irrep of dimension 2 or more, and the traffic pin here fails first if one
ever does.
"""

import numpy as np
import pytest

from groupavg import CapabilityError, Representation, parse_group_spec
from groupavg import irreps as irreps_module
from groupavg import reps as reps_module
from groupavg.groups import custom_group, cyclic_group, product_group
from groupavg.irreps import IrrepTable
from catalogue import WORKLOADS, catalogue_jobs
from oracles import product_stacks_by_factor_tables, signed_permutation_by_masks
from test_irreps import TABLE_SPECS

NESTED = [
    "product(product(cyclic:2,cyclic:3),dihedral:5)",
    "product(dihedral:3,product(cyclic:2,signflip:2))",
    "product(product(dihedral:4,cyclic:2),product(symmetric:3,cyclic:2))",
]


@pytest.fixture(scope="module")
def catalogue_specs(tmp_path_factory) -> list[str]:
    """Every group a benchmark catalogue job names, in first-seen order."""
    workdir = str(tmp_path_factory.mktemp("catalogue"))
    specs = [job.argv[job.argv.index("--group") + 1]
             for workload in WORKLOADS for job in catalogue_jobs(workload, workdir)
             if "--group" in job.argv]
    return list(dict.fromkeys(specs))


def test_product_tables_keep_the_bytes_of_tables_built_from_factor_tables(catalogue_specs,
                                                                         monkeypatch):
    specs = [s for s in dict.fromkeys(TABLE_SPECS + catalogue_specs + NESTED) if s.startswith("product(")]
    assert len(specs) >= 17 and set(NESTED) <= set(specs)
    for spec in specs:
        got = irreps_module.irreps_of(parse_group_spec(spec))
        with monkeypatch.context() as patch:
            patch.setitem(irreps_module._BUILDERS, "product", product_stacks_by_factor_tables)
            want = irreps_module.irreps_of(parse_group_spec(spec))
        assert [s.shape for s in got.stacks] == [s.shape for s in want.stacks], spec
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.stacks, want.stacks)), spec
        assert np.ascontiguousarray(got.characters).tobytes() == \
            np.ascontiguousarray(want.characters).tobytes(), spec
        assert got.adjoint_rows.tobytes() == want.adjoint_rows.tobytes(), spec
        assert got.labels() == want.labels(), spec


BUILD_SPECS = list(dict.fromkeys(TABLE_SPECS + NESTED + ["product(cyclic:3,dihedral:12)",
                                                         "product(cyclic:2,symmetric:4)"]))


@pytest.mark.parametrize("spec", BUILD_SPECS)
def test_a_table_is_built_and_checked_once(spec, monkeypatch):
    """One ``irreps_of`` call and one ``IrrepTable`` per build, each irrep
    validated once, and only 1x1 stacks form-read."""
    tables, built, validated, read = [], [], [], []  # validated views kept alive: ids stay
    irreps_of, post_init = irreps_module.irreps_of, IrrepTable.__post_init__
    validate, stack_forms = Representation.validate, reps_module._stack_forms
    monkeypatch.setattr(irreps_module, "irreps_of", lambda g: tables.append(g) or irreps_of(g))
    monkeypatch.setattr(IrrepTable, "__post_init__", lambda t: built.append(t.group) or post_init(t))
    monkeypatch.setattr(Representation, "validate", lambda r: validated.append(r) or validate(r))
    monkeypatch.setattr(reps_module, "_stack_forms", lambda s: read.append(s.shape[2]) or stack_forms(s))
    group = parse_group_spec(spec)
    table = irreps_module.irreps_of(group)
    assert tables == [group] and built == [group]
    assert sorted(map(id, validated)) == sorted(map(id, table.irreps))
    assert read and set(read) == {1}


def test_a_table_sorts_derives_and_checks_its_stacks(catalogue_specs):
    """``IrrepTable(group, stacks)`` on the builder's stacks, in reverse order
    and each with its irreps permuted, is the table ``irreps_of`` builds,
    byte for byte, and leaves the given arrays as they were."""
    rng = np.random.default_rng(40)
    specs = list(dict.fromkeys(TABLE_SPECS + catalogue_specs + NESTED))
    assert len(specs) >= 90
    for spec in specs:
        group = parse_group_spec(spec)
        stacks = [s[rng.permutation(len(s))] for s in irreps_module._builder(group)(group)[::-1]]
        given = [s.tobytes() for s in stacks]
        got, want = IrrepTable(group, stacks), irreps_module.irreps_of(group)
        assert [s.tobytes() for s in stacks] == given, spec
        assert [s.shape for s in got.stacks] == [s.shape for s in want.stacks], spec
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.stacks, want.stacks)), spec
        assert np.ascontiguousarray(got.characters).tobytes() == \
            np.ascontiguousarray(want.characters).tobytes(), spec
        assert got.labels() == want.labels(), spec
        assert got.adjoint_rows.tobytes() == want.adjoint_rows.tobytes(), spec


def test_no_table_has_a_signed_irrep_of_dimension_two_or_more(catalogue_specs):
    wide = 0
    for spec in dict.fromkeys(TABLE_SPECS + catalogue_specs + NESTED):
        for irrep in irreps_module.irreps_of(parse_group_spec(spec)).irreps:
            if irrep.dim > 1:
                wide += 1
                assert signed_permutation_by_masks(irrep.mats) is None, (spec, irrep.name)
    assert wide > 800


def test_an_unsupported_factor_is_named():
    custom = custom_group(parse_group_spec("dihedral:3").mult)
    message = r"^no irreps for custom: supported are cyclic, signflip, dihedral, symmetric up to d = 6"
    for group in (product_group(custom, cyclic_group(2)),
                  product_group(cyclic_group(2), product_group(cyclic_group(3), custom))):
        with pytest.raises(CapabilityError, match=message):
            irreps_module.irreps_of(group)
