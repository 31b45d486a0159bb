"""An irrep table is checked one stack at a time, and each irrep's view reads its verdict.

``reps._stack_views`` reads the forms of a whole stack in one pass, checks
its +-1 1x1 irreps by one packed sign law and its other irreps by stacked
unitarity and word-basis residuals, then builds one view per irrep whose
first ``validate()`` raises from the recorded residuals.  Here the
recorded residuals keep the bits of the per-irrep functions and of the
per-irrep oracles, the +-1 verdicts those of the exact per-form checks,
and a corrupted stack raises the error, with the message, that checking
its irreps one at a time in table order raises first.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from groupavg import NumericalConsistencyError, Representation, closure, irreps_of, parse_group_spec
from groupavg import reps as reps_module
from groupavg.irreps import IrrepTable
from oracles import (
    first_irrep_error,
    per_basis_homomorphism_residual,
    sign_law_by_take,
    signed_homomorphism_by_pairs,
    unitarity_by_gram,
)
from test_irreps import TABLE_SPECS

RESIDUAL_SPECS = TABLE_SPECS + ["dihedral:57", "product(cyclic:3,dihedral:12)",
                                "product(cyclic:2,symmetric:4)", "cyclic:300"]
BLOCKS = pytest.mark.parametrize("block_entries", [None, 1 << 20, 1],
                                 ids=["default-blocks", "blocks-of-16MiB", "one-irrep-per-block"])


def _set_blocks(monkeypatch, block_entries) -> None:
    if block_entries is not None:
        monkeypatch.setattr(reps_module, "_DENSE_BLOCK_ENTRIES", block_entries)


def _recording(monkeypatch) -> list:
    """Every ``(group, view, residuals)`` the stack check builds from now on."""
    built = []
    original = Representation._from_stack

    def spy(cls, group, mats, name, signed, residuals):
        view = original(group, mats, name, signed, residuals)
        built.append((group, view, residuals))
        return view

    monkeypatch.setattr(Representation, "_from_stack", classmethod(spy))
    return built


@BLOCKS
def test_recorded_residuals_have_the_bits_of_the_per_irrep_checks(block_entries, monkeypatch):
    _set_blocks(monkeypatch, block_entries)
    built = _recording(monkeypatch)
    dense = signed = 0
    for spec in RESIDUAL_SPECS:
        group = parse_group_spec(spec)
        table = irreps_of(group)
        recorded = {id(view): residuals for g, view, residuals in built if g is group}
        assert len(recorded) == len(table), spec
        for irrep in table.irreps:
            unitarity, homomorphism = recorded[id(irrep)]
            if irrep.signed_permutation() is None:
                dense += 1
                assert unitarity.hex() == irrep.unitarity_residual().hex(), (spec, irrep.name)
                assert unitarity.hex() == unitarity_by_gram(irrep.mats).hex(), (spec, irrep.name)
                want = reps_module._dense_homomorphism_residual(irrep.mats, group)
                assert homomorphism.hex() == want.hex(), (spec, irrep.name)
                assert homomorphism.hex() == per_basis_homomorphism_residual(irrep.mats, group).hex()
            else:
                signed += 1
                assert homomorphism == 0.0 and reps_module._signed_homomorphism_holds(
                    group, *irrep.signed_permutation()), (spec, irrep.name)
        built.clear()
    assert dense > 300 and signed > 60, (dense, signed)


SIGN_SPECS = [f"signflip:{d}" for d in range(1, 9)] + [
    "dihedral:6", "symmetric:4", "product(signflip:2,cyclic:2)", "product(cyclic:2,symmetric:3)"]


@BLOCKS
def test_packed_sign_laws_match_the_per_form_checks(block_entries, monkeypatch):
    _set_blocks(monkeypatch, block_entries)
    rng = np.random.default_rng(37)
    refused = 0
    for spec in SIGN_SPECS:
        group = parse_group_spec(spec)
        _, sign, ok = reps_module._stack_forms(irreps_of(group).stacks[0])
        rows = sign[ok, :, 0].copy()
        assert len(rows) >= 2, spec
        for i in range(1, len(rows), 2):  # every other row: one sign flipped off the identity
            if group.order > 1:
                rows[i, rng.integers(1, group.order)] *= -1
        got = reps_module._sign_laws_hold(group, rows)
        want = [sign_law_by_take(group, row) for row in rows]
        assert got.tolist() == want, spec
        zero = np.zeros((group.order, 1), dtype=np.intp)
        assert want == [signed_homomorphism_by_pairs(group, zero, row[:, None]) for row in rows]
        refused += len(want) - sum(want)
    assert refused > 150


def test_the_sign_law_reads_every_generator():
    """Rows that keep the law on every generator but the last: signs constant
    on each left coset g<H> of the subgroup H the others generate, drawn at
    random per coset.  Where H has index above 2 most of them break the law
    at the last generator alone, and both checks refuse them alike."""
    rng = np.random.default_rng(11)
    refused = 0
    for spec in ["product(cyclic:3,cyclic:2)", "symmetric:3", "symmetric:4",
                 "product(cyclic:3,dihedral:4)", "product(cyclic:5,signflip:2)"]:
        group = parse_group_spec(spec)
        subgroup = closure(group, group.generators[:-1])
        coset = np.full(group.order, -1)
        for g in range(group.order):
            if coset[g] < 0:
                coset[group.mult[g, subgroup]] = g
        rows = np.where(rng.random((40, group.order)) < 0.5, -1, 1).astype(np.int8)[:, coset]
        rows *= rows[:, :1]  # sign[e] = 1
        want = [sign_law_by_take(group, row) for row in rows]
        assert reps_module._sign_laws_hold(group, rows).tolist() == want, spec
        refused += len(want) - sum(want)
    assert refused > 100


def _rotation(angle: float) -> np.ndarray:
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _corrupt(stacks, dim: int, irrep: int, element: int, kind: str) -> None:
    """Change one element of irrep ``irrep`` of the ``dim``-dimensional stack in place."""
    m = next(s for s in stacks if s.shape[2] == dim)[irrep]
    if kind == "sign":
        m[element] *= -1
    elif kind == "phase":  # unitary, off the homomorphism law
        m[element] *= np.exp(0.3j)
    elif kind == "nan":
        m[element, 0, -1] = np.nan
    elif kind in ("inf", "-inf"):
        m[element, 0, 0] = float(kind)
    elif kind == "scale":  # not unitary
        m[element] *= 1.5
    elif kind == "rotate":  # unitary, off the homomorphism law
        m[element] = m[element] @ _rotation(0.3)


# (spec, corruptions as (dim, irrep within its stack, element, kind), the first error's message)
FAILURES = [
    ("signflip:4", [(1, 5, 3, "sign")], "homomorphism residual inf exceeds tolerance"),
    ("dihedral:6", [(1, 2, 7, "sign")], "homomorphism residual inf exceeds tolerance"),
    ("symmetric:4", [(1, 1, 5, "sign")], "homomorphism residual inf exceeds tolerance"),
    ("cyclic:7", [(1, 3, 2, "nan")], "unitarity residual nan exceeds tolerance"),
    ("signflip:4", [(1, 5, 3, "inf")], "unitarity residual nan exceeds tolerance"),
    ("signflip:4", [(1, 6, 9, "-inf")], "unitarity residual nan exceeds tolerance"),
    ("dihedral:5", [(2, 0, 3, "nan")], "unitarity residual nan exceeds tolerance"),
    ("dihedral:5", [(2, 1, 4, "inf")], "unitarity residual nan exceeds tolerance"),
    ("dihedral:7", [(2, 1, 4, "scale")], "unitarity residual 1.768e+00 exceeds tolerance"),
    ("dihedral:7", [(2, 2, 5, "rotate")], "homomorphism residual"),
    ("symmetric:4", [(2, 0, 7, "rotate")], "homomorphism residual"),
    ("product(cyclic:2,symmetric:3)", [(2, 1, 4, "scale")], "unitarity residual"),
    # the first bad irrep in table order decides, whatever the later ones hold
    ("dihedral:7", [(2, 0, 5, "rotate"), (2, 2, 3, "nan")], "homomorphism residual"),
    ("dihedral:7", [(2, 2, 3, "inf"), (1, 1, 9, "sign")], "homomorphism residual inf exceeds"),
    ("dihedral:7", [(2, 1, 3, "scale"), (2, 2, 6, "rotate")], "unitarity residual"),
    ("cyclic:300", [(1, 7, 40, "phase"), (1, 9, 41, "nan"), (1, 200, 5, "inf")],
     "homomorphism residual"),
    ("cyclic:300", [(1, 250, 40, "phase"), (1, 30, 41, "-inf")], "unitarity residual nan"),
]


@BLOCKS
@pytest.mark.parametrize("spec, corruptions, message", FAILURES)
def test_a_corrupted_stack_raises_the_first_per_irrep_error(spec, corruptions, message,
                                                             block_entries, monkeypatch):
    _set_blocks(monkeypatch, block_entries)
    table = irreps_of(parse_group_spec(spec))
    stacks = [s.copy() for s in table.stacks]
    for corruption in corruptions:
        _corrupt(stacks, *corruption)
    want = first_irrep_error(table.group, stacks)
    assert want is not None and want.startswith(message), want
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would be raised in place of the error
        with pytest.raises(NumericalConsistencyError) as err:
            IrrepTable(table.group, table.partition, stacks, table.characters)
    assert str(err.value) == want


def test_a_view_checks_its_matrices_after_its_first_validate():
    """The first ``validate()`` reads the stack's verdict and drops it; each
    later one checks the view's matrices as they are then."""
    for spec, dim, kind, message in [("dihedral:7", 2, "rotate", "homomorphism"),
                                     ("dihedral:7", 2, "nan", "unitarity residual nan"),
                                     ("cyclic:7", 1, "phase", "homomorphism"),
                                     ("cyclic:7", 1, "scale", "unitarity")]:
        table = irreps_of(parse_group_spec(spec))  # a fresh table: the corruption writes its stack
        view = next(r for r in table.irreps if r.dim == dim and r.signed_permutation() is None)
        view.validate()
        at = next(i for i, r in enumerate(table.irreps) if r is view) - table.dims.index(dim)
        _corrupt(table.stacks, dim, at, 3, kind)
        with pytest.raises(NumericalConsistencyError, match=message):
            view.validate()


def _dense_per_stack(table) -> list[int]:
    """Per stack of ``table``, its irreps with no signed form."""
    counts, start = [], 0
    for stack in table.stacks:
        counts.append(sum(r.signed_permutation() is None for r in table.irreps[start : start + len(stack)]))
        start += len(stack)
    return counts


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_a_table_validates_each_irrep_once_and_computes_no_residual_per_irrep(spec, monkeypatch):
    group = parse_group_spec(spec)
    tables = [irreps_of(f) for f in group.factors or ()] + [irreps_of(group)]
    dense = [count for t in tables for count in _dense_per_stack(t)]
    validated, per_irrep, stacked = [], Counter(), {}  # validated views kept alive: ids stay
    validate = Representation.validate

    def counted(self):
        validated.append(self)
        return validate(self)

    def refused(name):
        def call(*args):
            per_irrep[name] += 1
            raise AssertionError(f"{name} ran per irrep")
        return call

    def spied(name, kernel):
        def call(blocks, *args):
            stacked.setdefault(name, []).append(len(blocks))
            return kernel(blocks, *args)
        return call

    monkeypatch.setattr(Representation, "validate", counted)
    monkeypatch.setattr(Representation, "unitarity_residual", refused("unitarity_residual"))
    monkeypatch.setattr(Representation, "homomorphism_residual", refused("homomorphism_residual"))
    for name in ("_dense_homomorphism_residual", "_signed_homomorphism_holds"):
        monkeypatch.setattr(reps_module, name, refused(name))
    for name in ("_unitarity_residuals", "_homomorphism_residuals"):
        monkeypatch.setattr(reps_module, name, spied(name, getattr(reps_module, name)))
    table = irreps_of(parse_group_spec(spec))
    calls = Counter(id(view) for view in validated)
    assert all(calls[id(r)] == 1 for r in table.irreps) and max(calls.values()) == 1
    assert len(validated) == sum(len(t) for t in tables)
    assert not per_irrep
    # each dense irrep goes through each stacked kernel once, in groups of
    # irreps: a stack of small irreps (all but symmetric:5's here) in one call
    small = all(t.group.order * d * d <= 1024 for t in tables for d in t.dims)
    for name in ("_unitarity_residuals", "_homomorphism_residuals"):
        calls = stacked.get(name, [])
        assert sum(calls) == sum(dense), name
        assert not small or calls == [count for count in dense if count], name
