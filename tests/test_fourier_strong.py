"""The Fourier strong certificate's Frobenius prune keeps every bit.

``schemes._fourier_eps_strong`` forms the differences of a whole table
stack at once and runs ``spectral_norm`` only where a difference's
Frobenius bound can beat the running maximum.  Each value here is checked
by ``float.hex`` against the oracle that takes one ``spectral_norm`` per
element and irrep over the differences of ``reps._deviations``.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import groupavg.cli
from groupavg import fourier, irreps_of, parse_group_spec
from groupavg import schemes as schemes_module
from groupavg.schemes import (
    AveragingScheme,
    certify,
    delta_scheme,
    random_scheme,
    scheme_from_json,
    uniform_scheme,
)
from catalogue import catalogue_jobs
from oracles import unpruned_fourier_eps_strong
from test_irreps import TABLE_SPECS

@pytest.fixture(scope="module")
def tables():
    return {spec: irreps_of(parse_group_spec(spec)) for spec in TABLE_SPECS}


def _schemes(group):
    """Uniform, three delta schemes, and random schemes with positive and
    with signed weights."""
    rng = np.random.default_rng(group.order)
    out = [uniform_scheme(group)]
    out += [delta_scheme(group, g) for g in sorted({0, group.order // 2, group.order - 1})]
    for seed in range(3):
        out.append(random_scheme(group, 12, seed))
        size = min(group.order, 6)
        weights = rng.normal(size=size)
        out.append(AveragingScheme(group, rng.choice(group.order, size, replace=False),
                                   weights / weights.sum()))
    return out


def _count_calls(monkeypatch, *modules) -> list:
    """A list that grows by one per ``spectral_norm`` call made through ``modules``."""
    calls, original = [], fourier.spectral_norm

    def counted(mat):
        calls.append(1)
        return original(mat)

    for module in modules:
        monkeypatch.setattr(module, "spectral_norm", counted)
    return calls


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_pruned_strong_certificate_has_the_bits_of_the_unpruned_maximum(spec, tables):
    table = tables[spec]
    for scheme in _schemes(table.group):
        got = certify(scheme, table).eps_strong
        assert got.hex() == unpruned_fourier_eps_strong(scheme, table).hex(), (spec, scheme.support)


def test_pruned_strong_certificate_keeps_its_bits_under_multiplicities(tables):
    for spec in ["dihedral:5", "symmetric:4", "product(cyclic:2,symmetric:3)"]:
        table = tables[spec]
        mults = np.arange(len(table)) % 2  # every other irrep
        for scheme in _schemes(table.group):
            got = certify(scheme, table, mults).eps_strong
            assert got.hex() == unpruned_fourier_eps_strong(scheme, table, mults).hex(), spec


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_uniform_scheme_keeps_one_call_per_element_and_irrep(spec, tables, monkeypatch):
    # its differences are rounding noise, below the floor that allows a skip
    table = tables[spec]
    calls = _count_calls(monkeypatch, schemes_module)  # the strong certificate's calls
    certify(uniform_scheme(table.group), table)
    assert len(calls) == table.group.order * (len(table) - 1)


def test_fourier_certify_on_cyclic_1000_makes_about_order_calls(tmp_path, monkeypatch):
    # the weak certificate's 999 and the per-irrep norms' 1000, and a few
    # strong ones; 1 000 999 before the prune
    calls = _count_calls(monkeypatch, fourier, schemes_module)
    argv = ["certify", "--group", "cyclic:1000", "--path", "fourier", "--scheme", "random:20",
            "--out", str(tmp_path)]
    with redirect_stdout(io.StringIO()):
        assert groupavg.cli.main(argv) == 0
    assert len(calls) <= 2 * 1000 + 10


def test_catalogue_certificates_have_the_bits_of_the_unpruned_maximum(tmp_path):
    jobs = [job for job in catalogue_jobs("certify-fourier", str(tmp_path)) if job.kind == "certify"]
    assert len(jobs) == 56
    tables = {}
    for job in jobs:
        out = tmp_path / "out"
        with redirect_stdout(io.StringIO()):
            assert groupavg.cli.main([*job.argv, "--out", str(out)]) == 0, job.key
        report = json.loads((out / "certification.json").read_text())
        scheme = scheme_from_json(json.loads((out / "scheme.json").read_text()))
        spec = job.argv[job.argv.index("--group") + 1]
        table = tables.setdefault(spec, irreps_of(scheme.group))
        assert report["eps_strong"].hex() == unpruned_fourier_eps_strong(scheme, table).hex(), job.key
