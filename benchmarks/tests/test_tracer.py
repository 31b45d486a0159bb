"""The tracer sees every call into a layer and changes no answer.

Each case is one tiny job whose span and counter totals are derived by
hand from the code of the layers it touches; a wrapped function that some
module still calls through an unpatched alias shows up as a lower count.
"""

import io
from contextlib import redirect_stdout

import pytest

import check
import groupavg.cli
from groupavg import irreps
from tracer import Tracer

CASES = [
    # sweep-signflip: lowerbound on signflip:5 with a support fixing coordinate 0
    (
        "lowerbound",
        ["lowerbound", "--d", "5", "--support", "00001,00010"],
        {
            "cli": 1,
            "groups.build": 2,  # parse_group_spec in the CLI, build_group in the report
            "groups.closure": 1,
            "groups.conjugacy": 1,  # inside irreps_of
            "irreps.table": 1,
            "reps.validate": 32,  # one per irrep of a group of order 32
            "fourier.transform": 1,
            "fourier.max_norm": 1,
            "separation.report": 1,
            "schemes.scheme_build": 1,
            "io.write": 2,  # lowerbound.json, lowerbound_meta.json
            "io.schema": 4,  # load_schema + validate_schema for each
        },
        {"fourier.spectral_norm.calls": 31, "fourier.spectral_norm.scalar": 31},
    ),
    # certify-projector: uniform scheme on the regular rep of cyclic:4
    (
        "certify",
        ["certify", "--group", "cyclic:4", "--rep", "regular", "--scheme", "uniform"],
        {
            "cli": 1,
            "groups.build": 1,
            "reps.build": 1,
            "reps.validate": 1,
            "schemes.scheme_build": 1,  # uniform_scheme; its AveragingScheme collapses
            "schemes.certify": 1,
            "schemes.cert_weak": 1,
            "schemes.cert_strong": 1,
            "io.format": 2,  # report.to_json, scheme_to_json
            "io.write": 3,  # certification.json, scheme.json, certify_meta.json
            "io.schema": 6,
        },
        # one weak norm, one strong norm per element; 4x4 blocks
        {"fourier.spectral_norm.calls": 5, "fourier.spectral_norm.scalar": 0},
    ),
    # certify-fourier: uniform scheme on the irrep table of dihedral:3 (dims 1, 1, 2)
    (
        "certify",
        ["certify", "--group", "dihedral:3", "--path", "fourier", "--scheme", "uniform"],
        {
            "cli": 1,
            "groups.build": 1,
            "groups.conjugacy": 1,
            "irreps.table": 1,
            "reps.validate": 3,
            "schemes.scheme_build": 1,
            "schemes.certify": 1,
            "fourier.transform": 1,
            "fourier.max_norm": 1,
            "schemes.cert_strong": 1,  # the Fourier-path strong certificate
            "io.format": 2,
            "io.write": 3,
            "io.schema": 6,
        },
        # weak: 2 nontrivial blocks; strong: 2 blocks x 6 elements; per-irrep norms: 3;
        # 1x1 blocks: 1 + 6 + 2
        {"fourier.spectral_norm.calls": 17, "fourier.spectral_norm.scalar": 9},
    ),
    # certify-fourier search: eps 0.2 rejects every 2-draw scheme on cyclic:3
    # (certificate 1 or 1/4), so the search is fallback + one draw count of 2 trials
    (
        "minimize",
        ["minimize", "--group", "cyclic:3", "--path", "fourier", "--eps", "0.2",
         "--trials", "2", "--swaps", "0"],
        {
            "cli": 1,
            "groups.build": 1,
            "groups.conjugacy": 1,
            "irreps.table": 1,
            "reps.validate": 3,
            "schemes.minimize": 1,
            "schemes.scheme_build": 3,  # uniform fallback and two random schemes
            "schemes.cert_weak": 3,
            "fourier.transform": 3,
            "fourier.max_norm": 3,
            "io.format": 1,  # scheme_to_json; search.json is built in the CLI
            "io.write": 3,  # scheme.json, search.json, minimize_meta.json
            "io.schema": 6,
        },
        {"fourier.spectral_norm.calls": 6, "fourier.spectral_norm.scalar": 6,
         "search.trials": 2, "search.feasible": 0, "swaps.budget": 0},
    ),
    # experiments: 2 epochs of 2 batches; per epoch one plain and one averaged
    # evaluation of 4 rows (2 sign patterns), then subsets of 1 and 2 patterns
    (
        "mlp",
        ["mlp", "--dim", "2", "--train", "8", "--test", "4", "--width1", "3", "--width2", "2",
         "--batch", "4", "--epochs", "2", "--subset-exponents", "0,1", "--curve-exponent", "1",
         "--epoch-eval", "4"],
        {
            "cli": 1,
            "experiments.mlp": 1,
            "experiments.train": 4,
            "experiments.eval": 6,
            "io.format": 2,  # subset_csv, epoch_csv
            "io.write": 3,  # loss_vs_subset.csv, loss_vs_epoch.csv, mlp_meta.json
            "io.schema": 2,
        },
        # rows: 2 x (4 + 8) + 4 + 8; flop per row: 2 x (2*3 + 3*2 + 2*1)
        {"eval.rows": 36, "eval.flop": 36 * 28},
    ),
    (
        "figure1",
        ["figure1", "--n", "4", "--grid", "3", "--subsets", "1,4"],
        {
            "cli": 1,
            "experiments.rotation": 1,
            "io.format": 3,  # grid_csv twice, summary_json
            "io.write": 4,  # two grids, figure1_summary.json, figure1_meta.json
            "io.schema": 4,
        },
        {},
    ),
]


def _run(argv, out, tracer=None):
    full = [*argv, "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        rc = tracer.call_job(0, groupavg.cli.main, full) if tracer else groupavg.cli.main(full)
    assert rc == 0


IDS = ["sweep-lowerbound", "projector-certify", "fourier-certify", "fourier-minimize",
       "experiments-mlp", "experiments-figure1"]


@pytest.mark.parametrize("kind, argv, spans, counts", CASES, ids=IDS)
def test_traced_counts_match_hand_counts(kind, argv, spans, counts, tmp_path):
    _run(argv, tmp_path / "plain")
    tracer = Tracer()
    tracer.install()
    try:
        _run(argv, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()

    seen = {name: entry["calls"] for name, entry in tracer.breakdown().items()}
    assert seen == spans
    for name, value in counts.items():
        assert tracer.counts[name] == value, name

    # traced answers equal untraced answers
    assert check.extract(kind, tmp_path / "traced") == check.extract(kind, tmp_path / "plain")

    # the layer self times of the job add up to its root span
    (root,) = [s for s in tracer.spans if s[0] == "cli"]
    assert tracer.job_self_sums()[0] == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)


def test_uninstall_restores_every_alias():
    original = irreps.irreps_of
    tracer = Tracer()
    tracer.install()
    assert groupavg.cli.irreps_of is not original
    tracer.uninstall()
    for module in (groupavg.cli, irreps, groupavg.separation):
        assert module.irreps_of is original
