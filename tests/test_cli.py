import contextlib
import hashlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from groupavg import cli, irreps, reps, schemes, separation
from groupavg.cli import main
from groupavg.errors import (
    NumericalConsistencyError,
    SearchFailureError,
    SizeLimitError,
    TrainingFailureError,
    UsageError,
)
from groupavg.io import load_schema, validate_schema


def run(args):
    return main(args)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_group_subcommand(tmp_path):
    out = tmp_path / "g"
    assert run(["group", "--group", "dihedral:5", "--out", str(out)]) == 0
    info = read_json(out / "group_info.json")
    assert info["order"] == 10 and info["n_classes"] == 4
    text = (out / "group.txt").read_text()
    assert text.splitlines()[0] == "group dihedral 5 10"
    meta = read_json(out / "group_meta.json")
    validate_schema(meta, load_schema("metadata"))
    assert meta["subcommand"] == "group"


def test_kbound_subcommand(tmp_path):
    out = tmp_path / "k"
    assert run(["kbound", "--group", "symmetric:3", "--rep", "permutation", "--out", str(out)]) == 0
    payload = read_json(out / "kbound.json")
    assert payload["k_bound"] == 5
    validate_schema(payload, load_schema("kbound"))


def test_kbound_regular_builds_no_regular_matrices(tmp_path):
    # the regular stack of cyclic:600 needs 600**3 * 16 bytes, over its cap;
    # K = min(n, sum over q | n of phi(q) * n / q - 1) = min(600, 6499)
    out = tmp_path / "k"
    assert run(["kbound", "--group", "cyclic:600", "--rep", "regular", "--out", str(out)]) == 0
    assert read_json(out / "kbound.json")["k_bound"] == 600


def test_certify_uniform_is_exact(tmp_path):
    out = tmp_path / "c"
    code = run(
        ["certify", "--group", "signflip:4", "--rep", "regular", "--scheme", "uniform", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "certification.json")
    assert report["eps_weak"] <= 1e-15 and report["eps_strong"] <= 1e-15
    validate_schema(report, load_schema("certification"))
    scheme = read_json(out / "scheme.json")
    validate_schema(scheme, load_schema("scheme"))
    assert scheme["size"] == 16


def test_certify_fourier_path(tmp_path):
    out = tmp_path / "cf"
    code = run(
        [
            "certify",
            "--group",
            "dihedral:4",
            "--scheme",
            "random:6",
            "--path",
            "fourier",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = read_json(out / "certification.json")
    assert report["method"] == "fourier_path"
    assert set(report["per_irrep_norms"]) == {f"pi{i}_d{d}" for i, d in enumerate([1, 1, 1, 1, 2])}


@pytest.mark.parametrize(
    "spec, rep", [("signflip:4", "sign"), ("symmetric:4", "permutation"), ("dihedral:5", "trivial")]
)
def test_fourier_path_certifies_the_requested_rep(spec, rep, tmp_path):
    certs, searches = {}, {}
    for path in ("projector", "fourier"):
        common = ["--group", spec, "--rep", rep, "--path", path, "--seed", "3"]
        out = tmp_path / path
        assert run(["certify", *common, "--scheme", "random:6", "--out", str(out)]) == 0
        certs[path] = read_json(out / "certification.json")
        assert run(["minimize", *common, "--eps", "0.5", "--trials", "6", "--out", str(out)]) == 0
        searches[path] = read_json(out / "search.json")
    for key in ("eps_weak", "eps_strong"):
        assert abs(certs["projector"][key] - certs["fourier"][key]) <= 1e-8
    assert certs["projector"]["degenerate"] == certs["fourier"]["degenerate"]
    assert searches["projector"]["size"] == searches["fourier"]["size"]
    assert abs(searches["projector"]["eps"] - searches["fourier"]["eps"]) <= 1e-8


def test_sample_meets_target_mostly(tmp_path):
    hits = 0
    for seed in range(10):
        out = tmp_path / f"s{seed}"
        code = run(
            [
                "sample",
                "--group",
                "cyclic:100",
                "--eps",
                "0.5",
                "--delta",
                "0.1",
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = read_json(out / "certification.json")
        assert report["draws"] == 41
        scheme = read_json(out / "scheme.json")
        assert scheme["size"] <= 41
        hits += report["eps_weak"] <= 0.5
    assert hits >= 9


def test_minimize_subcommand(tmp_path):
    out = tmp_path / "m"
    code = run(
        [
            "minimize",
            "--group",
            "signflip:3",
            "--path",
            "fourier",
            "--eps",
            "0.5",
            "--trials",
            "12",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    search = read_json(out / "search.json")
    validate_schema(search, load_schema("search"))
    assert search["status"] == "ok" and search["size"] <= 8


def test_separation_subcommand(tmp_path):
    out = tmp_path / "sep"
    code = run(
        [
            "separation",
            "--family",
            "signflip",
            "--range",
            "2:3",
            "--eps",
            "0.5",
            "--trials",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "separation.csv").read_text().strip().splitlines()
    assert lines[0] == "family,order,K,exact_cost,approx_cost,eps,seed,status"
    assert len(lines) == 3


def test_lowerbound_subcommand(tmp_path):
    out = tmp_path / "lb"
    code = run(
        ["lowerbound", "--d", "3", "--support", "100,010", "--out", str(out)]
    )
    assert code == 0
    payload = read_json(out / "lowerbound.json")
    validate_schema(payload, load_schema("lowerbound"))
    rep = payload["reports"][0]
    assert not rep["generates"]
    assert rep["eps_weak_on_regular"] >= 1.0 - 1e-9


def test_figure1_subcommand(tmp_path):
    out = tmp_path / "f1"
    code = run(
        ["figure1", "--n", "20", "--grid", "12", "--subsets", "1,5,20", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    summary = read_json(out / "figure1_summary.json")
    validate_schema(summary, load_schema("figure1_summary"))
    assert summary["rel_l2_to_full"]["20"] == 0.0
    assert (out / "grid_subset_5.csv").exists()


def test_regress_subcommand(tmp_path):
    out = tmp_path / "r"
    code = run(
        [
            "regress",
            "--group",
            "signflip:2",
            "--sigma",
            "0",
            "--n",
            "32",
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "regression.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_mlp_subcommand(tmp_path):
    out = tmp_path / "mlp"
    code = run(
        [
            "mlp",
            "--dim",
            "5",
            "--train",
            "256",
            "--test",
            "128",
            "--width1",
            "8",
            "--width2",
            "4",
            "--epochs",
            "2",
            "--batch",
            "64",
            "--subset-exponents",
            "0,2",
            "--curve-exponent",
            "2",
            "--epoch-eval",
            "64",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "loss_vs_subset.csv").exists()
    assert (out / "loss_vs_epoch.csv").exists()


def test_selftest_subcommand(tmp_path):
    out = tmp_path / "st"
    assert run(["selftest", "--out", str(out)]) == 0
    payload = read_json(out / "selftest.json")
    validate_schema(payload, load_schema("selftest"))
    assert payload["passed"]


def test_usage_error_exit_code(tmp_path):
    assert run(["group", "--group", "nonsense:4", "--out", str(tmp_path / "x")]) == 1
    assert run(["sample", "--group", "cyclic:4", "--eps", "2.0", "--out", str(tmp_path / "y")]) == 1


TINY_MLP = ["mlp", "--dim", "4", "--train", "64", "--test", "16", "--batch", "16", "--epochs", "1",
            "--subset-exponents", "0,2", "--curve-exponent", "1"]

# a product nested 2 000 deep: refused before the parse recurses
_DEEP_PRODUCT = "product(cyclic:2," * 2000 + "cyclic:2" + ")" * 2000
_HUGE = "9" * 4299  # one digit below int's conversion limit
# integers past 2**63 - 1 where they are parsed: _int_arg and argparse flags
_HUGE_INTS = [
    ["certify", "--group", "cyclic:4", "--scheme", f"random:{_HUGE}"],
    ["regress", "--n", _HUGE, "--trials", "1"],
    ["regress", "--trials", _HUGE],
    ["mlp", "--train", _HUGE],
    ["mlp", "--width1", _HUGE],
    ["figure1", "--grid", _HUGE],
    ["separation", "--range", f"2:{_HUGE}"],
]
_HUGE_INT_IDS = ["random-draws-past-int64", "regress-draws-past-int64", "regress-trials-past-int64",
                 "mlp-inputs-past-int64", "mlp-width-past-int64", "figure1-grid-past-int64",
                 "separation-range-past-int64"]

_MALFORMED = [
    ["separation", "--range", "2-5"],
    ["certify", "--group", "cyclic:4", "--scheme", "random:x"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/missing.json"],
    ["group", "--group", "cyclic:3", "--bogus"],
    ["sample", "--group", "cyclic:4"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/empty.json"],
    ["separation", "--range", "5:2"],
    [*TINY_MLP, "--curve-exponent", "6"],
    [*TINY_MLP, "--subset-exponents", "0,-1"],
    [*TINY_MLP, "--subset-exponents", "0,x"],
    [*TINY_MLP, "--batch", "0"],
    [*TINY_MLP, "--test", "0"],
    [*TINY_MLP, "--epoch-eval", "0"],
    [*TINY_MLP, "--dim", "0", "--subset-exponents", "0", "--curve-exponent", "0"],
    [*TINY_MLP, "--lr", "-1"],
    [*TINY_MLP, "--lr", "0"],
    [*TINY_MLP, "--lr", "nan"],
    ["figure1", "--subsets", "1,x"],
    ["figure1", "--subsets", "1,,2"],
    ["figure1", "--n", "5", "--grid", "3", "--subsets", "1,1"],
    ["certify", "--group", "cyclic:4", "--scheme", "random:3", "--seed", "-1"],
    ["sample", "--group", "cyclic:4", "--eps", "0.5", "--seed", "-1"],
    ["minimize", "--group", "cyclic:4", "--eps", "0.5", "--seed", "-1"],
    ["separation", "--range", "2:3", "--seed", "-1"],
    ["lowerbound", "--d", "3", "--seed", "-1"],
    ["figure1", "--n", "5", "--grid", "3", "--seed", "-1"],
    ["regress", "--n", "16", "--trials", "2", "--seed", "-1"],
    [*TINY_MLP, "--seed", "-1"],
    ["selftest", "--seed", "-1"],
    ["lowerbound", "--d", "3", "--trials", "0"],
    ["regress", "--n", "16", "--trials", "2", "--sigma", "nan"],
    ["group", "--config", "{tmp}"],
    ["group", "--config", "{tmp}/latin1.cfg"],
    ["group", "--config={tmp}/latin1.cfg", "--group", "cyclic:3"],
    ["minimize", "--group", "cyclic:4", "--eps", "0.5", "--trials", "0"],
    ["separation", "--range", "2:3", "--trials", "0"],
    ["regress", "--n", "16", "--trials", "2", "--eps", "-1"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/nan.json"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/inf.json"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/inf.json", "--path", "fourier"],
    ["certify", "--group", "dihedral:3", "--scheme", "file:{tmp}/overflow.json", "--path", "fourier"],
    ["certify", "--group", "dihedral:3", "--scheme", "file:{tmp}/overflow.json",
     "--path", "projector"],
    ["lowerbound", "--d", "3", "--support", ""],
    [*TINY_MLP, "--epochs", "0"],
    [*TINY_MLP, "--epochs", "-1"],
    ["certify", "--group", "cyclic:4", "--scheme", "random:99999999999999999999999"],
    ["sample", "--group", "cyclic:4", "--eps", "1e-300"],
    ["sample", "--group", "cyclic:4", "--eps", "5e-324"],
    ["certify", "--group", "cyclic:4", "--config", "{tmp}/nul.cfg"],
    ["certify", "--group", "cyclic:4", "--config", "{tmp}/h.cfg"],
    ["group", "--config", "{tmp}/gr.cfg"],
    ["group", "--gro", "cyclic:3"],
    ["certify", "--group", "cyclic:4", "--config", "{tmp}/help.cfg"],
    ["group", "--group", "cyclic:3", "--out", "{tmp}/empty.json"],
    ["group", "--group", "cyclic:3", "--out", "{tmp}/empty.json/sub"],
    ["group", "--group", "cyclic:3", "--config", "{tmp}/out.cfg"],
    ["certify", "--group", "cyclic:4", "--rep", "permutation"],
    ["minimize", "--group", "symmetric:7", "--path", "fourier", "--eps", "0.5"],
    ["group", "--group", _DEEP_PRODUCT],
    ["irreps", "--group", _DEEP_PRODUCT],
    ["figure1", "--grid", "4730"],
    ["regress", "--n", "1000000000000", "--trials", "1"],
    ["regress", "--trials", "100000000000"],
    ["mlp", "--train", "1000000000000"],
    ["mlp", "--dim", "40", "--subset-exponents", "40", "--curve-exponent", "0"],
    ["mlp", "--width1", "1000000000000"],
    [*TINY_MLP, "--subset-exponents", "0", "--curve-exponent", "0", "--test", "8", "--epoch-eval", "8",
     "--width2", "10000000000"],
    ["mlp", "--train", "1000000", "--batch", "1000000", "--width1", "100000", "--epochs", "1",
     "--test", "10"],
    ["mlp", "--train", "1", "--batch", "1", "--width1", "1000000", "--width2", "1"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/fraction.json"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/boolean.json"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/string.json"],
    ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/huge.json"],
    ["group", "--group", "signflip:20000"],
    ["group", "--group", "symmetric:3000"],
    ["group", "--group", "cyclic:" + "9" * 4000],
    ["lowerbound", "--d", "20000"],
    *_HUGE_INTS,
]
_MALFORMED_IDS = [
    "range-without-colon", "random-non-integer", "missing-scheme-file", "unknown-flag",
    "missing-required-flag", "scheme-file-missing-keys", "empty-range",
    "mlp-curve-exponent-above-dim", "mlp-negative-exponent", "mlp-non-integer-exponent",
    "mlp-zero-batch", "mlp-empty-test-set", "mlp-empty-epoch-eval", "mlp-zero-dim",
    "mlp-negative-lr", "mlp-zero-lr", "mlp-nan-lr",
    "figure1-non-integer-subset", "figure1-empty-subset", "figure1-repeated-subset",
    "certify-negative-seed", "sample-negative-seed", "minimize-negative-seed",
    "separation-negative-seed", "lowerbound-negative-seed", "figure1-negative-seed",
    "regress-negative-seed", "mlp-negative-seed", "selftest-negative-seed",
    "lowerbound-zero-trials", "regress-nan-sigma", "config-is-a-directory",
    "config-not-utf8", "config-equals-form-not-utf8", "minimize-zero-trials",
    "separation-zero-trials", "regress-negative-eps", "scheme-file-nan-weight",
    "scheme-file-infinite-weights", "scheme-file-infinite-weights-fourier",
    "scheme-file-overflowing-weights-fourier", "scheme-file-overflowing-weights-projector",
    "lowerbound-empty-support", "mlp-zero-epochs", "mlp-negative-epochs",
    "random-draws-over-cap", "sample-draws-over-cap", "sample-draw-count-overflows",
    "config-scheme-path-with-nul", "config-key-prefix-of-help", "config-key-prefix-of-group",
    "flag-prefix", "config-key-help", "out-is-a-file", "out-below-a-file", "config-out-with-nul",
    "certify-permutation-of-cyclic", "minimize-over-the-irrep-cap", "group-nested-2000-deep",
    "irreps-nested-2000-deep", "figure1-grid-over-the-cap", "regress-draws-over-the-cap",
    "regress-trials-over-the-cap", "mlp-inputs-over-the-cap", "mlp-sign-patterns-over-the-cap",
    "mlp-weights-over-the-cap", "mlp-second-width-over-the-cap", "mlp-batch-over-the-cap",
    "mlp-forward-pass-over-the-cap", "scheme-file-fractional-support", "scheme-file-boolean-support",
    "scheme-file-string-weight", "scheme-file-huge-support", "signflip-order-past-print-limit",
    "symmetric-order-past-print-limit", "cyclic-order-past-print-limit",
    "lowerbound-order-past-print-limit", *_HUGE_INT_IDS,
]


def _write_malformed_inputs(tmp_path: Path) -> None:
    """The files the ``{tmp}`` paths of ``_MALFORMED`` name."""
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "latin1.cfg").write_bytes("group = cyclic:3  # \xe9\n".encode("latin-1"))
    (tmp_path / "nul.cfg").write_text("scheme = file:a\x00b\n")
    (tmp_path / "h.cfg").write_text("h = 1\n")
    (tmp_path / "gr.cfg").write_text("gr = cyclic:5\n")
    (tmp_path / "help.cfg").write_text("help = 1\n")  # stores no value: not a help request
    (tmp_path / "out.cfg").write_text("out = a\x00b\n")
    # json reads NaN and Infinity; the unit-sum check alone passes both
    # files: a NaN weight counts as below the support threshold, and the
    # infinities sum to NaN
    (tmp_path / "nan.json").write_text(
        '{"group": {"order": 4}, "support": [0, 1, 2], "weights": [NaN, 0.5, 0.5]}')
    (tmp_path / "inf.json").write_text(
        '{"group": {"order": 4}, "support": [0, 1, 2], "weights": [Infinity, -Infinity, 1.0]}')
    # finite weights with a unit sum whose coefficients overflow: the
    # certificates would read inf
    (tmp_path / "overflow.json").write_text(
        '{"group": {"order": 6}, "support": [0, 3, 5], "weights": [1e308, -1e308, 1.0]}')
    # numpy would truncate 0.9 to 0, read true as 1 and "1" as 1.0, and
    # overflow on 1e30
    for name, support, weights in [("fraction", "[0.9]", "[1.0]"), ("boolean", "[true]", "[1.0]"),
                                   ("string", "[1]", '["1"]'), ("huge", "[1e30]", "[1.0]")]:
        (tmp_path / f"{name}.json").write_text(
            f'{{"group": {{"order": 4}}, "support": {support}, "weights": {weights}}}')


@pytest.mark.parametrize("argv", _MALFORMED, ids=_MALFORMED_IDS)
def test_malformed_input_is_one_line_usage_error(argv, tmp_path, capsys):
    _write_malformed_inputs(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if not {"--out", f"{tmp_path}/out.cfg"} & set(argv):  # the cases that set --out themselves
        argv += ["--out", str(tmp_path / "x")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()  # a refused run writes nothing


@pytest.mark.parametrize("argv", _HUGE_INTS, ids=_HUGE_INT_IDS)
def test_huge_integers_are_refused_without_their_digits(argv, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.endswith("must lie between -2**63 and 2**63 - 1\n") and "999" not in err


@pytest.mark.parametrize("argv", [["sample", "--group", "cyclic:4", "--eps", "1e-300"],
                                  ["regress", "--eps", "1e-300"]], ids=["sample", "regress"])
def test_tiny_eps_is_refused_without_a_huge_draw_count(argv, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: eps 1e-300 is so small that the draw count passes 2**63\n"
    assert not re.search(r"\d(,?\d){20}", err)  # no run of more than 20 digits


# 2**63 - 1 still reaches each size cap's own message, and every byte cap's
# message (the draw and regular-rep caps also at ordinary sizes) has one form
_LARGEST = str(2**63 - 1)
_BYTE_CAP_MESSAGE = re.compile(
    r"^usage error: .+ needs? about [0-9,]+ bytes \(.+\), above the cap of 2,147,483,648\n$")


@pytest.mark.parametrize("argv, message", [
    (["certify", "--group", "cyclic:4", "--scheme", f"random:{_LARGEST}"],
     "usage error: 9,223,372,036,854,775,807 draws need "),
    (["regress", "--n", _LARGEST, "--trials", "1"], "usage error: 1 trials of 9,223,372,036,854,775,807 draws "),
    (["regress", "--trials", _LARGEST], "usage error: 9,223,372,036,854,775,807 trials of 400 draws "),
    (["mlp", "--train", _LARGEST], "usage error: inputs, sign patterns, weights and activations need "),
    (["mlp", "--width1", _LARGEST], "usage error: inputs, sign patterns, weights and activations need "),
    (["figure1", "--grid", _LARGEST], "usage error: grid 9,223,372,036,854,775,807 with 3 subsets needs "),
    (["separation", "--range", f"2:{_LARGEST}"], "usage error: irrep table of order 36,893,488,147,"),
    (["separation", "--range", "2:3", "--trials", _LARGEST],
     "usage error: 9,223,372,036,854,775,807 trial schemes on order 8 need "),
    (["minimize", "--group", "cyclic:4", "--eps", "0.5", "--trials", _LARGEST],
     "usage error: 9,223,372,036,854,775,807 trial schemes on order 4 need "),
    (["lowerbound", "--d", "3", "--trials", _LARGEST],
     "usage error: 9,223,372,036,854,775,807 trial schemes on order 8 need "),
    (["sample", "--group", "cyclic:4", "--eps", "1e-7"], "usage error: 117,183,082 draws need "),
    (["certify", "--group", "cyclic:513", "--rep", "regular"],
     "usage error: regular representation of order 513 needs "),
])
def test_largest_integer_reaches_the_size_caps(argv, message, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert _BYTE_CAP_MESSAGE.match(err), err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["--range", "2:13"], "irrep table of order 8,192 needs "),
    (["--family", "symmetric", "--range", "2:7"], "irrep table of order 5,040 needs "),
    (["--range", "2:12", "--trials", "100000"], "100,000 trial schemes on order 4,096 need "),
    (["--family", "CYCLIC", "--range", "2:9223372036854775807"],
     "irrep table of order 9,223,372,036,854,775,807 needs "),
])
def test_separation_refuses_its_largest_member_before_any_row(argv, message, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(cli, "separation_table", lambda *a, **k: pytest.fail("a row was made"))
    assert run(["separation", *argv, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("usage error: " + message)
    assert not (tmp_path / "x").exists()


def test_diverging_mlp_is_one_line_numerical_error(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # outside pytest a numpy warning would print to stderr
        assert run([*TINY_MLP, "--lr", "100", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical-consistency error: ") and err.count("\n") == 1


# list-valued flags on tiny runs: (argv without the flag, flag, separator)
_LIST_FLAGS = {
    "mlp": ([*TINY_MLP, "--width1", "4", "--width2", "4"], "--subset-exponents", ","),
    "figure1": (["figure1", "--n", "6", "--grid", "3"], "--subsets", ","),
    "separation": (["separation", "--trials", "8"], "--range", ":"),
}
_LIST_TOKENS = st.one_of(
    st.integers(1, 4).map(str),
    st.integers(-2, 6).map(str),
    st.sampled_from(["", "x", " 2", "1.5", "+1", "0x1", "1_0", "\u0663"]),
)


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(sorted(_LIST_FLAGS)), tokens=st.lists(_LIST_TOKENS, min_size=1, max_size=3))
def test_list_flags_exit_cleanly(command, tokens):
    base, flag, sep = _LIST_FLAGS[command]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run([*base, f"{flag}={sep.join(tokens)}", "--out", out])
    assert code in (0, 1), (tokens, code)
    if code == 1:
        assert err.getvalue().startswith("usage error: ") and err.getvalue().count("\n") == 1


# integer and float flags on tiny runs: (argv without the flag, flags)
_NUMBER_FLAGS = {
    "mlp": ([*TINY_MLP, "--width1", "4", "--width2", "4", "--epoch-eval", "8"],
            ["--dim", "--train", "--test", "--width1", "--width2", "--lr", "--batch", "--epochs",
             "--curve-exponent", "--epoch-eval", "--seed"]),
    "figure1": (["figure1", "--n", "6", "--grid", "3"], ["--n", "--grid", "--seed"]),
    "regress": (["regress", "--n", "16", "--trials", "2"],
                ["--sigma", "--n", "--trials", "--eps", "--seed"]),
    "minimize": (["minimize", "--group", "cyclic:4", "--eps", "0.5", "--trials", "2", "--swaps", "5"],
                 ["--eps", "--trials", "--swaps", "--seed"]),
    "separation": (["separation", "--range", "2:3", "--trials", "4"], ["--eps", "--trials", "--seed"]),
    "lowerbound": (["lowerbound", "--d", "3", "--trials", "2"], ["--d", "--trials", "--seed"]),
    "sample": (["sample", "--group", "cyclic:4", "--eps", "0.5"], ["--eps", "--delta", "--seed"]),
}
_NUMBER_CASES = [(command, flag) for command, (_, flags) in _NUMBER_FLAGS.items() for flag in flags]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_NUMBER_CASES), token=st.sampled_from(["0", "-1", "nan", "inf", "", "1e3"]))
def test_number_flags_exit_cleanly(case, token):
    command, flag = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run([*_NUMBER_FLAGS[command][0], f"{flag}={token}", "--out", out])
    assert code in (0, 1, 2, 3), (case, token, code)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), (case, token)


# string flags on tiny groups: malformed and valid values mixed
_GROUP_VALUES = st.one_of(
    st.sampled_from(["cyclic:3", "dihedral:3", "signflip:2", "symmetric:3",
                     "product(cyclic:2,cyclic:2)"]),
    st.builds("{}{}{}".format,
              st.sampled_from(["cyclic", "Signflip", "dihedral", "symmetric", "custom", "product",
                               ""]),
              st.sampled_from([":", "", "::", " : "]),
              st.sampled_from(["", "0", "-1", "1", "2", "3", "x", "1.5", "1e1", "nan", "\u0663"])),
    st.sampled_from(["product(", "product()", "product(cyclic:2)", "product(cyclic:2,)",
                     "product(,cyclic:2)", "product(cyclic:2,cyclic:2))", ")(", "cyclic:2,cyclic:3"]),
    st.text(max_size=12),
)
_SCHEME_VALUES = st.one_of(
    st.builds("{}:{}".format,
              st.sampled_from(["delta", "random", "file", "uniform", ""]),
              st.sampled_from(["", "0", "-1", "1", "3", "99", "x", "1.5", "1e3", "/", ".",
                               "99999999999999999999999", "missing.json", "a\x00b"])),
    st.sampled_from(["uniform", "delta", "random"]),
    st.text(max_size=12),
)
_REP_VALUES = st.one_of(st.sampled_from(["regular", "permutation", "sign", "trivial"]),
                        st.text(max_size=8))
_CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(["group", "scheme", "rep", "path", "seed"]),
              st.one_of(_GROUP_VALUES, _SCHEME_VALUES, _REP_VALUES)),
    st.sampled_from(["", "# note", "=", "group", "seed = -1", "seed = x", "bogus = 1",
                     "config = x", "path = fourier", "rep ="]),
    st.text(max_size=15),
)
_FAMILY_VALUES = st.one_of(
    st.sampled_from(["signflip", "sign_flip", "cyclic", "dihedral", "symmetric", "product",
                     "custom", "Cyclic", "", " ", "x"]),
    st.text(max_size=10),
)
_SUPPORT_VALUES = st.one_of(
    st.lists(st.sampled_from(["000", "001", "010", "111", "11", "0000", "2", "x", "", " 1"]),
             min_size=1, max_size=4).map(",".join),
    st.sampled_from([",,", ",", "001,", ",001"]),
    st.text(max_size=10),
)
_PATH_VALUES = st.one_of(st.sampled_from(["projector", "fourier", "xyz", "", "Fourier"]),
                         st.text(max_size=8))
# (argv after the subcommand, the string flags drawn on top of it)
_STRING_FLAGS = {
    "group": ([], ["--group"]),
    "irreps": ([], ["--group"]),
    "certify": ([], ["--group", "--scheme", "--rep", "--path"]),
    "kbound": ([], ["--group", "--rep"]),
    "selftest": ([], []),
    "separation": (["--range", "2:3", "--trials", "4"], ["--family"]),
    "lowerbound": (["--d", "3", "--trials", "2"], ["--support"]),
    "minimize": (["--group", "cyclic:4", "--eps", "0.5", "--trials", "2", "--swaps", "5"],
                 ["--path"]),
}


def _draw_string_flags(command: str, data) -> tuple[list[str], list[str]]:
    """An argv of ``command`` with its ``_STRING_FLAGS`` drawn, and config lines."""
    strategies = {"--group": _GROUP_VALUES, "--scheme": _SCHEME_VALUES, "--rep": _REP_VALUES,
                  "--family": _FAMILY_VALUES, "--support": _SUPPORT_VALUES, "--path": _PATH_VALUES}
    base, flags = _STRING_FLAGS[command]
    argv = [command, *base]
    for flag in flags:
        argv.append(f"{flag}={data.draw(strategies[flag], label=flag)}")
    return argv, data.draw(st.lists(_CONFIG_LINES, max_size=3), label="config")


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_STRING_FLAGS)), data=st.data())
def test_string_flags_and_config_exit_cleanly(command, data):
    argv, lines = _draw_string_flags(command, data)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        config = Path(out) / "run.cfg"
        config.write_text("\n".join(lines), encoding="utf-8")
        try:
            code = run([*argv, "--config", str(config), "--out", str(Path(out) / "o")])
        except SystemExit as stop:  # a config key named help
            code = stop.code
    assert code in (0, 1, 2, 3), (argv, lines, code)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), (argv, lines)


def test_a_job_builds_only_its_own_subparser(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert run(["kbound", "--group", "cyclic:4", "--out", str(tmp_path)]) == 0
    assert built == ["groupavg", "groupavg kbound"]


def _parse(parser, argv: list[str]):
    """What ``main`` makes of ``argv`` short of running it: the namespace
    (as its repr, so NaN values compare), the usage error's text, or the
    exit code and output of ``--help``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return repr(parser.parse_args([argv[0], *cli._apply_config_file(argv[1:])]))
    except UsageError as exc:
        return str(exc)
    except SystemExit as stop:  # --help
        return stop.code, out.getvalue()


def _parses_as_the_full_parser(argv: list[str]) -> None:
    narrowed = cli.build_parser(argv[0])
    assert list(narrowed._subparsers._group_actions[0].choices) == [argv[0]]
    assert _parse(narrowed, argv) == _parse(cli.build_parser(), argv), argv


# one valid run of each subcommand
_VALID = {
    "group": ["group", "--group", "cyclic:3"],
    "irreps": ["irreps", "--group", "dihedral:3"],
    "certify": ["certify", "--group", "cyclic:4", "--scheme", "random:3", "--path", "fourier"],
    "sample": ["sample", "--group", "cyclic:4", "--eps", "0.5", "--rep", "sign"],
    "minimize": _NUMBER_FLAGS["minimize"][0],
    "kbound": ["kbound", "--group", "cyclic:4", "--rep", "permutation"],
    "separation": _NUMBER_FLAGS["separation"][0],
    "lowerbound": [*_NUMBER_FLAGS["lowerbound"][0], "--support", "001,010"],
    "figure1": _NUMBER_FLAGS["figure1"][0],
    "regress": _NUMBER_FLAGS["regress"][0],
    "mlp": _NUMBER_FLAGS["mlp"][0],
    "selftest": ["selftest", "--seed", "3"],
}


@pytest.mark.parametrize("argv", [*_MALFORMED, *_VALID.values()],
                         ids=[*_MALFORMED_IDS, *(f"valid-{name}" for name in _VALID)])
def test_narrowed_parser_parses_as_the_full_one(argv, tmp_path):
    _write_malformed_inputs(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    _parses_as_the_full_parser([*argv, "--out", str(tmp_path / "x")])
    _parses_as_the_full_parser([*argv, "--config", str(tmp_path / "help.cfg")])


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_STRING_FLAGS)), data=st.data())
def test_narrowed_parser_parses_string_flags_as_the_full_one(command, data):
    argv, lines = _draw_string_flags(command, data)
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "run.cfg"
        config.write_text("\n".join(lines), encoding="utf-8")
        _parses_as_the_full_parser([*argv, "--config", str(config), "--out", out])


# sha256 of the help texts at COLUMNS=80, recorded with Python 3.11's argparse
# when every subparser was built on each call
HELP_SHA256 = {
    None: "006444527d123791103742d2eb2989cdfe1702be50c88535e53ad2cbdaa7a11b",
    "group": "c48966241896495024894e0abfe85c8ef9a42125f878cdcc45d9ceed98533a16",
    "irreps": "dde566cf5a2acaa3866b9cabbe23dccbc30e2d3ef13b77f4532cbe254df5e0b8",
    "certify": "7446d5b15b822d54d26443680c822d531085ab57b0e0f8694c9f37b019144323",
    "sample": "0ee2e68e967e6255da99a01e14ae55c2f9e0ceb3a3e1fd255da7baf28dad40e5",
    "minimize": "59e5eba4e26c831aa8e5211081cce5b52a244b4cfc7062cc268d35c908fd8fb9",
    "kbound": "865d7b581b94d51081e5a8a35af180067179b06e166f41815ea603754c41efd2",
    "separation": "7ea40041088d04c852be3745a634db6324c68172ae19abf12556384ae77544ca",
    "lowerbound": "d3e5b10c73eb6b35218511be47f8e53e715b52199efc68bc612166c588f9b589",
    "figure1": "9f34a7cd0b61ef311ac198965fd606ec1a27946901025346fdbcfe9ebca62abc",
    "regress": "708065cb2187d3399ed3a85383cd61a72561117435b1b6043dde282396772ec8",
    "mlp": "5cf85c274dc161773bb859478809c0d450a1c5ca8e76cf005379b416f0ec5382",
    "selftest": "8c4fc5081390e4a27c93cb48e1b3cb4c526bf1a4f074a398c44195717b1ff66b",
}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=str)
def test_help_texts_keep_their_bytes(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run(["--help"] if command is None else [command, "--help"])
    assert stop.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[command]


def test_meta_tolerances_are_the_module_constants(tmp_path):
    out = tmp_path / "k"
    assert run(["kbound", "--group", "cyclic:3", "--out", str(out)]) == 0
    constants = {
        "unitarity": reps.UNITARITY_TOL,
        "homomorphism": reps.HOMOMORPHISM_TOL,
        "char_orthogonality": irreps.ORTHOGONALITY_TOL,
        "eig_snap": reps.EIG_SNAP_TOL,
        "integer_round": reps.INT_ROUND_TOL,
        "feasibility_rank": separation.FEASIBILITY_RCOND,
        "weight_sum": schemes.WEIGHT_SUM_TOL,
        "support_zero": schemes.SUPPORT_EPS,
        "sandwich_slack": schemes.SANDWICH_SLACK,
    }
    assert read_json(out / "kbound_meta.json")["tolerances"] == constants


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["certify", "--group", "dihedral:4", "--scheme", "random:6", "--seed", "3"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    for name in ("certification.json", "scheme.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of the Fourier-path artifacts, recorded before the pruned weak
# certificate and the lean spectral norm: a change to the certificate
# arithmetic that moves any bit, or any search tie-break, fails here
FOURIER_PATH_SHA256 = {
    ("certify", "dihedral:12", "regular"): {
        "certification.json": "e5d730214c41cac8493ab99b0f2c8afb8597c6318cc9fbc5c16ec9cec52403a8",
        "scheme.json": "50d6b5fdde549a60c4f4b6a599b54c1c40908cd225ae28fb07255ebe51062711",
    },
    ("certify", "symmetric:4", "permutation"): {
        "certification.json": "f33e11e2d0fe3ab1f275c89f11d28b5f5872b6e9949169f77fb68b75ecdf6a32",
        "scheme.json": "221c7d6f22e023e289eb468fca1757ea8bf68015a90e9dee8531a552243040b2",
    },
    ("certify", "product(cyclic:3,dihedral:5)", "regular"): {
        "certification.json": "cbdb205f0cf4d33e04d038c41e3a6e2553fe1b285a7b93d3f036fbba24440331",
        "scheme.json": "abdb227076803f5dd30c6cc4df17d2346f4827abf4925039e0ac1843e88b3e22",
    },
    ("minimize", "dihedral:12", "regular"): {
        "scheme.json": "9edbc8babefacb02fa6dc048b7547be0196ca6d5915feef0e1c2959e097ceb90",
        "search.json": "3508ede397fcfb80f845ebd6085940444f3fa5ed084b2015fe5662b4f7c838e4",
    },
    ("minimize", "symmetric:4", "permutation"): {
        "scheme.json": "7910aebb71c75b7ea16ecb73f5636fa9c9340e5b872e0c8b55d128539675e0c3",
        "search.json": "1584db6be8b259202b103780479a4e61d796832caff0f2f63c993f0303654291",
    },
    ("minimize", "product(cyclic:3,dihedral:5)", "regular"): {
        "scheme.json": "c96c6d8494faed4d14ddd611576c6ea64acef2356f523342600b2a5b17633a26",
        "search.json": "092ce09978ad29797a0c39ed4fa3e94e50ce06d15274ade163fec82f97428328",
    },
}
_FOURIER_PATH_ARGS = {
    ("certify", "dihedral:12"): ["--scheme", "random:8"],
    ("certify", "symmetric:4"): ["--scheme", "random:6"],
    ("certify", "product(cyclic:3,dihedral:5)"): ["--scheme", "random:10"],
    ("minimize", "dihedral:12"): ["--eps", "0.5"],
    ("minimize", "symmetric:4"): ["--eps", "0.5"],
    ("minimize", "product(cyclic:3,dihedral:5)"): ["--eps", "0.3"],
}


@pytest.mark.parametrize("key", sorted(FOURIER_PATH_SHA256), ids=lambda k: "-".join(k))
def test_fourier_path_artifacts_keep_their_bytes(key, tmp_path):
    command, spec, rep = key
    argv = [command, "--group", spec, "--path", "fourier", "--rep", rep,
            *_FOURIER_PATH_ARGS[command, spec], "--seed", "11", "--out", str(tmp_path)]
    assert run(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FOURIER_PATH_SHA256[key]
    }
    assert digests == FOURIER_PATH_SHA256[key]


# one small job of each subcommand, plus a search that fails (exit 3: only
# the uniform scheme's rounding noise comes near 1e-300), each run from its
# own directory with ``--out out`` so that ``_meta.json`` names no absolute
# path; the Fourier and projector runs stay at order <= 16, where the bits
# do not move with the BLAS thread count
_EVERY_SUBCOMMAND = {
    "group": (0, ["group", "--group", "dihedral:5"]),
    "irreps": (0, ["irreps", "--group", "symmetric:4"]),
    "certify": (0, ["certify", "--group", "cyclic:8", "--scheme", "random:5", "--seed", "3"]),
    "sample": (0, ["sample", "--group", "dihedral:4", "--eps", "0.5", "--seed", "7"]),
    "minimize": (0, ["minimize", "--group", "signflip:3", "--path", "fourier", "--eps", "0.5",
                     "--trials", "4", "--swaps", "5", "--seed", "1"]),
    "kbound": (0, ["kbound", "--group", "symmetric:3", "--rep", "permutation"]),
    "separation": (0, ["separation", "--range", "2:3", "--eps", "0.2", "--trials", "1", "--seed", "2"]),
    "lowerbound": (0, ["lowerbound", "--d", "3", "--trials", "2", "--seed", "1"]),
    "figure1": (0, ["figure1", "--n", "5", "--grid", "3", "--subsets", "1,2", "--seed", "4"]),
    "regress": (0, ["regress", "--n", "16", "--trials", "2", "--eps", "0.5", "--seed", "5"]),
    "mlp": (0, [*TINY_MLP, "--width1", "4", "--width2", "4", "--epoch-eval", "8"]),
    "selftest": (0, ["selftest", "--seed", "3"]),
    "search-failure": (3, ["minimize", "--group", "dihedral:5", "--eps", "1e-300", "--trials", "1",
                           "--swaps", "1"]),
    "certify-sign": (0, ["certify", "--group", "signflip:4", "--rep", "sign", "--scheme", "random:6",
                         "--seed", "3"]),
    "certify-fourier": (0, ["certify", "--group", "dihedral:6", "--path", "fourier", "--scheme",
                            "random:5", "--seed", "2"]),
}
# sha256 of (stdout, {artifact: file}), recorded before main took over the
# output directory and the sidecar from the subcommands
EVERY_SUBCOMMAND_SHA256 = {
    "group": (
        "989429e46bc5f56ee91828d8673eb805049777aba413287f7f10374736242b33",
        {
            "group.txt": "f31a63c2bf7222f660dfc34ac43cc38b1dba34d15994cb859277d82c9dd910b6",
            "group_info.json": "7c6f495cd84cf386760579da2c954348724dd09bff6dae6579d70aad3bc62612",
            "group_meta.json": "5332528f4a5fd080f1a85549b235b9e22ca047f4b296696a8f2dc951472c58b4",
        },
    ),
    "irreps": (
        "4a4a862e8116abf40ad4f38bbbf58acb41a40f4283d465205d5e07df68a7883c",
        {
            "character_table.csv": "6c8d6f1cef2aa40754c3b7f8d084bbd6c872052875805d36043e3c2c9b54f663",
            "irreps_info.json": "83a77d10e3c594b8d5dc3dcb215152c64e86b69155be997f479cfeff27e99a58",
            "irreps_meta.json": "6774741871c39fb9048b45d764c950fe38c799faa19312b41bd8bda5209f6fc6",
        },
    ),
    "certify": (
        "82cf63e4230f417f1fff09f5a5ae0beba9f516144fb76a9abf0cbfcb51e20902",
        {
            "certification.json": "70be28a9e0508b5d37183aae0e31c874064c5bd046a3bd725eca4e7f054ccab3",
            "certify_meta.json": "8fb1fb594330f024d9f554a20b0041a427d9a4182df6b95fc563472a70e1bbe7",
            "scheme.json": "3588badbc27f638758e4c078111091008627e801ef438ad1ed4a1456ad780b86",
        },
    ),
    "sample": (
        "a0f408510c34854fd9b1378dfb173098d78549bf7920582391b7eddafb80393a",
        {
            "certification.json": "f7a00daef76435f0e9350d0fcd9d8e3e9830c0226ecffcb024b8cde87b601ef8",
            "sample_meta.json": "ef017a39b8c4aa7fa1fa0ee0a8b82e80f9c2ad4b856f879eaa35e9f200e6faca",
            "scheme.json": "aa11cedf51641878bbacfc9732e99906c2641de1bf9a13be89048cd26c939f1c",
        },
    ),
    "minimize": (
        "f983a8bb14614588f13f8fabdc2014afee792cbf895279301972d7611da0229a",
        {
            "minimize_meta.json": "4491f5936dd8b830c4f1ca9edf464ca168db17449a9c1dcf4ef0549a6aaf42b9",
            "scheme.json": "ab51a823e6648fb1823d9028c55f565ea282e83efaecf8f8afcfaf493fa5b8c3",
            "search.json": "87855ab289463d7a63abab00545845ddbd37023374e0e5664beaf26967be5b6b",
        },
    ),
    "kbound": (
        "a6d25366d03470c1b6b08b8b213f514d14107d8b944768018250bf6581fd7c07",
        {
            "kbound.json": "a8bbdb65575fd7d2f284e5a375bfeea7028befef176a59e2ffc6d9184a6ba239",
            "kbound_meta.json": "24fdb8efd474709d695a0b411756b9f01eb47faa820b2df04e7e42375f4f9d7a",
        },
    ),
    "separation": (
        "546e967ba246b312a9e1d3e1cdac028e6c43232c4dcd9b2f3380c241d492e5c1",
        {
            "separation.csv": "b508b3ac8de4a276db1f66b27170cbd614edff5618229b3068db5a7c81a1d009",
            "separation_meta.json": "d26b56b42177fd8d1625ce0a383537e13a9f278b65dc8c991df1bacc9aec1a13",
        },
    ),
    "lowerbound": (
        "558e52cf6e0c546a4e606974581e077b4672fe1d93264b0f1b801af35d76570e",
        {
            "lowerbound.json": "2bd8c50f5e068c71a4471f6f03233d16563aea4d92c1e0d365ad728b8e388e0b",
            "lowerbound_meta.json": "bfd03665d6064fa6a49addb9785e52484f34139bf636d52fc76c2c0ab5b1b10e",
        },
    ),
    "figure1": (
        "1e1f62e8323016f64c7576fc3862b0c3dc7e253896451a56927954126e053d88",
        {
            "figure1_meta.json": "1f8a95254d3d0dd032ae90de44a913c786fc8dd921b154f0adac9cfbd3666858",
            "figure1_summary.json": "14df380c4ecd06acc512297ab0b48182b72bf0b328d053c7b92f398be31ad6c5",
            "grid_subset_1.csv": "31f4b6f53ee07360bc407ad1f3df2551659b1d76391b73a8aeb9404e586d3404",
            "grid_subset_2.csv": "f94011e98be0d1860a347dc01fb7785c001148b01d20a96ab00b43cdb9135293",
        },
    ),
    "regress": (
        "d670083742028c51ff2907a0a449561e9a34e9a179b766eefcb4547a986484cf",
        {
            "regress_meta.json": "820636503eae133b4eff0bd3ad343bd1295a73587cd2f58e19f69d9d50ed9b4d",
            "regression.csv": "7befc79ed0fb8d1e4a3543fe9b1088cde7115746da1ae17c1c351d394fda71cd",
        },
    ),
    "mlp": (
        "0b35fa281949c87b2fc669e110e5e87cb4b165bea54610a68c44302c435e3358",
        {
            "loss_vs_epoch.csv": "427e854e348df23d79fcace44dde8167e373067264d380b2b48b00044740ff1b",
            "loss_vs_subset.csv": "6b3b15e4deffae6c76566c553c30d73af1b24ae56bcdc1af3bf48b7d1d5979ee",
            "mlp_meta.json": "637507bc6c6098e89a5363b41cba0630b1819c594c4a8f90c58b00c476258976",
        },
    ),
    "selftest": (
        "bf7d27fb9fe81de1902b86718e7b318f4b3fd2fee81a35f67309faa7ce7487ee",
        {
            "selftest.json": "42f6fdf7c45dfcfb4ddc289b93652d9d9e9b7671c30bd020dae3be43ec7fa353",
            "selftest_meta.json": "8d563dac13b5a99329840466f24a93176794de653b97014ed9db5be8295bd8e6",
        },
    ),
    "search-failure": (
        "7f2fff0ac6deee96d221cea0f911d76e804c03a3760ac959e56441dae4170dd1",
        {
            "minimize_meta.json": "9984f08a9769b9a6d9d7b48e883d2658afcda20c10a5380c2f1f95ea9483427e",
            "scheme.json": "e3f7c2822d018058b4dd4cd06647ba31970c9e5231a5ab98ce94975540c83ab9",
            "search.json": "15a89c4904289a03399d27c28e33d0ad4f2143eb7408d18dfd5a3c305c94f677",
        },
    ),
    "certify-sign": (
        "3819da8e1a192435a3d132d446cf1eaf68bf228d8c025852d0a15a342b2bc6c8",
        {
            "certification.json": "8db8c97afe4a67ee59ba0bf17fb847d1d9c5bf657c381312bd5c55022ea82f60",
            "certify_meta.json": "9391aa2457b9bc23a259a77a2956267eac1b09adaa5e79be1aa75a52c3ddfb77",
            "scheme.json": "e8d414f10962db88a2bf0a58470f054c9b2ebd9fcb94776fc394544a60718366",
        },
    ),
    "certify-fourier": (
        "a9e0600849f7a9cc9ccf01876753cd7c6970afa78dfda5075d17f236f76af1b7",
        {
            "certification.json": "0c107c699b169ec0105fdafff3d5b5a4b8c2be1ea95f2cd920ee5a8cb005d500",
            "certify_meta.json": "0cd6a97ab43ab7aa780e0f71dbaeaa7d3d3e0a0db5d6ef103fd799398034f987",
            "scheme.json": "77c67a4802a3261dadde9b185bc5cc55ed86f6d6411b522a9ee63efca8cdb395",
        },
    ),
}


@pytest.mark.parametrize("command", list(_EVERY_SUBCOMMAND))
def test_every_subcommand_keeps_its_bytes(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, argv = _EVERY_SUBCOMMAND[command]
    assert run([*argv, "--out", "out"]) == code
    stdout, files = EVERY_SUBCOMMAND_SHA256[command]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert sorted(written) == list(files) and written == files


def _raises(exc):
    def subcommand(*args):
        raise exc

    return subcommand


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (UsageError("bad flag"), 1, "usage error: bad flag"),
        (SizeLimitError("too big"), 1, "usage error: too big"),
        (NumericalConsistencyError("drift"), 2, "numerical-consistency error: drift"),
        (TrainingFailureError("loss is nan", epoch=3), 2, "numerical-consistency error: loss is nan"),
        (SearchFailureError("budget spent"), 3, "search failure: budget spent"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_toolkit_errors_map_to_exit_codes(exc, code, prefix, tmp_path, monkeypatch, capsys):
    help_text, _, flags = cli._SUBCOMMANDS["kbound"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "kbound", (help_text, _raises(exc), flags))
    out = tmp_path / "x"
    assert run(["kbound", "--group", "cyclic:4", "--out", str(out)]) == code
    assert capsys.readouterr().err == prefix + "\n"
    assert not out.exists()


def test_failed_selftest_writes_its_artifacts_and_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "invariant_dimension", lambda rep: 0)
    out = tmp_path / "st"
    assert run(["selftest", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "numerical-consistency error: selftest failed\n"
    assert "FAIL invariant dimension of perm rep" in captured.out
    assert not read_json(out / "selftest.json")["passed"]
    assert read_json(out / "selftest_meta.json")["subcommand"] == "selftest"


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = cyclic:8\nseed = 5\n")
    out = tmp_path / "cfgout"
    code = run(["group", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert read_json(out / "group_info.json")["order"] == 8
    # explicit flag beats the config value
    out2 = tmp_path / "cfgout2"
    code = run(["group", "--config", str(cfg), "--group", "cyclic:3", "--out", str(out2)])
    assert code == 0
    assert read_json(out2 / "group_info.json")["order"] == 3


def test_config_file_loses_to_explicit_flags_in_equals_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group = cyclic:8\nseed = 5\n")
    out = tmp_path / "eq"
    argv = ["certify", "--config", str(cfg), "--group=cyclic:3", "--seed=2",
            "--scheme", "random:2", "--out", str(out)]
    assert run(argv) == 0
    meta = read_json(out / "certify_meta.json")
    assert meta["seed"] == 2 and meta["config"]["group"] == "cyclic:3"
    # the file itself may also be given in the equals form
    out2 = tmp_path / "eq2"
    assert run(["group", f"--config={cfg}", "--out", str(out2)]) == 0
    assert read_json(out2 / "group_info.json")["order"] == 8


def test_scheme_file_round_trip_via_cli(tmp_path):
    out = tmp_path / "src"
    assert run(["sample", "--group", "dihedral:4", "--eps", "0.5", "--seed", "1", "--out", str(out)]) == 0
    scheme_path = out / "scheme.json"
    out2 = tmp_path / "reuse"
    code = run(
        [
            "certify",
            "--group",
            "dihedral:4",
            "--scheme",
            f"file:{scheme_path}",
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    a = read_json(out / "certification.json")
    b = read_json(out2 / "certification.json")
    assert a["eps_weak"] == b["eps_weak"]
