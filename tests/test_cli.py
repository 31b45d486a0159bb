import json
from pathlib import Path

import pytest

from groupavg import irreps, reps, schemes, separation
from groupavg.cli import main
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


@pytest.mark.parametrize(
    "argv",
    [
        ["separation", "--range", "2-5"],
        ["certify", "--group", "cyclic:4", "--scheme", "random:x"],
        ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/missing.json"],
        ["group", "--group", "cyclic:3", "--bogus"],
        ["sample", "--group", "cyclic:4"],
        ["certify", "--group", "cyclic:4", "--scheme", "file:{tmp}/empty.json"],
        ["separation", "--range", "5:2"],
    ],
    ids=["range-without-colon", "random-non-integer", "missing-scheme-file", "unknown-flag",
         "missing-required-flag", "scheme-file-missing-keys", "empty-range"],
)
def test_malformed_input_is_one_line_usage_error(argv, tmp_path, capsys):
    (tmp_path / "empty.json").write_text("{}")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


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
