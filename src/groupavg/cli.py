"""Command-line entry point.

Every subcommand writes its artifacts plus a ``<subcommand>_meta.json``
sidecar (config, seed, tool version, tolerances) into ``--out``; outputs
are byte-identical for identical (argv, seed).  Exit codes: 0 success,
1 usage error, 2 numerical-consistency error, 3 search failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, irreps, reps, schemes, separation
from .errors import NumericalConsistencyError, SearchFailureError, UsageError
from .fourier import GroupSignal, plancherel_residual
from .groups import (
    Group,
    closure,
    conjugacy_classes,
    group_spec_string,
    group_to_text,
    parse_group_spec,
)
from .io import load_schema, validate_schema, write_json, write_text
from .irreps import character_table_csv, decompose, irreps_of
from .reps import (
    Representation,
    invariant_dimension,
    k_bound,
    permutation_rep,
    regular_rep,
    sign_action_rep,
    trivial_rep,
)
from .schemes import (
    AveragingScheme,
    certify,
    certify_weak,
    certify_strong,
    delta_scheme,
    minimize_scheme,
    random_scheme,
    required_sample_count,
    scheme_from_json,
    scheme_to_json,
    uniform_scheme,
)
from .separation import (
    exact_feasible_on_support,
    separation_csv,
    separation_table,
    sign_flip_generation_report,
    sym_power_coverage,
)
from .experiments.mlp import MlpConfig, epoch_csv, mlp_experiment, subset_csv
from .experiments.regression import RegressionConfig, regression_csv, regression_risk
from .experiments.rotation import (
    RotationDemoConfig,
    grid_csv,
    rotation_averaging_demo,
    summary_json,
)

TOLERANCES = {
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


def _build_rep(group: Group, kind: str) -> Representation:
    if kind == "regular":
        return regular_rep(group)
    if kind == "permutation":
        return permutation_rep(group)
    if kind == "sign":
        return sign_action_rep(group)
    if kind == "trivial":
        return trivial_rep(group)
    raise UsageError(f"unknown representation kind {kind!r}")


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _build_scheme(group: Group, spec: str, seed: int) -> AveragingScheme:
    kind, _, arg = spec.partition(":")
    if spec == "uniform":
        return uniform_scheme(group)
    if kind == "delta":
        return delta_scheme(group, _int_arg(arg, "delta:g element index"))
    if kind == "random":
        return random_scheme(group, _int_arg(arg, "random:n draw count"), seed)
    if kind == "file":
        try:
            payload = json.loads(Path(arg).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read scheme file {arg!r}: {exc}") from None
        try:
            return scheme_from_json(payload, group)
        except KeyError as exc:
            raise UsageError(f"scheme file {arg!r} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise UsageError(f"scheme file {arg!r} is not a scheme: {exc}") from None
    raise UsageError(f"unknown scheme spec {spec!r} (uniform | delta:g | random:n | file:path)")


def _write_meta(out: Path, subcommand: str, args: argparse.Namespace) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config") and v is not None
    }
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    payload = {
        "tool": "groupavg",
        "version": __version__,
        "subcommand": subcommand,
        "seed": getattr(args, "seed", None),
        "config": config,
        "tolerances": TOLERANCES,
    }
    validate_schema(payload, load_schema("metadata"))
    write_json(out / f"{subcommand}_meta.json", payload)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand implementations ------------------------------------------------


def cmd_group(args) -> int:
    group = parse_group_spec(args.group)
    out = _out_dir(args)
    part = conjugacy_classes(group)
    info = {
        "spec": group_spec_string(group),
        "family": group.family,
        "order": group.order,
        "n_classes": len(part),
        "class_sizes": [int(s) for s in part.sizes],
        "abelian": group.is_abelian,
    }
    validate_schema(info, load_schema("group_info"))
    write_text(out / "group.txt", group_to_text(group))
    write_json(out / "group_info.json", info)
    _write_meta(out, "group", args)
    print(f"group {info['spec']}: order {info['order']}, {info['n_classes']} classes")
    return 0


def cmd_irreps(args) -> int:
    group = parse_group_spec(args.group)
    table = irreps_of(group)
    out = _out_dir(args)
    info = {
        "spec": group_spec_string(group),
        "count": len(table),
        "dims": [int(d) for d in table.dims],
        "sum_squared_dims": int(sum(d * d for d in table.dims)),
    }
    validate_schema(info, load_schema("irreps_info"))
    write_text(out / "character_table.csv", character_table_csv(table))
    write_json(out / "irreps_info.json", info)
    _write_meta(out, "irreps", args)
    print(f"irreps of {info['spec']}: dims {info['dims']}")
    return 0


def cmd_certify(args) -> int:
    group = parse_group_spec(args.group)
    scheme = _build_scheme(group, args.scheme, args.seed)
    out = _out_dir(args)
    if args.path == "fourier":
        table = irreps_of(group)
        report = certify(scheme, table)
    else:
        rep = _build_rep(group, args.rep)
        report = certify(scheme, rep)
    payload = report.to_json()
    validate_schema(payload, load_schema("certification"))
    write_json(out / "certification.json", payload)
    scheme_payload = scheme_to_json(scheme)
    validate_schema(scheme_payload, load_schema("scheme"))
    write_json(out / "scheme.json", scheme_payload)
    _write_meta(out, "certify", args)
    print(
        f"certified size-{scheme.size} scheme on {args.group}: "
        f"eps_weak={report.eps_weak:.17g} eps_strong={report.eps_strong:.17g}"
    )
    return 0


def cmd_sample(args) -> int:
    group = parse_group_spec(args.group)
    n = required_sample_count(group.order, args.eps, args.delta)
    scheme = random_scheme(group, n, args.seed)
    rep = _build_rep(group, args.rep)
    report = certify(scheme, rep)
    out = _out_dir(args)
    scheme_payload = scheme_to_json(scheme)
    validate_schema(scheme_payload, load_schema("scheme"))
    write_json(out / "scheme.json", scheme_payload)
    payload = report.to_json()
    payload["draws"] = n
    write_json(out / "certification.json", payload)
    _write_meta(out, "sample", args)
    ok = report.eps_weak <= args.eps
    print(f"draw count n = ceil(2.67*(ln({group.order}) + ln(1/{args.delta:g}) + 0.7)/{args.eps:g}) = {n}")
    print(
        f"drew {n} samples -> size {scheme.size}, eps_weak={report.eps_weak:.17g} "
        f"({'meets' if ok else 'misses'} target {args.eps:.17g})"
    )
    return 0


def cmd_minimize(args) -> int:
    group = parse_group_spec(args.group)
    if args.path == "fourier":
        target = irreps_of(group)
    else:
        target = _build_rep(group, args.rep)
    result = minimize_scheme(
        group,
        target,
        args.eps,
        trial_budget=args.trials,
        seed=args.seed,
        swap_budget=args.swaps,
    )
    out = _out_dir(args)
    scheme_payload = scheme_to_json(result.scheme)
    validate_schema(scheme_payload, load_schema("scheme"))
    write_json(out / "scheme.json", scheme_payload)
    search = {
        "status": result.status,
        "eps": float(result.eps),
        "eps_target": float(result.eps_target),
        "size": result.size,
        "trace": result.trace,
    }
    validate_schema(search, load_schema("search"))
    write_json(out / "search.json", search)
    _write_meta(out, "minimize", args)
    print(f"minimize on {args.group}: size {result.size}, eps {result.eps:.17g} [{result.status}]")
    return 0 if result.feasible else 3


def cmd_kbound(args) -> int:
    group = parse_group_spec(args.group)
    rep = _build_rep(group, args.rep)
    value = k_bound(rep)
    out = _out_dir(args)
    payload = {
        "group": group_spec_string(group),
        "rep": args.rep,
        "order": group.order,
        "k_bound": int(value),
    }
    validate_schema(payload, load_schema("kbound"))
    write_json(out / "kbound.json", payload)
    _write_meta(out, "kbound", args)
    print(f"degree bound for {args.rep} rep of {args.group}: {value}")
    return 0


def cmd_separation(args) -> int:
    lo, sep, hi = args.range.partition(":")
    if not sep:
        raise UsageError(f"--range must be lo:hi, got {args.range!r}")
    lo, hi = _int_arg(lo, "--range lo"), _int_arg(hi, "--range hi")
    if hi < lo:
        raise UsageError(f"--range {args.range!r} is empty: hi must be at least lo")
    params = list(range(lo, hi + 1))
    rows = separation_table(args.family, params, args.eps, trial_budget=args.trials, seed=args.seed)
    out = _out_dir(args)
    write_text(out / "separation.csv", separation_csv(rows))
    _write_meta(out, "separation", args)
    for r in rows:
        print(
            f"{r.family}: order {r.order}, K {r.k_bound}, exact {r.exact_cost}, "
            f"approx {r.approx_cost} [{r.status}]"
        )
    return 0 if all(r.status == "ok" for r in rows) else 3


def cmd_lowerbound(args) -> int:
    reports = []
    if args.support:
        group = parse_group_spec(f"signflip:{args.d}")
        support = [group.index_of_label(tok) for tok in args.support.split(",")]
        weights = np.full(len(support), 1.0 / len(support))
        reports.append(sign_flip_generation_report(args.d, support, weights))
    else:
        rng = np.random.default_rng(args.seed)
        group = parse_group_spec(f"signflip:{args.d}")
        for _ in range(args.trials):
            size = int(rng.integers(1, max(2, group.order // 2)))
            support = rng.choice(group.order, size=size, replace=False)
            raw = rng.random(size)
            weights = raw / raw.sum()
            reports.append(sign_flip_generation_report(args.d, support, weights))
    out = _out_dir(args)
    payload = {"d": args.d, "reports": reports}
    validate_schema(payload, load_schema("lowerbound"))
    write_json(out / "lowerbound.json", payload)
    _write_meta(out, "lowerbound", args)
    for rep in reports:
        print(
            f"support size {rep['support_size']}: generates={rep['generates']} "
            f"eps={rep['eps_weak_on_regular']:.17g}"
        )
    return 0


def cmd_figure1(args) -> int:
    sizes = tuple(int(tok) for tok in args.subsets.split(","))
    cfg = RotationDemoConfig(
        n_rotations=args.n, grid=args.grid, subset_sizes=sizes, seed=args.seed
    )
    result = rotation_averaging_demo(cfg)
    out = _out_dir(args)
    for m in cfg.subset_sizes:
        write_text(out / f"grid_subset_{m}.csv", grid_csv(result.xs, result.ys, result.grids[m]))
    summary = summary_json(result)
    validate_schema(summary, load_schema("figure1_summary"))
    write_json(out / "figure1_summary.json", summary)
    _write_meta(out, "figure1", args)
    for m in cfg.subset_sizes:
        print(f"subset {m}: relative distance to full average {result.rel_l2_to_full[m]:.17g}")
    return 0


def cmd_regress(args) -> int:
    cfg = RegressionConfig(
        group_spec=args.group,
        sigma=args.sigma,
        n_samples=args.n,
        trials=args.trials,
        eps=args.eps,
        seed=args.seed,
    )
    result = regression_risk(cfg)
    out = _out_dir(args)
    write_text(out / "regression.csv", regression_csv(result))
    _write_meta(out, "regress", args)
    for name in ("erm", "exact", "weak"):
        print(f"risk[{name}] = {result.risks[name]:.17g} (se {result.stderrs[name]:.17g})")
    return 0


def cmd_mlp(args) -> int:
    exponents = tuple(int(tok) for tok in args.subset_exponents.split(","))
    cfg = MlpConfig(
        input_dim=args.dim,
        n_train=args.train,
        n_test=args.test,
        widths=(args.width1, args.width2),
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        subset_exponents=exponents,
        curve_subset_exponent=args.curve_exponent,
        epoch_eval_size=args.epoch_eval,
        seed=args.seed,
    )
    result = mlp_experiment(cfg)
    out = _out_dir(args)
    write_text(out / "loss_vs_subset.csv", subset_csv(result))
    write_text(out / "loss_vs_epoch.csv", epoch_csv(result))
    _write_meta(out, "mlp", args)
    for size in sorted(result.loss_by_subset):
        print(f"|S| = {size}: test loss {result.loss_by_subset[size]:.17g}")
    return 0


def cmd_selftest(args) -> int:
    checks = _run_selftest(args.seed)
    out = _out_dir(args)
    payload = {"checks": checks, "passed": all(c["ok"] for c in checks)}
    validate_schema(payload, load_schema("selftest"))
    write_json(out / "selftest.json", payload)
    _write_meta(out, "selftest", args)
    for c in checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}")
    if not payload["passed"]:
        raise NumericalConsistencyError("selftest failed")
    return 0


def _run_selftest(seed: int) -> list[dict]:
    checks = []

    def check(name: str, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append({"name": name, "ok": ok})

    c12 = parse_group_spec("cyclic:12")
    d5 = parse_group_spec("dihedral:5")
    s4 = parse_group_spec("symmetric:4")
    z3 = parse_group_spec("signflip:3")

    check("group tables validate", lambda: all(g.order > 0 for g in (c12, d5, s4, z3)))
    check(
        "conjugacy classes partition",
        lambda: sum(conjugacy_classes(d5).sizes) == d5.order
        and len(conjugacy_classes(d5)) == 4,
    )
    check("closure reaches the whole group", lambda: len(closure(z3, [4, 2, 1])) == 8)

    rep = permutation_rep(s4)
    check("permutation rep unitary", lambda: rep.unitarity_residual() <= 1e-9)
    check("invariant dimension of perm rep", lambda: invariant_dimension(rep) == 1)
    check("degree bound of perm rep", lambda: k_bound(rep) == 9)

    table = irreps_of(s4)
    check("irrep table dims", lambda: sum(d * d for d in table.dims) == 24)

    def _perm_decomposition_ok():
        mults = list(decompose(rep, table))
        by_dim = sorted(zip(table.dims, mults))
        return mults[table.trivial_index] == 1 and sum(mults) == 2 and by_dim[-1][1] + by_dim[-2][1] == 1

    check("perm rep decomposition", _perm_decomposition_ok)

    rng = np.random.default_rng(seed)
    signal = GroupSignal(group=s4, weights=rng.normal(size=24))
    check("plancherel identity", lambda: plancherel_residual(signal, table) <= 1e-10)

    sch = random_scheme(d5, 16, seed)
    rep_d5 = regular_rep(d5)
    check(
        "sandwich ordering",
        lambda: certify_weak(sch, rep_d5)
        <= certify_strong(sch, rep_d5) + 1e-9
        <= 4 * certify_weak(sch, rep_d5) + 2e-9,
    )
    check(
        "uniform scheme is exact",
        lambda: certify_weak(uniform_scheme(d5), rep_d5) <= 1e-12,
    )
    table_c3 = irreps_of(parse_group_spec("cyclic:3"))
    check(
        "restricted support infeasible",
        lambda: not exact_feasible_on_support([0, 1], table_c3).feasible,
    )
    check(
        "full support feasible",
        lambda: exact_feasible_on_support([0, 1, 2], table_c3).feasible,
    )
    s3 = parse_group_spec("symmetric:3")
    rep_s3 = permutation_rep(s3)
    check(
        "symmetric powers cover all irreps",
        lambda: sym_power_coverage(rep_s3, k_bound(rep_s3), irreps_of(s3)).all(),
    )
    return checks


# -- parser ---------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, seed=0) -> None:
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--config", default=None, help="flat key = value config file; flags win")


class _Parser(argparse.ArgumentParser):
    """Argument errors become usage errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupavg",
        description="Averaging schemes over finite groups: construction, "
        "certification, minimization, and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("group", help="build and export a group")
    p.add_argument("--group", required=True, help="e.g. cyclic:12, signflip:6, dihedral:7")
    _add_common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("irreps", help="irrep table and character CSV")
    p.add_argument("--group", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("certify", help="certify a scheme on a representation")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="regular", choices=["regular", "permutation", "sign", "trivial"])
    p.add_argument("--scheme", default="uniform", help="uniform | delta:g | random:n | file:path")
    p.add_argument("--path", default="projector", choices=["projector", "fourier"])
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sample", help="random scheme at the sufficient draw count")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="regular", choices=["regular", "permutation", "sign", "trivial"])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("minimize", help="search for a small certified scheme")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="regular", choices=["regular", "permutation", "sign", "trivial"])
    p.add_argument("--path", default="projector", choices=["projector", "fourier"])
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--swaps", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("kbound", help="polynomial-degree bound of a representation")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", default="regular", choices=["regular", "permutation", "sign", "trivial"])
    _add_common(p)
    p.set_defaults(func=cmd_kbound)

    p = sub.add_parser("separation", help="exact vs approximate cost table")
    p.add_argument("--family", default="signflip")
    p.add_argument("--range", default="2:9", help="inclusive parameter range lo:hi")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=40)
    _add_common(p)
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("lowerbound", help="generating-set check on sign-flip groups")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--support", default=None, help="comma-separated bit-string labels")
    p.add_argument("--trials", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("figure1", help="rotation-averaging demo grids")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--subsets", default="1,5,100")
    _add_common(p)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("regress", help="symmetrized least-squares risk study")
    p.add_argument("--group", default="signflip:2")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--eps", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("mlp", help="evaluation-time averaging for an invariant MLP task")
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--train", type=int, default=50_000)
    p.add_argument("--test", type=int, default=50_000)
    p.add_argument("--width1", type=int, default=128)
    p.add_argument("--width2", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--subset-exponents", default="0,1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--curve-exponent", type=int, default=5)
    p.add_argument("--epoch-eval", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_mlp)

    p = sub.add_parser("selftest", help="run the built-in invariant battery")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load a flat key = value file as defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config needs a path")
    path = Path(argv[idx + 1])
    if not path.exists():
        raise UsageError(f"config file {path} does not exist")
    pairs = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip().replace("-", "_")] = value.strip()
    extra = []
    for key, value in pairs.items():
        flag = "--" + key.replace("_", "-")
        if flag not in argv and f"--{key}" not in argv:
            extra.extend([flag, value])
    # config-derived flags go first; explicit flags keep precedence by being absent above
    return extra + argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = [argv[0]] + _apply_config_file(parser, argv[1:])
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return 2
    except SearchFailureError as exc:
        print(f"search failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
