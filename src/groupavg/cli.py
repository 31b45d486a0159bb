"""Command-line entry point.

A subcommand ``cmd_<name>(args, out)`` writes its own artifacts into
``out`` and returns its exit code; ``main`` then writes the
``<subcommand>_meta.json`` sidecar (config, seed, tool version,
tolerances), so a refused run writes nothing.  Outputs are byte-identical
for identical (argv, seed) at a fixed BLAS thread count.  ``main`` turns
every toolkit error into one stderr line and its exit code (0 success;
the others are in ``errors.py``).  A run builds the parser of the
subcommand it names alone; ``--help``, ``--version`` and a missing or
unknown subcommand build them all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import __version__, irreps, reps, schemes, separation
from .errors import GroupavgError, NumericalConsistencyError, UsageError
from .fourier import GroupSignal, plancherel_residual
from .groups import (
    Group,
    closure,
    conjugacy_classes,
    family_order,
    group_spec_string,
    group_to_text,
    parse_group_spec,
)
from .io import write_json, write_text
from .irreps import IrrepTable, character_table_csv, check_table_order, decompose, irreps_of
from .reps import (
    Representation,
    invariant_dimension,
    k_bound,
    permutation_rep,
    regular_k_bound,
    regular_rep,
    sign_action_rep,
    trivial_rep,
)
from .schemes import (
    AveragingScheme,
    certify,
    certify_weak,
    check_trial_budget,
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
REP_KINDS = ("regular", "permutation", "sign", "trivial")
_INT_BOUND = 2**63  # every integer argument lies in [-2**63, 2**63 - 1]


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


def _certify_target(
    group: Group, args
) -> tuple[Union[Representation, IrrepTable], Optional[np.ndarray]]:
    """``--path`` target of certify and minimize, with the ``--rep`` irrep
    multiplicities on the Fourier path (None for the regular rep, which
    holds every irrep, and on the projector path)."""
    if args.path == "projector":
        return _build_rep(group, args.rep), None
    table = irreps_of(group)
    if args.rep == "regular":
        return table, None
    return table, decompose(_build_rep(group, args.rep), table)


def _bounded_int(text: str) -> int:
    """``int(text)`` in the int64 range: ValueError on a non-integer, and
    OverflowError, whose message holds none of the digits, outside the range."""
    try:
        value = int(text)
    except ValueError:
        digits = text.strip().removeprefix("-").removeprefix("+").replace("_", "")
        if len(digits) <= 20 or not digits.isdigit():
            raise
        value = _INT_BOUND  # more digits than ``int`` converts: far outside the range
    if not -_INT_BOUND <= value < _INT_BOUND:
        raise OverflowError("must lie between -2**63 and 2**63 - 1")
    return value


def _int_arg(text: str, what: str) -> int:
    try:
        return _bounded_int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    except OverflowError as exc:
        raise UsageError(f"{what} {exc}") from None


def _int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, such as ``--subsets 1,5,100``."""
    return tuple(_int_arg(tok, f"each entry of {what}") for tok in text.split(","))


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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or a NUL in the path
            raise UsageError(f"cannot read scheme file {arg!r}: {exc}") from None
        try:
            return scheme_from_json(payload, group)
        except KeyError as exc:
            raise UsageError(f"scheme file {arg!r} lacks the key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past int64
            raise UsageError(f"scheme file {arg!r} is not a scheme: {exc}") from None
    raise UsageError(f"unknown scheme spec {spec!r} (uniform | delta:g | random:n | file:path)")


def _write_meta(out: Path, args: argparse.Namespace) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config") and v is not None
    }
    payload = {
        "tool": "groupavg",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "config": config,
        "tolerances": TOLERANCES,
    }
    write_json(out / f"{args.subcommand}_meta.json", payload)


def _report(exc: GroupavgError) -> int:
    """Print a toolkit error as its one stderr line; return its exit code."""
    print(f"{exc.label}: {exc}", file=sys.stderr)
    return exc.exit_code


# -- subcommand implementations ------------------------------------------------


def cmd_group(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    part = conjugacy_classes(group)
    info = {
        "spec": group_spec_string(group),
        "family": group.family,
        "order": group.order,
        "n_classes": len(part),
        "class_sizes": part.sizes.tolist(),
        "abelian": group.is_abelian,
    }
    write_json(out / "group_info.json", info)
    write_text(out / "group.txt", group_to_text(group))
    print(f"group {info['spec']}: order {info['order']}, {info['n_classes']} classes")
    return 0


def cmd_irreps(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    table = irreps_of(group)
    info = {
        "spec": group_spec_string(group),
        "count": len(table),
        "dims": [int(d) for d in table.dims],
        "sum_squared_dims": int(sum(d * d for d in table.dims)),
    }
    write_json(out / "irreps_info.json", info)
    write_text(out / "character_table.csv", character_table_csv(table))
    print(f"irreps of {info['spec']}: dims {info['dims']}")
    return 0


def cmd_certify(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    scheme = _build_scheme(group, args.scheme, args.seed)
    report = certify(scheme, *_certify_target(group, args))
    write_json(out / "certification.json", report.to_json())
    write_json(out / "scheme.json", scheme_to_json(scheme))
    print(
        f"certified size-{scheme.size} scheme on {args.group}: "
        f"eps_weak={report.eps_weak:.17g} eps_strong={report.eps_strong:.17g}"
    )
    return 0


def cmd_sample(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    n = required_sample_count(group.order, args.eps, args.delta)
    scheme = random_scheme(group, n, args.seed)
    rep = _build_rep(group, args.rep)
    report = certify(scheme, rep)
    write_json(out / "scheme.json", scheme_to_json(scheme))
    payload = report.to_json()
    payload["draws"] = n
    write_json(out / "certification.json", payload)
    ok = report.eps_weak <= args.eps
    law = f"{schemes.SAMPLE_LAW_SCALE}*(ln({group.order}) + ln(1/{args.delta:g}) + {schemes.SAMPLE_LAW_OFFSET})"
    print(f"draw count n = ceil({law}/{args.eps:g}) = {n}")
    print(
        f"drew {n} samples -> size {scheme.size}, eps_weak={report.eps_weak:.17g} "
        f"({'meets' if ok else 'misses'} target {args.eps:.17g})"
    )
    return 0


def cmd_minimize(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    target, mults = _certify_target(group, args)
    result = minimize_scheme(
        group,
        target,
        args.eps,
        trial_budget=args.trials,
        seed=args.seed,
        swap_budget=args.swaps,
        multiplicities=mults,
    )
    write_json(out / "scheme.json", scheme_to_json(result.scheme))
    search = {
        "status": result.status,
        "eps": float(result.eps),
        "eps_target": float(result.eps_target),
        "size": result.size,
        "trace": result.trace,
    }
    write_json(out / "search.json", search)
    print(f"minimize on {args.group}: size {result.size}, eps {result.eps:.17g} [{result.status}]")
    return 0 if result.feasible else 3


def cmd_kbound(args, out: Path) -> int:
    group = parse_group_spec(args.group)
    # the regular action's bound needs only its character, not its matrices
    value = regular_k_bound(group) if args.rep == "regular" else k_bound(_build_rep(group, args.rep))
    payload = {
        "group": group_spec_string(group),
        "rep": args.rep,
        "order": group.order,
        "k_bound": int(value),
    }
    write_json(out / "kbound.json", payload)
    print(f"degree bound for {args.rep} rep of {args.group}: {value}")
    return 0


def cmd_separation(args, out: Path) -> int:
    lo, sep, hi = args.range.partition(":")
    if not sep:
        raise UsageError(f"--range must be lo:hi, got {args.range!r}")
    lo, hi = _int_arg(lo, "--range lo"), _int_arg(hi, "--range hi")
    if hi < lo:
        raise UsageError(f"--range {args.range!r} is empty: hi must be at least lo")
    order = family_order(args.family, max(hi, 0))
    if order is not None:  # the largest member, refused by its order before any row is made
        check_table_order(order)
        check_trial_budget(order, args.trials)
    rows = separation_table(args.family, range(lo, hi + 1), args.eps, trial_budget=args.trials,
                            seed=args.seed)
    write_text(out / "separation.csv", separation_csv(rows))
    for r in rows:
        print(
            f"{r.family}: order {r.order}, K {r.k_bound}, exact {r.exact_cost}, "
            f"approx {r.approx_cost} [{r.status}]"
        )
    return 0 if all(r.status == "ok" for r in rows) else 3


def cmd_lowerbound(args, out: Path) -> int:
    group = parse_group_spec(f"signflip:{args.d}")
    if args.support is not None:
        support = [group.index_of_label(tok) for tok in args.support.split(",")]
        supports, weights = [support], [np.full(len(support), 1.0 / len(support))]
    else:
        check_trial_budget(group.order, args.trials)  # before the draws
        rng = np.random.default_rng(args.seed)
        supports, weights = [], []
        for _ in range(args.trials):
            size = int(rng.integers(1, max(2, group.order // 2)))
            supports.append(rng.choice(group.order, size=size, replace=False))
            raw = rng.random(size)
            weights.append(raw / raw.sum())
    reports = sign_flip_generation_report(args.d, supports, weights)
    payload = {"d": args.d, "reports": reports}
    write_json(out / "lowerbound.json", payload)
    for rep in reports:
        print(
            f"support size {rep['support_size']}: generates={rep['generates']} "
            f"eps={rep['eps_weak_on_regular']:.17g}"
        )
    return 0


def cmd_figure1(args, out: Path) -> int:
    sizes = _int_list(args.subsets, "--subsets")
    cfg = RotationDemoConfig(
        n_rotations=args.n, grid=args.grid, subset_sizes=sizes, seed=args.seed
    )
    result = rotation_averaging_demo(cfg)
    for m in cfg.subset_sizes:
        write_text(out / f"grid_subset_{m}.csv", grid_csv(result.xs, result.ys, result.grids[m]))
    summary = summary_json(result)
    write_json(out / "figure1_summary.json", summary)
    for m in cfg.subset_sizes:
        print(f"subset {m}: relative distance to full average {result.rel_l2_to_full[m]:.17g}")
    return 0


def cmd_regress(args, out: Path) -> int:
    cfg = RegressionConfig(
        group_spec=args.group,
        sigma=args.sigma,
        n_samples=args.n,
        trials=args.trials,
        eps=args.eps,
        seed=args.seed,
    )
    result = regression_risk(cfg)
    write_text(out / "regression.csv", regression_csv(result))
    for name in ("erm", "exact", "weak"):
        print(f"risk[{name}] = {result.risks[name]:.17g} (se {result.stderrs[name]:.17g})")
    return 0


def cmd_mlp(args, out: Path) -> int:
    exponents = _int_list(args.subset_exponents, "--subset-exponents")
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
    write_text(out / "loss_vs_subset.csv", subset_csv(result))
    write_text(out / "loss_vs_epoch.csv", epoch_csv(result))
    for size in sorted(result.loss_by_subset):
        print(f"|S| = {size}: test loss {result.loss_by_subset[size]:.17g}")
    return 0


def cmd_selftest(args, out: Path) -> int:
    checks = _run_selftest(args.seed)
    payload = {"checks": checks, "passed": all(c["ok"] for c in checks)}
    write_json(out / "selftest.json", payload)
    for c in checks:
        print(f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}")
    # a failed battery is a completed run: main still writes its sidecar
    return 0 if payload["passed"] else _report(NumericalConsistencyError("selftest failed"))


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
    check("sandwich ordering", lambda: certify(sch, rep_d5))  # its report refuses a breach
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


def _int_flag(minimum: Optional[int] = None):
    """argparse ``type`` for an integer flag in the int64 range, optionally
    bounded below."""

    def parse(text: str) -> int:
        try:
            value = _bounded_int(text)
        except OverflowError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Argument errors become usage errors (exit 1), not argparse's exit 2.
    A flag, or a config key, must name an option exactly: no prefixes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


_GROUP = ("--group", dict(required=True))
_REP = ("--rep", dict(default="regular", choices=REP_KINDS))
_PATH = ("--path", dict(default="projector", choices=["projector", "fourier"]))
_EPS = ("--eps", dict(type=float, required=True))
_TRIALS = ("--trials", dict(type=_int_flag(1), default=40))
_COMMON = (
    ("--out", dict(default="out", help="output directory")),
    ("--seed", dict(type=_int_flag(0), default=0)),
    ("--config", dict(default=None, help="flat key = value config file; flags win")),
)

# name -> (help, handler, flags); every subcommand takes _COMMON after its flags
_SUBCOMMANDS = {
    "group": ("build and export a group", cmd_group, [
        ("--group", dict(required=True, help="e.g. cyclic:12, signflip:6, dihedral:7")),
    ]),
    "irreps": ("irrep table and character CSV", cmd_irreps, [_GROUP]),
    "certify": ("certify a scheme on a representation", cmd_certify, [
        _GROUP,
        _REP,
        ("--scheme", dict(default="uniform", help="uniform | delta:g | random:n | file:path")),
        _PATH,
    ]),
    "sample": ("random scheme at the sufficient draw count", cmd_sample, [
        _GROUP,
        _REP,
        _EPS,
        ("--delta", dict(type=float, default=0.1)),
    ]),
    "minimize": ("search for a small certified scheme", cmd_minimize, [
        _GROUP,
        _REP,
        _PATH,
        _EPS,
        _TRIALS,
        ("--swaps", dict(type=_int_flag(), default=200)),
    ]),
    "kbound": ("polynomial-degree bound of a representation", cmd_kbound, [_GROUP, _REP]),
    "separation": ("exact vs approximate cost table", cmd_separation, [
        ("--family", dict(default="signflip")),
        ("--range", dict(default="2:9", help="inclusive parameter range lo:hi")),
        ("--eps", dict(type=float, default=0.5)),
        _TRIALS,
    ]),
    "lowerbound": ("generating-set check on sign-flip groups", cmd_lowerbound, [
        ("--d", dict(type=_int_flag(), required=True)),
        ("--support", dict(default=None, help="comma-separated bit-string labels")),
        ("--trials", dict(type=_int_flag(1), default=20)),
    ]),
    "figure1": ("rotation-averaging demo grids", cmd_figure1, [
        ("--n", dict(type=_int_flag(), default=100)),
        ("--grid", dict(type=_int_flag(), default=200)),
        ("--subsets", dict(default="1,5,100")),
    ]),
    "regress": ("symmetrized least-squares risk study", cmd_regress, [
        ("--group", dict(default="signflip:2")),
        ("--sigma", dict(type=float, default=1.0)),
        ("--n", dict(type=_int_flag(), default=400)),
        ("--trials", dict(type=_int_flag(), default=2000)),
        ("--eps", dict(type=float, default=0.0)),
    ]),
    "mlp": ("evaluation-time averaging for an invariant MLP task", cmd_mlp, [
        ("--dim", dict(type=_int_flag(), default=20)),
        ("--train", dict(type=_int_flag(), default=50_000)),
        ("--test", dict(type=_int_flag(), default=50_000)),
        ("--width1", dict(type=_int_flag(), default=128)),
        ("--width2", dict(type=_int_flag(), default=64)),
        ("--lr", dict(type=float, default=1e-3)),
        ("--batch", dict(type=_int_flag(), default=256)),
        ("--epochs", dict(type=_int_flag(), default=500)),
        ("--subset-exponents", dict(default="0,1,2,3,4,5,6,7,8,9,10")),
        ("--curve-exponent", dict(type=_int_flag(), default=5)),
        ("--epoch-eval", dict(type=_int_flag(), default=2000)),
    ]),
    "selftest": ("run the built-in invariant battery", cmd_selftest, []),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``groupavg`` parser with ``command``'s subparser alone when it
    names a subcommand, every subparser otherwise (each ``add_argument``
    builds a help formatter).  Errors print no usage line listing the
    subcommands, so both give the same namespaces, errors and help."""
    parser = _Parser(
        prog="groupavg",
        description="Averaging schemes over finite groups: construction, "
        "certification, minimization, and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        help_text, func, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*flags, *_COMMON):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Load a flat key = value file as flags placed before ``argv``; argparse
    keeps the last occurrence of a flag, so explicit flags win."""
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config needs a path")
    path = Path(argv[idx + 1])
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise UsageError(f"cannot read config file {str(path)!r}: {exc}") from None
    extra = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag == "--help":  # the one option of a subcommand that stores no value
            raise UsageError(f"config key {key.strip()!r} takes no value")
        extra.extend([flag, value.strip()])
    return extra + argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        if argv and not argv[0].startswith("-"):
            argv = [argv[0]] + _apply_config_file(argv[1:])
        args = parser.parse_args(argv)
        out = Path(args.out)
        code = args.func(args, out)
        _write_meta(out, args)
        return code
    except GroupavgError as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
