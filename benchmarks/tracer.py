"""Layer spans for the traced benchmark run.

``Tracer.install`` wraps the public functions of each ``groupavg`` layer
in a span that records ``[name, start, end, parent, job]``.  Functions
are imported by name into other modules (``irreps_of`` lives in ``cli``,
``separation`` and ``irreps``, for example), so every module-level alias
of a wrapped function in every loaded ``groupavg`` module is rebound;
methods are patched on their class.  ``spectral_norm`` is counted, not
spanned, because a separation sweep calls it hundreds of thousands of
times.

A call into a span of the same name as the innermost open span runs
unwrapped (``certify_weak_target`` calling ``certify_weak``, recursive
``validate_schema``), so such calls are counted once.  ``irreps_of`` is
the exception: a product group's table builds its factors' tables, and
each build counts.

Spans stay in memory until ``dump``.  A span's self time is its duration
minus the durations of its direct children; the runner opens one ``cli``
span per job around ``groupavg.cli.main``, so the self times of a job's
spans add up to its wall time.  The tracer assumes single-threaded jobs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MB = 1e6

# (module, attribute or Class.method, span name)
SPANS = [
    ("groupavg.groups", "cyclic_group", "groups.build"),
    ("groupavg.groups", "sign_flip_group", "groups.build"),
    ("groupavg.groups", "dihedral_group", "groups.build"),
    ("groupavg.groups", "symmetric_group", "groups.build"),
    ("groupavg.groups", "product_group", "groups.build"),
    ("groupavg.groups", "custom_group", "groups.build"),
    ("groupavg.groups", "conjugacy_classes", "groups.conjugacy"),
    ("groupavg.groups", "closure", "groups.closure"),
    ("groupavg.reps", "permutation_rep", "reps.build"),
    ("groupavg.reps", "sign_action_rep", "reps.build"),
    ("groupavg.reps", "regular_rep", "reps.build"),
    ("groupavg.reps", "trivial_rep", "reps.build"),
    ("groupavg.reps", "direct_sum", "reps.build"),
    ("groupavg.reps", "tensor_product", "reps.build"),
    ("groupavg.reps", "sym_power_rep", "reps.build"),
    ("groupavg.reps", "Representation.validate", "reps.validate"),
    ("groupavg.reps", "k_bound", "reps.kbound"),
    ("groupavg.reps", "regular_k_bound", "reps.kbound"),
    ("groupavg.irreps", "irreps_of", "irreps.table"),
    ("groupavg.fourier", "fourier_transform", "fourier.transform"),
    ("groupavg.fourier", "max_nontrivial_norm", "fourier.max_norm"),
    ("groupavg.schemes", "certify_weak", "schemes.cert_weak"),
    ("groupavg.schemes", "certify_weak_target", "schemes.cert_weak"),
    ("groupavg.schemes", "certify_strong", "schemes.cert_strong"),
    ("groupavg.schemes", "_fourier_eps_strong", "schemes.cert_strong"),
    ("groupavg.schemes", "certify", "schemes.certify"),
    ("groupavg.schemes", "minimize_scheme", "schemes.minimize"),
    ("groupavg.schemes", "random_scheme", "schemes.scheme_build"),
    ("groupavg.schemes", "uniform_scheme", "schemes.scheme_build"),
    ("groupavg.schemes", "delta_scheme", "schemes.scheme_build"),
    ("groupavg.schemes", "scheme_from_json", "schemes.scheme_build"),
    ("groupavg.schemes", "AveragingScheme.__post_init__", "schemes.scheme_build"),
    ("groupavg.separation", "separation_table", "separation.table"),
    ("groupavg.separation", "sign_flip_generation_report", "separation.report"),
    ("groupavg.experiments.mlp", "mlp_experiment", "experiments.mlp"),
    ("groupavg.experiments.mlp", "SignAveragedMlp.sgd_step", "experiments.train"),
    ("groupavg.experiments.mlp", "averaged_predictions", "experiments.eval"),
    ("groupavg.experiments.mlp", "SignAveragedMlp.forward", "experiments.eval"),
    ("groupavg.experiments.regression", "regression_risk", "experiments.regression"),
    ("groupavg.experiments.rotation", "rotation_averaging_demo", "experiments.rotation"),
    ("groupavg.io", "write_json", "io.write"),
    ("groupavg.io", "write_text", "io.write"),
    ("groupavg.io", "validate_schema", "io.schema"),
    ("groupavg.io", "load_schema", "io.schema"),
    # artifact formatting lives beside each layer but is part of writing artifacts
    ("groupavg.groups", "group_to_text", "io.format"),
    ("groupavg.irreps", "character_table_csv", "io.format"),
    ("groupavg.schemes", "scheme_to_json", "io.format"),
    ("groupavg.schemes", "CertificationReport.to_json", "io.format"),
    ("groupavg.separation", "separation_csv", "io.format"),
    ("groupavg.experiments.mlp", "subset_csv", "io.format"),
    ("groupavg.experiments.mlp", "epoch_csv", "io.format"),
    ("groupavg.experiments.regression", "regression_csv", "io.format"),
    ("groupavg.experiments.rotation", "grid_csv", "io.format"),
    ("groupavg.experiments.rotation", "summary_json", "io.format"),
]
NON_COLLAPSING = {"irreps.table"}
CERT_SPANS = ("schemes.cert_weak", "schemes.cert_strong")


class Tracer:
    """Spans and counters of one traced run; ``install`` starts, ``uninstall`` stops."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._seen_tables: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "groupavg"]
        for module_name, attr, span in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        fourier = sys.modules["groupavg.fourier"]
        original = fourier.spectral_norm
        counted = self._counted_spectral_norm(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, counted)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        collapse = name not in NON_COLLAPSING
        on_return = _ON_RETURN.get(name)
        signature = inspect.signature(fn) if on_return else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if collapse and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(tracer, bound.arguments, result)
            return result

        return wrapper

    def _counted_spectral_norm(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(mat, *args, **kwargs):
            counts["fourier.spectral_norm.calls"] += 1
            if getattr(mat, "size", 0) == 1:
                counts["fourier.spectral_norm.scalar"] += 1
            return fn(mat, *args, **kwargs)

        return wrapper

    # -- jobs -----------------------------------------------------------------

    def call_job(self, job: int, fn, *args):
        """Run ``fn(*args)`` as job ``job`` inside its root ``cli`` span."""
        self.job = job
        record = ["cli", 0.0, 0.0, -1, job]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def job_self_sums(self) -> dict[int, float]:
        sums: dict[int, float] = defaultdict(float)
        for (_, _, _, _, job), own in zip(self.spans, self.self_times()):
            sums[job] += own
        return dict(sums)

    def breakdown(self) -> dict[str, dict]:
        """Calls, self seconds and inclusive seconds per span name."""
        out: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += end - start
        return out

    def _certs_in_minimize(self) -> int:
        count = 0
        for name, _, _, parent, _ in self.spans:
            if name not in CERT_SPANS:
                continue
            while parent >= 0:
                if self.spans[parent][0] == "schemes.minimize":
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (without process ones)."""
        spans = self.breakdown()
        c = self.counts

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        def self_s(name):
            return spans.get(name, {}).get("self_s", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        certs = calls("schemes.cert_weak") + calls("schemes.cert_strong")
        cert_time = sum(spans.get(n, {}).get("total_s", 0.0) for n in CERT_SPANS)
        return {
            "groups.build.calls": calls("groups.build"),
            "groups.build.self_s": self_s("groups.build"),
            "groups.conjugacy.self_s": self_s("groups.conjugacy"),
            "groups.closure.self_s": self_s("groups.closure"),
            "groups.table_mb": c["groups.table_bytes"] / MB,
            "reps.build.calls": calls("reps.build"),
            "reps.build.self_s": self_s("reps.build"),
            "reps.validate.calls": calls("reps.validate"),
            "reps.validate.self_s": self_s("reps.validate"),
            "reps.kbound.self_s": self_s("reps.kbound"),
            "reps.mats_mb": c["reps.mats_bytes"] / MB,
            "irreps.table.calls": calls("irreps.table"),
            "irreps.table.self_s": self_s("irreps.table"),
            "irreps.table.repeat_frac": ratio(c["irreps.table.repeats"], calls("irreps.table")),
            "fourier.transform.calls": calls("fourier.transform"),
            "fourier.transform.self_s": self_s("fourier.transform"),
            "fourier.max_norm.self_s": self_s("fourier.max_norm"),
            "fourier.spectral_norm.calls": c["fourier.spectral_norm.calls"],
            "fourier.spectral_norm.scalar_frac": ratio(
                c["fourier.spectral_norm.scalar"], c["fourier.spectral_norm.calls"]
            ),
            "schemes.cert_weak.calls": calls("schemes.cert_weak"),
            "schemes.cert_weak.self_s": self_s("schemes.cert_weak"),
            "schemes.cert_strong.calls": calls("schemes.cert_strong"),
            "schemes.cert_strong.self_s": self_s("schemes.cert_strong"),
            "schemes.certify.calls": calls("schemes.certify"),
            "schemes.certify.self_s": self_s("schemes.certify"),
            "schemes.minimize.calls": calls("schemes.minimize"),
            "schemes.minimize.self_s": self_s("schemes.minimize"),
            "schemes.minimize.certs": self._certs_in_minimize(),
            "schemes.certs_per_s": ratio(certs, cert_time),
            "schemes.scheme_build.self_s": self_s("schemes.scheme_build"),
            "schemes.search.feasible_frac": ratio(c["search.feasible"], c["search.trials"]),
            "schemes.swaps.accept_frac": ratio(c["swaps.accepted"], c["swaps.budget"]),
            "separation.table.self_s": self_s("separation.table"),
            "separation.report.calls": calls("separation.report"),
            "separation.report.self_s": self_s("separation.report"),
            "experiments.mlp.self_s": self_s("experiments.mlp"),
            "experiments.train.steps": calls("experiments.train"),
            "experiments.train.self_s": self_s("experiments.train"),
            "experiments.eval.calls": calls("experiments.eval"),
            "experiments.eval.self_s": self_s("experiments.eval"),
            "experiments.eval.rows": c["eval.rows"],
            "experiments.eval.gflop": c["eval.flop"] / 1e9,
            "experiments.regression.self_s": self_s("experiments.regression"),
            "experiments.rotation.self_s": self_s("experiments.rotation"),
            "cli.self_s": self_s("cli"),
            "io.write.calls": calls("io.write"),
            "io.write.mb": c["io.write.bytes"] / MB,
            "io.write.self_s": self_s("io.write"),
            "io.schema.self_s": self_s("io.schema"),
            "io.format.self_s": self_s("io.format"),
        }

    def span_cost_frac(self, wall: float) -> float:
        """Estimated share of ``wall`` spent in the tracer's own wrappers."""
        span_cost, count_cost = wrapper_costs()
        calls = self.counts["fourier.spectral_norm.calls"]
        return (len(self.spans) * span_cost + calls * count_cost) / wall

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def wrapper_costs(calls: int = 20_000) -> tuple[float, float]:
    """Seconds that one span and one counted call add, timed on a no-op."""

    def noop(x=None):
        return x

    probe = Tracer()
    spanned = probe._wrap("probe", noop)
    counted = probe._counted_spectral_norm(noop)

    def per_call(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn(None)
        return (perf_counter() - t0) / calls

    base = per_call(noop)
    return max(per_call(spanned) - base, 0.0), max(per_call(counted) - base, 0.0)


# -- quantities computed from a span's arguments and result ------------------------


def _group_table(tracer: Tracer, arguments: dict, group) -> None:
    tracer.counts["groups.table_bytes"] += group.mult.nbytes


def _rep_mats(tracer: Tracer, arguments: dict, rep) -> None:
    tracer.counts["reps.mats_bytes"] += rep.mats.nbytes


def _irrep_table(tracer: Tracer, arguments: dict, table) -> None:
    from groupavg.groups import group_spec_string

    spec = group_spec_string(arguments["group"])
    if spec in tracer._seen_tables:
        tracer.counts["irreps.table.repeats"] += 1
    tracer._seen_tables.add(spec)


def _search(tracer: Tracer, arguments: dict, result) -> None:
    """The same trace ``minimize`` writes to search.json."""
    for phase in result.trace:
        if phase["phase"] == "search":
            tracer.counts["search.trials"] += phase["trials"]
            tracer.counts["search.feasible"] += phase["feasible_trials"]
        elif phase["phase"] == "swaps":
            tracer.counts["swaps.accepted"] += phase["accepted"]
    tracer.counts["swaps.budget"] += arguments["swap_budget"]


def _eval_rows(tracer: Tracer, arguments: dict, result) -> None:
    if "signs" in arguments:  # averaged_predictions(model, x, signs)
        model, rows = arguments["model"], arguments["x"].shape[0] * arguments["signs"].shape[0]
    else:  # SignAveragedMlp.forward(self, x)
        model, rows = arguments["self"], arguments["x"].shape[0]
    tracer.counts["eval.rows"] += rows
    tracer.counts["eval.flop"] += 2 * rows * sum(w.size for w in model.weights)


def _written(tracer: Tracer, arguments: dict, result) -> None:
    tracer.counts["io.write.bytes"] += arguments["path"].stat().st_size


_ON_RETURN = {
    "groups.build": _group_table,
    "reps.build": _rep_mats,
    "irreps.table": _irrep_table,
    "schemes.minimize": _search,
    "experiments.eval": _eval_rows,
    "io.write": _written,
}
