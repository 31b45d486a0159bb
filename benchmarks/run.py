#!/usr/bin/env python3
"""Benchmark of the groupavg command line, one workload per process.

Run from the root of a groupavg checkout:

    python3 benchmarks/run.py --workload certify-projector --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

A single client drives ``groupavg.cli.main(argv)`` in-process in a closed
loop: each job starts when the previous one returns.  Jobs use the CLI's
default ``--threads 1``; the BLAS thread count is set before numpy is
imported.  The job list comes from ``workloads.generate`` and depends only
on the workload, ``--seed`` and ``--seconds``.  Every job's answer is
checked against ``reference.json`` and the paper's invariants.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with times
in reference seconds: wall seconds divided by the machine's slowdown, which
``speed`` samples while the jobs run.  The wall figures are printed too.
``--trace 1`` reports the per-layer metrics: the same job list first runs
untraced in a child process, to measure the tracing overhead, then traced
in this one.  The last line of standard output is the JSON result.

``--workload all`` runs every workload in its own child process and
prints each workload's metrics.  Exit status is 0 whenever a result is
printed, failed jobs included (the result says ``"correct": false``), and
2 on a usage or environment error, with no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402  (standard library only, as is workloads)
import workloads  # noqa: E402  (imported before numpy)

WORK_ROOT = Path(".bench_work")
SETUP_REPEATS = 9
TAIL_BEYOND = 10
MB = 1e6
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as a CLI user pays it: a fresh interpreter imports groupavg.cli,
# then the benchmark generates the jobs.  The probe then reads the machine's
# speed; it prints the set-up wall time and the slowdown.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = ["src", {bench!r}]
import groupavg.cli, workloads
workloads.generate({workload!r}, {seed}, {seconds}, {workdir!r})
wall = time.perf_counter() - t0
import speed
print(wall, speed.slowdown([speed.loop_seconds() for _ in range(11)]))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit status 2."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _tail(durations: list[float]) -> tuple[float, float]:
    """Job time at the highest percentile with TAIL_BEYOND jobs above it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# -- environment --------------------------------------------------------------------


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build info, thread count from the library."""
    import ctypes
    import glob

    import numpy as np

    version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return version, int(fn())
    return version, None


def environment(args) -> dict:
    import numpy as np

    version, threads_seen = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads_set": args.blas_threads,
        "blas_threads_reported": threads_seen,
        "nproc": _nproc(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


# -- set-up ------------------------------------------------------------------------


def measure_setup(args, workdir: Path, count: int) -> list[tuple[float, float]]:
    """``count`` set-up probes, each as (wall seconds, slowdown)."""
    samples = []
    for i in range(count):
        probe_dir = workdir / f"setup{i}"
        code = SETUP_PROBE.format(bench=str(BENCH_DIR), workload=args.workload, seed=args.seed,
                                  seconds=args.seconds, workdir=str(probe_dir))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr.strip()}")
        wall, slow = done.stdout.split()
        samples.append((float(wall), float(slow)))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def _source_dir() -> Path:
    src = Path("src").resolve()
    if not (src / "groupavg" / "__init__.py").is_file():
        raise BenchError("run from the root of a groupavg checkout (src/groupavg not found)")
    return src


def import_groupavg():
    src = _source_dir()
    sys.path.insert(0, str(src))
    import groupavg.cli

    if Path(groupavg.cli.__file__).resolve().parent.parent != src:
        raise BenchError(f"imported groupavg from {groupavg.cli.__file__}, not from {src}")
    return groupavg.cli


# -- the closed loop ---------------------------------------------------------------


def run_jobs(cli, jobs, workdir: Path, tracer=None) -> tuple[list[dict], float, float]:
    """Run every job back to back; returns records, timed wall and CPU seconds.

    Untraced, the machine's speed is sampled while the jobs run, and each
    record also holds the job's time in reference seconds (see ``speed``).
    Job times leave out the time taken by sampling.
    """
    records = []
    spans = []
    sink = io.StringIO()
    track = None if tracer else speed.SpeedTrack()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with track or nullcontext():
        for i, job in enumerate(jobs):
            argv = [*job.argv, "--out", str(workdir / "out" / f"j{i:04d}")]
            error = None
            spent0 = track.spent if track else 0.0
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    rc = tracer.call_job(i, cli.main, argv) if tracer else cli.main(argv)
                except SystemExit as exc:
                    rc, error = exc.code, f"SystemExit({exc.code})"
                except Exception as exc:  # a job that raises is a failed job, not a failed run
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            spent = (track.spent if track else 0.0) - spent0
            if rc != 0 and error is None:
                error = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
            sink.seek(0)
            sink.truncate()
            records.append({"key": job.key, "kind": job.kind, "seconds": t1 - t0 - spent,
                            "error": error})
            spans.append((t0, t1))
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    if track:
        for record, (t0, t1) in zip(records, spans):
            record["ref_seconds"] = record["seconds"] / track.slowdown(t0, t1)
    return records, wall, cpu


def check_jobs(jobs, records: list[dict], workdir: Path) -> None:
    """Fill each record's ``error`` from its answer, reference and invariants."""
    import check

    reference = json.loads((BENCH_DIR / "reference.json").read_text())["answers"]
    for i, (job, record) in enumerate(zip(jobs, records)):
        if record["error"] is not None:
            continue
        try:
            answer = check.extract(job.kind, workdir / "out" / f"j{i:04d}")
        except (OSError, KeyError, ValueError) as exc:
            record["error"] = f"unreadable artifacts: {type(exc).__name__}: {exc}"
            continue
        problems = check.invariants(job.kind, job.params, answer)
        if job.key not in reference:
            problems.append("no reference answer recorded for this job")
        else:
            problems += check.compare(reference[job.key], answer)
        if problems:
            record["error"] = "; ".join(problems)


# -- one workload ------------------------------------------------------------------


def _timings(durations: list[float], setups: list[float], correct: int) -> dict:
    tail, _ = _tail(durations)
    return {"setup_s": statistics.median(setups), "jobs_per_s": correct / sum(durations),
            "job_p50_s": statistics.median(durations), "job_tail_s": tail}


def end_to_end(records, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    """Timings in reference seconds; the same in raw wall seconds go to the notes."""
    failed = sum(r["error"] is not None for r in records)
    correct = len(records) - failed
    ref = _timings([r["ref_seconds"] for r in records], [w / s for w, s in setup_samples],
                   correct)
    raw = _timings([r["seconds"] for r in records], [w for w, _ in setup_samples], correct)
    metrics = {name: {"value": value, "unit": "1/s" if name == "jobs_per_s" else "s"}
               for name, value in ref.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    notes = {
        "fail_frac": failed / len(records),
        "tail_percentile": _tail([r["seconds"] for r in records])[1],
        "jobs_timed": len(records),
        "wall": raw,
        "median_slowdown": statistics.median(r["seconds"] / r["ref_seconds"] for r in records),
        "setup_samples": [{"wall_s": w, "slowdown": s} for w, s in setup_samples],
    }
    return metrics, notes


def per_layer(tracer, records, wall, cpu, untraced_wall) -> tuple[dict, dict]:
    values = tracer.layer_metrics()
    values["proc.cpu_s"] = cpu
    values["proc.cpu_per_wall"] = cpu / wall
    values["trace.overhead_frac"] = sum(r["seconds"] for r in records) / untraced_wall - 1.0
    values["trace.span_cost_frac"] = tracer.span_cost_frac(wall)
    sums = tracer.job_self_sums()
    gaps = [abs(sums.get(i, 0.0) - r["seconds"]) / r["seconds"] for i, r in enumerate(records)]
    units = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    unit_of = {m["name"]: m["unit"] for m in units}
    metrics = {name: {"value": values[name], "unit": unit_of[name]} for name in unit_of}
    notes = {"max_job_self_sum_gap_frac": max(gaps), "untraced_wall_s": untraced_wall,
             "traced_wall_s": wall, "breakdown": tracer.breakdown()}
    return metrics, notes


def run_workload(args) -> int:
    _source_dir()
    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Set-up probes run before and after the timed phase, so that their
        # median samples the same spell of the machine as the jobs do.
        probes_first = 0 if args.no_setup or args.trace else (SETUP_REPEATS + 1) // 2
        setup_samples = measure_setup(args, workdir, probes_first)
        t0 = time.perf_counter()
        cli = import_groupavg()
        jobs = workloads.generate(args.workload, args.seed, args.seconds, str(workdir))
        setup_samples = setup_samples or [(time.perf_counter() - t0, 1.0)]
        env = environment(args)
        env["rounds"] = workloads.rounds_for(args.workload, args.seconds)
        env["jobs"] = len(jobs)

        tracer = None
        untraced_wall = None
        if args.trace:
            untraced_wall = _untraced_wall(args, workdir)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            records, wall, cpu = run_jobs(cli, jobs, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
        if probes_first:
            setup_samples += measure_setup(args, workdir, SETUP_REPEATS - probes_first)
        check_jobs(jobs, records, workdir)
        failed = sum(r["error"] is not None for r in records)

        if args.trace:
            metrics, notes = per_layer(tracer, records, wall, cpu, untraced_wall)
            spans_path = WORK_ROOT / f"{args.workload}-s{args.seed}.spans.jsonl"
            tracer.dump(spans_path)
            notes["spans_file"] = str(spans_path)
        else:
            metrics, notes = end_to_end(records, setup_samples, peak_rss_mb)
        result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
                  "metrics": metrics}
        _report(args, env, result, notes, records, wall)
        if args.save:
            full = {"environment": env, "result": result, "notes": notes, "timed_wall_s": wall,
                    "jobs": records}
            Path(args.save).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced_wall(args, workdir: Path) -> float:
    """Summed job wall time of the same job list, untraced, in a fresh child process."""
    saved = workdir / "untraced.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--blas-threads", str(args.blas_threads), "--no-setup", "--save", str(saved)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if not saved.exists():
        raise BenchError(f"untraced reference run failed:\n{done.stderr.strip()[-2000:]}")
    return sum(job["seconds"] for job in json.loads(saved.read_text())["jobs"])


def _report(args, env, result, notes, records, wall) -> None:
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} jobs in "
          f"{env['rounds']} rounds, timed phase {wall:.3f} s, trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print("  times above are reference seconds (see benchmarks/speed.py); in wall seconds: "
              + ", ".join(f"{k} {v:.6g}" for k, v in notes["wall"].items())
              + f"; median slowdown {notes['median_slowdown']:.3f}")
        print(f"  {'fail_frac':36s} {notes['fail_frac']:.6g} 1 "
              f"({result['failed']} of {result['attempted']} jobs failed)")
        print(f"  job_tail_s is the p{notes['tail_percentile']:.1f} job time of "
              f"{notes['jobs_timed']} jobs timed ({TAIL_BEYOND} beyond it)")
    else:
        print(f"  layer self times plus cli.self_s match each job's wall time within "
              f"{100 * notes['max_job_self_sum_gap_frac']:.3f} %")
    for record in records:
        if record["error"] is not None:
            print(f"  FAILED {record['key']}: {record['error']}")


# -- every workload ----------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        if args.save:
            cmd += ["--save", str(Path(args.save) / f"{name}-trace{args.trace}.json")]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} did not produce a result")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads, at most the CPUs available (default 1)")
    parser.add_argument("--save", default=None,
                        help="write the full result (per-job times, trace breakdown) here; "
                             "a directory with --workload all")
    parser.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not 1 <= args.blas_threads <= _nproc():
            raise BenchError(f"--blas-threads {args.blas_threads} must lie in 1..{_nproc()} "
                             "(the CPUs available)")
        if "numpy" in sys.modules:
            raise BenchError("numpy was imported before the BLAS thread count was set")
        for var in BLAS_ENV:
            os.environ[var] = str(args.blas_threads)
        if args.save and args.workload == "all":
            Path(args.save).mkdir(parents=True, exist_ok=True)
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
