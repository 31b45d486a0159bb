#!/usr/bin/env python3
"""Record the reference answer of every job the workloads can generate.

Run from the root of a groupavg checkout, at the commit whose answers
later commits must reproduce:

    python3 benchmarks/record_reference.py                 # every workload
    python3 benchmarks/record_reference.py experiments     # one, merged in

Each job of ``workloads.catalogue`` runs once through ``groupavg.cli.main``
with one BLAS thread; its answer must satisfy the invariants of
``check.invariants``.  Answers are merged into ``benchmarks/reference.json``,
which keeps only jobs that some workload can still generate.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"


def main(names: list[str]) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = ["src", str(BENCH_DIR)]
    import check
    import groupavg.cli
    import workloads

    names = names or list(workloads.WORKLOADS)
    workdir = Path(".bench_work") / f"reference-p{os.getpid()}"
    answers = {}
    try:
        for name in names:
            jobs = {job.key: job for job in workloads.catalogue(name, str(workdir))}
            workloads.write_inputs(list(jobs.values()))
            for i, job in enumerate(jobs.values()):
                out = workdir / "out" / f"j{i:04d}"
                with redirect_stdout(io.StringIO()):
                    rc = groupavg.cli.main([*job.argv, "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"{job.key}: exit code {rc}")
                answer = check.extract(job.kind, out)
                problems = check.invariants(job.kind, job.params, answer)
                if problems:
                    raise SystemExit(f"{job.key}: {'; '.join(problems)}")
                answers[job.key] = answer
            print(f"{name}: {len(jobs)} jobs recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stored = json.loads(REFERENCE.read_text())["answers"] if REFERENCE.exists() else {}
    stored.update(answers)
    known = {job.key for name in workloads.WORKLOADS for job in workloads.catalogue(name, "")}
    stored = {key: answer for key, answer in stored.items() if key in known}
    REFERENCE.write_text(json.dumps({"answers": stored}, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
