"""The benchmark's job catalogue, and a manifest of what its jobs print and write.

``catalogue_jobs`` reads every job a workload of ``benchmarks/workloads.py``
can emit and writes the jobs' input files.  ``manifest`` runs jobs
in-process, in the source tree this file sits in, and records per job key
its exit code, the sha256 of its stdout and the sha256 of every artifact;
a ``*_meta.json`` is hashed without its ``out`` entry.  Job paths are
relative to the work directory, so two trees' manifests compare as they
are::

    python tests/catalogue.py OUT.json [workload ...]   # all four by default
    cmp parent.json change.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PATH = ROOT / "benchmarks" / "workloads.py"
WORKLOADS = ("sweep-signflip", "certify-projector", "certify-fourier", "experiments")


def catalogue_jobs(workload: str, workdir: str) -> list:
    """The jobs of ``workload``'s catalogue, read from the benchmark's job
    lists as they are, with their input files written under ``workdir``."""
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve their module
    try:
        spec.loader.exec_module(workloads)
        jobs = workloads.catalogue(workload, workdir)
        workloads.write_inputs(jobs)
        return jobs
    finally:
        del sys.modules[spec.name]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_hash(path: Path) -> str:
    if not path.name.endswith("_meta.json"):
        return _sha256(path.read_bytes())
    meta = json.loads(path.read_text())
    del meta["config"]["out"]  # the output directory, which differs per job
    return _sha256(json.dumps(meta, sort_keys=True).encode())


def manifest(workloads, workdir: str) -> dict:
    """Per job key of ``workloads``' catalogues, run from ``workdir``: its
    exit code, the sha256 of its stdout and of each artifact by name."""
    import groupavg.cli  # here, once main() has put this tree's src/ first on the path

    here, out = os.getcwd(), Path("out")
    os.chdir(workdir)
    try:
        result = {}
        for workload in workloads:
            for job in catalogue_jobs(workload, "."):
                if job.key in result:  # a catalogue lists some jobs twice, with one argv
                    continue
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = groupavg.cli.main([*job.argv, "--out", str(out)])
                artifacts = sorted(out.rglob("*")) if out.exists() else []
                result[job.key] = {
                    "exit": code,
                    "stdout": _sha256(stdout.getvalue().encode()),
                    "artifacts": {str(p.relative_to(out)): _artifact_hash(p)
                                  for p in artifacts if p.is_file()},
                }
                shutil.rmtree(out, ignore_errors=True)
        return result
    finally:
        os.chdir(here)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # this tree's groupavg
    with tempfile.TemporaryDirectory() as workdir:
        jobs = manifest(argv[1:] or WORKLOADS, workdir)
    Path(argv[0]).write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    print(f"{len(jobs)} jobs -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
