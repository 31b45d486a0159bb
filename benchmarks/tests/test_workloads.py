"""The job generator is deterministic, seed-sensitive and fully referenced."""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

import workloads

# Later performance claims must also hold on this seed; do not tune on it.
HELD_OUT_SEED = 7919
REFERENCE = Path(workloads.__file__).with_name("reference.json")


def _snapshot(workload: str, seed: int, workdir: Path):
    jobs = workloads.generate(workload, seed, 20, str(workdir))
    files = {p.relative_to(workdir).as_posix(): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return [job.argv for job in jobs], files, jobs


def _mix(jobs) -> Counter:
    """Job kinds and group families, with every number blanked out."""
    return Counter(re.sub(r"[\d,]+", "#", job.key) for job in jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_inputs(workload, tmp_path):
    argv1, files1, _ = _snapshot(workload, 3, tmp_path / "w")
    for path in (tmp_path / "w").rglob("*"):
        if path.is_file():
            path.unlink()
    argv2, files2, _ = _snapshot(workload, 3, tmp_path / "w")
    assert argv1 == argv2
    assert files1 == files2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_gives_other_jobs_with_the_same_mix(workload, tmp_path):
    _, _, jobs = _snapshot(workload, 3, tmp_path / "a")
    _, _, held_out = _snapshot(workload, HELD_OUT_SEED, tmp_path / "b")
    assert [j.key for j in jobs] != [j.key for j in held_out]
    assert _mix(jobs) == _mix(held_out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_job_has_a_reference_answer(workload, tmp_path):
    answers = json.loads(REFERENCE.read_text())["answers"]
    catalogue = {job.key for job in workloads.catalogue(workload, str(tmp_path))}
    assert catalogue <= set(answers)
    for seed in (0, 1, 2, HELD_OUT_SEED):
        for seconds in (1, 20, 60):
            jobs = workloads.generate(workload, seed, seconds, str(tmp_path))
            assert {job.key for job in jobs} <= catalogue


def test_lowerbound_supports_do_not_generate():
    for d in workloads.SWEEP_DIMS:
        for variant in workloads.LOWERBOUND_VARIANTS:
            support = workloads.nongenerating_support(d, variant)
            assert any(all(label[i] == "0" for label in support) for i in range(d))
