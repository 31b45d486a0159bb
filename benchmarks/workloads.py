"""Job streams for the benchmark's workloads.

Each workload is a closed-loop stream of ``groupavg`` CLI jobs built from
a fixed *round*: a multiset of job kinds whose parameters the workload
seed picks from finite pools.  Every seed therefore gives the same mix and
nearly the same cost, while different seeds name different groups, search
seeds and inputs.  The pools are finite so that ``reference.json`` can
hold the answer of every job any seed can produce (see ``catalogue``).

A run executes ``rounds_for(workload, seconds)`` rounds.  The count
depends only on ``--seconds``, so two commits measured with the same
arguments run exactly the same jobs.

This module uses only the standard library: the benchmark imports it
before numpy, and set-up time covers job generation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep-signflip", "certify-projector", "certify-fourier", "experiments")

# Nominal seconds per round on the 2-core machine that defined the
# benchmark; fixes how many rounds a given --seconds runs.
ROUND_SECONDS = {
    "sweep-signflip": 21.0,
    "certify-projector": 3.2,
    "certify-fourier": 4.4,
    "experiments": 3.3,
}


@dataclass
class Job:
    """One CLI invocation: ``groupavg <argv> --out <dir>``.

    ``key`` names the job independently of file paths and is the index
    into the reference answers; ``params`` carries what the invariant
    checks need; ``inputs`` maps file paths named in ``argv`` to contents.
    """

    key: str
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _spread(pool: list, count: int, rng: random.Random) -> list:
    """``count`` evenly spaced picks from ``pool`` with a random offset.

    Keeps the cost of a run nearly independent of the seed when the pool
    is ordered by size; wraps around when ``count`` exceeds the pool.
    """
    step = len(pool) / count
    offset = rng.random() * step
    return [pool[int(offset + i * step) % len(pool)] for i in range(count)]


# -- job constructors (one per job kind) ----------------------------------------


def separation_job(d: int, seed: int) -> Job:
    return Job(
        key=f"separation|signflip:{d}|seed={seed}",
        kind="separation",
        argv=["separation", "--family", "signflip", "--range", f"{d}:{d}", "--eps", "0.5",
              "--seed", str(seed)],
        params={"d": d},
    )


def nongenerating_support(d: int, variant: int) -> list[str]:
    """Bit-string labels that all fix one coordinate, so they cannot generate."""
    rng = random.Random(f"lowerbound-{d}-{variant}")
    fixed = rng.randrange(d)
    labels = [format(x, f"0{d}b") for x in range(1, 1 << d)]
    candidates = [lab for lab in labels if lab[fixed] == "0"]
    size = rng.randint(1, min(d - 1, len(candidates)))
    return sorted(rng.sample(candidates, size))


def lowerbound_job(d: int, variant: int) -> Job:
    support = ",".join(nongenerating_support(d, variant))
    return Job(
        key=f"lowerbound|signflip:{d}|support={support}",
        kind="lowerbound",
        argv=["lowerbound", "--d", str(d), "--support", support],
        params={"d": d},
    )


def _scheme_file(spec: str, order: int) -> str:
    """A dyadic-weight scheme on four elements, serialized as the CLI reads it."""
    rng = random.Random(f"scheme-{spec}")
    support = sorted(rng.sample(range(order), 4))
    weights = [0.5, 0.25, 0.125, 0.125]
    family = spec.split(":", 1)[0].replace("signflip", "sign_flip")
    payload = {
        "group": {"spec": spec, "family": family, "order": order},
        "support": support,
        "weights": weights,
        "size": 4,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def certify_rep_job(spec: str, order: int, rep: str, variant: int, workdir: str) -> Job:
    """Projector-path certificate; variant 0 draws a random scheme, 1 reads a file."""
    argv = ["certify", "--group", spec, "--rep", rep, "--path", "projector"]
    inputs = {}
    if variant == 0:
        argv += ["--scheme", "random:8", "--seed", "7"]
    else:
        path = f"{workdir}/in/scheme-{spec.replace(':', '')}.json"
        inputs[path] = _scheme_file(spec, order)
        argv += ["--scheme", f"file:{path}"]
    return Job(
        key=f"certify|{spec}|rep={rep}|variant={variant}",
        kind="certify",
        argv=argv,
        inputs=inputs,
    )


def sample_job(n: int) -> Job:
    return Job(
        key=f"sample|cyclic:{n}",
        kind="sample",
        argv=["sample", "--group", f"cyclic:{n}", "--eps", "0.5", "--delta", "0.1",
              "--seed", str(n)],
    )


def kbound_job(spec: str, rep: str) -> Job:
    return Job(key=f"kbound|{spec}|rep={rep}", kind="kbound",
               argv=["kbound", "--group", spec, "--rep", rep])


def irreps_job(spec: str) -> Job:
    return Job(key=f"irreps|{spec}", kind="irreps", argv=["irreps", "--group", spec])


def certify_fourier_job(spec: str, seed: int) -> Job:
    return Job(
        key=f"certify|{spec}|fourier|seed={seed}",
        kind="certify",
        argv=["certify", "--group", spec, "--path", "fourier", "--scheme", "random:12",
              "--seed", str(seed)],
    )


def minimize_fourier_job(spec: str, seed: int) -> Job:
    return Job(
        key=f"minimize|{spec}|fourier|seed={seed}",
        kind="minimize",
        argv=["minimize", "--group", spec, "--path", "fourier", "--eps", "0.5",
              "--seed", str(seed)],
        params={"eps_target": 0.5},
    )


MLP_ARGS = ["--dim", "12", "--train", "2000", "--test", "500", "--epochs", "20",
            "--subset-exponents", "0,2,4,6,8", "--curve-exponent", "3", "--epoch-eval", "250"]


def mlp_job(seed: int) -> Job:
    return Job(key=f"mlp|seed={seed}", kind="mlp", argv=["mlp", *MLP_ARGS, "--seed", str(seed)])


def regress_job(d: int, eps: str, seed: int) -> Job:
    return Job(
        key=f"regress|signflip:{d}|eps={eps}|seed={seed}",
        kind="regress",
        argv=["regress", "--group", f"signflip:{d}", "--eps", eps, "--n", "400",
              "--trials", "2000", "--seed", str(seed)],
    )


def figure1_job(grid: int, seed: int) -> Job:
    return Job(
        key=f"figure1|grid={grid}|seed={seed}",
        kind="figure1",
        argv=["figure1", "--n", "100", "--grid", str(grid), "--seed", str(seed)],
    )


# -- pools ------------------------------------------------------------------------

SWEEP_DIMS = range(2, 9)
# One search seed for every separation job.  The seed moves the cost of a
# separation job by up to 25 %, and with one such job per d in a run, the
# median job, often the d = 3 separation, would move with it; the workload
# seed varies the lower-bound supports and the job order instead.
SEPARATION_SEED = 0
LOWERBOUND_VARIANTS = range(8)
# lowerbound jobs per round for each d.  The same count for every d, as in the
# acceptance test of the sign-flip lower bound (50 supports for each d in 2..8),
# so most of the time goes to rebuilding the d = 7 and d = 8 irrep tables.
LOWERBOUND_PER_D = 4

CYCLIC_STRATA = [range(32, 56), range(56, 80), range(80, 104), range(104, 129)]
DIHEDRAL_STRATA = [range(8, 22), range(22, 36), range(36, 49)]
SIGN_DIMS = list(range(6, 11))
PERM_DIMS = [4, 5]
SAMPLE_ORDERS = list(range(8, 32))
# (pool, jobs per round).  With the samples, these cheap jobs are more than half
# of each round, so the median job time falls inside them.
KBOUND_POOLS = [
    ([("symmetric:4", "permutation"), ("symmetric:5", "permutation")], 1),
    ([(f"dihedral:{n}", "regular") for n in range(3, 8)], 3),
    ([(f"signflip:{d}", "sign") for d in range(2, 6)], 3),
]
SAMPLES_PER_ROUND = 7

# narrow bands across dihedral:10..60 keep the tail job time independent of the seed
FOURIER_DIHEDRAL_STRATA = [range(10, 15), range(33, 38), range(56, 61)]
FOURIER_FIXED = ["symmetric:4", "symmetric:5", "product(cyclic:2,symmetric:4)"]
FOURIER_C3_DIHEDRAL = range(3, 13)
FOURIER_SEEDS = range(2)

# Three mlp jobs per round put the tail job time (10 jobs beyond it) inside the
# mlp jobs; each regress case twice puts the median inside the regress jobs.
MLP_SEEDS = list(range(18))
MLP_PER_ROUND = 3
REGRESS_CASES = [(2, "0"), (2, "0.05"), (3, "0"), (3, "0.05")]
REGRESS_PER_CASE = 2
REGRESS_SEEDS = range(4)
FIGURE1_GRIDS = [[100, 125], [150, 175, 200]]
FIGURE1_SEEDS = range(2)


# -- generators -------------------------------------------------------------------


def _sweep(rng: random.Random, rounds: int, workdir: str) -> list[Job]:
    jobs = []
    for _ in range(rounds):
        block = [separation_job(d, SEPARATION_SEED) for d in SWEEP_DIMS]
        block += [lowerbound_job(d, rng.choice(LOWERBOUND_VARIANTS))
                  for d in SWEEP_DIMS for _ in range(LOWERBOUND_PER_D)]
        rng.shuffle(block)
        jobs += block
    return jobs


def _projector(rng: random.Random, rounds: int, workdir: str) -> list[Job]:
    cyclic = [_spread(list(s), rounds, rng) for s in CYCLIC_STRATA]
    dihedral = [_spread(list(s), rounds, rng) for s in DIHEDRAL_STRATA]
    sign = _spread(SIGN_DIMS, 3 * rounds, rng)
    samples = _spread(SAMPLE_ORDERS, SAMPLES_PER_ROUND * rounds, rng)
    kbounds = [(_spread(pool, per * rounds, rng), per) for pool, per in KBOUND_POOLS]
    jobs = []
    for r in range(rounds):
        block = []
        for picks in cyclic:
            n = picks[r]
            block.append(certify_rep_job(f"cyclic:{n}", n, "regular", rng.randrange(2), workdir))
        for picks in dihedral:
            n = picks[r]
            block.append(
                certify_rep_job(f"dihedral:{n}", 2 * n, "regular", rng.randrange(2), workdir)
            )
        for d in sign[3 * r : 3 * r + 3]:
            block.append(
                certify_rep_job(f"signflip:{d}", 1 << d, "sign", rng.randrange(2), workdir)
            )
        for d in PERM_DIMS:
            block.append(certify_rep_job(f"symmetric:{d}", math.factorial(d), "permutation",
                                         rng.randrange(2), workdir))
        per = SAMPLES_PER_ROUND
        block += [sample_job(n) for n in samples[per * r : per * (r + 1)]]
        for picks, per in kbounds:
            block += [kbound_job(*t) for t in picks[per * r : per * (r + 1)]]
        rng.shuffle(block)
        jobs += block
    return jobs


def _fourier(rng: random.Random, rounds: int, workdir: str) -> list[Job]:
    dihedral = [_spread(list(s), rounds, rng) for s in FOURIER_DIHEDRAL_STRATA]
    c3 = _spread(list(FOURIER_C3_DIHEDRAL), rounds, rng)
    jobs = []
    for r in range(rounds):
        specs = [f"dihedral:{picks[r]}" for picks in dihedral] + FOURIER_FIXED
        specs.append(f"product(cyclic:3,dihedral:{c3[r]})")
        block = []
        for spec in specs:
            block += [
                irreps_job(spec),
                certify_fourier_job(spec, rng.choice(FOURIER_SEEDS)),
                minimize_fourier_job(spec, rng.choice(FOURIER_SEEDS)),
            ]
        rng.shuffle(block)
        jobs += block
    return jobs


def _experiments(rng: random.Random, rounds: int, workdir: str) -> list[Job]:
    mlp_seeds = _spread(MLP_SEEDS, MLP_PER_ROUND * rounds, rng)
    grids = [_spread(pool, rounds, rng) for pool in FIGURE1_GRIDS]
    jobs = []
    for r in range(rounds):
        block = [mlp_job(s) for s in mlp_seeds[MLP_PER_ROUND * r : MLP_PER_ROUND * (r + 1)]]
        block += [regress_job(d, eps, rng.choice(REGRESS_SEEDS))
                  for d, eps in REGRESS_CASES for _ in range(REGRESS_PER_CASE)]
        block += [figure1_job(picks[r], rng.choice(FIGURE1_SEEDS)) for picks in grids]
        rng.shuffle(block)
        jobs += block
    return jobs


_GENERATORS = {
    "sweep-signflip": _sweep,
    "certify-projector": _projector,
    "certify-fourier": _fourier,
    "experiments": _experiments,
}


def write_inputs(jobs: list[Job]) -> None:
    for job in jobs:
        for path, text in job.inputs.items():
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)


def generate(workload: str, seed: int, seconds: float, workdir: str) -> list[Job]:
    """The job list of one run; writes the jobs' input files under ``workdir``."""
    rng = random.Random(f"{workload}-{seed}")
    jobs = _GENERATORS[workload](rng, rounds_for(workload, seconds), workdir)
    write_inputs(jobs)
    return jobs


def catalogue(workload: str, workdir: str) -> list[Job]:
    """Every job the generator of ``workload`` can emit, for any seed."""
    if workload == "sweep-signflip":
        return [separation_job(d, SEPARATION_SEED) for d in SWEEP_DIMS] + [
            lowerbound_job(d, v) for d in SWEEP_DIMS for v in LOWERBOUND_VARIANTS
        ]
    if workload == "certify-projector":
        targets = [(f"cyclic:{n}", n, "regular") for s in CYCLIC_STRATA for n in s]
        targets += [(f"dihedral:{n}", 2 * n, "regular") for s in DIHEDRAL_STRATA for n in s]
        targets += [(f"signflip:{d}", 1 << d, "sign") for d in SIGN_DIMS]
        targets += [(f"symmetric:{d}", math.factorial(d), "permutation") for d in PERM_DIMS]
        jobs = [certify_rep_job(*t, v, workdir) for t in targets for v in range(2)]
        jobs += [sample_job(n) for n in SAMPLE_ORDERS]
        return jobs + [kbound_job(*t) for pool, _ in KBOUND_POOLS for t in pool]
    if workload == "certify-fourier":
        specs = [f"dihedral:{n}" for s in FOURIER_DIHEDRAL_STRATA for n in s] + FOURIER_FIXED
        specs += [f"product(cyclic:3,dihedral:{n})" for n in FOURIER_C3_DIHEDRAL]
        jobs = []
        for spec in specs:
            jobs.append(irreps_job(spec))
            jobs += [certify_fourier_job(spec, s) for s in FOURIER_SEEDS]
            jobs += [minimize_fourier_job(spec, s) for s in FOURIER_SEEDS]
        return jobs
    if workload == "experiments":
        jobs = [mlp_job(s) for s in MLP_SEEDS]
        jobs += [regress_job(d, e, s) for d, e in REGRESS_CASES for s in REGRESS_SEEDS]
        return jobs + [figure1_job(g, s) for pool in FIGURE1_GRIDS for g in pool
                       for s in FIGURE1_SEEDS]
    raise KeyError(workload)
