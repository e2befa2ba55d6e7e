"""Seeded inputs, jobs and known answers for each workload.

Each build_* function takes a ``random.Random`` seeded from the workload
seed and a function that writes one JSON input file; it returns the
batch of jobs.
All inputs are drawn from finite pools so that every job that can be
drawn has a recorded reference report digest (see record_digests.py).
Known answers come from oracle.py or from theorems the models satisfy
by construction (every capacity-monad law holds; the chain model and the
diamond are lawful biconvex structures; a cube embeds in itself).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

import oracle
from jobs import REPORT, Job

Write = Callable[[str, object], str]

# A job that should flip to passing once its defect is fixed must finish
# within this limit, in reference units (1.1 to 2.3 s on a 2-vCPU Xeon VM);
# at baseline each of them costs the full limit.
DEFECT_LIMIT = 6.0

MONAD_SEEDS = range(16)      # pool for the --seed passed to monad-laws
CONVEX_POINTS = ["a", "b", "c"]
CONVEX_K = 2


def cli(*args: str, **known) -> Job:
    return Job("cli", tuple(args) + ("--out", REPORT), **known)


def suite(name: str, *args: str, **known) -> Job:
    return Job("suite", (name,) + tuple(args) + ("--out", REPORT), **known)


def space(n: int) -> dict:
    return {"elements": ["a", "b", "c", "d"][:n]}


# ----------------------------------------------------------------- monad


# job shape -> (points, chain k, mode, samples); the seed comes from MONAD_SEEDS
MONAD_SHAPES = {
    "x2-exhaustive": (2, 2, "exhaustive", 20),
    "x3k1-random": (3, 1, "random", 100),
    "x3k2-random": (3, 2, "random", 20),
}
MONAD_BATCH = list(MONAD_SHAPES)


def monad_job(write: Write, shape: str, seed: int) -> Job:
    """Hyperspace and capacity monad laws on one space."""
    n, k, mode, samples = MONAD_SHAPES[shape]
    return cli("monad-laws", "--space", write(f"x{n}.json", space(n)), "--chain", str(k),
               "--mode", mode, "--samples", str(samples), "--seed", str(seed))


def build_monad(rng: random.Random, write: Write) -> list[Job]:
    seeds = rng.sample(MONAD_SEEDS, len(MONAD_BATCH))
    return [monad_job(write, shape, s) for shape, s in zip(MONAD_BATCH, seeds)]


def pool_monad(write: Write) -> list[Job]:
    return [monad_job(write, shape, s) for shape in MONAD_SHAPES for s in MONAD_SEEDS]


# --------------------------------------------------------------- fullmap

MODELS = {
    "chain1": lambda: oracle.chain_model_json(1),
    "chain2": lambda: oracle.chain_model_json(2),
    "diamond1": lambda: oracle.diamond_json(1),
    "diamond2": lambda: oracle.diamond_json(2),
}
CUBE_PHIS_K2 = oracle.monotone_phis(2)


def cube_name(k: int, phis: list[list[int]]) -> str:
    return f"cube{k}-" + "-".join("".join(map(str, p)) for p in phis) + ".json"


def write_cube(write: Write, k: int, phis: list[list[int]]) -> str:
    return write(cube_name(k, phis), oracle.cube_json(k, phis))


def embed_job(path: str) -> Job:
    return cli("embed-search", "--structure", path, "--max-a", "2", expect_found=True)


def fullmap_fixed_jobs(write: Write) -> list[Job]:
    paths = {name: write(f"{name}.json", make()) for name, make in MODELS.items()}
    jobs = [cli("full-xi", "--structure", paths[m]) for m in ("chain1", "chain2", "diamond1")]
    for m in MODELS:
        jobs.append(cli("biconvex-laws", "--structure", paths[m]))
        jobs.append(cli("roundtrip", "--structure", paths[m]))
    return jobs


def fullmap_defect_jobs(write: Write) -> list[Job]:
    """Jobs that fail at baseline; each should pass once its defect is fixed."""
    diamond2 = write("diamond2.json", MODELS["diamond2"]())
    ident1 = oracle.monotone_phis(1)[0]
    ident3 = [0, 1, 2, 3]
    return [
        cli("full-xi", "--structure", diamond2, limit=DEFECT_LIMIT,
            defect="preimage search runs out of budget (30-47 s per capacity)"),
        cli("full-xi", "--structure", write_cube(write, 1, [ident1, ident1]),
            limit=DEFECT_LIMIT,
            defect="cube element names like '0,0' are rejected by the witness serializer (exit 2)"),
        cli("embed-search", "--structure", write_cube(write, 3, [ident3, ident3]),
            "--max-a", "2", expect_found=True, limit=DEFECT_LIMIT,
            defect="brute force over 4^16 coordinate maps never finishes"),
    ]


def build_fullmap(rng: random.Random, write: Write) -> list[Job]:
    jobs = fullmap_fixed_jobs(write)
    a, b = rng.choice([(p, q) for p in CUBE_PHIS_K2 for q in CUBE_PHIS_K2])
    jobs.append(embed_job(write_cube(write, 2, [a, b])))
    return jobs + fullmap_defect_jobs(write)


def pool_fullmap(write: Write) -> list[Job]:
    jobs = fullmap_fixed_jobs(write)
    for a in CUBE_PHIS_K2:
        for b in CUBE_PHIS_K2:
            jobs.append(embed_job(write_cube(write, 2, [a, b])))
    return jobs


# ---------------------------------------------------------------- convex


def convex_tables() -> list[oracle.ConvexTable]:
    return oracle.lawful_tables(len(CONVEX_POINTS), CONVEX_K)


def corruption(tables, i: int, cell: int, alt: int) -> tuple[oracle.ConvexTable, str]:
    """Table i with one interior cell moved to another point; its known verdict."""
    t = tables[i]
    where = oracle.free_cells(t.n, t.k)[cell]
    others = [z for z in range(t.n) if z != t.get(*where)]
    bad = t.replaced(where, others[alt])
    return bad, "pass" if oracle.is_lawful(bad) else "fail"


def convex_lawful_jobs(write: Write, tables, i: int) -> list[Job]:
    path = write(f"cvx{i:02d}.json", tables[i].to_json(CONVEX_POINTS))
    return [cli("algebra-laws", "--structure", path), cli("roundtrip", "--structure", path)]


def convex_corrupt_job(write: Write, tables, i: int, cell: int, alt: int) -> Job:
    bad, verdict = corruption(tables, i, cell, alt)
    path = write(f"cvx{i:02d}-c{cell}-v{alt}.json", bad.to_json(CONVEX_POINTS))
    return cli("algebra-laws", "--structure", path, expect_verdict=verdict)


def convex_fixed_jobs(write: Write) -> tuple[Job, Job]:
    x2, x4 = write("x2.json", space(2)), write("x4.json", space(4))
    # on 3 points the suite alone takes 30 s, too long to repeat within a run;
    # the 3-point tables are covered by the sampled CLI jobs
    return (
        suite("convex_roundtrip_suite", "--space", x2, "--chain", str(CONVEX_K)),
        cli("enumerate", "--space", x4, "--chain", "2"),
    )


def build_convex(rng: random.Random, write: Write) -> list[Job]:
    roundtrip_suite, enumerate_x4 = convex_fixed_jobs(write)
    tables = convex_tables()
    picks = rng.sample(range(len(tables)), 6)
    n_cells = len(oracle.free_cells(len(CONVEX_POINTS), CONVEX_K))
    jobs = [roundtrip_suite]
    for i in picks[:3]:
        jobs += convex_lawful_jobs(write, tables, i)
    for i in picks[3:]:
        jobs.append(convex_corrupt_job(write, tables, i, rng.randrange(n_cells), rng.randrange(2)))
    return jobs + [enumerate_x4]


def pool_convex(write: Write) -> list[Job]:
    jobs = list(convex_fixed_jobs(write))
    tables = convex_tables()
    n_cells = len(oracle.free_cells(len(CONVEX_POINTS), CONVEX_K))
    for i in range(len(tables)):
        jobs += convex_lawful_jobs(write, tables, i)
        for cell in range(n_cells):
            for alt in range(2):
                jobs.append(convex_corrupt_job(write, tables, i, cell, alt))
    return jobs


WORKLOADS = {
    "monad": (build_monad, pool_monad),
    "fullmap": (build_fullmap, pool_fullmap),
    "convex": (build_convex, pool_convex),
}


def writer(inputs: Path) -> Write:
    """Write JSON inputs under ``inputs``; returns the path jobs pass to capalg."""
    inputs.mkdir(parents=True, exist_ok=True)

    def write(name: str, obj) -> str:
        (inputs / name).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                                   encoding="utf-8")
        return f"{inputs.name}/{name}"
    return write
