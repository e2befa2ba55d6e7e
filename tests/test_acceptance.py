"""Acceptance gate: nine desk-scale criteria, one printed verdict each.

Every test drives the shared law suites, enforces the advertised runtime
budget, and prints ``acceptance N: PASS/FAIL`` through pytest's capture so
the verdict lines show on every run.  Counting facts are confirmed by an
independent brute-force oracle inside this module before they are asserted.
"""

import itertools
import time

import pytest

from capalg.biconvex import chain_model, is_biaffine
from capalg.chain import make_chain
from capalg.spaces import FiniteSpace, PointMap
from capalg import suites

K1 = make_chain(1)
K2 = make_chain(2)
X1, X2, X3 = suites.desk_spaces(3)

# convex-structure counts per (carrier size, resolution), frozen from the
# brute-force table sweep in test_convexity.py
STRUCTURE_COUNTS = {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 4, (3, 1): 9, (3, 2): 36}


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # lets _verdict print through pytest's capture so every run shows the
    # one-line outcome per criterion
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num}: {'PASS' if ok else 'FAIL'}  {title}  [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _failures(*reports) -> str:
    out = []
    for rep in reports:
        out.extend(f"{rep.name}:{f.law}:{f.witness}" for f in rep.findings[:3])
    return "; ".join(out) if out else "ok"


def capacity_count_oracle(space, chain) -> int:
    """Independent count of monotone normalized subset assignments."""
    subsets = list(space.subsets())
    hits = 0
    for values in itertools.product(chain.levels, repeat=len(subsets)):
        table = dict(zip(subsets, values))
        if table[space.universe] != chain.one:
            continue
        if all(
            table[s] <= table[t] for s in subsets for t in subsets if s <= t
        ):
            hits += 1
    return hits


def test_criterion_1_chain_semiring():
    rep, dt = _timed(suites.chain_suite)
    ok = rep.passed and rep.counts["chains"] == 4 and dt < 1.0
    _verdict(
        1,
        "chain semiring laws, exhaustive k<=4",
        ok,
        f"{rep.cases} cases, {dt:.2f}s; {_failures(rep)}",
    )


def test_criterion_2_hyperspace_monad():
    t0 = time.perf_counter()
    exh = suites.g_monad_suite(X2, mode="exhaustive", samples=1000, seed=0)
    rnd = suites.g_monad_suite(X3, mode="random", samples=1000, seed=7)
    dt = time.perf_counter() - t0
    ok = (
        exh.passed
        and rnd.passed
        and exh.counts["hyperspaces"] == 4
        and rnd.cases >= 1000
        and dt < 30.0
    )
    _verdict(
        2,
        "hyperspace monad laws, exhaustive 2 points + random 3 points",
        ok,
        f"{exh.cases}+{rnd.cases} cases, {dt:.2f}s; {_failures(exh, rnd)}",
    )


def test_criterion_3_capacity_monad():
    t0 = time.perf_counter()
    # confirm the enumeration against the independent oracle before
    # asserting the hard-coded totals
    oracle2 = capacity_count_oracle(X2, K2)
    oracle3 = capacity_count_oracle(X3, K2)
    small = suites.capacity_monad_suite(X2, K2, samples=500, seed=0)
    large = suites.capacity_monad_suite(X3, K2, samples=500, seed=1)
    dt = time.perf_counter() - t0
    ok = (
        oracle2 == 9
        and oracle3 == 129
        and small.counts["capacities"] == oracle2
        and large.counts["capacities"] == oracle3
        and small.counts["unit-law-cases"] == 2 * oracle2
        and large.counts["unit-law-cases"] == 2 * oracle3
        and small.counts["associativity-trials"] >= 500
        and large.counts["associativity-trials"] >= 500
        and small.passed
        and large.passed
        and dt < 120.0
    )
    _verdict(
        3,
        "capacity monad unit laws exhaustive (9 and 129), associativity sampled",
        ok,
        f"oracle counts {oracle2}/{oracle3}, {small.cases}+{large.cases} cases, "
        f"{dt:.2f}s; {_failures(small, large)}",
    )


def test_criterion_4_convex_roundtrips():
    reports = []
    for chain in (K1, K2):
        for space in (X1, X2, X3):
            rep = suites.convex_roundtrip_suite(space, chain)
            assert rep.counts["structures"] == STRUCTURE_COUNTS[(len(space), chain.k)]
            reports.append(rep)
    ok = all(r.passed for r in reports)
    cases = sum(r.cases for r in reports)
    _verdict(
        4,
        "structure-map/table round trips + base-point independence",
        ok,
        f"{cases} cases over {len(reports)} sweeps; {_failures(*reports)}",
    )


def test_criterion_5_morphism_equivalence():
    reports = [suites.morphism_suite(K2, max_size=3)]
    ok = all(r.passed for r in reports)
    maps = sum(
        r.counts.get("union-algebra-maps", 0) + r.counts.get("full-algebra-maps", 0)
        for r in reports
    )
    # the clamp witness, checked directly as well as inside the suite
    b = chain_model(K2)
    half = K2.levels[1]
    clamp = PointMap(
        b.carrier,
        b.carrier,
        {str(l.value): str(max(l, half).value) for l in K2.levels},
    )
    witness = (
        is_biaffine(clamp, b, b)
        and clamp(b.smeet[(K2.zero, b.top)]) != b.smeet[(K2.zero, clamp(b.top))]
    )
    ok = ok and maps > 0 and witness
    _verdict(
        5,
        "affine/biaffine maps coincide with algebra morphisms",
        ok,
        f"{maps} maps checked, clamp witness={witness}; {_failures(*reports)}",
    )


def test_criterion_6_quotient_semimodule():
    rep1 = suites.quotient_suite(K1)
    rep2 = suites.quotient_suite(K2)
    ok = (
        rep1.passed
        and rep2.passed
        and rep1.counts["quotients"] == 1 + 2 + 9
        and rep2.counts["quotients"] == 1 + 4 + 36
    )
    _verdict(
        6,
        "quotient semimodules: axioms, injectivity, translation law",
        ok,
        f"{rep1.counts['quotients']}+{rep2.counts['quotients']} quotients; "
        f"{_failures(rep1, rep2)}",
    )


def test_criterion_7_full_structure_maps():
    t0 = time.perf_counter()
    reports = [
        suites.full_map_suite(space, K2, samples=150, seed=3)
        for space in (X1, X2, X3)
    ]
    dt = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and dt < 600.0
    # the independence sweep must actually fire on the larger carriers
    ok = ok and all(
        r.counts.get("multiple-union-preimages", 0) > 0 for r in reports[1:]
    )
    cases = sum(r.cases for r in reports)
    _verdict(
        7,
        "full structure maps: round trips, dual forms, factorizations, preimages",
        ok,
        f"{cases} cases, {dt:.2f}s; {_failures(*reports)}",
    )


def test_criterion_8_weighted_meet_crosscheck():
    rep1 = suites.sugeno_suite(K1)
    rep2 = suites.sugeno_suite(K2)
    recorded = all(
        r.counts["comparisons"] > 0 and any("join-of-weighted-meets" in n for n in r.notes)
        for r in (rep1, rep2)
    )
    _verdict(
        8,
        "join-of-weighted-meets comparison recorded (either outcome accepted)",
        recorded,
        f"{rep1.counts['comparisons']}+{rep2.counts['comparisons']} comparisons; "
        + " | ".join(rep1.notes + rep2.notes),
    )


def test_criterion_9_coordinate_embeddings():
    rep, dt = _timed(suites.embedding_suite, K2)
    ok = (
        rep.passed
        and rep.counts["cube-instances"] > 0
        and "diamond-found" in rep.counts
        and any("diamond" in n for n in rep.notes)
        and dt < 60.0
    )
    _verdict(
        9,
        "coordinate embedding certificates: chain model, cubes, diamond",
        ok,
        f"{rep.cases} certificates, {dt:.2f}s; " + " | ".join(rep.notes),
    )
