"""Reusable law-check suites shared by the command line driver and the tests.

Each suite sweeps one family of properties at desk scale and returns a
SuiteReport: deterministic case counts, findings with witnesses, and
free-form notes.  Reports serialize to plain JSON values with no timing
data, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .biconvex import (
    BiconvexStructure,
    CapacityStructureMap,
    TripleStructure,
    _mixture_step,
    biconvex_from_triple,
    chain_model,
    check_biconvex,
    check_triple,
    cube_structure,
    diamond_structure,
    embedding_search,
    enumerate_biconvex_structures,
    enumerate_lawful_triples,
    intersection_over_union_preimages,
    is_biaffine,
    quadruple_from_algebra,
    structure_map_full_dual,
    structure_map_necessity,
    structure_map_possibility,
    sugeno_form,
    triple_from_biconvex,
    union_over_intersection_preimages,
    weight_maps,
)
from .capacity import (
    NecessityCapacity,
    PossibilityCapacity,
    _exhaustive_densities,
    _pointwise_form,
    canonical_key,
    capacity_equal,
    classify,
    capacity_pool,
    is_algebra_morphism,
    kappa_dual,
    mult,
    pinned_table,
    pushforward,
    unit_dirac,
)
from .chain import Chain, complement, join, make_chain, meet
from .convexity import (
    ConvexStructure,
    DualConvexStructure,
    UnionStructureMap,
    check_algebra_laws,
    check_ic_axioms,
    check_semimodule_axioms,
    dual_structure_map,
    enumerate_convex_structures,
    enumerate_union_algebras,
    ic_from_structure_map,
    is_affine,
    nary_combination,
    quotient_semimodule,
    structure_map_from_ic,
)
from .errors import BudgetExceededError, LawViolationError, ValidationError
from .serial import capacity_to_json, structure_to_json
from .spaces import (
    FiniteSpace,
    InclusionHyperspace,
    PointMap,
    TableStructure,
    enumerate_hyperspaces,
    g_map,
    g_mult,
    g_unit,
    hyperspace_space,
    random_hyperspace,
)

INDEPENDENCE_SEARCH_BUDGET = 100_000
CONTINUITY_NOTE = "continuity requirements hold vacuously on finite discrete carriers"


class Finding(NamedTuple):
    law: str
    witness: str

    def to_json(self) -> dict:
        return {"law": self.law, "witness": self.witness}


class SuiteReport:
    """Outcome of one suite: counts, findings, notes; no timing."""

    __slots__ = ("name", "mode", "cases", "findings", "counts", "notes")

    def __init__(self, name: str, mode: str = "exhaustive"):
        self.name, self.mode, self.cases = name, mode, 0
        self.findings: list[Finding] = []
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.findings

    def check(self, law: str, ok: bool, witness="") -> bool:
        # witness may be a zero-argument callable so passing sweeps never
        # pay for string building
        self.cases += 1
        if not ok:
            self.findings.append(Finding(law, witness() if callable(witness) else witness))
        return ok

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "cases": self.cases,
            "passed": self.passed,
            "findings": [
                f.to_json()
                for f in sorted(self.findings, key=lambda f: (f.law, f.witness))
            ],
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "notes": list(self.notes),
        }


def desk_spaces(max_size: int = 3) -> tuple[FiniteSpace, ...]:
    """The standard small carriers: {a}, {a,b}, {a,b,c}, ..."""
    letters = "abcdefgh"
    return tuple(
        FiniteSpace(list(letters[: n + 1])) for n in range(min(max_size, 8))
    )


# cached enumerations: the acceptance suites use spaces of 1-3 points at
# k = 1 and 2
ENUMERATION_CACHE_SIZE = 6


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def convex_structures(space: FiniteSpace, chain: Chain):
    return tuple(enumerate_convex_structures(space, chain))


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def biconvex_structures(space: FiniteSpace, chain: Chain):
    return tuple(enumerate_biconvex_structures(space, chain))


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cap_witness(c) -> str:
    """The capacity's document or, when its element names cannot be joined
    into set keys, its value vector over the nonempty subsets, written as
    the ``xi_full`` keys are."""
    try:
        return _compact(capacity_to_json(c))
    except ValidationError:
        return ",".join([str(c.chain.levels[r]) for r in canonical_key(c)])


def _hs_witness(h: InclusionHyperspace) -> str:
    return ";".join(",".join(sorted(m)) for m in sorted(h.min_sets, key=h.carrier.subset_key))


def _map_witness(f: PointMap) -> str:
    return ",".join(f"{x}->{f(x)}" for x in f.source.elements)


def _structure_witness(s: TableStructure) -> str:
    return _compact(structure_to_json(s))


# ---------------------------------------------------------------- chain laws


def chain_suite() -> SuiteReport:
    """Idempotent-semiring, lattice, and complement laws for every chain to k = 4."""
    rep = SuiteReport("chain-semiring")
    ks = range(1, 5)
    for k in ks:
        ch = make_chain(k)
        lv = ch.levels
        for a in lv:
            w = f"k={k} a={a}"
            rep.check("join-zero-identity", join(a, ch.zero) == a, w)
            rep.check("meet-one-identity", meet(a, ch.one) == a, w)
            rep.check("meet-zero-annihilates", meet(a, ch.zero) == ch.zero, w)
            rep.check("join-one-absorbs", join(a, ch.one) == ch.one, w)
            rep.check("join-idempotent", join(a, a) == a, w)
            rep.check("meet-idempotent", meet(a, a) == a, w)
            rep.check("complement-involution", complement(complement(a)) == a, w)
        for a, b in itertools.product(lv, repeat=2):
            w = f"k={k} a={a} b={b}"
            rep.check("join-commutative", join(a, b) == join(b, a), w)
            rep.check("meet-commutative", meet(a, b) == meet(b, a), w)
            rep.check(
                "absorption",
                join(a, meet(a, b)) == a and meet(a, join(a, b)) == a,
                w,
            )
            rep.check(
                "de-morgan",
                complement(join(a, b)) == meet(complement(a), complement(b))
                and complement(meet(a, b)) == join(complement(a), complement(b)),
                w,
            )
            rep.check("total-order", a <= b or b <= a, w)
            rep.check(
                "complement-antitone",
                (a <= b) == (complement(b) <= complement(a)),
                w,
            )
        for a, b, c in itertools.product(lv, repeat=3):
            w = f"k={k} a={a} b={b} c={c}"
            rep.check("join-associative", join(join(a, b), c) == join(a, join(b, c)), w)
            rep.check("meet-associative", meet(meet(a, b), c) == meet(a, meet(b, c)), w)
            rep.check(
                "meet-distributes-over-join",
                meet(a, join(b, c)) == join(meet(a, b), meet(a, c)),
                w,
            )
            rep.check(
                "join-distributes-over-meet",
                join(a, meet(b, c)) == meet(join(a, b), join(a, c)),
                w,
            )
    rep.counts["chains"] = len(ks)
    return rep


# ---------------------------------------------------------------- monad laws


class _Monad:
    """One monad's operations over a base space for the law checks that the
    hyperspace and capacity suites share; ``pool`` names every element over
    the base space, and its kind's ``key`` keys them all.  Each suite builds
    its record inside the call, so the operations are the module's bindings
    at call time: ``unit`` ((carrier, point) -> unit over the carrier),
    ``fmap`` ((PointMap, element) -> image element), ``mult`` ((outer, pool
    or mapping) -> flattened element), ``equal``, ``draw`` ((carrier, rng) ->
    seeded element over the carrier) and ``show`` (element -> text)."""

    def __init__(self, space, pool, *, unit, fmap, mult, equal, draw, show):
        self.space, self.pool, self.names, self.key = space, pool, pool.names, pool.kind.key
        self.unit, self.fmap, self.mult, self.equal = unit, fmap, mult, equal
        self.draw, self.show = draw, show
        self.name_of = {pool.key(n): n for n in self.names.elements}
        eta = {x: self.name_of[self.key(self.unit(space, x))] for x in self.space.elements}
        self.eta_hat = PointMap(self.space, self.names, eta)
        self._lifted: dict[tuple, PointMap] = {}

    def lifted(self, f: PointMap) -> PointMap:
        """The functor's image of an endomap, as a map of pool names."""
        image = tuple(f(x) for x in self.space.elements)
        if image not in self._lifted:
            table = {n: self.name_of[self.key(self.fmap(f, c))] for n, c in self.pool.members.items()}
            self._lifted[image] = PointMap(self.names, self.names, table)
        return self._lifted[image]


def _unit_laws(mon: _Monad, rep: SuiteReport, units, pool_cases) -> None:
    """Unit naturality on each (endomap, point) case, then both unit laws
    on each (pool name, element) case."""
    for f, x in units:
        ok = mon.equal(mon.fmap(f, mon.unit(mon.space, x)), mon.unit(mon.space, f(x)))
        rep.check("unit-naturality", ok, lambda f=f, x=x: f"x={x} f={_map_witness(f)}")
    for n, c in pool_cases:
        w = lambda c=c: mon.show(c)
        rep.check("unit-law-outer", mon.equal(mon.mult(mon.unit(mon.names, n), mon.pool), c), w)
        rep.check("unit-law-inner", mon.equal(mon.mult(mon.fmap(mon.eta_hat, c), mon.pool), c), w)


def _mult_laws(mon: _Monad, rep: SuiteReport, outer_cases, rng, trials: int, oracle=None) -> None:
    """Naturality of multiplication under each endomap of a (label, outer,
    maps) case, checked against ``oracle`` when one is given; then
    associativity on ``trials`` seeded three-level elements, an outer
    element over 1-4 drawn elements over the pool names."""
    for label, outer, maps in outer_cases:
        flat = mon.mult(outer, mon.pool)
        if oracle is not None:
            rep.check("mult-two-routes", mon.equal(flat, oracle(outer, mon.pool)), label)
        for f in maps:
            ok = mon.equal(mon.mult(mon.fmap(mon.lifted(f), outer), mon.pool), mon.fmap(f, flat))
            rep.check("mult-naturality", ok, lambda f=f: f"{label} f={_map_witness(f)}")
    for t in range(trials):
        m = rng.randint(1, 4)
        layer = [mon.draw(mon.names, rng) for _ in range(m)]
        level2 = FiniteSpace([f"t{i}" for i in range(m)])
        theta = mon.draw(level2, rng)
        assign2 = dict(zip(level2.elements, layer))
        mu_hat = {n: mon.name_of[mon.key(mon.mult(c, mon.pool))] for n, c in assign2.items()}
        route_a = mon.mult(mon.fmap(PointMap(level2, mon.names, mu_hat), theta), mon.pool)
        route_b = mon.mult(mon.mult(theta, assign2), mon.pool)
        rep.check("mult-associativity", mon.equal(route_a, route_b), f"seed-trial={t}")
    rep.bump("associativity-trials", trials)


# --------------------------------------------------------- hyperspace monad


def _random_endomap(space: FiniteSpace, rng) -> PointMap:
    return PointMap(space, space, {x: rng.choice(space.elements) for x in space.elements})


def _mult_by_membership(outer: InclusionHyperspace, pool) -> InclusionHyperspace:
    """Brute-force multiplication: keep B when the set of names containing
    B is itself a member of the outer hyperspace."""
    names, inner = outer.carrier.elements, pool.members
    hit = [s for s in pool.base.subsets() if frozenset(n for n in names if s in inner[n]) in outer]
    return InclusionHyperspace.from_family(pool.base, hit)


def g_monad_suite(
    space: FiniteSpace,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
) -> SuiteReport:
    """Unit, functor, naturality, and multiplication laws for the
    inclusion-hyperspace monad, with a brute-force membership oracle for
    every multiplication.  Exhaustive mode sweeps every case on at most 2
    points; random mode draws ``samples // 5`` cases per law."""
    rep = SuiteReport("hyperspace-monad", mode)
    names, assignment = pool = hyperspace_space(space)
    mon = _Monad(
        space, pool, unit=g_unit,
        fmap=g_map, mult=g_mult, equal=operator.eq, draw=random_hyperspace, show=_hs_witness,
    )
    els = space.elements
    if mode == "exhaustive":
        if len(space) > 2:
            raise BudgetExceededError(
                "exhaustive hyperspace sweeps need at most 2 points; use random mode"
            )
        maps = _all_maps(space, space)
        second = enumerate_hyperspaces(names)
        units = [(f, x) for x in els for f in maps]
        pairs = list(itertools.product(maps, repeat=2))
        compositions = [(f, g, hs) for hs in assignment.values() for f, g in pairs]
        pool_cases = assignment.items()
        outer_cases = [(_hs_witness(outer), outer, maps) for outer in second]
        trials, assoc_seed = max(100, samples // 10), seed
        ident = PointMap(space, space, {x: x for x in els})
        for hs in assignment.values():
            rep.check("functor-identity", g_map(ident, hs) == hs, lambda hs=hs: _hs_witness(hs))
        rep.counts["hyperspaces"] = len(assignment)
        rep.counts["second-level-hyperspaces"] = len(second)
        rep.notes.append(
            "multiplication associativity is sampled: the third hyperspace "
            "level is beyond enumeration even over two points"
        )
    else:
        # one stream: the units are drawn first though checked after the
        # compositions, and every later case as its check consumes it
        rng = random.Random(seed)
        trials, assoc_seed = max(1, samples // 5), seed + 1
        draws = range(trials)
        units = [(_random_endomap(space, rng), rng.choice(els)) for _ in draws]
        compositions = (
            (_random_endomap(space, rng), _random_endomap(space, rng),
             random_hyperspace(space, rng))
            for _ in draws
        )
        drawn = (random_hyperspace(space, rng) for _ in draws)
        pool_cases = ((mon.name_of[hs.masks], hs) for hs in drawn)
        drawn_outers = (random_hyperspace(names, rng) for _ in draws)
        outer_cases = ((_hs_witness(o), o, [_random_endomap(space, rng)]) for o in drawn_outers)
    for f, g, hs in compositions:
        comp = PointMap(space, space, {x: g(f(x)) for x in els})
        ok = g_map(comp, hs) == g_map(g, g_map(f, hs))
        w = lambda f=f, g=g, hs=hs: f"{_hs_witness(hs)} f={_map_witness(f)} g={_map_witness(g)}"
        rep.check("functor-composition", ok, w)
    _unit_laws(mon, rep, units, pool_cases)
    _mult_laws(mon, rep, outer_cases, random.Random(assoc_seed), trials, _mult_by_membership)
    return rep


# ---------------------------------------------------------- capacity monad


def _random_pointwise(cls, carrier, chain, rng, max_support=4):
    """Seeded ``cls`` capacity: non-neutral levels on a random support of
    at most ``max_support`` points, one of them at the far end (1 for a
    density, 0 for a codensity)."""
    size = rng.randint(1, min(max_support, len(carrier)))
    support = rng.sample(carrier.elements, size)
    fill, pin = cls._ends(chain)
    levels = [lv for lv in chain.levels if lv != fill]
    weights = {n: rng.choice(levels) for n in support}
    weights[rng.choice(support)] = pin
    return cls(carrier, chain, weights)


def _random_mixed(carrier, chain, rng):
    cls = PossibilityCapacity if rng.random() < 0.5 else NecessityCapacity
    return _random_pointwise(cls, carrier, chain, rng)


def capacity_monad_suite(
    space: FiniteSpace,
    chain: Chain,
    samples: int = 500,
    seed: int = 0,
) -> SuiteReport:
    """Unit laws exhaustively; associativity, naturality, submonad closure,
    and the conjugation isomorphism on seeded samples."""
    rep = SuiteReport("capacity-monad", "mixed")
    names, lookup = pool = capacity_pool(space, chain, "all")
    rep.counts["capacities"] = len(names)
    mon = _Monad(
        space, pool, unit=lambda carrier, x: unit_dirac(carrier, chain, x),
        fmap=pushforward, mult=mult, equal=capacity_equal,
        draw=lambda carrier, rng: _random_mixed(carrier, chain, rng), show=_cap_witness,
    )
    # naturality under seeded endomaps, points and outers
    rng = random.Random(seed)
    trials = [
        (_random_endomap(space, rng), rng.choice(space.elements), mon.draw(names, rng))
        for _ in range(min(40, max(1, samples // 10)))
    ]
    _unit_laws(mon, rep, [(f, x) for f, x, _ in trials], lookup.items())
    rep.counts["unit-law-cases"] = 2 * len(names)
    outer_cases = [(f"seed-trial={t}", outer, [f]) for t, (f, _, outer) in enumerate(trials)]
    _mult_laws(mon, rep, outer_cases, random.Random(seed + 2), samples)

    # conjugation: unit fixed, multiplication intertwined, classes swapped
    poss, necc = (capacity_pool(space, chain, kind) for kind in ("union", "intersection"))
    necc_name_of = {necc.key(n): n for n in necc.names.elements}
    kappa = {p: necc_name_of[mon.key(kappa_dual(c))] for p, c in poss.members.items()}
    kappa_hat = PointMap(poss.names, necc.names, kappa)
    for x in space.elements:
        u = mon.unit(space, x)
        rep.check("conjugation-fixes-units", capacity_equal(kappa_dual(u), u), f"x={x}")
    outers = _exhaustive_densities(poss.names, chain)
    if outers is None:
        rng2 = random.Random(seed + 1)
        outers = [
            _random_pointwise(PossibilityCapacity, poss.names, chain, rng2)
            for _ in range(samples)
        ]
    rep.counts["conjugation-sweep"] = len(outers)
    for outer in outers:
        flat = mult(outer, poss)
        w = lambda outer=outer: _cap_witness(outer)
        rep.check("union-closure", classify(flat).is_union, w)
        mirrored = mult(pushforward(kappa_hat, kappa_dual(outer)), necc)
        rep.check("intersection-closure", classify(mirrored).is_intersection, w)
        rep.check("conjugation-mult-intertwines", capacity_equal(kappa_dual(flat), mirrored), w)
    return rep


# ------------------------------------------------------ structure round trips
#
# One body per structure class and direction; each caller names the cases.


def check_convex_roundtrip(rep: SuiteReport, s: ConvexStructure, wit, density_wit):
    """ic -> map -> ic, and base-point independence of the map at every
    density c (named by ``density_wit(c)``); returns the map."""
    xi = UnionStructureMap.from_convex(s)
    rep.check("table-roundtrip", ic_from_structure_map(xi).ic == s.ic, wit)
    for c in capacity_pool(s.carrier, s.chain, "union")[1].values():
        base_points = [x for x, w in c.density.items() if w == s.chain.one]
        got = {structure_map_from_ic(s, c, x0) for x0 in base_points}
        rep.check("base-point-independence", len(got) == 1, lambda c=c: density_wit(c))
    return xi


def check_union_map_roundtrip(rep: SuiteReport, xi: UnionStructureMap, wit) -> None:
    """map -> ic -> map, named by ``wit`` of the recovered table."""
    s = ic_from_structure_map(xi)
    again = UnionStructureMap.from_convex(s)
    rep.check("map-roundtrip", again.tabulate() == xi.tabulate(), lambda: wit(s))


def check_dual_roundtrip(rep: SuiteReport, s: DualConvexStructure) -> None:
    """ci -> map -> ci, one case per row x: the dual map gives back every ci(x, a, y)."""
    X, value = s.carrier.elements, partial(dual_structure_map, s)
    back = pinned_table(NecessityCapacity, s.carrier, s.chain, X, s.chain.levels, value)
    wrong = {x for (x, a, y), z in back.items() if z != s.ci[(x, a, y)]}
    for x in X:
        rep.check("dual-table-roundtrip", x not in wrong, f"x={x}")


def check_quadruple_roundtrip(rep: SuiteReport, b: BiconvexStructure, wit, back_wit) -> None:
    """quadruple -> triple -> quadruple: the triple read off b is lawful
    (named by ``wit``) and gives b back (``back_wit``)."""
    t = triple_from_biconvex(b)
    rep.check("triple-laws", not check_triple(t), wit)
    rep.check("quadruple-roundtrip", biconvex_from_triple(t) == b, back_wit)


def check_triple_roundtrip(rep: SuiteReport, t: TripleStructure, wit) -> BiconvexStructure:
    """triple -> quadruple -> triple; returns the quadruple."""
    b = biconvex_from_triple(t)
    back = triple_from_biconvex(b)
    rep.check("triple-roundtrip", back.p == t.p and back.m == t.m, wit)
    return b


def convex_roundtrip_suite(space: FiniteSpace, chain: Chain) -> SuiteReport:
    """Table -> map -> table and map -> table -> map round trips, base-point
    independence, and algebra laws for every enumerated convex structure."""
    rep = SuiteReport("convex-roundtrips")
    structs = convex_structures(space, chain)
    rep.counts["structures"] = len(structs)
    densities = list(capacity_pool(space, chain, "union")[1].values())
    for s in structs:
        wit = _structure_witness(s)
        rep.check("combination-axioms", not check_ic_axioms(s), wit)
        xi = check_convex_roundtrip(
            rep, s, wit, lambda c, wit=wit: f"{wit} density={_cap_witness(c)}"
        )
        rep.check("algebra-laws", not check_algebra_laws(xi), wit)
        for c in densities:
            coeffs = list(c.density.values())
            folded = nary_combination(s, coeffs, space.elements)
            backward = nary_combination(
                s, list(reversed(coeffs)), list(reversed(space.elements))
            )
            value = xi(c)
            rep.check(
                "nary-fold-matches-map",
                folded == value and backward == value,
                lambda wit=wit, c=c: f"{wit} density={_cap_witness(c)}",
            )
    if len(space) <= 2:
        algebras = list(enumerate_union_algebras(space, chain))
        rep.counts["union-algebras"] = len(algebras)
        for xi0 in algebras:
            check_union_map_roundtrip(rep, xi0, _structure_witness)
    else:
        rep.notes.append(
            "raw structure-map enumeration is restricted to two-point carriers;"
            " larger carriers round-trip through tables only"
        )
    return rep


# ------------------------------------------------------ morphism equivalence


def _all_maps(source: FiniteSpace, target: FiniteSpace) -> list[PointMap]:
    return [
        PointMap(source, target, dict(zip(source.elements, image)))
        for image in itertools.product(target.elements, repeat=len(source))
    ]


def _morphism_sweep(rep, law, count, chain, groups, map_cls, preserves, show, extra) -> None:
    """``law``: f preserves the operations (``preserves(f, s1, s2)``) iff it
    intertwines the structure maps (``map_cls`` over each structure), for
    every map f between two carriers of ``groups`` (carrier -> structures on
    it) and every structure pair on its ends.  Each map is tabulated once
    over the pool of its class, each source pool is pushed forward once
    per f, and the two tables are compared along it.  ``show`` names the
    pair in a witness, and ``extra(f, s1, s2)``, unless None, runs on each
    preserving pair."""
    key = map_cls._key
    tabs = {
        sp: [(s, map_cls(sp, chain, structure=s).tabulate()) for s in structs]
        for sp, structs in groups.items()
    }
    for sp1, tabs1 in tabs.items():
        pool = capacity_pool(sp1, chain, map_cls._kind)[1].values()
        keys = [key(c) for c in pool]
        for sp2, tabs2 in tabs.items():
            for f in _all_maps(sp1, sp2):
                pushed = [key(pushforward(f, c)) for c in pool]
                targets = [(s2, [tab2[k] for k in pushed]) for s2, tab2 in tabs2]
                for s1, tab1 in tabs1:
                    image = [f(tab1[k]) for k in keys]
                    for s2, target in targets:
                        held = preserves(f, s1, s2)
                        rep.check(law, held == (image == target), lambda f=f, s1=s1, s2=s2: (
                            f"f={_map_witness(f)} {show(s1, s2)}"
                        ))
                        rep.bump(count)
                        if held and extra is not None:
                            extra(f, s1, s2)


def _action_checks(rep: SuiteReport, f: PointMap, b1: BiconvexStructure, b2) -> None:
    """f keeps the meet action iff it fixes the bottom; the join action is
    the meet action of the order duals, whose bottoms are the tops."""
    w = f"f={_map_witness(f)}"
    for s1, s2, law in ((b1, b2, "meet-action-preserved-iff-bottom-fixed"),
                        (b1.op, b2.op, "join-action-preserved-iff-top-fixed")):
        keeps = all(f(z) == s2.smeet[(a, f(x))] for (a, x), z in s1.smeet.items())
        rep.check(law, keeps == (f(s1.bottom) == s2.bottom), w)


def morphism_suite(chain: Chain, max_size: int = 3) -> SuiteReport:
    """Morphism <=> (bi)affine over every map between enumerated structures,
    plus the max(x, 1/2) witness on the chain model."""
    rep = SuiteReport("morphism-equivalence")
    spaces = desk_spaces(max_size)
    _morphism_sweep(
        rep, "affine-iff-morphism", "union-algebra-maps", chain,
        {sp: convex_structures(sp, chain) for sp in spaces}, UnionStructureMap, is_affine,
        lambda s1, s2: f"s1={_structure_witness(s1)} s2={_structure_witness(s2)}", None,
    )

    _morphism_sweep(
        rep, "biaffine-iff-full-morphism", "full-algebra-maps", chain,
        {sp: biconvex_structures(sp, chain) for sp in spaces}, CapacityStructureMap, is_biaffine,
        lambda b1, b2: f"b1={_structure_witness(b1)} b2={_structure_witness(b2)}",
        partial(_action_checks, rep),
    )

    half = Fraction(1, 2)
    if any(l.value == half for l in chain.levels):
        b = chain_model(chain)
        hl = chain.level(half)
        f = PointMap(
            b.carrier,
            b.carrier,
            {str(l.value): str(max(l, hl).value) for l in chain.levels},
        )
        rep.check("witness-biaffine", is_biaffine(f, b, b), "max(x,1/2)")
        top = b.top
        rep.check(
            "witness-breaks-meet-action",
            f(b.smeet[(chain.zero, top)]) != b.smeet[(chain.zero, f(top))],
            "max(x,1/2) at weight 0",
        )
        xi = CapacityStructureMap.from_biconvex(b)
        rep.check("witness-is-full-morphism", is_algebra_morphism(f, xi, xi), "max(x,1/2)")
    return rep


# ------------------------------------------------------------- quotient


def quotient_suite(chain: Chain) -> SuiteReport:
    """Quotient semimodule construction for every enumerated convex structure."""
    rep = SuiteReport("quotient-semimodule")
    for sp in desk_spaces():
        for s in convex_structures(sp, chain):
            wit = _structure_witness(s)
            q = quotient_semimodule(s)
            rep.check(
                "semimodule-axioms", not check_semimodule_axioms(q.semimodule), wit
            )
            images = [q.embedding(x) for x in sp.elements]
            rep.check("embedding-injective", len(set(images)) == len(images), wit)
            mod = q.semimodule
            ok = all(
                q.embedding(s.ic[(x, a, y)])
                == mod.add[(q.embedding(x), mod.scale[(a, q.embedding(y))])]
                for x in sp.elements
                for a in chain.levels
                for y in sp.elements
            )
            rep.check("embedding-translates-combinations", ok, wit)
            rep.bump("quotients")
    return rep


# ------------------------------------------------------- full structure maps


def _xi_via_union_mixture(b: BiconvexStructure, mixture: PossibilityCapacity) -> str:
    _, assignment = capacity_pool(b.carrier, b.chain, "intersection")
    return _mixture_step(
        b, mixture.density.items(), lambda n: structure_map_necessity(b, assignment[n])
    )


def _xi_via_intersection_mixture(b: BiconvexStructure, mixture: NecessityCapacity) -> str:
    _, assignment = capacity_pool(b.carrier, b.chain, "union")
    return _mixture_step(
        b.op,
        kappa_dual(mixture).density.items(),
        lambda p: structure_map_possibility(b, assignment[p]),
    )


def check_full_map_value(rep: SuiteReport, xi: CapacityStructureMap, c):
    """Both factorizations of the full map at c must agree, and on a
    possibility or necessity capacity match the one-sided map; a law
    violation on the way is a ``factorization`` finding.  The value comes
    from the structure-backed map xi, which keeps it.  Returns (value,
    dual): the value if reached, the dual if every check was."""
    b = xi._structure
    wit = lambda: _cap_witness(c)
    value = dual = None
    try:
        value = xi(c)
        got = structure_map_full_dual(b, c)
        rep.check("factorizations-agree", value == got, wit)
        for cls, closed_form in (
            (PossibilityCapacity, structure_map_possibility),
            (NecessityCapacity, structure_map_necessity),
        ):
            form = _pointwise_form(cls, c)
            if form is not None:
                rep.check(f"restricts-to-{cls._side}-map", value == closed_form(b, form), wit)
        dual = got
    except LawViolationError as exc:
        rep.check("factorization", False, f"{wit()}: {exc}")
    return value, dual


def check_full_unit_law(rep: SuiteReport, xi: CapacityStructureMap) -> None:
    """The full map sends each Dirac capacity to its point; a law violation fails it."""
    for x in xi.carrier.elements:
        case = xi.unit_case(x)
        error = "" if case.error is None else f": {case.error}"
        rep.check("algebra-unit-law", case.held, f"x={x}{error}")


def cube_sweep(chain: Chain):
    """(arity, witness, cube) for each cube of arity 1 and 2 over weight_maps(chain)."""
    for arity in (1, 2):
        for phis in itertools.product(weight_maps(chain), repeat=arity):
            w = f"arity={arity} phi=" + ";".join(
                ",".join(f"{a}->{phi[a]}" for a in chain.levels) for phi in phis
            )
            yield arity, w, cube_structure(chain, list(phis))


def full_map_suite(
    space: FiniteSpace,
    chain: Chain,
    samples: int = 150,
    seed: int = 0,
) -> SuiteReport:
    """Triple/quadruple round trips, closed-form agreement, the two
    factorization routes, the closed form against mixtures found by the
    preimage searches, preimage independence, restriction coherence,
    and the algebra laws of the full structure map."""
    rep = SuiteReport("biconvex-structure-maps", "mixed")
    structs = biconvex_structures(space, chain)
    rep.counts["structures"] = len(structs)
    _, caps = capacity_pool(space, chain, "all")
    pools = {kind: capacity_pool(space, chain, kind) for kind in ("union", "intersection")}
    # per side: mixture class and kind, the value through such a mixture,
    # and the law-name suffix; a side's mixtures range over the other kind
    routes = (
        (PossibilityCapacity, "union", _xi_via_union_mixture, ""),
        (NecessityCapacity, "intersection", _xi_via_intersection_mixture, "-dual"),
    )
    hits = [
        {n: search(c, limit=2, budget=INDEPENDENCE_SEARCH_BUDGET) for n, c in caps.items()}
        for search in (union_over_intersection_preimages, intersection_over_union_preimages)
    ]

    for b in structs:
        wit = _structure_witness(b)
        rep.check("biconvex-laws", not check_biconvex(b), wit)

        check_quadruple_roundtrip(rep, b, wit, wit)
        for cand in enumerate_lawful_triples(b.carrier, chain, b.bjoin, b.bmeet):
            cw = lambda cand=cand: (
                f"{wit} p={tuple(cand.p.values())} m={tuple(cand.m.values())}"
            )
            derived = check_triple_roundtrip(rep, cand, cw)
            rep.check("triple-to-quadruple-laws", not check_biconvex(derived), cw)
            rep.bump("triples-on-lattice")

        for kind, closed_form in (
            ("union", structure_map_possibility), ("intersection", structure_map_necessity)
        ):
            for c in pools[kind][1].values():
                try:
                    closed_form(b, c)
                    ok = True
                except LawViolationError:
                    ok = False
                rep.check(f"{c._side}-closed-forms-agree", ok, lambda c=c: _cap_witness(c))

        xi = CapacityStructureMap.from_biconvex(b)
        for n, c in caps.items():
            wc = lambda c=c: _cap_witness(c)
            # each side's routes must give its own factorization's value
            values = check_full_map_value(rep, xi, c)
            for (_, kind, via, suffix), side_hits, ref in zip(routes, hits, values):
                found = side_hits[n]
                if found:
                    rep.check("closed-form-matches-search" + suffix, ref == via(b, found[0]), wc)
                if len(found) >= 2:
                    routed = {via(b, mix) for mix in found}
                    rep.check("preimage-independence" + suffix, len(routed) == 1, wc)
                    rep.bump(f"multiple-{kind}-preimages")

        check_full_unit_law(rep, xi)
        rng = random.Random(seed)
        for trial in range(samples):
            for (cls, _, _, suffix), (_, inner, _, _) in zip(routes, reversed(routes)):
                outer = _random_pointwise(cls, pools[inner].names, chain, rng, max_support=3)
                rep.check(
                    "algebra-multiplication-law" + suffix,
                    xi.mult_case(outer, pools[inner]).held,
                    f"seed-trial={trial}",
                )
        rep.check("quadruple-recovered-from-map", quadruple_from_algebra(xi) == b, wit)

    for _, w, cube in cube_sweep(chain):
        rep.check("cube-biconvex-laws", not check_biconvex(cube.structure), w)
        tc = triple_from_biconvex(cube.structure)
        rep.check(
            "cube-triple-roundtrip",
            not check_triple(tc)
            and biconvex_from_triple(tc) == cube.structure,
            w,
        )
        rep.bump("cube-instances")

    rep.notes.append(CONTINUITY_NOTE)
    rep.notes.append(
        f"preimage searches for the independence sweep are bounded to "
        f"{INDEPENDENCE_SEARCH_BUDGET} candidates each"
    )
    return rep


# ------------------------------------------------------------ sugeno record


def sugeno_suite(chain: Chain) -> SuiteReport:
    """Compare the factored structure map against the direct join of
    weighted meets on every capacity; both outcomes are recorded.

    The factored side routes each capacity through a mixture found by
    the preimage search, not through the closed form, so the comparison
    joins two independent computations.
    """
    rep = SuiteReport("sugeno-crosscheck")
    targets = [b for sp in desk_spaces(2) for b in biconvex_structures(sp, chain)]
    targets.append(chain_model(chain))
    agreements = 0
    first_diff = None
    mixtures: dict[FiniteSpace, dict] = {}  # the search depends only on the capacity
    for b in targets:
        caps = capacity_pool(b.carrier, chain, "all")[1]
        if b.carrier not in mixtures:
            mixtures[b.carrier] = {
                n: union_over_intersection_preimages(c) for n, c in caps.items()
            }
        for n, c in caps.items():
            found = mixtures[b.carrier][n]
            if not found:
                rep.bump("search-budget-exhausted")
                continue
            rep.cases += 1
            factored = _xi_via_union_mixture(b, found[0])
            direct = sugeno_form(b, c)
            if factored == direct:
                agreements += 1
            elif first_diff is None:
                first_diff = (b, c, factored, direct)
    rep.counts["comparisons"] = rep.cases
    rep.counts["agreements"] = agreements
    if first_diff is None:
        rep.notes.append(
            f"join-of-weighted-meets agrees with the factored structure map "
            f"on all {rep.cases} comparisons"
        )
    else:
        b, c, factored, direct = first_diff
        rep.notes.append(
            f"join-of-weighted-meets disagrees with the factored structure map: "
            f"capacity {_cap_witness(c)} gives {factored} (factored) vs {direct} "
            f"(direct) on {_structure_witness(b)}"
        )
    return rep


# ------------------------------------------------------------- embeddings


def embedding_suite(chain: Chain) -> SuiteReport:
    """Self-certificates for the chain model and all small cubes, plus the
    recorded result for the four-element diamond."""
    rep = SuiteReport("coordinate-embedding")
    res = embedding_search(chain_model(chain), max_arity=1)
    rep.check(
        "chain-model-self-certificate",
        res.found and res.arity == 1,
        "chain-model",
    )
    rep.counts["chain-model-candidates"] = res.candidates

    for k in (1, 2):
        for arity, w, cube in cube_sweep(make_chain(k)):
            got = embedding_search(cube.structure, max_arity=arity)
            rep.check(
                "cube-self-certificate", got.found and got.arity <= arity, f"k={k} {w}"
            )
            rep.bump("cube-instances")

    diamond = diamond_structure(chain)
    got = embedding_search(diamond, max_arity=2)
    rep.counts["diamond-found"] = int(got.found)
    if got.found:
        rep.counts["diamond-arity"] = got.arity
        rep.notes.append(
            f"diamond embeds with {got.arity} coordinates out of "
            f"{got.candidates} lawful candidates"
        )
    else:
        rep.notes.append(
            f"diamond admits no coordinate embedding with at most "
            f"{got.max_arity} coordinates ({got.candidates} lawful candidates)"
        )
    return rep
