"""Biconvex structures: algebras for the full capacity monad at chain scale.

A biconvex structure is a lattice (bjoin, bmeet) carrying two chain
actions: smeet (weight-limited membership, distributing over joins) and
sjoin (guarantee-raising, distributing over meets), tied together by
mixed associative and distributive laws.  An equivalent presentation
replaces the actions by two level maps p (scaled bottoms) and m (scaled
tops).

The structure map for a general capacity factors through the two
one-sided maps, along a canonical mixture that needs no search.  Every
capacity c is the multiplication of the possibility mixture
c = join over nonempty F of c(F) meet u_F, where the unanimity capacity
u_F is the necessity capacity with codensity 0 on F and 1 off it
(Grabisch, Set Functions, Games and Capacities in Decision Making,
2016).  The necessity-side map sends u_F to the meet of F; collecting
the weights c(F) on those images gives a density that the
possibility-side map closes.  Dually, c = meet over nonempty G of
c(X minus G) join pi_G, where pi_G is the possibility capacity with
density 1 on G; the possibility-side map sends pi_G to the join of G and
the necessity-side map closes the collected codensity.  The images of
u_F and pi_G depend only on the structure and are computed once per
structure.

Each necessity-side fold is the possibility-side fold, cell for cell,
on the order dual ``b.op`` at the conjugate capacity F -> 1 - c(X minus F).

The value does not depend on the chosen mixture, and both factorization
orders agree.  The bounded preimage searches find other mixtures; they
serve only as an independent oracle for the closed form and for the
preimage-independence sweeps in the law suites.
"""

from __future__ import annotations

import itertools
import re
from functools import partial
from typing import Iterator, Mapping, NamedTuple

from .chain import Chain, Level, complement
from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    LawViolationError,
    ValidationError,
)
from .capacity import (
    CapacityLike,
    NecessityCapacity,
    PossibilityCapacity,
    StructureMap,
    _check_cube_size,
    canonical_key,
    capacity_pool,
    kappa_dual,
    pinned_table,
)
from .spaces import FiniteSpace, PointMap, Subset, TableStructure

DEFAULT_SEARCH_BUDGET = 2_000_000


def _fold(table, xs) -> str:
    """xs folded from the left through a binary lattice table."""
    it = iter(xs)
    acc = next(it)
    for x in it:
        acc = table[(acc, x)]
    return acc


def _bounds(carrier, bjoin, bmeet) -> tuple[str, str]:
    """(bottom, top): the meet and the join of the whole carrier."""
    return _fold(bmeet, carrier.elements), _fold(bjoin, carrier.elements)


# the lattice tables shared by the quadruple and the triple
_LATTICE = {"bjoin": "xx", "bmeet": "xx"}


class BiconvexStructure(TableStructure):
    """Lattice tables plus the two chain actions, all explicit.

    The full structure map keeps the images of the unanimity capacities
    (keyed by F) here, filled in on first use; the order dual keeps its
    own, which are the images of the point-set possibility capacities.
    """

    _tables = {**_LATTICE, "smeet": "ax", "sjoin": "ax"}
    __slots__ = (*_tables, "_meet_images", "_op", "_side")

    def __init__(self, carrier, chain, bjoin, bmeet, smeet, sjoin):
        super().__init__(carrier, chain, bjoin, bmeet, smeet, sjoin)
        self._meet_images: dict[Subset, str] = {}
        self._op: BiconvexStructure | None = None
        self._side = "possibility"

    @property
    def op(self) -> "BiconvexStructure":
        """The order dual: bjoin and bmeet swap, and smeet(a, x) and
        sjoin(1 - a, x) swap; built once, and ``b.op.op is b``.  Its
        possibility side is this structure's necessity side, by name too.
        """
        if self._op is None:
            flip = dict(zip(self.chain.levels, reversed(self.chain.levels)))
            op = object.__new__(BiconvexStructure)
            op.carrier, op.chain = self.carrier, self.chain
            op.bjoin, op.bmeet = self.bmeet, self.bjoin
            op.smeet = {(flip[a], x): z for (a, x), z in self.sjoin.items()}
            op.sjoin = {(flip[a], x): z for (a, x), z in self.smeet.items()}
            op._meet_images, op._op, op._side = {}, self, "necessity"
            self._op = op
        return self._op

    def join_all(self, xs) -> str:
        return _fold(self.bjoin, xs)

    def meet_all(self, xs) -> str:
        return _fold(self.bmeet, xs)

    @property
    def bottom(self) -> str:
        return self.meet_all(self.carrier.elements)

    @property
    def top(self) -> str:
        return self.join_all(self.carrier.elements)


# each word of a law text with the word the order dual writes for it
_SWAPS = (("join", "meet"), ("max", "min"), ("bottom", "top"), ("*", "+"))
_DUAL_WORDS = {**dict(_SWAPS), **{b: a for a, b in _SWAPS}}


def _dual_text(template: str, **cells) -> str:
    """A law text of the join side as the order dual writes it: its words
    swap (join-module and meet-module too) and a level a shows as 1 - a."""
    words = "|".join(map(re.escape, _DUAL_WORDS))
    return re.sub(words, lambda w: _DUAL_WORDS[w[0]], template).format(
        **{n: complement(v) if isinstance(v, Level) else v for n, v in cells.items()}
    )


def _lattice_diagnostics(carrier, bjoin, bmeet) -> list[str]:
    """The lattice laws, each meet law the join law of the swapped pair."""
    X = carrier.elements
    out: list[str] = []
    for join, meet, say in ((bjoin, bmeet, str.format), (bmeet, bjoin, _dual_text)):
        for x, y in itertools.product(X, repeat=2):
            if join[(x, y)] != join[(y, x)]:
                out.append(say("lattice: join({x},{y}) != join({y},{x})", x=x, y=y))
            if meet[(x, join[(x, y)])] != x:
                out.append(say("lattice: absorption meet({x},join({x},{y})) != {x}", x=x, y=y))
        for x in X:
            if join[(x, x)] != x:
                out.append(say("lattice: join({x},{x}) != {x}", x=x))
        for x, y, z in itertools.product(X, repeat=3):
            if join[(join[(x, y)], z)] != join[(x, join[(y, z)])]:
                out.append(say("lattice: join associativity fails at ({x},{y},{z})", x=x, y=y, z=z))
    if out:
        return out  # distributivity presupposes the lattice laws
    # a lattice is distributive iff it has no N5 or M3 sublattice (Birkhoff,
    # Lattice Theory); the structure maps rely on it
    for x, y, z in itertools.product(X, repeat=3):
        if bmeet[(x, bjoin[(y, z)])] != bjoin[(bmeet[(x, y)], bmeet[(x, z)])]:
            out.append(f"lattice: distributivity fails at ({x},{y},{z})")
    return out


def check_biconvex(b: BiconvexStructure) -> list[str]:
    """All finite biconvex laws; topological conditions are vacuous here.
    The join-module laws of (X, bjoin, smeet) and the mixed laws led by a join
    or a * run on b, then on ``b.op``, reading the cells of their meet twins."""
    out = _lattice_diagnostics(b.carrier, b.bjoin, b.bmeet)
    if out:
        return out  # bounds below presuppose the lattice laws
    for s, say in ((b, str.format), (b.op, _dual_text)):
        X, levels, bot = s.carrier.elements, s.chain.levels, s.bottom
        bjoin, smeet, sjoin = s.bjoin, s.smeet, s.sjoin
        for x in X:
            if bjoin[(x, bot)] != x:
                out.append(say("join-module axiom-3: {x}+bottom != {x}", x=x))
            if smeet[(s.chain.one, x)] != x:
                out.append(say("join-module axiom-6: {a}*{x} != {x}", a=s.chain.one, x=x))
            if smeet[(s.chain.zero, x)] != bot:
                out.append(say("join-module axiom-7: {a}*{x} != bottom", a=s.chain.zero, x=x))
        for a, x, y in itertools.product(levels, X, X):
            if smeet[(a, bjoin[(x, y)])] != bjoin[(smeet[(a, x)], smeet[(a, y)])]:
                out.append(say("join-module axiom-4: {a}*join({x},{y}) mismatch", a=a, x=x, y=y))
            if bjoin[(sjoin[(a, x)], y)] != sjoin[(a, bjoin[(x, y)])]:
                out.append(say("mixed-assoc: join({a}+{x},{y}) mismatch", a=a, x=x, y=y))
        for a, c, x in itertools.product(levels, levels, X):
            if smeet[(max(a, c), x)] != bjoin[(smeet[(a, x)], smeet[(c, x)])]:
                out.append(say("join-module axiom-4: (max {a},{c})*{x} mismatch", a=a, c=c, x=x))
            if smeet[(min(a, c), x)] != smeet[(a, smeet[(c, x)])]:
                out.append(say("join-module axiom-5: (min {a},{c})*{x} mismatch", a=a, c=c, x=x))
            if smeet[(a, sjoin[(c, x)])] != sjoin[(min(a, c), smeet[(a, x)])]:
                out.append(say("mixed-dist: {a}*({c}+{x}) mismatch", a=a, c=c, x=x))
    return out


class TripleStructure(TableStructure):
    """Lattice tables plus level maps p (scaled bottoms) and m (scaled tops)."""

    _tables = {**_LATTICE, "p": "a", "m": "a"}
    __slots__ = tuple(_tables)


def _level_map_diagnostics(chain, bjoin, bmeet, bot, top, p, m) -> Iterator[str]:
    """The four conditions tying p and m to a lattice, lazily: p(1) is the
    top, m(0) the bottom, p preserves joins and m meets, and m(a) meet
    p(c) = p(min(a, c)), m(a) join p(c) = m(max(a, c))."""
    if p[chain.one] != top:
        yield f"p-top: p(1) = {p[chain.one]} != top"
    if m[chain.zero] != bot:
        yield f"m-bottom: m(0) = {m[chain.zero]} != bottom"
    for a, c in itertools.product(chain.levels, repeat=2):
        if p[max(a, c)] != bjoin[(p[a], p[c])]:
            yield f"p-join: p(max({a},{c})) != p({a}) join p({c})"
        if m[min(a, c)] != bmeet[(m[a], m[c])]:
            yield f"m-meet: m(min({a},{c})) != m({a}) meet m({c})"
        if bmeet[(m[a], p[c])] != p[min(a, c)]:
            yield f"pm-meet: m({a}) meet p({c}) != p(min({a},{c}))"
        if bjoin[(m[a], p[c])] != m[max(a, c)]:
            yield f"pm-join: m({a}) join p({c}) != m(max({a},{c}))"


def check_triple(t: TripleStructure) -> list[str]:
    """Lattice laws plus the four conditions tying p and m to the lattice."""
    out = _lattice_diagnostics(t.carrier, t.bjoin, t.bmeet)
    if out:
        return out
    bot, top = _bounds(t.carrier, t.bjoin, t.bmeet)
    return list(_level_map_diagnostics(t.chain, t.bjoin, t.bmeet, bot, top, t.p, t.m))


def enumerate_lawful_triples(carrier, chain, bjoin, bmeet) -> Iterator[TripleStructure]:
    """Every lawful triple on the given lattice tables, none if they fail
    the lattice laws.

    The conditions force m = p (pm-meet at c = 1 reads m(a) meet p(1) =
    p(a), and p(1) is the top), so p alone runs over X^(k+1) in
    itertools.product order, its values at the levels from 0 up, and is
    kept with m = p when the pair passes the conditions of ``check_triple``:
    the same triples in the same order as a p-first scan of all (p, m).
    """
    if _lattice_diagnostics(carrier, bjoin, bmeet):
        return
    bot, top = _bounds(carrier, bjoin, bmeet)
    levels = chain.levels
    for img in itertools.product(carrier.elements, repeat=len(levels)):
        p = dict(zip(levels, img))
        if next(_level_map_diagnostics(chain, bjoin, bmeet, bot, top, p, p), None) is None:
            yield TripleStructure(carrier, chain, bjoin, bmeet, p, p)


def triple_from_biconvex(b: BiconvexStructure) -> TripleStructure:
    """p(a) = a raised over the bottom, m(a) = a cut into the top."""
    bot, top = b.bottom, b.top
    p = {a: b.sjoin[(a, bot)] for a in b.chain.levels}
    m = {a: b.smeet[(a, top)] for a in b.chain.levels}
    return TripleStructure(b.carrier, b.chain, b.bjoin, b.bmeet, p, m)


def biconvex_from_triple(t: TripleStructure) -> BiconvexStructure:
    """Actions recovered against the level maps: a*x = m(a) meet x, a+x = p(a) join x."""
    smeet = {
        (a, x): t.bmeet[(t.m[a], x)]
        for a in t.chain.levels
        for x in t.carrier.elements
    }
    sjoin = {
        (a, x): t.bjoin[(t.p[a], x)]
        for a in t.chain.levels
        for x in t.carrier.elements
    }
    return BiconvexStructure(t.carrier, t.chain, t.bjoin, t.bmeet, smeet, sjoin)


def _check_match(b: BiconvexStructure, c) -> None:
    if c.carrier != b.carrier or c.chain != b.chain:
        raise CarrierMismatchError("capacity and structure do not match")


def structure_map_possibility(b: BiconvexStructure, c: PossibilityCapacity) -> str:
    """Join over points of density(x) * x; checked against the meet-side form.

    The second form runs over nonempty subsets A: the meet of
    c(X minus A) + sup(A).  Disagreement means the carrier lattice lacks
    the distributivity this construction relies on and is raised as a
    law violation with the witness capacity; on an order dual, with the
    necessity side's name and capacity, the conjugate of c.
    """
    _check_match(b, c)
    primary = b.join_all(
        b.smeet[(w, x)] for x, w in c.density.items()
    )
    universe = b.carrier.universe
    dual = b.meet_all(
        b.sjoin[(c.value(universe - a), b.join_all(sorted(a, key=b.carrier.index.__getitem__)))]
        for a in b.carrier.subsets()
    )
    if dual != primary:
        raise LawViolationError(
            f"{b._side} map forms disagree: {primary} vs {dual}",
            witness=canonical_key(kappa_dual(c) if b._side == "necessity" else c),
        )
    return primary


def structure_map_necessity(b: BiconvexStructure, c: NecessityCapacity) -> str:
    """Meet over points of codensity(x) + x; checked against the join-side form.

    It is the possibility map of ``b.op`` at the density 1 - codensity,
    whose second form is ``sugeno_form``, the join over nonempty subsets F
    of c(F) * inf(F): each term is a lower bound for every codensity term
    (split on whether the point lies in F), and on the distributive
    carriers in scope the bound is attained.
    """
    return structure_map_possibility(b.op, kappa_dual(c))


def _mixture_search(c, kind, weights, pin, outer, inner, mixture, limit, budget):
    """Mixtures over the named capacities of ``kind`` whose multiplication
    equals c: supports by (size, position), then weight tuples from
    ``weights`` in lexicographic order, kept when ``outer`` of the tuple is
    ``pin``.  A mixture multiplies to F -> outer over its names n of
    inner(weight(n), n(F)).  Weights, pin and values are level ranks."""
    chain, pool = c.chain, capacity_pool(c.carrier, c.chain, kind)
    names = pool.names.elements
    # the ranks at the nonempty subsets, each member's as its pool keys it
    target = canonical_key(c)
    vecs = [pool.key(n) for n in names]
    hits = []
    checked = 0
    nf = len(target)
    for size in range(1, len(vecs) + 1):
        for support in itertools.combinations(range(len(vecs)), size):
            sup_vecs = [vecs[i] for i in support]
            for values in itertools.product(weights, repeat=size):
                if outer(values) != pin:
                    continue
                checked += 1
                if checked > budget:
                    return hits
                ok = True
                for fi in range(nf):
                    best = outer(inner(v, sv[fi]) for v, sv in zip(values, sup_vecs))
                    if best != target[fi]:
                        ok = False
                        break
                if ok:
                    dens = {names[i]: chain.levels[v] for i, v in zip(support, values)}
                    hits.append(mixture(pool.names, chain, dens))
                    if len(hits) >= limit:
                        return hits
    return hits


def union_over_intersection_preimages(
    c: CapacityLike,
    limit: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[PossibilityCapacity]:
    """Possibility capacities over the named necessity capacities whose
    multiplication equals c, smallest support first.

    A possibility mixture with density D over necessity capacities n
    multiplies to F -> max over n of min(D(n), n(F)); the search scans
    supports by (size, position) and density values lexicographically,
    so the returned list is deterministic.  Stops after ``limit`` hits
    or ``budget`` candidates.  Evaluation never needs it: the mixtures it
    finds are an independent oracle for the closed-form structure map.
    """
    levels = c.chain.levels
    return _mixture_search(
        c, "intersection", [lv.i for lv in levels[1:]], levels[-1].i,
        max, min, PossibilityCapacity, limit, budget,
    )


def intersection_over_union_preimages(
    c: CapacityLike,
    limit: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[NecessityCapacity]:
    """Necessity capacities over the named possibility capacities whose
    multiplication equals c; the mirror of the union-side search.

    A necessity mixture with codensity E multiplies to
    F -> min over p of max(E(p), p(F)); elements with codensity 1 are
    neutral, so the support is the set of names held below 1.
    """
    levels = c.chain.levels
    return _mixture_search(
        c, "union", [lv.i for lv in levels[:-1]], levels[0].i,
        min, max, NecessityCapacity, limit, budget,
    )


def _unanimity_image(b: BiconvexStructure, f: Subset) -> str:
    """Necessity-side image of u_F, the meet of F; once per structure."""
    got = b._meet_images.get(f)
    if got is None:
        u = NecessityCapacity(b.carrier, b.chain, {x: b.chain.zero for x in f})
        got = b._meet_images[f] = structure_map_necessity(b, u)
    return got


def _mixture_step(b: BiconvexStructure, weighted, image) -> str:
    """One side of a factorization: collect the mixture weights onto the
    images of their components, then close with the possibility map.

    ``weighted`` yields (component, weight) pairs and ``image`` maps a
    component to the carrier; weight 0 is skipped without taking an
    image, and each image keeps its largest weight.  On the order dual,
    with weights 1 - w, this is the intersection side: weight 1 skipped,
    the smallest kept, the necessity map closing.
    """
    chain = b.chain
    acc = dict.fromkeys(b.carrier.elements, chain.zero)
    for component, w in weighted:
        if w == chain.zero:
            continue
        target = image(component)
        if w > acc[target]:
            acc[target] = w
    return structure_map_possibility(b, PossibilityCapacity(b.carrier, chain, acc))


def structure_map_full(b: BiconvexStructure, c: CapacityLike) -> str:
    """Value through the canonical union-over-intersection factorization.

    c is the multiplication of the possibility mixture with density c(F)
    on each unanimity capacity u_F.  Each u_F with nonzero weight goes
    through the necessity-side map, the weights collect into a density
    on the carrier, and the possibility-side map closes it.  On a lawful
    structure the result is the join over F of c(F) * meet(F), which is
    ``sugeno_form``.
    """
    _check_match(b, c)
    weighted = ((f, c.value(f)) for f in b.carrier.subsets())
    return _mixture_step(b, weighted, partial(_unanimity_image, b))


def structure_map_full_dual(b: BiconvexStructure, c: CapacityLike) -> str:
    """Value through the canonical intersection-over-union factorization.

    c is the multiplication of the necessity mixture with codensity
    c(X minus G) on each possibility capacity pi_G.  Conjugated, that is
    the union-over-intersection factorization of 1 - c(X minus F) on the
    order dual, whose unanimity images are the joins of G.
    """
    return structure_map_full(b.op, kappa_dual(c))


def sugeno_form(b: BiconvexStructure, c: CapacityLike) -> str:
    """Join over nonempty subsets F of c(F) * meet(F); cross-check only."""
    _check_match(b, c)
    return b.join_all(
        b.smeet[(c.value(f), b.meet_all(sorted(f, key=b.carrier.index.__getitem__)))]
        for f in b.carrier.subsets()
    )


class CapacityStructureMap(StructureMap):
    """Assigns an element to every capacity: a table, or a biconvex
    structure in closed form through ``structure_map_full``."""

    __slots__ = ()
    _kind = "all"
    _key = staticmethod(canonical_key)

    @classmethod
    def from_biconvex(cls, b: BiconvexStructure) -> "CapacityStructureMap":
        return cls(b.carrier, b.chain, structure=b)

    def _evaluate(self, c: CapacityLike) -> str:
        return structure_map_full(self._structure, c)


def lattice_from_algebra(xi: CapacityStructureMap):
    """Recover (bjoin, bmeet): evaluate xi on two-point densities and
    two-point unanimity capacities; lattice laws are re-verified."""
    carrier, chain = xi.carrier, xi.chain
    X = carrier.elements
    bjoin, bmeet = (
        {(x, y): z for (x, _, y), z in pinned_table(cls, carrier, chain, X, [a], xi).items()}
        for cls, a in ((PossibilityCapacity, chain.one), (NecessityCapacity, chain.zero))
    )
    problems = _lattice_diagnostics(carrier, bjoin, bmeet)
    if problems:
        raise LawViolationError(
            "recovered operations fail the lattice laws", witness=problems[0]
        )
    return bjoin, bmeet


def quadruple_from_algebra(xi: CapacityStructureMap) -> BiconvexStructure:
    """Full biconvex structure recovered from a structure map: a*x is xi at
    density 1 on the bottom and a on x, a+x at codensity 0 on the top and a on x."""
    carrier, chain = xi.carrier, xi.chain
    bjoin, bmeet = lattice_from_algebra(xi)
    levels, ends = chain.levels, _bounds(carrier, bjoin, bmeet)
    smeet, sjoin = (
        {(a, x): z for (_, a, x), z in pinned_table(cls, carrier, chain, [end], levels, xi).items()}
        for cls, end in zip((PossibilityCapacity, NecessityCapacity), ends)
    )
    return BiconvexStructure(carrier, chain, bjoin, bmeet, smeet, sjoin)


def is_biaffine(f: PointMap, b: BiconvexStructure, b2: BiconvexStructure) -> bool:
    """Does f preserve joins with scaled arguments, and (the same on the
    order duals) meets with raised ones?"""
    if f.source != b.carrier or f.target != b2.carrier:
        raise CarrierMismatchError("map endpoints do not match the structures")
    if b.chain != b2.chain:
        raise ValidationError("structures use different chains")
    for s, s2 in ((b, b2), (b.op, b2.op)):
        for x, y in itertools.product(b.carrier.elements, repeat=2):
            for a in b.chain.levels:
                if f(s.bjoin[(x, s.smeet[(a, y)])]) != s2.bjoin[(f(x), s2.smeet[(a, f(y))])]:
                    return False
    return True


class CubeStructure(NamedTuple):
    """Coordinatewise biconvex structure on chain^arity with level maps phi."""

    structure: BiconvexStructure
    phis: list[dict[Level, Level]]


def weight_maps(chain: Chain) -> list[dict[Level, Level]]:
    """Every non-decreasing level map fixing 0 and 1, in lexicographic
    order of its interior values."""
    interior = chain.levels[1:-1]
    return [
        {chain.zero: chain.zero, chain.one: chain.one, **dict(zip(interior, combo))}
        for combo in itertools.combinations_with_replacement(chain.levels, len(interior))
    ]


def _validate_phi(chain: Chain, phi: Mapping[Level, Level]) -> dict[Level, Level]:
    fixed = {}
    for a in chain.levels:
        if a not in phi:
            raise ValidationError(f"phi missing level {a}")
        fixed[a] = chain.level(phi[a])
    if fixed[chain.zero] != chain.zero or fixed[chain.one] != chain.one:
        raise ValidationError("phi must fix the endpoints 0 and 1")
    for a, c in zip(chain.levels, chain.levels[1:]):
        if fixed[a] > fixed[c]:
            raise ValidationError("phi must be non-decreasing")
    return fixed


def cube_structure(chain: Chain, phis: list[Mapping[Level, Level]]) -> CubeStructure:
    """Product of copies of the chain with per-coordinate weight maps.

    Joins and meets are coordinatewise; the actions apply phi_a to the
    weight in coordinate a before the coordinatewise min/max.
    """
    if not phis:
        raise ValidationError("a cube needs at least one coordinate")
    _check_cube_size(chain.k, len(phis))
    fixed = [_validate_phi(chain, phi) for phi in phis]
    arity = len(fixed)
    tuples = list(itertools.product(chain.levels, repeat=arity))
    names = {t: ",".join(str(v.value) for v in t) for t in tuples}
    carrier = FiniteSpace([names[t] for t in tuples])
    bjoin = {}
    bmeet = {}
    for t1, t2 in itertools.product(tuples, repeat=2):
        bjoin[(names[t1], names[t2])] = names[tuple(map(max, t1, t2))]
        bmeet[(names[t1], names[t2])] = names[tuple(map(min, t1, t2))]
    smeet = {}
    sjoin = {}
    for a in chain.levels:
        for t in tuples:
            smeet[(a, names[t])] = names[tuple(min(f[a], v) for f, v in zip(fixed, t))]
            sjoin[(a, names[t])] = names[tuple(max(f[a], v) for f, v in zip(fixed, t))]
    structure = BiconvexStructure(carrier, chain, bjoin, bmeet, smeet, sjoin)
    return CubeStructure(structure, fixed)


def chain_model(chain: Chain) -> BiconvexStructure:
    """The chain itself: joins are max, meets are min, both actions direct."""
    identity = {a: a for a in chain.levels}
    return cube_structure(chain, [identity]).structure


def diamond_structure(chain: Chain) -> BiconvexStructure:
    """2 x 2 diamond with coordinatewise actions; interior weights act as 0."""
    bits = ["00", "01", "10", "11"]
    carrier = FiniteSpace(bits)
    def pack(i, j):
        return f"{i}{j}"
    bjoin = {}
    bmeet = {}
    for x, y in itertools.product(bits, repeat=2):
        bjoin[(x, y)] = pack(max(int(x[0]), int(y[0])), max(int(x[1]), int(y[1])))
        bmeet[(x, y)] = pack(min(int(x[0]), int(y[0])), min(int(x[1]), int(y[1])))
    smeet = {}
    sjoin = {}
    for a in chain.levels:
        bit = 1 if a == chain.one else 0
        for x in bits:
            smeet[(a, x)] = pack(min(bit, int(x[0])), min(bit, int(x[1])))
            sjoin[(a, x)] = pack(max(bit, int(x[0])), max(bit, int(x[1])))
    return BiconvexStructure(carrier, chain, bjoin, bmeet, smeet, sjoin)


class EmbeddingSearchResult(NamedTuple):
    """Outcome of the bounded coordinate-embedding search."""

    found: bool
    arity: int | None
    assignment: dict[str, tuple] | None   # element -> tuple of levels
    phis: list[dict[Level, Level]] | None
    max_arity: int
    candidates: int                        # coordinate pairs that satisfied the laws


def _coordinate_candidates(b: BiconvexStructure) -> list[tuple[dict, dict]]:
    """All (phi, g) pairs making g a single cube coordinate; lex ordered.

    phi runs over the monotone level maps fixing 0 and 1, and g over the
    maps X -> chain that satisfy every cell of the four tables:
    g(x bjoin y) = max(g x, g y), g(x bmeet y) = min(g x, g y),
    g(a smeet x) = min(phi a, g x) and g(a sjoin x) = max(phi a, g x).

    g is built by backtracking: carrier positions are assigned in order,
    each with the levels from the bottom up, so complete maps are reached
    in itertools.product order.  Each equation reads g at most at three
    positions and is checked right after the last of them is assigned; a
    partial map that fails it is not extended.  A map passing every
    equation is reached, since each of its prefixes passes the equations
    it fixes, and a map failing one is not, so the result is exactly that
    of a scan over all (k+1)^|X| maps.  Nothing here assumes the tables
    are lawful.  On lawful tables most prefixes fail early: g preserves
    joins and meets iff every threshold set {x : g x >= j} is a prime
    filter (Davey and Priestley, Introduction to Lattices and Order), so
    on an arity-2 cube at k=3 the search extends about a hundred partial
    maps per phi, where a scan would test 4^16 complete ones.
    """
    chain = b.chain
    X = b.carrier.elements
    pos = b.carrier.index
    levels = chain.levels
    n = len(X)
    # equations keyed by the carrier position where their last cell is
    # assigned; cells are carrier positions and g values level indices
    lattice = [[] for _ in X]
    action = [[] for _ in X]
    for x, y in itertools.product(X, repeat=2):
        for table, op in ((b.bjoin, max), (b.bmeet, min)):
            cells = (pos[table[(x, y)]], pos[x], pos[y])
            lattice[max(cells)].append((op, *cells))
    for ai, a in enumerate(levels):
        for x in X:
            for table, op in ((b.smeet, min), (b.sjoin, max)):
                cells = (pos[table[(a, x)]], pos[x])
                action[max(cells)].append((op, cells[0], ai, cells[1]))
    out = []
    for phi in weight_maps(chain):
        weight = [phi[a].i for a in levels]
        g = [0] * n

        def holds(p: int) -> bool:
            for op, z, x, y in lattice[p]:
                if g[z] != op(g[x], g[y]):
                    return False
            for op, z, a, x in action[p]:
                if g[z] != op(weight[a], g[x]):
                    return False
            return True

        def extend(p: int) -> None:
            if p == n:
                out.append((phi, dict(zip(X, (levels[v] for v in g)))))
                return
            for v in range(len(levels)):
                g[p] = v
                if holds(p):
                    extend(p + 1)

        extend(0)
    return out


def embedding_search(b: BiconvexStructure, max_arity: int = 2) -> EmbeddingSearchResult:
    """Bounded search for an operation-preserving injection into a cube.

    Coordinates are (phi, g) pairs where g turns joins, meets, and both
    actions into their coordinatewise forms.  _coordinate_candidates
    lists all of them, in lexicographic order, by backtracking over g;
    the list is exact on any tables, lawful or not.  The search scans
    candidate tuples of up to max_arity coordinates in lexicographic
    order and returns the first whose combined map is injective.  A
    negative result only certifies exhaustion up to max_arity.
    """
    candidates = _coordinate_candidates(b)
    X = b.carrier.elements
    for arity in range(1, max_arity + 1):
        for combo in itertools.combinations(range(len(candidates)), arity):
            images = {
                x: tuple(candidates[i][1][x] for i in combo) for x in X
            }
            if len(set(images.values())) == len(X):
                return EmbeddingSearchResult(
                    found=True,
                    arity=arity,
                    assignment=images,
                    phis=[candidates[i][0] for i in combo],
                    max_arity=max_arity,
                    candidates=len(candidates),
                )
    return EmbeddingSearchResult(
        found=False,
        arity=None,
        assignment=None,
        phis=None,
        max_arity=max_arity,
        candidates=len(candidates),
    )


def enumerate_biconvex_structures(
    space: FiniteSpace, chain: Chain
) -> Iterator[BiconvexStructure]:
    """All valid biconvex structures on the carrier-order chain lattice.

    Carriers up to 3 elements are always chain lattices up to
    relabeling, so the lattice is pinned to the element order.  The
    actions are the closed forms a*x = m(a) meet x and a+x = p(a) join x
    of the lawful triples on it, in ``enumerate_lawful_triples`` order;
    each structure is re-checked against the full law list.
    """
    if len(space) > 3 or chain.k > 2:
        raise BudgetExceededError("biconvex enumeration is limited to |X| <= 3, k <= 2")
    X = space.elements
    idx = space.index
    bjoin = {
        (x, y): (x if idx[x] >= idx[y] else y)
        for x, y in itertools.product(X, repeat=2)
    }
    bmeet = {
        (x, y): (x if idx[x] <= idx[y] else y)
        for x, y in itertools.product(X, repeat=2)
    }
    for t in enumerate_lawful_triples(space, chain, bjoin, bmeet):
        b = biconvex_from_triple(t)
        if not check_biconvex(b):
            yield b
