"""Idempotent convex combinations and algebras for the possibility submonad.

A convex structure gives a binary combination ic(x, a, y) ("keep x, add
y with weight a").  Its five finite axioms make the slice at weight 1 a
join semilattice, and the whole table equivalent to an algebra
structure for the possibility-capacity monad: the structure map sends a
density c to the join of the combinations ic(x0, a, x) over all points
x and weights a <= c(x), where x0 is any point of density 1.  The dual
structure ci(x, a, y) plays the same role for necessity capacities with
joins and meets, 0 and 1 exchanged.

The quotient construction turns a convex structure into a semimodule
over the chain: pairs (x, a) are identified when they act identically
on every base point, addition is the pointwise derived join, and
scaling re-weights each coordinate.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple

from .chain import Chain, Level
from .errors import BudgetExceededError, CarrierMismatchError, ValidationError
from .capacity import (
    NecessityCapacity,
    PossibilityCapacity,
    StructureMap,
    _exhaustive_densities,
    capacity_pool,
    pinned_table,
)
from .spaces import FiniteSpace, PointMap, TableStructure


class _CombinationTable(TableStructure):
    """Carrier + chain + a total table t(x, a, y), under the one name the
    subclass declares (``ic`` or ``ci``)."""

    __slots__ = ()

    def __init_subclass__(cls):
        (cls._name,) = cls._tables

    @property
    def _table(self) -> dict[tuple[str, Level, str], str]:
        return getattr(self, self._name)


class ConvexStructure(_CombinationTable):
    """Carrier + chain + total combination table ic(x, a, y)."""

    _tables = {"ic": "xax"}
    __slots__ = tuple(_tables)

    def join(self, x: str, y: str) -> str:
        """Derived semilattice join: the combination at weight 1."""
        return self.ic[(x, self.chain.one, y)]


class DualConvexStructure(_CombinationTable):
    """Carrier + chain + total dual combination table ci(x, a, y)."""

    _tables = {"ci": "xax"}
    __slots__ = tuple(_tables)

    def meet(self, x: str, y: str) -> str:
        """Derived semilattice meet: the dual combination at weight 0."""
        return self.ci[(x, self.chain.zero, y)]


def _axiom_violations(s: _CombinationTable, unit: Level, absorb: Level, bound) -> Iterator[str]:
    """The five combination axioms for a table whose weight ``unit`` keeps
    the left point and whose weight ``absorb`` is the derived semilattice
    operation; ``bound`` combines the two weights of axiom 3.  Lazy, one
    violation text at a time, so a caller may stop at the first."""
    name = s._name
    X = s.carrier.elements
    levels = s.chain.levels
    t = s._table
    for x in X:
        for a in levels:
            if t[(x, a, x)] != x:
                yield f"axiom-1: {name}({x},{a},{x}) = {t[(x, a, x)]} != {x}"
    for x, y in itertools.product(X, repeat=2):
        if t[(x, absorb, y)] != t[(y, absorb, x)]:
            yield f"axiom-4: {name}({x},{absorb},{y}) != {name}({y},{absorb},{x})"
        if t[(x, unit, y)] != x:
            yield f"axiom-5: {name}({x},{unit},{y}) = {t[(x, unit, y)]} != {x}"
    for x, y, z in itertools.product(X, repeat=3):
        for a, b in itertools.product(levels, repeat=2):
            lhs = t[(t[(x, a, y)], b, z)]
            rhs = t[(t[(x, b, z)], a, y)]
            if lhs != rhs:
                yield (
                    f"axiom-2: (({x},{a},{y}),{b},{z}) "
                    f"gives {lhs} vs {rhs}"
                )
            lhs3 = t[(x, a, t[(y, b, z)])]
            rhs3 = t[(t[(x, a, y)], bound(a, b), z)]
            if lhs3 != rhs3:
                yield (
                    f"axiom-3: ({x},{a},({y},{b},{z})) "
                    f"gives {lhs3} vs {rhs3}"
                )


def check_ic_axioms(s: ConvexStructure) -> list[str]:
    """Diagnostics for the five combination axioms; empty means valid."""
    return list(_axiom_violations(s, s.chain.zero, s.chain.one, min))


def check_ci_axioms(s: DualConvexStructure) -> list[str]:
    """Dual axioms: joins and meets, 0 and 1 exchanged throughout."""
    return list(_axiom_violations(s, s.chain.one, s.chain.zero, max))


def nary_combination(s: ConvexStructure, coeffs, points) -> str:
    """Fold of binary combinations for a weight tuple with maximum 1.

    The base point is the first one carrying weight 1; the remaining
    points fold in order.  The combination axioms make the result
    independent of both choices, which the law suites verify.
    """
    coeffs = [s.chain.level(a) for a in coeffs]
    points = list(points)
    if len(coeffs) != len(points):
        raise ValidationError("weights and points differ in length")
    if not points:
        raise ValidationError("n-ary combination needs at least one point")
    for p in points:
        if p not in s.carrier.index:
            raise ValidationError(f"{p!r} is not in the carrier")
    if max(coeffs) != s.chain.one:
        raise ValidationError("weight tuple must attain 1")
    base = next(i for i, a in enumerate(coeffs) if a == s.chain.one)
    acc = points[base]
    for i, (a, p) in enumerate(zip(coeffs, points)):
        if i == base:
            continue
        acc = s.ic[(acc, a, p)]
    return acc


def density_key(p: PossibilityCapacity) -> tuple[int, ...]:
    """The weight ranks of the density p in carrier order: the key of a
    union map's table."""
    return tuple(p._sup.get(x, 0) for x in p.carrier.elements)


class UnionStructureMap(StructureMap):
    """Structure map for possibility capacities: a table or a convex structure."""

    __slots__ = ()
    _kind = "union"
    _key = staticmethod(density_key)

    @classmethod
    def from_convex(cls, s: ConvexStructure) -> "UnionStructureMap":
        return cls(s.carrier, s.chain, structure=s)

    def _evaluate(self, c: PossibilityCapacity) -> str:
        return structure_map_from_ic(self._structure, c)


def _fold(s, c, anchor: Level, admitted, base_point):
    """Fold t(x0, a, x) over points x and the levels a that ``admitted``
    picks from the chain's levels at the weight rank of x, from a base
    point x0 of weight ``anchor``.

    ``anchor`` is also the weight at which the table is the derived
    semilattice operation that combines the terms: 1 (join) for ic and
    0 (meet) for ci.  Points and levels are visited in carrier and chain
    order.
    """
    if c.carrier != s.carrier or c.chain != s.chain:
        raise CarrierMismatchError("capacity and structure do not match")
    fill = c._ends(c.chain)[0].i
    w = {x: c._sup.get(x, fill) for x in s.carrier.elements}
    if base_point is None:
        base_point = next(x for x, r in w.items() if r == anchor.i)
    elif w.get(base_point) != anchor.i:
        raise ValidationError(f"base point {base_point!r} does not have {c._name} {anchor}")
    t = s._table
    levels = s.chain.levels
    acc = base_point
    for x, r in w.items():
        for a in admitted(levels, r):
            acc = t[(acc, anchor, t[(base_point, a, x)])]
    return acc


def structure_map_from_ic(
    s: ConvexStructure, c: PossibilityCapacity, base_point: str | None = None
) -> str:
    """Join of ic(x0, a, x) over points x and weights a <= density(x).

    x0 is a point of density 1 (the first such in carrier order unless
    given); the result does not depend on the choice.
    """
    return _fold(s, c, s.chain.one, lambda levels, r: levels[:r + 1], base_point)


def ic_from_structure_map(xi: UnionStructureMap) -> ConvexStructure:
    """Recover the combination table: ic(x, a, y) = xi(density 1 at x, a at y)."""
    carrier, chain = xi.carrier, xi.chain
    table = pinned_table(PossibilityCapacity, carrier, chain, carrier.elements, chain.levels, xi)
    return ConvexStructure(carrier, chain, table)


# random outer densities drawn when the multiplication law is not exhaustive
_LAW_SAMPLES = 200


def _sampled_density(names: FiniteSpace, chain: Chain, rng) -> PossibilityCapacity:
    dens = {n: rng.choice(chain.levels) for n in names.elements}
    dens[rng.choice(names.elements)] = chain.one
    return PossibilityCapacity(names, chain, dens)


def _union_law_cases(xi: UnionStructureMap, samples: int, seed: int) -> Iterator[tuple]:
    """(subject, case): the unit law at every point, then the multiplication
    law at outer densities on the possibility pool, exhaustively when there
    are at most ``EXHAUSTIVE_DENSITY_LIMIT`` of them, otherwise at
    ``samples`` seeded random outer densities."""
    for x in xi.carrier.elements:
        yield x, xi.unit_case(x)
    pool = capacity_pool(xi.carrier, xi.chain, "union")
    outers = _exhaustive_densities(pool.names, xi.chain)
    if outers is None:
        rng = random.Random(seed)
        outers = (_sampled_density(pool.names, xi.chain, rng) for _ in range(samples))
    for outer in outers:
        yield outer, xi.mult_case(outer, pool)


def check_algebra_laws(
    xi: UnionStructureMap, samples: int = _LAW_SAMPLES, seed: int = 0
) -> list[str]:
    """Unit and multiplication laws for a possibility-monad algebra, one
    text per failing case of ``_union_law_cases``."""
    out: list[str] = []
    for subject, case in _union_law_cases(xi, samples, seed):
        if case.held:
            continue
        if isinstance(subject, str):
            out.append(f"unit-law: xi(dirac {subject}) = {case.got}")
        else:
            dens_str = ",".join(map(str, subject.density.values()))
            out.append(
                f"mult-law: outer density ({dens_str}) gives xi(mult)={case.got} "
                f"but xi(map xi)={case.want}"
            )
    return out


def is_affine(f: PointMap, s: ConvexStructure, s2: ConvexStructure) -> bool:
    """Does f carry every combination of s to the same combination in s2?"""
    if f.source != s.carrier or f.target != s2.carrier:
        raise CarrierMismatchError("map endpoints do not match the structures")
    if s.chain != s2.chain:
        raise ValidationError("structures use different chains")
    for x, y in itertools.product(s.carrier.elements, repeat=2):
        for a in s.chain.levels:
            if f(s.ic[(x, a, y)]) != s2.ic[(f(x), a, f(y))]:
                return False
    return True


def dual_structure_map(
    s: DualConvexStructure, c: NecessityCapacity, base_point: str | None = None
) -> str:
    """Meet of ci(x0, a, x) over points x and weights a >= codensity(x).

    x0 is a point of codensity 0; independence from the choice mirrors
    the possibility side.
    """
    return _fold(s, c, s.chain.zero, lambda levels, r: levels[r:], base_point)


class Semimodule(TableStructure):
    """Explicit (join, scale) tables over the chain with a designated zero."""

    _tables = {"add": "xx", "scale": "ax", "zero": ""}
    __slots__ = tuple(_tables)


def check_semimodule_axioms(m: Semimodule) -> list[str]:
    """The seven semimodule axioms over (chain, max, min)."""
    out: list[str] = []
    X = m.carrier.elements
    add, scale = m.add, m.scale
    for x, y in itertools.product(X, repeat=2):
        if add[(x, y)] != add[(y, x)]:
            out.append(f"axiom-1: {x}+{y} != {y}+{x}")
    for x, y, z in itertools.product(X, repeat=3):
        if add[(add[(x, y)], z)] != add[(x, add[(y, z)])]:
            out.append(f"axiom-2: ({x}+{y})+{z} != {x}+({y}+{z})")
    for x in X:
        if add[(x, m.zero)] != x:
            out.append(f"axiom-3: {x}+zero = {add[(x, m.zero)]} != {x}")
    for a in m.chain.levels:
        for x, y in itertools.product(X, repeat=2):
            if scale[(a, add[(x, y)])] != add[(scale[(a, x)], scale[(a, y)])]:
                out.append(f"axiom-4: {a}({x}+{y}) mismatch")
    for a, b in itertools.product(m.chain.levels, repeat=2):
        for x in X:
            if scale[(max(a, b), x)] != add[(scale[(a, x)], scale[(b, x)])]:
                out.append(
                    f"axiom-4: (max({a},{b})){x} mismatch"
                )
            if scale[(min(a, b), x)] != scale[(a, scale[(b, x)])]:
                out.append(
                    f"axiom-5: (min({a},{b})){x} mismatch"
                )
    for x in X:
        if scale[(m.chain.one, x)] != x:
            out.append(f"axiom-6: 1*{x} = {scale[(m.chain.one, x)]} != {x}")
        if scale[(m.chain.zero, x)] != m.zero:
            out.append(f"axiom-7: 0*{x} = {scale[(m.chain.zero, x)]} != zero")
    return out


class QuotientSemimodule(NamedTuple):
    """Result of the quotient construction for a convex structure."""

    semimodule: Semimodule
    embedding: PointMap


def quotient_semimodule(s: ConvexStructure) -> QuotientSemimodule:
    """Pairs (x, a) modulo equal action tuples (ic(t, a, x) for base points t).

    Addition is the pointwise derived join of action tuples and scaling
    by b rewrites each coordinate t to ic(t, b, value); both are closed
    on the quotient because of the combination axioms.  The zero class
    is the identity tuple (weight 0), and x embeds as its weight-1 pair.
    """
    X = s.carrier.elements
    tuples = {tuple(s.ic[(base, a, x)] for base in X) for x in X for a in s.chain.levels}
    order = sorted(tuples, key=lambda t: tuple(s.carrier.index[e] for e in t))
    names = {t: f"q{i}" for i, t in enumerate(order)}
    carrier = FiniteSpace([names[t] for t in order])

    def lookup(t: tuple, what: str) -> str:
        if t not in names:
            raise ValidationError(
                f"quotient {what} escapes the class set; the input structure "
                "does not satisfy the combination axioms"
            )
        return names[t]

    add: dict[tuple[str, str], str] = {}
    for t1, t2 in itertools.product(order, repeat=2):
        joined = tuple(s.join(u, v) for u, v in zip(t1, t2))
        add[(names[t1], names[t2])] = lookup(joined, "addition")

    scale: dict[tuple[Level, str], str] = {}
    for b in s.chain.levels:
        for t in order:
            scaled = tuple(s.ic[(base, b, v)] for base, v in zip(X, t))
            scale[(b, names[t])] = lookup(scaled, "scaling")

    module = Semimodule(carrier, s.chain, add, scale, lookup(tuple(X), "zero"))

    # x's weight-1 tuple is one of the classes by construction, so it cannot escape
    embed_table = {
        x: names[tuple(s.ic[(base, s.chain.one, x)] for base in X)] for x in X
    }
    return QuotientSemimodule(module, PointMap(s.carrier, carrier, embed_table))


def enumerate_join_tables(space: FiniteSpace) -> Iterator[dict[tuple[str, str], str]]:
    """All commutative idempotent associative binary tables on the space."""
    X = space.elements
    pairs = [(X[i], X[j]) for i in range(len(X)) for j in range(i + 1, len(X))]
    for combo in itertools.product(X, repeat=len(pairs)):
        table = {(x, x): x for x in X}
        for (x, y), z in zip(pairs, combo):
            table[(x, y)] = z
            table[(y, x)] = z
        if all(
            table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
            for x, y, z in itertools.product(X, repeat=3)
        ):
            yield table


def enumerate_convex_structures(
    space: FiniteSpace, chain: Chain
) -> Iterator[ConvexStructure]:
    """All valid convex structures on small carriers, in a fixed order.

    The weight-0 and weight-1 slices and the diagonal are forced by
    axioms 1, 4, 5, so only interior off-diagonal cells vary; the
    remaining axioms are checked on each candidate.
    """
    if len(space) > 3 or chain.k > 2:
        raise BudgetExceededError("convex-structure enumeration is limited to |X| <= 3, k <= 2")
    X = space.elements
    interior = chain.levels[1:-1]
    free_cells = [
        (x, a, y)
        for x in X
        for a in interior
        for y in X
        if x != y
    ]
    for join_table in enumerate_join_tables(space):
        base: dict[tuple[str, Level, str], str] = {}
        for x, y in itertools.product(X, repeat=2):
            base[(x, chain.zero, y)] = x
            base[(x, chain.one, y)] = join_table[(x, y)]
        for x in X:
            for a in chain.levels:
                base[(x, a, x)] = x
        for combo in itertools.product(X, repeat=len(free_cells)):
            table = dict(base)
            for cell, z in zip(free_cells, combo):
                table[cell] = z
            s = ConvexStructure(space, chain, table)
            if next(_axiom_violations(s, chain.zero, chain.one, min), None) is None:
                yield s


def enumerate_union_algebras(
    space: FiniteSpace, chain: Chain
) -> Iterator[UnionStructureMap]:
    """All lawful structure-map tables on carriers of up to 2 elements."""
    if len(space) > 2:
        raise BudgetExceededError("algebra-table enumeration is limited to |X| <= 2")
    keys = [density_key(p) for p in capacity_pool(space, chain, "union")[1].values()]
    for combo in itertools.product(space.elements, repeat=len(keys)):
        xi = UnionStructureMap.from_table(space, chain, dict(zip(keys, combo)))
        if all(case.held for _, case in _union_law_cases(xi, _LAW_SAMPLES, 0)):
            yield xi
