"""Chain-valued capacities on finite spaces and their monad structure.

A capacity assigns a chain level to every subset, is monotone, and sends
the empty set to 0 and the whole space to 1.  Possibility capacities
turn unions into maxima and are determined by a density on points with
maximum 1; necessity capacities turn intersections into minima and are
determined by a codensity (the value on each complement of a point)
with minimum 0.  Both are stored in their one-dimensional form and
evaluate subsets lazily, so they stay usable on carriers far too large
for explicit tables.

The monad: the unit sends a point to its Dirac capacity, the functor
acts by preimage, and the multiplication of an outer capacity over a
carrier of named capacities picks, for each subset F, the largest level
a such that the outer mass of {inner : inner(F) >= a} is itself >= a.
Possibility and necessity capacities form submonads: a density outer D
over densities d_n flattens to the density max_n min(D(n), d_n), and a
codensity outer over codensities to a codensity; ``mult`` computes both
in closed form.  No monad operation builds a table: each returns a
density or codensity when its result is one by construction, and a lazy
view otherwise, at every carrier size; ``as_capacity`` tabulates.
"""

from __future__ import annotations

import itertools
import weakref
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .chain import Chain, Level
from .errors import (
    BudgetExceededError,
    CarrierMismatchError,
    LawViolationError,
    ValidationError,
)
from .spaces import FiniteSpace, InclusionHyperspace, MemberKind, PointMap, Pool, Subset

# explicit tables hold 2^n entries; keep that honest
_MAX_TABLE_CARRIER = 16
# default guard for enumeration: (2^|X| - 1) * (k + 1)
DEFAULT_ENUMERATION_BUDGET = 64
# a cube holds (k + 1)^A points: 81 at k=2 and A=4, 64 at k=3 and A=3
_MAX_CUBE_POINTS = 81
# sweeps over every density on a carrier of names run up to this many
EXHAUSTIVE_DENSITY_LIMIT = 1024
# capacity_pool entries: a suite works on at most three spaces, each with
# all three capacity classes
POOL_SIZE = 9


def _check_table_size(carrier: FiniteSpace) -> None:
    if len(carrier) > _MAX_TABLE_CARRIER:
        raise BudgetExceededError(
            f"explicit tables are limited to carriers of size {_MAX_TABLE_CARRIER}"
        )


class SetFunction:
    """Explicit subset -> level table, kept as ranks; not necessarily a capacity."""

    __slots__ = ("carrier", "chain", "_by_subset")

    def __init__(self, carrier: FiniteSpace, chain: Chain, table: Mapping[Subset, Level]):
        _check_table_size(carrier)
        fixed: list[int] = []
        for s in carrier.subsets(include_empty=True):
            if s not in table:
                raise ValidationError(f"missing value for subset {sorted(s)}")
            fixed.append(chain.level(table[s]).i)
        self.carrier = carrier
        self.chain = chain
        self._by_subset = tuple(fixed)

    @property
    def table(self) -> Mapping[Subset, Level]:
        """The level at each subset, in ``subset_keys`` order, read-only and built on each read."""
        levels, keys = self.chain.levels, self.carrier.subset_keys()
        return MappingProxyType({s: levels[r] for s, r in zip(keys, self._by_subset)})

    def value(self, members: Subset) -> Level:
        at = self.carrier.subset_positions().get(frozenset(members))
        if at is None:
            raise ValidationError(f"{sorted(members)} is not a subset of the carrier")
        return self.chain.levels[self._by_subset[at]]

    def __eq__(self, other):
        return (
            isinstance(other, SetFunction)
            and other.carrier == self.carrier
            and other.chain == self.chain
            and other._by_subset == self._by_subset
        )

    def __hash__(self):
        return hash((self.carrier, self.chain, canonical_key(self)))

    def __repr__(self):
        parts = [f"{{{self.carrier.subset_keys()[s]}}}:{v}" for s, v in self.table.items()]
        return f"{type(self).__name__}({'; '.join(parts)})"


class Capacity(SetFunction):
    """A normalized monotone set function, table-backed."""

    __slots__ = ()

    def __init__(self, carrier, chain, table):
        super().__init__(carrier, chain, table)
        problems = validate(self)
        if problems:
            raise ValidationError("; ".join(problems))

    @classmethod
    def _trusted(cls, carrier, chain, ranks: tuple[int, ...]) -> "Capacity":
        """Wrap ranks known to be a capacity's, without re-checking them:
        a rank of ``chain`` at every subset, in ``subset_keys`` order,
        monotone and normalized."""
        c = object.__new__(cls)
        c.carrier, c.chain, c._by_subset = carrier, chain, ranks
        return c


class _PointwiseCapacity:
    """Carrier + chain + one validated level per point, read under the name
    ``_name`` (``density`` or ``codensity``); missing points get the level
    ``_fill`` (0 or 1), and ``_bound`` (max or min) of all must be 1 - _fill.
    Only ``_sup`` is kept: the rank of each point off the fill, the support.
    """

    __slots__ = ("carrier", "chain", "_sup")
    _bound = staticmethod(max)

    def __init__(self, carrier: FiniteSpace, chain: Chain, weights: Mapping[str, Level]):
        for x in weights:
            if x not in carrier.index:
                raise ValidationError(f"{self._name} key {x!r} is not in the carrier")
        fill, pin = self._ends(chain)
        # the fill is a level of the chain already: coerce the given weights only
        given = {x: chain.level(v).i for x, v in weights.items()}
        sup = {x: r for x, r in given.items() if r != fill.i}
        if pin.i not in sup.values():
            raise ValidationError(f"a {self._side} {self._name} must attain {pin}")
        self.carrier, self.chain, self._sup = carrier, chain, sup

    @classmethod
    def _trusted(cls, carrier: FiniteSpace, chain: Chain, sup: dict[str, int]):
        """The capacity with the support ranks ``sup``, unchecked: each must
        be off the fill, and one must be 1 - _fill."""
        c = object.__new__(cls)
        c.carrier, c.chain, c._sup = carrier, chain, sup
        return c

    @classmethod
    def _ends(cls, chain: Chain) -> tuple[Level, Level]:
        return (chain.one, chain.zero) if cls._fill else (chain.zero, chain.one)

    @property
    def _weights(self) -> Mapping[str, Level]:
        """The level of each point, in carrier order, as a read-only mapping built on each read."""
        levels, fill = self.chain.levels, self._ends(self.chain)[0].i
        return MappingProxyType({x: levels[self._sup.get(x, fill)] for x in self.carrier.elements})

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and other.carrier == self.carrier
            and other.chain == self.chain
            and other._sup == self._sup
        )

    def __hash__(self):
        return hash((self.carrier, self.chain, tuple(self._weights.values())))

    def __repr__(self):
        parts = [f"{x}:{w}" for x, w in self._weights.items()]
        return f"{type(self).__name__}({', '.join(parts)})"

    def value(self, members: Subset) -> Level:
        """0 at the empty set, else the bound of the weights at the members
        (a density) or outside them (a codensity; 1 when none is)."""
        members = frozenset(members)
        bad = members - self.carrier.universe
        if bad:
            raise ValidationError(f"{sorted(bad)} are not elements of the carrier")
        return self.chain.levels[self._rank(members)]

    def _rank(self, members) -> int:
        """``value``'s rank at a set of carrier names, read on the support."""
        if self._fill:
            return min((r for x, r in self._sup.items() if x not in members), default=self.chain.k)
        return max((r for x, r in self._sup.items() if x in members), default=0)


class PossibilityCapacity(_PointwiseCapacity):
    """Capacity determined by a point density with maximum 1."""

    __slots__ = ()
    _side, _name, _fill, _law = "possibility", "density", 0, "union"
    density = _PointwiseCapacity._weights


class NecessityCapacity(_PointwiseCapacity):
    """Capacity determined by its values on complements of points (codensity, min 0)."""

    __slots__ = ()
    _side, _name, _fill, _law = "necessity", "codensity", 1, "intersection"
    codensity = _PointwiseCapacity._weights
    _bound = staticmethod(min)


# the capacity classes of the one-dimensional forms
_POINTWISE = {"union": PossibilityCapacity, "intersection": NecessityCapacity}


class PushforwardView:
    """Lazy image capacity F -> c(f^{-1}(F)), at any target size."""

    __slots__ = ("carrier", "chain", "map", "source")

    def __init__(self, f: PointMap, c):
        if c.carrier != f.source:
            raise CarrierMismatchError("capacity carrier differs from the map source")
        self.carrier = f.target
        self.chain = c.chain
        self.map = f
        self.source = c

    def value(self, members: Subset) -> Level:
        return self.source.value(self.map.preimage(self.carrier.subset(members)))


def _support(outer) -> tuple[str, ...]:
    """Names of the outer's carrier that its value can see: C(A) equals
    C(A & support) for every A.  They are the non-fill names of a density
    or codensity, the image of a pushforward view's map, the union of the
    supports of the inner capacities a multiplication view reads, and
    every name of any other capacity."""
    if isinstance(outer, _PointwiseCapacity):
        return tuple(outer._sup)
    if isinstance(outer, PushforwardView):
        return tuple(dict.fromkeys(outer.map.table.values()))
    if isinstance(outer, MultView):
        return tuple(dict.fromkeys(n for m in outer._support for n in _support(outer.pool.members[m])))
    return outer.carrier.elements


class MultView:
    """Monad multiplication, evaluated one subset at a time.

    Each inner capacity, in ``pool``, is read only at ``support``, the
    outer's ``_support``, which ``mult`` computes once for its closed form.
    A density outer d gives max_n min(d(n), c_n(F)) and a codensity outer e
    gives min_n max(e(n), c_n(F)); any other outer is scanned level by
    level, from the top, for the first a with C({n : c_n(F) >= a}) >= a.
    ``mult`` returns it at every base size unless its closed form applies.
    """

    __slots__ = ("carrier", "chain", "outer", "pool", "_support", "_flat")

    def __init__(self, outer, pool: Pool, support: tuple[str, ...]):
        self.carrier = pool.base
        self.chain = outer.chain
        self.outer = outer
        self.pool = pool
        self._support = support
        self._flat = self._flatten()

    def value(self, members: Subset) -> Level:
        return self.chain.levels[self._rank(self.carrier.subset(members))]

    def _rank(self, members) -> int:
        """``value``'s rank at a set of base names: 0 at the empty set."""
        if not members:
            return 0
        return self._flat([_read(self.pool.members[n], members) for n in self._support])

    def _flatten(self):
        """The view's rank at a nonempty subset from the inner ranks there,
        one per support name: max-min for a density outer, min-max for a
        codensity outer, and for any other outer the first level a, from the
        top, whose level set has outer rank >= a (read once per view)."""
        outer, support = self.outer, self._support
        if isinstance(outer, _PointwiseCapacity):
            bound, fill = outer._bound, outer._ends(self.chain)[0].i
            cross = min if bound is max else max
            w = [outer._sup.get(n, fill) for n in support]
            return lambda column: bound(map(cross, w, column))
        top, seen = range(self.chain.k, 0, -1), {}

        def rank_at(column, a: int) -> int:
            level_set = frozenset(n for n, v in zip(support, column) if v >= a)
            if level_set not in seen:
                seen[level_set] = _read(outer, level_set)
            return seen[level_set]
        return lambda column: next((a for a in top if rank_at(column, a) >= a), 0)


CapacityLike = SetFunction | PossibilityCapacity | NecessityCapacity | PushforwardView | MultView


def _fold(c) -> list[int]:
    """Ranks, in ``subset_keys`` order, of the density or codensity c.  A
    density's are built by mask one point at a time: a mask with the point's
    bit raises the rank without it to the point's weight.  A codensity's are
    its conjugate density's, conjugated, at the mirrored positions."""
    sup = {x: c.chain.k - r for x, r in c._sup.items()} if c._fill else c._sup
    by_mask = [0]
    for w in (sup.get(x, 0) for x in c.carrier.elements):
        by_mask += [r if r > w else w for r in by_mask]
    ranks = [by_mask[m] for m in c.carrier.subset_masks()[0]]
    return [c.chain.k - r for r in reversed(ranks)] if c._fill else ranks


def _read(c, members: Subset) -> int:
    """The rank of c at a set of its carrier's names: a density's,
    codensity's or multiplication view's own ``_rank``, unchecked, and any
    other's through its ``value``."""
    if isinstance(c, (_PointwiseCapacity, MultView)):
        return c._rank(members)
    return c.chain.level(c.value(members)).i


def _ranks(c) -> list[int]:
    """The ranks of the capacity-like c, at most 16 points, in ``subset_keys``
    order: a table's own, a density's or codensity's fold, a pushforward
    view's source ranks at each preimage mask, and a multiplication view's
    flattening of its inner rank vectors (their pool's keys); anything else
    is read per subset."""
    if isinstance(c, SetFunction):
        return list(c._by_subset)
    if isinstance(c, _PointwiseCapacity):
        return _fold(c)
    carrier = c.carrier
    if isinstance(c, PushforwardView) and len(c.map.source) <= _MAX_TABLE_CARRIER:
        f, source = c.map, _ranks(c.source)
        # the preimage of each target point as a mask, then of each target mask
        fiber = [0] * len(carrier)
        for b, x in enumerate(f.source.elements):
            fiber[carrier.index[f.table[x]]] |= 1 << b
        pre = [0]
        for bit in fiber:
            pre += [m | bit for m in pre]
        at = f.source.subset_masks()[1]
        return [source[at[pre[m]]] for m in carrier.subset_masks()[0]]
    if isinstance(c, MultView):  # 0 at the empty set, as MultView.value reads it
        return [0, *map(c._flat, zip(*map(c.pool.key, c._support)))]
    return [_read(c, s) for s in carrier.subsets(include_empty=True)]


def canonical_key(c: CapacityLike) -> tuple[int, ...]:
    """The ranks of c at the nonempty subsets, in canonical order: the key
    of every table keyed by capacities, pools and full structure maps."""
    return tuple(_ranks(c)[1:])


CAPACITIES = MemberKind("capacity", "capacities", canonical_key)


def validate(sf) -> list[str]:
    """Diagnostics for the capacity invariants; empty list means valid.

    Monotonicity is checked along covering pairs F vs F + {x}, which
    suffices by transitivity; all checks run on the integer ranks, and a
    diagnostic's text is written only for a failing pair.  Carriers of
    over 16 points are refused.
    """
    carrier, levels = sf.carrier, sf.chain.levels
    _check_table_size(carrier)
    problems: list[str] = []
    ranks = _ranks(sf)
    if ranks[0]:
        problems.append(f"empty-set-nonzero: value(∅)={levels[ranks[0]]}")
    masks, at = carrier.subset_masks()
    by_mask, bits = [ranks[i] for i in at], [1 << b for b in range(len(carrier))]
    for i, (m, v) in enumerate(zip(masks, ranks)):
        for b in bits:  # an x already in F gives F itself, never a violation
            if v > by_mask[m | b]:
                j, keys = at[m | b], list(carrier.subset_keys().values())
                problems.append(f"monotonicity violated at {{{keys[i]}}}⊆{{{keys[j]}}}: "
                                f"{levels[v]} > {levels[ranks[j]]}")
    if ranks[-1] != sf.chain.k:
        problems.append(f"not-normalized: value(X)={levels[ranks[-1]]}")
    return problems


# the classes whose instances were checked to be capacities when built
_CHECKED = frozenset((Capacity, PossibilityCapacity, NecessityCapacity))


def _is_capacity(c) -> bool:
    """Whether c is a capacity by construction: an instance of ``_CHECKED``,
    a pushforward view of one, or a multiplication view of one over such
    inner capacities at its support."""
    if isinstance(c, PushforwardView):
        return _is_capacity(c.source)
    if isinstance(c, MultView):
        return _is_capacity(c.outer) and all(_is_capacity(c.pool.members[n]) for n in c._support)
    return type(c) in _CHECKED


def _checked(c):
    """c itself, refused with ``validate``'s diagnostics when its carrier
    has at most 16 points, it is not a capacity by construction and its
    ranks fail ``validate``."""
    if len(c.carrier) <= _MAX_TABLE_CARRIER and not _is_capacity(c):
        problems = validate(c)
        if problems:
            raise ValidationError("; ".join(problems))
    return c


def as_capacity(c: CapacityLike) -> Capacity:
    """Materialize any capacity-like object as an explicit table; the one
    tabulator.  A carrier of over 16 points is refused before any value is
    read, a set function that is not a capacity by ``_checked``, and the
    table is built from ``_ranks``."""
    if isinstance(c, Capacity):
        return c
    _check_table_size(c.carrier)
    return Capacity._trusted(c.carrier, c.chain, tuple(_ranks(_checked(c))))


def capacity_equal(a: CapacityLike, b: CapacityLike) -> bool:
    """Value-wise equality across representations, on ranks; carriers of
    over 16 points are refused."""
    if a.carrier != b.carrier or a.chain != b.chain:
        return False
    _check_table_size(a.carrier)
    return _ranks(a) == _ranks(b)


def unit_dirac(space: FiniteSpace, chain: Chain, x: str) -> PossibilityCapacity:
    """Dirac capacity of a point, 1 on subsets containing it and else 0, as
    its density; works on carriers of any size."""
    if x not in space.index:
        raise ValidationError(f"{x!r} is not in the space")
    return PossibilityCapacity._trusted(space, chain, {x: chain.k})


def pushforward(f: PointMap, c: CapacityLike) -> CapacityLike:
    """Image capacity F -> c(f^{-1}(F)); preserves the possibility/necessity classes.

    Density and codensity forms push to the same forms, and any other
    input to the lazy view, at any target size; ``_checked`` refuses a view
    that may not be a capacity.
    """
    if c.carrier != f.source:
        raise CarrierMismatchError("capacity carrier differs from the map source")
    chain = c.chain
    if isinstance(c, _PointwiseCapacity):
        # a point's weight is the bound over its fiber, the fill when the
        # fiber misses the support: each support rank folds into its image
        bound, ranks = c._bound, {}
        for x, r in c._sup.items():
            y = f.table[x]
            ranks[y] = bound(ranks.get(y, r), r)
        return type(c)._trusted(f.target, chain, ranks)
    return _checked(PushforwardView(f, c))


def mult(outer: CapacityLike, assignment: Pool | Mapping) -> CapacityLike:
    """Monad multiplication.

    ``outer`` is a capacity over a carrier whose elements name capacities
    on a common base space: ``assignment``, a pool, or a mapping that
    ``Pool.over`` checks into one before any value is read.  For each
    subset F of the base space the result is the largest level a with
    outer({name : assignment[name](F) >= a}) >= a; ``MultView`` evaluates
    it, reading the inner capacities only where the outer looks.  It is
    the closed form where ``_pointwise_mult`` applies, with no view built,
    and otherwise the lazy view, which ``_checked`` refuses when it may not
    be a capacity.
    """
    pool = Pool.over(outer, assignment, CAPACITIES)
    support = _support(outer)
    closed = _pointwise_mult(outer, pool, support)
    return closed if closed is not None else _checked(MultView(outer, pool, support))


def _pointwise_mult(outer, pool: Pool, support):
    """mult as a density or codensity when the outer and every inner
    capacity at its support are of one pointwise class, a submonad
    (Zarichnyi and Nykyforchyn 2008); None otherwise.  Densities flatten to
    the density max_n min(D(n), d_n), codensities to the codensity
    min_n max(E(n), e_n), on the support ranks (the fill is neutral for the
    bound); both are capacities by construction, so not checked again."""
    cls, inner = type(outer), pool.members
    if cls not in _POINTWISE.values() or any(type(inner[n]) is not cls for n in support):
        return None
    chain, bound = outer.chain, cls._bound
    cross = min if bound is max else max
    sup: dict[str, int] = {}
    for n, a in outer._sup.items():
        for x, r in inner[n]._sup.items():
            v = cross(a, r)
            sup[x] = bound(sup.get(x, v), v)
    return cls._trusted(pool.base, chain, sup)


class ClassFlags(NamedTuple):
    is_union: bool
    is_intersection: bool


def _splits(ranks, carrier: FiniteSpace) -> bool:
    """The union law on a capacity's ranks in subset order, in 2^n steps
    (Grabisch 2016): c(F) = max(c(F - {x}), c({x})) at every F of two or
    more points and its first point x.  The intersection law is this test
    on the conjugate ranks k - r, reversed."""
    masks, at = carrier.subset_masks()
    # the singletons sit right after the empty set, in carrier order
    for i in range(len(carrier) + 1, len(masks)):
        m = masks[i]
        if ranks[i] != max(ranks[at[m & (m - 1)]], ranks[at[m & -m]]):
            return False
    return True


def _pointwise_form(cls, c: CapacityLike):
    """The ``cls`` form of the capacity c, or None when c does not satisfy
    the law of ``cls``; a table is decided by ``_splits``."""
    if isinstance(c, _PointwiseCapacity):
        if isinstance(c, cls):
            return c
        # a capacity of both classes is a Dirac capacity: one point off the fill
        pin = cls._ends(c.chain)[1].i
        return cls._trusted(c.carrier, c.chain, dict.fromkeys(c._sup, pin)) if len(c._sup) == 1 else None
    c = as_capacity(c)  # a lazy view becomes a table, refused above 16 points
    ranks = _ranks(c)
    if cls._fill:
        ranks = [c.chain.k - r for r in reversed(ranks)]
    if not _splits(ranks, c.carrier):
        return None
    # the singletons, whose largest rank is c(X), 1: a density by construction
    density = {x: r for x, r in zip(c.carrier.elements, ranks[1:]) if r}
    form = PossibilityCapacity._trusted(c.carrier, c.chain, density)
    return kappa_dual(form) if cls._fill else form


def _as_pointwise(cls, c: CapacityLike):
    """The ``cls`` form of the capacity c; raises ValidationError when c
    does not satisfy the law of ``cls``."""
    form = _pointwise_form(cls, c)
    if form is None:
        raise ValidationError(f"capacity does not satisfy the {cls._law} law")
    return form


def classify(c: CapacityLike) -> ClassFlags:
    """Whether the capacity c satisfies the union (max) and the
    intersection (min) law, each decided by its pointwise form."""
    return ClassFlags(*(_pointwise_form(cls, c) is not None for cls in _POINTWISE.values()))


def as_possibility(c: CapacityLike) -> PossibilityCapacity:
    """Density form of a capacity satisfying the union law."""
    return _as_pointwise(PossibilityCapacity, c)


def as_necessity(c: CapacityLike) -> NecessityCapacity:
    """Codensity form of a capacity satisfying the intersection law."""
    return _as_pointwise(NecessityCapacity, c)


def kappa_dual(c: CapacityLike) -> CapacityLike:
    """Conjugate capacity F -> 1 - c(X \\ F); swaps the two classes.

    Density-backed inputs stay one-dimensional: the conjugate of a
    possibility density d is the necessity codensity 1 - d, and back.
    Any other input is tabulated by ``as_capacity``, which checks it; the
    conjugate of a capacity is one, so it is not checked again.
    """
    chain = c.chain
    if isinstance(c, _PointwiseCapacity):
        other = NecessityCapacity if isinstance(c, PossibilityCapacity) else PossibilityCapacity
        return other._trusted(c.carrier, chain, {x: chain.k - r for x, r in c._sup.items()})
    # the complement of each subset sits at the mirrored position
    return Capacity._trusted(c.carrier, chain, tuple(chain.k - r for r in _ranks(as_capacity(c))[::-1]))


def embed_inclusion_hyperspace(hs: InclusionHyperspace, chain: Chain) -> Capacity:
    """0/1 capacity of a hyperspace: 1 exactly on its members, which are
    nonempty and closed upward, so a capacity by construction."""
    _check_table_size(hs.carrier)
    ranks = tuple(chain.k if s and s in hs else 0 for s in hs.carrier.subset_keys())
    return Capacity._trusted(hs.carrier, chain, ranks)


def check_enumeration_budget(space: FiniteSpace, k: int, budget: int) -> None:
    """Refuse an enumeration over the space at resolution k, before any
    chain is built, when its size measure exceeds the budget."""
    cost = (2 ** len(space) - 1) * (k + 1)
    if cost > budget:
        raise BudgetExceededError(
            f"enumeration size measure {cost} exceeds budget {budget} "
            f"(|X|={len(space)}, k={k})"
        )


def _check_cube_size(k: int, arity: int) -> None:
    """Refuse a cube of more than _MAX_CUBE_POINTS points from (k, arity)
    alone, before its chain or any point is built."""
    points = 1
    for _ in range(arity):
        points *= k + 1
        if points > _MAX_CUBE_POINTS:
            raise BudgetExceededError(
                f"a cube of {k + 1}^{arity} points exceeds the limit of {_MAX_CUBE_POINTS}"
            )


def enumerate_ranks(space: FiniteSpace, k: int, kind: str = "all") -> Iterator[tuple[int, ...]]:
    """The stream of ``enumerate_capacities`` on integer ranks, with no budget
    check: each capacity's ranks in subset order (kind "all"), or each
    density's or codensity's weights in carrier order."""
    cls = _POINTWISE.get(kind)
    if cls is not None:
        pin = 0 if cls._fill else k
        return (w for w in itertools.product(range(k + 1), repeat=len(space)) if cls._bound(w) == pin)
    if kind != "all":
        raise ValidationError(f"unknown capacity class {kind!r}")
    return _rank_walk(space, k)


def _rank_walk(space: FiniteSpace, k: int) -> Iterator[tuple[int, ...]]:
    """The ranks, in subset order, of every capacity on the space at
    resolution k, lexicographically: each proper subset runs from the max
    rank at its immediate subsets, found once by mask, up to k."""
    masks, at = space.subset_masks()
    below = [[at[m & ~(1 << b)] for b in range(len(space)) if m >> b & 1] for m in masks]
    last = len(masks) - 2
    ranks, i = [0] * last + [0, k], 1
    while True:
        while i <= last:  # each later subset starts at its least admissible rank
            ranks[i] = max([ranks[j] for j in below[i]])
            i += 1
        yield tuple(ranks)
        i = last  # then the last proper subset below k goes up one
        while i and ranks[i] == k:
            i -= 1
        if not i:
            return
        ranks[i] += 1
        i += 1


def enumerate_capacities(
    space: FiniteSpace,
    chain: Chain,
    kind: str = "all",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[CapacityLike]:
    """Enumerate capacities in a fixed order.

    kind="all" walks subsets by (size, position) and assigns each the
    smallest admissible levels first, so the stream is lexicographic in
    the value tuple.  kind="union" / "intersection" run over densities
    with max 1 / codensities with min 0 in lexicographic order.  Each comes
    from ``enumerate_ranks`` and is a capacity by construction, so it is not
    checked again.
    """
    check_enumeration_budget(space, chain.k, budget)
    cls = _POINTWISE.get(kind)
    fill = cls and cls._ends(chain)[0].i
    for ranks in enumerate_ranks(space, chain.k, kind):
        if cls:
            yield cls._trusted(space, chain, {x: r for x, r in zip(space.elements, ranks) if r != fill})
        else:
            yield Capacity._trusted(space, chain, ranks)


def rank_flags(space: FiniteSpace, k: int, kind: str):
    """``classify`` on the ranks of ``enumerate_ranks``: ``_splits`` of a
    capacity's ranks and of its conjugate's.  A density or codensity is of
    its own class, and of the other exactly when it is Dirac: one weight
    off the fill."""
    if kind == "all":
        return lambda r: ClassFlags(_splits(r, space), _splits([k - v for v in reversed(r)], space))
    necessity = _POINTWISE[kind]._fill == 1
    fill = k if necessity else 0

    def flags(w):
        dirac = w.count(fill) == len(w) - 1
        return ClassFlags(dirac or not necessity, dirac or necessity)
    return flags


def pinned_table(cls, carrier, chain, rows, levels, value) -> dict[tuple, str]:
    """value(c) at each (x, a, y), x in ``rows``, a in ``levels`` and y in
    the carrier, c the ``cls`` capacity pinned at x (density 1, codensity
    0) with weight a at y and the fill elsewhere: the capacities whose
    values under a structure map give back its structure's tables."""
    _, pin = cls._ends(chain)
    return {
        (x, a, y): value(cls(carrier, chain, {y: a, x: pin}))
        for x in rows for a in levels for y in carrier.elements
    }


def _exhaustive_densities(space: FiniteSpace, chain: Chain) -> list | None:
    """Every density on the space as ``enumerate_capacities`` orders them,
    or None when their number (k+1)^m - k^m exceeds EXHAUSTIVE_DENSITY_LIMIT."""
    m = len(space)
    if (chain.k + 1) ** m - chain.k ** m > EXHAUSTIVE_DENSITY_LIMIT:
        return None
    return list(enumerate_capacities(space, chain, "union", budget=float("inf")))


_NAME_PREFIX = {"all": "c", "union": "p", "intersection": "n"}


def _named(space, chain, kind) -> Pool:
    caps = list(enumerate_capacities(space, chain, kind))
    return Pool.named(_NAME_PREFIX[kind], caps, chain, CAPACITIES)


def capacity_space(space: FiniteSpace, chain: Chain) -> Pool:
    """The pool naming every capacity on the space: c0, c1, ... in enumeration order."""
    return _named(space, chain, "all")


def possibility_space(space: FiniteSpace, chain: Chain) -> Pool:
    return _named(space, chain, "union")


def necessity_space(space: FiniteSpace, chain: Chain) -> Pool:
    return _named(space, chain, "intersection")


@lru_cache(maxsize=POOL_SIZE)
def capacity_pool(space: FiniteSpace, chain: Chain, kind: str) -> Pool:
    """The pool of one class, as ``capacity_space``, ``possibility_space``
    or ``necessity_space`` give it for kind "all", "union" or
    "intersection"; cached per (space, chain, kind) for the law suites and
    the preimage searches."""
    return _named(space, chain, kind)


class LawCase(NamedTuple):
    """The two sides of one algebra-law case, or the LawViolationError
    that stopped either."""

    got: str | None
    want: str | None
    error: LawViolationError | None

    @property
    def held(self) -> bool:
        return self.error is None and self.got == self.want


class StructureMap:
    """Assigns an element to every capacity of one class (``_kind``, as
    ``capacity_pool`` names it) from a table, or from a backing structure
    through ``_evaluate``.  ``_cache`` keeps the values under ``_key``, the
    capacity's integer ranks: a table map's cache is its table, and a
    structure map's holds each value it reached.  A capacity on another
    carrier or chain is rejected before any lookup; one of the class in
    another form (a table) is brought into the class's form.  ``unit_case``
    and ``mult_case`` are its algebra laws, case by case."""

    __slots__ = ("carrier", "chain", "_structure", "_cache", "_images")

    def __init__(self, carrier, chain, table=None, structure=None):
        self.carrier = carrier
        self.chain = chain
        self._structure = structure
        self._cache = {} if table is None else dict(table)
        # pool -> the map n -> xi(pool[n]) that mult_case pushes along
        self._images = weakref.WeakKeyDictionary()

    @classmethod
    def from_table(cls, carrier, chain, table: Mapping[tuple, str]):
        """The map given by ``table``, which need not cover the class: each
        key must be ``_key`` of a capacity of the class on the carrier, and
        each value an element of the carrier."""
        for key, z in table.items():
            if not cls._is_key(carrier, chain, key):
                raise ValidationError(f"table key {key!r} is not the rank tuple of a {cls._kind!r} capacity")
            if z not in carrier.index:
                raise ValidationError(f"table value {z!r} is not in the carrier")
        return cls(carrier, chain, table=table)

    @classmethod
    def _is_key(cls, carrier, chain, key) -> bool:
        """Whether ``key`` is the ``_key`` of a capacity of the class: int
        ranks on the chain, one per point with one at 1 - fill for a density
        or codensity, and a capacity's at the nonempty subsets otherwise."""
        form = _POINTWISE.get(cls._kind)
        size = len(carrier) if form else 2 ** len(carrier) - 1
        if type(key) is not tuple or len(key) != size:
            return False
        if not all(type(r) is int and 0 <= r <= chain.k for r in key):
            return False
        if form:
            return form._ends(chain)[1].i in key
        return not validate(Capacity._trusted(carrier, chain, (0, *key)))

    def __call__(self, c) -> str:
        if c.carrier != self.carrier:
            raise CarrierMismatchError("capacity lives on a different carrier")
        if c.chain != self.chain:
            raise ValidationError("capacity uses a different chain")
        if self._kind in _POINTWISE:
            c = _as_pointwise(_POINTWISE[self._kind], c)
        key = self._key(c)
        got = self._cache.get(key)
        if got is None:
            if self._structure is None:
                levels = self.chain.levels
                raise ValidationError(f"table has no entry for {','.join(str(levels[r]) for r in key)}")
            got = self._cache[key] = self._evaluate(c)
        return got

    def tabulate(self) -> dict[tuple, str]:
        """Explicit table over every capacity of the map's class on the carrier."""
        if self._structure is None:
            return dict(self._cache)
        pool = capacity_pool(self.carrier, self.chain, self._kind).members
        return {self._key(c): self(c) for c in pool.values()}

    @staticmethod
    def _law_case(sides) -> LawCase:
        try:
            return LawCase(*sides(), None)
        except LawViolationError as exc:
            return LawCase(None, None, exc)

    def unit_case(self, x: str) -> LawCase:
        """The unit law at the point x: xi(delta x) = x."""
        return self._law_case(lambda: (self(unit_dirac(self.carrier, self.chain, x)), x))

    def mult_case(self, outer: CapacityLike, pool: Pool | Mapping) -> LawCase:
        """The multiplication law at an outer capacity C over the named
        capacities of ``pool`` (made a pool on C's carrier by ``Pool.over``):
        xi(mu C) = xi(M xi (C)), where M xi pushes C forward along
        n -> xi(pool[n]).  That map is kept as long as its pool lives."""
        pool = Pool.over(outer, pool, CAPACITIES)

        def sides():
            along = self._images.get(pool)
            if along is None:
                images = {n: self(c) for n, c in pool.members.items()}
                along = self._images[pool] = PointMap(pool.names, self.carrier, images)
            return self(mult(outer, pool)), self(pushforward(along, outer))

        return self._law_case(sides)


def is_algebra_morphism(f: PointMap, xi: StructureMap, xi2: StructureMap) -> bool:
    """Does f intertwine the two structure maps on every capacity of xi's class?"""
    _, pool = capacity_pool(xi.carrier, xi.chain, xi._kind)
    return all(f(xi(c)) == xi2(pushforward(f, c)) for c in pool.values())


def random_capacity(space: FiniteSpace, chain: Chain, rng) -> Capacity:
    """Seeded random capacity.

    Walks subsets in (size, position) order and draws each value
    uniformly from the levels at or above the largest already-fixed
    value of an immediate subset; the whole space is pinned at 1.
    """
    _check_table_size(space)
    ranks: dict[Subset, int] = {frozenset(): 0}
    for s in list(space.subsets())[:-1]:
        ranks[s] = rng.choice(range(max(ranks[s - {x}] for x in s), chain.k + 1))
    ranks[space.universe] = chain.k
    return Capacity._trusted(space, chain, tuple(ranks.values()))
