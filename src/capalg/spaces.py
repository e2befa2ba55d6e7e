"""Finite spaces, subsets, table structures, and the inclusion-hyperspace monad.

Every space is a finite list of distinct element names; its topology is
discrete, so every subset is closed and all semicontinuity conditions in
the source constructions hold vacuously.  An inclusion hyperspace is a
nonempty family of nonempty subsets that is closed upward under
inclusion.  Hyperspaces are stored only as the antichain of their minimal
members, each a subset bitmask, and a set is a member when it contains one
of them; the full family is never listed, which keeps the monad
multiplication cheap on large carriers.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import BudgetExceededError, CarrierMismatchError, ValidationError

Subset = frozenset  # subsets are plain frozensets of element names


class FiniteSpace:
    """Ordered finite set of distinct element names."""

    __slots__ = ("elements", "index", "_universe", "_subset_keys", "_masks", "_positions")

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        if not elems:
            raise ValidationError("a finite space needs at least one element")
        for e in elems:
            if not isinstance(e, str):
                raise ValidationError(f"element names must be strings, got {e!r}")
        if len(set(elems)) != len(elems):
            raise ValidationError("element names must be distinct")
        self.elements = elems
        self.index = {e: i for i, e in enumerate(elems)}
        self._universe = frozenset(elems)
        self._subset_keys: dict[Subset, str] | None = None
        self._masks: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._positions: dict[Subset, int] | None = None

    def __eq__(self, other):
        return other is self or (isinstance(other, FiniteSpace) and other.elements == self.elements)

    def __hash__(self):
        return hash(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteSpace({list(self.elements)!r})"

    @property
    def universe(self) -> Subset:
        return self._universe

    def subset(self, members: Iterable[str]) -> Subset:
        s = frozenset(members)
        bad = s - self._universe
        if bad:
            raise ValidationError(f"not elements of the space: {sorted(bad)}")
        return s

    def mask(self, members: Iterable[str]) -> int:
        """The bitmask of a subset, bit i for the i-th element; checked as by ``subset``."""
        return sum(1 << self.index[e] for e in self.subset(members))

    def subset_key(self, s: Subset):
        """Canonical sort key: size first, then element positions."""
        return (len(s), sorted(self.index[e] for e in s))

    def subsets(self, include_empty: bool = False) -> Iterator[Subset]:
        """All subsets in canonical (size, position) order."""
        n = len(self.elements)
        for r in range(0 if include_empty else 1, n + 1):
            for combo in itertools.combinations(self.elements, r):
                yield frozenset(combo)

    def subset_keys(self) -> dict[Subset, str]:
        """Every subset, in ``subsets(include_empty=True)`` order, with its
        names joined by commas in carrier order; built on first use and
        kept with the space, so do not modify it."""
        if self._subset_keys is None:
            self._subset_keys = {
                s: ",".join(self.sorted_names(s)) for s in self.subsets(include_empty=True)
            }
        return self._subset_keys

    def subset_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The bitmask of each subset in ``subset_keys`` order (bit i for the
        i-th element) and the position of each mask; built once, like it."""
        if self._masks is None:
            bits = [1 << i for i in range(len(self.elements))]
            masks = tuple(sum(c) for r in range(len(bits) + 1) for c in itertools.combinations(bits, r))
            self._masks = (masks, tuple(sorted(range(len(masks)), key=masks.__getitem__)))
        return self._masks

    def subset_positions(self) -> dict[Subset, int]:
        """The position of each subset in ``subset_keys`` order; built once, like it."""
        if self._positions is None:
            self._positions = {s: i for i, s in enumerate(self.subset_keys())}
        return self._positions

    def sorted_names(self, s: Subset) -> list[str]:
        return sorted(s, key=self.index.__getitem__)


class PointMap:
    """A function between finite spaces, given by a total mapping table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, table: Mapping[str, str]):
        missing = set(source.elements) - set(table)
        if missing:
            raise ValidationError(f"map not total, missing {sorted(missing)}")
        for x, y in table.items():
            if x not in source.index:
                raise ValidationError(f"{x!r} is not in the source space")
            if y not in target.index:
                raise ValidationError(f"image {y!r} is not in the target space")
        self.source = source
        self.target = target
        self.table = {x: table[x] for x in source.elements}

    def __call__(self, x: str) -> str:
        return self.table[x]

    def preimage(self, s: Subset) -> Subset:
        return frozenset(x for x in self.source.elements if self.table[x] in s)


def _cell(key) -> str:
    return "|".join(map(str, key)) if isinstance(key, tuple) else str(key)


def _check_cells(carrier: FiniteSpace, keys, label: str, table: Mapping) -> dict:
    """The cells of ``table`` at ``keys``; each must be there and hold a carrier element."""
    out = {}
    for key in keys:
        if key not in table:
            raise ValidationError(f"{label} table missing {_cell(key)}")
        z = out[key] = table[key]
        if z not in carrier.index:
            raise ValidationError(f"{label} value {z!r} at {_cell(key)} not in carrier")
    return out


def _table_keys(carrier: FiniteSpace, chain, shape: str) -> Iterator:
    """Every key of a table of ``shape``: one letter per argument, ``x`` an
    element and ``a`` a chain level, in product order.  A one-letter shape
    keys by the bare argument, a longer one by the tuple."""
    keys = itertools.product(*(chain.levels if s == "a" else carrier.elements for s in shape))
    return keys if len(shape) > 1 else (key for (key,) in keys)


class TableStructure:
    """A carrier and a chain with total operation tables, declared once.

    A subclass maps each table's attribute name to its key shape in
    ``_tables`` (see ``_table_keys``); the empty shape is a constant, kept
    as the element itself.  The constructor takes the tables in that
    order and keeps exactly the declared cells, each checked to be a
    carrier element; equality and hashing read the same declaration.
    """

    __slots__ = ("carrier", "chain")
    _tables: dict[str, str] = {}

    def __init__(self, carrier: FiniteSpace, chain, *tables):
        for (name, shape), table in zip(self._tables.items(), tables, strict=True):
            if shape:
                table = _check_cells(carrier, _table_keys(carrier, chain, shape), name, table)
            elif table not in carrier.index:
                raise ValidationError(f"{name} {table!r} not in carrier")
            setattr(self, name, table)
        self.carrier = carrier
        self.chain = chain

    def _state(self) -> tuple:
        return (self.carrier, self.chain, *(getattr(self, n) for n in self._tables))

    def __eq__(self, other):
        return type(other) is type(self) and other._state() == self._state()

    def __hash__(self):
        return hash((type(self).__name__, *(
            frozenset(v.items()) if isinstance(v, dict) else v for v in self._state()
        )))


def _minimal_masks(masks: Iterable[int]) -> frozenset:
    """The antichain of inclusion-minimal subset masks of a family: a proper
    submask is the smaller number, so ascending order meets it first."""
    kept: list[int] = []
    for s in sorted(set(masks)):
        if all(m & s != m for m in kept):
            kept.append(s)
    return frozenset(kept)


class InclusionHyperspace:
    """An inclusion hyperspace stored as ``masks``, the antichain of its
    minimal members, each a subset mask (bit i for the i-th element);
    ``min_sets`` gives them as sets of names."""

    __slots__ = ("carrier", "masks")

    def __init__(self, carrier: FiniteSpace, generators: Iterable[Subset]):
        gens = [carrier.mask(g) for g in generators]
        if not gens:
            raise ValidationError("an inclusion hyperspace must be nonempty")
        if 0 in gens:
            raise ValidationError("members must be nonempty subsets")
        self.carrier = carrier
        self.masks = _minimal_masks(gens)

    @classmethod
    def _trusted(cls, carrier: FiniteSpace, masks: frozenset) -> "InclusionHyperspace":
        """Wrap a nonempty antichain of nonzero masks, without re-checking it."""
        h = object.__new__(cls)
        h.carrier, h.masks = carrier, masks
        return h

    @classmethod
    def from_family(cls, carrier: FiniteSpace, sets: Iterable[Subset]) -> "InclusionHyperspace":
        """The hyperspace whose members are exactly ``sets``."""
        family = {carrier.subset(s) for s in sets}
        if any(s | {e} not in family for s in family for e in carrier.universe - s):
            raise ValidationError("family is not closed upward under inclusion")
        return cls(carrier, family)

    @property
    def min_sets(self) -> frozenset:
        els = self.carrier.elements
        return frozenset(frozenset(e for i, e in enumerate(els) if m >> i & 1) for m in self.masks)

    def __eq__(self, other):
        same_type = isinstance(other, InclusionHyperspace)
        return same_type and (other.carrier, other.masks) == (self.carrier, self.masks)

    def __hash__(self):
        return hash((self.carrier, self.masks))

    def __contains__(self, s) -> bool:
        """Whether s, a set of carrier names, contains a minimal member."""
        bits = self.carrier.mask(s)
        return any(m & bits == m for m in self.masks)

    def __repr__(self):
        names = sorted(self.carrier.sorted_names(s) for s in self.min_sets)
        return f"InclusionHyperspace(min={names!r})"


class MemberKind(NamedTuple):
    """A pool's members: ``one`` and ``many`` in errors, and their ``key``."""

    one: str
    many: str
    key: Callable


HYPERSPACES = MemberKind("hyperspace", "hyperspaces", lambda h: h.masks)


class Pool:
    """The carrier of a monad's outer element: its ``names`` with their
    ``members``, checked once when built (each name assigned, on ``chain`` if
    there is one, all on one carrier, ``base``).  Frozen, so ``key`` keeps
    each member's key from its first read; unpacks as ``(names, members)``."""

    __slots__ = ("names", "members", "base", "chain", "kind", "_keys", "__weakref__")

    def __init__(self, names: FiniteSpace, assignment: Mapping, chain, kind: MemberKind):
        members, base = {}, None
        for name in names.elements:
            inner = members[name] = assignment.get(name)
            if inner is None:
                raise ValidationError(f"no {kind.one} assigned to carrier element {name!r}")
            if chain is not None and inner.chain is not chain and inner.chain != chain:
                raise ValidationError(f"inner {kind.many} must share the outer chain")
            if base is None:
                base = inner.carrier
            elif inner.carrier is not base and inner.carrier != base:
                raise CarrierMismatchError(f"assigned {kind.many} live on different spaces")
        for attr, value in zip(self.__slots__, (names, MappingProxyType(members), base, chain, kind, {})):
            object.__setattr__(self, attr, value)

    @classmethod
    def named(cls, prefix: str, members: list, chain, kind: MemberKind) -> "Pool":
        """The pool naming ``members`` prefix0, prefix1, ... in their order."""
        names = FiniteSpace([f"{prefix}{i}" for i in range(len(members))])
        return cls(names, dict(zip(names.elements, members)), chain, kind)

    @classmethod
    def over(cls, outer, assignment, kind: MemberKind) -> "Pool":
        """``assignment`` as a pool on the outer's names and chain: itself if
        it is one, else (a mapping, or a pool on other names) built into one."""
        chain, names = getattr(outer, "chain", None), outer.carrier
        if not isinstance(assignment, cls):
            return cls(names, assignment, chain, kind)
        same = assignment.names == names and assignment.chain == chain
        return assignment if same else cls(names, assignment.members, chain, kind)

    def key(self, name: str):
        got = self._keys.get(name)
        if got is None:
            got = self._keys[name] = self.kind.key(self.members[name])
        return got

    def _frozen(self, *args):
        raise AttributeError("a pool cannot be changed")

    __setattr__ = __delattr__ = _frozen

    def __getitem__(self, i):  # also how it unpacks
        return (self.names, self.members)[i]


def g_unit(space: FiniteSpace, x: str) -> InclusionHyperspace:
    """All subsets containing x; the monad unit at x."""
    if x not in space.index:
        raise ValidationError(f"{x!r} is not in the space")
    return InclusionHyperspace._trusted(space, frozenset([1 << space.index[x]]))


def g_map(f: PointMap, hs: InclusionHyperspace) -> InclusionHyperspace:
    """Functor action: the target sets that contain the image of some member.

    On antichains this is just the minimalized family of images of the
    minimal members, each image mask the union of its points' image bits.
    """
    if hs.carrier != f.source:
        raise CarrierMismatchError("hyperspace carrier differs from the map source")
    image = list(enumerate(1 << f.target.index[f.table[x]] for x in f.source.elements))
    images = (sum({b for i, b in image if m >> i & 1}) for m in hs.masks)
    return InclusionHyperspace._trusted(f.target, _minimal_masks(images))


def g_mult(outer: InclusionHyperspace, assignment: Pool | Mapping) -> InclusionHyperspace:
    """Monad multiplication: union over outer members A of the intersection of A.

    ``outer`` lives on a carrier whose elements name inclusion hyperspaces
    on a common base space, supplied by ``assignment``, a pool or a mapping
    made into one by ``Pool.over``.  Because members
    of the outer family only grow, and intersections shrink as members
    grow, the union over all members equals the union over the minimal
    ones; likewise each intersection is computed on antichains by
    minimalizing pairwise unions.
    """
    pool = Pool.over(outer, assignment, HYPERSPACES)
    names, members, result = outer.carrier.elements, pool.members, set()
    for member in outer.masks:
        # intersection of the hyperspaces named by this member
        inter: frozenset | None = None
        while member:
            low = member & -member
            mins = members[names[low.bit_length() - 1]].masks
            inter = mins if inter is None else _minimal_masks([a | b for a in inter for b in mins])
            member ^= low
        result.update(inter)
    return InclusionHyperspace._trusted(pool.base, _minimal_masks(result))


def enumerate_hyperspaces(space: FiniteSpace) -> list[InclusionHyperspace]:
    """All inclusion hyperspaces on a small carrier, in a fixed order.

    Grows the nonempty antichains of nonempty subset masks by backtracking
    over the subsets in canonical order; a subset joins when no chosen one
    lies inside it (none can contain it, being no larger).  The count grows
    like the Dedekind numbers, so carriers are limited to 4 elements.
    """
    if len(space) > 4:
        raise BudgetExceededError("hyperspace enumeration is limited to carriers of size <= 4")
    subsets, at = space.subset_masks()
    found: list[InclusionHyperspace] = []
    chosen: list[int] = []

    def grow(start: int) -> None:
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(m & s != m for m in chosen):
                chosen.append(s)
                found.append(InclusionHyperspace._trusted(space, frozenset(chosen)))
                grow(i + 1)
                chosen.pop()

    grow(1)
    # a mask's canonical position sorts as its ``subset_key`` does
    found.sort(key=lambda h: sorted(at[m] for m in h.masks))
    return found


def hyperspace_space(space: FiniteSpace) -> Pool:
    """The pool naming every inclusion hyperspace on ``space``: h0, h1, ...
    following the enumeration order."""
    return Pool.named("h", enumerate_hyperspaces(space), None, HYPERSPACES)


def random_hyperspace(space: FiniteSpace, rng) -> InclusionHyperspace:
    """Seeded random hyperspace: up-closure of 1-3 random nonempty subsets."""
    count = rng.randint(1, 3)
    gens = []
    for _ in range(count):
        size = rng.randint(1, len(space))
        gens.append(space.mask(rng.sample(space.elements, size)))
    return InclusionHyperspace._trusted(space, _minimal_masks(gens))
