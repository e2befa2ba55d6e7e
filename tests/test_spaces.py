"""Inclusion hyperspaces and their monad: units, functor action, multiplication.

The multiplication oracle used throughout is the membership test: a set B
belongs to the flattened hyperspace exactly when the names whose assigned
hyperspace contains B themselves form a member of the outer hyperspace.
"""

import itertools
import random

import pytest

from capalg.capacity import (
    CAPACITIES,
    NecessityCapacity,
    PossibilityCapacity,
    capacity_equal,
    capacity_pool,
    mult,
    random_capacity,
    unit_dirac,
)
from capalg.chain import Chain
from capalg.errors import BudgetExceededError, CarrierMismatchError, ValidationError
from capalg.spaces import (
    FiniteSpace,
    InclusionHyperspace,
    PointMap,
    Pool,
    enumerate_hyperspaces,
    g_map,
    g_mult,
    g_unit,
    hyperspace_space,
    random_hyperspace,
)
from capalg.suites import _random_pointwise

X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])
X4 = FiniteSpace(["a", "b", "c", "d"])
K1, K2 = Chain(1), Chain(2)
PQ = FiniteSpace(["p", "q"])


def minimal_members(sets):
    """Antichain of inclusion-minimal members of a family of sets."""
    kept = []
    for s in sorted(set(sets), key=len):
        if not any(m <= s for m in kept):
            kept.append(s)
    return frozenset(kept)


def upward_closed_families(space):
    """Independent oracle: brute-force all up-closed families of nonempty sets."""
    subsets = list(space.subsets())
    found = []
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            fam = set(combo)
            ok = all(
                s | {e} in fam for s in fam for e in space.universe - s
            )
            if ok:
                found.append(frozenset(fam))
    return found


def mult_by_membership(outer, assignment):
    """Independent oracle for the flattened hyperspace, one subset at a time."""
    base = assignment[outer.carrier.elements[0]].carrier
    hits = [
        s
        for s in base.subsets()
        if frozenset(n for n in outer.carrier.elements if s in assignment[n]) in outer
    ]
    return InclusionHyperspace(base, minimal_members(hits))


def hyperspaces_by_combinations(space):
    """Reference enumerator: minimalize every combination of nonempty
    subsets, keep each antichain once, and sort as enumerate_hyperspaces
    does."""
    subsets = list(space.subsets())
    found, seen = [], set()
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            anti = minimal_members(combo)
            if len(anti) == r and anti not in seen:
                seen.add(anti)
                found.append(InclusionHyperspace(space, anti))
    found.sort(key=lambda h: sorted(space.subset_key(m) for m in h.min_sets))
    return found


# frozen counts, confirmed by the up-closed-family oracle below
HYPERSPACE_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166}


def test_hyperspace_counts_match_oracle():
    for space, expected in ((FiniteSpace(["a"]), 1), (X2, 4), (X3, 18), (X4, 166)):
        oracle = upward_closed_families(space)
        assert len(oracle) == expected == HYPERSPACE_COUNTS[len(space)]
        enumerated = enumerate_hyperspaces(space)
        assert len(enumerated) == expected
        as_families = {frozenset(s for s in space.subsets() if s in h) for h in enumerated}
        assert as_families == set(oracle)


def test_enumeration_matches_the_combinations_oracle_in_order():
    for space in (FiniteSpace(["a"]), X2, X3, X4):
        assert enumerate_hyperspaces(space) == hyperspaces_by_combinations(space)


def test_enumeration_above_four_points_is_a_budget_refusal():
    with pytest.raises(BudgetExceededError, match="limited to carriers of size <= 4"):
        enumerate_hyperspaces(FiniteSpace(list("abcde")))


def test_minimal_members_is_an_antichain_generating_the_family():
    for space in (X2, X3):
        for h in enumerate_hyperspaces(space):
            mins = h.min_sets
            for m, n in itertools.permutations(mins, 2):
                assert not m < n
            regenerated = {s for s in space.subsets() if any(m <= s for m in mins)}
            assert InclusionHyperspace.from_family(space, regenerated) == h


def test_unit_is_the_family_of_sets_containing_the_point():
    for space in (X2, X3):
        for x in space.elements:
            u = g_unit(space, x)
            for s in space.subsets():
                assert (s in u) == (x in s)


def test_functor_preserves_identity_and_composition():
    ident3 = PointMap(X3, X3, {e: e for e in X3.elements})
    f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "a"})
    g = PointMap(X2, X3, {"a": "b", "b": "c"})
    gf = PointMap(X3, X3, {x: g(f(x)) for x in X3.elements})
    for h in enumerate_hyperspaces(X3):
        assert g_map(ident3, h) == h
        assert g_map(g, g_map(f, h)) == g_map(gf, h)


def test_functor_image_is_preimage_membership():
    # B in Gf(H)  iff  f^{-1}(B) contains a member of H
    f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "b"})
    for h in enumerate_hyperspaces(X3):
        pushed = g_map(f, h)
        for s in X2.subsets():
            assert (s in pushed) == (f.preimage(s) in h)


def test_unit_is_natural():
    f = PointMap(X3, X2, {"a": "b", "b": "a", "c": "a"})
    for x in X3.elements:
        assert g_map(f, g_unit(X3, x)) == g_unit(X2, f(x))


def test_mult_agrees_with_membership_oracle_exhaustively():
    names, lookup = hyperspace_space(X2)
    layers = enumerate_hyperspaces(X2)
    assignments = [
        dict(zip(names.elements, combo))
        for combo in itertools.product(layers, repeat=len(names))
    ]
    outers = enumerate_hyperspaces(names)
    checked = 0
    for outer in outers:
        for assignment in assignments:
            assert g_mult(outer, assignment) == mult_by_membership(outer, assignment)
            checked += 1
    assert checked == len(outers) * len(layers) ** len(names)


def test_monad_unit_laws_exhaustively():
    for space in (X2, X3):
        names, lookup = hyperspace_space(space)
        for name, h in lookup.items():
            # outer unit: flattening the point hyperspace at h gives h back
            assert g_mult(g_unit(names, name), lookup) == h
        eta = {x: g_unit(space, x) for x in space.elements}
        for h in enumerate_hyperspaces(space):
            # inner unit: assigning each point its unit hyperspace gives h back
            assert g_mult(h, eta) == h


def test_mult_is_natural_in_the_base():
    f = PointMap(X3, X2, {"a": "a", "b": "a", "c": "b"})
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        names = FiniteSpace([f"n{i}" for i in range(m)])
        assignment = {n: random_hyperspace(X3, rng) for n in names.elements}
        outer = random_hyperspace(names, rng)
        lifted = {n: g_map(f, assignment[n]) for n in names.elements}
        assert g_map(f, g_mult(outer, assignment)) == g_mult(outer, lifted)


def test_mult_matches_oracle_on_random_third_level_instances():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 5)
        names = FiniteSpace([f"n{i}" for i in range(m)])
        assignment = {n: random_hyperspace(X3, rng) for n in names.elements}
        outer = random_hyperspace(names, rng)
        assert g_mult(outer, assignment) == mult_by_membership(outer, assignment)


def test_mult_associativity_on_random_instances():
    rng = random.Random(13)
    for _ in range(100):
        m2 = rng.randint(1, 4)
        level2 = FiniteSpace([f"t{i}" for i in range(m2)])
        names, lookup = hyperspace_space(X2)
        assign2 = {t: random_hyperspace(names, rng) for t in level2.elements}
        theta = random_hyperspace(level2, rng)
        mu_hat_table = {}
        by_value = {h: n for n, h in lookup.items()}
        for t in level2.elements:
            mu_hat_table[t] = by_value[g_mult(assign2[t], lookup)]
        mu_hat = PointMap(level2, names, mu_hat_table)
        route_a = g_mult(g_map(mu_hat, theta), lookup)
        route_b = g_mult(g_mult(theta, assign2), lookup)
        assert route_a == route_b


def test_exp_space_is_the_largest_hyperspace():
    """exp X, the family of all nonempty subsets, is generated by the
    singletons and holds every member of every hyperspace."""
    full = InclusionHyperspace.from_family(X3, X3.subsets())
    assert full.min_sets == frozenset({frozenset({e}) for e in X3.elements})
    assert all(m in full for h in enumerate_hyperspaces(X3) for m in h.min_sets)


def test_space_and_family_validation():
    with pytest.raises(ValidationError):
        FiniteSpace([])
    with pytest.raises(ValidationError):
        FiniteSpace(["a", "a"])
    with pytest.raises(ValidationError):
        InclusionHyperspace(X2, [])
    with pytest.raises(ValidationError):
        InclusionHyperspace(X2, [frozenset()])
    with pytest.raises(ValidationError):
        X2.subset({"z"})
    # {{a}} misses {a, b}, so it is not closed upward
    with pytest.raises(ValidationError, match="not closed upward under inclusion"):
        InclusionHyperspace.from_family(X2, [{"a"}])
    with pytest.raises(ValidationError, match="an inclusion hyperspace must be nonempty"):
        InclusionHyperspace.from_family(X2, [])
    with pytest.raises(ValidationError, match="members must be nonempty subsets"):
        InclusionHyperspace.from_family(X2, X2.subsets(include_empty=True))
    with pytest.raises(ValidationError, match=r"not elements of the space: \['z'\]"):
        InclusionHyperspace.from_family(X2, [{"z"}])
    with pytest.raises(ValidationError):
        PointMap(X2, X2, {"a": "a"})
    with pytest.raises(CarrierMismatchError):
        g_map(PointMap(X2, X2, {"a": "a", "b": "b"}), enumerate_hyperspaces(X3)[0])


def test_enumeration_order_is_stable():
    first = [sorted(h.min_sets, key=X3.subset_key) for h in enumerate_hyperspaces(X3)]
    second = [sorted(h.min_sets, key=X3.subset_key) for h in enumerate_hyperspaces(X3)]
    assert first == second


def test_subset_masks_follow_the_subset_order():
    # mask bit i is the i-th element, and each mask's position inverts the order
    for space in (FiniteSpace(["a"]), X2, X3, X4):
        order = list(space.subsets(include_empty=True))
        assert list(space.subset_keys()) == order
        masks, at = space.subset_masks()
        named = [frozenset(x for i, x in enumerate(space.elements) if m >> i & 1) for m in masks]
        assert named == order
        assert sorted(masks) == list(range(2 ** len(space)))
        assert [at[m] for m in masks] == list(range(len(order)))
        assert space.subset_masks() is space.subset_masks()


@pytest.mark.parametrize("call, error, text", [
    (lambda: PointMap(X2, X2, {"a": "a", "b": "b", "z": "a"}),
     ValidationError, "'z' is not in the source space"),
    (lambda: PointMap(X2, X2, {"a": "a", "b": "z"}),
     ValidationError, "image 'z' is not in the target space"),
    (lambda: g_unit(X2, "z"), ValidationError, "'z' is not in the space"),
    (lambda: g_mult(g_unit(X2, "a"), {"b": g_unit(X2, "a")}),
     ValidationError, "no hyperspace assigned to carrier element 'a'"),
    (lambda: g_mult(g_unit(X2, "a"), {"a": g_unit(X2, "a"), "b": g_unit(X3, "a")}),
     CarrierMismatchError, "assigned hyperspaces live on different spaces"),
    (lambda: mult(unit_dirac(PQ, K2, "p"), {"p": unit_dirac(X2, K2, "a")}),
     ValidationError, "no capacity assigned to carrier element 'q'"),
    (lambda: mult(unit_dirac(PQ, K2, "p"), {"p": unit_dirac(X2, K2, "a"), "q": unit_dirac(X2, K1, "a")}),
     ValidationError, "inner capacities must share the outer chain"),
    (lambda: mult(unit_dirac(PQ, K2, "p"), {"p": unit_dirac(X2, K2, "a"), "q": unit_dirac(X3, K2, "a")}),
     CarrierMismatchError, "assigned capacities live on different spaces"),
    # a pool on the outer's names, but on another chain, is checked as a mapping
    (lambda: mult(unit_dirac(capacity_pool(X2, K2, "union").names, K1, "p0"),
                  capacity_pool(X2, K2, "union")),
     ValidationError, "inner capacities must share the outer chain"),
], ids=["point-off-source", "image-off-target", "unit-off-space", "unassigned-name",
        "mixed-carriers", "unassigned-capacity", "mixed-chains", "mixed-capacity-carriers",
        "pool-on-another-chain"])
def test_maps_and_monad_operations_refuse_foreign_names(call, error, text):
    with pytest.raises(error, match=text):
        call()


# ------------------------------------------- masks against the set definitions


def hs_text(h):
    """The minimal members as sorted name lists, in canonical subset order."""
    return ";".join(",".join(sorted(m)) for m in sorted(h.min_sets, key=h.carrier.subset_key))


def map_by_sets(f, h):
    """g_map from its definition on sets: the minimal images of the minimal members."""
    return minimal_members(frozenset(map(f, m)) for m in h.min_sets)


def mult_by_sets(outer, assignment):
    """g_mult from its definition on sets: the union, over the outer's minimal
    members, of the minimalized pairwise unions of the named antichains."""
    found = set()
    for member in outer.min_sets:
        inter = None
        for name in member:
            mins = assignment[name].min_sets
            inter = mins if inter is None else minimal_members(a | b for a in inter for b in mins)
        found |= inter
    return minimal_members(found)


def test_hyperspace_operations_on_masks_equal_the_set_definitions():
    pair = FiniteSpace(["n0", "n1"])
    outers = enumerate_hyperspaces(pair)
    for space in (FiniteSpace(["a"]), X2, X3):
        hyperspaces = enumerate_hyperspaces(space)
        for x in space.elements:
            assert g_unit(space, x).min_sets == frozenset({frozenset({x})})
        for images in itertools.product(space.elements, repeat=len(space)):
            f = PointMap(space, space, dict(zip(space.elements, images)))
            for h in hyperspaces:
                assert g_map(f, h).min_sets == map_by_sets(f, h)
        for first, second in itertools.product(hyperspaces, repeat=2):
            assignment = {"n0": first, "n1": second}
            for outer in outers:
                got = g_mult(outer, assignment)
                assert got.min_sets == mult_by_sets(outer, assignment)
                assert got == InclusionHyperspace(space, got.min_sets)


def test_hyperspace_names_follow_a_pinned_order():
    # h0, h1, ... name the hyperspaces in this order in every report
    assert [hs_text(h) for h in enumerate_hyperspaces(X2)] == ["a", "a;b", "b", "a,b"]
    assert [hs_text(h) for h in enumerate_hyperspaces(X3)] == [
        "a", "a;b", "a;b;c", "a;c", "a;b,c", "b", "b;c", "b;a,c", "c", "c;a,b",
        "a,b", "a,b;a,c", "a,b;a,c;b,c", "a,b;b,c", "a,c", "a,c;b,c", "b,c", "a,b,c",
    ]
    names, lookup = hyperspace_space(X3)
    assert [lookup[n] for n in names.elements] == enumerate_hyperspaces(X3)


def test_membership_of_a_set_with_foreign_names_is_refused():
    h = g_unit(X2, "a")
    assert {"a"} in h and {"a", "b"} in h and {"b"} not in h
    for foreign in ({"a", "zzz"}, {"zzz"}):
        with pytest.raises(ValidationError, match=r"not elements of the space: \['zzz'\]"):
            foreign in h


# ------------------------------------------------------------------ pools


def _outers(names, chain, rng):
    """Seeded outers over a pool's names: a density, a codensity and, on at
    most 8 names, a table, so both closed forms and the view are reached."""
    yield _random_pointwise(PossibilityCapacity, names, chain, rng)
    yield _random_pointwise(NecessityCapacity, names, chain, rng)
    if len(names) <= 8:
        yield random_capacity(names, chain, rng)


POOLS = [(space, chain, kind) for space, chain in ((X2, K2), (X3, K1), (X3, K2))
         for kind in ("all", "union", "intersection")]


def test_a_pool_and_a_plain_mapping_of_its_members_multiply_alike():
    rng = random.Random(5)
    for space, chain, kind in POOLS:
        pool = capacity_pool(space, chain, kind)
        for _ in range(10):
            for outer in _outers(pool.names, chain, rng):
                assert capacity_equal(mult(outer, pool), mult(outer, dict(pool.members)))
    for space in (X2, X3):
        pool = hyperspace_space(space)
        for _ in range(30):
            outer = random_hyperspace(pool.names, rng)
            assert g_mult(outer, pool) == g_mult(outer, dict(pool.members))


def test_a_pool_is_checked_once_not_on_each_multiplication(monkeypatch):
    rng = random.Random(7)
    pools = [capacity_pool(*case) for case in POOLS]
    hyper = hyperspace_space(X3)
    cases = [(outer, pool) for pool in pools for outer in _outers(pool.names, pool.chain, rng)]
    built = []
    original = Pool.__init__

    def counted(self, names, *args):
        built.append(names)
        original(self, names, *args)

    monkeypatch.setattr(Pool, "__init__", counted)
    for outer, pool in cases:
        mult(outer, pool).value(pool.base.universe)
    for _ in range(20):
        g_mult(random_hyperspace(hyper.names, rng), hyper)
    assert built == []
    # a plain mapping is built into a pool, and so checked, on every call
    outer, pool = cases[0]
    mult(outer, dict(pool.members))
    g_mult(g_unit(hyper.names, "h0"), dict(hyper.members))
    assert built == [pool.names, hyper.names]


def test_a_pool_cannot_be_changed():
    pool = capacity_pool(X2, K2, "union")
    name, member = next(iter(pool.members.items()))
    with pytest.raises(TypeError):
        pool.members[name] = unit_dirac(X2, K2, "b")
    with pytest.raises(TypeError):
        del pool.members[name]
    with pytest.raises(TypeError):
        pool[1] = {}
    for attr in ("names", "members", "base", "chain", "kind", "_keys", "other"):
        with pytest.raises(AttributeError):
            setattr(pool, attr, None)
        with pytest.raises(AttributeError):
            delattr(pool, attr)
    assert pool.members[name] is member
    # nor through the mapping it was built from, which it does not keep
    given = {"n0": unit_dirac(X2, K2, "a")}
    built = Pool(FiniteSpace(["n0"]), given, K2, CAPACITIES)
    given["n0"] = unit_dirac(X2, K2, "b")
    assert built.members["n0"] == unit_dirac(X2, K2, "a")
