"""Capacities, their classes, and the capacity monad.

Counting and multiplication facts are frozen from independent oracles
defined at the top of this module: a brute-force enumeration of monotone
normalized set functions, and a literal descending-scan implementation
of the flattening formula.
"""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg.chain import Chain
from capalg.errors import (
    BudgetExceededError,
    CarrierMismatchError,
    ValidationError,
)
from capalg.spaces import (
    FiniteSpace,
    PointMap,
    Pool,
    enumerate_hyperspaces,
    g_map,
    g_mult,
    g_unit,
    hyperspace_space,
    random_hyperspace,
)
import capalg.capacity as capacity_module
from capalg.capacity import (
    CAPACITIES,
    Capacity,
    MultView,
    NecessityCapacity,
    PossibilityCapacity,
    PushforwardView,
    SetFunction,
    as_capacity,
    as_necessity,
    as_possibility,
    canonical_key,
    capacity_equal,
    capacity_pool,
    capacity_space,
    classify,
    embed_inclusion_hyperspace,
    enumerate_capacities,
    enumerate_ranks,
    kappa_dual,
    mult,
    pushforward,
    random_capacity,
    unit_dirac,
    validate,
    _pointwise_form,
    _pointwise_mult,
    _support,
)
from capalg.convexity import UnionStructureMap, density_key
from capalg.serial import capacity_to_json
from capalg.suites import _random_pointwise

K2 = Chain(2)
X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])


def brute_force_capacities(space, chain):
    """Independent oracle: every monotone subset assignment with c(X)=1."""
    subsets = [s for s in space.subsets()]
    found = []
    for values in itertools.product(chain.levels, repeat=len(subsets)):
        table = dict(zip(subsets, values))
        if table[space.universe] != chain.one:
            continue
        table[frozenset()] = chain.zero
        if all(
            table[s] <= table[t]
            for s in table
            for t in subsets
            if s <= t
        ):
            found.append(table)
    return found


def written_out_mult(outer, assignment, members):
    """Independent flattening oracle: the descending first-hit scan at one
    subset, reading every inner capacity at every level.  A nested
    multiplication outer is evaluated by this scan too."""
    chain = outer.chain
    members = frozenset(members)
    if not members:
        return chain.zero
    for alpha in reversed(chain.levels):
        if alpha == chain.zero:
            break
        hot = frozenset(
            n for n in outer.carrier.elements
            if assignment[n].value(members) >= alpha
        )
        if isinstance(outer, MultView):
            outer_value = written_out_mult(outer.outer, outer.pool.members, hot)
        else:
            outer_value = outer.value(hot)
        if outer_value >= alpha:
            return alpha
    return chain.zero


# frozen counts, confirmed against brute_force_capacities below
CAPACITY_COUNTS = {(2, 2): 9, (3, 2): 129}
POSSIBILITY_COUNTS = {(2, 2): 5, (3, 2): 19}


def test_capacity_counts_match_brute_force_oracle():
    for space in (X2, X3):
        oracle = brute_force_capacities(space, K2)
        assert len(oracle) == CAPACITY_COUNTS[(len(space), 2)]
        enumerated = list(enumerate_capacities(space, K2))
        assert len(enumerated) == len(oracle)
        keys = {canonical_key(c) for c in enumerated}
        oracle_keys = {
            tuple(t[s].i for s in space.subsets()) for t in oracle
        }
        assert keys == oracle_keys


def test_enumeration_stream_is_the_brute_force_oracle_in_order():
    # the enumeration builds its tables without validating them: pin that
    # each one is a capacity, keyed in subset order, and that the stream is
    # the oracle's lexicographic order of value tuples, as ranks
    for space in (FiniteSpace(["a"]), X2, X3):
        for chain in (Chain(1), K2):
            stream = list(enumerate_capacities(space, chain))
            oracle = brute_force_capacities(space, chain)
            assert [canonical_key(c) for c in stream] == [
                tuple(t[s].i for s in space.subsets()) for t in oracle
            ]
            for c in stream:
                assert type(c) is Capacity
                assert list(c.table) == list(space.subsets(include_empty=True))
                assert validate(c) == []
                assert c == Capacity(space, chain, c.table)


def pruned_product_capacities(space, chain):
    """The brute-force oracle's value tuples, in its product order, on more
    points: a prefix is cut as soon as a subset's level falls below that
    of a subset it contains."""
    subsets, found, prefix = list(space.subsets()), [], []

    def grow(i):
        if i == len(subsets):
            found.append(tuple(lv.value for lv in prefix))
            return
        for lv in chain.levels if i < len(subsets) - 1 else [chain.one]:
            if all(lv >= prefix[j] for j, t in enumerate(subsets[:i]) if t < subsets[i]):
                prefix.append(lv)
                grow(i + 1)
                prefix.pop()

    grow(0)
    return found


def test_rank_walk_is_the_brute_force_order_on_four_points():
    for space in (X2, X3):
        assert pruned_product_capacities(space, K2) == [
            tuple(t[s].value for s in space.subsets()) for t in brute_force_capacities(space, K2)
        ]
    x4 = FiniteSpace(list("abcd"))
    oracle = pruned_product_capacities(x4, K2)
    assert len(oracle) == 7246
    assert [tuple(Fraction(r, 2) for r in ranks[1:]) for ranks in enumerate_ranks(x4, 2)] == oracle
    assert [canonical_key(c) for c in enumerate_capacities(x4, K2)] == [
        tuple(int(v * 2) for v in values) for values in oracle
    ]


def test_enumeration_on_four_points_yields_only_capacities():
    x4 = FiniteSpace(list("abcd"))
    count = 0
    for c in enumerate_capacities(x4, K2):
        assert validate(c) == []
        count += 1
    assert count == 7246


def test_class_counts_match_density_oracle():
    for space in (X2, X3):
        n, k = len(space), K2.k
        # densities with max 1: (k+1)^n - k^n; codensities dually
        expected = (k + 1) ** n - k ** n
        assert expected == POSSIBILITY_COUNTS[(n, k)]
        assert len(list(enumerate_capacities(space, K2, "union"))) == expected
        assert len(list(enumerate_capacities(space, K2, "intersection"))) == expected


def test_two_valued_capacities_are_exactly_the_hyperspaces():
    k1 = Chain(1)
    for space in (X2, X3):
        caps = list(enumerate_capacities(space, k1))
        hyper = enumerate_hyperspaces(space)
        assert len(caps) == len(hyper)
        embedded = {canonical_key(embed_inclusion_hyperspace(h, k1)) for h in hyper}
        assert embedded == {canonical_key(c) for c in caps}


def test_flattening_worked_example_is_frozen():
    inner_p = unit_dirac(X2, K2, "a")
    inner_q = Capacity(
        X2, K2,
        {frozenset(): 0, frozenset("a"): 0, frozenset("b"): "1/2", frozenset("ab"): 1},
    )
    names = FiniteSpace(["p", "q"])
    outer = Capacity(
        names, K2,
        {frozenset(): 0, frozenset("p"): 1, frozenset("q"): "1/2", frozenset("pq"): 1},
    )
    assignment = {"p": inner_p, "q": inner_q}
    flat = mult(outer, assignment)
    # frozen expected values, computed by written_out_mult
    assert flat.value(frozenset("a")).value == Fraction(1)
    assert flat.value(frozenset("b")).value == Fraction(1, 2)
    assert flat.value(frozenset("ab")).value == Fraction(1)
    for s in X2.subsets(include_empty=True):
        assert flat.value(s) == written_out_mult(outer, assignment, s)


def test_flattening_agrees_with_oracle_exhaustively():
    names = FiniteSpace(["p", "q"])
    outers = list(enumerate_capacities(names, K2))
    inners = list(enumerate_capacities(X2, K2))
    for outer in outers:
        for pair in itertools.product(inners, repeat=2):
            assignment = dict(zip(names.elements, pair))
            flat = mult(outer, assignment)
            for s in X2.subsets(include_empty=True):
                assert flat.value(s) == written_out_mult(outer, assignment, s)


def test_monad_unit_laws_exhaustively():
    names, lookup = capacity_space(X2, K2)
    for name, c in lookup.items():
        # flattening the Dirac at c gives c back
        assert capacity_equal(mult(unit_dirac(names, K2, name), lookup), c)
    eta = {x: unit_dirac(X2, K2, x) for x in X2.elements}
    for c in lookup.values():
        # assigning each point its Dirac gives c back
        assert capacity_equal(mult(c, eta), c)


def test_functor_identity_composition_and_class_preservation():
    ident = PointMap(X3, X3, {e: e for e in X3.elements})
    f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "b"})
    g = PointMap(X2, X3, {"a": "c", "b": "a"})
    gf = PointMap(X3, X3, {x: g(f(x)) for x in X3.elements})
    for c in enumerate_capacities(X3, K2):
        assert capacity_equal(pushforward(ident, c), c)
        assert capacity_equal(
            pushforward(g, pushforward(f, c)), pushforward(gf, c)
        )
    for p in enumerate_capacities(X3, K2, "union"):
        pushed = pushforward(f, p)
        assert isinstance(pushed, PossibilityCapacity)
        assert capacity_equal(pushed, pushforward(f, as_capacity(p)))
    for n in enumerate_capacities(X3, K2, "intersection"):
        pushed = pushforward(f, n)
        assert isinstance(pushed, NecessityCapacity)
        assert capacity_equal(pushed, pushforward(f, as_capacity(n)))


def test_unit_is_natural():
    f = PointMap(X3, X2, {"a": "b", "b": "b", "c": "a"})
    for x in X3.elements:
        assert capacity_equal(
            pushforward(f, unit_dirac(X3, K2, x)), unit_dirac(X2, K2, f(x))
        )


def test_mult_is_natural_in_the_base():
    f = PointMap(X3, X2, {"a": "a", "b": "a", "c": "b"})
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 3)
        names = FiniteSpace([f"n{i}" for i in range(m)])
        assignment = {n: random_capacity(X3, K2, rng) for n in names.elements}
        outer = random_capacity(names, K2, rng)
        lifted = {n: pushforward(f, assignment[n]) for n in names.elements}
        assert capacity_equal(
            pushforward(f, mult(outer, assignment)), mult(outer, lifted)
        )


def test_classify_matches_all_pairs_oracle():
    x4 = FiniteSpace(list("abcd"))
    for c in itertools.chain(enumerate_capacities(X3, K2), enumerate_capacities(x4, Chain(1))):
        subsets = list(c.carrier.subsets(include_empty=True))
        union_ok = all(
            c.value(a | b) == max(c.value(a), c.value(b))
            for a, b in itertools.product(subsets, repeat=2)
        )
        inter_ok = all(
            c.value(a & b) == min(c.value(a), c.value(b))
            for a, b in itertools.product(subsets, repeat=2)
        )
        flags = classify(c)
        assert flags.is_union == union_ok
        assert flags.is_intersection == inter_ok


def test_class_conversions_round_trip_or_reject():
    for p in enumerate_capacities(X3, K2, "union"):
        again = as_possibility(as_capacity(p))
        assert again == p
    for n in enumerate_capacities(X3, K2, "intersection"):
        again = as_necessity(as_capacity(n))
        assert again == n
    lopsided = Capacity(
        X2, K2,
        {frozenset(): 0, frozenset("a"): 0, frozenset("b"): 0, frozenset("ab"): 1},
    )
    assert not classify(lopsided).is_union
    with pytest.raises(ValidationError):
        as_possibility(lopsided)


def test_a_capacity_outside_a_class_is_refused_for_the_law():
    # its density would be (0, 0) and its conjugate's codensity (1, 1):
    # the law is decided before either form is built
    k1 = Chain(1)
    lopsided = Capacity(
        X2, k1, {frozenset(): 0, frozenset("a"): 0, frozenset("b"): 0, X2.universe: 1}
    )
    union = "^capacity does not satisfy the union law$"
    with pytest.raises(ValidationError, match=union):
        as_possibility(lopsided)
    with pytest.raises(ValidationError, match=union):
        UnionStructureMap.from_table(X2, k1, {})(lopsided)
    with pytest.raises(ValidationError, match="^capacity does not satisfy the intersection law$"):
        as_necessity(kappa_dual(lopsided))


def pair_laws(c) -> tuple[bool, bool]:
    """The union and intersection laws, written out over all pairs of subsets."""
    pairs = list(itertools.product(c.carrier.subsets(include_empty=True), repeat=2))
    return (
        all(c.value(a | b) == max(c.value(a), c.value(b)) for a, b in pairs),
        all(c.value(a & b) == min(c.value(a), c.value(b)) for a, b in pairs),
    )


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(
    strat.sampled_from(["table", "density", "codensity"]),
    strat.integers(min_value=1, max_value=4),
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=0, max_value=2**32 - 1),
)
def test_class_decision_on_ranks_matches_the_pair_laws(form, points, k, seed):
    rng = random.Random(seed)
    chain = Chain(k)
    base = FiniteSpace([f"x{i}" for i in range(points)])
    cls = NecessityCapacity if form == "codensity" else PossibilityCapacity
    if form == "table":
        subjects = [random_capacity(base, chain, rng)]
    else:
        p = _random_pointwise(cls, base, chain, rng)
        subjects = [as_capacity(p), p]
    laws = pair_laws(subjects[0])
    for c in subjects:
        assert classify(c) == laws
        for side, holds in zip((PossibilityCapacity, NecessityCapacity), laws):
            got = _pointwise_form(side, c)
            assert (got is not None) == holds
            if holds:
                assert isinstance(got, side) and capacity_equal(got, c)
    if form != "table":
        # the closed form of mult is the form of its table
        names = names_of(rng.randint(2, 6))
        outer = _random_pointwise(cls, names, chain, rng)
        flat = mult(outer, {n: _random_pointwise(cls, base, chain, rng) for n in names.elements})
        assert type(flat) is cls
        table = Capacity(base, chain, as_capacity(flat).table)
        assert _pointwise_form(cls, flat) == _pointwise_form(cls, table)


def test_classes_of_large_carriers_are_decided_by_form_or_refused(monkeypatch):
    # a density or codensity is of the other class exactly when it is a
    # Dirac capacity; a lazy view has no table to decide on above 16 points,
    # and is refused before any of its values is read
    big = FiniteSpace([f"y{i}" for i in range(17)])
    assert classify(PossibilityCapacity(big, K2, {"y0": 1, "y3": "1/2"})) == (True, False)
    assert classify(NecessityCapacity(big, K2, {"y3": 0})) == (True, True)
    assert as_possibility(NecessityCapacity(big, K2, {"y3": 0})) == unit_dirac(big, K2, "y3")
    f = PointMap(X3, big, {"a": "y0", "b": "y5", "c": "y5"})
    view = pushforward(f, random_capacity(X3, K2, random.Random(1)))
    assert isinstance(view, PushforwardView)
    reads = []
    value = PushforwardView.value

    def counted(self, members):
        reads.append(members)
        return value(self, members)

    monkeypatch.setattr(PushforwardView, "value", counted)
    with pytest.raises(BudgetExceededError, match="limited to carriers of size 16"):
        classify(view)
    assert reads == []


def test_a_closed_form_mult_keeps_its_density_for_the_structure_map(monkeypatch):
    names, pool = capacity_pool(X3, K2, "union")
    outer = PossibilityCapacity(names, K2, {"p0": "1/2", "p7": 1, "p12": "1/2"})
    flat = mult(outer, pool)
    density = PossibilityCapacity(X3, K2, {x: flat.value(frozenset(x)) for x in X3.elements})
    reads = []
    value = SetFunction.value

    def counted(self, members):
        reads.append(members)
        return value(self, members)

    monkeypatch.setattr(SetFunction, "value", counted)
    form = as_possibility(flat)
    assert form == density and as_possibility(flat) is form
    assert classify(flat).is_union
    assert UnionStructureMap.from_table(X3, K2, {density_key(density): "b"})(flat) == "b"
    assert reads == []


def test_conjugation_is_an_involution_swapping_classes():
    universe = X3.universe
    for c in enumerate_capacities(X3, K2):
        dual = kappa_dual(c)
        for s in X3.subsets(include_empty=True):
            assert dual.value(s).value == 1 - c.value(universe - s).value
        # the conjugate of a capacity is wrapped unchecked: it must pass the check
        assert Capacity(X3, K2, dual.table) == dual
        assert list(dual.table) == list(X3.subsets(include_empty=True))
        assert kappa_dual(dual) == c
        flags, dual_flags = classify(c), classify(dual)
        assert flags.is_union == dual_flags.is_intersection
        assert flags.is_intersection == dual_flags.is_union
    for x in X3.elements:
        assert capacity_equal(kappa_dual(unit_dirac(X3, K2, x)), unit_dirac(X3, K2, x))


def test_conjugate_of_a_table_that_is_not_a_capacity_is_checked():
    # 1 on points and 0 on pairs: its conjugate is 1 on pairs and 0 on points
    bumpy = SetFunction(X3, K2, {
        s: K2.one if len(s) in (1, 3) else K2.zero for s in X3.subsets(include_empty=True)
    })
    with pytest.raises(ValidationError, match="monotonicity"):
        kappa_dual(bumpy)


def test_conjugation_keeps_one_dimensional_forms():
    p = PossibilityCapacity(X3, K2, {"a": 1, "b": "1/2"})
    dual = kappa_dual(p)
    assert isinstance(dual, NecessityCapacity)
    assert dual.codensity == {
        "a": K2.zero, "b": K2.level("1/2"), "c": K2.one
    }
    assert capacity_equal(dual, kappa_dual(as_capacity(p)))
    back = kappa_dual(dual)
    assert isinstance(back, PossibilityCapacity)
    assert back == p


def test_partial_density_fills_zero_and_codensity_fills_one():
    p = PossibilityCapacity(X3, K2, {"b": 1})
    assert p.density["a"] == K2.zero and p.density["c"] == K2.zero
    n = NecessityCapacity(X3, K2, {"b": 0})
    assert n.codensity["a"] == K2.one and n.codensity["c"] == K2.one
    assert capacity_equal(p, unit_dirac(X3, K2, "b"))
    assert capacity_equal(n, unit_dirac(X3, K2, "b"))
    with pytest.raises(ValidationError):
        PossibilityCapacity(X3, K2, {"a": "1/2"})  # never attains 1
    with pytest.raises(ValidationError):
        NecessityCapacity(X3, K2, {"a": "1/2"})  # never attains 0


def test_validate_reports_defects():
    droop = SetFunction(
        X2, K2,
        {frozenset(): 0, frozenset("a"): 1, frozenset("b"): 0, frozenset("ab"): "1/2"},
    )
    problems = validate(droop)
    assert any("monotonicity" in p for p in problems)
    assert any("not-normalized" in p for p in problems)
    leaky = SetFunction(
        X2, K2,
        {frozenset(): "1/2", frozenset("a"): 1, frozenset("b"): 1, frozenset("ab"): 1},
    )
    assert any("empty-set" in p for p in validate(leaky))
    with pytest.raises(ValidationError):
        Capacity(X2, K2, dict(droop.table))
    assert validate(unit_dirac(X2, K2, "a")) == []


def test_pushforward_to_large_target_is_a_lazy_view():
    big = FiniteSpace([f"y{i}" for i in range(20)])
    f = PointMap(X3, big, {"a": "y0", "b": "y7", "c": "y7"})
    c = random_capacity(X3, K2, random.Random(3))
    view = pushforward(f, c)
    assert isinstance(view, PushforwardView)
    for s in (frozenset(["y0"]), frozenset(["y7"]), frozenset(["y0", "y7", "y12"])):
        assert view.value(s) == c.value(f.preimage(s))
    assert view.value(big.universe) == K2.one
    # density-backed inputs push to densities even at this size
    d = pushforward(f, unit_dirac(X3, K2, "b"))
    assert isinstance(d, PossibilityCapacity)
    assert d.value(frozenset(["y7"])) == K2.one


def test_mult_on_large_base_is_a_lazy_view():
    big = FiniteSpace([f"y{i}" for i in range(18)])
    names = FiniteSpace(["p", "q"])
    assignment = {
        "p": PossibilityCapacity(big, K2, {"y0": 1, "y5": "1/2"}),
        "q": PossibilityCapacity(big, K2, {"y5": 1}),
    }
    outer = Capacity(
        names, K2,
        {frozenset(): 0, frozenset("p"): "1/2", frozenset("q"): "1/2", frozenset("pq"): 1},
    )
    view = mult(outer, assignment)
    assert isinstance(view, MultView)
    for s in (frozenset(["y0"]), frozenset(["y5"]), frozenset(["y0", "y5"]), frozenset(["y9"])):
        assert view.value(s) == written_out_mult(outer, assignment, s)


def test_mult_input_validation():
    names = FiniteSpace(["p", "q"])
    outer = unit_dirac(names, K2, "p")
    with pytest.raises(ValidationError):
        mult(outer, {"p": unit_dirac(X2, K2, "a")})  # q missing
    with pytest.raises(CarrierMismatchError):
        mult(outer, {"p": unit_dirac(X2, K2, "a"), "q": unit_dirac(X3, K2, "a")})
    with pytest.raises(ValidationError):
        mult(outer, {"p": unit_dirac(X2, K2, "a"), "q": unit_dirac(X2, Chain(3), "a")})


def test_hyperspace_embedding_is_injective_and_two_valued():
    seen = set()
    for h in enumerate_hyperspaces(X3):
        c = embed_inclusion_hyperspace(h, K2)
        assert validate(c) == []
        for s in X3.subsets():
            assert (c.value(s) == K2.one) == (s in h)
            assert c.value(s) in (K2.zero, K2.one)
        seen.add(canonical_key(c))
    assert len(seen) == 18


def test_hyperspace_embedding_commutes_with_unit_and_pushforward():
    f = PointMap(X3, X2, {"a": "b", "b": "a", "c": "b"})
    for x in X3.elements:
        assert capacity_equal(
            embed_inclusion_hyperspace(g_unit(X3, x), K2), unit_dirac(X3, K2, x)
        )
    for h in enumerate_hyperspaces(X3):
        assert capacity_equal(
            embed_inclusion_hyperspace(g_map(f, h), K2),
            pushforward(f, embed_inclusion_hyperspace(h, K2)),
        )


def test_hyperspace_embedding_commutes_with_flattening():
    names, lookup = hyperspace_space(X2)
    embedded = {n: embed_inclusion_hyperspace(h, K2) for n, h in lookup.items()}
    for outer in enumerate_hyperspaces(names):
        flat = g_mult(outer, lookup)
        flat_c = mult(embed_inclusion_hyperspace(outer, K2), embedded)
        assert capacity_equal(flat_c, embed_inclusion_hyperspace(flat, K2))
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randint(1, 4)
        small = FiniteSpace([f"n{i}" for i in range(m)])
        assignment = {n: random_hyperspace(X3, rng) for n in small.elements}
        outer = random_hyperspace(small, rng)
        flat = g_mult(outer, assignment)
        flat_c = mult(
            embed_inclusion_hyperspace(outer, K2),
            {n: embed_inclusion_hyperspace(h, K2) for n, h in assignment.items()},
        )
        assert capacity_equal(flat_c, embed_inclusion_hyperspace(flat, K2))


def test_random_capacity_is_seeded_and_valid():
    a = random_capacity(X3, K2, random.Random(42))
    b = random_capacity(X3, K2, random.Random(42))
    assert capacity_equal(a, b)
    for seed in range(25):
        c = random_capacity(X3, K2, random.Random(seed))
        assert validate(c) == []


def test_enumeration_budget_guard():
    x5 = FiniteSpace(list("abcde"))
    with pytest.raises(BudgetExceededError):
        list(enumerate_capacities(x5, K2))
    # a raised budget admits the same space
    assert list(enumerate_capacities(x5, Chain(1), budget=256))
    with pytest.raises(ValidationError):
        list(enumerate_capacities(X2, K2, kind="weird"))


def test_pushforward_view_rejects_names_outside_its_carrier():
    big = FiniteSpace([f"y{i}" for i in range(20)])
    f = PointMap(X2, big, {"a": "y0", "b": "y1"})
    view = PushforwardView(f, random_capacity(X2, K2, random.Random(1)))
    for bad in ({"zzz"}, {"y0", "zzz"}):
        with pytest.raises(ValidationError):
            view.value(frozenset(bad))


# ------------------------------------------- multiplication against the scan


def random_inner(base, chain, rng):
    """A pool member of a random class on a small base, a seeded table, or
    (on a base too large for tables) a seeded density or codensity."""
    if len(base) > 16:
        return _random_pointwise(rng.choice([PossibilityCapacity, NecessityCapacity]), base, chain, rng)
    if rng.random() < 0.5:
        return random_capacity(base, chain, rng)
    _, pool = capacity_pool(base, chain, rng.choice(["all", "union", "intersection"]))
    return rng.choice(list(pool.values()))


def names_of(size):
    return FiniteSpace([f"n{i}" for i in range(size)])


def density_outer(chain, rng):
    return _random_pointwise(PossibilityCapacity, names_of(rng.randint(1, 20)), chain, rng)


def codensity_outer(chain, rng):
    return _random_pointwise(NecessityCapacity, names_of(rng.randint(1, 20)), chain, rng)


def table_outer(chain, rng):
    return random_capacity(names_of(rng.randint(1, 4)), chain, rng)


def pushforward_outer(chain, rng):
    source = names_of(rng.randint(1, 3))
    names = FiniteSpace([f"m{i}" for i in range(rng.randint(17, 20))])
    f = PointMap(source, names, {x: rng.choice(names.elements) for x in source.elements})
    return PushforwardView(f, random_capacity(source, chain, rng))


def nested_outer(chain, rng):
    level2 = names_of(rng.randint(1, 3))
    names = FiniteSpace([f"m{i}" for i in range(rng.randint(17, 20))])
    theta = random_capacity(level2, chain, rng)
    view = mult(theta, {t: random_inner(names, chain, rng) for t in level2.elements})
    assert isinstance(view, MultView)
    return view


OUTER_FORMS = {
    "density": density_outer,
    "codensity": codensity_outer,
    "table": table_outer,
    "pushforward": pushforward_outer,
    "nested": nested_outer,
}


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(
    strat.sampled_from(sorted(OUTER_FORMS)),
    strat.sampled_from([2, 3, 18]),
    strat.integers(min_value=1, max_value=2),
    strat.integers(min_value=0, max_value=2**32 - 1),
)
def test_mult_matches_the_written_out_scan(form, points, k, seed):
    # 2-3 points are checked on every subset, 18 points on sampled subsets
    rng = random.Random(seed)
    chain = Chain(k)
    base = FiniteSpace([f"x{i}" for i in range(points)])
    outer = OUTER_FORMS[form](chain, rng)
    assignment = {n: random_inner(base, chain, rng) for n in outer.carrier.elements}
    flat = mult(outer, assignment)
    assert isinstance(flat, (PossibilityCapacity, NecessityCapacity, MultView))
    if points > 16:
        subsets = [frozenset(rng.sample(base.elements, rng.randint(0, points))) for _ in range(12)]
        subsets.append(base.universe)
    else:
        subsets = list(base.subsets(include_empty=True))
    for s in subsets:
        assert flat.value(s) == written_out_mult(outer, assignment, s)


class CountingCapacity:
    """A capacity that counts the subsets it is read at."""

    def __init__(self, c):
        self.carrier, self.chain, self.inner, self.reads = c.carrier, c.chain, c, 0

    def value(self, members):
        self.reads += 1
        return self.inner.value(members)


def test_mult_reads_inner_capacities_only_at_the_outer_support():
    rng = random.Random(7)
    names = names_of(12)
    support = ["n2", "n5", "n9"]
    outers = [
        PossibilityCapacity(names, K2, {"n2": 1, "n5": "1/2", "n9": "1/2"}),
        NecessityCapacity(names, K2, {"n2": 0, "n5": "1/2", "n9": "1/2"}),
    ]
    big = FiniteSpace([f"m{i}" for i in range(20)])
    source = names_of(3)
    f = PointMap(source, big, {"n0": "m4", "n1": "m11", "n2": "m4"})
    outers.append(PushforwardView(f, random_capacity(source, K2, rng)))
    for outer, seen in zip(outers, (support, support, ["m4", "m11"])):
        assignment = {
            n: CountingCapacity(random_capacity(X3, K2, rng)) for n in outer.carrier.elements
        }
        mult(outer, assignment)
        read = {n for n, c in assignment.items() if c.reads}
        assert read == set(seen), type(outer).__name__


def test_a_nested_outer_reads_only_the_supports_of_its_inner_capacities():
    rng = random.Random(11)
    names = names_of(20)  # above the table limit, so mult(theta, ...) is a view
    level2 = names_of(2)
    theta = random_capacity(level2, K2, rng)
    nested = mult(theta, {
        "n0": PossibilityCapacity(names, K2, {"n2": 1, "n5": "1/2"}),
        "n1": NecessityCapacity(names, K2, {"n9": 0}),
    })
    assert isinstance(nested, MultView)
    assignment = {
        n: CountingCapacity(random_capacity(X3, K2, rng)) for n in names.elements
    }
    flat = mult(nested, assignment)
    assert {n for n, c in assignment.items() if c.reads} == {"n2", "n5", "n9"}
    for s in X3.subsets(include_empty=True):
        assert flat.value(s) == written_out_mult(nested, assignment, s)


# pure: every inner capacity at the support is of the outer's class;
# mixed: one of them is a table, so mult takes the scan
@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(
    strat.sampled_from(["density", "codensity", "mixed"]),
    strat.integers(min_value=1, max_value=4),
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=0, max_value=2**32 - 1),
)
def test_mult_in_closed_form_matches_the_written_out_scan(form, points, k, seed):
    rng = random.Random(seed)
    chain = Chain(k)
    base = FiniteSpace([f"x{i}" for i in range(points)])
    cls = NecessityCapacity if form == "codensity" else PossibilityCapacity
    names = names_of(rng.randint(2, 8))
    outer = _random_pointwise(cls, names, chain, rng, max_support=len(names) - 1)
    support = _support(outer)
    assert len(support) < len(names)
    assignment = {n: _random_pointwise(cls, base, chain, rng) for n in names.elements}
    if form == "mixed":
        assignment[rng.choice(support)] = random_capacity(base, chain, rng)
    closed = _pointwise_mult(outer, Pool.over(outer, assignment, CAPACITIES), support)
    assert (closed is None) == (form == "mixed")
    flat = mult(outer, assignment)
    assert type(flat) is (MultView if closed is None else cls)
    for s in base.subsets(include_empty=True):
        assert flat.value(s) == written_out_mult(outer, assignment, s)


def test_mult_of_a_density_over_densities_neither_scans_nor_validates(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(MultView, "__init__", counted("MultView", MultView.__init__))
    monkeypatch.setattr(MultView, "value", counted("MultView.value", MultView.value))
    monkeypatch.setattr(capacity_module, "validate", counted("validate", validate))
    for name in ("_fold", "as_capacity"):
        monkeypatch.setattr(capacity_module, name, counted(name, getattr(capacity_module, name)))
    names, pool = capacity_pool(X3, K2, "union")
    outer = PossibilityCapacity(names, K2, {"p0": "1/2", "p7": 1, "p12": "1/2"})
    flat = mult(outer, pool)
    assert calls == Counter()
    assert type(flat) is PossibilityCapacity
    for s in X3.subsets(include_empty=True):
        assert flat.value(s) == written_out_mult(outer, pool, s)


def test_set_functions_and_views_refuse_foreign_or_missing_sets():
    with pytest.raises(BudgetExceededError, match="limited to carriers of size 16"):
        SetFunction(FiniteSpace([f"p{i}" for i in range(17)]), K2, {})
    with pytest.raises(ValidationError, match=r"missing value for subset \['a'\]"):
        SetFunction(X2, K2, {frozenset(): 0})
    with pytest.raises(ValidationError, match=r"\['z'\] is not a subset of the carrier"):
        as_capacity(unit_dirac(X2, K2, "a")).value(frozenset({"z"}))
    f = PointMap(X2, X3, {"a": "a", "b": "b"})
    with pytest.raises(CarrierMismatchError, match="capacity carrier differs from the map source"):
        PushforwardView(f, unit_dirac(X3, K2, "a"))
    with pytest.raises(CarrierMismatchError, match="capacity carrier differs from the map source"):
        pushforward(f, unit_dirac(X3, K2, "a"))
    for c in (PossibilityCapacity(X2, K2, {"a": 1}), NecessityCapacity(X2, K2, {"a": 0})):
        with pytest.raises(ValidationError, match=r"\['z'\] are not elements of the carrier"):
            c.value(frozenset({"a", "z"}))
    with pytest.raises(ValidationError, match="'z' is not in the space"):
        unit_dirac(X2, K2, "z")
    # equal values on other carriers or chains are still other capacities
    assert not capacity_equal(unit_dirac(X2, K2, "a"), unit_dirac(X3, K2, "a"))
    assert not capacity_equal(unit_dirac(X2, K2, "a"), unit_dirac(X2, Chain(1), "a"))


# ------------------------------------------- tabulation on integer ranks


POINTWISE = (PossibilityCapacity, NecessityCapacity)


def per_subset(c):
    """The values of c read one subset at a time, in subset order."""
    return [c.value(s) for s in c.carrier.subsets(include_empty=True)]


def random_map(source, target, rng):
    return PointMap(source, target, {x: rng.choice(target.elements) for x in source.elements})


def random_form(space, chain, rng, classes=(Capacity, PossibilityCapacity, NecessityCapacity)):
    """A seeded table, density or codensity on the space, its class drawn
    from ``classes``; no pool is built, so any size up to 16 points is cheap."""
    cls = rng.choice(classes)
    if cls is Capacity:
        return random_capacity(space, chain, rng)
    return _random_pointwise(cls, space, chain, rng)


def pushforward_view(base, chain, rng):
    """A pushforward view onto the base, from a table, density, codensity
    or (one level down) pushforward view on 1-4 points."""
    source = names_of(rng.randint(1, 4))
    c = random_form(source, chain, rng)
    if rng.random() < 0.25:
        c = PushforwardView(random_map(source, source, rng), c)
    return PushforwardView(random_map(source, base, rng), c)


def mult_view(outer, base, chain, rng, classes=(Capacity, PossibilityCapacity, NecessityCapacity)):
    """The multiplication view itself, built without ``mult``, so that a
    pure closed-form case is tabulated from the view as well."""
    assignment = {n: random_form(base, chain, rng, classes) for n in outer.carrier.elements}
    return MultView(outer, Pool.over(outer, assignment, CAPACITIES), _support(outer))


def nested_view_outer(chain, rng):
    """A multiplication view over names, as an outer read through its
    ``value``: on at most 4 names, or on 17-20, where ``mult`` keeps it lazy."""
    names = names_of(rng.choice([rng.randint(1, 4), rng.randint(17, 20)]))
    theta = random_form(names_of(rng.randint(1, 3)), chain, rng)
    return mult_view(theta, names, chain, rng, POINTWISE)


def view_of_form(form, base, chain, rng):
    if form == "pushforward":
        return pushforward_view(base, chain, rng)
    if form in ("density", "codensity"):
        cls = PossibilityCapacity if form == "density" else NecessityCapacity
        outer = _random_pointwise(cls, names_of(rng.randint(1, 6)), chain, rng)
        return mult_view(outer, base, chain, rng, (cls,))
    if form == "mixed":
        outer = random_form(names_of(rng.randint(1, 6)), chain, rng, POINTWISE)
        return mult_view(outer, base, chain, rng)
    if form == "table":
        return mult_view(random_capacity(names_of(rng.randint(1, 4)), chain, rng), base, chain, rng)
    if form == "pushforward-outer":
        return mult_view(pushforward_outer(chain, rng), base, chain, rng)
    return mult_view(nested_view_outer(chain, rng), base, chain, rng)


VIEW_FORMS = [
    "pushforward", "density", "codensity", "mixed", "table", "pushforward-outer", "nested",
]


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(
    strat.sampled_from(VIEW_FORMS),
    strat.integers(min_value=1, max_value=4),
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=0, max_value=2**32 - 1),
)
def test_tabulation_on_ranks_matches_the_per_subset_reading(form, points, k, seed):
    rng = random.Random(seed)
    chain = Chain(k)
    base = names_of(points)
    view = view_of_form(form, base, chain, rng)
    table = as_capacity(view)
    assert list(table.table) == list(base.subsets(include_empty=True))
    assert list(table.table.values()) == per_subset(view)


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(
    strat.sampled_from(VIEW_FORMS + ["fold"]),
    strat.integers(min_value=1, max_value=4),
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=0, max_value=2**32 - 1),
)
def test_views_over_capacities_are_tabulated_unchecked_and_are_capacities(form, points, k, seed):
    # a pushforward or multiplication view over tables, densities and
    # codensities only, and the fold of a density or codensity, is a
    # capacity: as_capacity takes its table without validate, and
    # validate finds nothing on it
    rng = random.Random(seed)
    chain = Chain(k)
    base = names_of(points)
    if form == "fold":
        view = _random_pointwise(rng.choice(POINTWISE), base, chain, rng)
    else:
        view = view_of_form(form, base, chain, rng)
    checked = []
    real = capacity_module.validate
    capacity_module.validate = lambda sf: checked.append(sf) or real(sf)
    try:
        table = as_capacity(view)
    finally:
        capacity_module.validate = real
    assert checked == []
    assert validate(view) == validate(table) == []
    assert list(table.table.values()) == per_subset(view)


def test_tabulation_on_ranks_matches_the_per_subset_reading_on_the_pool_names():
    # the 9-name pool of the two-point k=2 monad laws, as the base that
    # fmap(eta_hat, c) and mult(theta, assign2) tabulate on
    names, pool = capacity_pool(X2, K2, "all")
    rng = random.Random(21)
    for form in VIEW_FORMS * 3:
        if form == "pushforward":
            view = PushforwardView(random_map(X2, names, rng), rng.choice(list(pool.values())))
        else:
            view = view_of_form(form, names, K2, rng)
        assert list(as_capacity(view).table.values()) == per_subset(view), form


def written_out_validate(sf):
    """Independent diagnostics oracle: every covering pair F vs F + {x},
    read subset by subset through ``value``, subsets in order and x in
    carrier order, between the empty-set and the normalization checks."""
    carrier, chain = sf.carrier, sf.chain
    problems = []
    if sf.value(frozenset()) != chain.zero:
        problems.append(f"empty-set-nonzero: value(∅)={sf.value(frozenset())}")
    for s in carrier.subsets(include_empty=True):
        for x in carrier.elements:
            v, w = sf.value(s), sf.value(s | {x})
            if x not in s and v > w:
                a, b = (",".join(carrier.sorted_names(t)) for t in (s, s | {x}))
                problems.append(f"monotonicity violated at {{{a}}}⊆{{{b}}}: {v} > {w}")
    if sf.value(carrier.universe) != chain.one:
        problems.append(f"not-normalized: value(X)={sf.value(carrier.universe)}")
    return problems


def test_validate_on_ranks_gives_the_per_subset_diagnostics_in_order():
    droop = SetFunction(
        X2, K2,
        {frozenset(): 0, frozenset("a"): 1, frozenset("b"): 0, frozenset("ab"): "1/2"},
    )
    assert validate(droop) == [
        "monotonicity violated at {a}⊆{a,b}: 1 > 1/2",
        "not-normalized: value(X)=1/2",
    ]
    leaky = SetFunction(X2, K2, {s: "1/2" for s in X2.subsets(include_empty=True)})
    assert validate(leaky) == ["empty-set-nonzero: value(∅)=1/2", "not-normalized: value(X)=1/2"]
    rng = random.Random(4)
    tables = [droop, leaky]
    for space in (FiniteSpace(["a"]), X2, X3, FiniteSpace(list("abcd"))):
        for _ in range(10):
            levels = Chain(rng.randint(1, 3)).levels
            tables.append(SetFunction(
                space, levels[0].chain,
                {s: rng.choice(levels) for s in space.subsets(include_empty=True)},
            ))
    # a view of a set function that is not a capacity is read the same way
    views = [PushforwardView(random_map(t.carrier, X3, rng), t) for t in tables]
    # a multiplication view reads 0 at the empty set whatever its inner values
    one = names_of(1)
    pool = Pool(one, {"n0": leaky}, K2, CAPACITIES)
    views.append(MultView(unit_dirac(one, K2, "n0"), pool, ("n0",)))
    views.append(MultView(as_capacity(unit_dirac(one, K2, "n0")), pool, ("n0",)))
    assert [validate(v) for v in views[-2:]] == [["not-normalized: value(X)=1/2"]] * 2
    assert any(validate(t) for t in tables[2:])
    for sf in tables + views:
        problems = validate(sf)
        assert problems == written_out_validate(sf)
        if problems:
            with pytest.raises(ValidationError, match="^" + re.escape("; ".join(problems)) + "$"):
                as_capacity(sf)


def test_mult_and_pushforward_above_sixteen_points_stay_lazy(monkeypatch):
    # neither is tabulated nor validated there, and both views refuse a
    # table before any value is read
    rng = random.Random(8)
    big, names = names_of(17), names_of(3)
    f, table = random_map(X3, big, rng), random_capacity(X3, K2, rng)
    cases = [
        (random_form(names, K2, rng, (outer,)),
         {n: _random_pointwise(inner, big, K2, rng) for n in names.elements})
        for outer in (PossibilityCapacity, NecessityCapacity, Capacity)
        for inner in POINTWISE
    ]
    reads = []
    for view_cls in (MultView, PushforwardView):
        read = view_cls.value
        counted = lambda self, s, read=read: reads.append(s) or read(self, s)
        monkeypatch.setattr(view_cls, "value", counted)
    monkeypatch.setattr(capacity_module, "validate", lambda sf: reads.append(sf) or [])
    got = [pushforward(f, table)] + [mult(outer, assignment) for outer, assignment in cases]
    assert [type(c) for c in got] == [
        PushforwardView, PossibilityCapacity, MultView, MultView, NecessityCapacity, MultView, MultView,
    ]
    lazy = [c for c in got if isinstance(c, (PushforwardView, MultView))]
    for c in lazy:
        for refuse in (as_capacity, validate, classify, lambda c: capacity_equal(c, c)):
            with pytest.raises(BudgetExceededError, match="limited to carriers of size 16"):
                refuse(c)
    assert reads == []


# ------------------------------------------- representation of the monad's results


def pool_names():
    """The 129 names of the three-point k=2 capacity pool, the base that
    mult(theta, assign2) of the three-point monad laws works on."""
    return capacity_pool(X3, K2, "all")[0]


def inners_for(outer, base, chain, rng):
    """Inner capacities on the base, all of the outer's pointwise class
    about half the time, so that the closed form applies; else drawn
    by ``random_inner``."""
    cls = type(outer)
    if cls in POINTWISE and rng.random() < 0.5:
        return {n: _random_pointwise(cls, base, chain, rng) for n in outer.carrier.elements}
    return {n: random_inner(base, chain, rng) for n in outer.carrier.elements}


DROOP = {frozenset(): 0, frozenset("a"): 1, frozenset("b"): 0, frozenset("ab"): "1/2"}


@pytest.mark.parametrize("form", sorted(OUTER_FORMS))
@pytest.mark.parametrize("points", [1, 2, 3, "pool"])
def test_monad_results_are_forms_or_views_at_every_size(form, points):
    # mult gives the density or codensity of _pointwise_mult exactly when
    # that applies and the multiplication view otherwise, and pushforward
    # a form or the pushforward view, on small bases and on 129 names alike
    rng = random.Random(f"{form}-{points}")
    base = pool_names() if points == "pool" else names_of(points)
    small = len(base) <= 16
    for k in (1, 2):
        chain = Chain(k)
        for _ in range(12):
            outer = OUTER_FORMS[form](chain, rng)
            assignment = inners_for(outer, base, chain, rng)
            closed = _pointwise_mult(outer, Pool.over(outer, assignment, CAPACITIES), _support(outer))
            flat = mult(outer, assignment)
            assert type(flat) is (MultView if closed is None else type(outer))
            assert closed is None or flat == closed
            c = rng.choice(list(assignment.values()))
            f = random_map(base, base, rng)
            pushed = pushforward(f, c)
            assert type(pushed) is (type(c) if type(c) in POINTWISE else PushforwardView)
            if small:
                subsets = list(base.subsets(include_empty=True))
            else:
                subsets = [frozenset(rng.sample(base.elements, rng.randint(0, 5))) for _ in range(8)]
            for s in subsets:
                assert flat.value(s) == written_out_mult(outer, assignment, s)
                assert pushed.value(s) == c.value(f.preimage(s))
    # a result over a set function that is not a capacity is refused at
    # the call, with validate's texts, on carriers of at most 16 points
    droop = SetFunction(X2, K2, DROOP)
    text = "^" + re.escape("monotonicity violated at {a}⊆{a,b}: 1 > 1/2; not-normalized: value(X)=1/2") + "$"
    with pytest.raises(ValidationError, match=text):
        mult(unit_dirac(names_of(1), K2, "n0"), {"n0": droop})
    with pytest.raises(ValidationError, match=text):
        pushforward(PointMap(X2, X2, {"a": "a", "b": "b"}), droop)


# ------------------------------------------- pointwise forms on their support


def read_by_definition(c, members):
    """A density's value from every weight at the members, a codensity's from
    every weight outside them; 0 at the empty set."""
    if not members:
        return c.chain.zero
    if isinstance(c, PossibilityCapacity):
        return max(c.density[x] for x in members)
    return min((c.codensity[x] for x in c.carrier.elements if x not in members), default=c.chain.one)


def test_pointwise_values_read_on_the_support_equal_the_definition():
    rng = random.Random(24)
    for size in (1, 2, 3, 17, 129):
        carrier = names_of(size)
        for _ in range(20):
            chain = Chain(rng.randint(1, 3))
            c = _random_pointwise(rng.choice(POINTWISE), carrier, chain, rng, max_support=6)
            subsets = [frozenset(), carrier.universe]
            subsets += [frozenset(rng.sample(carrier.elements, rng.randint(1, size))) for _ in range(20)]
            subsets += [frozenset({x}) for x in c._sup] + [carrier.universe - {x} for x in c._sup]
            for s in subsets:
                assert c.value(s) == read_by_definition(c, s)
            # the same capacity with every point's weight given, fills included
            full = type(c)(carrier, chain, c._weights)
            assert full == c and full._sup == c._sup


# each capacity with a write into the mapping its public attribute reads:
# a table's top value set to 0, a density's fill point raised to 1, a
# codensity's fill point lowered to 0
WRITES = {
    "table": (lambda: Capacity(X2, K2, DROOP | {frozenset("ab"): 1}), "table", frozenset("ab"), 0),
    "density": (lambda: PossibilityCapacity(X2, K2, {"a": 1}), "density", "b", 1),
    "codensity": (lambda: NecessityCapacity(X2, K2, {"a": 0}), "codensity", "b", 0),
}


@pytest.mark.parametrize("form", sorted(WRITES))
def test_a_write_into_a_read_mapping_leaves_the_capacity_unchanged(form):
    # the mapping is built on each read: a write into it (refused or not)
    # changes no reading of the capacity, so it stays equal to a fresh one
    build, name, key, level = WRITES[form]
    c, fresh = build(), build()
    dirac = unit_dirac(names_of(1), K2, "n0")
    try:
        getattr(c, name)[key] = K2.level(level)
    except TypeError:
        pass
    assert getattr(c, name) == getattr(fresh, name)
    assert per_subset(c) == per_subset(fresh)
    assert canonical_key(c) == canonical_key(fresh)
    if form == "density":
        assert density_key(c) == density_key(fresh)
    assert capacity_to_json(c) == capacity_to_json(fresh)
    assert c == fresh and hash(c) == hash(fresh)
    assert validate(c) == []
    assert mult(dirac, {"n0": c}).value(X2.universe) == K2.one


def test_equal_densities_and_codensities_hash_equal_however_built():
    # each pair: a form built by a monad operation or by conjugation, and
    # the same form from the public constructor with every weight given
    d = PossibilityCapacity(X3, K2, {"a": 1, "b": "1/2"})
    e = NecessityCapacity(X3, K2, {"c": 0, "a": "1/2"})
    onto = PointMap(X3, X2, {"a": "b", "b": "a", "c": "a"})
    outer = PossibilityCapacity(X2, K2, {"a": "1/2", "b": 1})
    co_outer = NecessityCapacity(X2, K2, {"a": "1/2", "b": 0})
    half = PossibilityCapacity(X3, K2, {"c": 1, "a": "1/2"})
    co_half = NecessityCapacity(X3, K2, {"b": 0, "c": "1/2"})
    pairs = [
        (unit_dirac(X3, K2, "b"), PossibilityCapacity(X3, K2, {"a": 0, "b": 1, "c": 0})),
        (pushforward(onto, d), PossibilityCapacity(X2, K2, {"a": "1/2", "b": 1})),
        (pushforward(onto, e), NecessityCapacity(X2, K2, {"a": 0, "b": "1/2"})),
        (mult(outer, {"a": d, "b": half}), PossibilityCapacity(X3, K2, {"a": "1/2", "b": "1/2", "c": 1})),
        (mult(co_outer, {"a": e, "b": co_half}), NecessityCapacity(X3, K2, {"a": "1/2", "b": 0, "c": "1/2"})),
        (kappa_dual(d), NecessityCapacity(X3, K2, {"a": 0, "b": "1/2", "c": 1})),
        (kappa_dual(e), PossibilityCapacity(X3, K2, {"a": "1/2", "b": 0, "c": 1})),
    ]
    for built, public in pairs:
        assert type(built) is type(public)
        assert built == public and hash(built) == hash(public), (built, public)
        assert capacity_to_json(built) == capacity_to_json(public)


@pytest.mark.parametrize("cls, weights, text", [
    (PossibilityCapacity, {"a": "1/2"}, "a possibility density must attain 1"),
    (PossibilityCapacity, {"a": 0, "b": 0, "c": 0}, "a possibility density must attain 1"),
    (NecessityCapacity, {"a": "1/2"}, "a necessity codensity must attain 0"),
    (NecessityCapacity, {"a": 1, "b": 1, "c": 1}, "a necessity codensity must attain 0"),
    (PossibilityCapacity, {"a": 1, "z": 0}, "density key 'z' is not in the carrier"),
    (NecessityCapacity, {"z": 0}, "codensity key 'z' is not in the carrier"),
    (PossibilityCapacity, {"a": 1, "b": "1/3"}, r"1/3 is not a multiple of 1/2"),
    (PossibilityCapacity, {"a": 1.0}, "levels must be exact rationals"),
], ids=["no-one", "all-zero", "no-zero", "all-one", "foreign-key", "foreign-key-dual",
        "off-chain", "float"])
def test_public_pointwise_constructors_refuse_invalid_weights(cls, weights, text):
    with pytest.raises(ValidationError, match=text):
        cls(X3, K2, weights)
