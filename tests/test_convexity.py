"""Convex combination structures, their algebras, duals, and quotients."""

import itertools
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg.chain import Chain, complement
from capalg.errors import BudgetExceededError, CarrierMismatchError, ValidationError
from capalg.spaces import FiniteSpace, PointMap
from capalg.biconvex import CapacityStructureMap, chain_model
from capalg.capacity import (
    Capacity,
    NecessityCapacity,
    PossibilityCapacity,
    as_capacity,
    canonical_key,
    capacity_pool,
    enumerate_capacities,
    is_algebra_morphism,
    kappa_dual,
    unit_dirac,
)
from capalg.convexity import (
    ConvexStructure,
    DualConvexStructure,
    Semimodule,
    UnionStructureMap,
    check_algebra_laws,
    check_ci_axioms,
    check_ic_axioms,
    check_semimodule_axioms,
    density_key,
    dual_structure_map,
    enumerate_convex_structures,
    enumerate_union_algebras,
    ic_from_structure_map,
    is_affine,
    nary_combination,
    quotient_semimodule,
    structure_map_from_ic,
)

K1 = Chain(1)
K2 = Chain(2)
X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])


@lru_cache(maxsize=None)
def structures(space, chain):
    return tuple(enumerate_convex_structures(space, chain))


def brute_force_structures(space, chain):
    """Independent oracle: filter every total table by the five axioms inline."""
    X = space.elements
    levels = chain.levels
    cells = list(itertools.product(X, levels, X))
    found = []
    for combo in itertools.product(X, repeat=len(cells)):
        ic = dict(zip(cells, combo))
        if not all(ic[(x, a, x)] == x for x in X for a in levels):
            continue
        if not all(ic[(x, chain.zero, y)] == x for x in X for y in X):
            continue
        if not all(
            ic[(x, chain.one, y)] == ic[(y, chain.one, x)] for x in X for y in X
        ):
            continue
        if not all(
            ic[(ic[(x, a, y)], b, z)] == ic[(ic[(x, b, z)], a, y)]
            for x, y, z in itertools.product(X, repeat=3)
            for a, b in itertools.product(levels, repeat=2)
        ):
            continue
        if not all(
            ic[(x, a, ic[(y, b, z)])] == ic[(ic[(x, a, y)], min(a, b), z)]
            for x, y, z in itertools.product(X, repeat=3)
            for a, b in itertools.product(levels, repeat=2)
        ):
            continue
        found.append(ic)
    return found


def chain_model_convex(chain):
    """Combination x join (a meet y) on the chain's own levels."""
    carrier = FiniteSpace([str(lv.value) for lv in chain.levels])
    table = {}
    for x in carrier.elements:
        for a in chain.levels:
            for y in carrier.elements:
                table[(x, a, y)] = str(max(Fraction(x), min(a.value, Fraction(y))))
    return ConvexStructure(carrier, chain, table)


def mirror_dual(s):
    """Order dual: the same table read at complemented weights."""
    ci = {
        (x, complement(a), y): z for (x, a, y), z in s.ic.items()
    }
    return DualConvexStructure(s.carrier, s.chain, ci)


# frozen structure counts; the (|X|=2, k=2) entry is confirmed by brute force
STRUCTURE_COUNTS = {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 4, (3, 1): 9, (3, 2): 36}


def test_structure_count_matches_brute_force_on_two_points():
    oracle = brute_force_structures(X2, K2)
    assert len(oracle) == STRUCTURE_COUNTS[(2, 2)]
    enumerated = structures(X2, K2)
    assert {tuple(sorted(s.ic.items(), key=repr)) for s in enumerated} == {
        tuple(sorted(t.items(), key=repr)) for t in oracle
    }


def test_structure_counts_are_frozen():
    for (n, k), expected in STRUCTURE_COUNTS.items():
        space = FiniteSpace(["a", "b", "c"][:n])
        got = structures(space, Chain(k))
        assert len(got) == expected
        for s in got:
            assert check_ic_axioms(s) == []


def test_chain_model_satisfies_the_axioms():
    for k in (1, 2, 3):
        assert check_ic_axioms(chain_model_convex(Chain(k))) == []


def test_structure_map_worked_example_is_frozen():
    s = chain_model_convex(K2)
    d = PossibilityCapacity(
        s.carrier, K2, {"0": 1, "1/2": 0, "1": "1/2"}
    )
    # direct formula on the chain model: max over x of min(d(x), x)
    direct = max(
        min(d.density[x].value, Fraction(x)) for x in s.carrier.elements
    )
    assert direct == Fraction(1, 2)
    assert structure_map_from_ic(s, d) == "1/2"
    for p in enumerate_capacities(s.carrier, K2, "union"):
        expect = str(max(min(p.density[x].value, Fraction(x)) for x in s.carrier.elements))
        assert structure_map_from_ic(s, p) == expect


def test_structure_map_is_base_point_independent():
    for s in structures(X3, K2):
        for p in enumerate_capacities(X3, K2, "union"):
            tops = [x for x in X3.elements if p.density[x] == K2.one]
            results = {structure_map_from_ic(s, p, base_point=x) for x in tops}
            assert len(results) == 1
    with pytest.raises(ValidationError):
        structure_map_from_ic(
            chain_model_convex(K2),
            PossibilityCapacity(FiniteSpace(["0", "1/2", "1"]), K2, {"1": 1}),
            base_point="0",
        )


def test_table_roundtrip_recovers_every_structure():
    for space in (X2, X3):
        for k in (1, 2):
            for s in structures(space, Chain(k)):
                xi = UnionStructureMap.from_convex(s)
                assert ic_from_structure_map(xi).ic == s.ic


def test_map_roundtrip_recovers_every_algebra_table():
    for k in (1, 2):
        for xi in enumerate_union_algebras(X2, Chain(k)):
            back = UnionStructureMap.from_convex(ic_from_structure_map(xi))
            assert back.tabulate() == xi.tabulate()


def test_algebra_and_structure_enumerations_biject_on_two_points():
    # 2 algebras at k=1, 4 at k=2, matching the structure counts
    for k, expected in ((1, 2), (2, 4)):
        chain = Chain(k)
        tables = {
            tuple(sorted(xi.tabulate().items()))
            for xi in enumerate_union_algebras(X2, chain)
        }
        assert len(tables) == expected
        from_structures = {
            tuple(sorted(UnionStructureMap.from_convex(s).tabulate().items()))
            for s in structures(X2, chain)
        }
        assert tables == from_structures


def test_every_enumerated_structure_yields_a_lawful_algebra():
    for s in structures(X3, K2):
        assert check_algebra_laws(UnionStructureMap.from_convex(s)) == []


def test_union_map_reads_table_backed_possibility_capacities():
    """A table of the union class is read through its density form; a
    table outside the class is refused."""
    s = structures(X3, K2)[-1]
    xi = UnionStructureMap.from_convex(s)
    for x in X3.elements:
        assert xi(as_capacity(unit_dirac(X3, K2, x))) == xi(unit_dirac(X3, K2, x)) == x
    for p in enumerate_capacities(X3, K2, "union"):
        assert xi(as_capacity(p)) == xi(p)
    # 1 on {a} and on every pair, so not the max of its singleton values
    not_union = Capacity(X3, K2, {
        f: K2.one if len(f) >= 2 or f == {"a"} else K2.zero
        for f in X3.subsets(include_empty=True)
    })
    with pytest.raises(ValidationError, match="union law"):
        xi(not_union)


def test_broken_table_fails_the_algebra_laws():
    s = chain_model_convex(K2)
    table = UnionStructureMap.from_convex(s).tabulate()
    key = density_key(PossibilityCapacity(s.carrier, K2, {"0": 1}))
    table[key] = "1"  # xi(dirac at bottom) must be the bottom
    bad = UnionStructureMap.from_table(s.carrier, K2, table)
    problems = check_algebra_laws(bad)
    assert any(p.startswith("unit-law") for p in problems)


def test_structure_maps_key_cache_table_and_tabulate_by_one_rank_key():
    # each map class has one key of int ranks: a structure map's cache, a
    # table map's cache (which is its table) and tabulate() all use it
    for by_structure, key in (
        (UnionStructureMap.from_convex(chain_model_convex(K2)), density_key),
        (CapacityStructureMap.from_biconvex(chain_model(K2)), canonical_key),
    ):
        pool = capacity_pool(by_structure.carrier, K2, by_structure._kind).members.values()
        keys = {key(c) for c in pool}
        assert all(type(r) is int for k in keys for r in k)
        table = by_structure.tabulate()
        by_table = type(by_structure).from_table(by_structure.carrier, K2, table)
        assert by_table._cache == table
        for xi in (by_structure, by_table):
            assert set(xi._cache) == set(xi.tabulate()) == keys
            assert xi.tabulate() == table
            for c in pool:
                assert xi(c) == table[key(c)]


def test_nary_combination_is_the_structure_map_of_its_density():
    for s in structures(X3, K2):
        for coeffs in itertools.product(K2.levels, repeat=3):
            if max(coeffs) != K2.one:
                continue
            points = list(X3.elements)
            dens = {x: a for x, a in zip(points, coeffs)}
            expected = structure_map_from_ic(
                s, PossibilityCapacity(X3, K2, dens)
            )
            assert nary_combination(s, coeffs, points) == expected
            # order invariance, including which weight-1 entry comes first
            for perm in itertools.permutations(range(3)):
                shuffled = nary_combination(
                    s, [coeffs[i] for i in perm], [points[i] for i in perm]
                )
                assert shuffled == expected


def test_nary_combination_handles_repeats_and_rejects_bad_input():
    s = chain_model_convex(K2)
    # repeated points act through the max of their weights
    assert nary_combination(s, [1, "1/2", 1], ["0", "1", "0"]) == "1/2"
    with pytest.raises(ValidationError):
        nary_combination(s, [1, "1/2"], ["0"])
    with pytest.raises(ValidationError):
        nary_combination(s, ["1/2", "1/2"], ["0", "1"])
    with pytest.raises(ValidationError):
        nary_combination(s, [], [])


def test_affine_equivalence_on_all_self_maps_of_two_points():
    structures = list(enumerate_convex_structures(X2, K2))
    maps = [
        PointMap(X2, X2, dict(zip(X2.elements, images)))
        for images in itertools.product(X2.elements, repeat=2)
    ]
    for s1, s2 in itertools.product(structures, repeat=2):
        xi1 = UnionStructureMap.from_convex(s1)
        xi2 = UnionStructureMap.from_convex(s2)
        for f in maps:
            assert is_affine(f, s1, s2) == is_algebra_morphism(f, xi1, xi2)


def test_mirror_duals_satisfy_the_dual_axioms():
    count = 0
    for s in structures(X3, K2):
        assert check_ci_axioms(mirror_dual(s)) == []
        count += 1
    assert count == 36


def test_dual_map_recovers_the_dual_table():
    for s in structures(X3, K2):
        d = mirror_dual(s)
        for x in X3.elements:
            for a in K2.levels:
                for y in X3.elements:
                    cod = {e: K2.one for e in X3.elements}
                    cod[x] = K2.zero
                    if y != x:
                        cod[y] = min(cod[y], a)
                    got = dual_structure_map(
                        d, NecessityCapacity(X3, K2, cod), base_point=x
                    )
                    assert got == d.ci[(x, a, y)]


def test_dual_map_is_conjugate_to_the_structure_map():
    # evaluating the mirror on a necessity capacity is evaluating the
    # original on its conjugate possibility capacity
    for s in structures(X3, K2):
        d = mirror_dual(s)
        for n in enumerate_capacities(X3, K2, "intersection"):
            assert dual_structure_map(d, n) == structure_map_from_ic(s, kappa_dual(n))


def test_dual_map_is_base_point_independent():
    for s in structures(X3, K2):
        d = mirror_dual(s)
        for n in enumerate_capacities(X3, K2, "intersection"):
            bottoms = [x for x in X3.elements if n.codensity[x] == K2.zero]
            results = {dual_structure_map(d, n, base_point=x) for x in bottoms}
            assert len(results) == 1


def test_quotient_of_the_chain_model_has_three_classes():
    s = chain_model_convex(K2)
    q = quotient_semimodule(s)
    mod = q.semimodule
    assert check_semimodule_axioms(mod) == []
    assert len(mod.carrier) == 3
    i = q.embedding
    assert len({i(x) for x in s.carrier.elements}) == 3
    # the middle point is the top point scaled by 1/2
    assert mod.scale[(K2.level("1/2"), i("1"))] == i("1/2")
    assert mod.zero == i("0")
    # (x, 0) pairs all collapse into the zero class; the class of (x, a)
    # is a times the class of x
    assert all(mod.scale[(K2.zero, i(x))] == mod.zero for x in s.carrier.elements)


def test_quotient_embedding_translates_combinations():
    for space in (X2, X3):
        for s in structures(space, K2):
            q = quotient_semimodule(s)
            mod, i = q.semimodule, q.embedding
            assert check_semimodule_axioms(mod) == []
            assert len({i(x) for x in space.elements}) == len(space)
            for x, y in itertools.product(space.elements, repeat=2):
                for a in K2.levels:
                    assert i(s.ic[(x, a, y)]) == mod.add[(i(x), mod.scale[(a, i(y))])]


def test_semimodule_validation():
    with pytest.raises(ValidationError):
        Semimodule(X2, K2, {}, {}, "a")
    add = {(x, y): "a" for x in X2.elements for y in X2.elements}
    scale = {(a, x): "a" for a in K2.levels for x in X2.elements}
    with pytest.raises(ValidationError, match="zero 'z' not in carrier"):
        Semimodule(X2, K2, add, scale, "z")
    broken = Semimodule(X2, K2, add, scale, "b")  # b + zero = a, not b
    assert any(p.startswith("axiom-3") for p in check_semimodule_axioms(broken))


def test_structure_validation():
    with pytest.raises(ValidationError):
        ConvexStructure(X2, K2, {})
    s = chain_model_convex(K2)
    bad = dict(s.ic)
    bad[("0", K2.one, "1")] = "zzz"
    with pytest.raises(ValidationError):
        ConvexStructure(s.carrier, K2, bad)
    # running past an enumeration's size limit is a budget outcome
    convex_limit = "^" + re.escape("convex-structure enumeration is limited to |X| <= 3, k <= 2") + "$"
    for space, chain in ((FiniteSpace(list("abcd")), K2), (X2, Chain(3))):
        with pytest.raises(BudgetExceededError, match=convex_limit):
            list(enumerate_convex_structures(space, chain))
    with pytest.raises(BudgetExceededError, match=r"^algebra-table enumeration is limited to \|X\| <= 2$"):
        list(enumerate_union_algebras(X3, K2))


def test_declared_tables_drive_validation_equality_and_hashing():
    s = chain_model_convex(K2)
    half = K2.level("1/2")
    missing = {key: z for key, z in s.ic.items() if key != ("0", half, "1")}
    with pytest.raises(ValidationError, match=r"ic table missing 0\|1/2\|1"):
        ConvexStructure(s.carrier, K2, missing)
    # cells off the declared keys are dropped, so the copy equals the original
    extra = ConvexStructure(s.carrier, K2, {**s.ic, ("0", half, "zz"): "1"})
    assert extra == s and hash(extra) == hash(s)
    d = DualConvexStructure(s.carrier, K2, s.ic)
    assert d != s and d == DualConvexStructure(s.carrier, K2, dict(s.ic))
    add = {(x, y): "a" for x in X2.elements for y in X2.elements}
    scale = {(a, x): "a" for a in K2.levels for x in X2.elements}
    m = Semimodule(X2, K2, add, scale, "a")
    assert m == Semimodule(X2, K2, dict(add), dict(scale), "a")
    assert hash(m) == hash(Semimodule(X2, K2, add, scale, "a"))
    assert m != Semimodule(X2, K2, add, scale, "b")


# ------------------------------------------- oracles for the shared ic/ci code
#
# The two checkers and the two folds as they stood when ic and ci had one
# copy each; the shared implementation must give the same diagnostics in
# the same order, and the same values and errors, on any total table.


def _format_level(a):
    return str(a.value)


def oracle_check_ic_axioms(s) -> list[str]:
    """Diagnostics for the five combination axioms; empty means valid."""
    out: list[str] = []
    X = s.carrier.elements
    levels = s.chain.levels
    one, zero = s.chain.one, s.chain.zero
    ic = s.ic
    for x in X:
        for a in levels:
            if ic[(x, a, x)] != x:
                out.append(f"axiom-1: ic({x},{_format_level(a)},{x}) = {ic[(x, a, x)]} != {x}")
    for x, y in itertools.product(X, repeat=2):
        if ic[(x, one, y)] != ic[(y, one, x)]:
            out.append(f"axiom-4: ic({x},1,{y}) != ic({y},1,{x})")
        if ic[(x, zero, y)] != x:
            out.append(f"axiom-5: ic({x},0,{y}) = {ic[(x, zero, y)]} != {x}")
    for x, y, z in itertools.product(X, repeat=3):
        for a, b in itertools.product(levels, repeat=2):
            lhs = ic[(ic[(x, a, y)], b, z)]
            rhs = ic[(ic[(x, b, z)], a, y)]
            if lhs != rhs:
                out.append(
                    f"axiom-2: (({x},{_format_level(a)},{y}),{_format_level(b)},{z}) "
                    f"gives {lhs} vs {rhs}"
                )
            lhs3 = ic[(x, a, ic[(y, b, z)])]
            rhs3 = ic[(ic[(x, a, y)], min(a, b), z)]
            if lhs3 != rhs3:
                out.append(
                    f"axiom-3: ({x},{_format_level(a)},({y},{_format_level(b)},{z})) "
                    f"gives {lhs3} vs {rhs3}"
                )
    return out


def oracle_check_ci_axioms(s) -> list[str]:
    """Dual axioms: joins and meets, 0 and 1 exchanged throughout."""
    out: list[str] = []
    X = s.carrier.elements
    levels = s.chain.levels
    one, zero = s.chain.one, s.chain.zero
    ci = s.ci
    for x in X:
        for a in levels:
            if ci[(x, a, x)] != x:
                out.append(f"axiom-1: ci({x},{_format_level(a)},{x}) = {ci[(x, a, x)]} != {x}")
    for x, y in itertools.product(X, repeat=2):
        if ci[(x, zero, y)] != ci[(y, zero, x)]:
            out.append(f"axiom-4: ci({x},0,{y}) != ci({y},0,{x})")
        if ci[(x, one, y)] != x:
            out.append(f"axiom-5: ci({x},1,{y}) = {ci[(x, one, y)]} != {x}")
    for x, y, z in itertools.product(X, repeat=3):
        for a, b in itertools.product(levels, repeat=2):
            lhs = ci[(ci[(x, a, y)], b, z)]
            rhs = ci[(ci[(x, b, z)], a, y)]
            if lhs != rhs:
                out.append(
                    f"axiom-2: (({x},{_format_level(a)},{y}),{_format_level(b)},{z}) "
                    f"gives {lhs} vs {rhs}"
                )
            lhs3 = ci[(x, a, ci[(y, b, z)])]
            rhs3 = ci[(ci[(x, a, y)], max(a, b), z)]
            if lhs3 != rhs3:
                out.append(
                    f"axiom-3: ({x},{_format_level(a)},({y},{_format_level(b)},{z})) "
                    f"gives {lhs3} vs {rhs3}"
                )
    return out


def oracle_structure_map_from_ic(s, c, base_point=None) -> str:
    """Join of ic(x0, a, x) over points x and weights a <= density(x).

    x0 is a point of density 1 (the first such in carrier order unless
    given); the result does not depend on the choice.
    """
    if c.carrier != s.carrier or c.chain != s.chain:
        raise CarrierMismatchError("capacity and structure do not match")
    if base_point is None:
        base_point = next(
            x for x in s.carrier.elements if c.density[x] == s.chain.one
        )
    elif c.density.get(base_point) != s.chain.one:
        raise ValidationError(f"base point {base_point!r} does not have density 1")
    acc = base_point
    for x in s.carrier.elements:
        dx = c.density[x]
        for a in s.chain.levels:
            if a > dx:
                break
            acc = s.join(acc, s.ic[(base_point, a, x)])
    return acc


def oracle_dual_structure_map(s, c, base_point=None) -> str:
    """Meet of ci(x0, a, x) over points x and weights a >= codensity(x).

    x0 is a point of codensity 0; independence from the choice mirrors
    the possibility side.
    """
    if c.carrier != s.carrier or c.chain != s.chain:
        raise CarrierMismatchError("capacity and structure do not match")
    if base_point is None:
        base_point = next(
            x for x in s.carrier.elements if c.codensity[x] == s.chain.zero
        )
    elif c.codensity.get(base_point) != s.chain.zero:
        raise ValidationError(f"base point {base_point!r} does not have codensity 0")
    acc = base_point
    for x in s.carrier.elements:
        cx = c.codensity[x]
        for a in s.chain.levels:
            if a < cx:
                continue
            acc = s.meet(acc, s.ci[(base_point, a, x)])
    return acc


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValidationError as exc:
        return "error", str(exc)


@strat.composite
def total_tables(draw):
    """A random total combination table on 1-3 points at k <= 2."""
    space = FiniteSpace(list("abc"[: draw(strat.integers(1, 3))]))
    chain = Chain(draw(strat.integers(1, 2)))
    cells = list(itertools.product(space.elements, chain.levels, space.elements))
    values = draw(strat.lists(
        strat.sampled_from(space.elements), min_size=len(cells), max_size=len(cells)
    ))
    return space, chain, dict(zip(cells, values))


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.given(total_tables())
def test_shared_checker_and_fold_match_the_oracles_on_random_tables(drawn):
    space, chain, table = drawn
    s = ConvexStructure(space, chain, table)
    d = DualConvexStructure(space, chain, table)
    assert check_ic_axioms(s) == oracle_check_ic_axioms(s)
    assert check_ci_axioms(d) == oracle_check_ci_axioms(d)
    for p in enumerate_capacities(space, chain, "union"):
        assert structure_map_from_ic(s, p) == oracle_structure_map_from_ic(s, p)
        for x0 in space.elements:
            assert _outcome(structure_map_from_ic, s, p, x0) == _outcome(
                oracle_structure_map_from_ic, s, p, x0
            )
    for n in enumerate_capacities(space, chain, "intersection"):
        assert dual_structure_map(d, n) == oracle_dual_structure_map(d, n)
        for x0 in space.elements:
            assert _outcome(dual_structure_map, d, n, x0) == _outcome(
                oracle_dual_structure_map, d, n, x0
            )


def test_maps_and_combinations_refuse_foreign_inputs():
    s1, s2 = structures(X2, K1)[0], structures(X2, K2)[0]
    into_x3 = PointMap(X2, X3, {"a": "a", "b": "b"})
    with pytest.raises(CarrierMismatchError, match="map endpoints do not match the structures"):
        is_affine(into_x3, s2, s2)
    identity = PointMap(X2, X2, {"a": "a", "b": "b"})
    with pytest.raises(ValidationError, match="structures use different chains"):
        is_affine(identity, s1, s2)
    with pytest.raises(ValidationError, match="'z' is not in the carrier"):
        nary_combination(s2, [1, 1], ["a", "z"])
    with pytest.raises(CarrierMismatchError, match="capacity and structure do not match"):
        structure_map_from_ic(s2, unit_dirac(X3, K2, "a"))
    no_entries = UnionStructureMap.from_table(X2, K2, {})
    with pytest.raises(ValidationError, match="table has no entry for 1,1/2"):
        no_entries(PossibilityCapacity(X2, K2, {"a": 1, "b": "1/2"}))


@pytest.mark.parametrize("cls, table, bad", [
    # a key in the old Fraction format, then one of the wrong arity
    (UnionStructureMap, {(Fraction(1), Fraction(1, 2)): "a", (1, 2, 7): "b"},
     "(Fraction(1, 1), Fraction(1, 2))"),
    (UnionStructureMap, {(2, 1): "a", (1, 2, 7): "b"}, "(1, 2, 7)"),
    (UnionStructureMap, {(2, 3): "a"}, "(2, 3)"),
    (UnionStructureMap, {(True, 2): "a"}, "(True, 2)"),
    (UnionStructureMap, {(1, 0): "a"}, "(1, 0)"),
    (UnionStructureMap, {"2,1": "a"}, "'2,1'"),
    (CapacityStructureMap, {(1, 2): "a"}, "(1, 2)"),
    (CapacityStructureMap, {(2, 0, 1): "a"}, "(2, 0, 1)"),
    (CapacityStructureMap, {(0, 0, 1): "a"}, "(0, 0, 1)"),
], ids=["fraction", "arity", "off-chain", "bool", "no-one", "text", "all-arity", "all-monotone",
        "all-normalized"])
def test_a_table_map_refuses_a_key_outside_its_class(cls, table, bad):
    # each key must be the rank tuple of a capacity of the map's class on
    # its carrier; a partial table of such keys stays legal
    with pytest.raises(ValidationError, match=f"^table key {re.escape(bad)} is not the rank tuple of a"):
        cls.from_table(X2, K2, table)
    good = (2, 1) if cls is UnionStructureMap else (1, 1, 2)
    assert cls.from_table(X2, K2, {good: "a"}).tabulate() == {good: "a"}


def _two_point_table(cells: str) -> ConvexStructure:
    """ic on {a, b} at k = 1 from its eight cells, in (x, a, y) order."""
    keys = itertools.product(X2.elements, K1.levels, X2.elements)
    return ConvexStructure(X2, K1, dict(zip(keys, cells)))


@pytest.mark.parametrize("cells, escapes", [
    ("aaabaaba", "addition"),
    ("abaabaaa", "scaling"),
    ("aaaaaaaa", "zero"),             # ic(x, a, y) = "a": no class is the identity tuple
])
def test_quotient_of_an_unlawful_table_names_the_escaping_operation(cells, escapes):
    with pytest.raises(ValidationError, match=f"quotient {escapes} escapes the class set"):
        quotient_semimodule(_two_point_table(cells))


def test_quotient_of_every_two_point_table_is_a_module_or_a_refusal():
    """Each of the 256 tables on {a, b} at k = 1 yields a quotient or a
    ValidationError, never another exception."""
    outcomes = Counter()
    for cells in itertools.product("ab", repeat=8):
        try:
            quotient_semimodule(_two_point_table(cells))
            outcomes["quotient"] += 1
        except ValidationError:
            outcomes["refused"] += 1
    assert outcomes == {"quotient": 95, "refused": 161}


def test_semimodule_axiom_texts():
    add = {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "a"}
    scale = {(K1.zero, "a"): "a", (K1.zero, "b"): "b", (K1.one, "a"): "a", (K1.one, "b"): "a"}
    assert check_semimodule_axioms(Semimodule(X2, K1, add, scale, "a")) == [
        "axiom-1: a+b != b+a",
        "axiom-1: b+a != a+b",
        "axiom-2: (b+a)+b != b+(a+b)",
        "axiom-2: (b+b)+b != b+(b+b)",
        "axiom-4: (max(0,0))b mismatch",
        "axiom-4: (max(0,1))b mismatch",
        "axiom-5: (min(0,1))b mismatch",
        "axiom-5: (min(1,0))b mismatch",
        "axiom-6: 1*b = a != b",
        "axiom-7: 0*b = b != zero",
    ]
    # a lawful join with zero a, and scaling by 0 that swaps a and b
    join = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"}
    swap = {(K1.zero, "a"): "b", (K1.zero, "b"): "a", (K1.one, "a"): "a", (K1.one, "b"): "b"}
    assert check_semimodule_axioms(Semimodule(X2, K1, join, swap, "a")) == [
        "axiom-4: 0(a+b) mismatch",
        "axiom-4: 0(b+a) mismatch",
        "axiom-5: (min(0,0))a mismatch",
        "axiom-5: (min(0,0))b mismatch",
        "axiom-4: (max(0,1))a mismatch",
        "axiom-4: (max(1,0))a mismatch",
        "axiom-7: 0*a = b != zero",
    ]
