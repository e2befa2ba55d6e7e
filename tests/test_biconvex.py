"""Biconvex structures, triple presentation, full structure maps, cubes."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg.chain import Chain
from capalg.errors import (
    BudgetExceededError,
    CarrierMismatchError,
    LawViolationError,
    ValidationError,
)
from capalg.spaces import FiniteSpace, PointMap
from capalg.capacity import (
    NecessityCapacity,
    PossibilityCapacity,
    as_capacity,
    as_necessity,
    as_possibility,
    canonical_key,
    capacity_pool,
    classify,
    enumerate_capacities,
    is_algebra_morphism,
    mult,
    capacity_equal,
    unit_dirac,
)
from capalg.biconvex import (
    BiconvexStructure,
    CapacityStructureMap,
    TripleStructure,
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
    structure_map_full,
    structure_map_full_dual,
    structure_map_necessity,
    structure_map_possibility,
    sugeno_form,
    triple_from_biconvex,
    union_over_intersection_preimages,
    weight_maps,
    _check_match,
    _coordinate_candidates,
    _lattice_diagnostics,
)
from capalg.suites import (
    SuiteReport,
    _action_checks,
    _map_witness,
    _xi_via_intersection_mixture,
    _xi_via_union_mixture,
)

K1 = Chain(1)
K2 = Chain(2)
X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])


@lru_cache(maxsize=None)
def structures(space, chain):
    return tuple(enumerate_biconvex_structures(space, chain))


def brute_force_action_pairs(space, chain):
    """Independent oracle: filter every action pair on the pinned chain lattice."""
    X = space.elements
    idx = space.index
    bjoin = {(x, y): (x if idx[x] >= idx[y] else y) for x in X for y in X}
    bmeet = {(x, y): (x if idx[x] <= idx[y] else y) for x in X for y in X}
    cells = [(a, x) for a in chain.levels for x in X]
    found = []
    for sm in itertools.product(X, repeat=len(cells)):
        smeet = dict(zip(cells, sm))
        for sj in itertools.product(X, repeat=len(cells)):
            sjoin = dict(zip(cells, sj))
            b = BiconvexStructure(space, chain, bjoin, bmeet, smeet, sjoin)
            if not check_biconvex(b):
                found.append(b)
    return found


# frozen counts on the pinned chain lattice, (|X|, k) -> count
BICONVEX_COUNTS = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2, (3, 1): 1, (3, 2): 3}


def action_table_product(space, chain):
    """Content-and-order oracle: the product of the interior action rows
    on the pinned chain lattice, filtered through the full law check."""
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
    bot, top = X[0], X[-1]
    interior = chain.levels[1:-1]
    cells = [(a, x) for a in interior for x in X]
    for smeet_vals in itertools.product(X, repeat=len(cells)):
        smeet = {(chain.one, x): x for x in X}
        smeet.update({(chain.zero, x): bot for x in X})
        smeet.update(dict(zip(cells, smeet_vals)))
        for sjoin_vals in itertools.product(X, repeat=len(cells)):
            sjoin = {(chain.zero, x): x for x in X}
            sjoin.update({(chain.one, x): top for x in X})
            sjoin.update(dict(zip(cells, sjoin_vals)))
            b = BiconvexStructure(space, chain, bjoin, bmeet, smeet, sjoin)
            if not check_biconvex(b):
                yield b


def test_triple_enumeration_matches_the_action_table_product_in_order():
    for (n, k) in BICONVEX_COUNTS:
        space, chain = FiniteSpace(["a", "b", "c"][:n]), Chain(k)
        assert structures(space, chain) == tuple(action_table_product(space, chain))


def lawful_triples_by_filter(carrier, chain, bjoin, bmeet):
    """Oracle: every (p, m) pair, p first, kept when check_triple passes."""
    images = list(itertools.product(carrier.elements, repeat=chain.k + 1))
    for p_img, m_img in itertools.product(images, repeat=2):
        t = TripleStructure(
            carrier, chain, bjoin, bmeet,
            dict(zip(chain.levels, p_img)), dict(zip(chain.levels, m_img)),
        )
        if not check_triple(t):
            yield t


def test_lawful_triples_match_the_check_triple_filter_in_order():
    for b in (diamond_structure(K1), diamond_structure(K2), chain_model(K2)):
        got = list(enumerate_lawful_triples(b.carrier, b.chain, b.bjoin, b.bmeet))
        want = list(lawful_triples_by_filter(b.carrier, b.chain, b.bjoin, b.bmeet))
        assert got
        assert [(t.p, t.m) for t in got] == [(t.p, t.m) for t in want]


def five_element_lattice(*strict):
    """0 below and 1 above the middle elements a, b, c, which are
    incomparable except for the ``strict`` pairs (x, y) with x below y,
    and the trivial k=1 actions: N5 is ("a", "b"), M3 has no pairs."""
    X = ["0", "a", "b", "c", "1"]
    le = {(x, y) for x in X for y in X if x == y or x == "0" or y == "1"} | set(strict)
    pairs = list(itertools.product(X, repeat=2))
    bjoin = {(x, y): y if (x, y) in le else x if (y, x) in le else "1" for x, y in pairs}
    bmeet = {(x, y): x if (x, y) in le else y if (y, x) in le else "0" for x, y in pairs}
    smeet = {(a, x): x if a == K1.one else "0" for a in K1.levels for x in X}
    sjoin = {(a, x): "1" if a == K1.one else x for a in K1.levels for x in X}
    return BiconvexStructure(FiniteSpace(X), K1, bjoin, bmeet, smeet, sjoin)


N5 = five_element_lattice(("a", "b"))
M3 = five_element_lattice()


@pytest.mark.parametrize("b", [N5, M3], ids=["N5", "M3"])
def test_non_distributive_lattices_are_rejected(b):
    for problems in (check_biconvex(b), check_triple(triple_from_biconvex(b))):
        assert problems
        assert all(p.startswith("lattice: distributivity fails at") for p in problems)
    assert list(enumerate_lawful_triples(b.carrier, b.chain, b.bjoin, b.bmeet)) == []
    # every other lattice law holds, and the witness is a real failure
    x, y, z = problems[0].split("(")[1].rstrip(")").split(",")
    assert b.bmeet[(x, b.bjoin[(y, z)])] != b.bjoin[(b.bmeet[(x, y)], b.bmeet[(x, z)])]


def test_triple_with_an_out_of_carrier_lattice_value_fails_at_load():
    t = triple_from_biconvex(chain_model(K2))
    bjoin = dict(t.bjoin)
    bjoin[("0", "1")] = "2"
    with pytest.raises(ValidationError, match="bjoin value '2' at 0[|]1 not in carrier"):
        TripleStructure(t.carrier, K2, bjoin, t.bmeet, t.p, t.m)


def test_biconvex_count_matches_brute_force_on_two_points():
    oracle = brute_force_action_pairs(X2, K2)
    assert len(oracle) == BICONVEX_COUNTS[(2, 2)]
    assert set(structures(X2, K2)) == set(oracle)


def test_biconvex_counts_are_frozen():
    for (n, k), expected in BICONVEX_COUNTS.items():
        space = FiniteSpace(["a", "b", "c"][:n])
        got = structures(space, Chain(k))
        assert len(got) == expected
        for b in got:
            assert check_biconvex(b) == []


def test_named_models_satisfy_the_laws():
    for k in (1, 2, 3):
        assert check_biconvex(chain_model(Chain(k))) == []
        assert check_biconvex(diamond_structure(Chain(k))) == []
    for phi_mid in K2.levels:
        phi = {K2.zero: K2.zero, K2.level("1/2"): phi_mid, K2.one: K2.one}
        cube = cube_structure(K2, [phi])
        assert check_biconvex(cube.structure) == []
    square = cube_structure(K2, [{a: a for a in K2.levels}] * 2)
    assert check_biconvex(square.structure) == []


def test_triple_presentation_round_trips():
    targets = list(structures(X3, K2)) + [chain_model(K2), diamond_structure(K2)]
    for b in targets:
        t = triple_from_biconvex(b)
        assert check_triple(t) == []
        assert biconvex_from_triple(t) == b


def test_triples_enumerate_to_the_same_structures():
    # every lawful (p, m) pair on the pinned lattice comes from a structure
    X = X3.elements
    idx = X3.index
    bjoin = {(x, y): (x if idx[x] >= idx[y] else y) for x in X for y in X}
    bmeet = {(x, y): (x if idx[x] <= idx[y] else y) for x in X for y in X}
    lawful = []
    for p_vals in itertools.product(X, repeat=3):
        for m_vals in itertools.product(X, repeat=3):
            t = TripleStructure(
                X3, K2, bjoin, bmeet,
                dict(zip(K2.levels, p_vals)), dict(zip(K2.levels, m_vals)),
            )
            if not check_triple(t):
                lawful.append(t)
    assert len(lawful) == len(structures(X3, K2))
    rebuilt = {biconvex_from_triple(t) for t in lawful}
    assert rebuilt == set(structures(X3, K2))
    for t in lawful:
        back = triple_from_biconvex(biconvex_from_triple(t))
        assert back.p == t.p and back.m == t.m


def test_check_triple_reports_broken_level_maps():
    b = chain_model(K2)
    t = triple_from_biconvex(b)
    broken = TripleStructure(
        b.carrier, K2, t.bjoin, t.bmeet, dict(t.p), dict(t.m)
    )
    broken.p[K2.one] = b.bottom
    problems = check_triple(broken)
    assert any(p.startswith("p-top") for p in problems)


def test_possibility_map_matches_direct_formula_on_the_chain_model():
    b = chain_model(K2)
    for p in enumerate_capacities(b.carrier, K2, "union"):
        expect = str(max(
            min(p.density[x].value, Fraction(x)) for x in b.carrier.elements
        ))
        assert structure_map_possibility(b, p) == expect


def test_necessity_map_matches_direct_formula_on_the_chain_model():
    b = chain_model(K2)
    for n in enumerate_capacities(b.carrier, K2, "intersection"):
        expect = str(min(
            max(n.codensity[x].value, Fraction(x)) for x in b.carrier.elements
        ))
        assert structure_map_necessity(b, n) == expect


def test_necessity_second_form_complements_both_factors():
    # The join-over-subsets form pairs c(F) with the meet of F itself.
    # Pairing c(X minus A) with the meet of A instead is NOT equivalent:
    # the point mass at the bottom separates them, and the unit law
    # forces the bottom answer.
    b = chain_model(K2)
    bot = b.bottom
    n = NecessityCapacity(b.carrier, K2, {bot: 0})
    assert structure_map_necessity(b, n) == bot
    universe = b.carrier.universe
    mispaired = b.join_all(
        b.smeet[(n.value(universe - a),
                 b.meet_all(sorted(a, key=b.carrier.index.__getitem__)))]
        for a in b.carrier.subsets()
    )
    assert mispaired == b.top != bot


def test_one_sided_maps_satisfy_unit_laws_everywhere():
    for b in list(structures(X3, K2)) + [chain_model(K2), diamond_structure(K2)]:
        for x in b.carrier.elements:
            dirac_p = PossibilityCapacity(b.carrier, b.chain, {x: b.chain.one})
            cod = {y: b.chain.one for y in b.carrier.elements}
            cod[x] = b.chain.zero
            dirac_n = NecessityCapacity(b.carrier, b.chain, cod)
            assert structure_map_possibility(b, dirac_p) == x
            assert structure_map_necessity(b, dirac_n) == x


def test_multiplication_law_case_reads_each_pool_it_is_given():
    # the map n -> xi(pool[n]) is kept only for the pool object it was
    # computed from: a second pool on an equal set of names gets its own
    (b,) = enumerate_biconvex_structures(X2, K1)
    xi = CapacityStructureMap.from_biconvex(b)
    names = FiniteSpace(["n0"])
    outer = unit_dirac(names, K1, "n0")
    pools = [{"n0": unit_dirac(X2, K1, x)} for x in "ab"]
    for pool, x in zip(pools, "ab"):
        assert xi.mult_case(outer, pool) == (x, x, None)
    # an equal copy of the first pool, then an outer on an equal set of names
    assert xi.mult_case(outer, dict(pools[0])) == ("a", "a", None)
    again = unit_dirac(FiniteSpace(["n0"]), K1, "n0")
    assert xi.mult_case(again, pools[1]) == ("b", "b", None)


def test_factorization_routes_agree_on_every_capacity():
    for b in list(structures(X2, K2)) + [chain_model(K2)]:
        xi = CapacityStructureMap.from_biconvex(b)
        for c in enumerate_capacities(b.carrier, K2):
            assert xi(c) == structure_map_full_dual(b, c)


def test_full_map_restricts_to_the_one_sided_maps():
    for b in list(structures(X2, K2)) + [chain_model(K2)]:
        for c in enumerate_capacities(b.carrier, K2):
            flags = classify(c)
            if flags.is_union:
                assert structure_map_full(b, c) == structure_map_possibility(
                    b, as_possibility(c)
                )
            if flags.is_intersection:
                assert structure_map_full(b, c) == structure_map_necessity(
                    b, as_necessity(c)
                )


def test_closed_form_matches_the_search_routes():
    """The canonical factorization against mixtures found by brute-force search."""
    targets = list(structures(X3, K2)) + [chain_model(K2), diamond_structure(K1)]
    searched = {}
    for b in targets:
        caps = list(enumerate_capacities(b.carrier, b.chain))
        if b.carrier not in searched:
            searched[b.carrier] = [
                (
                    union_over_intersection_preimages(c)[0],
                    intersection_over_union_preimages(c)[0],
                )
                for c in caps
            ]
        for c, (mixture, dual_mixture) in zip(caps, searched[b.carrier]):
            assert structure_map_full(b, c) == _xi_via_union_mixture(b, mixture)
            assert structure_map_full_dual(b, c) == _xi_via_intersection_mixture(
                b, dual_mixture
            )


def test_preimage_searches_invert_multiplication():
    for c in enumerate_capacities(X3, K2):
        mixtures = union_over_intersection_preimages(c, limit=1)
        assert mixtures, "every capacity factors as a possibility over necessities"
        _, assignment = capacity_pool(X3, K2, "intersection")
        assert capacity_equal(mult(mixtures[0], assignment), as_capacity(c))
        duals = intersection_over_union_preimages(c, limit=1)
        assert duals
        _, passign = capacity_pool(X3, K2, "union")
        assert capacity_equal(mult(duals[0], passign), as_capacity(c))


def test_preimage_search_is_deterministic():
    c = list(enumerate_capacities(X3, K2))[40]
    first = union_over_intersection_preimages(c, limit=3)
    second = union_over_intersection_preimages(c, limit=3)
    assert [m.density for m in first] == [m.density for m in second]


def test_full_map_is_independent_of_the_chosen_mixture():
    b = chain_model(K2)
    _, assignment = capacity_pool(b.carrier, K2, "intersection")
    for c in list(enumerate_capacities(b.carrier, K2))[::7]:
        hits = union_over_intersection_preimages(c, limit=4, budget=60_000)
        values = set()
        for mixture in hits:
            dens = {x: K2.zero for x in b.carrier.elements}
            for n, w in mixture.density.items():
                if w == K2.zero:
                    continue
                target = structure_map_necessity(b, assignment[n])
                dens[target] = max(dens[target], w)
            values.add(
                structure_map_possibility(b, PossibilityCapacity(b.carrier, K2, dens))
            )
        assert len(values) == 1


def test_bottom_point_mass_has_a_lone_factorization_within_budget():
    bot_necessity = NecessityCapacity(X3, K2, {x: 0 for x in X3.elements})
    hits = union_over_intersection_preimages(bot_necessity, limit=2, budget=30_000)
    assert len(hits) == 1
    dens = hits[0].density
    support = [n for n, w in dens.items() if w != K2.zero]
    assert len(support) == 1


def test_quadruple_recovered_from_the_structure_map():
    for b in list(structures(X3, K2)) + [chain_model(K2), diamond_structure(K2)]:
        xi = CapacityStructureMap.from_biconvex(b)
        assert quadruple_from_algebra(xi) == b


def test_quadruple_recovery_refuses_a_map_whose_lattice_is_unlawful():
    """A table-backed map sending every capacity to "0" recovers the join
    1 v 1 = 0, which is not idempotent."""
    b = chain_model(K1)
    table = {key: "0" for key in CapacityStructureMap.from_biconvex(b).tabulate()}
    xi = CapacityStructureMap.from_table(b.carrier, K1, table)
    with pytest.raises(LawViolationError, match="recovered operations fail the lattice laws"):
        quadruple_from_algebra(xi)


def test_full_maps_check_the_carrier_and_chain_before_any_lookup():
    """A Dirac capacity on another carrier, or at another chain, has the
    same value vector as the Dirac capacity at "0"; neither backing may
    answer it from that entry."""
    b = chain_model(K1)
    by_structure = CapacityStructureMap.from_biconvex(b)
    by_table = CapacityStructureMap.from_table(b.carrier, K1, by_structure.tabulate())
    own = unit_dirac(b.carrier, K1, "0")
    for xi in (by_structure, by_table):
        assert xi(own) == "0"
        with pytest.raises(CarrierMismatchError):
            xi(unit_dirac(FiniteSpace(["p", "q"]), K1, "p"))
        with pytest.raises(ValidationError):
            xi(unit_dirac(b.carrier, K2, "0"))


def test_sugeno_cross_check_agrees_on_the_chain_model():
    b = chain_model(K2)
    xi = CapacityStructureMap.from_biconvex(b)
    for c in enumerate_capacities(b.carrier, K2):
        assert sugeno_form(b, c) == xi(c)


def test_raise_to_half_witness_is_biaffine_but_breaks_the_meet_action():
    b = chain_model(K2)
    half = K2.level("1/2")
    f = PointMap(
        b.carrier, b.carrier,
        {x: str(max(Fraction(x), half.value)) for x in b.carrier.elements},
    )
    assert is_biaffine(f, b, b)
    zero = K2.zero
    assert f(b.smeet[(zero, "1")]) == "1/2"
    assert b.smeet[(zero, f("1"))] == "0"
    # it does not fix the bottom, and that is the only obstruction:
    # the raised-top action is still preserved because the top is fixed
    assert f(b.bottom) != b.bottom and f(b.top) == b.top
    for a in K2.levels:
        for x in b.carrier.elements:
            assert f(b.sjoin[(a, x)]) == b.sjoin[(a, f(x))]
    xi = CapacityStructureMap.from_biconvex(b)
    assert is_algebra_morphism(f, xi, xi)


def test_biaffine_action_preservation_reduces_to_fixed_ends():
    for b in structures(X3, K2):
        for images in itertools.product(X3.elements, repeat=3):
            f = PointMap(X3, X3, dict(zip(X3.elements, images)))
            if not is_biaffine(f, b, b):
                continue
            keeps_meet = all(
                f(b.smeet[(a, x)]) == b.smeet[(a, f(x))]
                for a in K2.levels for x in X3.elements
            )
            keeps_join = all(
                f(b.sjoin[(a, x)]) == b.sjoin[(a, f(x))]
                for a in K2.levels for x in X3.elements
            )
            assert keeps_meet == (f(b.bottom) == b.bottom)
            assert keeps_join == (f(b.top) == b.top)


def test_embedding_search_certifies_the_chain_model_with_one_coordinate():
    res = embedding_search(chain_model(K2), max_arity=1)
    assert res.found and res.arity == 1
    assert res.phis[0] == {a: a for a in K2.levels}
    values = {res.assignment[x][0].value for x in res.assignment}
    assert values == {Fraction(0), Fraction(1, 2), Fraction(1)}


def test_embedding_search_certifies_every_cube_instance():
    phis_k2 = [
        {K2.zero: K2.zero, K2.level("1/2"): mid, K2.one: K2.one}
        for mid in K2.levels
    ]
    for phi in phis_k2:
        cube = cube_structure(K2, [phi])
        res = embedding_search(cube.structure, max_arity=1)
        assert res.found and res.arity == 1
    for phi_pair in itertools.combinations_with_replacement(phis_k2, 2):
        cube = cube_structure(K2, list(phi_pair))
        res = embedding_search(cube.structure, max_arity=2)
        assert res.found and res.arity <= 2


def test_embedding_search_certifies_every_k3_square_cube():
    k3 = Chain(3)
    pairs = list(itertools.combinations_with_replacement(weight_maps(k3), 2))
    assert len(pairs) == 55
    for phi_pair in pairs:
        res = embedding_search(cube_structure(k3, list(phi_pair)).structure, max_arity=2)
        assert res.found and res.arity <= 2


def brute_force_coordinate_candidates(b):
    """Independent oracle: test every map X -> chain against every equation."""
    chain = b.chain
    X = b.carrier.elements
    interior = chain.levels[1:-1]
    out = []
    for phi_vals in itertools.product(chain.levels, repeat=len(interior)):
        phi = {chain.zero: chain.zero, chain.one: chain.one}
        for a, v in zip(interior, phi_vals):
            phi[a] = v
        ordered = [phi[a] for a in chain.levels]
        if any(u > v for u, v in zip(ordered, ordered[1:])):
            continue
        for g_vals in itertools.product(chain.levels, repeat=len(X)):
            g = dict(zip(X, g_vals))
            ok = True
            for x, y in itertools.product(X, repeat=2):
                if g[b.bjoin[(x, y)]] != max(g[x], g[y]):
                    ok = False
                    break
                if g[b.bmeet[(x, y)]] != min(g[x], g[y]):
                    ok = False
                    break
            if ok:
                for a in chain.levels:
                    for x in X:
                        if g[b.smeet[(a, x)]] != min(phi[a], g[x]):
                            ok = False
                            break
                        if g[b.sjoin[(a, x)]] != max(phi[a], g[x]):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                out.append((phi, g))
    return out


def assert_same_candidates(b):
    got = _coordinate_candidates(b)
    want = brute_force_coordinate_candidates(b)
    # same pairs in the same order, down to the key order of each g
    assert got == want
    assert [list(g.items()) for _, g in got] == [list(g.items()) for _, g in want]


def test_coordinate_candidates_match_brute_force_on_named_models():
    for k in (1, 2):
        assert_same_candidates(chain_model(Chain(k)))
        assert_same_candidates(diamond_structure(Chain(k)))
    for k in (1, 2, 3):
        for phi in weight_maps(Chain(k)):
            assert_same_candidates(cube_structure(Chain(k), [phi]).structure)


def test_coordinate_candidates_match_brute_force_on_a_square_cube():
    collapse = {K2.zero: K2.zero, K2.level("1/2"): K2.one, K2.one: K2.one}
    identity = {a: a for a in K2.levels}
    assert_same_candidates(cube_structure(K2, [identity, collapse]).structure)


def moved_cell(b, label, rng):
    """b with one cell of one table sent to a different element."""
    tables = {t: dict(getattr(b, t)) for t in ("bjoin", "bmeet", "smeet", "sjoin")}
    table = tables[label]
    cell = rng.choice(sorted(table, key=str))
    table[cell] = rng.choice([x for x in b.carrier.elements if x != table[cell]])
    return BiconvexStructure(b.carrier, b.chain, **tables)


def test_coordinate_candidates_match_brute_force_on_unlawful_tables():
    rng = random.Random(11)
    for k in (1, 2):
        for model in (chain_model(Chain(k)), diamond_structure(Chain(k))):
            for label in ("bjoin", "bmeet", "smeet", "sjoin"):
                for _ in range(4):
                    b = moved_cell(model, label, rng)
                    assert check_biconvex(b) != []
                    assert_same_candidates(b)


def overwritten_tables(n, k, data):
    """A lawful chain with weights acting as 0 or 1, then any number of
    cells overwritten: from a few corrupted cells to fully random tables."""
    space = FiniteSpace(["a", "b", "c"][:n])
    chain = Chain(k)
    X = space.elements
    tables = {
        "bjoin": {(x, y): max(x, y) for x, y in itertools.product(X, repeat=2)},
        "bmeet": {(x, y): min(x, y) for x, y in itertools.product(X, repeat=2)},
        "smeet": {(a, x): x if a == chain.one else X[0] for a in chain.levels for x in X},
        "sjoin": {(a, x): X[-1] if a == chain.one else x for a in chain.levels for x in X},
    }
    cells = [(label, cell) for label, table in tables.items() for cell in table]
    overwrites = data.draw(strat.lists(
        strat.tuples(strat.sampled_from(cells), strat.sampled_from(X)), max_size=len(cells),
    ))
    for (label, cell), value in overwrites:
        tables[label][cell] = value
    return BiconvexStructure(space, chain, **tables)


@hypothesis.settings(deadline=None)
@hypothesis.given(
    strat.integers(min_value=2, max_value=3),
    strat.integers(min_value=1, max_value=2),
    strat.data(),
)
def test_coordinate_candidates_match_brute_force_on_random_tables(n, k, data):
    assert_same_candidates(overwritten_tables(n, k, data))


# The necessity side as it was written out before it became the
# possibility side of the order dual; kept as the oracle for that route.


def written_out_necessity(b, c):
    _check_match(b, c)
    primary = b.meet_all(
        b.sjoin[(c.codensity[x], x)] for x in b.carrier.elements
    )
    dual = sugeno_form(b, c)
    if dual != primary:
        raise LawViolationError(
            f"necessity map forms disagree: {primary} vs {dual}",
            witness=canonical_key(c),
        )
    return primary


def written_out_point_set_image(b, g, images):
    got = images.get(g)
    if got is None:
        pi = PossibilityCapacity(b.carrier, b.chain, {x: b.chain.one for x in g})
        got = images[g] = structure_map_possibility(b, pi)
    return got


def written_out_mixture_step(b, weighted, image, dual=False):
    chain = b.chain
    neutral = chain.one if dual else chain.zero
    acc = dict.fromkeys(b.carrier.elements, neutral)
    for component, w in weighted:
        if w == neutral:
            continue
        target = image(component)
        if (w < acc[target]) if dual else (w > acc[target]):
            acc[target] = w
    if dual:
        return written_out_necessity(b, NecessityCapacity(b.carrier, chain, acc))
    return structure_map_possibility(b, PossibilityCapacity(b.carrier, chain, acc))


def written_out_full_dual(b, c, images):
    _check_match(b, c)
    universe = b.carrier.universe
    weighted = ((g, c.value(universe - g)) for g in b.carrier.subsets())
    return written_out_mixture_step(
        b, weighted, lambda g: written_out_point_set_image(b, g, images), dual=True
    )


def written_out_intersection_mixture(b, mixture):
    _, assignment = capacity_pool(b.carrier, b.chain, "union")
    return written_out_mixture_step(
        b,
        mixture.codensity.items(),
        lambda p: structure_map_possibility(b, assignment[p]),
        dual=True,
    )


def outcome(route, *args):
    """(value, None) or (None, (message, witness)) of a law violation."""
    try:
        return route(*args), None
    except LawViolationError as exc:
        return None, (str(exc), exc.witness)


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=1, max_value=2),
    strat.data(),
)
def test_necessity_side_through_the_order_dual_matches_the_written_out_side(n, k, data):
    b = overwritten_tables(n, k, data)
    assert b.op.op is b
    images = {}
    _, necessities = capacity_pool(b.carrier, b.chain, "intersection")
    for c in necessities.values():
        assert outcome(structure_map_necessity, b, c) == outcome(written_out_necessity, b, c)
    for c in capacity_pool(b.carrier, b.chain, "all")[1].values():
        assert outcome(structure_map_full_dual, b, c) == outcome(
            written_out_full_dual, b, c, images
        )
    names, _ = capacity_pool(b.carrier, b.chain, "union")
    levels = b.chain.levels
    for _ in range(5):
        cod = dict(zip(names.elements, data.draw(strat.lists(
            strat.sampled_from(levels), min_size=len(names), max_size=len(names),
        ))))
        cod[data.draw(strat.sampled_from(names.elements))] = b.chain.zero
        mixture = NecessityCapacity(names, b.chain, cod)
        assert outcome(_xi_via_intersection_mixture, b, mixture) == outcome(
            written_out_intersection_mixture, b, mixture
        )


# The meet-side law checks as they were written out before they became the
# join-side checks on the order dual (or on the swapped lattice tables);
# kept as the oracle for that route.


def written_out_lattice_diagnostics(carrier, bjoin, bmeet):
    out = []
    X = carrier.elements
    for x, y in itertools.product(X, repeat=2):
        if bjoin[(x, y)] != bjoin[(y, x)]:
            out.append(f"lattice: join({x},{y}) != join({y},{x})")
        if bmeet[(x, y)] != bmeet[(y, x)]:
            out.append(f"lattice: meet({x},{y}) != meet({y},{x})")
        if bmeet[(x, bjoin[(x, y)])] != x:
            out.append(f"lattice: absorption meet({x},join({x},{y})) != {x}")
        if bjoin[(x, bmeet[(x, y)])] != x:
            out.append(f"lattice: absorption join({x},meet({x},{y})) != {x}")
    for x in X:
        if bjoin[(x, x)] != x:
            out.append(f"lattice: join({x},{x}) != {x}")
        if bmeet[(x, x)] != x:
            out.append(f"lattice: meet({x},{x}) != {x}")
    for x, y, z in itertools.product(X, repeat=3):
        if bjoin[(bjoin[(x, y)], z)] != bjoin[(x, bjoin[(y, z)])]:
            out.append(f"lattice: join associativity fails at ({x},{y},{z})")
        if bmeet[(bmeet[(x, y)], z)] != bmeet[(x, bmeet[(y, z)])]:
            out.append(f"lattice: meet associativity fails at ({x},{y},{z})")
    if out:
        return out
    for x, y, z in itertools.product(X, repeat=3):
        if bmeet[(x, bjoin[(y, z)])] != bjoin[(bmeet[(x, y)], bmeet[(x, z)])]:
            out.append(f"lattice: distributivity fails at ({x},{y},{z})")
    return out


def written_out_check_biconvex(b):
    out = written_out_lattice_diagnostics(b.carrier, b.bjoin, b.bmeet)
    if out:
        return out
    X = b.carrier.elements
    levels = b.chain.levels
    one, zero = b.chain.one, b.chain.zero
    bot, top = b.bottom, b.top
    bjoin, bmeet, smeet, sjoin = b.bjoin, b.bmeet, b.smeet, b.sjoin
    for x in X:
        if bjoin[(x, bot)] != x:
            out.append(f"join-module axiom-3: {x}+bottom != {x}")
        if smeet[(one, x)] != x:
            out.append(f"join-module axiom-6: 1*{x} != {x}")
        if smeet[(zero, x)] != bot:
            out.append(f"join-module axiom-7: 0*{x} != bottom")
    for a in levels:
        for x, y in itertools.product(X, repeat=2):
            if smeet[(a, bjoin[(x, y)])] != bjoin[(smeet[(a, x)], smeet[(a, y)])]:
                out.append(f"join-module axiom-4: {a}*join({x},{y}) mismatch")
    for a, c in itertools.product(levels, repeat=2):
        for x in X:
            if smeet[(max(a, c), x)] != bjoin[(smeet[(a, x)], smeet[(c, x)])]:
                out.append(f"join-module axiom-4: (max {a},{c})*{x} mismatch")
            if smeet[(min(a, c), x)] != smeet[(a, smeet[(c, x)])]:
                out.append(f"join-module axiom-5: (min {a},{c})*{x} mismatch")
    for x in X:
        if bmeet[(x, top)] != x:
            out.append(f"meet-module axiom-3: meet({x},top) != {x}")
        if sjoin[(zero, x)] != x:
            out.append(f"meet-module axiom-6: 0+{x} != {x}")
        if sjoin[(one, x)] != top:
            out.append(f"meet-module axiom-7: 1+{x} != top")
    for a in levels:
        for x, y in itertools.product(X, repeat=2):
            if sjoin[(a, bmeet[(x, y)])] != bmeet[(sjoin[(a, x)], sjoin[(a, y)])]:
                out.append(f"meet-module axiom-4: {a}+meet({x},{y}) mismatch")
    for a, c in itertools.product(levels, repeat=2):
        for x in X:
            if sjoin[(min(a, c), x)] != bmeet[(sjoin[(a, x)], sjoin[(c, x)])]:
                out.append(f"meet-module axiom-4: (min {a},{c})+{x} mismatch")
            if sjoin[(max(a, c), x)] != sjoin[(a, sjoin[(c, x)])]:
                out.append(f"meet-module axiom-5: (max {a},{c})+{x} mismatch")
    for a in levels:
        for x, y in itertools.product(X, repeat=2):
            if bjoin[(sjoin[(a, x)], y)] != sjoin[(a, bjoin[(x, y)])]:
                out.append(f"mixed-assoc: join({a}+{x},{y}) mismatch")
            if bmeet[(smeet[(a, x)], y)] != smeet[(a, bmeet[(x, y)])]:
                out.append(f"mixed-assoc: meet({a}*{x},{y}) mismatch")
    for a, c in itertools.product(levels, repeat=2):
        for x in X:
            if smeet[(a, sjoin[(c, x)])] != sjoin[(min(a, c), smeet[(a, x)])]:
                out.append(f"mixed-dist: {a}*({c}+{x}) mismatch")
            if sjoin[(a, smeet[(c, x)])] != smeet[(max(a, c), sjoin[(a, x)])]:
                out.append(f"mixed-dist: {a}+({c}*{x}) mismatch")
    return out


def written_out_is_biaffine(f, b, b2):
    for x, y in itertools.product(b.carrier.elements, repeat=2):
        for a in b.chain.levels:
            lhs = f(b.bjoin[(x, b.smeet[(a, y)])])
            rhs = b2.bjoin[(f(x), b2.smeet[(a, f(y))])]
            if lhs != rhs:
                return False
            lhs = f(b.bmeet[(x, b.sjoin[(a, y)])])
            rhs = b2.bmeet[(f(x), b2.sjoin[(a, f(y))])]
            if lhs != rhs:
                return False
    return True


def written_out_action_checks(rep, f, b1, b2):
    levels = b1.chain.levels
    keeps_meet = all(
        f(b1.smeet[(a, x)]) == b2.smeet[(a, f(x))]
        for a in levels
        for x in b1.carrier.elements
    )
    keeps_join = all(
        f(b1.sjoin[(a, x)]) == b2.sjoin[(a, f(x))]
        for a in levels
        for x in b1.carrier.elements
    )
    w = f"f={_map_witness(f)}"
    rep.check(
        "meet-action-preserved-iff-bottom-fixed",
        keeps_meet == (f(b1.bottom) == b2.bottom),
        w,
    )
    rep.check(
        "join-action-preserved-iff-top-fixed",
        keeps_join == (f(b1.top) == b2.top),
        w,
    )


def assert_law_checks_match_the_written_out_ones(b, b2, maps):
    """The same multiset of law texts from both routes, and on each map
    the same biaffine verdict and the same action-check findings."""
    got = check_biconvex(b)
    assert Counter(got) == Counter(written_out_check_biconvex(b))
    assert Counter(_lattice_diagnostics(b.carrier, b.bjoin, b.bmeet)) == Counter(
        written_out_lattice_diagnostics(b.carrier, b.bjoin, b.bmeet)
    )
    for f in maps:
        assert is_biaffine(f, b, b2) == written_out_is_biaffine(f, b, b2)
        reports = SuiteReport("new"), SuiteReport("old")
        _action_checks(reports[0], f, b, b2)
        written_out_action_checks(reports[1], f, b, b2)
        assert reports[0].cases == reports[1].cases
        assert reports[0].to_json()["findings"] == reports[1].to_json()["findings"]
    return got


def random_maps(source, target, draw, count):
    return [
        PointMap(source, target, dict(zip(source.elements, draw(strat.lists(
            strat.sampled_from(target.elements), min_size=len(source), max_size=len(source),
        )))))
        for _ in range(count)
    ]


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=1, max_value=3),
    strat.integers(min_value=1, max_value=2),
    strat.data(),
)
def test_law_checks_through_the_order_dual_match_the_written_out_ones(n, n2, k, data):
    b, b2 = overwritten_tables(n, k, data), overwritten_tables(n2, k, data)
    maps = random_maps(b.carrier, b2.carrier, data.draw, 4)
    assert_law_checks_match_the_written_out_ones(b, b2, maps)


def test_law_checks_through_the_order_dual_match_on_corrupted_named_models():
    """1-3 moved cells of the chain models and diamonds at k = 1, 2 and of
    N5 and M3: every law text of either side shows up, levels included."""
    rng = random.Random(15)
    models = [f(Chain(k)) for k in (1, 2) for f in (chain_model, diamond_structure)]
    texts = set()
    for model in models + [N5, M3]:
        X = model.carrier.elements
        for _ in range(60):
            b = model
            for _ in range(rng.randint(1, 3)):
                b = moved_cell(b, rng.choice(["bjoin", "bmeet", "smeet", "sjoin"]), rng)
            maps = [PointMap(b.carrier, b.carrier, {x: rng.choice(X) for x in X}) for _ in range(3)]
            texts.update(assert_law_checks_match_the_written_out_ones(b, b, maps))
    # the meet side of every law that has one, in each of its text forms,
    # was broken somewhere (axiom 3 cannot break once the lattice laws hold)
    for pattern in (
        r"lattice: meet\(\w+,\w+\) != meet", r"lattice: absorption join\(",
        r"lattice: meet\(\w+,\w+\) != \w+$", r"lattice: meet associativity",
        r"meet-module axiom-4: 1/2\+meet\(", r"meet-module axiom-4: \(min 0,1/2\)\+",
        r"meet-module axiom-5: \(max 0,1/2\)\+", r"meet-module axiom-6: 0\+",
        r"meet-module axiom-7: 1\+", r"mixed-assoc: meet\(1/2\*", r"mixed-dist: 1/2\+\(0\*",
    ):
        assert any(re.search(pattern, t) for t in texts), pattern


def test_order_dual_of_the_named_models_is_lawful():
    for b in (chain_model(K1), chain_model(K2), diamond_structure(K1), diamond_structure(K2)):
        assert b.op is b.op and b.op.op is b
        assert check_biconvex(b.op) == []
        assert b.op.bjoin == b.bmeet and b.op.bmeet == b.bjoin


def test_collapsing_weight_map_acts_through_its_image():
    # phi sending the middle level to 1 makes a half weight act like full
    phi = {K2.zero: K2.zero, K2.level("1/2"): K2.one, K2.one: K2.one}
    cube = cube_structure(K2, [phi])
    b = cube.structure
    assert b.smeet[(K2.level("1/2"), "1")] == "1"
    assert b.sjoin[(K2.level("1/2"), "0")] == "1"
    assert check_biconvex(b) == []


def test_embedding_search_handles_the_diamond():
    res = embedding_search(diamond_structure(K2), max_arity=2)
    assert res.found and res.arity == 2
    images = set(res.assignment.values())
    assert len(images) == 4  # injective on the four diamond points


def test_phi_validation():
    with pytest.raises(ValidationError):
        cube_structure(K2, [])
    with pytest.raises(ValidationError):  # endpoint 0 must stay put
        cube_structure(K2, [{K2.zero: K2.one, K2.level("1/2"): K2.one, K2.one: K2.one}])
    with pytest.raises(ValidationError):  # missing a level
        cube_structure(K2, [{K2.zero: K2.zero, K2.one: K2.one}])
    # non-monotone interior
    k4 = Chain(4)
    bad = {a: a for a in k4.levels}
    bad[k4.level("1/4")] = k4.level("3/4")
    bad[k4.level("1/2")] = k4.level("1/4")
    with pytest.raises(ValidationError):
        cube_structure(k4, [bad])


def test_cube_size_is_bounded_before_any_point_is_built():
    k3 = Chain(3)
    identity = {a: a for a in k3.levels}
    assert len(cube_structure(k3, [identity] * 3).structure.carrier) == 64
    with pytest.raises(BudgetExceededError, match="4\\^4 points exceeds the limit of 81"):
        cube_structure(k3, [identity] * 4)


def test_structure_validation_and_enumeration_guards():
    with pytest.raises(ValidationError):
        BiconvexStructure(X2, K2, {}, {}, {}, {})
    # running past the enumeration's size limit is a budget outcome
    limit = "^" + re.escape("biconvex enumeration is limited to |X| <= 3, k <= 2") + "$"
    with pytest.raises(BudgetExceededError, match=limit):
        list(enumerate_biconvex_structures(FiniteSpace(list("abcd")), K2))
    with pytest.raises(BudgetExceededError, match=limit):
        list(enumerate_biconvex_structures(X3, Chain(3)))


@pytest.mark.parametrize("evaluate", [structure_map_possibility, structure_map_full, sugeno_form])
def test_closed_forms_refuse_a_capacity_on_another_carrier(evaluate):
    with pytest.raises(CarrierMismatchError, match="capacity and structure do not match"):
        evaluate(chain_model(K2), unit_dirac(X2, K2, "a"))


def test_is_biaffine_refuses_foreign_endpoints_and_chains():
    b1 = next(iter(enumerate_biconvex_structures(X2, K1)))
    b2 = next(iter(enumerate_biconvex_structures(X2, K2)))
    identity = PointMap(X2, X2, {"a": "a", "b": "b"})
    with pytest.raises(CarrierMismatchError, match="map endpoints do not match the structures"):
        is_biaffine(identity, chain_model(K2), b2)
    with pytest.raises(ValidationError, match="structures use different chains"):
        is_biaffine(identity, b1, b2)
