"""Semiring laws for the chain of truth levels, exhaustively for k <= 4."""

import itertools
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg.chain import (
    Chain,
    complement,
    join,
    level_from_string,
    meet,
)
from capalg.errors import (
    ChainMismatchError,
    InvalidResolutionError,
    ValidationError,
)

CHAINS = [Chain(k) for k in range(1, 5)]


def test_levels_are_the_expected_fractions():
    for chain in CHAINS:
        assert [lv.value for lv in chain.levels] == [
            Fraction(i, chain.k) for i in range(chain.k + 1)
        ]
        assert chain.zero.value == 0
        assert chain.one.value == 1


def test_join_meet_identities_and_idempotence():
    for chain in CHAINS:
        for a in chain:
            # a v 0 = a, a ^ 1 = a, a v a = a, a ^ a = a
            assert join(a, chain.zero) == a
            assert meet(a, chain.one) == a
            assert join(a, a) == a
            assert meet(a, a) == a
            # annihilators
            assert join(a, chain.one) == chain.one
            assert meet(a, chain.zero) == chain.zero


def test_commutativity_and_absorption():
    for chain in CHAINS:
        for a, b in itertools.product(chain, repeat=2):
            assert join(a, b) == join(b, a)
            assert meet(a, b) == meet(b, a)
            # a v (a ^ b) = a = a ^ (a v b)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a


def test_associativity_and_mutual_distributivity():
    for chain in CHAINS:
        for a, b, c in itertools.product(chain, repeat=3):
            assert join(join(a, b), c) == join(a, join(b, c))
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
            assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


def test_total_order_agrees_with_lattice():
    for chain in CHAINS:
        for a, b in itertools.product(chain, repeat=2):
            assert join(a, b) in (a, b)
            assert meet(a, b) in (a, b)
            assert (a <= b) == (join(a, b) == b)


def test_complement_is_an_order_reversing_involution():
    for chain in CHAINS:
        for a in chain:
            assert complement(complement(a)) == a
            assert complement(a).value == 1 - a.value
        for a, b in itertools.product(chain, repeat=2):
            if a <= b:
                assert complement(b) <= complement(a)
            # De Morgan
            assert complement(join(a, b)) == meet(complement(a), complement(b))
            assert complement(meet(a, b)) == join(complement(a), complement(b))


@hypothesis.given(
    strat.integers(min_value=1, max_value=12),
    strat.data(),
)
def test_lattice_laws_hold_at_any_resolution(k, data):
    chain = Chain(k)
    pick = strat.sampled_from(chain.levels)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert complement(join(a, b)) == meet(complement(a), complement(b))


def test_level_parsing_round_trips():
    chain = Chain(4)
    for a in chain:
        assert level_from_string(chain, str(a)) == a
    assert chain.level("1/2").value == Fraction(1, 2)
    assert chain.level(1) == chain.one
    assert chain.level(Fraction(3, 4)).value == Fraction(3, 4)


def test_invalid_resolutions_rejected():
    for bad in (0, -1, 2.0, "3", True):
        with pytest.raises(InvalidResolutionError):
            Chain(bad)


def test_off_chain_and_float_values_rejected():
    chain = Chain(2)
    with pytest.raises(ValidationError):
        chain.level("1/3")
    with pytest.raises(ValidationError):
        chain.level(0.5)
    with pytest.raises(ValidationError):
        chain.level("two")
    with pytest.raises(ValidationError):
        chain.level(2)


def test_mixed_resolution_operands_rejected():
    a = Chain(2).level("1/2")
    b = Chain(3).level("1/3")
    with pytest.raises(ChainMismatchError):
        join(a, b)
    with pytest.raises(ChainMismatchError):
        meet(a, b)
    with pytest.raises(ChainMismatchError):
        a < b
    # equality across resolutions is just False, not an error
    assert a != b
    with pytest.raises(ChainMismatchError):
        Chain(3).level(a)


def test_levels_are_immutable_and_hashable():
    chain = Chain(2)
    half = chain.level("1/2")
    with pytest.raises(AttributeError):
        half.value = Fraction(1)
    assert len({lv for lv in chain}) == 3
    assert half.index == 1


def test_ordering_across_chains_raises_and_equality_is_false():
    a = Chain(2).level("1/2")
    b = Chain(4).level("1/2")
    for order in (
        lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b,
        lambda: b < a, lambda: b >= a,
    ):
        with pytest.raises(ChainMismatchError):
            order()
    # the same value on another resolution is another level
    assert not (a == b)
    assert a != b


def test_levels_against_non_levels():
    half = Chain(2).level("1/2")
    with pytest.raises(TypeError):
        half < 1
    with pytest.raises(TypeError):
        half >= 0
    with pytest.raises(TypeError):
        half <= 1
    with pytest.raises(TypeError):
        half > 0
    assert half != 1
    assert not (half == 1)
    assert half != Fraction(1, 2)


def test_levels_of_separate_chain_instances_agree():
    for k in range(1, 5):
        for a, b in zip(Chain(k).levels, Chain(k).levels):
            assert a == b and not (a != b)
            assert a <= b and a >= b and not (a < b) and not (a > b)
            assert hash(a) == hash(b)


def test_level_hash_is_the_hash_of_resolution_and_value():
    # dict and set iteration order, and with it every report byte, depends
    # on this exact hash: changing it reorders reports
    for chain in CHAINS:
        for lv in chain:
            assert hash(lv) == hash((chain.k, lv.value))


def test_rank_index_and_complement():
    for chain in CHAINS:
        for i, lv in enumerate(chain.levels):
            assert lv.index == lv.i == i
            assert complement(complement(lv)) is lv
            assert complement(lv).i == chain.k - i
        for a, b in itertools.product(chain, repeat=2):
            assert (a < b) == (a.value < b.value)
            assert (a <= b) == (a.value <= b.value)
            assert (a > b) == (a.value > b.value)
            assert (a >= b) == (a.value >= b.value)
            assert (a == b) == (a.value == b.value)
            assert (a != b) == (a.value != b.value)
