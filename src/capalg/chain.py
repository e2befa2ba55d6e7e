"""Finite uniform chain of truth levels with (max, min) semiring structure.

A chain of resolution k holds the k+1 exact rationals 0, 1/k, ..., 1.
Join is max, meet is min, and both distribute over each other; the
complement 1 - a is an order-reversing involution.  All arithmetic is
exact (fractions.Fraction); floats are never accepted.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .errors import ChainMismatchError, InvalidResolutionError, ValidationError


@total_ordering
class Level:
    """One truth level of a chain.  Immutable, ordered, hashable."""

    __slots__ = ("chain", "value")

    def __init__(self, chain: "Chain", value: Fraction):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    def __eq__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        return self.chain.k == other.chain.k and self.value == other.value

    def __lt__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        if self.chain.k != other.chain.k:
            raise ChainMismatchError(
                f"cannot compare levels of chain_{self.chain.k} and chain_{other.chain.k}"
            )
        return self.value < other.value

    def __hash__(self):
        return hash((self.chain.k, self.value))

    def __repr__(self):
        return f"Level({self.value!s}, chain_{self.chain.k})"

    def __str__(self):
        return str(self.value)

    @property
    def index(self) -> int:
        """Position on the chain: value * k."""
        return int(self.value * self.chain.k)


class Chain:
    """The chain {0, 1/k, ..., 1} with join=max, meet=min, complement=1-a."""

    __slots__ = ("k", "levels", "_by_value")

    def __init__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidResolutionError(f"resolution must be a positive integer, got {k!r}")
        self.k = k
        self.levels = tuple(Level(self, Fraction(i, k)) for i in range(k + 1))
        self._by_value = {lv.value: lv for lv in self.levels}

    def __eq__(self, other):
        return isinstance(other, Chain) and other.k == self.k

    def __hash__(self):
        return hash(("Chain", self.k))

    def __repr__(self):
        return f"Chain(k={self.k})"

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)

    @property
    def zero(self) -> Level:
        return self.levels[0]

    @property
    def one(self) -> Level:
        return self.levels[-1]

    def level(self, value) -> Level:
        """Coerce an exact value ("p/q" string, int, or Fraction) to a Level.

        Floats are rejected: they would silently break exactness.
        """
        if isinstance(value, Level):
            if value.chain.k != self.k:
                raise ChainMismatchError(
                    f"level of chain_{value.chain.k} used with chain_{self.k}"
                )
            return value
        if isinstance(value, float):
            raise ValidationError(f"levels must be exact rationals, got float {value!r}")
        try:
            frac = Fraction(value)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse level {value!r}") from exc
        got = self._by_value.get(frac)
        if got is None:
            raise ValidationError(f"{frac} is not a multiple of 1/{self.k} in [0, 1]")
        return got


def make_chain(k: int) -> Chain:
    return Chain(k)


def _require_same_chain(a: Level, b: Level) -> None:
    if a.chain.k != b.chain.k:
        raise ChainMismatchError(
            f"operands on chain_{a.chain.k} and chain_{b.chain.k}"
        )


def join(a: Level, b: Level) -> Level:
    _require_same_chain(a, b)
    return a if a.value >= b.value else b

def meet(a: Level, b: Level) -> Level:
    _require_same_chain(a, b)
    return a if a.value <= b.value else b

def complement(a: Level) -> Level:
    return a.chain._by_value[1 - a.value]


def level_to_string(a: Level) -> str:
    """Serialize exactly: "0", "1", or "p/q" in lowest terms."""
    return str(a.value)


def level_from_string(chain: Chain, text: str) -> Level:
    if not isinstance(text, str):
        raise ValidationError(f"level must be a string, got {text!r}")
    return chain.level(text)
