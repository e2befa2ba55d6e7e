"""Finite uniform chain of truth levels with (max, min) semiring structure.

A chain of resolution k holds the k+1 exact rationals 0, 1/k, ..., 1.
Join is max, meet is min, and both distribute over each other; the
complement 1 - a is an order-reversing involution.  All arithmetic is
exact (fractions.Fraction); floats are never accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ChainMismatchError, InvalidResolutionError, ValidationError


class Level:
    """One truth level of a chain.  Immutable, ordered, hashable.

    A level compares and hashes through its integer rank ``i = value * k``
    on its chain; the exact ``value`` is kept for the API and serialization.
    """

    __slots__ = ("chain", "value", "i", "k", "_hash")

    def __init__(self, chain: "Chain", value: Fraction):
        k = chain.k
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "i", int(value * k))
        object.__setattr__(self, "k", k)
        # dict and set iteration order, and so every report byte, depends on
        # this staying exactly the hash of (k, value)
        object.__setattr__(self, "_hash", hash((k, value)))

    def __setattr__(self, name, value):
        raise AttributeError("Level is immutable")

    def __eq__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        return self.k == other.k and self.i == other.i

    def __ne__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        return self.k != other.k or self.i != other.i

    def __lt__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        if self.k != other.k:
            _order_mismatch(self, other)
        return self.i < other.i

    def __le__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        if self.k != other.k:
            _order_mismatch(self, other)
        return self.i <= other.i

    def __gt__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        if self.k != other.k:
            _order_mismatch(self, other)
        return self.i > other.i

    def __ge__(self, other):
        if not isinstance(other, Level):
            return NotImplemented
        if self.k != other.k:
            _order_mismatch(self, other)
        return self.i >= other.i

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Level({self.value!s}, chain_{self.k})"

    def __str__(self):
        return str(self.value)

    @property
    def index(self) -> int:
        """Position on the chain: value * k."""
        return self.i


def _order_mismatch(a: Level, b: Level):
    raise ChainMismatchError(f"cannot compare levels of chain_{a.k} and chain_{b.k}")


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
        return other is self or (isinstance(other, Chain) and other.k == self.k)

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
            if value.k != self.k:
                raise ChainMismatchError(
                    f"level of chain_{value.k} used with chain_{self.k}"
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
    if a.k != b.k:
        raise ChainMismatchError(f"operands on chain_{a.k} and chain_{b.k}")


def join(a: Level, b: Level) -> Level:
    _require_same_chain(a, b)
    return a if a.i >= b.i else b

def meet(a: Level, b: Level) -> Level:
    _require_same_chain(a, b)
    return a if a.i <= b.i else b

def complement(a: Level) -> Level:
    return a.chain.levels[a.k - a.i]


def level_from_string(chain: Chain, text: str) -> Level:
    if not isinstance(text, str):
        raise ValidationError(f"level must be a string, got {text!r}")
    return chain.level(text)
