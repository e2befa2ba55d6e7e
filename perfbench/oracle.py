"""Known answers that do not come from capalg.

The named biconvex models are written out from their closed forms, and
the lawfulness of an idempotent convex table ic(x, a, y) is decided by a
brute-force check of the five combination axioms on integer indices.
Nothing here imports capalg: using its checkers to decide the answers it
is then graded against would be circular (capalg's own enumeration of
convex structures filters through its axiom checker).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def level_names(k: int) -> list[str]:
    """Exact level strings of the chain 0 < 1/k < ... < 1, as capalg writes them."""
    return [str(Fraction(i, k)) for i in range(k + 1)]


# ------------------------------------------------------------ named models


def _biconvex_json(k, elements, bjoin, bmeet, smeet, sjoin) -> dict:
    """Lattice-with-actions JSON: pair keys "x|y", action keys "a|x"."""
    lv = level_names(k)
    pairs = list(itertools.product(elements, repeat=2))
    actions = [(i, x) for i in range(k + 1) for x in elements]
    return {
        "chain_k": k,
        "elements": list(elements),
        "bjoin": {f"{x}|{y}": bjoin(x, y) for x, y in pairs},
        "bmeet": {f"{x}|{y}": bmeet(x, y) for x, y in pairs},
        "smeet": {f"{lv[i]}|{x}": smeet(i, x) for i, x in actions},
        "sjoin": {f"{lv[i]}|{x}": sjoin(i, x) for i, x in actions},
    }


def chain_model_json(k: int) -> dict:
    """The chain itself: join max, meet min, a*x = min(a, x), a+x = max(a, x)."""
    lv = level_names(k)
    pos = {name: i for i, name in enumerate(lv)}

    def hi(x, y):
        return lv[max(pos[x], pos[y])]

    def lo(x, y):
        return lv[min(pos[x], pos[y])]

    return _biconvex_json(
        k, lv, hi, lo,
        lambda i, x: lo(lv[i], x),
        lambda i, x: hi(lv[i], x),
    )


def diamond_json(k: int) -> dict:
    """2 x 2 Boolean square, bitwise lattice; weight 1 acts as 1, all others as 0."""
    bits = ["00", "01", "10", "11"]

    def bitwise(op):
        return lambda x, y: "".join(str(op(int(p), int(q))) for p, q in zip(x, y))

    def act(op):
        return lambda i, x: "".join(str(op(int(i == k), int(p))) for p in x)

    return _biconvex_json(
        k, bits, bitwise(max), bitwise(min), act(min), act(max)
    )


def cube_json(k: int, phis: list[list[int]]) -> dict:
    """Product cube chain^A in phi form: phis[j][i] is the level index phi_j(i/k)."""
    lv = level_names(k)
    return {
        "chain_k": k,
        "A": len(phis),
        "phi": [{lv[i]: lv[p[i]] for i in range(k + 1)} for p in phis],
    }


def monotone_phis(k: int) -> list[list[int]]:
    """Every weight map phi on the chain that fixes 0 and 1 and never decreases."""
    out = []
    for inner in itertools.product(range(k + 1), repeat=k - 1):
        p = [0, *inner, k]
        if all(u <= v for u, v in zip(p, p[1:])):
            out.append(p)
    return out


# ------------------------------------------------------ convex table oracle


class ConvexTable:
    """ic(x, a, y) on points 0..n-1 and level indices 0..k, stored flat."""

    __slots__ = ("n", "k", "cells")

    def __init__(self, n: int, k: int, cells):
        self.n, self.k, self.cells = n, k, list(cells)

    def index(self, x: int, a: int, y: int) -> int:
        return (x * (self.k + 1) + a) * self.n + y

    def get(self, x: int, a: int, y: int) -> int:
        return self.cells[self.index(x, a, y)]

    def replaced(self, cell: tuple[int, int, int], z: int) -> "ConvexTable":
        out = ConvexTable(self.n, self.k, self.cells)
        out.cells[self.index(*cell)] = z
        return out

    def to_json(self, elements: list[str]) -> dict:
        lv = level_names(self.k)
        return {
            "chain_k": self.k,
            "elements": list(elements),
            "ic": {
                f"{elements[x]}|{lv[a]}|{elements[y]}": elements[self.get(x, a, y)]
                for x in range(self.n)
                for a in range(self.k + 1)
                for y in range(self.n)
            },
        }


def is_lawful(t: ConvexTable, levels=None) -> bool:
    """All five combination axioms, checked literally over every argument.

    ``levels`` restricts the weights a, b tried in axioms 1-3 (default:
    all of them); with weights in {0, 1} only those two slices are read.

    1. ic(x, a, x) = x
    2. ic(ic(x, a, y), b, z) = ic(ic(x, b, z), a, y)
    3. ic(x, a, ic(y, b, z)) = ic(ic(x, a, y), min(a, b), z)
    4. ic(x, 1, y) = ic(y, 1, x)
    5. ic(x, 0, y) = x
    """
    n, top, ic = t.n, t.k, t.get
    pts = range(n)
    lvs = range(top + 1) if levels is None else levels
    for x in pts:
        for y in pts:
            if ic(x, 0, y) != x or ic(x, top, y) != ic(y, top, x):
                return False
        for a in lvs:
            if ic(x, a, x) != x:
                return False
    for x, y, z in itertools.product(pts, repeat=3):
        for a, b in itertools.product(lvs, repeat=2):
            if ic(ic(x, a, y), b, z) != ic(ic(x, b, z), a, y):
                return False
            if ic(x, a, ic(y, b, z)) != ic(ic(x, a, y), min(a, b), z):
                return False
    return True


def free_cells(n: int, k: int) -> list[tuple[int, int, int]]:
    """Off-diagonal cells at interior weights: the ones no single axiom pins."""
    return [
        (x, a, y)
        for x in range(n)
        for a in range(1, k)
        for y in range(n)
        if x != y
    ]


def lawful_tables(n: int, k: int) -> list[ConvexTable]:
    """Every lawful table, in lexicographic order of the flat cell list.

    Axioms 1 and 5 fix the diagonal and the weight-0 slice and axiom 4
    ties ic(x, 1, y) to ic(y, 1, x).  A weight-1 slice that already fails
    the axioms at weights {0, 1} is skipped whole, since those checks read
    no interior cell; every other assignment must pass the full check.
    """
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    interior = free_cells(n, k)
    out = []
    base = ConvexTable(n, k, [0] * (n * (k + 1) * n))
    for x in range(n):
        for a in range(k + 1):
            for y in range(n):
                base.cells[base.index(x, a, y)] = x
    for joins in itertools.product(range(n), repeat=len(pairs)):
        sliced = ConvexTable(n, k, base.cells)
        for (x, y), z in zip(pairs, joins):
            sliced.cells[sliced.index(x, k, y)] = z
            sliced.cells[sliced.index(y, k, x)] = z
        if not is_lawful(sliced, levels=(0, k)):
            continue
        for values in itertools.product(range(n), repeat=len(interior)):
            t = ConvexTable(n, k, sliced.cells)
            for cell, z in zip(interior, values):
                t.cells[t.index(*cell)] = z
            if is_lawful(t):
                out.append(t)
    out.sort(key=lambda t: t.cells)
    return out
