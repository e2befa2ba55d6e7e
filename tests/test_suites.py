"""Monad law suites under injected faults.

The hyperspace and capacity monad suites pass on correct code, so their
reports alone pin neither the finding texts nor the order of the seeded
draws.  Here ``g_map``, ``g_mult``, ``pushforward`` and ``mult`` are
replaced, as the suites see them, by versions that return a wrong value
on about one input in four.  Each fault depends only on the call's
input, never on how often the function was called, so the reports are
a fixed function of the suites' sweeps and draws.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import pytest

from capalg import biconvex, capacity, spaces, suites
from capalg.chain import make_chain
from capalg.serial import dumps_canonical
from capalg.spaces import FiniteSpace, InclusionHyperspace

X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])
K1, K2 = make_chain(1), make_chain(2)

HYPERSPACE_LAWS = {
    "functor-composition",
    "functor-identity",
    "mult-associativity",
    "mult-naturality",
    "mult-two-routes",
    "unit-law-inner",
    "unit-law-outer",
    "unit-naturality",
}
CAPACITY_LAWS = {
    "mult-associativity",
    "mult-naturality",
    "unit-law-inner",
    "unit-law-outer",
    "unit-naturality",
}


def _struck(*parts: str) -> bool:
    return zlib.crc32("|".join(parts).encode()) % 4 == 0


def _map_text(f) -> str:
    return ",".join(f"{x}->{f(x)}" for x in f.source.elements)


def _hs_text(h: InclusionHyperspace) -> str:
    return ";".join(sorted(",".join(sorted(m)) for m in h.min_sets))


def _cap_text(c) -> str:
    """Cheap text of a capacity, whatever its representation: its values
    at the singletons (its table may span a large carrier)."""
    return ",".join(str(c.value({x})) for x in c.carrier.elements)


def _values_text(c) -> str:
    return ",".join(str(c.chain.levels[r]) for r in capacity.canonical_key(c))


def _other_hyperspace(h: InclusionHyperspace) -> InclusionHyperspace:
    top = InclusionHyperspace(h.carrier, [h.carrier.universe])
    return top if h != top else spaces.g_unit(h.carrier, h.carrier.elements[0])


def _other_capacity(c):
    first = capacity.unit_dirac(c.carrier, c.chain, c.carrier.elements[0])
    if not capacity.capacity_equal(c, first):
        return first
    return capacity.unit_dirac(c.carrier, c.chain, c.carrier.elements[-1])


def faulty_g_map(f, hs):
    out = spaces.g_map(f, hs)
    return _other_hyperspace(out) if _struck("g_map", _map_text(f), _hs_text(hs)) else out


def faulty_g_mult(outer, assignment):
    out = spaces.g_mult(outer, assignment)
    return _other_hyperspace(out) if _struck("g_mult", _hs_text(outer), _hs_text(out)) else out


def faulty_pushforward(f, c):
    # only maps into a base space are struck: a capacity table over a
    # space of names would be too large to replace
    out = capacity.pushforward(f, c)
    if len(f.target) <= 4 and _struck("pushforward", _map_text(f), _cap_text(c)):
        return _other_capacity(out)
    return out


def faulty_mult(outer, assignment, *args, **kwargs):
    out = capacity.mult(outer, assignment, *args, **kwargs)
    if len(out.carrier) <= 4 and _struck("mult", _cap_text(outer), _values_text(out)):
        return _other_capacity(out)
    return out


def _reports():
    for seed in (0, 3, 7):
        yield suites.g_monad_suite(X2, "exhaustive", 20, seed)
        yield suites.g_monad_suite(X2, "random", 40, seed)
        yield suites.g_monad_suite(X3, "random", 40, seed)
        yield suites.capacity_monad_suite(X2, K2, 20, seed)
        yield suites.capacity_monad_suite(X3, K1, 20, seed)
        yield suites.capacity_monad_suite(X3, K2, 10, seed)


# sha256 of the reports below, recorded before the hyperspace suite's two
# modes and the capacity suite came to share one body per monad law;
# re-recorded when ``_cap_text`` came to read values instead of class names,
# before ``mult`` returned forms and views at every carrier size
FAULTED_REPORTS_DIGEST = (
    "78204c8670ed1b93b06a61bab9e0d0131f55479b848a489cdcd4943a9416b8e1"
)


@pytest.fixture
def faults(monkeypatch):
    monkeypatch.setattr(suites, "g_map", faulty_g_map)
    monkeypatch.setattr(suites, "g_mult", faulty_g_mult)
    monkeypatch.setattr(suites, "pushforward", faulty_pushforward)
    monkeypatch.setattr(suites, "mult", faulty_mult)


def test_faulted_monad_reports_match_their_golden_digests(faults):
    reports = [r.to_json() for r in _reports()]
    laws = {name: set() for name in ("hyperspace-monad", "capacity-monad")}
    for r in reports:
        laws[r["name"]].update(f["law"] for f in r["findings"])
    assert HYPERSPACE_LAWS <= laws["hyperspace-monad"]
    assert CAPACITY_LAWS <= laws["capacity-monad"]
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == FAULTED_REPORTS_DIGEST


# sha256 of dumps_canonical of each report, recorded before the two
# structure maps shared one body and full-xi shared its per-capacity check
STRUCTURE_MAP_REPORT_DIGESTS = {
    "full-map-x2-k2": "7d1267ad876901e8e57cfb9a1aca582acd221c39178fd327330d17c902eb1334",
    "full-map-x3-k1": "ea0b4d3fde87a407914f10a133e14a658e05a7e9b3805eb3f59a967c56e63b6b",
    "morphism-k1": "273d87aaa6da282ca20f6337d702e674af4fc39b6f9af595d1c1064688da28d0",
    # recorded before the two halves of the morphism sweep shared one body
    "morphism-k2": "15d2af706a5ef7aac1bda003407be470182b0087c68a499b304083d667a64545",
    # recorded before the round trips shared one body per structure class
    "convex-roundtrip-x2-k2": "a0717200ae2e5ac887006e4bec480dc944a2d928a44a85d45e8ac2663c844362",
}


def test_full_map_and_morphism_reports_match_their_golden_digests():
    reports = {
        "full-map-x2-k2": suites.full_map_suite(X2, K2, 150, 3),
        "full-map-x3-k1": suites.full_map_suite(X3, K1, 150, 3),
        "morphism-k1": suites.morphism_suite(K1),
        "morphism-k2": suites.morphism_suite(K2, max_size=2),
        "convex-roundtrip-x2-k2": suites.convex_roundtrip_suite(X2, K2),
    }
    got = {
        name: hashlib.sha256(dumps_canonical(r.to_json()).encode()).hexdigest()
        for name, r in reports.items()
    }
    assert got == STRUCTURE_MAP_REPORT_DIGESTS


def test_full_map_suite_evaluates_each_capacity_once_per_structure(monkeypatch):
    """The multiplication-law samples, the unit law and the quadruple
    recovery read the values the per-capacity checks put in the
    structure's map: two evaluations per capacity (the map and its dual
    route, which runs the map on the order dual) on each of the three
    structures over three points, 3 x 2 x 129 = 774."""
    original = biconvex.structure_map_full
    calls = []

    def counted(b, c):
        calls.append(None)
        return original(b, c)

    for module in (biconvex, suites):
        monkeypatch.setattr(module, "structure_map_full", counted, raising=False)
    assert suites.full_map_suite(X3, K2, 150, 0).passed
    assert len(calls) <= 774


def test_full_map_suite_maps_each_pool_member_once_per_structure(monkeypatch):
    """The multiplication-law cases alternate the necessity and the
    possibility pool, and the map n -> xi(pool[n]) of both is kept, so each
    pool member is evaluated once per structure, not once per case; the
    per-case recomputation made 4,262 and 2,751 structure-map calls here."""
    original = capacity.StructureMap.__call__
    calls = []

    def counted(self, c):
        calls.append(c)
        return original(self, c)

    monkeypatch.setattr(capacity.StructureMap, "__call__", counted)
    for space, chain, total in ((X2, K2, 1282), (X3, K1, 665)):
        members = {
            id(c): c for kind in ("union", "intersection")
            for c in capacity.capacity_pool(space, chain, kind)[1].values()
        }
        calls.clear()
        assert suites.full_map_suite(space, chain, 150, 0).passed
        structures = len(suites.biconvex_structures(space, chain))
        assert sum(id(c) in members for c in calls) == structures * len(members)
        assert len(calls) <= total
