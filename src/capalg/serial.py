"""JSON forms for every structure the package exposes.

All level values are strings holding exact fractions ("0", "1/2", "1"),
never floats; the chain is declared by an integer "chain_k" field and
the carrier by an "elements" list.  Set-valued keys join element names
with commas (empty string for the empty set); operation-table keys join
arguments with pipes.  Serialization is canonical: sorted keys and a
fixed element order, so equal structures produce equal bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .chain import Chain, Level, level_from_string, level_to_string, make_chain
from .errors import ValidationError
from .spaces import FiniteSpace, InclusionHyperspace, Subset
from .capacity import (
    Capacity,
    CapacityLike,
    NecessityCapacity,
    PossibilityCapacity,
)
from .convexity import (
    ConvexStructure,
    DualConvexStructure,
    Semimodule,
    UnionStructureMap,
)
from .biconvex import (
    BiconvexStructure,
    CapacityStructureMap,
    CubeStructure,
    EmbeddingSearchResult,
    TripleStructure,
    cube_structure,
)

_RESERVED = ("|", ",")


def _check_names(space: FiniteSpace) -> None:
    for x in space.elements:
        if any(ch in x for ch in _RESERVED):
            raise ValidationError(f"element name {x!r} clashes with key delimiters")


def dumps_canonical(obj) -> str:
    """Stable bytes for reports: sorted keys, fixed indentation."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _header(space: FiniteSpace, chain: Chain, joins_names: bool = True) -> dict:
    """Chain and carrier fields; names are checked when keys will join them."""
    if joins_names:
        _check_names(space)
    return {"chain_k": chain.k, "elements": list(space.elements)}


def _object(obj, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _table(obj: Mapping, key: str) -> Mapping:
    """The JSON object stored under ``key``."""
    if key not in obj:
        raise ValidationError(f"structure JSON needs an object under {key!r}")
    return _object(obj[key], repr(key))


def _list(obj: Mapping, key: str) -> list:
    if key not in obj:
        raise ValidationError(f"JSON needs a list under {key!r}")
    value = obj[key]
    if not isinstance(value, list):
        raise ValidationError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return value


def _space_chain_from(obj: Mapping) -> tuple[FiniteSpace, Chain]:
    _object(obj, "structure JSON")
    if "chain_k" not in obj:
        raise ValidationError("structure JSON needs a 'chain_k' field")
    return FiniteSpace(_list(obj, "elements")), make_chain(obj["chain_k"])


def space_to_json(space: FiniteSpace) -> dict:
    return {"elements": list(space.elements)}


def space_from_json(obj: Mapping) -> FiniteSpace:
    return FiniteSpace(_list(_object(obj, "space JSON"), "elements"))


def subset_to_key(space: FiniteSpace, s: Subset) -> str:
    return ",".join(sorted(s, key=space.index.__getitem__))


def subset_from_key(space: FiniteSpace, key: str) -> Subset:
    if key == "":
        return frozenset()
    return space.subset(key.split(","))


def hyperspace_to_json(hs: InclusionHyperspace) -> dict:
    space = hs.carrier
    return {
        "elements": list(space.elements),
        "min_sets": [
            sorted(m, key=space.index.__getitem__)
            for m in sorted(hs.min_sets, key=space.subset_key)
        ],
    }


def hyperspace_from_json(obj: Mapping) -> InclusionHyperspace:
    space = space_from_json(obj)
    return InclusionHyperspace(space, [space.subset(m) for m in _list(obj, "min_sets")])


def capacity_to_json(c: CapacityLike) -> dict:
    base = _header(c.carrier, c.chain)
    if isinstance(c, (PossibilityCapacity, NecessityCapacity)):
        base[c._name] = {x: level_to_string(v) for x, v in c._weights.items()}
    else:
        values = {"": level_to_string(c.value(frozenset()))}
        for s in c.carrier.subsets():
            values[subset_to_key(c.carrier, s)] = level_to_string(c.value(s))
        base["values"] = values
    return base


def capacity_from_json(obj: Mapping) -> CapacityLike:
    space, chain = _space_chain_from(obj)
    for cls in (PossibilityCapacity, NecessityCapacity):
        if cls._name in obj:
            weights = _table(obj, cls._name).items()
            return cls(space, chain, {x: level_from_string(chain, v) for x, v in weights})
    if "values" in obj:
        table = {
            subset_from_key(space, key): level_from_string(chain, v)
            for key, v in _table(obj, "values").items()
        }
        return Capacity(space, chain, table)
    raise ValidationError("capacity JSON needs 'density', 'codensity', or 'values'")


def _ic_table_to_json(table) -> dict:
    return {
        f"{x}|{level_to_string(a)}|{y}": z for (x, a, y), z in sorted(
            table.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2])
        )
    }


def _ic_table_from_json(chain: Chain, obj: Mapping) -> dict:
    table = {}
    for key, z in obj.items():
        parts = key.split("|")
        if len(parts) != 3:
            raise ValidationError(f"bad combination key {key!r}")
        x, a, y = parts
        table[(x, level_from_string(chain, a), y)] = z
    return table


def convex_to_json(s: ConvexStructure) -> dict:
    out = _header(s.carrier, s.chain)
    out["ic"] = _ic_table_to_json(s.ic)
    return out


def convex_from_json(obj: Mapping) -> ConvexStructure:
    space, chain = _space_chain_from(obj)
    return ConvexStructure(space, chain, _ic_table_from_json(chain, _table(obj, "ic")))


def dual_convex_to_json(s: DualConvexStructure) -> dict:
    out = _header(s.carrier, s.chain)
    out["ci"] = _ic_table_to_json(s.ci)
    return out


def dual_convex_from_json(obj: Mapping) -> DualConvexStructure:
    space, chain = _space_chain_from(obj)
    return DualConvexStructure(space, chain, _ic_table_from_json(chain, _table(obj, "ci")))


def union_map_to_json(xi: UnionStructureMap) -> dict:
    out = _header(xi.carrier, xi.chain)
    out["xi"] = {
        ",".join(str(v) for v in key): val
        for key, val in sorted(xi.tabulate().items())
    }
    return out


def union_map_from_json(obj: Mapping) -> UnionStructureMap:
    space, chain = _space_chain_from(obj)
    table = {}
    for key, val in _table(obj, "xi").items():
        parts = key.split(",")
        if len(parts) != len(space):
            raise ValidationError(f"density key {key!r} has the wrong arity")
        table[tuple(level_from_string(chain, p).value for p in parts)] = val
    return UnionStructureMap.from_table(space, chain, table)


def semimodule_to_json(m: Semimodule) -> dict:
    out = _header(m.carrier, m.chain)
    out["add"] = {f"{x}|{y}": z for (x, y), z in sorted(m.add.items())}
    out["scale"] = {
        f"{level_to_string(a)}|{x}": z
        for (a, x), z in sorted(m.scale.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
    }
    out["zero"] = m.zero
    return out


def semimodule_from_json(obj: Mapping) -> Semimodule:
    space, chain = _space_chain_from(obj)
    add = {}
    for key, z in _table(obj, "add").items():
        x, y = key.split("|")
        add[(x, y)] = z
    scale = {}
    for key, z in _table(obj, "scale").items():
        a, x = key.split("|")
        scale[(level_from_string(chain, a), x)] = z
    return Semimodule(space, chain, add, scale, obj["zero"])


def _pair_table_to_json(table) -> dict:
    return {f"{x}|{y}": z for (x, y), z in sorted(table.items())}


def _pair_table_from_json(obj: Mapping) -> dict:
    table = {}
    for key, z in obj.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise ValidationError(f"bad pair key {key!r}")
        table[(parts[0], parts[1])] = z
    return table


def _action_table_to_json(table) -> dict:
    return {
        f"{level_to_string(a)}|{x}": z
        for (a, x), z in sorted(table.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
    }


def _action_table_from_json(chain: Chain, obj: Mapping) -> dict:
    table = {}
    for key, z in obj.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise ValidationError(f"bad action key {key!r}")
        table[(level_from_string(chain, parts[0]), parts[1])] = z
    return table


def biconvex_to_json(b: BiconvexStructure) -> dict:
    out = _header(b.carrier, b.chain)
    out["bjoin"] = _pair_table_to_json(b.bjoin)
    out["bmeet"] = _pair_table_to_json(b.bmeet)
    out["smeet"] = _action_table_to_json(b.smeet)
    out["sjoin"] = _action_table_to_json(b.sjoin)
    return out


def biconvex_from_json(obj: Mapping) -> BiconvexStructure:
    space, chain = _space_chain_from(obj)
    return BiconvexStructure(
        space,
        chain,
        _pair_table_from_json(_table(obj, "bjoin")),
        _pair_table_from_json(_table(obj, "bmeet")),
        _action_table_from_json(chain, _table(obj, "smeet")),
        _action_table_from_json(chain, _table(obj, "sjoin")),
    )


def triple_to_json(t: TripleStructure) -> dict:
    out = _header(t.carrier, t.chain)
    out["bjoin"] = _pair_table_to_json(t.bjoin)
    out["bmeet"] = _pair_table_to_json(t.bmeet)
    out["p"] = {level_to_string(a): x for a, x in sorted(t.p.items(), key=lambda kv: kv[0].value)}
    out["m"] = {level_to_string(a): x for a, x in sorted(t.m.items(), key=lambda kv: kv[0].value)}
    return out


def triple_from_json(obj: Mapping) -> TripleStructure:
    space, chain = _space_chain_from(obj)
    p = {level_from_string(chain, a): x for a, x in _table(obj, "p").items()}
    m = {level_from_string(chain, a): x for a, x in _table(obj, "m").items()}
    return TripleStructure(
        space,
        chain,
        _pair_table_from_json(_table(obj, "bjoin")),
        _pair_table_from_json(_table(obj, "bmeet")),
        p,
        m,
    )


def _phi_to_json(chain: Chain, phi: Mapping[Level, Level]) -> dict:
    return {
        level_to_string(a): level_to_string(phi[a]) for a in chain.levels
    }


def cube_to_json(cube: CubeStructure) -> dict:
    chain = cube.structure.chain
    return {
        "chain_k": chain.k,
        "A": len(cube.phis),
        "phi": [_phi_to_json(chain, phi) for phi in cube.phis],
    }


def cube_from_json(obj: Mapping) -> CubeStructure:
    _object(obj, "cube JSON")
    if "chain_k" not in obj:
        raise ValidationError("cube JSON needs a 'chain_k' field")
    chain = make_chain(obj["chain_k"])
    phis = []
    for raw in _list(obj, "phi"):
        phis.append({
            level_from_string(chain, a): level_from_string(chain, v)
            for a, v in _object(raw, "a phi entry").items()
        })
    if "A" in obj and obj["A"] != len(phis):
        raise ValidationError("cube arity does not match the phi list")
    return cube_structure(chain, phis)


def full_map_to_json(
    xi: CapacityStructureMap | BiconvexStructure, table: Mapping[tuple, str]
) -> dict:
    """Tabulated full structure map of xi, or of the structure behind it;
    keys are capacity value vectors."""
    out = _header(xi.carrier, xi.chain, joins_names=False)
    out["xi_full"] = {
        ",".join(str(v) for v in key): val for key, val in sorted(table.items())
    }
    return out


def full_map_from_json(obj: Mapping) -> CapacityStructureMap:
    space, chain = _space_chain_from(obj)
    table = {}
    for key, val in _table(obj, "xi_full").items():
        table[tuple(Fraction(p) for p in key.split(","))] = val
    return CapacityStructureMap.from_table(space, chain, table)


def embedding_result_to_json(res: EmbeddingSearchResult) -> dict:
    out = {
        "found": res.found,
        "max_arity": res.max_arity,
        "coordinate_candidates": res.candidates,
    }
    if res.found:
        out["arity"] = res.arity
        out["assignment"] = {
            x: [level_to_string(v) for v in vec]
            for x, vec in sorted(res.assignment.items())
        }
        out["phi"] = [
            {
                level_to_string(a): level_to_string(phi[a])
                for a in sorted(phi, key=lambda lv: lv.value)
            }
            for phi in res.phis
        ]
    return out


def structure_from_json(obj: Mapping):
    """Dispatch on the table keys present; used by the CLI loaders."""
    _object(obj, "structure JSON")
    if "ic" in obj:
        return convex_from_json(obj)
    if "ci" in obj:
        return dual_convex_from_json(obj)
    if "p" in obj and "m" in obj:
        return triple_from_json(obj)
    if "bjoin" in obj and "smeet" in obj:
        return biconvex_from_json(obj)
    if "phi" in obj:
        return cube_from_json(obj)
    if "add" in obj and "scale" in obj:
        return semimodule_from_json(obj)
    if "xi" in obj:
        return union_map_from_json(obj)
    if "xi_full" in obj:
        return full_map_from_json(obj)
    raise ValidationError("unrecognized structure JSON: no known table keys")
