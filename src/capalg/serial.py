"""JSON forms for carriers, capacities, structures and the reports that carry them.

All level values are strings holding exact fractions ("0", "1/2", "1"),
never floats; the chain is declared by an integer "chain_k" field and
the carrier by an "elements" list.  Capacity documents are written, never
read; their set-valued keys join element names with commas (empty string
for the empty set).  Value-vector keys (rank tuples in the program) join
the texts of their levels with commas, and
operation-table keys join arguments with pipes, following the key shape
each table structure declares in ``_tables``; densities, codensities and
phi maps use the same table codec.  Element cells are kept as given, never
coerced, and levels are parsed only from their strings.  Serialization is
canonical: ``dumps_canonical`` sorts keys, and element order is fixed, so
equal structures produce equal bytes.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Mapping

from .chain import Chain, level_from_string, make_chain
from .errors import ValidationError
from .spaces import FiniteSpace, TableStructure, _cell
from .capacity import (
    DEFAULT_ENUMERATION_BUDGET,
    CapacityLike,
    NecessityCapacity,
    PossibilityCapacity,
    _POINTWISE,
    _check_cube_size,
    _ranks,
    capacity_pool,
    check_enumeration_budget,
)
from .convexity import (
    ConvexStructure,
    DualConvexStructure,
    Semimodule,
    UnionStructureMap,
    density_key,
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
        if not x:
            # the set key of {""} would be "", the empty set's key
            raise ValidationError("the empty element name clashes with the empty-set key")
        if any(ch in x for ch in _RESERVED):
            raise ValidationError(f"element name {x!r} clashes with key delimiters")


# a container of only these types is written whole; any other type is written item by item
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Rendered(str):
    """Text ``_canonical_chunks`` wrote for a document at depth 0."""

    __slots__ = ()


def _canonical_chunks(obj, depth: int, encoders: dict):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)`` at nesting
    ``depth``, in pieces.  A scalar, or a container of scalars, is one
    piece from the C encoder (the pure-Python one runs whenever ``indent``
    is set), whose item separator carries the indentation of the depth;
    any other container gives one piece per item, and ``_Rendered`` text
    is one piece, re-indented to the depth.  ``encoders`` keeps the
    encoder of each depth."""
    if type(obj) is _Rendered:
        # JSON text holds no raw newline but the ones that indent it
        yield obj.replace("\n", "\n" + "  " * depth)
        return
    enc = encoders.get(depth) or encoders.setdefault(depth, json.JSONEncoder(
        sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")))
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    if _SCALARS.issuperset(map(type, values)):
        text = enc.encode(obj)
        if values:
            text = f"{text[0]}\n{'  ' * (depth + 1)}{text[1:-1]}\n{'  ' * depth}{text[-1]}"
        yield text
        return
    sep = ("{" if is_dict else "[") + "\n" + "  " * (depth + 1)
    for item in sorted(obj.items()) if is_dict else obj:
        if is_dict:
            key, item = item
            # keys as json writes them: non-strings through their JSON text
            sep += enc.encode(key if isinstance(key, str) else enc.encode(key)) + ": "
        pieces = _canonical_chunks(item, depth + 1, encoders)
        yield sep + next(pieces)
        yield from pieces
        sep = ",\n" + "  " * (depth + 1)
    yield "\n" + "  " * depth + ("}" if is_dict else "]")


def dumps_canonical(obj) -> str:
    """Stable bytes for reports: ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``."""
    return "".join(_canonical_chunks(obj, 0, {})) + "\n"


def dump_canonical(obj, fh) -> None:
    """Write ``dumps_canonical(obj)`` to the text file fh chunk by chunk,
    never holding the whole text."""
    for piece in _canonical_chunks(obj, 0, {}):
        fh.write(piece)
    fh.write("\n")


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


def _field(obj: Mapping, key: str):
    if key not in obj:
        raise ValidationError(f"structure JSON needs a {key!r} field")
    return obj[key]


def _list(obj: Mapping, key: str) -> list:
    if key not in obj:
        raise ValidationError(f"JSON needs a list under {key!r}")
    value = obj[key]
    if not isinstance(value, list):
        raise ValidationError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return value


def _space_chain_from(obj: Mapping, refuse) -> tuple[FiniteSpace, Chain]:
    """The carrier and the chain.  ``refuse(space, k)`` raises for a
    resolution the document cannot use, before the k + 1 levels of the
    chain are built."""
    _object(obj, "structure JSON")
    k = _field(obj, "chain_k")
    space = FiniteSpace(_list(obj, "elements"))
    if type(k) is int and k >= 1:
        refuse(space, k)
    return space, make_chain(k)


def _read_by_pool(space: FiniteSpace, k: int) -> None:
    """A map keyed by capacities is only read through the capacity pool,
    which the enumeration budget bounds."""
    check_enumeration_budget(space, k, DEFAULT_ENUMERATION_BUDGET)


def space_to_json(space: FiniteSpace) -> dict:
    return {"elements": list(space.elements)}


def space_from_json(obj: Mapping) -> FiniteSpace:
    return FiniteSpace(_list(_object(obj, "space JSON"), "elements"))


def _cell_to_json(kind: str, v):
    return str(v) if kind == "a" else v


def _cell_from_json(chain: Chain, kind: str, v):
    return level_from_string(chain, v) if kind == "a" else v


def _table_to_json(table: Mapping, shape: str, value: str = "x") -> dict:
    """A table whose keys have ``shape`` (``x`` an element, ``a`` a level,
    one letter per argument) and whose cells are of kind ``value``."""
    return {
        "|".join(map(_cell_to_json, shape, key if len(shape) > 1 else (key,))):
            _cell_to_json(value, v)
        for key, v in table.items()
    }


def _table_from_json(chain: Chain, obj: Mapping, name: str, shape: str, value: str = "x") -> dict:
    """The inverse of ``_table_to_json``; ``name`` labels its errors."""
    table = {}
    for text, v in obj.items():
        parts = text.split("|")
        if len(parts) != len(shape):
            raise ValidationError(f"bad {name} key {text!r}")
        key = tuple(_cell_from_json(chain, kind, p) for kind, p in zip(shape, parts))
        key = key if len(shape) > 1 else key[0]
        if key in table:
            raise ValidationError(f"{name} key {text!r} names a cell already given")
        table[key] = _cell_from_json(chain, value, v)
    return table


def _vectors_to_json(chain: Chain, table: Mapping[tuple, str]) -> dict:
    """A table keyed by rank vectors, each written as the texts of its
    levels joined by commas."""
    texts = [str(v) for v in chain.levels]
    return {",".join([texts[r] for r in key]): v for key, v in table.items()}


def _vectors_from_json(chain: Chain, obj: Mapping, name: str, arity: int) -> dict:
    """The table of densities under ``name``, keyed by their weight ranks;
    a key that is not a density (no weight is 1) is refused."""
    table = {}
    for text, v in _table(obj, name).items():
        parts = text.split(",")
        if len(parts) != arity:
            raise ValidationError(f"{name} key {text!r} has the wrong arity")
        key = tuple(level_from_string(chain, p).i for p in parts)
        if chain.k not in key:
            raise ValidationError(f"{name} key {text!r} is not a density: no weight is 1")
        if key in table:
            raise ValidationError(f"{name} key {text!r} names a cell already given")
        table[key] = v
    return table


def structure_to_json(s: TableStructure) -> dict:
    """Any table structure, one JSON table per entry of its ``_tables``."""
    out = _header(s.carrier, s.chain)
    for name, shape in s._tables.items():
        out[name] = _table_to_json(getattr(s, name), shape) if shape else getattr(s, name)
    return out


# the names the benchmark's oracle tests import
convex_to_json = biconvex_to_json = structure_to_json


def _structure_from_json(cls: type[TableStructure], obj: Mapping):
    def refuse(space, k):
        # every form has a table keyed by levels, so a cell per level; the
        # tables are looked up as below, with the same errors
        cells = sum(len(_table(obj, name)) for name, shape in cls._tables.items() if shape)
        if k >= cells:
            raise ValidationError(
                f"chain_k {k} has {k + 1} levels, more than the {cells} table cells "
                f"of the document"
            )

    space, chain = _space_chain_from(obj, refuse)
    tables = [
        _table_from_json(chain, _table(obj, name), name, shape) if shape else _field(obj, name)
        for name, shape in cls._tables.items()
    ]
    s = cls(space, chain, *tables)
    # s keeps exactly the declared cells, and the document gives each once
    for (name, shape), table in zip(cls._tables.items(), tables):
        if shape and len(table) > len(getattr(s, name)):
            key = next(key for key in table if key not in getattr(s, name))
            raise ValidationError(f"{name} key {_cell(key)!r} names an element outside the carrier")
    return s


def capacity_to_json(c: CapacityLike) -> dict:
    """A density, a codensity, or the value at every subset, read as ranks;
    set keys come from the carrier, and each level's text is made once per call."""
    base = _header(c.carrier, c.chain)
    if isinstance(c, (PossibilityCapacity, NecessityCapacity)):
        base[c._name] = _table_to_json(c._weights, "x", "a")
        return base
    texts = [str(v) for v in c.chain.levels]
    base["values"] = {key: texts[r] for key, r in zip(c.carrier.subset_keys().values(), _ranks(c))}
    return base


def capacity_renderer(space: FiniteSpace, chain: Chain, kind: str):
    """``capacity_to_json`` of each capacity ``enumerate_ranks`` yields for
    ``kind``, as ``_Rendered`` text made from its ranks.  The canonical
    writer renders, once per call, a probe: the header and a "|" at each
    value, which no name can hold (``_check_names``).  Each capacity fills
    those cells, in sorted-key order, with the JSON text of its levels."""
    cls = _POINTWISE.get(kind)
    name, keys = (cls._name, list(space.elements)) if cls else ("values", list(space.subset_keys().values()))
    probe = _header(space, chain)
    probe[name] = dict.fromkeys(keys, "|")
    parts = "".join(_canonical_chunks(probe, 0, {})).split('"|"')
    template = "%s".join(part.replace("%", "%%") for part in parts)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    cells = [json.dumps(str(v)) for v in chain.levels]
    return lambda ranks: _Rendered(template % tuple([cells[ranks[i]] for i in order]))


def union_map_to_json(xi: UnionStructureMap) -> dict:
    out = _header(xi.carrier, xi.chain)
    out["xi"] = _vectors_to_json(xi.chain, xi.tabulate())
    return out


def union_map_from_json(obj: Mapping) -> UnionStructureMap:
    """The union map of an ``xi`` document, which gives one value per density."""
    space, chain = _space_chain_from(obj, _read_by_pool)
    table = _vectors_from_json(chain, obj, "xi", len(space))
    for p in capacity_pool(space, chain, "union").members.values():
        if density_key(p) not in table:
            weights = ",".join(map(str, p.density.values()))
            raise ValidationError(f"xi has no entry for the density {weights}")
    return UnionStructureMap.from_table(space, chain, table)


def cube_to_json(cube: CubeStructure) -> dict:
    return {
        "chain_k": cube.structure.chain.k,
        "A": len(cube.phis),
        "phi": [_table_to_json(phi, "a", "a") for phi in cube.phis],
    }


def cube_from_json(obj: Mapping) -> CubeStructure:
    _object(obj, "cube JSON")
    k = _field(obj, "chain_k")
    raws = _list(obj, "phi")
    if type(k) is int and k >= 1:
        _check_cube_size(k, len(raws))
    chain = make_chain(k)
    phis = [
        _table_from_json(chain, _object(raw, "a phi entry"), "phi", "a", "a")
        for raw in raws
    ]
    if "A" in obj and obj["A"] != len(phis):
        raise ValidationError("cube arity does not match the phi list")
    return cube_structure(chain, phis)


def full_map_to_json(
    xi: CapacityStructureMap | BiconvexStructure, table: Mapping[tuple, str]
) -> dict:
    """Tabulated full structure map of xi, or of the structure behind it,
    keyed by ``canonical_key``; keys are written as capacity value vectors."""
    out = _header(xi.carrier, xi.chain, joins_names=False)
    out["xi_full"] = _vectors_to_json(xi.chain, table)
    return out


def embedding_result_to_json(res: EmbeddingSearchResult) -> dict:
    out = {
        "found": res.found,
        "max_arity": res.max_arity,
        "coordinate_candidates": res.candidates,
    }
    if res.found:
        out["arity"] = res.arity
        out["assignment"] = {
            x: [str(v) for v in vec] for x, vec in res.assignment.items()
        }
        out["phi"] = [_table_to_json(phi, "a", "a") for phi in res.phis]
    return out


# each structure form by the table keys that mark it
_STRUCTURE_FORMS = {
    "ic": partial(_structure_from_json, ConvexStructure),
    "ci": partial(_structure_from_json, DualConvexStructure),
    "p/m": partial(_structure_from_json, TripleStructure),
    "smeet/sjoin": partial(_structure_from_json, BiconvexStructure),
    "phi": cube_from_json,
    "add/scale": partial(_structure_from_json, Semimodule),
    "xi": union_map_from_json,
}


def structure_from_json(obj: Mapping):
    """The one reader of every structure document: dispatch on the one form
    whose table keys are present; a key "x/y" marks its form by either half."""
    _object(obj, "structure JSON")
    found = [m for m in _STRUCTURE_FORMS if any(key in obj for key in m.split("/"))]
    if len(found) > 1:
        raise ValidationError(f"structure JSON mixes the forms {', '.join(found)}")
    if not found:
        raise ValidationError("unrecognized structure JSON: no known table keys")
    return _STRUCTURE_FORMS[found[0]](obj)
