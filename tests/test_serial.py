"""JSON round-trips and canonical bytes for every serialized form."""

import hashlib
import json
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg import serial
from capalg.chain import Chain
from capalg.errors import ValidationError
from capalg.spaces import FiniteSpace
from capalg.capacity import (
    Capacity,
    NecessityCapacity,
    PossibilityCapacity,
    as_capacity,
    enumerate_capacities,
    random_capacity,
    unit_dirac,
)
from capalg.convexity import (
    ConvexStructure,
    DualConvexStructure,
    UnionStructureMap,
    enumerate_convex_structures,
    quotient_semimodule,
)
from capalg.biconvex import (
    CapacityStructureMap,
    chain_model,
    cube_structure,
    diamond_structure,
    embedding_search,
    enumerate_biconvex_structures,
    triple_from_biconvex,
)
from capalg.serial import (
    capacity_to_json,
    cube_from_json,
    cube_to_json,
    dump_canonical,
    dumps_canonical,
    embedding_result_to_json,
    full_map_to_json,
    space_from_json,
    space_to_json,
    structure_from_json,
    structure_to_json,
    union_map_from_json,
    union_map_to_json,
)

K1 = Chain(1)
K2 = Chain(2)
X2 = FiniteSpace(["a", "b"])
X3 = FiniteSpace(["a", "b", "c"])


def test_space_and_subset_round_trip():
    assert space_from_json(space_to_json(X3)) == X3
    with pytest.raises(ValidationError):
        space_from_json({})


def test_capacity_writer_matches_a_written_out_oracle():
    """Each subset's key is its names joined in carrier order and its value
    the capacity's level there; a density or codensity writes exactly its
    weights."""
    for c in enumerate_capacities(X3, K2):
        assert capacity_to_json(c) == {"chain_k": 2, "elements": ["a", "b", "c"], "values": {
            ",".join(x for x in X3.elements if x in s): str(c.value(s))
            for s in X3.subsets(include_empty=True)
        }}
    p = PossibilityCapacity(X3, K2, {"a": 1, "b": "1/2"})
    n = NecessityCapacity(X3, K2, {"c": 0})
    for c, weights in ((p, {"a": "1", "b": "1/2", "c": "0"}), (n, {"a": "1", "b": "1", "c": "0"})):
        assert capacity_to_json(c) == {"chain_k": 2, "elements": ["a", "b", "c"], c._name: weights}


def test_structure_loader_rejects_a_document_of_two_forms():
    """A quadruple with an added combination table would load as the
    convex structure and ignore the quadruple."""
    obj = dict(structure_to_json(chain_model(K2)))
    obj["ic"] = structure_to_json(ConvexStructure(*_chain_tables(max, min)))["ic"]
    with pytest.raises(ValidationError, match="mixes the forms ic, smeet/sjoin"):
        structure_from_json(obj)


def test_convex_structure_round_trip():
    for s in enumerate_convex_structures(X2, K2):
        assert structure_from_json(structure_to_json(s)) == s


def test_dual_and_triple_and_biconvex_round_trips():
    for b in list(enumerate_biconvex_structures(X3, K2)) + [
        chain_model(K2), diamond_structure(K2)
    ]:
        assert structure_from_json(structure_to_json(b)) == b
        t = triple_from_biconvex(b)
        t2 = structure_from_json(structure_to_json(t))
        assert t2.p == t.p and t2.m == t.m and t2.bjoin == t.bjoin
    from capalg.convexity import DualConvexStructure
    s = next(iter(enumerate_convex_structures(X2, K2)))
    d = DualConvexStructure(
        X2, K2, {(x, a, y): s.ic[(x, a, y)] for (x, a, y) in s.ic}
    )
    assert structure_from_json(structure_to_json(d)) == d


def test_union_map_round_trip():
    for s in enumerate_convex_structures(X2, K2):
        xi = UnionStructureMap.from_convex(s)
        back = union_map_from_json(union_map_to_json(xi))
        assert back.tabulate() == xi.tabulate()
    with pytest.raises(ValidationError):
        union_map_from_json(
            {"elements": ["a", "b"], "chain_k": 2, "xi": {"1": "a"}}
        )


def test_semimodule_round_trip():
    s = next(iter(enumerate_convex_structures(X2, K2)))
    mod = quotient_semimodule(s).semimodule
    back = structure_from_json(structure_to_json(mod))
    assert back.add == mod.add and back.scale == mod.scale and back.zero == mod.zero


def test_cube_round_trip():
    phi = {K2.zero: K2.zero, K2.level("1/2"): K2.one, K2.one: K2.one}
    cube = cube_structure(K2, [phi, {a: a for a in K2.levels}])
    back = cube_from_json(cube_to_json(cube))
    assert back.structure == cube.structure
    assert back.phis == cube.phis
    with pytest.raises(ValidationError):
        cube_from_json({"chain_k": 2, "A": 3, "phi": [ {"0": "0", "1/2": "0", "1": "1"} ]})


def test_embedding_result_serializes_both_outcomes():
    hit = embedding_result_to_json(embedding_search(chain_model(K2), max_arity=1))
    assert hit["found"] and hit["arity"] == 1 and "assignment" in hit
    miss = embedding_result_to_json(embedding_search(diamond_structure(K2), max_arity=1))
    assert not miss["found"] and "assignment" not in miss
    assert miss["max_arity"] == 1


def test_dispatch_rejects_unknown_payloads():
    with pytest.raises(ValidationError):
        structure_from_json({"kind": "mystery"})


def test_reserved_delimiters_in_names_are_rejected():
    bad = FiniteSpace(["a|b", "c"])
    c = random_capacity(bad, K2, random.Random(0))
    with pytest.raises(ValidationError):
        capacity_to_json(c)
    comma = FiniteSpace(["a,b", "c"])
    with pytest.raises(ValidationError):
        capacity_to_json(random_capacity(comma, K2, random.Random(0)))


def test_the_empty_element_name_is_rejected():
    """The set key of {""} would be "", which is the empty set's key: the
    Dirac capacity at "" would write {"": "1", "b": "0", ",b": "1"}."""
    c = as_capacity(unit_dirac(FiniteSpace(["", "b"]), K1, ""))
    with pytest.raises(ValidationError, match="empty element name"):
        capacity_to_json(c)


def test_canonical_dumps_are_stable_bytes():
    for b in enumerate_biconvex_structures(X3, K2):
        one = dumps_canonical(structure_to_json(b))
        two = dumps_canonical(structure_to_json(structure_from_json(json.loads(one))))
        assert one == two
    # same content through a parse cycle stays byte-identical
    s = next(iter(enumerate_convex_structures(X2, K2)))
    blob = dumps_canonical(structure_to_json(s))
    again = dumps_canonical(structure_to_json(structure_from_json(json.loads(blob))))
    assert blob == again
    assert blob.endswith("\n")


def test_levels_serialize_as_exact_fraction_strings():
    p = PossibilityCapacity(X2, K2, {"a": 1, "b": "1/2"})
    blob = capacity_to_json(p)
    assert blob["density"] == {"a": "1", "b": "1/2"}
    assert json.dumps(blob)  # plain JSON, no custom types


def _chain_tables(outer, inner):
    """The k=2 chain model's combination table t(x, a, y) = outer(x, inner(a, y))."""
    carrier = FiniteSpace([str(lv.value) for lv in K2.levels])
    return carrier, K2, {
        (x, a, y): str(outer(Fraction(x), inner(a.value, Fraction(y))))
        for x in carrier.elements for a in K2.levels for y in carrier.elements
    }


def _full_map_document():
    xi = CapacityStructureMap.from_biconvex(chain_model(K1))
    return full_map_to_json(xi, xi.tabulate())


def _golden_documents():
    convex = ConvexStructure(*_chain_tables(max, min))
    step = {K2.zero: K2.zero, K2.level("1/2"): K2.one, K2.one: K2.one}
    return {
        "space": space_to_json(X3),
        "possibility": capacity_to_json(PossibilityCapacity(X3, K2, {"a": 1, "b": "1/2"})),
        "necessity": capacity_to_json(NecessityCapacity(X3, K2, {"c": 0, "a": "1/2"})),
        "table": capacity_to_json(Capacity(X2, K2, {
            frozenset(): 0, frozenset("a"): "1/2", frozenset("b"): 0, X2.universe: 1,
        })),
        "convex": structure_to_json(convex),
        "dual": structure_to_json(DualConvexStructure(*_chain_tables(min, max))),
        "union-map": union_map_to_json(UnionStructureMap.from_convex(convex)),
        "semimodule": structure_to_json(quotient_semimodule(convex).semimodule),
        "quadruple": structure_to_json(chain_model(K2)),
        "triple": structure_to_json(triple_from_biconvex(chain_model(K2))),
        "cube": cube_to_json(cube_structure(K2, [step, {a: a for a in K2.levels}])),
        "full-map": _full_map_document(),
        "embedding-hit": embedding_result_to_json(embedding_search(chain_model(K2), max_arity=1)),
        "embedding-miss": embedding_result_to_json(
            embedding_search(diamond_structure(K2), max_arity=1)
        ),
    }


# sha256 of dumps_canonical of each document above
GOLDEN_DOCUMENTS = {
    "space": "ee046004ac19b972545df1c861344253a557e379204e1f34344d29ceb1f896ce",
    "possibility": "f118df811f4ea1af4d10403fe1a804c423a65458b6b447cc1819af6543ebd156",
    "necessity": "acc816714b662f0945a21b43c70d3f8380c6a317c4913f75ece336d9a475f2a4",
    "table": "a0e44f758acbe6b0ed04d17574ab25035fd55e4ca2cccdcefa8b5df0c74ac2c8",
    "convex": "915f42dd40ac46c2012fea1093025c9b56b2465a6c267ede6c326277c608c44d",
    "dual": "8cd33efab9a3d86d8651c1f4bbb7004adae44f2e6a70ca5f31e80944d84519d8",
    "union-map": "4bd8388035f4fcda841f99408873935c400929424b4f120a57f5f0845fbf4e19",
    "semimodule": "de85ab2e53a40b21812839c99adbad6dccd3a0f502b7094a3e91a27b6d25f3f8",
    "quadruple": "e2097e5e7f8ff60566e18b9c686cbe8c2098a602ea5797887c3f524bd195db8f",
    "triple": "4970fb519ff7b2e546075506e412c939e2ef74a3eb29102fcf99c22fbb5767e4",
    "cube": "d2a3eac7151ea45e93da9f34dfc40905d071297648d1c3410e2bb14f5508c26f",
    "full-map": "8e84cd5781e741260730a95deebb9359646920439234d8d4bee51a2827f68ade",
    "embedding-hit": "2ce93ed72b14767776eb75cebbf4141b4e5b1fd6ad175f8038ecc5cb3a3cb89c",
    "embedding-miss": "cd6ad0f55972ba4cb2496cb769e3adfac639f15752754df8013599e3f4f59657",
}


def test_serialized_documents_match_their_golden_digests():
    digests = {
        name: hashlib.sha256(dumps_canonical(doc).encode("utf-8")).hexdigest()
        for name, doc in _golden_documents().items()
    }
    assert digests == GOLDEN_DOCUMENTS


def test_streamed_documents_have_the_canonical_bytes(tmp_path):
    path = tmp_path / "doc.json"
    for name, doc in _golden_documents().items():
        with open(path, "w", encoding="utf-8") as fh:
            dump_canonical(doc, fh)
        assert path.read_text(encoding="utf-8") == dumps_canonical(doc), name


# report-shaped values: nested and empty objects and lists over scalars,
# with non-ASCII, escaped and delimiter characters in strings and keys
_TEXTS = strat.text() | strat.text(alphabet=',:{}[]"\\\n\té ', max_size=6)
_REPORT_VALUES = strat.recursive(
    strat.none() | strat.booleans() | strat.integers() | strat.floats() | _TEXTS,
    lambda inner: strat.lists(inner, max_size=4) | strat.dictionaries(_TEXTS, inner, max_size=4),
    max_leaves=40,
)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(_REPORT_VALUES)
def test_canonical_writer_gives_the_bytes_of_json_dumps(obj):
    assert dumps_canonical(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@hypothesis.settings(deadline=None, max_examples=200)
@hypothesis.given(_REPORT_VALUES, strat.integers(min_value=0, max_value=3), _TEXTS)
def test_rendered_text_is_written_again_at_its_depth(obj, depth, key):
    # text the writer rendered at depth 0, placed at depth 0-3, gives the
    # bytes json.dumps gives for the document in its place
    outer = serial._Rendered("".join(serial._canonical_chunks(obj, 0, {})))
    doc = obj
    for i in range(depth):
        outer, doc = ({key: outer}, {key: doc}) if i % 2 else ([None, outer], [None, doc])
    assert dumps_canonical(outer) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _Writes:
    """A text file that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_canonical_writer_streams_a_long_list_item_by_item():
    items = [
        {"i": i, "elements": ["a", "b"], "values": {"": "0", "a": "1/2", "a,b": "1", "b": "0"}}
        for i in range(1000)
    ]
    fh = _Writes()
    dump_canonical(items, fh)
    assert "".join(fh.writes) == dumps_canonical(items)
    assert len(fh.writes) > 1000
    assert max(text.count('"i": ') for text in fh.writes) <= 1


@pytest.mark.parametrize("key, match", [
    ("1", "wrong arity"),             # one value where 2 points need a density of 2
    ("1/3,1", "1/3"),                 # an off-chain level at k=2
])
def test_union_map_loader_rejects_malformed_keys(key, match):
    obj = {"elements": ["a", "b"], "chain_k": 2, "xi": {key: "a"}}
    with pytest.raises(ValidationError, match=match):
        union_map_from_json(obj)


def test_union_map_loader_rejects_values_off_the_carrier():
    s = next(iter(enumerate_convex_structures(X2, K2)))
    obj = union_map_to_json(UnionStructureMap.from_convex(s))
    obj["xi"][next(iter(obj["xi"]))] = "zz"
    with pytest.raises(ValidationError, match="'zz'"):
        union_map_from_json(obj)


def test_semimodule_loader_names_the_broken_field():
    s = next(iter(enumerate_convex_structures(X2, K2)))
    good = structure_to_json(quotient_semimodule(s).semimodule)
    no_zero = dict(good)
    del no_zero["zero"]
    with pytest.raises(ValidationError, match="'zero'"):
        structure_from_json(no_zero)
    short_key = dict(good, add={"a": good["add"][next(iter(good["add"]))]})
    with pytest.raises(ValidationError, match="add key 'a'"):
        structure_from_json(short_key)
    no_scale = dict(good)
    del no_scale["scale"]
    with pytest.raises(ValidationError, match="needs an object under 'scale'"):
        structure_from_json(no_scale)
