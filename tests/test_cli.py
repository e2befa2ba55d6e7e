"""Exit codes, report determinism, and subcommand behavior of the capalg CLI."""

import contextlib
import hashlib
import io
import itertools
import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import hypothesis
import hypothesis.strategies as strat
import pytest

from capalg import cli, serial
from capalg.capacity import classify, enumerate_capacities
from capalg.chain import Chain
from capalg.cli import main
from capalg.convexity import ConvexStructure, UnionStructureMap, enumerate_convex_structures
from capalg.biconvex import (
    CapacityStructureMap,
    chain_model,
    cube_structure,
    diamond_structure,
    triple_from_biconvex,
)
from capalg.serial import (
    capacity_to_json,
    cube_to_json,
    dumps_canonical,
    full_map_to_json,
    structure_to_json,
    union_map_to_json,
)
from capalg.spaces import FiniteSpace

K1 = Chain(1)
K2 = Chain(2)


def chain_model_convex(chain):
    carrier = FiniteSpace([str(lv.value) for lv in chain.levels])
    table = {}
    for x in carrier.elements:
        for a in chain.levels:
            for y in carrier.elements:
                table[(x, a, y)] = str(max(Fraction(x), min(a.value, Fraction(y))))
    return ConvexStructure(carrier, chain, table)


@pytest.fixture
def convex_file(tmp_path):
    path = tmp_path / "convex.json"
    path.write_text(dumps_canonical(structure_to_json(chain_model_convex(K2))))
    return str(path)


@pytest.fixture
def biconvex_file(tmp_path):
    path = tmp_path / "biconvex.json"
    path.write_text(dumps_canonical(structure_to_json(chain_model(K2))))
    return str(path)


def test_monad_laws_passes_with_the_documented_case_count(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["monad-laws", "--chain", "2", "--samples", "50", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    suites = {s["name"]: s for s in report["suites"]}
    # 9 capacities on two points, outer and inner unit law each
    assert suites["capacity-monad"]["counts"]["unit-law-cases"] == 18
    assert "s" in capsys.readouterr().out  # human summary carries the timing


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["monad-laws", "--chain", "1", "--samples", "25", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    blob_a = a.read_text().replace(str(a), "OUT")
    blob_b = b.read_text().replace(str(b), "OUT")
    assert blob_a == blob_b
    assert "elapsed" not in blob_a and "seconds" not in blob_a


def test_roundtrip_passes_on_the_chain_model(convex_file, tmp_path):
    out = tmp_path / "rt.json"
    code = main(["roundtrip", "--structure", convex_file, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_roundtrip_handles_triples_too(tmp_path):
    t = triple_from_biconvex(chain_model(K2))
    path = tmp_path / "triple.json"
    path.write_text(dumps_canonical(structure_to_json(t)))
    assert main(["roundtrip", "--structure", str(path)]) == 0


def test_law_violation_exits_one_with_witnesses(convex_file, tmp_path, capsys):
    obj = json.loads(Path(convex_file).read_text())
    obj["ic"]["0|1/2|0"] = "1"  # break the self-combination axiom
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "report.json"
    code = main(["algebra-laws", "--structure", str(bad), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    assert report["counts"]["failed"] > 0
    assert any(w["law"].startswith("axiom") for w in report["witnesses"])
    assert "FAIL" in capsys.readouterr().out


def test_malformed_input_exits_two(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"elements": ["a"], ')
    assert main(["roundtrip", "--structure", str(garbled)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"kind": "mystery"}')
    assert main(["roundtrip", "--structure", str(unknown)]) == 2
    assert main(["roundtrip", "--structure", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_string_elements_are_rejected_not_split(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text('{"elements": "ab"}')
    assert main(["monad-laws", "--space", str(space), "--samples", "5"]) == 2
    assert "elements" in capsys.readouterr().err


def test_exhaustive_monad_laws_refuse_three_points(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text('{"elements": ["a", "b", "c"]}')
    out = tmp_path / "report.json"
    argv = ["monad-laws", "--space", str(space), "--mode", "exhaustive", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exhaustive hyperspace sweeps need at most 2 points")
    assert "Traceback" not in err
    assert not out.exists()


def test_monad_laws_on_five_points_are_refused_by_the_hyperspace_budget(tmp_path, capsys):
    # five points at k=1 pass the capacity budget, so the refusal comes
    # from the hyperspace enumeration
    space = tmp_path / "space.json"
    space.write_text('{"elements": ["a", "b", "c", "d", "e"]}')
    argv = ["monad-laws", "--space", str(space), "--chain", "1", "--mode", "random"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: hyperspace enumeration is limited to carriers of size <= 4\n"


def test_an_oversized_chain_is_refused_before_it_is_built(monkeypatch, capsys):
    def never(k):
        raise AssertionError(f"make_chain({k}) was called")

    monkeypatch.setattr(cli, "make_chain", never)
    for command in ("monad-laws", "enumerate"):
        assert main([command, "--chain", "200000"]) == 2, command
        assert "exceeds budget" in capsys.readouterr().err


def test_non_object_table_exits_two(tmp_path, capsys):
    path = tmp_path / "convex.json"
    path.write_text('{"chain_k": 2, "elements": ["a", "b"], "ic": []}')
    assert main(["algebra-laws", "--structure", str(path)]) == 2
    assert "'ic'" in capsys.readouterr().err


def test_bad_flag_values_exit_two():
    assert main(["monad-laws", "--chain", "0"]) == 2
    assert main(["monad-laws", "--samples", "0"]) == 2
    with pytest.raises(SystemExit) as info:
        main(["monad-laws", "--mode", "sideways"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


# the flags each command reads, besides --out and --help
READ_FLAGS = {
    "monad-laws": {"--space", "--chain", "--mode", "--samples", "--seed"},
    "algebra-laws": {"--structure", "--samples", "--seed"},
    "roundtrip": {"--structure"},
    "biconvex-laws": {"--structure"},
    "full-xi": {"--structure"},
    "embed-search": {"--structure", "--max-a"},
    "enumerate": {"--space", "--chain", "--capacity-class"},
}
ALL_FLAGS = set().union(*READ_FLAGS.values())
FLAG_VALUES = {
    "--space": "space.json", "--structure": "in.json", "--chain": "1",
    "--mode": "random", "--samples": "5", "--seed": "1", "--max-a": "1",
    "--capacity-class": "union",
}


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_every_command_rejects_the_flags_it_does_not_read(command, capsys):
    for flag in sorted(ALL_FLAGS - READ_FLAGS[command]):
        with pytest.raises(SystemExit) as info:
            main([command, flag, FLAG_VALUES[flag]])
        assert info.value.code == 2, (command, flag)
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_help_lists_exactly_the_flags_a_command_reads(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == READ_FLAGS[command] | {"--out", "--help"}


def five_element_lattice_document(*strict):
    """N5 (strict=("a", "b")) or M3 (no pairs) with the trivial k=1 actions."""
    X = ["0", "a", "b", "c", "1"]
    le = {(x, y) for x in X for y in X if x == y or x == "0" or y == "1"} | set(strict)
    return {
        "chain_k": 1,
        "elements": X,
        "bjoin": {f"{x}|{y}": y if (x, y) in le else x if (y, x) in le else "1"
                  for x in X for y in X},
        "bmeet": {f"{x}|{y}": x if (x, y) in le else y if (y, x) in le else "0"
                  for x in X for y in X},
        "smeet": {f"{a}|{x}": x if a == "1" else "0" for a in "01" for x in X},
        "sjoin": {f"{a}|{x}": "1" if a == "1" else x for a in "01" for x in X},
    }


@pytest.mark.parametrize("strict", [[("a", "b")], []], ids=["N5", "M3"])
def test_biconvex_laws_reject_non_distributive_lattices(strict, tmp_path):
    path, out = tmp_path / "in.json", tmp_path / "report.json"
    path.write_text(json.dumps(five_element_lattice_document(*strict)))
    assert main(["biconvex-laws", "--structure", str(path), "--out", str(out)]) == 1
    witnesses = json.loads(out.read_text())["witnesses"]
    assert witnesses
    for w in witnesses:
        assert w["law"] == "lattice"
        assert w["witness"].startswith("lattice: distributivity fails at")


def test_biconvex_laws_and_embed_search(biconvex_file, tmp_path):
    assert main(["biconvex-laws", "--structure", biconvex_file]) == 0
    out = tmp_path / "embed.json"
    code = main([
        "embed-search", "--structure", biconvex_file, "--max-a", "1",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["embedding"]["found"] is True
    assert report["embedding"]["arity"] == 1


def test_embed_search_miss_is_not_a_failure(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(dumps_canonical(structure_to_json(diamond_structure(K2))))
    out = tmp_path / "embed.json"
    code = main(["embed-search", "--structure", str(path), "--max-a", "1", "--out", str(out)])
    assert code == 0  # exhausting the bound is data, not a law violation
    report = json.loads(out.read_text())
    assert report["embedding"]["found"] is False


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_embed_search_needs_a_positive_bound(biconvex_file, bound, capsys):
    assert main(["embed-search", "--structure", biconvex_file, "--max-a", bound]) == 2
    assert "--max-a must be a positive integer" in capsys.readouterr().err


def test_embed_search_embeds_the_k3_identity_square(tmp_path):
    k3 = Chain(3)
    identity = {a: a for a in k3.levels}
    path = tmp_path / "cube.json"
    path.write_text(dumps_canonical(cube_to_json(cube_structure(k3, [identity, identity]))))
    out = tmp_path / "embed.json"
    code = main(["embed-search", "--structure", str(path), "--max-a", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    counts = report["suites"][0]["counts"]
    assert counts == {"arity": 2, "found": 1, "lawful-candidates": 20}


def test_full_xi_writes_the_tabulated_map(biconvex_file, tmp_path):
    out = tmp_path / "full.json"
    code = main(["full-xi", "--structure", biconvex_file, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    table = report["xi_full"]["xi_full"]
    assert len(table) == 129  # capacities on three points at half resolution
    values = set(table.values())
    assert values <= {"0", "1/2", "1"}


def test_only_the_union_map_document_is_a_command_input(biconvex_file, tmp_path):
    """An ``xi`` document (here an unlawful one) is read by algebra-laws
    and roundtrip; the ``xi_full`` object of a full-xi report is output only,
    and every command refuses it as unrecognized with exit 2."""
    out = tmp_path / "full.json"
    assert main(["full-xi", "--structure", biconvex_file, "--out", str(out)]) == 0
    xi_full = tmp_path / "xi_full.json"
    xi_full.write_text(json.dumps(json.loads(out.read_text())["xi_full"]))
    xi = tmp_path / "xi.json"
    xi.write_text(json.dumps(_golden_union_map()))
    for command in ("algebra-laws", "biconvex-laws", "full-xi", "roundtrip", "embed-search"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([command, "--structure", str(xi_full)]) == 2, command
            assert err.getvalue().startswith("error: unrecognized structure JSON"), command
            read = main([command, "--structure", str(xi)]) != 2
            assert read == (command in ("algebra-laws", "roundtrip")), command


def test_full_xi_runs_on_cube_element_names(tmp_path):
    identity = {a: a for a in K1.levels}
    path = tmp_path / "cube.json"
    path.write_text(dumps_canonical(cube_to_json(cube_structure(K1, [identity, identity]))))
    out = tmp_path / "full.json"
    code = main(["full-xi", "--structure", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["xi_full"]["elements"] == ["0,0", "0,1", "1,0", "1,1"]
    # nonconstant monotone Boolean functions on four points
    assert len(report["xi_full"]["xi_full"]) == 166


def test_full_xi_reports_findings_on_names_that_set_keys_cannot_join(tmp_path):
    """A corrupted diamond whose element names hold commas gives as many
    findings as with plain names (exit 1, not 2); each capacity witness is
    its value vector over the nonempty subsets, as xi_full keys are written."""
    names = {"00": "0,0", "01": "0,1", "10": "1,0", "11": "1,1"}
    doc = structure_to_json(diamond_structure(K1))
    rename = lambda text: "|".join(names.get(part, part) for part in text.split("|"))
    for table in ("bjoin", "bmeet", "smeet", "sjoin"):
        doc[table] = {rename(key): rename(v) for key, v in doc[table].items()}
    doc["elements"] = [names[x] for x in doc["elements"]]
    doc["smeet"]["1|0,1"] = "0,0"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "full.json"
    assert main(["full-xi", "--structure", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    found = [w["witness"] for w in report["witnesses"] if w["law"] == "factorization"]
    assert len(found) == 166 and len(report["witnesses"]) == 168
    assert found[0] == "0,0,0,0,0,0,0,0,0,0,0,0,0,0,1: possibility map forms disagree: 0,0 vs 0,1"


def test_enumerate_emits_class_forms(tmp_path):
    out = tmp_path / "enum.json"
    code = main([
        "enumerate", "--chain", "2", "--capacity-class", "union", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    items = report["items"]
    assert len(items) == 5
    assert all("density" in item for item in items)


class _OldItems(list):
    """The items of an ``enumerate`` report as the per-capacity writer made
    them, ``capacity_to_json`` of each enumerated capacity, made afresh
    each time the writer reads them; ``classify`` of each is counted."""

    def __init__(self, space, chain, kind):
        super().__init__()
        self.args, self.counts = (space, chain, kind), None

    def __iter__(self):
        self.counts = [0, 0]
        for c in enumerate_capacities(*self.args):
            self.counts = [n + flag for n, flag in zip(self.counts, classify(c))]
            yield capacity_to_json(c)


class _Digest:
    """A text file that keeps only the sha256 of what is written."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode("utf-8"))


# carriers of plain names, swept at every k the budget admits, and of
# names that need JSON escaping or look like the renderer's "|" cell, its
# "%s" slots or their escapes, swept at k = 1 and 2
ENUMERATE_NAMES = [
    ["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"],
    ["é", '""'], ['"\\u007c"', "%s", "\\"], ["☃", "%", '"', "%%s"],
]


@pytest.mark.parametrize(
    "names", ENUMERATE_NAMES, ids=["a", "ab", "abc", "abcd", "escaped2", "escaped3", "escaped4"]
)
def test_enumerate_report_bytes_match_the_capacity_writer(names, tmp_path, monkeypatch):
    # every class: the rendered items give the bytes of the report with a
    # capacity_to_json item per capacity
    monkeypatch.chdir(tmp_path)
    Path("space.json").write_text(json.dumps({"elements": names}))
    space = FiniteSpace(names)
    ks = [k for k in range(1, 65) if (2 ** len(names) - 1) * (k + 1) <= 64]
    if not all(x.isalpha() for x in names):
        ks = ks[:2]
    for k, kind in itertools.product(ks, ("all", "union", "intersection")):
        argv = ["enumerate", "--space", "space.json", "--chain", str(k),
                "--capacity-class", kind, "--out", "out.json"]
        code, report = cli.run(cli._build_parser().parse_args(argv), argv)
        assert code == 0
        old = _OldItems(space, Chain(k), kind)
        expected = _Digest()
        serial.dump_canonical(dict(report, items=old), expected)
        got = hashlib.sha256(Path("out.json").read_bytes()).hexdigest()
        assert got == expected.hash.hexdigest(), (k, kind)
        counts = report["suites"][0]["counts"]
        assert [counts["union"], counts["intersection"]] == old.counts, (k, kind)


# ------------------------------------------------ golden reports on unlawful input
#
# Inputs that no benchmark job draws, each run once from the working
# directory with relative file names so the echoed command is stable.  The
# sha256 of every --out report was recorded before the ic/ci and report
# code were merged; a change here means the report bytes changed.

LEVELS_K2 = ["0", "1/2", "1"]


def _k2(op):
    """op (max or min) on level strings, as a level string."""
    return lambda *args: str(op(Fraction(v) for v in args))


def _chain_model_quadruple():
    join, meet = _k2(max), _k2(min)
    pairs = [(x, y) for x in LEVELS_K2 for y in LEVELS_K2]
    return {
        "chain_k": 2,
        "elements": LEVELS_K2,
        "bjoin": {f"{x}|{y}": join(x, y) for x, y in pairs},
        "bmeet": {f"{x}|{y}": meet(x, y) for x, y in pairs},
        "smeet": {f"{a}|{x}": meet(a, x) for a, x in pairs},
        "sjoin": {f"{a}|{x}": join(a, x) for a, x in pairs},
    }


def _chain_model_triple():
    quad = _chain_model_quadruple()
    identity = {a: a for a in LEVELS_K2}
    return {
        "chain_k": 2,
        "elements": LEVELS_K2,
        "bjoin": quad["bjoin"],
        "bmeet": quad["bmeet"],
        "p": dict(identity),
        "m": dict(identity),
    }


def _chain_model_tables(key, combine):
    return {
        "chain_k": 2,
        "elements": LEVELS_K2,
        key: {
            f"{x}|{a}|{y}": combine(x, a, y)
            for x in LEVELS_K2 for a in LEVELS_K2 for y in LEVELS_K2
        },
    }


def _golden_ic():
    # x join (a meet y), with the join of 0 and 1 moved down
    obj = _chain_model_tables("ic", lambda x, a, y: _k2(max)(x, _k2(min)(a, y)))
    obj["ic"]["0|1|1"] = "1/2"
    return obj


def _golden_ci():
    # x meet (a join y), the order dual, with one interior cell moved up
    obj = _chain_model_tables("ci", lambda x, a, y: _k2(min)(x, _k2(max)(a, y)))
    obj["ci"]["1|1/2|0"] = "1"
    return obj


def _golden_semimodule():
    pairs = [(x, y) for x in "ab" for y in "ab"]
    return {
        "chain_k": 2,
        "elements": ["a", "b"],
        "add": {f"{x}|{y}": "a" for x, y in pairs},
        "scale": {f"{a}|{x}": "a" for a in LEVELS_K2 for x in "ab"},
        "zero": "b",
    }


def _golden_union_map():
    # densities (d_a, d_b) with maximum 1: the join for b below a, except
    # that weight 1/2 on b already reaches b
    keys = [(0, 1), (Fraction(1, 2), 1), (1, 0), (1, Fraction(1, 2)), (1, 1)]
    return {
        "chain_k": 2,
        "elements": ["a", "b"],
        "xi": {f"{da},{db}": ("a" if da >= db and db != Fraction(1, 2) else "b") for da, db in keys},
    }


def _xi_without(key):
    """The ``xi`` document of the first 3-point k=2 convex structure, with
    the density written ``key`` left out."""
    s = next(enumerate_convex_structures(FiniteSpace(["a", "b", "c"]), K2))
    document = union_map_to_json(UnionStructureMap.from_convex(s))
    del document["xi"][key]
    return document


def _golden_triple():
    obj = _chain_model_triple()
    obj["p"]["1/2"] = "1"
    return obj


def _cube():
    # two coordinates: the identity and the weight map lifting 1/2 to 1
    identity = {a: a for a in LEVELS_K2}
    return {"chain_k": 2, "A": 2, "phi": [identity, dict(identity, **{"1/2": "1"})]}


def _golden_quadruple(table, cell, value):
    obj = _chain_model_quadruple()
    obj[table][cell] = value
    return obj


GOLDEN_INPUTS = {
    "algebra-laws-ic": (
        ["algebra-laws", "--structure", "in.json", "--samples", "20"], _golden_ic
    ),
    "algebra-laws-ci": (["algebra-laws", "--structure", "in.json"], _golden_ci),
    "algebra-laws-semimodule": (
        ["algebra-laws", "--structure", "in.json"], _golden_semimodule
    ),
    "algebra-laws-union-map": (
        ["algebra-laws", "--structure", "in.json"], _golden_union_map
    ),
    "biconvex-laws-triple": (["biconvex-laws", "--structure", "in.json"], _golden_triple),
    "biconvex-laws-quadruple": (
        ["biconvex-laws", "--structure", "in.json"],
        lambda: _golden_quadruple("smeet", "1/2|1", "0"),
    ),
    "full-xi-corrupted-action": (
        ["full-xi", "--structure", "in.json"],
        lambda: _golden_quadruple("smeet", "1/2|0", "1/2"),
    ),
    "roundtrip-ic": (["roundtrip", "--structure", "in.json"], _golden_ic),
    "roundtrip-ci": (["roundtrip", "--structure", "in.json"], _golden_ci),
    "roundtrip-union-map": (["roundtrip", "--structure", "in.json"], _golden_union_map),
    "roundtrip-triple": (["roundtrip", "--structure", "in.json"], _golden_triple),
    "roundtrip-quadruple": (
        ["roundtrip", "--structure", "in.json"],
        lambda: _golden_quadruple("smeet", "1/2|1", "0"),
    ),
}

GOLDEN_REPORTS = {
    "algebra-laws-ci": (
        1,
        "24382c6b4576b4fed2b88df4e1c86e79dc9e9d846a8f2966e8501cbc45701f40",
    ),
    "algebra-laws-ic": (
        1,
        "9021de268c61c8b0d33b1b658f159678b0bfa1510c49d050e7d74512ed897a91",
    ),
    "algebra-laws-semimodule": (
        1,
        "87eaecf6634bc3b334b3a5a2645e0517446bbf9dbe3b7c420a37e56895a06ff1",
    ),
    "algebra-laws-union-map": (
        1,
        "56978ae819a1ddbc27ff81d507065cd11b332985cca97ecebf23f9403ce74c86",
    ),
    "biconvex-laws-quadruple": (
        1,
        "4e4940255705e5c57d2c8da1ba14e3cdd5ec03b3d8ea64819223183459381092",
    ),
    "biconvex-laws-triple": (
        1,
        "18466405580fa78b0e0c43c56a50e92cc61a37ceba9810612fb8f6560f52bbec",
    ),
    "full-xi-corrupted-action": (
        1,
        "14170a49f52a287aac14a501d0b2f16b3614881ffe35b4cc5881df5e3fae0ff2",
    ),
    # recorded before the round trips shared one body per structure class
    "roundtrip-ci": (
        0,
        "824222a2692d673683f364b6b5461cba3f11dab68dfc5d1225fd705a8cd218d2",
    ),
    "roundtrip-ic": (
        1,
        "944b5742ad5e0869d6cceced162dbd30e5a49b7874cbc5f881123e1566ccbcad",
    ),
    "roundtrip-quadruple": (
        1,
        "362302bfc90bb4b37349be0c75147a73dcb7c61e3b4bc75096bb9447e4940844",
    ),
    "roundtrip-triple": (
        1,
        "63f77828b9dce56caaac9b3cefce50b635154ce03fab58f997b88b139adc54f4",
    ),
    "roundtrip-union-map": (
        1,
        "5f076862b53deeb1dcce6b332f92f5cf8d55a63e580d798bbbd60e1b303815a1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_unlawful_input_reports_match_their_golden_digests(name, tmp_path, monkeypatch):
    argv, build = GOLDEN_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(build(), sort_keys=True))
    code = main(argv + ["--out", "report.json"])
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN_REPORTS[name]


def test_dual_roundtrip_reports_only_the_corrupted_row(tmp_path, monkeypatch):
    obj = _chain_model_tables("ci", lambda x, a, y: _k2(min)(x, _k2(max)(a, y)))
    assert obj["ci"]["0|1|0"] == "0"
    obj["ci"]["0|1|0"] = "1/2"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(obj))
    code = main(["roundtrip", "--structure", "in.json", "--out", "report.json"])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"] == {"cases": 3, "passed": 2, "failed": 1}
    assert [(w["law"], w["witness"]) for w in report["witnesses"]] == [
        ("dual-table-roundtrip", "x=0")
    ]


def test_dual_roundtrip_passes_on_the_chain_model(tmp_path, monkeypatch):
    obj = _chain_model_tables("ci", lambda x, a, y: _k2(min)(x, _k2(max)(a, y)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(obj))
    assert main(["roundtrip", "--structure", "in.json"]) == 0


@pytest.mark.parametrize(
    "table, cell, value, tabulated, raising_diracs",
    [("smeet", "0|0", "1/2", 0, 3), ("sjoin", "1|1", "1/2", 115, 1)],
)
def test_full_xi_keeps_its_report_when_a_dirac_evaluation_raises(
    table, cell, value, tabulated, raising_diracs, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(_golden_quadruple(table, cell, value)))
    code = main(["full-xi", "--structure", "in.json", "--out", "report.json"])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["xi_full"]["xi_full"]) == tabulated
    laws = [w["law"] for w in report["witnesses"]]
    assert laws.count("factorization") == 129  # every capacity on three points
    unit = [w["witness"] for w in report["witnesses"] if w["law"] == "algebra-unit-law"]
    assert len(unit) == raising_diracs
    assert all("map forms disagree" in w for w in unit)


# ------------------------------------------------ malformed input, fuzzed
#
# Every document below breaks the loaders' input contract in one place, so
# each structure command must exit 2 with a one-line error, never a
# traceback (an exception escaping ``main``) and never a report.

STRUCTURE_COMMANDS = ["algebra-laws", "biconvex-laws", "full-xi", "roundtrip"]

WELL_FORMED = {
    "ic": lambda: _chain_model_tables("ic", lambda x, a, y: _k2(max)(x, _k2(min)(a, y))),
    "ci": lambda: _chain_model_tables("ci", lambda x, a, y: _k2(min)(x, _k2(max)(a, y))),
    "quadruple": _chain_model_quadruple,
    "triple": _chain_model_triple,
    "semimodule": _golden_semimodule,
    "union-map": _golden_union_map,
    "cube": _cube,
}
# the tables of each document, and which part of their keys is a level
# (None: keys are element names only)
TABLE_LEVEL_PART = {
    "ic": 1, "ci": 1, "bjoin": None, "bmeet": None, "smeet": 0, "sjoin": 0,
    "p": 0, "m": 0, "add": None, "scale": 0, "xi": 0, "phi": 0,
}
# the tables that mark each document's form (the lattice tables bjoin and
# bmeet are shared by the quadruple and the triple)
FORM_MARKERS = ["ic", "ci", "smeet", "sjoin", "p", "m", "add", "scale", "xi", "phi"]
NOT_AN_OBJECT = strat.one_of(
    strat.lists(strat.integers(), max_size=2), strat.text(max_size=3),
    strat.integers(), strat.none(), strat.booleans(),
)
BAD_LEVELS = ["2", "-1", "1/3", "1/0", "0.3", "abc", "", "½"]


@strat.composite
def malformed_documents(draw):
    # a fresh copy: the builders share their element lists
    form = draw(strat.sampled_from(sorted(WELL_FORMED)))
    obj = json.loads(json.dumps(WELL_FORMED[form]()))
    tables = sorted(t for t in TABLE_LEVEL_PART if t in obj)
    hows = ["top-level", "space", "chain-k", "table-type", "key-arity", "key-level", "cell-value",
            "stray-cell", "second-form"]
    if "elements" in obj:  # a cube document has no carrier list to break
        hows += ["elements-type", "elements-entry", "duplicate-name"]
    how = draw(strat.sampled_from(hows))
    hypothesis.event(how)
    if how == "top-level":
        return draw(NOT_AN_OBJECT)
    if how == "space":
        # a space document, well-formed or not, has no structure tables
        return {"elements": draw(strat.one_of(
            NOT_AN_OBJECT, strat.lists(strat.sampled_from(["a", "b", 1, None]), max_size=3),
        ))}
    if how == "elements-type":
        obj["elements"] = draw(strat.one_of(
            strat.text(max_size=3), strat.integers(), strat.none(),
            strat.dictionaries(strat.text(max_size=2), strat.integers(), max_size=2),
        ))
    elif how == "elements-entry":
        i = draw(strat.integers(0, len(obj["elements"]) - 1))
        obj["elements"][i] = draw(strat.one_of(strat.integers(), strat.none(),
                                               strat.lists(strat.integers(), max_size=1)))
    elif how == "duplicate-name":
        obj["elements"].append(draw(strat.sampled_from(obj["elements"])))
    elif how == "second-form":
        # a table that marks another form: the document is ambiguous
        other = WELL_FORMED[draw(strat.sampled_from(sorted(set(WELL_FORMED) - {form})))]()
        marker = draw(strat.sampled_from([t for t in FORM_MARKERS if t in other and t not in obj]))
        obj[marker] = other[marker]
    elif how == "chain-k":
        bad = draw(strat.sampled_from([0, -1, 1, 3, "2", 2.0, None, True, [2], "missing"]))
        if bad == "missing":
            del obj["chain_k"]
        else:
            obj["chain_k"] = bad
    else:
        name = draw(strat.sampled_from(tables))
        table = obj[name]
        if name == "phi":  # each entry of a cube's phi list is one table
            table = draw(strat.sampled_from(table))
        key = draw(strat.sampled_from(sorted(table)))
        sep = "," if name == "xi" else "|"
        parts = key.split(sep)
        if how == "table-type":
            obj[name] = draw(NOT_AN_OBJECT)
        elif how == "key-arity":
            parts = parts + ["0"] if draw(strat.booleans()) or len(parts) == 1 else parts[:-1]
            table[sep.join(parts)] = table.pop(key)
        elif how == "key-level":
            part = TABLE_LEVEL_PART[name]
            hypothesis.assume(part is not None)
            parts[part] = draw(strat.sampled_from(BAD_LEVELS))
            table[sep.join(parts)] = table.pop(key)
        elif how == "stray-cell":
            # one more cell: an xi key that is not a density, or another
            # table's key naming an element outside the carrier
            names = [i for i in range(len(parts)) if i != TABLE_LEVEL_PART[name]]
            hypothesis.assume(name == "xi" or (name != "phi" and names))
            if name == "xi":
                parts = ["0"] * len(parts)
            else:
                parts[draw(strat.sampled_from(names))] = "zz"
            table[sep.join(parts)] = table[key]
        else:
            table[key] = draw(strat.one_of(
                strat.just("zz"), strat.integers(), strat.none(),
                strat.lists(strat.integers(), max_size=1),
            ))
    return obj


@hypothesis.settings(deadline=None, max_examples=150)
@hypothesis.example({"elements": "ab"})
@hypothesis.example({"chain_k": 2, "elements": ["a", "b"], "ic": []})
@hypothesis.example(dict(_chain_model_quadruple(), ic=WELL_FORMED["ic"]()["ic"]))
@hypothesis.given(malformed_documents())
def test_malformed_structures_exit_two_without_a_traceback(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(document))
        for command in STRUCTURE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--structure", str(path)])
            assert code == 2, (command, document, out.getvalue())
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()


def _with_cell(document, table, key, value):
    """A copy of the document whose ``table`` (a cube's first phi entry for
    "phi") ends with one more cell, ``key``: ``value``."""
    document = json.loads(json.dumps(document))
    cells = document[table][0] if table == "phi" else document[table]
    cells[key] = value
    return document


def _repeating_text(document, table, key, value):
    """The document's JSON text with the cell ``key``: ``value`` written a
    second time at the front of its first object under ``table``."""
    text = json.dumps(document)
    opening = f'"{table}": ' + ("[{" if table == "phi" else "{")
    assert opening in text
    return text.replace(opening, f"{opening}{json.dumps(key)}: {json.dumps(value)}, ", 1)


@pytest.mark.parametrize("command, text, message", [
    ("algebra-laws", json.dumps(_with_cell(WELL_FORMED["ic"](), "ic", "0|1.0|1/2", "1")),
     "ic key '0|1.0|1/2' names a cell already given"),
    ("algebra-laws", json.dumps(_with_cell(WELL_FORMED["ic"](), "ic", "0|2/2|1/2", "1")),
     "ic key '0|2/2|1/2' names a cell already given"),
    ("algebra-laws", json.dumps(_with_cell(_golden_union_map(), "xi", "1,1.0", "a")),
     "xi key '1,1.0' names a cell already given"),
    ("biconvex-laws", json.dumps(_with_cell(_cube(), "phi", "2/2", "1")),
     "phi key '2/2' names a cell already given"),
    ("algebra-laws", _repeating_text(WELL_FORMED["ic"](), "ic", "0|1|1/2", "1"),
     "ic key '0|1|1/2' is repeated"),
    ("biconvex-laws", _repeating_text(_cube(), "phi", "1/2", "1"), "phi key '1/2' is repeated"),
    ("algebra-laws", '{"chain_k": 1, ' + json.dumps(WELL_FORMED["ic"]())[1:],
     "document key 'chain_k' is repeated"),
], ids=["ic-decimal", "ic-fraction", "xi", "phi", "ic-text", "phi-text", "document-text"])
def test_a_document_that_names_one_cell_twice_exits_two(command, text, message, tmp_path, capsys):
    # a structure read with one of its cells given twice, however the key
    # is written, is refused, not read with the last value
    path = tmp_path / "in.json"
    path.write_text(text)
    out = tmp_path / "report.json"
    assert main([command, "--structure", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, document, message", [
    (command, _with_cell(_golden_union_map(), "xi", key, "a"),
     f"xi key {key!r} is not a density: no weight is 1")
    for command in ("algebra-laws", "roundtrip") for key in ("0,0", "0,1/2")
] + [
    ("algebra-laws", _with_cell(WELL_FORMED["ic"](), "ic", "0|1|q", "1"),
     "ic key '0|1|q' names an element outside the carrier"),
    ("biconvex-laws", _with_cell(_chain_model_quadruple(), "smeet", "1|zz", "1"),
     "smeet key '1|zz' names an element outside the carrier"),
] + [
    (command, _xi_without("1,1/2,1/2"), "xi has no entry for the density 1,1/2,1/2")
    for command in ("algebra-laws", "roundtrip")
], ids=["algebra-laws-xi-zero", "algebra-laws-xi-half", "roundtrip-xi-zero", "roundtrip-xi-half",
        "ic", "smeet", "algebra-laws-xi-missing", "roundtrip-xi-missing"])
def test_a_document_cell_outside_its_declared_keys_exits_two(
    command, document, message, tmp_path, capsys
):
    # such a cell is refused when the document is read, not dropped or
    # read as a density; so is an xi document that leaves out a density,
    # which no command may read as a partial map
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "report.json"
    assert main([command, "--structure", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_an_unwritable_report_path_is_reported_as_a_write_error(tmp_path, capsys, monkeypatch):
    # refused before the command runs: the handler is never entered
    def entered(args):
        raise AssertionError("the command ran before its report path was checked")

    monkeypatch.setitem(cli._HANDLERS, "monad-laws", entered)
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        argv = ["monad-laws", "--chain", "1", "--mode", "random", "--samples", "5", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_a_failing_command_leaves_its_report_path_as_it_was(tmp_path, capsys):
    # the path is checked before the work without truncating what is there
    path = tmp_path / "in.json"
    path.write_text('{"elements": "ab"}')
    kept = tmp_path / "kept.json"
    kept.write_text("an earlier report")
    assert main(["monad-laws", "--space", str(path), "--out", str(kept)]) == 2
    assert main(["monad-laws", "--space", str(path), "--out", str(tmp_path / "new.json")]) == 2
    assert kept.read_text() == "an earlier report"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "kept.json"]
    capsys.readouterr()


# ------------------------------------------- documents too large to build
#
# A loader reads the document's size before it builds the chain's k + 1
# levels or a cube's (k + 1)^A points, so such a document is refused at
# once (exit 2), not after seconds of building and hundreds of megabytes.


def _full_map_document():
    b = chain_model(K1)
    return full_map_to_json(b, CapacityStructureMap.from_biconvex(b).tabulate())


def _exit_code_and_seconds(document, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    t0 = time.perf_counter()
    code = main(["biconvex-laws", "--structure", str(path)])
    return code, time.perf_counter() - t0


@pytest.mark.parametrize("form", sorted(WELL_FORMED) + ["full-map"])
def test_a_huge_chain_k_is_refused_before_the_chain_is_built(form, tmp_path, monkeypatch, capsys):
    def never(k):
        raise AssertionError(f"make_chain({k}) was called")

    document = _full_map_document() if form == "full-map" else WELL_FORMED[form]()
    document = dict(json.loads(json.dumps(document)), chain_k=10**9)
    monkeypatch.setattr(serial, "make_chain", never)
    code, seconds = _exit_code_and_seconds(document, tmp_path)
    assert code == 2 and seconds < 1
    assert capsys.readouterr().err.startswith("error: ")


def _identity_cube(k, arity):
    identity = {str(Fraction(i, k)): str(Fraction(i, k)) for i in range(k + 1)}
    return {"chain_k": k, "A": arity, "phi": [identity] * arity}


def test_an_oversized_cube_is_refused_before_any_point_is_built(tmp_path, capsys):
    code, seconds = _exit_code_and_seconds(_identity_cube(3, 4), tmp_path)
    assert code == 2 and seconds < 1
    assert capsys.readouterr().err == "error: a cube of 4^4 points exceeds the limit of 81\n"
    # the largest cubes below the bound still load
    for k, arity in ((3, 3), (2, 4)):
        cube = serial.cube_from_json(_identity_cube(k, arity))
        assert len(cube.structure.carrier) == (k + 1) ** arity


@pytest.mark.parametrize(
    "command", ["algebra-laws", "roundtrip", "biconvex-laws", "full-xi", "embed-search"]
)
def test_a_structure_command_without_a_structure_exits_two(command, capsys):
    assert main([command]) == 2
    assert f"error: {command} needs --structure" in capsys.readouterr().err
