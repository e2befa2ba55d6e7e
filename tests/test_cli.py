"""Exit codes, report determinism, and subcommand behavior of the capalg CLI."""

import json
from fractions import Fraction

import pytest

from capalg.chain import Chain
from capalg.cli import main
from capalg.convexity import ConvexStructure
from capalg.biconvex import (
    chain_model,
    cube_structure,
    diamond_structure,
    triple_from_biconvex,
)
from capalg.serial import (
    biconvex_to_json,
    convex_to_json,
    cube_to_json,
    dumps_canonical,
    triple_to_json,
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
    path.write_text(dumps_canonical(convex_to_json(chain_model_convex(K2))))
    return str(path)


@pytest.fixture
def biconvex_file(tmp_path):
    path = tmp_path / "biconvex.json"
    path.write_text(dumps_canonical(biconvex_to_json(chain_model(K2))))
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
    path.write_text(dumps_canonical(triple_to_json(t)))
    assert main(["roundtrip", "--structure", str(path)]) == 0


def test_law_violation_exits_one_with_witnesses(convex_file, tmp_path, capsys):
    obj = json.loads(open(convex_file).read())
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
    path.write_text(dumps_canonical(biconvex_to_json(diamond_structure(K2))))
    out = tmp_path / "embed.json"
    code = main(["embed-search", "--structure", str(path), "--max-a", "1", "--out", str(out)])
    assert code == 0  # exhausting the bound is data, not a law violation
    report = json.loads(out.read_text())
    assert report["embedding"]["found"] is False


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
