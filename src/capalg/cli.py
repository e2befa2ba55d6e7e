"""Batch driver: load JSON inputs, run law suites and searches, emit reports.

The JSON report written to --out contains no timing data, so identical
configurations produce byte-identical files; wall-clock times appear only
in the human summary on standard output.  Exit codes: 0 all checks pass,
1 at least one law failure, 2 malformed input or an unsatisfiable
configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .biconvex import (
    BiconvexStructure,
    CapacityStructureMap,
    CubeStructure,
    TripleStructure,
    biconvex_from_triple,
    check_biconvex,
    check_triple,
    embedding_search,
    sugeno_form,
)
from .capacity import (
    DEFAULT_ENUMERATION_BUDGET,
    check_enumeration_budget,
    enumerate_capacities,
    enumerate_ranks,
    rank_flags,
)
from .chain import make_chain
from .convexity import (
    ConvexStructure,
    DualConvexStructure,
    Semimodule,
    UnionStructureMap,
    check_algebra_laws,
    check_ci_axioms,
    check_ic_axioms,
    check_semimodule_axioms,
)
from .errors import CapalgError, LawViolationError, ValidationError
from .serial import (
    capacity_renderer,
    dump_canonical,
    embedding_result_to_json,
    full_map_to_json,
    space_from_json,
    structure_from_json,
)
from .spaces import FiniteSpace
from .suites import (
    CONTINUITY_NOTE,
    SuiteReport,
    capacity_monad_suite,
    check_convex_roundtrip,
    check_dual_roundtrip,
    check_full_map_value,
    check_full_unit_law,
    check_quadruple_roundtrip,
    check_triple_roundtrip,
    check_union_map_roundtrip,
    g_monad_suite,
    _cap_witness,
)

# add_argument parameters of every flag
_FLAGS = {
    "--space": dict(dest="space_path", default=None,
                    help="JSON file with {\"elements\": [...]}"),
    "--structure": dict(dest="structure_path", default=None,
                        help="JSON file with a serialized structure"),
    "--chain": dict(dest="chain_k", type=int, default=2,
                    help="chain resolution k (levels i/k)"),
    "--mode": dict(choices=("exhaustive", "random"), default="exhaustive"),
    "--samples": dict(type=int, default=500),
    "--seed": dict(type=int, default=0),
    "--max-a": dict(dest="max_arity", type=int, default=2,
                    help="largest coordinate count for embedding searches"),
    "--capacity-class": dict(choices=("all", "union", "intersection"), default="all"),
    "--out": dict(default=None, help="path for the JSON report"),
}

# the flags each command reads; every command also takes --out
COMMANDS = {
    "monad-laws": ("--space", "--chain", "--mode", "--samples", "--seed"),
    "algebra-laws": ("--structure", "--samples", "--seed"),
    "roundtrip": ("--structure",),
    "biconvex-laws": ("--structure",),
    "full-xi": ("--structure",),
    "embed-search": ("--structure", "--max-a"),
    "enumerate": ("--space", "--chain", "--capacity-class"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capalg",
        description="Law suites and searches for chain-valued capacity algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags + ("--out",):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


class _RepeatedKey(dict):
    """A JSON object whose text gives the key ``repeated`` more than once."""


def _object_once(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen: set = set()
    marked = _RepeatedKey(obj)
    marked.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
    return marked


def _refuse_repeats(value, name: str) -> None:
    """Refuse the first object in ``value`` that repeats a key, named by the
    key it sits under (``name`` for ``value`` itself and a list's items)."""
    if isinstance(value, _RepeatedKey):
        raise ValidationError(f"{name} key {value.repeated!r} is repeated")
    if isinstance(value, dict):
        for key, child in value.items():
            _refuse_repeats(child, key)
    elif isinstance(value, list):
        for child in value:
            _refuse_repeats(child, name)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_object_once)
    _refuse_repeats(doc, "document")
    return doc


def _load_space(args: argparse.Namespace) -> FiniteSpace:
    if args.space_path is None:
        return FiniteSpace(["a", "b"])
    return space_from_json(_load_json(args.space_path))


def _load_structure(args: argparse.Namespace):
    if args.structure_path is None:
        raise CapalgError(f"{args.command} needs --structure")
    return structure_from_json(_load_json(args.structure_path))


def _diagnostics_report(
    name: str, diagnostics: list[str], note: str | None = None
) -> SuiteReport:
    """One finding per diagnostic, keyed by its law prefix, plus one case."""
    rep = SuiteReport(name)
    for d in diagnostics:
        rep.check(d.split(":")[0], False, d)
    rep.cases += 1
    if note is not None:
        rep.notes.append(note)
    return rep


def _biconvex_report(b: BiconvexStructure) -> SuiteReport:
    return _diagnostics_report("biconvex-laws", check_biconvex(b), CONTINUITY_NOTE)


def _as_biconvex(loaded) -> BiconvexStructure:
    if isinstance(loaded, BiconvexStructure):
        return loaded
    if isinstance(loaded, TripleStructure):
        return biconvex_from_triple(loaded)
    if isinstance(loaded, CubeStructure):
        return loaded.structure
    raise CapalgError(
        "expected a lattice-with-actions structure (bjoin/bmeet/smeet/sjoin, "
        "p/m, or phi form)"
    )


def _run_monad_laws(args: argparse.Namespace):
    space = _load_space(args)
    # refused before the chain's k + 1 levels are built
    check_enumeration_budget(space, args.chain_k, DEFAULT_ENUMERATION_BUDGET)
    chain = make_chain(args.chain_k)
    reports = [
        g_monad_suite(space, args.mode, args.samples, args.seed),
        capacity_monad_suite(space, chain, args.samples, args.seed),
    ]
    return reports, {}


def _run_algebra_laws(args: argparse.Namespace):
    loaded = _load_structure(args)
    if isinstance(loaded, ConvexStructure):
        axioms = _diagnostics_report("combination-axioms", check_ic_axioms(loaded))
        laws = check_algebra_laws(UnionStructureMap.from_convex(loaded),
                                  samples=args.samples, seed=args.seed)
        return [axioms, _diagnostics_report("algebra-laws", laws)], {}
    if isinstance(loaded, DualConvexStructure):
        axioms = check_ci_axioms(loaded)
        return [_diagnostics_report("dual-combination-axioms", axioms)], {}
    if isinstance(loaded, Semimodule):
        axioms = check_semimodule_axioms(loaded)
        return [_diagnostics_report("semimodule-axioms", axioms)], {}
    if isinstance(loaded, UnionStructureMap):
        laws = check_algebra_laws(loaded, samples=args.samples, seed=args.seed)
        return [_diagnostics_report("algebra-laws", laws)], {}
    return [_biconvex_report(_as_biconvex(loaded))], {}


def _run_roundtrip(args: argparse.Namespace):
    loaded = _load_structure(args)
    rep = SuiteReport("roundtrip")
    if isinstance(loaded, ConvexStructure):
        check_convex_roundtrip(rep, loaded, "ic -> map -> ic", _cap_witness)
    elif isinstance(loaded, UnionStructureMap):
        check_union_map_roundtrip(rep, loaded, lambda s: "map -> ic -> map")
    elif isinstance(loaded, DualConvexStructure):
        check_dual_roundtrip(rep, loaded)
    else:
        check_quadruple_roundtrip(
            rep, _as_biconvex(loaded), "quadruple -> triple", "quadruple -> triple -> quadruple"
        )
        if isinstance(loaded, TripleStructure):
            check_triple_roundtrip(rep, loaded, "triple -> quadruple -> triple")
    return [rep], {}


def _run_biconvex_laws(args: argparse.Namespace):
    loaded = _load_structure(args)
    if isinstance(loaded, TripleStructure):
        triple = _diagnostics_report("triple-laws", check_triple(loaded))
        return [triple, _biconvex_report(biconvex_from_triple(loaded))], {}
    return [_biconvex_report(_as_biconvex(loaded))], {}


def _run_full_xi(args: argparse.Namespace):
    loaded = _load_structure(args)
    b = _as_biconvex(loaded)
    xi = CapacityStructureMap.from_biconvex(b)
    rep = SuiteReport("full-structure-map")
    agreements = 0
    for c in enumerate_capacities(b.carrier, b.chain):
        value, dual = check_full_map_value(rep, xi, c)
        if dual is not None and sugeno_form(b, c) == value:
            agreements += 1
    check_full_unit_law(rep, xi)
    # the map keeps every value it reached, one per capacity
    table = xi._cache
    rep.counts["capacities"] = len(table)
    rep.counts["sugeno-agreements"] = agreements
    rep.notes.append(
        f"join-of-weighted-meets agrees on {agreements} of {len(table)} capacities"
    )
    return [rep], {"xi_full": full_map_to_json(b, table)}


def _run_embed_search(args: argparse.Namespace):
    loaded = _load_structure(args)
    b = _as_biconvex(loaded)
    res = embedding_search(b, max_arity=args.max_arity)
    rep = SuiteReport("embedding-search")
    rep.cases = 1
    rep.counts["found"] = int(res.found)
    rep.counts["lawful-candidates"] = res.candidates
    if res.found:
        rep.counts["arity"] = res.arity
        rep.notes.append(f"embedding found with {res.arity} coordinates")
    else:
        rep.notes.append(
            f"no embedding with at most {res.max_arity} coordinates"
        )
    return [rep], {"embedding": embedding_result_to_json(res)}


def _run_enumerate(args: argparse.Namespace):
    space = _load_space(args)
    # refused before the chain's k + 1 levels are built
    check_enumeration_budget(space, args.chain_k, DEFAULT_ENUMERATION_BUDGET)
    chain, kind = make_chain(args.chain_k), args.capacity_class
    # one walk on rank vectors: each capacity is classified and rendered from its ranks
    flags, render = rank_flags(space, chain.k, kind), capacity_renderer(space, chain, kind)
    items = []
    union = intersection = 0
    for ranks in enumerate_ranks(space, chain.k, kind):
        is_union, is_intersection = flags(ranks)
        union += is_union
        intersection += is_intersection
        items.append(render(ranks))
    rep = SuiteReport("enumerate-capacities")
    rep.cases = len(items)
    rep.counts.update(count=len(items), union=union, intersection=intersection)
    return [rep], {"items": items}


_HANDLERS = {
    "monad-laws": _run_monad_laws,
    "algebra-laws": _run_algebra_laws,
    "roundtrip": _run_roundtrip,
    "biconvex-laws": _run_biconvex_laws,
    "full-xi": _run_full_xi,
    "embed-search": _run_embed_search,
    "enumerate": _run_enumerate,
}


def run(args: argparse.Namespace, argv: list[str]) -> tuple[int, dict]:
    """Execute one command; returns (exit_code, report_payload).  The
    ``enumerate`` items are rendered text that only the canonical writer
    (``dump_canonical``, ``dumps_canonical``) writes as JSON objects."""
    try:  # refuse an unwritable --out before the work, and leave the path as it was
        if args.out and not os.path.exists(args.out):
            open(args.out, "x", encoding="utf-8").close()
            os.remove(args.out)
        elif args.out:
            open(args.out, "a", encoding="utf-8").close()  # appending truncates nothing
    except OSError as exc:
        raise CapalgError(f"cannot write the report: {exc}") from exc
    t0 = time.perf_counter()
    try:
        reports, payload = _HANDLERS[args.command](args)
    except LawViolationError as exc:
        # a law broke somewhere no handler expected: still a failure, not
        # a configuration problem
        rep = SuiteReport(args.command)
        rep.check("law-violation", False, str(exc))
        reports, payload = [rep], {}
    elapsed = time.perf_counter() - t0

    failed = sum(len(r.findings) for r in reports)
    cases = sum(r.cases for r in reports)
    witnesses = sorted(
        (
            {"suite": r.name, "law": f.law, "witness": f.witness}
            for r in reports
            for f in r.findings
        ),
        key=lambda w: (w["suite"], w["law"], w["witness"]),
    )
    report = {
        "command": argv,
        "verdict": "pass" if failed == 0 else "fail",
        "counts": {"cases": cases, "passed": cases - failed, "failed": failed},
        "witnesses": witnesses,
        "suites": [r.to_json() for r in reports],
    }
    report.update(payload)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                dump_canonical(report, fh)
        except OSError as exc:
            raise CapalgError(f"cannot write the report: {exc}") from exc

    print(f"capalg {args.command}")
    for r in reports:
        print(f"  {r.name}: {r.cases} cases, {len(r.findings)} failures")
        for note in r.notes:
            print(f"    note: {note}")
    for w in witnesses[:10]:
        print(f"  FAIL {w['suite']}/{w['law']}: {w['witness'][:160]}")
    where = f" (report written to {args.out})" if args.out else ""
    print(f"verdict: {report['verdict']} in {elapsed:.2f}s{where}")
    return (0 if failed == 0 else 1), report


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    positive = (("chain_k", "--chain"), ("samples", "--samples"), ("max_arity", "--max-a"))
    for dest, flag in positive:
        if getattr(args, dest, 1) < 1:
            print(f"error: {flag} must be a positive integer", file=sys.stderr)
            return 2
    try:
        code, _ = run(args, [args.command] + argv[1:])
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except (CapalgError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
