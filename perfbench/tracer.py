"""In-process tracing for one benchmark job, installed from outside capalg.

Spans (name, start, end, parent, job id) are kept in memory and reduced
to per-layer call counts and self times when the job ends.  A layer's
self time is its spans' duration minus the part covered by their child
spans.  Hot leaf methods (Level comparisons and hashing, capacity
evaluation, chain operations) are only counted: a span per call would
cost more than the call itself.

capalg modules import names directly (``from .capacity import mult``),
so each wrapped function is replaced at every module attribute that
binds it, not only in its defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# layer -> functions (module, qualified name) whose calls open a span
SPAN_LAYERS = {
    "spaces.hyperspace": [
        ("capalg.spaces", "g_unit"),
        ("capalg.spaces", "g_map"),
        ("capalg.spaces", "g_mult"),
        ("capalg.spaces", "enumerate_hyperspaces"),
    ],
    "capacity.mult": [("capalg.capacity", "mult")],
    "capacity.pushforward": [("capalg.capacity", "pushforward")],
    "capacity.validate": [("capalg.capacity", "validate")],
    "capacity.kappa_dual": [("capalg.capacity", "kappa_dual")],
    "capacity.classify": [("capalg.capacity", "classify")],
    "capacity.enumerate": [
        ("capalg.capacity", "enumerate_capacities"),
        ("capalg.capacity", "capacity_space"),
        ("capalg.capacity", "possibility_space"),
        ("capalg.capacity", "necessity_space"),
    ],
    "convexity.check_ic_axioms": [("capalg.convexity", "check_ic_axioms")],
    "convexity.check_algebra_laws": [("capalg.convexity", "check_algebra_laws")],
    "convexity.structure_map": [
        ("capalg.convexity", "structure_map_from_ic"),
        ("capalg.convexity", "UnionStructureMap.__call__"),
        ("capalg.convexity", "nary_combination"),
    ],
    "convexity.enumerate": [
        ("capalg.convexity", "enumerate_convex_structures"),
        ("capalg.convexity", "enumerate_join_tables"),
        ("capalg.convexity", "enumerate_union_algebras"),
    ],
    "biconvex.preimage_search": [
        ("capalg.biconvex", "union_over_intersection_preimages"),
        ("capalg.biconvex", "intersection_over_union_preimages"),
    ],
    "biconvex.structure_map_full": [
        ("capalg.biconvex", "structure_map_full"),
        ("capalg.biconvex", "structure_map_full_dual"),
    ],
    "biconvex.closed_forms": [
        ("capalg.biconvex", "structure_map_possibility"),
        ("capalg.biconvex", "structure_map_necessity"),
        ("capalg.biconvex", "sugeno_form"),
    ],
    "biconvex.check_biconvex": [("capalg.biconvex", "check_biconvex")],
    "biconvex.embedding_search": [("capalg.biconvex", "embedding_search")],
    "suites.g_monad_suite": [("capalg.suites", "g_monad_suite")],
    "suites.capacity_monad_suite": [("capalg.suites", "capacity_monad_suite")],
    "suites.convex_roundtrip_suite": [("capalg.suites", "convex_roundtrip_suite")],
}
SERIAL_MODULE = "capalg.serial"  # dumps_canonical and *_to_json dump, *_from_json load

# layer -> methods or functions whose calls are only counted
COUNT_LAYERS = {
    "chain.level_cmp": [("capalg.chain", "Level.__lt__"), ("capalg.chain", "Level.__eq__")],
    "chain.level_hash": [("capalg.chain", "Level.__hash__")],
    "chain.ops": [
        ("capalg.chain", "join"),
        ("capalg.chain", "meet"),
        ("capalg.chain", "complement"),
    ],
    "capacity.value": [
        ("capalg.capacity", "SetFunction.value"),
        ("capalg.capacity", "PossibilityCapacity.value"),
        ("capalg.capacity", "NecessityCapacity.value"),
        ("capalg.capacity", "PushforwardView.value"),
        ("capalg.capacity", "MultView.value"),
    ],
}


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per name: calls, total (inclusive) seconds and self seconds.

    ``spans`` holds (name, start, end, parent, job) tuples where parent is
    the index of the enclosing span or -1.  Children lie inside their
    parent's interval, so a span's self time is its duration minus the
    summed durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child[i]
    return out


class Tracer:
    """Spans and counters for one job's interpreter."""

    def __init__(self, job: str, clock=time.perf_counter):
        self.job = job
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells: dict[str, list[int]] = {}   # hot call counters, one list cell each

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.job])
        self.stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def close_open(self) -> None:
        """End every open span now (the job is being stopped mid-call)."""
        now = self.clock()
        while self.stack:
            self.spans[self.stack.pop()][2] = now

    def summary(self) -> dict:
        self.close_open()
        return {
            "job": self.job,
            "spans": self_times([tuple(s) for s in self.spans]),
            "counts": dict(self.counts) | {k: c[0] for k, c in self.cells.items()},
        }

    # ------------------------------------------------------------ wrappers

    def span_wrapper(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(result)`` sees each normal return."""
        enter, leave, counts = self.enter, self.leave, self.counts
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens in next(), one span per step
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                return _traced_steps(enter, leave, name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                leave(idx)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def count_wrapper(self, name: str, fn):
        """Count calls only; these methods take one or two arguments and are hot."""
        cell = self.cells.setdefault(name + ".calls", [0])
        if len(inspect.signature(fn).parameters) == 1:
            def wrapper(a):
                cell[0] += 1
                return fn(a)
        else:
            def wrapper(a, b):
                cell[0] += 1
                return fn(a, b)
        return functools.wraps(fn)(wrapper)


def _traced_steps(enter, leave, name, gen):
    while True:
        idx = enter(name)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            leave(idx)
        yield item


def _resolve(module: str, qualname: str):
    owner = sys.modules[module]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, wrapped) -> None:
    """Replace ``original`` wherever a capalg module binds it by name."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "capalg" or modname.startswith("capalg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _install(owner, attr, wrapped) -> None:
    original = getattr(owner, attr)
    if inspect.isclass(owner):
        setattr(owner, attr, wrapped)
    else:
        _rebind(original, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer function of an imported capalg at all binding sites."""
    import capalg.cli  # noqa: F401  (imports every layer module)

    counts = tracer.counts

    def preimage_found(hits):
        counts["biconvex.preimage_search.found"] += bool(hits)

    def embedding_candidates(res):
        counts["biconvex.embedding_search.candidates"] += res.candidates

    def suite_cases(name):
        def observe(report):
            counts[name + ".cases"] += report.cases
        return observe

    observers = {
        "biconvex.preimage_search": preimage_found,
        "biconvex.embedding_search": embedding_candidates,
    }
    for layer, targets in SPAN_LAYERS.items():
        observe = observers.get(layer)
        if layer.startswith("suites."):
            observe = suite_cases(layer)
        for module, qualname in targets:
            owner, attr = _resolve(module, qualname)
            _install(owner, attr, tracer.span_wrapper(layer, getattr(owner, attr), observe))

    serial = sys.modules[SERIAL_MODULE]

    def dumped(text):
        counts["serial.dump.bytes"] += len(text.encode("utf-8"))

    for attr, fn in list(vars(serial).items()):
        if not inspect.isfunction(fn) or fn.__module__ != SERIAL_MODULE or attr.startswith("_"):
            continue
        if attr == "dumps_canonical":
            _install(serial, attr, tracer.span_wrapper("serial.dump", fn, dumped))
        elif attr.endswith("_to_json"):
            _install(serial, attr, tracer.span_wrapper("serial.dump", fn))
        elif attr.endswith("_from_json"):
            _install(serial, attr, tracer.span_wrapper("serial.load", fn))

    for layer, targets in COUNT_LAYERS.items():
        for module, qualname in targets:
            owner, attr = _resolve(module, qualname)
            _install(owner, attr, tracer.count_wrapper(layer, getattr(owner, attr)))
