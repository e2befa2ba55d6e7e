"""capalg benchmark: batches of real checker jobs, closed loop, one client.

    python3 perfbench/run.py --workload monad|fullmap|convex [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Each job is one ``capalg.cli`` command or one ``capalg.suites`` call in
a fresh interpreter (module caches start cold, bytecode is compiled
beforehand as an installed package would be).  The parent starts a job,
waits for its verdict and starts the next; nothing runs in parallel.
Inputs are generated from --seed before the first timed job and every
job is judged against a known answer fixed here, not by capalg.

Times are reported in reference units: reference.py, fixed pure-Python
work in a fresh interpreter, runs at the start, at the end and every
REF_EVERY_S in between, pausing a long job if need be, and each job's wall
time (pauses left out) is divided by the mean of the reference runs
just before, during and just after it.  The machine this was built on
is a share of a busy host whose speed drifts by a third within seconds;
the quotient drifts far less.  The summary also prints the same
figures in seconds.

With --trace 0 the run executes the workload's batch once, then repeats
its passing jobs until --seconds are spent, always picking, among the
jobs that still fit, the one with the fewest runs for the square root of
its time, so that long jobs, which weigh most in the batch's sum, get
the most runs, and the runs of every job are spread over the whole run;
short jobs, whose medians set verdict_ref.p50, first get SHORT_RUNS even
if that takes longer than --seconds.  A job's time is the median over
its runs (a failed job is charged its limit), batch_ref is the sum of
those times over the batch and verdict_ref.p50 their median; the
benchmark's own work between jobs is not counted.  ``attempted`` counts the batch's jobs; a job fails when any of
its runs does.

With --trace 1 it runs the batch once untraced and once with tracer.py's
wrappers installed in every job, and reports the per-layer metrics in
seconds and counts; per-layer counts cover the jobs that ran to
completion, so they repeat exactly for a given seed.  A layer a workload
never enters reads 0.  The last line of standard output is one JSON
object; a stamped copy of the result, with every job's outcome, is
written under .perfbench/results/.  ``--workload all`` makes both runs
for every workload and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from jobs import Job, Outcome, run_job, run_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

# set-up is repeated until this much time is spent (within the repeat bounds)
SETUP_BUDGET_S = 0.5
SETUP_REPEATS = (5, 200)
RUN_DEADLINE_S = 165.0   # a run must end within 180 s; no job may run past this
REF_EVERY_S = 2.5        # the longest stretch of job time between two reference runs
SHORT_S = 1.0            # a job quicker than this first gets SHORT_RUNS runs, then
SHORT_RUNS = 4           # the runs of a job SHORT_S long
CALIBRATION_REFS = 3     # reference runs before the first job

END_TO_END_UNITS = {
    "batch_ref": "ref",
    "verdict_ref.p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
    "report_match_ratio": "ratio",
}


PER_LAYER_UNITS = {
    "chain.level_cmp.calls": "count",
    "chain.level_hash.calls": "count",
    "chain.ops.calls": "count",
    "spaces.hyperspace.self_s": "s",
    "capacity.mult.calls": "count",
    "capacity.mult.self_s": "s",
    "capacity.pushforward.calls": "count",
    "capacity.pushforward.self_s": "s",
    "capacity.value.calls": "count",
    "capacity.validate.self_s": "s",
    "capacity.kappa_dual.calls": "count",
    "capacity.classify.self_s": "s",
    "capacity.enumerate.self_s": "s",
    "convexity.check_ic_axioms.self_s": "s",
    "convexity.check_algebra_laws.self_s": "s",
    "convexity.structure_map.self_s": "s",
    "convexity.enumerate.self_s": "s",
    "biconvex.preimage_search.calls": "count",
    "biconvex.preimage_search.self_s": "s",
    "biconvex.preimage_search.found_ratio": "ratio",
    "biconvex.structure_map_full.calls": "count",
    "biconvex.structure_map_full.self_s": "s",
    "biconvex.structure_map_full.law_errors": "count",
    "biconvex.closed_forms.self_s": "s",
    "biconvex.check_biconvex.self_s": "s",
    "biconvex.embedding_search.self_s": "s",
    "biconvex.embedding_search.candidates": "count",
    "serial.dump.self_s": "s",
    "serial.dump.bytes": "bytes",
    "serial.load.self_s": "s",
    "suites.g_monad_suite.s": "s",
    "suites.g_monad_suite.cases": "count",
    "suites.capacity_monad_suite.s": "s",
    "suites.capacity_monad_suite.cases": "count",
    "suites.convex_roundtrip_suite.s": "s",
    "suites.convex_roundtrip_suite.cases": "count",
    "cli.startup_s": "s",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
    "cli.exit.timeout": "count",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ metrics


Runs = dict[int, list[Outcome]]   # job index in the batch -> its runs in this benchmark run


def job_time(runs: list[Outcome]) -> float:
    """A job's time to verdict in reference units: the median over its runs.

    A job that failed in any run is charged its limit.
    """
    if any(o.failure is not None for o in runs):
        return runs[0].job.limit
    return statistics.median(o.charged for o in runs)


def batch_time(runs: Runs) -> float:
    """Time from the batch's first start to its last verdict, from each job's median."""
    return sum(job_time(r) for r in runs.values())


def end_to_end(runs: Runs, setup_s: float, digests: dict) -> dict:
    outcomes = [o for r in runs.values() for o in r]
    # a job killed at its limit has a footprint that only measures how far it got
    finished = [o for o in outcomes if o.exit_code is not None]
    referenced = [r for r in runs.values() if r[0].job.key in digests]
    return {
        "batch_ref": batch_time(runs),
        "verdict_ref.p50": statistics.median(job_time(r) for r in runs.values()),
        "setup_s": setup_s,
        "peak_rss_mb": max(o.rss_kb for o in finished) / 1024,
        "passed_ratio": sum(all(o.failure is None for o in r) for r in runs.values()) / len(runs),
        "report_match_ratio": (
            sum(all(o.digest == digests[o.job.key] for o in r) for r in referenced)
            / len(referenced) if referenced else 1.0
        ),
    }


def report_drift(runs: Runs, digests: dict) -> int:
    """Jobs whose report bytes differ from their recorded reference."""
    return sum(
        any(o.digest is not None and o.digest != digests[o.job.key] for o in r)
        for r in runs.values() if r[0].job.key in digests
    )


def per_layer(traces: list[dict], traced: list[Outcome], overhead_s: float) -> dict:
    """Sum the per-job trace summaries into the declared per-layer metrics."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for t in traces:
        for name, agg in t["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k, v in agg.items():
                into[k] += v
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
    values: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = spans.get(layer, {}).get("self_s", 0.0)
        elif field == "s":
            values[name] = spans.get(layer, {}).get("total_s", 0.0)
        else:
            values[name] = counts.get(name, 0)
    searches = counts.get("biconvex.preimage_search.calls", 0)
    values["biconvex.preimage_search.found_ratio"] = (
        counts.get("biconvex.preimage_search.found", 0) / searches if searches else 0.0
    )
    values["biconvex.structure_map_full.law_errors"] = counts.get(
        "biconvex.structure_map_full.raised.LawViolationError", 0)
    startups = [t["startup_s"] for t in traces if "startup_s" in t]
    values["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    for code in ("0", "1", "2"):
        values[f"cli.exit.{code}"] = sum(str(o.exit_code) == code for o in traced)
    values["cli.exit.timeout"] = sum(o.exit_code is None for o in traced)
    values["trace.overhead_s"] = overhead_s
    return values


# -------------------------------------------------------------------- stamp


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(workload: str, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "capalg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------- run


class Runner:
    """Runs one workload's jobs, and the reference job, from a private work directory."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = WORK / f"run-{os.getpid()}-{workload}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.refs: list[tuple[float, float]] = []
        pycache = WORK / "pycache"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"   # set iteration order, hence call counts, repeat
        self.env["PYTHONPYCACHEPREFIX"] = str(pycache)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        sys.pycache_prefix = str(pycache)
        compileall.compile_dir(str(SRC / "capalg"), quiet=1)

    def setup(self) -> tuple[list[Job], float]:
        """Generate inputs and known answers; the median of several set-ups."""
        build, _ = workloads.WORKLOADS[self.workload]
        inputs = self.workdir / "inputs"
        times: list[float] = []
        least, most = SETUP_REPEATS
        while len(times) < least or (sum(times) < SETUP_BUDGET_S and len(times) < most):
            shutil.rmtree(inputs, ignore_errors=True)
            t = time.perf_counter()
            jobs = build(random.Random(self.seed), workloads.writer(inputs))
            times.append(time.perf_counter() - t)
        return jobs, statistics.median(times)

    def reference(self) -> None:
        self.refs.append(run_reference(HERE / "reference.py", self.workdir, self.env,
                                       sys.executable))

    def unit(self) -> float:
        """Seconds per reference unit so far in this run."""
        return statistics.median(end - start for start, end in self.refs)

    def calibrate(self) -> None:
        for _ in range(CALIBRATION_REFS):
            self.reference()

    def job(self, job: Job, trace_out: Path | None = None, pauses: bool = False) -> Outcome:
        """Run one job, after a reference run if the last one is REF_EVERY_S ago or more.

        With ``pauses`` the job is also paused for a reference run each
        REF_EVERY_S, so that a long job's time is measured against the
        machine's speed while it ran, not only at its ends.
        """
        if time.monotonic() - self.refs[-1][1] >= REF_EVERY_S:
            self.reference()
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise SystemExit(f"error: run deadline reached before job {job.key}")
        return run_job(job, self.workdir, self.env, sys.executable, HERE / "child.py",
                       min(job.limit * self.unit(), left), trace_out,
                       pause_at=self.next_reference if pauses else None,
                       while_paused=self.reference)

    def next_reference(self) -> float:
        return self.refs[-1][1] + REF_EVERY_S

    def normalise(self, outcomes: list[Outcome]) -> None:
        """Give each outcome the mean of the reference runs just before, during and after it."""
        for o in outcomes:
            before = max((r for r in self.refs if r[1] <= o.start), key=lambda r: r[1])
            after = min((r for r in self.refs if r[0] >= o.end), key=lambda r: r[0])
            around = [before, after] + [r for r in self.refs if o.start <= r[0] and r[1] <= o.end]
            o.ref = statistics.fmean(end - start for start, end in around)

    def batch(self, jobs: list[Job], trace_dir: Path | None = None,
              pauses: bool = False) -> list[Outcome]:
        outcomes = []
        for i, job in enumerate(jobs):
            trace_out = trace_dir / f"{i:03d}.json" if trace_dir is not None else None
            outcomes.append(self.job(job, trace_out, pauses))
        return outcomes

    def measure(self, jobs: list[Job], seconds: float) -> Runs:
        """Run the batch, then repeat passing jobs until ``seconds`` are spent.

        Among the jobs whose last run still fits, the next is the one with
        the fewest runs for the square root of its time: a job's share of
        the noise in the batch's sum falls as its runs grow, in proportion
        to its time squared, so this spreads the runs where they steady
        the sum most.  Jobs quicker than SHORT_S are cheap to repeat and
        their medians set verdict_ref.p50, so they get SHORT_RUNS runs
        first, even past ``seconds``, and count as SHORT_S long after
        that.  A failed job is charged its limit, so running it again
        would measure nothing.
        """
        start = time.monotonic()
        runs = {i: [o] for i, o in enumerate(self.batch(jobs, pauses=True))}

        def typical(i: int) -> float:
            return statistics.median(o.elapsed for o in runs[i])

        def short(i: int) -> bool:
            return typical(i) < SHORT_S and len(runs[i]) < SHORT_RUNS

        def need(i: int) -> tuple[bool, float]:
            return not short(i), len(runs[i]) / math.sqrt(max(typical(i), SHORT_S))

        while True:
            left = seconds - (time.monotonic() - start)
            fits = [i for i, r in runs.items() if r[-1].failure is None
                    and (short(i) or r[-1].end - r[-1].start <= left)]
            if not fits:
                break
            i = min(fits, key=need)
            runs[i].append(self.job(jobs[i], pauses=True))
        self.reference()
        self.normalise([o for r in runs.values() for o in r])
        return runs

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def judge_run(outcomes: list[Outcome]) -> bool:
    """Correct when no verdict contradicts its known answer and only known defects fail."""
    return not any(
        o.wrong_answer or (o.failure is not None and o.job.defect is None)
        for o in outcomes
    )


def seconds_summary(runs: Runs, unit: float) -> dict:
    """The end-to-end times in seconds: each job's median wall time, a failure its limit."""
    times = [
        r[0].job.limit * unit if any(o.failure is not None for o in r)
        else statistics.median(o.elapsed for o in r)
        for r in runs.values()
    ]
    return {"batch_s": sum(times), "verdict_s.p50": statistics.median(times), "ref_s": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    runner = Runner(workload, seed, deadline)
    digests = load_digests()
    try:
        jobs, setup_s = runner.setup()
        result: dict = {"stamp": stamp(workload, seed), "setup_s": setup_s}
        runner.calibrate()
        if trace:
            untraced = runner.batch(jobs)
            trace_dir = runner.workdir / "trace"
            trace_dir.mkdir()
            traced = runner.batch(jobs, trace_dir)
            runner.reference()
            runner.normalise(untraced + traced)
            paths = [trace_dir / f"{i:03d}.json" for i in range(len(traced))]
            summaries = [json.loads(p.read_text()) if p.exists() else None for p in paths]
            finished = [s for o, s in zip(traced, summaries) if s is not None and o.exit_code is not None]
            overhead = sum(o.elapsed for o in traced) - sum(o.elapsed for o in untraced)
            metrics = per_layer(finished, traced, overhead)
            units = PER_LAYER_UNITS
            runs = {i: [u, t] for i, (u, t) in enumerate(zip(untraced, traced))}
            result["traced_jobs"] = [describe(o) | {"trace": s} for o, s in zip(traced, summaries)]
        else:
            measuring = time.monotonic()
            runs = runner.measure(jobs, seconds)
            result["measured_s"] = time.monotonic() - measuring
            metrics = end_to_end(runs, setup_s, digests)
            units = END_TO_END_UNITS
            result["seconds"] = seconds_summary(runs, runner.unit())
            result["report_drift"] = report_drift(runs, digests)
            result["failed_ratio"] = 1 - metrics["passed_ratio"]
            result["samples"] = {r[0].job.key: len(r) for r in runs.values()}
        outcomes = [o for r in runs.values() for o in r]
        result["jobs"] = [describe(o) for o in outcomes]
        result["reference_runs"] = runner.refs
        result["line"] = {
            "correct": judge_run(outcomes),
            "attempted": len(runs),
            "failed": sum(any(o.failure is not None for o in r) for r in runs.values()),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return result
    finally:
        runner.close()


def describe(o: Outcome) -> dict:
    return {
        "job": o.job.key,
        "start": o.start,
        "elapsed_s": o.elapsed,
        "ref_s": o.ref,
        "exit": o.exit_code,
        "rss_mb": o.rss_kb / 1024,
        "failure": o.failure,
        "wrong_answer": o.wrong_answer,
        "defect": o.job.defect,
        "digest": o.digest,
    }


def print_summary(result: dict) -> None:
    s = result["stamp"]
    print(f"# {s['workload']} seed={s['seed']} commit={s['commit'][:12]} "
          f"src={s['source_sha256']} python={s['python']} nproc={s['nproc']} cpu={s['cpu']}")
    samples = result.get("samples", {})
    seen = set()
    for j in result["jobs"]:
        if j["job"] in seen:
            continue
        seen.add(j["job"])
        status = "ok" if j["failure"] is None else f"FAILED ({j['failure']})"
        print(f"#   {j['elapsed_s']:8.3f} s  x{samples.get(j['job'], 1):<3} {status:<20} {j['job']}")
    line = result["line"]
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if "report_drift" in result:
        for name, value in result["seconds"].items():
            print(f"# {name} = {value:.6g} s")
        print(f"# failed_ratio = {result['failed_ratio']:.6g} ratio "
              f"({line['failed']} of {line['attempted']} jobs)")
        print(f"# report_drift = {result['report_drift']} count")
        print("# times are each job's median over its samples (xN; first run's time shown)")
        print(f"# measured for {result['measured_s']:.1f} s")
    print(f"# correct = {line['correct']}")


def save(result: dict, trace: bool) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    s = result["stamp"]
    path = out / f"{s['workload']}-seed{s['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capalg" / "cli.py").is_file():
        print(f"error: no capalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # every workload, end to end and then traced
        plan = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in plan:
        deadline = time.monotonic() + RUN_DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, trace, deadline)
        save(result, trace)
        print_summary(result)
        results.append(result)
    if len(results) == 1:
        line = results[0]["line"]
    else:
        line = {
            "correct": all(r["line"]["correct"] for r in results),
            "attempted": sum(r["line"]["attempted"] for r in results),
            "failed": sum(r["line"]["failed"] for r in results),
            "metrics": {
                f"{r['stamp']['workload']}.{k}": v
                for r in results for k, v in r["line"]["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
