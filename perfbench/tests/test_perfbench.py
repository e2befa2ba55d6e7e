"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

The oracle cross-checks import capalg from src/; everything else is the
benchmark's own code.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from jobs import Job, Outcome, judge, run_job  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def child_env(pythonpath: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    env["PYTHONHASHSEED"] = "0"
    return env


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_direct_children(self):
        spans = [
            ("a", 0.0, 10.0, -1, "j"),
            ("b", 1.0, 4.0, 0, "j"),
            ("c", 5.0, 9.0, 0, "j"),
            ("b", 6.0, 7.0, 2, "j"),
        ]
        got = self_times(spans)
        self.assertEqual(got["a"], {"calls": 1, "total_s": 10.0, "self_s": 3.0})
        self.assertEqual(got["c"], {"calls": 1, "total_s": 4.0, "self_s": 3.0})
        self.assertEqual(got["b"], {"calls": 2, "total_s": 4.0, "self_s": 4.0})

    def test_tracer_records_nested_spans(self):
        ticks = iter(range(100))
        tr = Tracer("job", clock=lambda: float(next(ticks)))

        def inner():
            return 1

        def outer():
            return traced_inner() + 1

        traced_inner = tr.span_wrapper("inner", inner)
        traced_outer = tr.span_wrapper("outer", outer)
        self.assertEqual(traced_outer(), 2)
        # clock reads: outer enters at 0, inner 1..2, outer leaves at 3
        spans = tr.summary()["spans"]
        self.assertEqual(spans["outer"]["self_s"], 2.0)
        self.assertEqual(spans["inner"]["self_s"], 1.0)
        self.assertEqual(tr.counts["outer.calls"], 1)


def fake_capalg(tmp: str, cli_source: str) -> tuple[Path, Path]:
    """A capalg package whose CLI is ``cli_source``; (its PYTHONPATH, a work dir)."""
    fake = Path(tmp) / "fake" / "capalg"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(cli_source)
    work = Path(tmp) / "work"
    work.mkdir()
    return fake.parent, work


class TimeLimitTest(unittest.TestCase):
    def test_timed_out_job_is_charged_its_limit(self):
        with tempfile.TemporaryDirectory() as tmp:
            fake, work = fake_capalg(tmp, "import time\ntime.sleep(60)\n")
            # a limit of 5 reference units of 0.1 s each: killed after 0.5 s
            job = Job("cli", ("monad-laws", "--out", "report.json"), limit=5.0)
            out = run_job(job, work, child_env(str(fake)), sys.executable,
                          BENCH / "child.py", job.limit * 0.1)
        out.ref = 0.1
        self.assertEqual(out.failure, "timeout")
        self.assertIsNone(out.exit_code)
        self.assertEqual(out.charged, 5.0)
        self.assertEqual(run.batch_time({0: [out]}), 5.0)
        self.assertEqual(run.seconds_summary({0: [out]}, 0.1)["batch_s"], 0.5)
        self.assertLess(out.elapsed, 0.5 + 5.0)

    def test_paused_time_is_left_out_of_the_job_and_its_limit(self):
        with tempfile.TemporaryDirectory() as tmp:
            # the job computes for 1 s of CPU time; it is paused twice for 0.4 s
            fake, work = fake_capalg(tmp, "import time\nwhile time.process_time() < 1.0:\n    pass\n")
            job = Job("cli", ("monad-laws", "--out", "report.json"))
            pauses = []
            due = iter([time.monotonic() + 0.2, time.monotonic() + 0.5])
            out = run_job(job, work, child_env(str(fake)), sys.executable, BENCH / "child.py",
                          1.6, pause_at=lambda: next(due, math.inf),
                          while_paused=lambda: pauses.append(time.sleep(0.4)))
        self.assertEqual(len(pauses), 2)
        self.assertEqual(out.failure, "no-report")   # not killed at 1.6 s, though it ran 1.8 s
        self.assertGreaterEqual(out.paused, 0.8)
        self.assertGreaterEqual(out.end - out.start, 1.8)
        self.assertAlmostEqual(out.elapsed, 1.0, delta=0.25)

    def test_failed_fast_job_is_charged_its_limit(self):
        job = Job("cli", ("full-xi",), limit=6.0)
        failure, wrong = judge(job, 2, "error: element name '0,0' clashes", None)
        self.assertEqual((failure, wrong), ("exit-2", False))

    def test_a_job_failing_in_any_run_is_charged_its_limit(self):
        job = Job("cli", ("full-xi",), limit=6.0)
        ok = Outcome(job, 0.0, 1.0, 0, 1, None, False, None, ref=0.5)
        bad = Outcome(job, 2.0, 2.1, 2, 1, "exit-2", False, None, ref=0.5)
        self.assertEqual(run.job_time([ok, ok]), 2.0)
        self.assertEqual(run.job_time([ok, bad, ok]), 6.0)


class KnownAnswerTest(unittest.TestCase):
    def corrupted(self):
        tables = oracle.lawful_tables(3, 2)
        for cell in range(len(oracle.free_cells(3, 2))):
            bad, verdict = workloads.corruption(tables, 0, cell, 0)
            if verdict == "fail":
                return bad
        self.fail("no unlawful one-cell corruption of table 0")

    def test_corrupted_input_with_verdict_fail_is_decided_correctly(self):
        bad = self.corrupted()
        self.assertFalse(oracle.is_lawful(bad))
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "bad.json").write_text(json.dumps(bad.to_json(["a", "b", "c"])))
            job = Job("cli", ("algebra-laws", "--structure", "bad.json", "--out", "report.json"),
                      expect_verdict="fail")
            out = run_job(job, work, child_env(str(ROOT / "src")), sys.executable,
                          BENCH / "child.py", 60.0)
        self.assertEqual(out.exit_code, 1)
        self.assertIsNone(out.failure)
        self.assertFalse(out.wrong_answer)
        self.assertTrue(run.judge_run([out]))

    def test_pass_on_a_corrupted_input_is_a_wrong_answer(self):
        job = Job("cli", ("algebra-laws",), expect_verdict="fail")
        self.assertEqual(judge(job, 0, "", b'{"verdict": "pass"}'), ("verdict", True))


class OracleTest(unittest.TestCase):
    """The oracle is independent code; check it against capalg once."""

    def test_lawful_tables_match_capalg_enumeration(self):
        from capalg.chain import make_chain
        from capalg.convexity import enumerate_convex_structures
        from capalg.serial import convex_to_json
        from capalg.spaces import FiniteSpace

        for n in (2, 3):
            names = ["a", "b", "c"][:n]
            ours = {json.dumps(t.to_json(names), sort_keys=True)
                    for t in oracle.lawful_tables(n, 2)}
            theirs = {json.dumps(convex_to_json(s), sort_keys=True)
                      for s in enumerate_convex_structures(FiniteSpace(names), make_chain(2))}
            self.assertEqual(ours, theirs)
        self.assertEqual(len(oracle.lawful_tables(3, 2)), 36)

    def test_models_match_capalg_constructors(self):
        from capalg.biconvex import chain_model, cube_structure, diamond_structure
        from capalg.chain import make_chain
        from capalg.serial import biconvex_to_json, cube_to_json

        for k in (1, 2, 3):
            chain = make_chain(k)
            self.assertEqual(oracle.chain_model_json(k), biconvex_to_json(chain_model(chain)))
            self.assertEqual(oracle.diamond_json(k), biconvex_to_json(diamond_structure(chain)))
            for phis in ([p, q] for p in oracle.monotone_phis(k) for q in oracle.monotone_phis(k)):
                cube = cube_structure(chain, [
                    {chain.levels[i]: chain.levels[v] for i, v in enumerate(p)} for p in phis
                ])
                self.assertEqual(oracle.cube_json(k, phis), cube_to_json(cube))


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs_and_jobs(self):
        for name, (build, pool) in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                runs = []
                for sub in ("one", "two"):
                    inputs = Path(tmp) / sub / "inputs"
                    jobs = build(random.Random(7), workloads.writer(inputs))
                    files = {p.name: p.read_bytes() for p in inputs.iterdir()}
                    runs.append((jobs, files))
                self.assertEqual(runs[0], runs[1], name)
                drawable = {j.key for j in pool(workloads.writer(Path(tmp) / "pool" / "inputs"))}
                for job in runs[0][0]:
                    self.assertTrue(job.defect or job.key in drawable, job.key)
                self.assertEqual(drawable - set(run.load_digests()), set(), name)


class BenchmarkFileTest(unittest.TestCase):
    def test_declared_metrics_are_the_ones_reported(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in bench[key]}, units)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
