"""One benchmark job: a capalg CLI command or suite call in a fresh interpreter.

The parent starts the job, blocks in wait4 until it ends (which also
gives the child's peak RSS), and kills its process group when the job's
time limit passes: SIGTERM first, so a traced job can write its trace,
then SIGKILL after a short grace.  Each job is judged against a known
answer fixed by the benchmark, never by capalg.

Times are kept in seconds and also in reference units: one unit is the
wall time of reference.py measured beside the job on the same machine,
so that the speed of a shared machine, which drifts by a third or more
within seconds, divides out.  To measure beside a long job too, the
parent may pause it (SIGSTOP to its process group), run the reference
and resume it (SIGCONT); the paused time is not part of the job's time.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPORT = "report.json"   # every job writes its --out report here, relative to the work dir
KILL_GRACE_S = 2.0


@dataclass(frozen=True)
class Job:
    """A command with its known answer.

    ``argv`` is what follows ``python -m capalg.cli`` (kind "cli") or
    ``child.py suite`` (kind "suite").  ``defect`` names the baseline
    defect for jobs that are known to fail today.  ``limit`` is the time
    limit in reference units.
    """

    kind: str
    argv: tuple[str, ...]
    expect_verdict: str = "pass"
    limit: float = 400.0
    expect_found: bool | None = None
    defect: str | None = None

    @property
    def expect_exit(self) -> int:
        return 0 if self.expect_verdict == "pass" else 1

    @property
    def key(self) -> str:
        """Stable identity of the job: its command line, relative paths only."""
        return " ".join((self.kind,) + self.argv)


@dataclass
class Outcome:
    job: Job
    start: float
    end: float
    exit_code: int | None      # None when the job was killed at its limit
    rss_kb: int
    failure: str | None        # None when the job met its known answer
    wrong_answer: bool         # a verdict was produced and contradicts the known answer
    digest: str | None         # digest of the --out report, when one was written
    paused: float = 0.0        # seconds the job was held stopped between start and end
    ref: float = float("nan")  # seconds of one reference unit around this job

    @property
    def elapsed(self) -> float:
        return self.end - self.start - self.paused

    @property
    def charged(self) -> float:
        """Time to verdict in reference units; a failed job is charged its full limit."""
        return self.elapsed / self.ref if self.failure is None else self.job.limit


def report_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def judge(job: Job, exit_code: int | None, stderr: str, report: bytes | None):
    """(failure reason or None, wrong_answer) for one finished job."""
    if exit_code is None:
        return "timeout", False
    if "Traceback (most recent call last)" in stderr:
        return "traceback", False
    if exit_code not in (0, 1):
        return f"exit-{exit_code}", False
    if report is None:
        return "no-report", False
    try:
        doc = json.loads(report)
    except ValueError:
        return "bad-report", False
    verdict = doc.get("verdict") if job.kind == "cli" else ("pass" if doc.get("passed") else "fail")
    if verdict != job.expect_verdict or exit_code != job.expect_exit:
        return "verdict", True
    if job.expect_found is not None and doc.get("embedding", {}).get("found") != job.expect_found:
        return "check", True
    return None, False


def command(job: Job, python: str, child: Path, trace_out: Path | None, t0: float) -> list[str]:
    if trace_out is not None:
        return [python, str(child), "--trace", str(trace_out), "--t0", repr(t0),
                "--job", job.key, job.kind, *job.argv]
    if job.kind == "cli":
        return [python, "-m", "capalg.cli", *job.argv]
    return [python, str(child), job.kind, *job.argv]


def run_reference(script: Path, workdir: Path, env: dict, python: str) -> tuple[float, float]:
    """Run the reference job once; its (start, end) on the monotonic clock."""
    start = time.monotonic()
    subprocess.run([python, str(script)], cwd=workdir, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return start, time.monotonic()


def run_job(job: Job, workdir: Path, env: dict, python: str, child: Path,
            limit_s: float, trace_out: Path | None = None,
            pause_at: Callable[[], float] | None = None,
            while_paused: Callable[[], object] = lambda: None) -> Outcome:
    """Run ``job`` in ``workdir`` and judge it; it is killed after ``limit_s`` seconds.

    With ``pause_at``, the job is stopped when the monotonic clock reaches
    ``pause_at()``, ``while_paused()`` runs, and the job resumes; the time
    limit and the job's time leave these pauses out.
    """
    report_path = workdir / REPORT
    report_path.unlink(missing_ok=True)
    with open(workdir / "job.out", "wb") as out, open(workdir / "job.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            command(job, python, child, trace_out, start),
            cwd=workdir, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        done = threading.Event()
        lock = threading.Lock()
        killed = []
        errors: list[BaseException] = []
        paused = [0.0]

        def signal_job(sig: int) -> bool:
            with lock:
                if done.is_set():
                    return False
                os.killpg(proc.pid, sig)
                return True

        def stop() -> None:
            while True:
                limit_at = start + paused[0] + limit_s
                due = pause_at() if pause_at is not None else limit_at
                if done.wait(max(0.0, min(due, limit_at) - time.monotonic())):
                    return
                if time.monotonic() >= limit_at:
                    break
                if not signal_job(signal.SIGSTOP):
                    return
                held = time.monotonic()
                try:
                    while_paused()
                except BaseException as exc:   # no job may outlive its monitor
                    errors.append(exc)
                    signal_job(signal.SIGKILL)
                    return
                finally:
                    signal_job(signal.SIGCONT)
                    paused[0] += time.monotonic() - held
            for sig, grace in ((signal.SIGTERM, KILL_GRACE_S), (signal.SIGKILL, None)):
                with lock:
                    if done.is_set():
                        return
                    killed.append(sig)
                    os.killpg(proc.pid, sig)
                if grace is not None and done.wait(grace):
                    return

        killer = threading.Thread(target=stop, daemon=True)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            with lock:
                done.set()
            killer.join()
        if errors:
            raise errors[0]
        proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = None if killed else proc.returncode
    stderr = (workdir / "job.err").read_text(encoding="utf-8", errors="replace")
    report = report_path.read_bytes() if report_path.exists() else None
    failure, wrong = judge(job, exit_code, stderr, report)
    return Outcome(
        job=job,
        start=start,
        end=end,
        exit_code=exit_code,
        rss_kb=usage.ru_maxrss,
        failure=failure,
        wrong_answer=wrong,
        digest=report_digest(report) if report is not None else None,
        paused=paused[0],
    )
