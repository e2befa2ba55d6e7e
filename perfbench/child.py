"""Run one benchmark job in this (fresh) interpreter.

    python3 child.py [--trace OUT --t0 T --job NAME] cli <capalg arguments>
    python3 child.py [--trace OUT --t0 T --job NAME] suite <suite> --space P --chain K --out R

``cli`` calls ``capalg.cli.main`` exactly as ``python -m capalg.cli`` does.
``suite`` loads a space file, calls the named function of
``capalg.suites`` and writes its canonical report to R; the exit code is
0 when the suite passed and 1 otherwise.  With ``--trace`` the layer
wrappers of tracer.py are installed first, and on exit (or on SIGTERM,
which the benchmark sends at the job's time limit) the per-layer summary
is written to OUT as JSON.  ``--t0`` is the parent's CLOCK_MONOTONIC
reading when it started this process; it gives the start-up time.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def _run_suite(argv: list[str]) -> int:
    from capalg import serial, suites
    from capalg.chain import make_chain

    name, rest = argv[0], argv[1:]
    opts = dict(zip(rest[::2], rest[1::2]))
    with open(opts["--space"], encoding="utf-8") as fh:
        space = serial.space_from_json(json.load(fh))
    report = getattr(suites, name)(space, make_chain(int(opts["--chain"])))
    with open(opts["--out"], "w", encoding="utf-8") as fh:
        fh.write(serial.dumps_canonical(report.to_json()))
    print(f"{name}: {report.cases} cases, {len(report.findings)} failures")
    print(f"verdict: {'pass' if report.passed else 'fail'}")
    return 0 if report.passed else 1


def _run_cli(argv: list[str]) -> int:
    from capalg.cli import main
    return main(argv)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, t0, job = argv[1], float(argv[3]), argv[5]
        argv = argv[6:]
    kind, rest = argv[0], argv[1:]
    run = {"cli": _run_cli, "suite": _run_suite}[kind]
    if trace_out is None:
        return run(rest)

    t_install = time.monotonic()
    import capalg.cli
    import tracer as tracing

    tr = tracing.Tracer(job)
    tracing.install(tr)
    install_s = time.monotonic() - t_install
    entry: list[float] = []

    def mark_entry(fn):
        def handler(*args, **kwargs):
            if not entry:
                entry.append(time.monotonic())
            return fn(*args, **kwargs)
        return handler

    handlers = capalg.cli._HANDLERS
    for key in list(handlers):
        handlers[key] = mark_entry(handlers[key])

    def write_trace() -> None:
        summary = tr.summary()
        summary["install_s"] = install_s
        if entry:
            summary["startup_s"] = entry[0] - t0 - install_s
        partial = trace_out + ".partial"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        os.replace(partial, trace_out)   # a kill mid-write leaves no torn trace

    def on_term(signum, frame):
        write_trace()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    if kind == "suite":
        entry.append(time.monotonic())
    try:
        return run(rest)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        write_trace()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
