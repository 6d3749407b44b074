#!/usr/bin/env python3
"""Layered benchmark of the seeded-tree spatial join library.

Run from the repository root::

    python3 perfbench/run.py --workload cold-join --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --describe    # metric catalog and layer map
    python3 perfbench/run.py --manifest    # the BENCHMARK.json it implies

``--trace 0`` runs the workload for ``--seconds`` with tracing off and
prints the end-to-end metrics. ``--trace 1`` runs an untraced pass for
half that time, then a traced pass of exactly the same operations,
requires both to produce identical pairs and CostSummary, and prints the
per-layer metrics; its spans go to ``.perfbench/trace-<workload>-<seed>.json``.

Every answer is checked against a brute-force oracle. The last line on
stdout is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the seed and execution mode.
Exit status: 0 measured and correct, 1 a wrong answer or a workload that
did not exercise its mechanism, 2 refused to run.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

import catalog

ROOT = Path(__file__).resolve().parent.parent
RUNNERS = {
    catalog.COLD: ("library", "cold_join"),
    catalog.WARM: ("library", "warm_resident"),
    catalog.SERVICE: ("service_mixed", "service_mixed"),
}
#: How long the resource tracker gets to exit before it is killed.
_TRACKER_GRACE_S = 10.0


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The first shared-memory segment the worker pool publishes starts the
    tracker as a separate process that, left alone, exits only some time
    after this one does. Closing its pipe makes it exit; it is reaped
    here so that no process of the run outlives the run. Does nothing if
    the tracker was never started or is already stopped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + _TRACKER_GRACE_S
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)  # it ignores SIGTERM
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


# Registered before the library is imported, so at interpreter exit, on
# every path out of main(), it runs after the library's own exit hooks,
# which may still unlink segments through the tracker.
atexit.register(_stop_resource_tracker)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the metric catalog and exit")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json the catalog implies")
    args = parser.parse_args(argv)
    if not (args.describe or args.manifest or args.workload):
        parser.error("--workload is required")
    return args


def _refusal() -> str | None:
    """Why the benchmark cannot measure the default mode here, if so."""
    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        # Pool workers do not receive every switch, so a set variable
        # would run parent and workers in different modes.
        return (f"refusing to run with {', '.join(switches)} set: the "
                f"benchmark measures the default execution mode")
    if not (ROOT / "src" / "repro").is_dir():
        return f"no library sources under {ROOT / 'src'}"
    return catalog.check_manifest(ROOT / "BENCHMARK.json")


def _environment(args) -> dict:
    import numpy
    from repro.kernels import BACKEND, batch_enabled, kernels_enabled

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernels_enabled": kernels_enabled(),
        "batch_enabled": batch_enabled(), "backend": BACKEND,
        "numpy": numpy.__version__, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------- #


def _emit(env: dict, errors: list[str], correct: bool, attempted: int,
          failed: int, values: dict[str, float]) -> None:
    print(json.dumps({"run": env, "errors": errors}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": catalog.UNITS[name]}
            for name, value in values.items()
        },
    }))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.describe:
        print(catalog.describe())
        return 0
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    refusal = _refusal()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import Budget
    from probes import GATE_TARGETS, TRACE_TARGETS, Probe
    from report import (
        end_to_end,
        identity_problems,
        per_layer,
        vacuity_problems,
    )
    from repro.parallel import shutdown_default_pools

    module, func = RUNNERS[args.workload]
    runner = getattr(importlib.import_module(module), func)
    env = _environment(args)
    try:
        if args.trace == 0:
            with Probe(GATE_TARGETS, spans=False) as gate:
                out = runner(args.seed, Budget(seconds=args.seconds), gate)
            passes = [out]
            problems = vacuity_problems(args.workload, out, gate)
            values = end_to_end(out)
            env["host_factor"] = out.host_factor()
        else:
            with Probe(GATE_TARGETS, spans=False) as gate:
                plain = runner(args.seed, Budget(seconds=args.seconds / 2),
                               gate)
            with Probe(TRACE_TARGETS, spans=True) as probe:
                traced = runner(args.seed, Budget(plan=plain.plan), probe)
            passes = [plain, traced]
            problems = (vacuity_problems(args.workload, plain, gate)
                        + vacuity_problems(args.workload, traced, probe)
                        + identity_problems(plain, traced))
            values = per_layer(plain, traced, probe)
            _write_spans(args, env, probe, values)
    finally:
        shutdown_default_pools()
    correct = not problems and not any(p.wrong for p in passes)
    _emit(env, [e for p in passes for e in p.errors] + problems, correct,
          sum(p.attempted for p in passes), sum(p.failed for p in passes),
          values)
    return 0 if correct else 1


def _write_spans(args, env: dict, probe, values: dict) -> None:
    target = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps({
        "run": env,
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": probe.span_records(),
        "per_layer": values,
    }))


if __name__ == "__main__":
    sys.exit(main())
