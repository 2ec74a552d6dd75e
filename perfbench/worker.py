"""One workload process: import, generate inputs, run rounds, report.

Started by ``run.py`` in a fresh interpreter from the root of a checkout,
with numpy's thread pools pinned to one.  It imports ``bibounds`` from the
checkout's ``src`` only, generates its inputs from the seed, prints
``ready`` (the end of set-up), then, unless ``--setup-only``, runs rounds of
the workload's op list in a closed loop: each op starts when the previous
one has finished.  The last line of stdout is one JSON record.

With ``--trace 1`` the rounds run untraced first.  Then rounds 1 and 2
run again, untraced and traced (with the wrappers of ``spans.py``) in
turn, TRACE_PASSES times each, so tracing overhead compares the same
inputs at the same point of the process's life.

About every quarter second, between ops, a fixed pure-Python loop gauges
how fast the machine runs at that moment (see ``speed_scale``); every time
the worker reports is scaled by the gauges on either side of it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import workloads

MIN_ROUNDS = 3
# Round 0 carries first-call warm-up; the traced run uses the rounds after it.
TRACED_ROUNDS = (1, 2)
TRACE_PASSES = 2
# What the reference loop takes on a quiet machine; scaled times are
# seconds at that speed.
REFERENCE_NOMINAL_S = 0.005
REFERENCE_STEPS = 500
GAUGE_EVERY_S = 0.25


def speed_scale() -> float:
    """REFERENCE_NOMINAL_S over the time a fixed Fraction loop takes now.

    Other tenants of a shared machine slow all code alike, by up to 2x,
    for seconds to minutes.  The loop is benchmark code that no change to
    the program can touch, so multiplying a time measured next to it by
    this scale removes the machine's current speed and keeps the program's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(REFERENCE_STEPS):
            x = x * Fraction(7, 5) / Fraction(7, 5) + Fraction(1, i + 2) - Fraction(1, i + 2)
        return REFERENCE_NOMINAL_S / (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def _import_bibounds():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import bibounds
    import bibounds.cli

    if not os.path.abspath(bibounds.__file__).startswith(src + os.sep):
        raise ImportError(f"bibounds imported from {bibounds.__file__}, not {src}")
    return bibounds


def _call(bibounds, op):
    """Run one op; return (outcome, seconds).

    The timed region is the program call alone, never the invariant check.
    A ``SystemExit`` from the CLI (argparse's own exits) becomes its exit
    code, as it would for a real invocation.
    """
    if op.call[0] == "cli":
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = bibounds.cli.main(list(op.call[1]))
            except SystemExit as exc:
                code = exc.code
        return (code, out.getvalue()), time.perf_counter() - start
    _, name, params = op.call
    start = time.perf_counter()
    pair = workloads.pair_from(bibounds, params)
    if name == "end_to_end":
        result = bibounds.end_to_end(pair, params["seed"], mode=params["mode"])
    else:
        result = bibounds.check_bounds_random(pair, params["seed"], params["n"])
    return result, time.perf_counter() - start


def _run_op(bibounds, op, stats):
    """Run and check one op; record its verdict and return its latency in ms."""
    start = time.perf_counter()
    try:
        outcome, seconds = _call(bibounds, op)
        if op.call[0] == "cli":
            workloads.check_cli(op, *outcome)
        else:
            workloads.check_api(op, outcome)
        ok, why, known = True, None, False
    except Exception as exc:  # an op that raises is scored, never fatal
        seconds = time.perf_counter() - start
        ok, why = False, "".join(traceback.format_exception_only(exc)).strip()
        known = workloads.is_known_defect(op, exc)
    stats["attempted"] += 1
    if ok:
        stats["ok"] += 1
    elif known:
        stats["probe_misses"][op.family] = stats["probe_misses"].get(op.family, 0) + 1
    else:
        stats["failed"] += 1
        if len(stats["failures"]) < 5:
            stats["failures"].append(f"{op.family} {op.call[1]}: {why}")
    return seconds * 1000.0


def _run_round(bibounds, ops, stats):
    """Run one round; record its scaled wall time and scaled op latencies.

    The round is cut into segments of about GAUGE_EVERY_S, each scaled by
    the mean of the ``speed_scale()`` gauges taken just before and after it.
    Gauging happens between ops, outside every timed region.
    """
    latencies, round_s, pending = [], 0.0, []
    before = speed_scale()
    stats["scale"].append(before)
    start = time.perf_counter()
    for index, op in enumerate(ops):
        pending.append(_run_op(bibounds, op, stats))
        elapsed = time.perf_counter() - start
        if elapsed >= GAUGE_EVERY_S or index == len(ops) - 1:
            after = speed_scale()
            stats["scale"].append(after)
            scale = (before + after) / 2
            round_s += elapsed * scale
            latencies += [ms * scale for ms in pending]
            pending, before = [], after
            start = time.perf_counter()
    stats["latency_ms"].append(latencies)
    stats["round_s"].append(round_s)
    return round_s


def _new_stats():
    return {"attempted": 0, "ok": 0, "failed": 0, "failures": [],
            "probe_misses": {}, "latency_ms": [], "round_s": [], "scale": []}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bibounds = _import_bibounds()
    # Set-up ends with the first round's inputs; later rounds are generated
    # between rounds, outside the timed region.
    first = workloads.make_round(args.workload, args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Untraced rounds fill the window (with --trace 1, half of it).
    stats = _new_stats()
    window = args.seconds / 2 if args.trace else args.seconds
    began = time.perf_counter()
    index = 0
    ops = first
    while index < MIN_ROUNDS or time.perf_counter() - began < window:
        _run_round(bibounds, ops, stats)
        index += 1
        ops = workloads.make_round(args.workload, args.seed, index)
    stats["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        import spans

        tracer = spans.Tracer()
        inputs = [workloads.make_round(args.workload, args.seed, i)
                  for i in TRACED_ROUNDS]
        untraced_s = traced_s = 0.0
        gauges = []
        for _ in range(TRACE_PASSES):
            untraced_s += sum(_run_round(bibounds, ops, stats) for ops in inputs)
            mark = len(stats["scale"])
            tracer.install()
            traced_s += sum(_run_round(bibounds, ops, stats) for ops in inputs)
            tracer.uninstall()
            gauges += stats["scale"][mark:]
        scale = statistics.mean(gauges)
        stats["layers"] = {
            name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in spans.layer_metrics(
                tracer.reduce(), tracer.qcomplex_ops,
                TRACE_PASSES * len(TRACED_ROUNDS)).items()}
        stats["trace_overhead"] = traced_s / untraced_s

    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
