"""The bibounds benchmark: one workload, one seed, one JSON verdict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 20 --trace 0

The workload runs in a fresh single-threaded interpreter (``worker.py``)
that imports ``bibounds`` from ``src/`` and issues ops in a closed loop.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Workloads, metrics and invariants are
described in ``perfbench/README.md``; names, units and bounds are in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed over this many fresh interpreters.  Each one follows a
# reference start that imports what bibounds imports from outside itself,
# and is scaled by REFERENCE_START_NOMINAL_S over that start's time: load
# from other tenants slows process start-up (spawning, reading and linking
# modules) more than the Fraction gauge shows.
SETUP_STARTS = 12
REFERENCE_START = ("import argparse, cmath, csv, dataclasses, fractions, json, random;"
                   " import numpy; print('ready', flush=True)")
REFERENCE_START_NOMINAL_S = 0.1
IMPORTTIME_STARTS = 3
SETUP_TIMEOUT_S = 120
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    # A user's config file would change the CLI's defaults (order, samples,
    # output format), and with them the work and the output of every op.
    env.pop("BIBOUNDS_CONFIG", None)
    return env


def _worker_argv(args, *extra) -> list:
    # -E: ignore PYTHONPATH and friends, so only the checkout's src is used.
    return [sys.executable, "-E", os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


@contextlib.contextmanager
def _worker(argv):
    """Spawn a worker; yield (process, seconds until it printed ready).

    The process is killed and reaped on the way out, whatever happened.
    """
    start = time.perf_counter()
    # Unbuffered: communicate() reads the pipe's descriptor directly, so a
    # buffered readline could swallow output that follows "ready".
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0,
                            env=_environment())
    try:
        line = proc.stdout.readline().decode()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker did not start")
        yield proc, ready
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def _output(proc, timeout) -> str:
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out.decode()


def _start_time(argv) -> float:
    """Seconds from spawning argv until it printed ready; it must exit 0."""
    with _worker(argv) as (proc, ready):
        _output(proc, SETUP_TIMEOUT_S)
    return ready


def _setup_times(args) -> list:
    """Scaled set-up times of SETUP_STARTS // 2 fresh workers."""
    times = []
    for _ in range(SETUP_STARTS // 2):
        reference = _start_time([sys.executable, "-E", "-c", REFERENCE_START])
        ready = _start_time(_worker_argv(args, "--setup-only"))
        times.append(ready * REFERENCE_START_NOMINAL_S / reference)
    return times


def _parse_importtime(text: str) -> tuple:
    """(bibounds seconds without numpy, numpy seconds) from -X importtime."""
    total_us = numpy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        top_level = not name[1:].startswith(" ")
        if top_level and name.strip().startswith("bibounds"):
            total_us += int(cumulative)
        if name.strip() == "numpy":
            numpy_us = int(cumulative)
    return (total_us - numpy_us) / 1e6, numpy_us / 1e6


def _import_times() -> tuple:
    """Scaled (bibounds, numpy) import seconds, medians of IMPORTTIME_STARTS."""
    code = "import sys; sys.path.insert(0, 'src'); import bibounds.cli"
    samples = []
    for _ in range(IMPORTTIME_STARTS):
        scale = worker.speed_scale()
        proc = subprocess.run([sys.executable, "-E", "-X", "importtime", "-c", code],
                              capture_output=True, text=True, env=_environment(),
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append([t * scale for t in _parse_importtime(proc.stderr)])
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bibounds", "__init__.py")):
        print("run from the root of a bibounds checkout: src/bibounds is missing",
              file=sys.stderr)
        return 2

    # A terminated run still reaps its worker, through the finally clauses.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Half the set-up starts run before the workload and half after it, so
    # one burst of load from other tenants does not cover them all.  A
    # traced run reports no setup_s and times no set-up.
    setup = [] if args.trace else _setup_times(args)
    with _worker(_worker_argv(args)) as (proc, _):
        record = json.loads(_output(proc, args.seconds + SETUP_TIMEOUT_S).splitlines()[-1])
    if not args.trace:
        setup += _setup_times(args)

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        import_bibounds_s, import_numpy_s = _import_times()
        layers = record["layers"]
        layers["import.bibounds_s"] = (import_bibounds_s, "s")
        layers["import.numpy_s"] = (import_numpy_s, "s")
        layers["trace.overhead"] = (record["trace_overhead"], "ratio")
        metrics = {name: _metric(*pair) for name, pair in layers.items()}
    else:
        scales = record["scale"]
        latency = [ms for ops in record["latency_ms"] for ms in ops]
        twentieths = statistics.quantiles(latency, n=20)
        metrics = {
            "run_s": _metric(statistics.median(record["round_s"]), "s"),
            "op_p50_ms": _metric(twentieths[9], "ms"),
            "op_p90_ms": _metric(twentieths[17], "ms"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mib": _metric(record["peak_rss_mib"], "MiB"),
            "success_rate": _metric(record["ok"] / attempted, "ratio"),
        }

    for failure in record["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    if not args.trace:
        print(f"op percentiles over {len(latency)} ops; machine speed scale "
              f"{statistics.median(scales):.3f} (median of {len(scales)} gauges)")
    print(f"{args.workload} seed {args.seed}: {len(record['round_s'])} rounds, "
          f"{attempted} ops, {failed} failed, error_rate "
          f"{1 - record['ok'] / attempted:.4f}, probe misses "
          f"{json.dumps(record['probe_misses'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
