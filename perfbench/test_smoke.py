"""Smoke test of the benchmark: shrunken runs of every workload.

    python -m pytest perfbench/test_smoke.py

A one-second run still completes the minimum number of rounds, so every op
family runs and is checked.
"""

import json
import os
import subprocess
import sys

import pytest

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def test_every_metric_is_emitted_with_its_unit(runs):
    _, untraced, traced = runs
    for group, result in (("end_to_end", untraced), ("per_layer", traced)):
        wanted = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_no_failures_outside_the_probe_slice(runs):
    _, untraced, traced = runs
    for result in (untraced, traced):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


# Known defects that the probe ops of a workload show at the seed.
KNOWN_DEFECTS = {
    "audit-grid": "malformed inputs that do not give exit 1 without a traceback",
    "sweep-float": "the float sampler's constant term is not always exactly 1",
    # verify --mode float also fails for about 1 seed in 200, too rarely to
    # show in a one-second run.
}


def test_probe_ops_show_the_known_defects(runs):
    workload, untraced, _ = runs
    rate = untraced["metrics"]["success_rate"]["value"]
    if workload not in KNOWN_DEFECTS:
        assert rate == 1.0
        return
    assert rate < 1.0, f"{workload} probes all conform now: drop it from KNOWN_DEFECTS"
    pytest.xfail(KNOWN_DEFECTS[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_inputs(workload):
    first = workloads.make_round(workload, 1, 0)
    assert first == workloads.make_round(workload, 1, 0)
    assert first != workloads.make_round(workload, 2, 0)
    assert first != workloads.make_round(workload, 1, 1)


@pytest.fixture(scope="module")
def bibounds():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return worker._import_bibounds()
    finally:
        os.chdir(cwd)


def _score(bibounds, op):
    stats = worker._new_stats()
    worker._run_op(bibounds, op, stats)
    return stats


@pytest.mark.parametrize("argv", [["bound", "--help"], ["bound", "--no-such-flag"]])
def test_an_op_that_exits_is_scored_not_fatal(bibounds, argv):
    # --help ends in argparse's SystemExit(0); a bad flag in exit 1.
    stats = _score(bibounds, workloads.Op("bound", ("cli", argv)))
    assert (stats["attempted"], stats["ok"], stats["failed"]) == (1, 0, 1)


# verify --mode float seeds whose only failing check is a float tolerance.
@pytest.mark.parametrize("seed", [313302, 378735])
def test_float_verify_tolerance_misses_are_known(bibounds, seed):
    argv = ["verify", "--suite", "identities", "--mode", "float",
            "--seed", str(seed), "--samples", "30"]
    op = workloads.Op("verify.identities.float", ("cli", argv),
                      defect="float_verify_tolerance")
    stats = _score(bibounds, op)
    assert stats["failed"] == 0
    assert stats["probe_misses"] == {"verify.identities.float": 1}


def test_only_a_known_signature_is_a_probe_miss():
    e2e = workloads.Op("end_to_end.float", ("api", "end_to_end", {}),
                       defect="float_sampler_constant_term")
    verify = workloads.Op("verify.identities.float", ("cli", ["verify"]),
                          defect="float_verify_tolerance")
    sampler = ValueError("forward solve needs a transform with constant term 1")
    assert workloads.is_known_defect(e2e, sampler)
    assert not workloads.is_known_defect(e2e, ValueError("something else"))
    assert not workloads.is_known_defect(
        e2e, workloads.InvariantError("closed forms disagree"))
    assert not workloads.is_known_defect(
        workloads.Op("end_to_end.exact", e2e.call), sampler)
    assert workloads.is_known_defect(
        verify, workloads.VerifyFailed(3, ("series_ring_laws", "consistency_chain")))
    assert not workloads.is_known_defect(
        verify, workloads.VerifyFailed(3, ("series_ring_laws", "series_reversion")))
    assert not workloads.is_known_defect(verify, workloads.VerifyFailed(1, ()))
