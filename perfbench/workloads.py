"""Workload definitions: op generation from a seed, and per-op invariants.

An op is either one in-process ``bibounds.cli.main(argv)`` call (kind
``cli``) or one call into the public ``bibounds`` API for a feature the CLI
does not expose (kind ``api``).  A workload is a fixed op list, a *round*,
whose structure never changes; the seed only draws the parameters.  Round
``r`` of workload ``w`` under seed ``s`` draws from
``random.Random(f"{w}:{s}:{r}")``, so the same seed gives the same inputs.

Generation uses plain strings and tuples and does not import ``bibounds``:
the worker turns an op into a call at run time, inside the timed region.

Every op carries an invariant from the package README (see ``check_cli``
and ``check_api``).  A *probe* op exercises a defect documented in
``perfbench/README.md``.  A probe failure with that defect's signature (see
``is_known_defect``) is scored into ``success_rate`` but does not count as a
benchmark failure, so the known defects show at the seed and a fix shows as
a gain; any other failure of a probe counts like any failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction

TAGS = ("PP", "PM", "PL", "MM", "ML", "LL")

# Equal targets (B2 = B1 and D2 = D1 on both sides) and one skewed target.
EQUAL_PRESETS = ("caratheodory", "order:1/4", "order:1/3", "order:1/2")
SKEW_COEFFS = "2,1"

# Parameters are drawn from k/12 in [0, 1]: valid for every class kind and,
# with the targets above, free of degenerate pairings.
PARAM_DENOMINATOR = 12

AUDIT_GRID = "0:1:1/10"
AUDIT_POINTS = 11  # grid points per axis of AUDIT_GRID
FINE_SWEEP = ("--radial-steps", "17", "--phase-steps", "32")
RANDOM_CHECK_SAMPLES = 10_000
RATIO_SLACK = 1e-9


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``family`` groups ops for reporting; ``call`` is ``("cli", argv)`` or
    ``("api", name, params)``; ``defect`` names the known defect of a probe
    (a key of ``KNOWN_DEFECTS``).
    """

    family: str
    call: tuple
    defect: str | None = None


def _param(rng) -> str:
    return f"{rng.randint(0, PARAM_DENOMINATOR)}/{PARAM_DENOMINATOR}"


def _targets(rng, skewed: bool) -> dict:
    """Target description: equal presets on both sides, or a skewed psi."""
    if skewed:
        return {"phi": "caratheodory", "psi_coeffs": SKEW_COEFFS}
    preset = rng.choice(EQUAL_PRESETS)
    return {"phi": preset, "psi": preset}


def _target_flags(targets: dict) -> list:
    flags = ["--phi", targets["phi"]]
    if "psi_coeffs" in targets:
        flags += ["--psi-coeffs", targets["psi_coeffs"]]
    else:
        flags += ["--psi", targets["psi"]]
    return flags


def _pair_params(rng, tag, skewed) -> dict:
    return {
        "tag": tag,
        "alpha": _param(rng),
        "beta": _param(rng),
        "targets": _targets(rng, skewed),
        "seed": rng.randint(0, 10**6),
    }


def _verify(rng, suite, mode, samples) -> Op:
    argv = ["verify", "--suite", suite, "--mode", mode,
            "--seed", str(rng.randint(0, 10**6)), "--samples", str(samples)]
    return Op(f"verify.{suite}.{mode}", ("cli", argv))


def _verify_exact_round(rng) -> list:
    ops = [
        Op("end_to_end.exact",
           ("api", "end_to_end", {**_pair_params(rng, tag, rng.random() < 0.5),
                                  "mode": "exact"}))
        for tag in TAGS
    ]
    for suite, count in (("solver", 4), ("bounds", 4), ("classes", 4), ("series", 6)):
        ops += [_verify(rng, suite, "exact", 4) for _ in range(count)]
    return ops


def _bound_argv(rng, tag, skewed) -> list:
    return ["bound", "--pair", tag, "--alpha", _param(rng), "--beta", _param(rng),
            *_target_flags(_targets(rng, skewed))]


def _malformed_slice(rng) -> list:
    """Cheap invalid invocations that the input contract must reject with exit 1.

    Only bounded cases: the unbounded ones (a 1e-12 grid step, a huge phase
    count) are never run.
    """
    tag = rng.choice(TAGS)
    kind = rng.choice(("P", "M", "L"))
    return [
        Op("malformed.bound_order_1",
           ("cli", _bound_argv(rng, tag, False) + ["--order", "1"]),
           defect="malformed_input"),
        Op("malformed.expand_order_2",
           ("cli", ["expand", "--class", kind, "--alpha", _param(rng),
                    "--a2", _param(rng), "--a3", _param(rng), "--order", "2"]),
           defect="malformed_input"),
        Op("malformed.verify_samples_0",
           ("cli", ["verify", "--seed", str(rng.randint(0, 10**6)),
                    "--samples", "0"]), defect="malformed_input"),
        Op("malformed.sweep_phase_steps_3",
           ("cli", ["sweep", "--pair", tag, "--alpha", _param(rng),
                    "--beta", _param(rng), "--phase-steps", "3"]),
           defect="malformed_input"),
    ]


def _audit_grid_round(rng) -> list:
    ops = []
    for tag in TAGS:
        for skewed in (False, True):
            argv = ["audit", "--theorem", tag, "--grid", AUDIT_GRID,
                    *_target_flags(_targets(rng, skewed))]
            ops.append(Op("audit", ("cli", argv)))
    ops += [
        Op("bound", ("cli", _bound_argv(rng, rng.choice(TAGS), rng.random() < 0.5)))
        for _ in range(40)
    ]
    return ops + _malformed_slice(rng)


def _sweep_argv(rng, tag, what, skewed, fine) -> list:
    argv = ["sweep", "--pair", tag, "--alpha", _param(rng), "--beta", _param(rng),
            *_target_flags(_targets(rng, skewed)), "--what", what]
    return argv + list(FINE_SWEEP) if fine else argv


def _sweep_float_round(rng) -> list:
    ops = []
    for fine in (False, True):
        for tag in TAGS:
            for what in ("a2", "a3"):
                family = f"sweep.{what}.{'fine' if fine else 'default'}"
                argv = _sweep_argv(rng, tag, what, rng.random() < 0.5, fine)
                ops.append(Op(family, ("cli", argv)))
    ops += [
        Op("check_bounds_random",
           ("api", "check_bounds_random",
            {**_pair_params(rng, tag, rng.random() < 0.5),
             "n": RANDOM_CHECK_SAMPLES}))
        for tag in TAGS
    ]
    ops += [replace(_verify(rng, "identities", "float", 30),
                    defect="float_verify_tolerance")
            for _ in range(2)]
    ops += [
        Op("end_to_end.float",
           ("api", "end_to_end", {**_pair_params(rng, tag, rng.random() < 0.5),
                                  "mode": "float"}),
           defect="float_sampler_constant_term")
        for tag in TAGS for _ in range(2)
    ]
    return ops


WORKLOADS = {
    "verify-exact": _verify_exact_round,
    "audit-grid": _audit_grid_round,
    "sweep-float": _sweep_float_round,
}


def make_round(workload: str, seed: int, index: int) -> list:
    """The op list of round ``index``; shuffled so families interleave."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# invariants


class InvariantError(AssertionError):
    """An op returned, but its output breaks the op's invariant."""


class VerifyFailed(InvariantError):
    """``verify`` gave a nonzero exit or failing checks."""

    def __init__(self, code, failed_checks: tuple):
        super().__init__(f"verify exited {code}, failed checks {list(failed_checks)}")
        self.code = code
        self.failed_checks = failed_checks


def _require(condition, message):
    if not condition:
        raise InvariantError(message)


def _tag(argv) -> str:
    flag = "--theorem" if argv[0] == "audit" else "--pair"
    return argv[argv.index(flag) + 1]


def _equal_tails(argv) -> bool:
    return "--psi-coeffs" not in argv


def _check_discrepancies(tag, report):
    sigma_flagged = any(d["field"] == "sigma" for d in report["discrepancies"])
    if tag == "LL":
        _require(sigma_flagged == (report["alpha"] * report["beta"] != 0),
                 f"LL sigma flag wrong at alpha={report['alpha']}, "
                 f"beta={report['beta']}")
    else:
        _require(not report["discrepancies"],
                 f"{tag} audit reported {report['discrepancies']}")


def check_cli(op: Op, code, stdout: str):
    """Raise InvariantError unless a cli op's exit code and JSON hold."""
    argv = op.call[1]
    if op.family.startswith("malformed."):
        _require(code == 1, f"malformed input gave exit {code}, not 1")
        return
    command = argv[0]
    if command == "verify":
        payload = json.loads(stdout)
        failed = tuple(c["name"] for c in payload["checks"] if not c["passed"])
        if code != 0 or payload["passed"] is not True or failed:
            raise VerifyFailed(code, failed)
        return
    _require(code in ((0, 2) if command == "bound" else (0,)),
             f"{command} exited {code}")
    payload = json.loads(stdout)
    if command == "audit":
        tag = _tag(argv)
        _require(len(payload["reports"]) == AUDIT_POINTS ** 2, "grid size wrong")
        for report in payload["reports"]:
            _check_discrepancies(tag, report)
        _require(payload["discrepancy_count"] == sum(
            len(r["discrepancies"]) for r in payload["reports"]),
            "discrepancy_count disagrees with the reports")
    elif command == "bound":
        # A degenerate point (exit 2) is expected data, not a failure.
        _require((code == 2) == payload["degenerate"], "exit 2 iff degenerate")
        _check_discrepancies(_tag(argv), payload)
    elif command == "sweep":
        bound, best = payload["bound"], payload["max_value"]
        _require(best <= bound * (1 + RATIO_SLACK) + RATIO_SLACK,
                 f"sweep max {best} exceeds bound {bound}")
        if payload["quantity"] == "a2" and _equal_tails(argv):
            _require(payload["attained"] is True,
                     "a2 bound not attained on equal-tail targets")
    else:
        raise InvariantError(f"no invariant for command {command!r}")


def check_api(op: Op, result):
    """Raise InvariantError unless an api op's result holds its invariant."""
    name = op.call[1]
    if name == "end_to_end":
        _require(result.b1_matches_linkage, "implied b1 misses the linkage")
        _require(result.degenerate or result.closed_forms_match,
                 "closed forms disagree with the forward solve")
    elif name == "check_bounds_random":
        _require(result.samples == RANDOM_CHECK_SAMPLES, "sample count wrong")
        _require(result.max_a2_ratio <= 1 + RATIO_SLACK, "a2 ratio above 1")
        _require(result.max_a3_ratio <= 1 + RATIO_SLACK, "a3 ratio above 1")
    else:
        raise InvariantError(f"no invariant for api call {name!r}")


def pair_from(bibounds, params: dict):
    """Build the PairSpec an api op describes (runs inside the timed op)."""
    targets = params["targets"]
    phi = bibounds.target_preset(targets["phi"])
    if "psi_coeffs" in targets:
        psi = bibounds.MindaTarget(
            [Fraction(c) for c in targets["psi_coeffs"].split(",")])
    else:
        psi = bibounds.target_preset(targets["psi"])
    return bibounds.theorem_pair(params["tag"], Fraction(params["alpha"]),
                                 Fraction(params["beta"]), phi, psi)


# ----------------------------------------------------------------------
# known defects: what a probe's failure must look like to be one of them


def _any_failure(exc) -> bool:
    # The malformed-input contract is exit 1 without a traceback; any other
    # outcome of these inputs is the defect the slice measures.
    return True


def _float_sampler_constant_term(exc) -> bool:
    # In float mode sample_caratheodory's constant term is not always
    # exactly 1.0, and solve_forward rejects it.
    return (type(exc) is ValueError
            and str(exc) == "forward solve needs a transform with constant term 1")


# The two float checks whose tolerances are tighter than float roundoff.
FLOAT_TOLERANCE_CHECKS = frozenset({"series_ring_laws", "consistency_chain"})


def _float_verify_tolerance(exc) -> bool:
    return (isinstance(exc, VerifyFailed) and exc.code == 3
            and bool(exc.failed_checks)
            and set(exc.failed_checks) <= FLOAT_TOLERANCE_CHECKS)


KNOWN_DEFECTS = {
    "malformed_input": _any_failure,
    "float_sampler_constant_term": _float_sampler_constant_term,
    "float_verify_tolerance": _float_verify_tolerance,
}


def is_known_defect(op: Op, exc: BaseException) -> bool:
    """True when op is a probe and exc is its known defect's signature."""
    return op.defect is not None and KNOWN_DEFECTS[op.defect](exc)
