"""Command-line front end with stable machine-readable output.

Commands: ``bound``, ``audit``, ``sweep``, ``expand``, ``verify``, ``table``.
JSON output is the contract surface: key sets and nesting are fixed, floats
carry nine significant digits, and identical invocations (same seed) produce
byte-identical bytes.  CSV is available for ``sweep`` and ``audit``; pretty
output is for humans only.

Exit codes: 0 success, 1 usage error, 2 degenerate bound (the report is
still printed), 3 verification failure.

A flat ``key=value`` config file may supply defaults (``order``,
``radial_steps``, ``phase_steps``, ``seed``, ``samples``, ``tolerance``;
only ``verify`` reads ``seed``); point to it with ``--config`` or the
``BIBOUNDS_CONFIG`` environment variable.  Command-line flags win over the
file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .series import DEFAULT_ORDER, EXACT, FLOAT
from .classes import (
    ClassSpec,
    MindaTarget,
    SchlichtCoeffs,
    expansion_f,
    functional,
    target_preset,
    triple,
)
from . import bounds as _bounds
from . import harness as _harness

ENV_CONFIG = "BIBOUNDS_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY_FAILED = 3

_CONFIG_KEYS = {
    "order": int,
    "radial_steps": int,
    "phase_steps": int,
    "seed": int,
    "samples": int,
    "tolerance": float,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------------
# canonical serialization


def _canonical(value):
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if value == 0:
            return 0.0
        return float(format(value, ".9g"))
    if isinstance(value, Fraction):
        return _canonical(float(value))
    if isinstance(value, complex):
        return [_canonical(value.real), _canonical(value.imag)]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def render_json(payload: dict) -> str:
    return json.dumps(_canonical(payload), indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _fmt(value):
    if value is None:
        return "degenerate"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


# ----------------------------------------------------------------------
# argument plumbing


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                if not sep:
                    raise UsageError(f"bad config line: {line!r}")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise UsageError(f"unknown config key: {key!r}")
                values[key] = _CONFIG_KEYS[key](raw.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _setting(args, config, key, fallback):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, fallback)


def _resolve_target(preset_key, coeffs_text, order, what) -> MindaTarget:
    if coeffs_text:
        try:
            coefficients = [Fraction(part) for part in coeffs_text.split(",")]
            return MindaTarget(coefficients)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad {what} coefficients {coeffs_text!r}: {exc}") from exc
    try:
        return target_preset(preset_key or "caratheodory", order=order)
    except ValueError as exc:
        raise UsageError(f"bad {what} preset: {exc}") from exc


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (_fraction_arg(part) for part in parts)
    if stop < start:
        raise UsageError("grid stop must not precede start")
    if start == stop:
        return [start]
    if step <= 0:
        raise UsageError("grid step must be positive for a nontrivial range")
    points = []
    value = start
    while value <= stop:
        points.append(value)
        value += step
    return points


def _add_target_flags(parser):
    parser.add_argument("--phi", help="target preset for the function side")
    parser.add_argument("--psi", help="target preset for the inverse side")
    parser.add_argument(
        "--phi-coeffs", help="explicit B1,B2,... (overrides --phi)"
    )
    parser.add_argument(
        "--psi-coeffs", help="explicit D1,D2,... (overrides --psi)"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="bibounds", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="path to a key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    common_format = dict(
        choices=("json", "csv", "pretty"), default=None, help="output format"
    )

    p_bound = sub.add_parser("bound", help="evaluate printed and derived bounds")
    p_bound.add_argument("--pair", required=True, help="pairing tag, e.g. PP")
    p_bound.add_argument("--alpha", required=True, type=_fraction_arg)
    p_bound.add_argument("--beta", required=True, type=_fraction_arg)
    _add_target_flags(p_bound)
    p_bound.add_argument("--order", type=int)
    p_bound.add_argument("--format", **common_format)

    p_audit = sub.add_parser("audit", help="compare printed vs derived on a grid")
    p_audit.add_argument("--theorem", required=True, help="pairing tag")
    p_audit.add_argument("--grid", required=True, help="start:stop:step for alpha and beta")
    _add_target_flags(p_audit)
    p_audit.add_argument("--order", type=int)
    p_audit.add_argument("--tolerance", type=float)
    p_audit.add_argument("--format", **common_format)

    p_sweep = sub.add_parser("sweep", help="extremal sweep over the coefficient region")
    p_sweep.add_argument("--pair", required=True)
    p_sweep.add_argument("--alpha", required=True, type=_fraction_arg)
    p_sweep.add_argument("--beta", required=True, type=_fraction_arg)
    _add_target_flags(p_sweep)
    p_sweep.add_argument("--what", choices=("a2", "a3"), default="a2")
    p_sweep.add_argument("--order", type=int)
    p_sweep.add_argument("--radial-steps", dest="radial_steps", type=int)
    p_sweep.add_argument("--phase-steps", dest="phase_steps", type=int)
    p_sweep.add_argument("--format", **common_format)

    p_expand = sub.add_parser("expand", help="order-2 functional expansion")
    p_expand.add_argument("--class", dest="kind", required=True, choices=("P", "M", "L"))
    p_expand.add_argument("--alpha", required=True, type=_fraction_arg)
    p_expand.add_argument("--a2", required=True, type=_fraction_arg)
    p_expand.add_argument("--a3", required=True, type=_fraction_arg)
    p_expand.add_argument("--order", type=int)
    p_expand.add_argument("--format", **common_format)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument(
        "--suite", default="identities", choices=_harness.SUITE_NAMES
    )
    p_verify.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--format", **common_format)

    p_table = sub.add_parser("table", help="classical reference values vs computed")
    p_table.add_argument("--format", **common_format)

    return parser


# ----------------------------------------------------------------------
# commands


def _bound_payload(tag, alpha, beta, phi, psi):
    rep = _bounds.report(tag, alpha, beta, phi, psi)
    return {
        "command": "bound",
        "theorem": rep.theorem,
        "alpha": rep.alpha,
        "beta": rep.beta,
        "phi": list(rep.phi),
        "psi": list(rep.psi),
        "sigma_printed": rep.sigma_printed,
        "sigma_derived": rep.sigma_derived,
        "sigma_tilde": rep.sigma_tilde,
        "a2_printed": rep.a2_printed,
        "a2_generic": rep.a2_generic,
        "a3_printed": rep.a3_printed,
        "a3_generic": rep.a3_generic,
        "degenerate": rep.degenerate,
        "discrepancies": [_discrepancy_dict(d) for d in rep.discrepancies],
        "notes": list(rep.notes),
    }


def _discrepancy_dict(d):
    return {
        "field": d.field,
        "printed": d.printed,
        "derived": d.derived,
        "alpha": d.alpha,
        "beta": d.beta,
        "B1": d.B1,
        "B2": d.B2,
        "D1": d.D1,
        "D2": d.D2,
    }


def _cmd_bound(args, config, out):
    order = _setting(args, config, "order", DEFAULT_ORDER)
    phi = _resolve_target(args.phi, args.phi_coeffs, order, "phi")
    psi = _resolve_target(args.psi, args.psi_coeffs, order, "psi")
    try:
        payload = _bound_payload(args.pair, args.alpha, args.beta, phi, psi)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "pretty":
        out.write(f"{payload['theorem']} at alpha={payload['alpha']}, beta={payload['beta']}\n")
        for key in ("sigma_printed", "sigma_derived", "a2_printed", "a2_generic",
                    "a3_printed", "a3_generic"):
            out.write(f"  {key:12s} {_fmt(payload[key])}\n")
        for d in payload["discrepancies"]:
            out.write(
                f"  discrepancy on {d['field']}: printed {_fmt(d['printed'])} "
                f"vs derived {_fmt(d['derived'])}\n"
            )
        for note in payload["notes"]:
            out.write(f"  note: {note}\n")
    else:
        raise UsageError("bound supports json or pretty output")
    return EXIT_DEGENERATE if payload["degenerate"] else EXIT_OK


def _cmd_audit(args, config, out):
    order = _setting(args, config, "order", DEFAULT_ORDER)
    phi = _resolve_target(args.phi, args.phi_coeffs, order, "phi")
    psi = _resolve_target(args.psi, args.psi_coeffs, order, "psi")
    tolerance = _setting(args, config, "tolerance", _bounds.AUDIT_REL_TOL)
    grid = _parse_grid(args.grid)
    try:
        reports = _bounds.audit(
            args.theorem, grid, grid, [(phi, psi)], rel_tol=tolerance
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    discrepancies = [d for rep in reports for d in rep.discrepancies]
    payload = {
        "command": "audit",
        "theorem": reports[0].theorem,
        "grid": {
            "start": float(grid[0]),
            "stop": float(grid[-1]),
            "points": len(grid),
        },
        "phi": list(reports[0].phi),
        "psi": list(reports[0].psi),
        "tolerance": tolerance,
        "reports": [
            {
                "alpha": rep.alpha,
                "beta": rep.beta,
                "sigma_printed": rep.sigma_printed,
                "sigma_derived": rep.sigma_derived,
                "a2_printed": rep.a2_printed,
                "a2_generic": rep.a2_generic,
                "a3_printed": rep.a3_printed,
                "a3_generic": rep.a3_generic,
                "degenerate": rep.degenerate,
                "discrepancies": [_discrepancy_dict(d) for d in rep.discrepancies],
            }
            for rep in reports
        ],
        "discrepancy_count": len(discrepancies),
        "notes": sorted({note for rep in reports for note in rep.notes}),
    }
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "csv":
        rows = [
            (
                payload["theorem"],
                _fmt(d["alpha"]),
                _fmt(d["beta"]),
                _fmt(d["B1"]),
                _fmt(d["B2"]),
                _fmt(d["D1"]),
                _fmt(d["D2"]),
                d["field"],
                _fmt(d["printed"]),
                _fmt(d["derived"]),
            )
            for d in (_discrepancy_dict(x) for x in discrepancies)
        ]
        out.write(
            _csv_text(
                ("theorem", "alpha", "beta", "B1", "B2", "D1", "D2",
                 "field", "printed", "derived"),
                rows,
            )
        )
    elif fmt == "pretty":
        out.write(
            f"audit {payload['theorem']}: {len(reports)} grid points, "
            f"{len(discrepancies)} discrepancies\n"
        )
        for d in (_discrepancy_dict(x) for x in discrepancies):
            out.write(
                f"  alpha={_fmt(d['alpha'])} beta={_fmt(d['beta'])} "
                f"{d['field']}: printed {_fmt(d['printed'])} vs derived "
                f"{_fmt(d['derived'])}\n"
            )
    return EXIT_OK


def _cmd_sweep(args, config, out):
    order = _setting(args, config, "order", DEFAULT_ORDER)
    phi = _resolve_target(args.phi, args.phi_coeffs, order, "phi")
    psi = _resolve_target(args.psi, args.psi_coeffs, order, "psi")
    cfg = _harness.SweepConfig(
        radial_steps=_setting(args, config, "radial_steps", 9),
        phase_steps=_setting(args, config, "phase_steps", 16),
    )
    try:
        pair = _bounds.theorem_pair(args.pair, args.alpha, args.beta, phi, psi)
        sweep = _harness.sweep_a2 if args.what == "a2" else _harness.sweep_a3
        result = sweep(pair, cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "command": "sweep",
        "theorem": _bounds.TheoremId(args.pair).tag,
        "alpha": float(args.alpha),
        "beta": float(args.beta),
        "phi": [float(c) for c in phi.coefficients],
        "psi": [float(c) for c in psi.coefficients],
        **result.as_dict(),
        "config": {
            "radial_steps": cfg.radial_steps,
            "phase_steps": cfg.phase_steps,
        },
    }
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "csv":
        row = (
            payload["theorem"],
            _fmt(payload["alpha"]),
            _fmt(payload["beta"]),
            _fmt(float(phi.B1)),
            _fmt(float(phi.B2)),
            _fmt(float(psi.B1)),
            _fmt(float(psi.B2)),
            payload["quantity"],
            _fmt(payload["max_value"]),
            _fmt(payload["bound"]),
            _fmt(payload["gap"]),
            str(payload["attained"]).lower(),
        )
        out.write(
            _csv_text(
                ("theorem", "alpha", "beta", "B1", "B2", "D1", "D2",
                 "quantity", "max_value", "bound", "gap", "attained"),
                [row],
            )
        )
    elif fmt == "pretty":
        out.write(
            f"sweep {payload['quantity']} for {payload['theorem']}: max "
            f"{_fmt(payload['max_value'])} vs bound {_fmt(payload['bound'])} "
            f"(attained: {payload['attained']})\n"
        )
    return EXIT_OK


def _cmd_expand(args, config, out):
    order = _setting(args, config, "order", DEFAULT_ORDER)
    try:
        spec = ClassSpec(args.kind, args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    t = triple(spec)
    e1, e2 = expansion_f(t, args.a2, args.a3)
    series = functional(
        spec, SchlichtCoeffs([args.a2, args.a3]), order=order, mode=EXACT
    )
    s1, s2 = series.coeffs[1], series.coeffs[2]
    payload = {
        "command": "expand",
        "class": spec.kind,
        "alpha": float(spec.param),
        "a2": float(args.a2),
        "a3": float(args.a3),
        "triple": [float(t.p), float(t.q), float(t.r)],
        "closed_form": {"e1": float(e1), "e2": float(e2)},
        "series_engine": {"e1": float(s1.re), "e2": float(s2.re)},
        "match": s1 == e1 and s2 == e2,
    }
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "pretty":
        out.write(
            f"{spec.kind}({payload['alpha']}): triple (p, q, r) = "
            f"{tuple(payload['triple'])}\n"
            f"  closed form   e1={_fmt(payload['closed_form']['e1'])} "
            f"e2={_fmt(payload['closed_form']['e2'])}\n"
            f"  series engine e1={_fmt(payload['series_engine']['e1'])} "
            f"e2={_fmt(payload['series_engine']['e2'])}\n"
        )
    else:
        raise UsageError("expand supports json or pretty output")
    return EXIT_OK


def _cmd_verify(args, config, out):
    seed = _setting(args, config, "seed", 7)
    samples = _setting(args, config, "samples", 60)
    results = _harness.run_identity_suites(
        suite=args.suite, mode=args.mode, seed=seed, samples=samples
    )
    passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "mode": args.mode,
        "seed": seed,
        "samples": samples,
        "checks": [
            {"name": r.name, "passed": r.passed, "witness": r.witness}
            for r in results
        ],
        "passed": passed,
    }
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "pretty":
        for r in results:
            out.write(f"{'PASS' if r.passed else 'FAIL'}  {r.name}\n")
        out.write(f"{'all checks passed' if passed else 'FAILURES present'}\n")
    else:
        raise UsageError("verify supports json or pretty output")
    if not passed:
        first = next(r for r in results if not r.passed)
        print(f"first failure: {first.name}: {first.witness}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_table(args, config, out):
    table = _bounds.reduction_table()
    payload = {"command": "table", **table}
    fmt = _setting(args, config, "format", "json")
    if fmt == "json":
        out.write(render_json(payload))
    elif fmt == "pretty":
        for row in table["rows"]:
            out.write(f"{row['classes']:40s} {row['source']:10s} {_fmt(row['value'])}\n")
        for note in table["notes"]:
            out.write(f"note: {note}\n")
    else:
        raise UsageError("table supports json or pretty output")
    return EXIT_OK


_COMMANDS = {
    "bound": _cmd_bound,
    "audit": _cmd_audit,
    "sweep": _cmd_sweep,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
