"""Command-line front end with stable machine-readable output.

Commands: ``bound``, ``audit``, ``sweep``, ``expand``, ``verify``, ``table``.
JSON output is the contract surface: key sets and nesting are fixed, floats
carry nine significant digits, and identical invocations (same seed) produce
byte-identical bytes.  CSV is available for ``sweep`` and ``audit``; pretty
output is for humans only.

Each command is a row of ``_COMMANDS``: help text, flag adders, a run
function ``args -> (payload, exit_code)``, a pretty renderer and a
CSV renderer or ``None`` (``--format csv`` is offered only with one).
:func:`_render` is the one renderer: JSON through :func:`render_json`,
otherwise the row's renderers, which read only the payload.
:func:`render_json` is the one JSON writer, one pass over the payload.
Within one call it formats each distinct float once (a memo passed down the
recursion, dropped when the call returns), and a list whose items are plain
dicts with one key sequence (the audit's reports, each discrepancy list,
verify's checks, the table's rows) builds each key's text once for the
list; every other value takes the general path.  ``main`` is the
one place that turns a ``ValueError`` (from flag parsing or the library's
own input checks) or an ``OverflowError`` (a result that does not fit a
float) into a usage error, and a sweep's ``BoundViolationError`` into a
verification failure.

Exit codes: 0 success, 1 usage error, 2 degenerate bound (the report is
still printed), 3 verification failure (a failed ``verify`` check, with its
payload, or a violated sweep bound, with no payload).

No command takes a truncation order, as no computed value reads past z^3:
target presets are built at the library's default order (``phi`` and
``psi`` echo their coefficients) and ``expand`` runs the series at order 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .series import EXACT, FLOAT
from .classes import (ClassSpec, LiteralTooLargeError, MindaTarget,
                      SchlichtCoeffs, _quoted, brief, expansion_f, functional,
                      integer, rational, target_preset, triple)
from . import bounds as _bounds
from . import harness as _harness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY_FAILED = 3

# Audit grid points per axis; the audit evaluates the square of this.
MAX_GRID_POINTS = 101


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract wants 1.  Its own
    # messages (an invalid choice, unrecognized arguments) quote the text
    # whole, so a long one keeps only its two ends.
    def error(self, message):
        if len(message) > 160:
            message = message[:80] + "..." + message[-80:]
        raise UsageError(message)


# ----------------------------------------------------------------------
# canonical serialization and the one renderer


def _float_text(value) -> str:
    # repr of the value rounded to nine significant digits, with json's
    # spellings of the non-finite values; every zero is written 0.0.  A
    # ".9g" text without an exponent is already that repr once an integer
    # text gains ".0": with at most nine significant digits it is the
    # shortest text that reads back as its float, and repr's fixed-point
    # range (exponents -4 to 15) holds ".9g"'s (-4 to 8).
    if value != value:
        return "NaN"
    if value == 0:
        return "0.0"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    text = format(value, ".9g")
    if "e" in text:
        return float.__repr__(float(text))
    return text if "." in text else text + ".0"


def _emit(value, newline, write, texts):
    # One value at the indentation that newline carries; texts maps each
    # float already written in this render to its text.
    if isinstance(value, float):
        text = texts.get(value)
        if text is None:
            text = texts[value] = _float_text(value)
        write(text)
    elif isinstance(value, str):
        write(_quote(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator, rest = "{" + inner, "," + inner
        for key, item in value.items():
            write(separator)
            write(_quote(key))  # payload keys are strings
            write(": ")
            _emit(item, inner, write, texts)
            separator = rest
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        # Rows: the items that are plain dicts with the first item's keys,
        # in its order, share one key text per field, built here once.
        keys = tuple(value[0]) if type(value[0]) is dict else ()
        if keys:
            field = inner + "  "
            heads = ["," + field + _quote(key) + ": " for key in keys]
            heads[0] = "{" + heads[0][1:]  # the first key opens the row
            close = inner + "}"
        separator, rest = "[" + inner, "," + inner
        for item in value:
            write(separator)
            if keys and type(item) is dict and tuple(item) == keys:
                for head, cell in zip(heads, item.values()):
                    write(head)
                    _emit(cell, field, write, texts)
                write(close)
            else:
                _emit(item, inner, write, texts)
            separator = rest
        write(newline + "]")
    elif isinstance(value, Fraction):
        _emit(float(value), newline, write, texts)
    elif isinstance(value, complex):
        _emit([value.real, value.imag], newline, write, texts)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")


def render_json(payload: dict) -> str:
    """The payload as ``json.dumps(..., indent=2)`` writes it, plus a newline.

    One pass: floats (and Fractions) are rounded to nine significant
    digits, complex numbers become ``[re, im]`` and tuples lists on the way.
    Each distinct float is formatted once per call (a memo that lives for
    this call only), and a list of plain dicts with one key sequence, such
    as the audit's reports, builds each key's text once for the list.
    """
    out = []
    _emit(payload, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


def _fmt(value):
    if value is None:
        return "degenerate"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _render(command, fmt, payload) -> str:
    if fmt == "json":
        return render_json(payload)
    if fmt == "csv":
        header, rows = command.csv(payload)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row[key]) for key in header] for row in rows)
        return buffer.getvalue()
    return "".join(line + "\n" for line in command.pretty(payload))


# Per-point audit rows drop what the audit payload states once.
_AUDIT_ROW_FIELDS = tuple(name for name in _bounds.BoundReport._fields if name not in
                          ("theorem", "phi", "psi", "sigma_tilde", "notes"))


def _report_record(rep, names=_bounds.BoundReport._fields) -> dict:
    record = {name: getattr(rep, name) for name in names}
    record["discrepancies"] = [d._asdict() for d in rep.discrepancies]
    return record


# ----------------------------------------------------------------------
# argument plumbing


def _target(preset_key, coeffs_text) -> MindaTarget:
    # A flag given an empty value is parsed, and refused, not read as absent.
    if coeffs_text is not None:
        return MindaTarget(coeffs_text.split(","))
    return target_preset("caratheodory" if preset_key is None else preset_key)


def _targets(args):
    return (_target(args.phi, args.phi_coeffs),
            _target(args.psi, args.psi_coeffs))


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:stop:step, got {_quoted(text)}")
    start, stop, step = (rational(part) for part in parts)
    if stop < start:
        raise UsageError("grid stop must not precede start")
    if start == stop:
        return [start]
    if step <= 0:
        raise UsageError("grid step must be positive for a nontrivial range")
    count = int((stop - start) // step) + 1
    if count > MAX_GRID_POINTS:
        raise UsageError(
            f"grid has {brief(count)} points per axis, more than {MAX_GRID_POINTS}")
    return [start + index * step for index in range(count)]


def _flag_type(parse):
    """parse as an argparse type.

    argparse words a ValueError as "invalid <type> value: <the whole text>";
    this words it the same way with the text shortened, and a
    LiteralTooLargeError passes on its own message, which also quotes the
    text shortened, so a huge or long literal gives one short usage line.
    """
    @functools.wraps(parse, updated=())  # argparse names the type in its messages
    def parse_flag(text):
        try:
            return parse(text)
        except LiteralTooLargeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {parse.__name__} value: {_quoted(text)}") from None

    return parse_flag


_rational = _flag_type(rational)
_integer = _flag_type(integer)
_float = _flag_type(float)


def _pair_flags(parser):
    parser.add_argument("--pair", required=True, help="pairing tag, e.g. PP")
    parser.add_argument("--alpha", required=True, type=_rational)
    parser.add_argument("--beta", required=True, type=_rational)


def _target_flags(parser):
    parser.add_argument("--phi", help="target preset for the function side")
    parser.add_argument("--psi", help="target preset for the inverse side")
    parser.add_argument("--phi-coeffs", help="explicit B1,B2,... (overrides --phi)")
    parser.add_argument("--psi-coeffs", help="explicit D1,D2,... (overrides --psi)")


def _audit_flags(parser):
    parser.add_argument("--theorem", required=True, help="pairing tag")
    parser.add_argument("--grid", required=True,
                        help="start:stop:step for alpha and beta")
    parser.add_argument("--tolerance", type=_float, default=_bounds.AUDIT_REL_TOL)


def _sweep_flags(parser):
    parser.add_argument("--what", choices=("a2", "a3"), default="a2")
    # The sweeps build no grid, so these two set nothing.  They stay, checked
    # in _run_sweep, because the benchmark's sweeps pass them; the benchmark
    # change that drops those argvs deletes them.
    for flag in ("--radial-steps", "--phase-steps"):
        parser.add_argument(flag, type=_integer, help="ignored: no sweep grid")


def _expand_flags(parser):
    parser.add_argument("--class", dest="kind", required=True, choices=("P", "M", "L"))
    parser.add_argument("--alpha", required=True, type=_rational)
    parser.add_argument("--a2", required=True, type=_rational)
    parser.add_argument("--a3", required=True, type=_rational)


def _verify_flags(parser):
    parser.add_argument("--suite", default="identities", choices=_harness.SUITE_NAMES)
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    parser.add_argument("--seed", type=_integer, default=_harness.VERIFY_SEED)
    parser.add_argument("--samples", type=_integer, default=_harness.VERIFY_SAMPLES)


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="bibounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p_command = sub.add_parser(name, help=command.help)
        for add_flags in command.flags:
            add_flags(p_command)
        formats = ("json", "csv", "pretty") if command.csv else ("json", "pretty")
        p_command.add_argument("--format", choices=formats, default="json",
                               help="output format")
    return parser


# ----------------------------------------------------------------------
# commands: run functions build payloads, renderers read only payloads

_BOUND_KEYS = ("sigma_printed", "sigma_derived", "a2_printed", "a2_generic",
               "a3_printed", "a3_generic")
_AUDIT_CSV = ("theorem", "alpha", "beta", "B1", "B2", "D1", "D2",
              "field", "printed", "derived")
_SWEEP_CSV = ("theorem", "alpha", "beta", "B1", "B2", "D1", "D2",
              "quantity", "max_value", "bound", "gap", "attained")


def _run_bound(args):
    phi, psi = _targets(args)
    rep = _bounds.report(args.pair, args.alpha, args.beta, phi, psi)
    payload = {"command": "bound", **_report_record(rep)}
    return payload, EXIT_DEGENERATE if rep.degenerate else EXIT_OK


def _bound_pretty(payload):
    return [
        f"{payload['theorem']} at alpha={payload['alpha']}, beta={payload['beta']}",
        *(f"  {key:12s} {_fmt(payload[key])}" for key in _BOUND_KEYS),
        *(f"  discrepancy on {d['field']}: printed {_fmt(d['printed'])} "
          f"vs derived {_fmt(d['derived'])}" for d in payload["discrepancies"]),
        *(f"  note: {note}" for note in payload["notes"]),
    ]


def _run_audit(args):
    phi, psi = _targets(args)
    grid = _parse_grid(args.grid)
    reports = _bounds.audit(args.theorem, grid, grid, [(phi, psi)],
                            rel_tol=args.tolerance)
    payload = {
        "command": "audit",
        "theorem": reports[0].theorem,
        "grid": {"start": float(grid[0]), "stop": float(grid[-1]),
                 "points": len(grid)},
        "phi": reports[0].phi,
        "psi": reports[0].psi,
        "tolerance": args.tolerance,
        "reports": [_report_record(rep, _AUDIT_ROW_FIELDS) for rep in reports],
        "discrepancy_count": sum(len(rep.discrepancies) for rep in reports),
        "notes": sorted({note for rep in reports for note in rep.notes}),
    }
    return payload, EXIT_OK


def _audit_discrepancies(payload):
    return [d for rep in payload["reports"] for d in rep["discrepancies"]]


def _audit_pretty(payload):
    return [
        f"audit {payload['theorem']}: {len(payload['reports'])} grid points, "
        f"{payload['discrepancy_count']} discrepancies",
        *(f"  alpha={_fmt(d['alpha'])} beta={_fmt(d['beta'])} {d['field']}: "
          f"printed {_fmt(d['printed'])} vs derived {_fmt(d['derived'])}"
          for d in _audit_discrepancies(payload)),
    ]


def _audit_csv(payload):
    rows = _audit_discrepancies(payload)
    return _AUDIT_CSV, [{"theorem": payload["theorem"], **d} for d in rows]


def _run_sweep(args):
    phi, psi = _targets(args)
    if args.radial_steps is not None and args.radial_steps < 2:
        raise UsageError("need at least 2 radial steps")
    if args.phase_steps is not None and args.phase_steps < 4:
        raise UsageError("need at least 4 phase steps")
    pair = _bounds.theorem_pair(args.pair, args.alpha, args.beta, phi, psi)
    sweep = _harness.sweep_a2 if args.what == "a2" else _harness.sweep_a3
    result = sweep(pair)._asdict()
    argmax = result.pop("argmax")
    payload = {
        "command": "sweep",
        "theorem": _bounds.theorem_tag(args.pair),
        "alpha": float(args.alpha),
        "beta": float(args.beta),
        "phi": [float(c) for c in phi.coefficients],
        "psi": [float(c) for c in psi.coefficients],
        **result,
        "argmax": argmax._asdict(),
    }
    return payload, EXIT_OK


def _sweep_pretty(payload):
    return [
        f"sweep {payload['quantity']} for {payload['theorem']}: max "
        f"{_fmt(payload['max_value'])} vs bound {_fmt(payload['bound'])} "
        f"(attained: {payload['attained']})"
    ]


def _sweep_csv(payload):
    # Coefficients past the stored ones are zero, as in MindaTarget.
    phi, psi = payload["phi"] + [0.0], payload["psi"] + [0.0]
    row = {**payload, "B1": phi[0], "B2": phi[1], "D1": psi[0], "D2": psi[1]}
    return _SWEEP_CSV, [row]


def _run_expand(args):
    spec = ClassSpec(args.kind, args.alpha)
    t = triple(spec)
    e1, e2 = expansion_f(t, args.a2, args.a3)
    # The input's and the closed form's floats come first, so an output that
    # overflows a float is refused before the exact series work.
    payload = {
        "command": "expand",
        "class": spec.kind,
        "alpha": float(spec.param),
        "a2": float(args.a2),
        "a3": float(args.a3),
        "triple": [float(t.p), float(t.q), float(t.r)],
        "closed_form": {"e1": float(e1), "e2": float(e2)},
    }
    # e1 and e2 read f only through z^3: any higher order gives the same.
    series = functional(spec, SchlichtCoeffs([args.a2, args.a3]), order=3,
                        mode=EXACT)
    s1, s2 = series.coeffs[1], series.coeffs[2]
    payload["series_engine"] = {"e1": float(s1.re), "e2": float(s2.re)}
    payload["match"] = s1 == e1 and s2 == e2
    return payload, EXIT_OK


def _expand_pretty(payload):
    closed, engine = payload["closed_form"], payload["series_engine"]
    return [
        f"{payload['class']}({payload['alpha']}): triple (p, q, r) = "
        f"{tuple(payload['triple'])}",
        f"  closed form   e1={_fmt(closed['e1'])} e2={_fmt(closed['e2'])}",
        f"  series engine e1={_fmt(engine['e1'])} e2={_fmt(engine['e2'])}",
    ]


def _run_verify(args):
    results = _harness.run_identity_suites(args.suite, args.mode, args.seed,
                                           args.samples)
    passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "mode": args.mode,
        "seed": args.seed,
        "samples": args.samples,
        "checks": [r._asdict() for r in results],
        "passed": passed,
    }
    if passed:
        return payload, EXIT_OK
    first = next(r for r in results if not r.passed)
    print(f"first failure: {first.name}: {first.witness}", file=sys.stderr)
    return payload, EXIT_VERIFY_FAILED


def _verify_pretty(payload):
    return [
        *(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}"
          for c in payload["checks"]),
        "all checks passed" if payload["passed"] else "FAILURES present",
    ]


def _run_table(args):
    return {"command": "table", **_bounds.reduction_table()}, EXIT_OK


def _table_pretty(payload):
    return [
        *(f"{row['classes']:40s} {row['source']:10s} {_fmt(row['value'])}"
          for row in payload["rows"]),
        *(f"note: {note}" for note in payload["notes"]),
    ]


# flags: functions that each add some of the command's flags; csv: None
# when the command offers no CSV.
_Command = namedtuple("_Command", "help flags run pretty csv", defaults=(None,))


_COMMANDS = {
    "bound": _Command("evaluate printed and derived bounds",
                      (_pair_flags, _target_flags), _run_bound, _bound_pretty),
    "audit": _Command("compare printed vs derived on a grid",
                      (_audit_flags, _target_flags),
                      _run_audit, _audit_pretty, _audit_csv),
    "sweep": _Command("extremal sweep over the coefficient region",
                      (_pair_flags, _target_flags, _sweep_flags),
                      _run_sweep, _sweep_pretty, _sweep_csv),
    "expand": _Command("order-2 functional expansion",
                       (_expand_flags,), _run_expand, _expand_pretty),
    "verify": _Command("run the identity suites",
                       (_verify_flags,), _run_verify, _verify_pretty),
    "table": _Command("classical reference values vs computed",
                      (), _run_table, _table_pretty),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # Options follow the command; argparse would report a leading one's value.
        if argv and argv[0][:1] == "-" and argv[0] not in ("-h", "--help"):
            build_parser().error(f"unrecognized arguments: {argv[0]}")
        args = build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        payload, code = command.run(args)
    except ValueError as exc:  # UsageError and the library's input checks
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # a huge rational met a float conversion
        print(f"usage error: a result does not fit a float ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except _harness.BoundViolationError as exc:  # a sweep beat its bound
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    sys.stdout.write(_render(command, args.format, payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
