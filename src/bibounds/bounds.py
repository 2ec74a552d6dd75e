"""Printed bound formulas, generically derived bounds, and their audit.

Six pairings are covered, tagged by the two class kinds:

    PP  PM  PL  MM  ML  LL

For each pairing the literature states a polynomial sigma(alpha, beta), an
|a2| bound, and an |a3| inequality whose left side is sigma |a3| times a
fixed multiplier (2 for PP, PM, MM, LL and 1 for PL, ML).  This module
writes each statement once, as per-side factors (``printed_*``), derives
the same quantities from the unified elimination (``generic_*``, see
:mod:`bibounds.solver`), and compares them point by point (:func:`audit`).
The statements as printed, term by term, live in ``tests/oracles.py``,
which checks the factors against them.

A statement's factors split into a function side F, which depends on alpha
and the targets, and an inverse side G, which depends on beta and the
targets; one join serves all six tags (see the comment that opens the
section of printed statements).  The printed sigma is a polynomial in
alpha whose coefficients depend on beta.  The generic constants split the
same way (:func:`bibounds.solver.side_constants`).

All internal arithmetic is exact (Fractions); square roots are taken only
when converting a final value to float, so printed and generic bounds that
agree algebraically agree bit-for-bit as floats.

:func:`audit` is the one evaluation loop; :func:`report` is a one-point
audit.  The audit evaluates each quantity at the level where it last
changes: the tag and tolerance checks once per audit; the target factors
and the float target values once per target pair; the function-side triple
once per alpha and the inverse-side triple and sigma coefficients once per
beta; F and the function-side constants once per (alpha, target pair), G
and the inverse-side constants once per (beta, target pair); the joins,
sigma, sigma_tilde and the closed-form constants once per point.  One |a2|
bracket and one |a3| right side serve the printed and the derived sigma,
and where the two sigmas agree (everywhere but at LL points with
alpha*beta != 0) the aligned values are the printed ones.  The single-point
functions evaluate through the same factors.

Two known mismatches are surfaced by the audit rather than corrected:

* the LL sigma polynomial: its alpha*beta term has the opposite sign from
  the derived determinant (witness alpha = beta = 1: printed -20, derived 4);
* the final |D2 - D1| term of the LL |a3| statement carries the factor
  (alpha^2 + 5 alpha - 8), the negative of the derived (8 - 5 alpha -
  alpha^2), so the two |a3| bounds part ways exactly when D2 != D1.

A related transcription note: the PM |a2| statement carries (1+beta)^2 on
its |D2 - D1| term while the worked display in its derivation carries
(1+2*beta)^2.  The statement matches the generic elimination and is what
``printed_a2_bound`` evaluates; the display variant is kept available for
the audit notes (:func:`pm_display_variant_a2_bound`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .classes import ClassSpec, MindaTarget, _quoted, inverse_triple, triple
from .solver import (PairSpec, closed_form_constants, side_constants,
                     sigma_tilde, triple_determinant)

# A tag names the class kinds of its two sides, function side first.
THEOREM_TAGS = ("PP", "PM", "PL", "MM", "ML", "LL")

# Multiplier of sigma |a3| on the left side of the printed |a3| inequality.
A3_MULTIPLIER = {"PP": 2, "PM": 2, "PL": 1, "MM": 2, "ML": 1, "LL": 2}

# sigma_tilde = SIGMA_SCALE * (correctly printed sigma).  For LL the scale
# is 1: the printed inequality doubles both sides, so its sigma matches the
# determinant directly (up to the sign slip flagged by the audit).
SIGMA_SCALE = {"PP": 2, "PM": 2, "PL": 1, "MM": 2, "ML": 1, "LL": 1}

AUDIT_REL_TOL = 1e-10


def theorem_tag(tag) -> str:
    """The upper-cased pairing tag; a ValueError unless it is one of the six."""
    tag = str(tag).upper()
    if tag not in THEOREM_TAGS:
        raise ValueError(f"unknown pairing tag {_quoted(tag)}")
    return tag


def theorem_pair(tag, alpha, beta, phi: MindaTarget, psi: MindaTarget) -> PairSpec:
    """Build the PairSpec a tag denotes at specific parameters/targets."""
    tag = theorem_tag(tag)
    return PairSpec(ClassSpec(tag[0], alpha), phi, ClassSpec(tag[1], beta), psi)


def _f(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


# ----------------------------------------------------------------------
# The printed statements, written once as per-side factors.
#
# Every statement joins a function-side part F (alpha and the targets) and
# an inverse-side part G (beta and the targets) in one way:
#
#     |a2|^2 = B1^2 D1^2 num / |sigma B1^2 D1^2 - rest|
#     sigma_m |sigma| |a3| <= rhs     (sigma_m = A3_MULTIPLIER[tag])
#
#     num  = F.num + G.num
#     rest = F.r1 G.r1 + F.r2 G.r2
#     rhs  = F.rhs + G.rhs + F.x G.x
#
# and sigma is a polynomial in alpha whose coefficients depend on beta.

# Target-only factors of the statements: B1^2 D1^2, D1^2, (B2 - B1) D1^2,
# (D2 - D1) B1^2, B1^2 |D2 - D1|, sup_x = B1 + |B2 - B1| and |D2 - D1|.
_TargetFactors = namedtuple(
    "_TargetFactors",
    "B1 B2 D1 D2 b1d1_sq d1_sq db_d1sq dd_b1sq b1sq_dd sup_x dd_abs")

# One side of a statement; the function side's x is None at a pole of the
# |a3| cross term (a parameter outside its class, or D1 = 0).
_Side = namedtuple("_Side", "num r1 r2 rhs x")


def _target_factors(B1, B2, D1, D2) -> _TargetFactors:
    b1_sq, d1_sq, dd_abs = B1 * B1, D1 * D1, abs(D2 - D1)
    return _TargetFactors(
        B1, B2, D1, D2, b1_sq * d1_sq, d1_sq, (B2 - B1) * d1_sq,
        (D2 - D1) * b1_sq, b1_sq * dd_abs, B1 + abs(B2 - B1), dd_abs,
    )


def _sigma_in_alpha(tag, b) -> tuple:
    """Coefficients of the printed sigma as a polynomial in alpha, at beta = b."""
    if tag == "PP":  # 2 + 7a + 7b + 24ab
        return 2 + 7 * b, 7 + 24 * b
    if tag == "PM":  # 2 + 7a + 3b + 11ab
        return 2 + 3 * b, 7 + 11 * b
    if tag == "PL":  # 10 + 36a - 7b - 25ab + b^2 + 3ab^2
        return 10 - 7 * b + b * b, 36 - 25 * b + 3 * b * b
    if tag == "MM":  # 2 + 3a + 3b + 4ab
        return 2 + 3 * b, 3 + 4 * b
    if tag == "ML":  # 10 + 14a - 7b + b^2 + 2ab^2 - 10ab
        return 10 - 7 * b + b * b, 14 - 10 * b + 2 * b * b
    # LL: 24 + 3a^2 + 3b^2 - 17a - 17b - 2ba^2 - 2ab^2 - 12ab
    return 24 - 17 * b + 3 * b * b, -17 - 12 * b - 2 * b * b, 3 - 2 * b


def _horner(coefficients, a):
    value = coefficients[-1]
    for c in coefficients[-2::-1]:
        value = value * a + c
    return value


def _function_side(tag, a, t: _TargetFactors) -> _Side:
    """F: the tag's alpha factors at alpha = a, joined with the targets.

    s is the alpha factor of the |a2| numerator and of the (D2 - D1) term
    of its denominator, sq that of the (B2 - B1) term, rhs the alpha term
    of the |a3| right side and x_num / x_den the alpha factor of its
    |D2 - D1| term.
    """
    if tag[0] == "P":
        s, sq, rhs = 1 + 3 * a, (1 + 2 * a) ** 2, 1 + 2 * a
        x_num, x_den = 1, 1 + 2 * a
    elif tag[0] == "M":
        s, sq, rhs = 1 + 2 * a, (1 + a) ** 2, 1 + 3 * a
        x_num, x_den = 1 + 3 * a, sq
    else:
        s, sq, rhs = 3 - 2 * a, (2 - a) ** 2, 8 - 5 * a - a * a
        x_num, x_den = a * a + 5 * a - 8, sq
    m = 2 if tag[1] == "L" else 1  # the L-inverse |a2| statements are doubled
    x_den = t.d1_sq * x_den
    x = x_num * t.b1sq_dd / x_den if x_den != 0 else None
    return _Side(m * t.D1 * s, sq * t.db_d1sq, s, t.D1 * rhs, x)


def _inverse_side(tag, b, t: _TargetFactors) -> _Side:
    """G: the tag's beta factors at beta = b, joined with the targets.

    s, sq and c play the parts of F's s, sq and rhs with the two target
    differences swapped; sq is also the beta factor of the |a3| cross term.
    """
    m = 1
    if tag[1] == "P":
        s, sq, c = 1 + 3 * b, (1 + 2 * b) ** 2, 3 + 10 * b
    elif tag[1] == "M":
        s, sq, c = 1 + 2 * b, (1 + b) ** 2, 3 + 5 * b
    else:
        m, s, sq, c = 2, 3 - 2 * b, (2 - b) ** 2, b * b - 11 * b + 16
        if tag != "LL":  # PL and ML halve the polynomial, LL does not
            c = c / 2
    return _Side(m * t.B1 * s, m * s, m * sq * t.dd_b1sq, c * t.sup_x, sq)


def _pm_display_side(b, t: _TargetFactors) -> _Side:
    """PM's G with the worked display's (1+2*beta)^2 on its |D2 - D1| term."""
    return _inverse_side("PM", b, t)._replace(r2=(1 + 2 * b) ** 2 * t.dd_b1sq)


def _join_a2(F: _Side, G: _Side):
    """The |a2| numerator bracket and the sigma-free part of the denominator."""
    return F.num + G.num, F.r1 * G.r1 + F.r2 * G.r2


def _join_a3(F: _Side, G: _Side):
    """The right side of the |a3| inequality."""
    return F.rhs + G.rhs + F.x * G.x


def _a2_sq(num, rest, sigma, b1d1_sq):
    den = sigma * b1d1_sq - rest
    return None if den == 0 else b1d1_sq * num / abs(den)


def _a3_value(tag, rhs, sigma):
    return None if sigma == 0 else rhs / (A3_MULTIPLIER[tag] * abs(sigma))


def _point(tag, alpha, beta, B1, B2, D1, D2):
    return theorem_tag(tag), _f(alpha), _f(beta), _target_factors(
        _f(B1), _f(B2), _f(D1), _f(D2))


def printed_sigma(tag, alpha, beta) -> Fraction:
    """Literal evaluation of the stated sigma polynomial."""
    return _horner(_sigma_in_alpha(theorem_tag(tag), _f(beta)), _f(alpha))


def derived_sigma(tag, alpha, beta) -> Fraction:
    """sigma recovered from the elimination determinant, scaled per pairing."""
    tag = theorem_tag(tag)
    pair = theorem_pair(tag, alpha, beta, MindaTarget([1]), MindaTarget([1]))
    return sigma_tilde(pair) / SIGMA_SCALE[tag]


def _printed_a2_sq(tag, alpha, beta, B1, B2, D1, D2, sigma=None):
    # The squared stated |a2| bound, a Fraction, or None when the
    # denominator bracket vanishes.
    tag, a, b, t = _point(tag, alpha, beta, B1, B2, D1, D2)
    if sigma is None:
        sigma = printed_sigma(tag, a, b)
    num, rest = _join_a2(_function_side(tag, a, t), _inverse_side(tag, b, t))
    return _a2_sq(num, rest, sigma, t.b1d1_sq)


def printed_a2_bound(tag, alpha, beta, B1, B2, D1, D2):
    """The stated |a2| bound, or None when its denominator bracket vanishes."""
    return _sqrt_or_none(_printed_a2_sq(tag, alpha, beta, B1, B2, D1, D2))


def pm_display_variant_a2_bound(alpha, beta, B1, B2, D1, D2):
    """The PM |a2| value per the worked-display variant ((1+2*beta)^2 term)."""
    tag, a, b, t = _point("PM", alpha, beta, B1, B2, D1, D2)
    num, rest = _join_a2(_function_side(tag, a, t), _pm_display_side(b, t))
    return _sqrt_or_none(_a2_sq(num, rest, printed_sigma(tag, a, b), t.b1d1_sq))


def _printed_a3_value(tag, alpha, beta, B1, B2, D1, D2, sigma=None):
    # The stated |a3| right side over sigma_m |sigma|; None at sigma = 0.
    tag, a, b, t = _point(tag, alpha, beta, B1, B2, D1, D2)
    if sigma is None:
        sigma = printed_sigma(tag, a, b)
    if sigma == 0:
        return None
    F = _function_side(tag, a, t)
    if F.x is None:
        raise ZeroDivisionError("the |a3| statement has a pole at this alpha or D1")
    return _a3_value(tag, _join_a3(F, _inverse_side(tag, b, t)), sigma)


def printed_a3_bound(tag, alpha, beta, B1, B2, D1, D2):
    """The stated |a3| bound normalized to |a3| itself, or None at sigma = 0."""
    value = _printed_a3_value(tag, alpha, beta, B1, B2, D1, D2)
    return None if value is None else float(value)


# ----------------------------------------------------------------------
# generic bounds from the unified elimination

def _generic_a2_sq(pair: PairSpec):
    return _generic_a2_sq_at(pair.exact_constants)


def _generic_a2_sq_at(k):
    # |a2^2| <= 2 |g2| + 2 |d2| over |c2|, |b2| <= 2.
    return None if k.g2 is None else 2 * (abs(k.g2) + abs(k.d2))


def generic_a2_bound(pair: PairSpec):
    """sqrt((q' B1 + q D1)/|DEN|); None when DEN vanishes.

    Symmetric under swapping the two sides of the pair.
    """
    return _sqrt_or_none(_generic_a2_sq(pair))


def _generic_a3_value(pair: PairSpec):
    phi, psi = pair.phi, pair.psi
    t = _target_factors(phi.B1, phi.B2, psi.B1, psi.B2)
    return _generic_a3_at(pair.exact_constants, t)


def _generic_a3_at(k, t: _TargetFactors):
    # |a3| <= |gx| sup|X| + |gy| sup|Y| over |c1|, |c2|, |b2| <= 2.
    if k.gx is None:
        return None
    sup_y = t.D1 + k.kappa**2 * t.dd_abs
    return abs(k.gx) * t.sup_x + abs(k.gy) * sup_y


def generic_a3_bound(pair: PairSpec):
    """Termwise |a3| bound |gx| sup|X| + |gy| sup|Y|; None at sigma_tilde = 0.

    Each of X and Y is bounded over the relaxed coefficient region on its
    own, so the bound need not be attained: when (B2 - B1) and
    kappa^2 (D2 - D1) pull in opposite directions the supremum of |a3| can
    be strictly smaller (see ``sweep_a3``).
    """
    value = _generic_a3_value(pair)
    return None if value is None else float(value)


# ----------------------------------------------------------------------
# audit

@dataclass(frozen=True)
class Discrepancy:
    """One printed-vs-derived mismatch with its witness parameters."""

    field: str
    printed: float
    derived: float
    alpha: float
    beta: float
    B1: float
    B2: float
    D1: float
    D2: float


@dataclass(frozen=True)
class BoundReport:
    """Printed and derived values at one parameter/target point."""

    theorem: str
    alpha: float
    beta: float
    phi: tuple
    psi: tuple
    sigma_printed: float
    sigma_derived: float
    sigma_tilde: float
    a2_printed: object
    a2_generic: object
    a3_printed: object
    a3_generic: object
    degenerate: bool
    discrepancies: tuple
    notes: tuple


def _mismatch(left, right, rel_tol=AUDIT_REL_TOL) -> bool:
    # Exact Fractions (or None) on both sides; the tolerance is part of the
    # documented contract but exact comparison decides first.
    if left is None or right is None:
        return (left is None) != (right is None)
    if left == right:
        return False
    scale = max(abs(left), abs(right))
    return abs(left - right) > rel_tol * scale


def report(tag, alpha, beta, phi: MindaTarget, psi: MindaTarget,
           rel_tol=AUDIT_REL_TOL) -> BoundReport:
    """Evaluate printed and generic values at one point and diff them.

    A one-point :func:`audit`.  The a2/a3 comparisons substitute the derived
    sigma into the printed formulas first, so a sigma mismatch is reported
    once under its own field instead of contaminating every downstream value.
    """
    return audit(tag, [alpha], [beta], [(phi, psi)], rel_tol)[0]


# Per target pair, what every audit point reads: the targets, their
# factors, and the float witness values and coefficient tuples.
_Targets = namedtuple("_Targets", "phi psi factors witness phi_floats psi_floats")

# Per (alpha, target pair): the printed F and the function-side constants.
_Row = namedtuple("_Row", "printed generic")

# Per (beta, target pair): the printed G, the PM display variant's G (None
# unless the tag is PM and D2 != D1, where the audit notes it) and the
# inverse-side constants.
_Column = namedtuple("_Column", "printed display generic")

# Per (alpha, beta): the float parameters, the printed sigma, sigma_tilde
# and the derived sigma.
_Point = namedtuple("_Point", "alpha beta sigma_printed sigma_tilde sigma_derived")


def _targets(phi: MindaTarget, psi: MindaTarget) -> _Targets:
    B1, B2, D1, D2 = phi.B1, phi.B2, psi.B1, psi.B2
    return _Targets(
        phi, psi, _target_factors(B1, B2, D1, D2),
        dict(B1=float(B1), B2=float(B2), D1=float(D1), D2=float(D2)),
        tuple(float(c) for c in phi.coefficients),
        tuple(float(c) for c in psi.coefficients),
    )


def _row(tag, a, tf, t: _Targets) -> _Row:
    return _Row(_function_side(tag, a, t.factors), side_constants(tf, t.phi, t.psi))


def _column(tag, b, tg, t: _Targets) -> _Column:
    return _Column(
        _inverse_side(tag, b, t.factors),
        _pm_display_side(b, t.factors)
        if tag == "PM" and t.factors.D2 != t.factors.D1 else None,
        side_constants(tg, t.psi, t.phi),
    )


def _report_at(tag, point: _Point, t: _Targets, row: _Row, col: _Column,
               rel_tol) -> BoundReport:
    sig_printed, sig_derived = point.sigma_printed, point.sigma_derived
    tx, F = t.factors, row.printed
    # One bracket and one right side serve both sigmas.
    num, rest = _join_a2(F, col.printed)
    rhs = _join_a3(F, col.printed)
    a2_printed_sq = _a2_sq(num, rest, sig_printed, tx.b1d1_sq)
    a3_printed = _a3_value(tag, rhs, sig_printed)
    if sig_derived == sig_printed:  # all but LL points with alpha*beta != 0
        a2_aligned_sq, a3_aligned = a2_printed_sq, a3_printed
    else:
        a2_aligned_sq = _a2_sq(num, rest, sig_derived, tx.b1d1_sq)
        a3_aligned = _a3_value(tag, rhs, sig_derived)
    k = closed_form_constants(row.generic, col.generic, point.sigma_tilde)
    a2_generic_sq = _generic_a2_sq_at(k)
    a3_generic = _generic_a3_at(k, tx)

    witness = dict(alpha=point.alpha, beta=point.beta, **t.witness)
    discrepancies = []
    if _mismatch(sig_printed, sig_derived, rel_tol):
        discrepancies.append(
            Discrepancy("sigma", float(sig_printed), float(sig_derived), **witness)
        )
    if _mismatch(a2_aligned_sq, a2_generic_sq, rel_tol):
        discrepancies.append(
            Discrepancy(
                "a2",
                _sqrt_or_nan(a2_aligned_sq),
                _sqrt_or_nan(a2_generic_sq),
                **witness,
            )
        )
    if _mismatch(a3_aligned, a3_generic, rel_tol):
        discrepancies.append(
            Discrepancy(
                "a3",
                float(a3_aligned) if a3_aligned is not None else math.nan,
                float(a3_generic) if a3_generic is not None else math.nan,
                **witness,
            )
        )

    notes = []
    if col.display is not None:
        num, rest = _join_a2(F, col.display)
        variant = _sqrt_or_none(_a2_sq(num, rest, sig_printed, tx.b1d1_sq))
        stated = _sqrt_or_nan(a2_printed_sq)
        if variant is None or abs(variant - stated) > rel_tol * max(1.0, stated):
            notes.append(
                "PM |a2| worked-display variant ((1+2*beta)^2 term) gives "
                f"{variant!r}; the statement value {stated!r} matches the "
                "derivation and is the one reported"
            )
    if tag == "LL" and tx.D2 != tx.D1:
        notes.append(
            "LL |a3| statement carries (alpha^2+5*alpha-8) on its |D2-D1| "
            "term where the derivation gives (8-5*alpha-alpha^2)"
        )

    degenerate = (
        a2_printed_sq is None or a2_generic_sq is None
        or a3_printed is None or a3_generic is None
    )
    return BoundReport(
        theorem=tag,
        alpha=point.alpha,
        beta=point.beta,
        phi=t.phi_floats,
        psi=t.psi_floats,
        sigma_printed=float(sig_printed),
        sigma_derived=float(sig_derived),
        sigma_tilde=float(point.sigma_tilde),
        a2_printed=_sqrt_or_none(a2_printed_sq),
        a2_generic=_sqrt_or_none(a2_generic_sq),
        a3_printed=float(a3_printed) if a3_printed is not None else None,
        a3_generic=float(a3_generic) if a3_generic is not None else None,
        degenerate=degenerate,
        discrepancies=tuple(discrepancies),
        notes=tuple(notes),
    )


def _sqrt_or_none(sq):
    return None if sq is None else math.sqrt(float(sq))


def _sqrt_or_nan(sq):
    return math.nan if sq is None else math.sqrt(float(sq))


def audit(tag, alphas, betas, target_pairs, rel_tol=AUDIT_REL_TOL):
    """Reports for every (alpha, beta, target pair) grid point, in grid order.

    Each quantity is evaluated once per level, as the module docstring
    lists.  The inverse-side ClassSpecs are built while the first row runs,
    so an invalid parameter raises at the first grid point that uses it.
    """
    tag = theorem_tag(tag)
    alphas = list(alphas)
    betas = list(betas)
    target_pairs = list(target_pairs)
    if not (alphas and betas and target_pairs):
        raise ValueError("audit needs a nonempty grid")
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {rel_tol!r}")
    targets = [_targets(phi, psi) for phi, psi in target_pairs]
    scale = SIGMA_SCALE[tag]
    # Per beta, filled by the first row: its float, the printed sigma's
    # coefficients in alpha, the inverse-side triple and a _Column per
    # target pair.
    columns = []
    out = []
    for alpha in alphas:
        a = _f(alpha)
        tf = triple(ClassSpec(tag[0], a))
        rows = [_row(tag, a, tf, t) for t in targets]
        a_float = float(a)
        for j, beta in enumerate(betas):
            if j == len(columns):
                b = _f(beta)
                tg = inverse_triple(triple(ClassSpec(tag[1], b)))
                columns.append((float(b), _sigma_in_alpha(tag, b), tg,
                                [_column(tag, b, tg, t) for t in targets]))
            b_float, sigma_coefficients, tg, cols = columns[j]
            st = triple_determinant(tf, tg)
            point = _Point(a_float, b_float, _horner(sigma_coefficients, a),
                           st, st / scale)
            out.extend(_report_at(tag, point, t, row, col, rel_tol)
                       for t, row, col in zip(targets, rows, cols))
    return out


# ----------------------------------------------------------------------
# classical reference table

REFERENCE_ROWS = (
    ("f in S, g in S", 1.5894),
    ("f in S*, g in S*", 2.0),
    ("f in S*, g in S", 1.507),
    ("f in C, g in S", 1.224),
)


def reduction_table() -> dict:
    """Classical |a2| reference values next to this package's PP evaluation.

    Reference rows are tabulated data, not recomputed here; the computed row
    is PP at alpha = beta = 0 with both targets Caratheodory (B2 = D2 = 2).
    """
    computed = printed_a2_bound("PP", 0, 0, 2, 2, 2, 2)
    rows = [
        {"classes": label, "source": "reference", "value": value}
        for label, value in REFERENCE_ROWS
    ]
    rows.append(
        {
            "classes": "PP alpha=0 beta=0, phi=psi=caratheodory",
            "source": "computed",
            "value": computed,
        }
    )
    notes = (
        "the computed row fixes B2 = D2 = 2; the classical reduction at "
        "alpha = beta = 0 with B1 = D1 = 2 leaves B2 and D2 unspecified",
        "with B2 = D2 = 2 the computed value 1.41421356 does not reproduce "
        "the tabulated starlike/starlike entry 2; which tabulated entry the "
        "reduction targets is unresolved",
    )
    return {"rows": rows, "notes": list(notes)}
