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

All internal arithmetic is exact, on int numerators over per-row and
per-column denominators (see the comment that opens the printed
statements); square roots are taken only when converting a final value to
float, one correctly rounded int/int division, so printed and generic
bounds that agree algebraically agree bit-for-bit as floats.  The
single-point functions return Fractions (or their floats).

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
from fractions import Fraction

from .classes import (ClassSpec, MindaTarget, _quoted, _real_fraction,
                      inverse_triple, triple)
from .solver import (PairSpec, closed_form_constants, integer_ratios,
                     over_one_denominator, side_constants, sigma_tilde)

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
#
# The arithmetic runs on ints.  A parameter n/d enters each factor times
# d^2 (so 1 + 3a reads d^2 + 3nd), the targets enter as numerators over
# one common denominator T, each side holds its fields as numerators over
# one denominator of its own, and an exact value at a point is a
# (numerator, positive denominator) pair, or None where it is undefined.

# Target-only factors of the statements, as int numerators over powers of
# the common denominator T: B1, D1, D2 and sup_x = B1 + |B2 - B1| over T;
# D1^2 over T^2; (B2 - B1) D1^2, (D2 - D1) B1^2 and B1^2 |D2 - D1| over
# T^3; B1^2 D1^2 over T^4.
_TargetFactors = namedtuple(
    "_TargetFactors", "T B1 D1 D2 b1d1_sq d1_sq db_d1sq dd_b1sq b1sq_dd sup_x")

# One side of a statement as int numerators over its denominator den; the
# function side's x is None at a pole of the |a3| cross term (a parameter
# outside its class, or D1 = 0).
_Side = namedtuple("_Side", "num r1 r2 rhs x den")


def _target_factors(B1, B2, D1, D2) -> _TargetFactors:
    (B1, B2, D1, D2), T = integer_ratios(B1, B2, D1, D2)
    b1_sq, d1_sq = B1 * B1, D1 * D1
    return _TargetFactors(
        T, B1, D1, D2, b1_sq * d1_sq, d1_sq, (B2 - B1) * d1_sq,
        (D2 - D1) * b1_sq, b1_sq * abs(D2 - D1), B1 + abs(B2 - B1),
    )


def _sigma_in_alpha(tag, b, d) -> tuple:
    """Coefficients of the printed sigma as a polynomial in alpha.

    At beta = b/d, as int numerators over d^2.
    """
    dd = d * d
    if tag == "PP":  # 2 + 7a + 7b + 24ab
        return 2 * dd + 7 * d * b, 7 * dd + 24 * d * b
    if tag == "PM":  # 2 + 7a + 3b + 11ab
        return 2 * dd + 3 * d * b, 7 * dd + 11 * d * b
    if tag == "PL":  # 10 + 36a - 7b - 25ab + b^2 + 3ab^2
        return 10 * dd - 7 * d * b + b * b, 36 * dd - 25 * d * b + 3 * b * b
    if tag == "MM":  # 2 + 3a + 3b + 4ab
        return 2 * dd + 3 * d * b, 3 * dd + 4 * d * b
    if tag == "ML":  # 10 + 14a - 7b + b^2 + 2ab^2 - 10ab
        return 10 * dd - 7 * d * b + b * b, 14 * dd - 10 * d * b + 2 * b * b
    # LL: 24 + 3a^2 + 3b^2 - 17a - 17b - 2ba^2 - 2ab^2 - 12ab
    return (24 * dd - 17 * d * b + 3 * b * b, -17 * dd - 12 * d * b - 2 * b * b,
            3 * dd - 2 * d * b)


def _horner(coefficients, n, d):
    """The polynomial with these coefficients at n/d, as (numerator, d**degree)."""
    value, weight = coefficients[-1], 1
    for c in coefficients[-2::-1]:
        weight *= d
        value = value * n + c * weight
    return value, weight


def _sigma_pair(tag, a, b):
    # The printed sigma at Fractions a and b as (numerator, denominator).
    d = b.denominator
    num, den = _horner(_sigma_in_alpha(tag, b.numerator, d), a.numerator, a.denominator)
    return num, den * d * d


def _function_side(tag, a, t: _TargetFactors) -> _Side:
    """F: the tag's alpha factors at alpha = a, joined with the targets.

    s is the alpha factor of the |a2| numerator and of the (D2 - D1) term
    of its denominator, sq that of the (B2 - B1) term, rhs the alpha term
    of the |a3| right side and x_num / x_den the alpha factor of its
    |D2 - D1| term.
    """
    n, d = a.numerator, a.denominator
    dd = d * d
    if tag[0] == "P":
        s, sq, rhs = dd + 3 * n * d, (d + 2 * n) ** 2, dd + 2 * n * d
        x_num, x_den = dd, dd + 2 * n * d
    elif tag[0] == "M":
        s, sq, rhs = dd + 2 * n * d, (d + n) ** 2, dd + 3 * n * d
        x_num, x_den = dd + 3 * n * d, sq
    else:
        s, sq, rhs = 3 * dd - 2 * n * d, (2 * d - n) ** 2, 8 * dd - 5 * n * d - n * n
        x_num, x_den = n * n + 5 * n * d - 8 * dd, sq
    m = 2 if tag[1] == "L" else 1  # the L-inverse |a2| statements are doubled
    T = t.T
    fields = [(m * t.D1 * s, T * dd), (sq * t.db_d1sq, T**3 * dd), (s, dd),
              (t.D1 * rhs, T * dd)]
    x_den = t.d1_sq * x_den
    if x_den != 0:
        fields.append((x_num * t.b1sq_dd, T * x_den))
    values, den = over_one_denominator(*fields)
    return _Side(*values[:4], values[4] if x_den != 0 else None, den)


def _inverse_side(tag, b, t: _TargetFactors) -> _Side:
    """G: the tag's beta factors at beta = b, joined with the targets.

    s, sq and c play the parts of F's s, sq and rhs with the two target
    differences swapped; sq is also the beta factor of the |a3| cross term.
    """
    n, d = b.numerator, b.denominator
    dd = d * d
    m = c_den = 1
    if tag[1] == "P":
        s, sq, c = dd + 3 * n * d, (d + 2 * n) ** 2, 3 * dd + 10 * n * d
    elif tag[1] == "M":
        s, sq, c = dd + 2 * n * d, (d + n) ** 2, 3 * dd + 5 * n * d
    else:
        m, s, sq, c = 2, 3 * dd - 2 * n * d, (2 * d - n) ** 2, n * n - 11 * n * d + 16 * dd
        if tag != "LL":  # PL and ML halve the polynomial, LL does not
            c_den = 2
    T = t.T
    values, den = over_one_denominator(
        (m * t.B1 * s, T * dd), (m * s, dd), (m * sq * t.dd_b1sq, T**3 * dd),
        (c * t.sup_x, c_den * T * dd), (sq, dd))
    return _Side(*values, den)


def _pm_display_side(b, t: _TargetFactors) -> _Side:
    """PM's G with the worked display's (1+2*beta)^2 on its |D2 - D1| term."""
    G = _inverse_side("PM", b, t)
    n, d = b.numerator, b.denominator
    # G.den is a multiple of r2's own denominator d^2 T^3.
    return G._replace(r2=(d + 2 * n) ** 2 * t.dd_b1sq * (G.den // (d * d * t.T**3)))


def _join_a2(F: _Side, G: _Side):
    """The |a2| numerator bracket and the sigma-free part of the denominator.

    Both are numerators over F.den * G.den.
    """
    return F.num * G.den + G.num * F.den, F.r1 * G.r1 + F.r2 * G.r2


def _join_a3(F: _Side, G: _Side):
    """The right side of the |a3| inequality, over F.den * G.den."""
    return F.rhs * G.den + G.rhs * F.den + F.x * G.x


def _a2_sq(num, rest, den, sigma, t: _TargetFactors):
    # B1^2 D1^2 num / |sigma B1^2 D1^2 - rest| for num and rest over den.
    (sn, sd), b = sigma, t.b1d1_sq
    bracket = sn * b * den - rest * sd * t.T**4
    return None if bracket == 0 else (b * num * sd, abs(bracket))


def _a3_value(tag, rhs, den, sigma):
    # rhs / (sigma_m |sigma|) for rhs over den.
    sn, sd = sigma
    return None if sn == 0 else (rhs * sd, A3_MULTIPLIER[tag] * abs(sn) * den)


def _point(tag, alpha, beta, B1, B2, D1, D2):
    # The single-point functions' inputs and the printed sigma there.
    tag = theorem_tag(tag)
    a, b, *targets = map(_real_fraction, (alpha, beta, B1, B2, D1, D2),
                         ("alpha", "beta", "B1", "B2", "D1", "D2"))
    return tag, a, b, _target_factors(*targets), _sigma_pair(tag, a, b)


def _fraction(value):
    return None if value is None else Fraction(*value)


def printed_sigma(tag, alpha, beta) -> Fraction:
    """Literal evaluation of the stated sigma polynomial."""
    tag = theorem_tag(tag)
    return Fraction(*_sigma_pair(tag, *map(_real_fraction, (alpha, beta), ("alpha", "beta"))))


def derived_sigma(tag, alpha, beta) -> Fraction:
    """sigma recovered from the elimination determinant, scaled per pairing.

    sigma_tilde reads no target, so unit targets serve every point.
    """
    tag = theorem_tag(tag)
    unit = MindaTarget([1])
    return sigma_tilde(theorem_pair(tag, alpha, beta, unit, unit)) / SIGMA_SCALE[tag]


def _printed_a2(tag, alpha, beta, B1, B2, D1, D2, display=False):
    # The squared stated |a2| bound as a pair (with the PM worked-display G
    # when display is set), or None when the denominator bracket vanishes.
    tag, a, b, t, sigma = _point(tag, alpha, beta, B1, B2, D1, D2)
    F = _function_side(tag, a, t)
    G = _pm_display_side(b, t) if display else _inverse_side(tag, b, t)
    num, rest = _join_a2(F, G)
    return _a2_sq(num, rest, F.den * G.den, sigma, t)


def _printed_a2_sq(tag, alpha, beta, B1, B2, D1, D2):
    # The squared stated |a2| bound, a Fraction, or None when the
    # denominator bracket vanishes.
    return _fraction(_printed_a2(tag, alpha, beta, B1, B2, D1, D2))


def printed_a2_bound(tag, alpha, beta, B1, B2, D1, D2):
    """The stated |a2| bound, or None when its denominator bracket vanishes."""
    return _sqrt_or(_printed_a2(tag, alpha, beta, B1, B2, D1, D2))


def pm_display_variant_a2_bound(alpha, beta, B1, B2, D1, D2):
    """The PM |a2| value per the worked-display variant ((1+2*beta)^2 term)."""
    return _sqrt_or(_printed_a2("PM", alpha, beta, B1, B2, D1, D2, display=True))


def _printed_a3(tag, alpha, beta, B1, B2, D1, D2):
    # The stated |a3| right side over sigma_m |sigma| as a pair; None at sigma = 0.
    tag, a, b, t, sigma = _point(tag, alpha, beta, B1, B2, D1, D2)
    if sigma[0] == 0:
        return None
    F = _function_side(tag, a, t)
    if F.x is None:
        raise ZeroDivisionError("the |a3| statement has a pole at this alpha or D1")
    G = _inverse_side(tag, b, t)
    return _a3_value(tag, _join_a3(F, G), F.den * G.den, sigma)


def _printed_a3_value(tag, alpha, beta, B1, B2, D1, D2):
    # The stated |a3| right side over sigma_m |sigma|; None at sigma = 0.
    return _fraction(_printed_a3(tag, alpha, beta, B1, B2, D1, D2))


def printed_a3_bound(tag, alpha, beta, B1, B2, D1, D2):
    """The stated |a3| bound normalized to |a3| itself, or None at sigma = 0."""
    return _float_or(_printed_a3(tag, alpha, beta, B1, B2, D1, D2))


# ----------------------------------------------------------------------
# generic bounds from the unified elimination

def _generic_a2_sq(pair: PairSpec):
    return _fraction(_generic_a2_sq_at(pair.constant_pairs))


def _generic_a2_sq_at(k):
    # |a2^2| <= 2 |g2| + 2 |d2| over |c2|, |b2| <= 2.
    if k.g2 is None:
        return None
    (gn, gd), (dn, dd) = k.g2, k.d2
    return 2 * (abs(gn * dd) + abs(dn * gd)), abs(gd * dd)


def generic_a2_bound(pair: PairSpec):
    """sqrt((q' B1 + q D1)/|DEN|); None when DEN vanishes.

    Symmetric under swapping the two sides of the pair.
    """
    return _sqrt_or(_generic_a2_sq_at(pair.constant_pairs))


def _generic_a3_value(pair: PairSpec):
    return Fraction(*_generic_a3_at(pair.constant_pairs))


def _generic_a3_at(k):
    # |a3| <= |gx| sup|X| + |gy| sup|Y| over |c1|, |c2|, |b2| <= 2, with
    # sup|X| = 2 half_b1 + 4 |quarter_db| and sup|Y| = 2 half_d1 +
    # 4 kappa^2 |quarter_dd|.  A side's parts share its denominator, and gx
    # and gy share sigma_tilde's numerator, which is positive.
    (xn, st), (yn, _), (kn, kd) = k.gx, k.gy, k.kappa
    (b, fd), (db, _), (d, gd), (dd, _) = k.half_b1, k.quarter_db, k.half_d1, k.quarter_dd
    kd_sq = kd * kd
    sup_x = 2 * b + 4 * abs(db)  # over fd
    sup_y = 2 * d * kd_sq + 4 * kn * kn * abs(dd)  # over gd kd^2
    return abs(xn) * sup_x * gd * kd_sq + abs(yn) * sup_y * fd, st * fd * gd * kd_sq


def generic_a3_bound(pair: PairSpec):
    """Termwise |a3| bound |gx| sup|X| + |gy| sup|Y|; never None, as sigma_tilde > 0.

    Each of X and Y is bounded over the relaxed coefficient region on its
    own, so the bound need not be attained: when (B2 - B1) and
    kappa^2 (D2 - D1) pull in opposite directions the supremum of |a3| can
    be strictly smaller (see ``sweep_a3``).
    """
    return _float_or(_generic_a3_at(pair.constant_pairs))


# ----------------------------------------------------------------------
# audit

# One printed-vs-derived mismatch with its witness parameters.
Discrepancy = namedtuple(
    "Discrepancy", "field printed derived alpha beta B1 B2 D1 D2")

# Printed and derived values at one parameter/target point.
BoundReport = namedtuple(
    "BoundReport",
    "theorem alpha beta phi psi sigma_printed sigma_derived sigma_tilde "
    "a2_printed a2_generic a3_printed a3_generic degenerate discrepancies notes")


def _mismatch(left, right, rel_tol=AUDIT_REL_TOL) -> bool:
    # Exact pairs (or None) on both sides; exact comparison decides first.
    # A difference then flags when it exceeds rel_tol * max(|left|,
    # |right|), with that product as Fraction arithmetic forms it: the float
    # rel_tol * float(scale) for a float tolerance (so a scale too large for
    # a float raises OverflowError), exact for an int or Fraction one.  The
    # float product is finite, as rel_tol < 1.
    if left is None or right is None:
        return (left is None) != (right is None)
    (ln, ld), (rn, rd) = left, right
    if ln * rd == rn * ld:
        return False
    sn, sd = left if abs(ln) * rd >= abs(rn) * ld else right
    if isinstance(rel_tol, float):
        tn, td = (rel_tol * (abs(sn) / sd)).as_integer_ratio()
    else:
        tn, td = rel_tol.numerator * abs(sn), rel_tol.denominator * sd
    return abs(ln * rd - rn * ld) * td > tn * ld * rd


def report(tag, alpha, beta, phi: MindaTarget, psi: MindaTarget,
           rel_tol=AUDIT_REL_TOL) -> BoundReport:
    """Evaluate printed and generic values at one point and diff them.

    A one-point :func:`audit`.  The a2/a3 comparisons substitute the derived
    sigma into the printed formulas first, so a sigma mismatch is reported
    once under its own field instead of contaminating every downstream value.
    """
    return audit(tag, [alpha], [beta], [(phi, psi)], rel_tol)[0]


# Per target pair, what every audit point reads: the targets, their
# factors, the float witness values (B1, B2, D1, D2) and coefficient tuples.
_Targets = namedtuple("_Targets", "phi psi factors witness phi_floats psi_floats")

# Per (alpha, target pair): the printed F and the function-side constants.
_Row = namedtuple("_Row", "printed generic")

# Per (beta, target pair): the printed G, the PM display variant's G (None
# unless the tag is PM and D2 != D1, where the audit notes it) and the
# inverse-side constants.
_Column = namedtuple("_Column", "printed display generic")


def _targets(phi: MindaTarget, psi: MindaTarget) -> _Targets:
    B1, B2, D1, D2 = phi.B1, phi.B2, psi.B1, psi.B2
    return _Targets(phi, psi, _target_factors(B1, B2, D1, D2),
                    _floats((B1, B2, D1, D2)), _floats(phi.coefficients),
                    _floats(psi.coefficients))


def _floats(values) -> tuple:
    # int/int true division rounds as float() of the Fraction does, and
    # raises the same OverflowError, without numbers.Rational.__float__.
    return tuple([v.numerator / v.denominator for v in values])


def _column(tag, b, tg, t: _Targets) -> _Column:
    return _Column(
        _inverse_side(tag, b, t.factors),
        _pm_display_side(b, t.factors)
        if tag == "PM" and t.factors.D2 != t.factors.D1 else None,
        side_constants(tg, t.psi, t.phi),
    )


def _report_at(tag, alpha, beta, sig_printed, t: _Targets, row: _Row,
               col: _Column, rel_tol) -> BoundReport:
    tx, F = t.factors, row.printed
    k = closed_form_constants(row.generic, col.generic)
    st, fg = k.sigma_tilde
    sig_derived = st, fg * SIGMA_SCALE[tag]
    # One bracket and one right side serve both sigmas.
    den = F.den * col.printed.den
    num, rest = _join_a2(F, col.printed)
    rhs = _join_a3(F, col.printed)
    a2_printed_sq = _a2_sq(num, rest, den, sig_printed, tx)
    a3_printed = _a3_value(tag, rhs, den, sig_printed)
    # The two sigmas agree everywhere but at LL points with alpha*beta != 0.
    if st * sig_printed[1] == sig_printed[0] * sig_derived[1]:
        a2_aligned_sq, a3_aligned = a2_printed_sq, a3_printed
    else:
        a2_aligned_sq = _a2_sq(num, rest, den, sig_derived, tx)
        a3_aligned = _a3_value(tag, rhs, den, sig_derived)
    a2_generic_sq = _generic_a2_sq_at(k)
    a3_generic = _generic_a3_at(k)

    discrepancies = []
    for field, printed, derived, to_float in (
            ("sigma", sig_printed, sig_derived, _float_or),
            ("a2", a2_aligned_sq, a2_generic_sq, _sqrt_or),
            ("a3", a3_aligned, a3_generic, _float_or)):
        if _mismatch(printed, derived, rel_tol):
            discrepancies.append(Discrepancy(field, to_float(printed, math.nan),
                                             to_float(derived, math.nan),
                                             alpha, beta, *t.witness))

    notes = []
    if col.display is not None:
        G = col.display
        num, rest = _join_a2(F, G)
        variant = _sqrt_or(_a2_sq(num, rest, F.den * G.den, sig_printed, tx))
        stated = _sqrt_or(a2_printed_sq, math.nan)
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

    degenerate = a2_printed_sq is None or a2_generic_sq is None or a3_printed is None
    return BoundReport(
        theorem=tag,
        alpha=alpha,
        beta=beta,
        phi=t.phi_floats,
        psi=t.psi_floats,
        sigma_printed=sig_printed[0] / sig_printed[1],
        sigma_derived=st / sig_derived[1],
        sigma_tilde=st / fg,
        a2_printed=_sqrt_or(a2_printed_sq),
        a2_generic=_sqrt_or(a2_generic_sq),
        a3_printed=_float_or(a3_printed),
        a3_generic=_float_or(a3_generic),
        degenerate=degenerate,
        discrepancies=tuple(discrepancies),
        notes=tuple(notes),
    )


def _float_or(value, missing=None):
    # An exact pair's float: the int true division rounds correctly, as
    # float() of the Fraction does.
    return missing if value is None else value[0] / value[1]


def _sqrt_or(sq, missing=None):
    return missing if sq is None else math.sqrt(sq[0] / sq[1])


def audit(tag, alphas, betas, target_pairs, rel_tol=AUDIT_REL_TOL):
    """Reports for every (alpha, beta, target pair) grid point, in grid order.

    Each quantity is evaluated once per level, as the module docstring
    lists.  The inverse-side ClassSpecs are built while the first row runs,
    so an invalid parameter raises at the first grid point that uses it.
    """
    tag = theorem_tag(tag)
    alphas, betas, target_pairs = list(alphas), list(betas), list(target_pairs)
    if not (alphas and betas and target_pairs):
        raise ValueError("audit needs a nonempty grid")
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {rel_tol!r}")
    if rel_tol >= 1:  # no same-sign mismatch could flag
        raise ValueError(f"tolerance must be below 1, got {rel_tol!r}")
    targets = [_targets(phi, psi) for phi, psi in target_pairs]
    # Per beta, filled by the first row: its float, the printed sigma's
    # coefficients in alpha as numerators over its d^2, that d^2, and a
    # _Column per target pair.
    columns = []
    out = []
    for alpha in alphas:
        a = _real_fraction(alpha, "alpha")
        tf = triple(ClassSpec(tag[0], a))
        rows = [_Row(_function_side(tag, a, t.factors), side_constants(tf, t.phi, t.psi))
                for t in targets]
        n, d = a.numerator, a.denominator
        a_float = n / d
        for j, beta in enumerate(betas):
            if j == len(columns):
                b = _real_fraction(beta, "beta")
                tg = inverse_triple(triple(ClassSpec(tag[1], b)))
                columns.append((b.numerator / b.denominator,
                                _sigma_in_alpha(tag, b.numerator, b.denominator),
                                b.denominator ** 2,
                                [_column(tag, b, tg, t) for t in targets]))
            b_float, coefficients, c_den, cols = columns[j]
            sigma_num, sigma_den = _horner(coefficients, n, d)
            sigma = sigma_num, c_den * sigma_den
            out.extend(_report_at(tag, a_float, b_float, sigma, t, row, col, rel_tol)
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
