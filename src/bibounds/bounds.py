"""Printed bound formulas, generically derived bounds, and their audit.

Six pairings are covered, tagged by the two class kinds:

    PP  PM  PL  MM  ML  LL

For each pairing the literature states a polynomial sigma(alpha, beta), an
|a2| bound, and an |a3| inequality whose left side is sigma |a3| times a
fixed multiplier (2 for PP, PM, MM, LL and 1 for PL, ML).  This module
transcribes those statements verbatim (``printed_*``), derives the same
quantities from the unified elimination (``generic_*``, see
:mod:`bibounds.solver`), and compares them point by point (:func:`audit`).

All internal arithmetic is exact (Fractions); square roots are taken only
when converting a final value to float, so printed and generic bounds that
agree algebraically agree bit-for-bit as floats.

:func:`audit` is the one evaluation loop; :func:`report` is a one-point
audit.  The audit evaluates each quantity at the level where it last
changes: the tag and tolerance checks once per audit; B1..D2, B1^2 D1^2
and the float target values once per target pair; the function-side
triple once per alpha and the inverse-side triple once per beta; the
printed sigma and sigma_tilde once per (alpha, beta).  At each point one
|a2| bracket (numerator and sigma-free remainder R, with denominator
sigma B1^2 D1^2 - R) and one |a3| right side serve the printed and the
derived sigma, and where the two sigmas agree (everywhere but at LL points
with alpha*beta != 0) the aligned values are the printed ones.  ``_printed_a2_sq``,
``_printed_a3_value`` and the ``_generic_*`` helpers stay the per-call
forms for callers with a single point.

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

from .classes import ClassSpec, MindaTarget, inverse_triple, triple
from .solver import (PairSpec, closed_form_constants, sigma_tilde,
                     triple_determinant)

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
        raise ValueError(f"unknown pairing tag {tag!r}")
    return tag


def theorem_pair(tag, alpha, beta, phi: MindaTarget, psi: MindaTarget) -> PairSpec:
    """Build the PairSpec a tag denotes at specific parameters/targets."""
    tag = theorem_tag(tag)
    return PairSpec(ClassSpec(tag[0], alpha), phi, ClassSpec(tag[1], beta), psi)


def _f(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def printed_sigma(tag, alpha, beta) -> Fraction:
    """Literal evaluation of the stated sigma polynomial."""
    tag = theorem_tag(tag)
    a, b = _f(alpha), _f(beta)
    if tag == "PP":
        return 2 + 7 * a + 7 * b + 24 * a * b
    if tag == "PM":
        return 2 + 7 * a + 3 * b + 11 * a * b
    if tag == "PL":
        return 10 + 36 * a - 7 * b - 25 * a * b + b * b + 3 * a * b * b
    if tag == "MM":
        return 2 + 3 * a + 3 * b + 4 * a * b
    if tag == "ML":
        return 10 + 14 * a - 7 * b + b * b + 2 * a * b * b - 10 * a * b
    return (
        24 + 3 * a * a + 3 * b * b - 17 * a - 17 * b
        - 2 * b * a * a - 2 * a * b * b - 12 * a * b
    )


def derived_sigma(tag, alpha, beta) -> Fraction:
    """sigma recovered from the elimination determinant, scaled per pairing."""
    tag = theorem_tag(tag)
    pair = theorem_pair(tag, alpha, beta, MindaTarget([1]), MindaTarget([1]))
    return sigma_tilde(pair) / SIGMA_SCALE[tag]


# ----------------------------------------------------------------------
# printed |a2| bounds: the numerator bracket and the sigma-free part R of
# the denominator bracket, exactly as stated; the denominator bracket is
# sigma B1^2 D1^2 - R.  The squared bound is a Fraction, or None when the
# denominator bracket vanishes.

def _printed_a2_brackets(tag, a, b, B1, B2, D1, D2):
    if tag == "PP":
        num = B1 * (1 + 3 * b) + D1 * (1 + 3 * a)
        rest = (
            (1 + 2 * a) ** 2 * (1 + 3 * b) * (B2 - B1) * D1**2
            + (1 + 2 * b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "PM":
        num = B1 * (1 + 2 * b) + D1 * (1 + 3 * a)
        rest = (
            (1 + 2 * a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            + (1 + b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "PL":
        num = 2 * (B1 * (3 - 2 * b) + D1 * (1 + 3 * a))
        rest = (
            2 * (1 + 2 * a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            + 2 * (2 - b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "MM":
        num = B1 * (1 + 2 * b) + D1 * (1 + 2 * a)
        rest = (
            (1 + a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            + (1 + b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "ML":
        num = 2 * (B1 * (3 - 2 * b) + D1 * (1 + 2 * a))
        rest = (
            2 * (1 + a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            + 2 * (2 - b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    num = 2 * (B1 * (3 - 2 * b) + D1 * (3 - 2 * a))
    rest = (
        2 * (2 - a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
        + 2 * (2 - b) ** 2 * (3 - 2 * a) * (D2 - D1) * B1**2
    )
    return num, rest


def _printed_a2_sq(tag, alpha, beta, B1, B2, D1, D2, sigma=None):
    tag = theorem_tag(tag)
    a, b = _f(alpha), _f(beta)
    B1, B2, D1, D2 = _f(B1), _f(B2), _f(D1), _f(D2)
    if sigma is None:
        sigma = printed_sigma(tag, a, b)
    num, rest = _printed_a2_brackets(tag, a, b, B1, B2, D1, D2)
    return _a2_sq(num, rest, sigma, B1**2 * D1**2)


def _a2_sq(num, rest, sigma, b1d1_sq):
    den = sigma * b1d1_sq - rest
    return None if den == 0 else b1d1_sq * num / abs(den)


def printed_a2_bound(tag, alpha, beta, B1, B2, D1, D2):
    """The stated |a2| bound, or None when its denominator bracket vanishes."""
    sq = _printed_a2_sq(tag, alpha, beta, B1, B2, D1, D2)
    return None if sq is None else math.sqrt(float(sq))


def pm_display_variant_a2_bound(alpha, beta, B1, B2, D1, D2):
    """The PM |a2| value per the worked-display variant ((1+2*beta)^2 term)."""
    a, b = _f(alpha), _f(beta)
    B1, B2, D1, D2 = _f(B1), _f(B2), _f(D1), _f(D2)
    sigma = printed_sigma("PM", a, b)
    num = B1 * (1 + 2 * b) + D1 * (1 + 3 * a)
    den = (
        sigma * B1**2 * D1**2
        - (1 + 2 * a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
        - (1 + 2 * b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
    )
    if den == 0:
        return None
    return math.sqrt(float(B1**2 * D1**2 * num / abs(den)))


# ----------------------------------------------------------------------
# printed |a3| bounds: right side divided by the printed multiplier of
# sigma |a3|, using |sigma|; None when sigma vanishes.

def _printed_a3_rhs(tag, a, b, B1, B2, D1, D2):
    if tag == "PP":
        return (
            B1 * (3 + 10 * b) + D1 * (1 + 2 * a)
            + (3 + 10 * b) * abs(B2 - B1)
            + (1 + 2 * b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PM":
        return (
            B1 * (3 + 5 * b) + D1 * (1 + 2 * a)
            + (3 + 5 * b) * abs(B2 - B1)
            + (1 + b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PL":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly / 2 + D1 * (1 + 2 * a)
            + poly * abs(B2 - B1) / 2
            + (2 - b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "MM":
        return (
            B1 * (3 + 5 * b) + D1 * (1 + 3 * a)
            + (3 + 5 * b) * abs(B2 - B1)
            + (1 + b) ** 2 * (1 + 3 * a) * B1**2 * abs(D2 - D1)
            / (D1**2 * (1 + a) ** 2)
        )
    if tag == "ML":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly / 2 + D1 * (1 + 3 * a)
            + poly * abs(B2 - B1) / 2
            + (2 - b) ** 2 * (1 + 3 * a) * B1**2 * abs(D2 - D1)
            / (D1**2 * (1 + a) ** 2)
        )
    poly = b * b - 11 * b + 16
    return (
        B1 * poly + D1 * (8 - 5 * a - a * a)
        + poly * abs(B2 - B1)
        + (2 - b) ** 2 * (a * a + 5 * a - 8) * B1**2 * abs(D2 - D1)
        / (D1**2 * (2 - a) ** 2)
    )


def _printed_a3_value(tag, alpha, beta, B1, B2, D1, D2, sigma=None):
    tag = theorem_tag(tag)
    a, b = _f(alpha), _f(beta)
    B1, B2, D1, D2 = _f(B1), _f(B2), _f(D1), _f(D2)
    if sigma is None:
        sigma = printed_sigma(tag, a, b)
    if sigma == 0:
        return None
    return _a3_value(tag, _printed_a3_rhs(tag, a, b, B1, B2, D1, D2), sigma)


def _a3_value(tag, rhs, sigma):
    return None if sigma == 0 else rhs / (A3_MULTIPLIER[tag] * abs(sigma))


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
    sq = _generic_a2_sq(pair)
    return None if sq is None else math.sqrt(float(sq))


def _generic_a3_value(pair: PairSpec):
    return _generic_a3_at(pair.exact_constants, pair.phi, pair.psi)


def _generic_a3_at(k, phi: MindaTarget, psi: MindaTarget):
    # |a3| <= |gx| sup|X| + |gy| sup|Y| over |c1|, |c2|, |b2| <= 2.
    if k.gx is None:
        return None
    sup_x = phi.B1 + abs(phi.B2 - phi.B1)
    sup_y = psi.B1 + k.kappa**2 * abs(psi.B2 - psi.B1)
    return abs(k.gx) * sup_x + abs(k.gy) * sup_y


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


# Per target pair, what every audit point reads: the exact B1, B2, D1, D2,
# B1^2 D1^2, and the float witness values and coefficient tuples.
_Targets = namedtuple(
    "_Targets", "phi psi B1 B2 D1 D2 b1d1_sq witness phi_floats psi_floats")

# Per (alpha, beta): the exact parameters a, b and their floats alpha, beta,
# the function-side and inverse-side triples, and the printed sigma,
# sigma_tilde and derived sigma.
_Cell = namedtuple(
    "_Cell", "a b alpha beta tf tg sigma_printed sigma_tilde sigma_derived")


def _targets(phi: MindaTarget, psi: MindaTarget) -> _Targets:
    B1, B2, D1, D2 = phi.B1, phi.B2, psi.B1, psi.B2
    return _Targets(
        phi, psi, B1, B2, D1, D2, B1**2 * D1**2,
        dict(B1=float(B1), B2=float(B2), D1=float(D1), D2=float(D2)),
        tuple(float(c) for c in phi.coefficients),
        tuple(float(c) for c in psi.coefficients),
    )


def _report_at(tag, cell: _Cell, t: _Targets, rel_tol) -> BoundReport:
    a, b = cell.a, cell.b
    sig_printed, sig_derived = cell.sigma_printed, cell.sigma_derived
    # One bracket and one right side serve both sigmas.
    num, rest = _printed_a2_brackets(tag, a, b, t.B1, t.B2, t.D1, t.D2)
    rhs = _printed_a3_rhs(tag, a, b, t.B1, t.B2, t.D1, t.D2)
    a2_printed_sq = _a2_sq(num, rest, sig_printed, t.b1d1_sq)
    a3_printed = _a3_value(tag, rhs, sig_printed)
    if sig_derived == sig_printed:  # all but LL points with alpha*beta != 0
        a2_aligned_sq, a3_aligned = a2_printed_sq, a3_printed
    else:
        a2_aligned_sq = _a2_sq(num, rest, sig_derived, t.b1d1_sq)
        a3_aligned = _a3_value(tag, rhs, sig_derived)
    k = closed_form_constants(cell.tf, cell.tg, cell.sigma_tilde, t.phi, t.psi)
    a2_generic_sq = _generic_a2_sq_at(k)
    a3_generic = _generic_a3_at(k, t.phi, t.psi)

    witness = dict(alpha=cell.alpha, beta=cell.beta, **t.witness)
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
    if tag == "PM" and t.D2 != t.D1:
        variant = pm_display_variant_a2_bound(a, b, t.B1, t.B2, t.D1, t.D2)
        stated = _sqrt_or_nan(a2_printed_sq)
        if variant is None or abs(variant - stated) > rel_tol * max(1.0, stated):
            notes.append(
                "PM |a2| worked-display variant ((1+2*beta)^2 term) gives "
                f"{variant!r}; the statement value {stated!r} matches the "
                "derivation and is the one reported"
            )
    if tag == "LL" and t.D2 != t.D1:
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
        alpha=cell.alpha,
        beta=cell.beta,
        phi=t.phi_floats,
        psi=t.psi_floats,
        sigma_printed=float(sig_printed),
        sigma_derived=float(sig_derived),
        sigma_tilde=float(cell.sigma_tilde),
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
    columns = []  # (b, inverse-side triple) per beta, filled by the first row
    out = []
    for alpha in alphas:
        a = _f(alpha)
        tf = triple(ClassSpec(tag[0], a))
        for j, beta in enumerate(betas):
            if j == len(columns):
                b = _f(beta)
                columns.append((b, inverse_triple(triple(ClassSpec(tag[1], b)))))
            b, tg = columns[j]
            st = triple_determinant(tf, tg)
            cell = _Cell(a, b, float(a), float(b), tf, tg,
                         printed_sigma(tag, a, b), st, st / SIGMA_SCALE[tag])
            out.extend(_report_at(tag, cell, t, rel_tol) for t in targets)
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
