"""Unified coefficient solver for a paired class constraint.

Setup: f = z + a2 z^2 + a3 z^3 + ... satisfies the classF functional
subordinate to phi, and the inverse of f satisfies the classG functional
subordinate to psi.  Matching orders 1 and 2 of both subordinations gives
four scalar equations; with (p, q, r) the classF triple and (p', q', r')
the classG inverse triple (so r' = 2 q' - r_G already):

    f side:   p a2 = B1 c1 / 2
              q a3 - r a2^2 = X
    g side:  -p' a2 = D1 b1 / 2
              r' a2^2 - q' a3 = Y

where X = B1 c2 / 2 + (B2 - B1) c1^2 / 4 and Y is its mirror with D and b.
Eliminating a3 and c1^2 leaves closed forms linear in the free data:

    b1   = -kappa c1,       kappa = p' B1 / (p D1)
    a2^2 = g2 c2 + d2 b2,   g2 = q' B1 / (2 DEN),  d2 = q D1 / (2 DEN)
    a3   = gx X + gy Y,     gx = r' / sigma_tilde, gy = r / sigma_tilde

with sigma_tilde = q r' - q' r, the a3 elimination determinant, and
DEN = sigma_tilde - q' p^2 (B2-B1)/B1^2 - q p'^2 (D2-D1)/D1^2.

:func:`closed_forms` is the one kernel that evaluates (X, Y, a2^2, a3); the
rest of this module, the harness sweeps and checks, and the generic bounds
build on it or on its constants.
QComplex, Fraction and int inputs use the exact constants; complex, float
and ndarray inputs use float copies, so no Fraction ever multiplies an
ndarray.  A :class:`PairSpec` computes its two triples when built and its
constants on first use, and keeps them in its instance ``__dict__``, outside
its four namedtuple fields.  The constants, sigma_tilde and DEN among them,
come from :func:`closed_form_constants`, the one place that forms
sigma_tilde: it joins one :func:`side_constants` per side, so the audit can
evaluate many points from side parts it built once per parameter.  Both
work on int numerators: a side's parts share one denominator, and each
joined constant is a (numerator, denominator) pair.  A PairSpec holds those
pairs once and reads its Fractions and its floats (one int/int division
each) from them.

A PairSpec holds a ClassSpec and a MindaTarget per side, so both parameters
lie in their classes' ranges, where sigma_tilde is positive.  Only DEN can
vanish: that marks the result degenerate (a2^2 is None); it is data, not an
error, so parameter sweeps can pass through such points.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .series import EXACT, TruncatedSeries, mode_of
from .classes import (
    CheckedRecord,
    ClassSpec,
    ClassTriple,
    MindaTarget,
    SchwarzParams,
    inverse_triple,
    triple,
)

# Constants of the closed forms: X = half_b1 c2 + quarter_db c1^2, Y =
# half_d1 b2 + quarter_dd b1^2; g2 and d2 are None when DEN vanishes.
# closed_form_constants gives each as a (numerator, denominator) int pair,
# as PairSpec.constant_pairs holds them.
ClosedFormConstants = namedtuple(
    "ClosedFormConstants",
    "kappa half_b1 quarter_db half_d1 quarter_dd sigma_tilde denominator g2 d2 gx gy",
)
ClosedForms = namedtuple("ClosedForms", "x y a2_squared a3")


class PairSpec(CheckedRecord, namedtuple("PairSpec", "class_f phi class_g psi")):
    """Class-plus-target data for the function and for its inverse."""

    # No __slots__: the triples and the cached constants live in __dict__.

    def __new__(cls, class_f, phi, class_g, psi):
        fields = class_f, phi, class_g, psi
        for name, value, record in zip(cls._fields, fields, (ClassSpec, MindaTarget) * 2):
            if not isinstance(value, record):
                raise TypeError(f"{name} must be a {record.__name__}, "
                                f"got {type(value).__name__}")
        self = tuple.__new__(cls, fields)
        self._triple_f = triple(class_f)
        self._triple_g = inverse_triple(triple(class_g))
        return self

    def triple_f(self) -> ClassTriple:
        return self._triple_f

    def triple_g_inverse(self) -> ClassTriple:
        return self._triple_g

    def swapped(self) -> "PairSpec":
        return PairSpec(self.class_g, self.psi, self.class_f, self.phi)

    @cached_property
    def constant_pairs(self) -> ClosedFormConstants:
        f = side_constants(self._triple_f, self.phi, self.psi)
        g = side_constants(self._triple_g, self.psi, self.phi)
        return closed_form_constants(f, g)

    @cached_property
    def exact_constants(self) -> ClosedFormConstants:
        return ClosedFormConstants._make(
            [None if v is None else Fraction(*v) for v in self.constant_pairs])

    @cached_property
    def float_constants(self) -> ClosedFormConstants:
        # One correctly rounded int/int division each, as float(Fraction).
        return ClosedFormConstants._make(
            [None if v is None else v[0] / v[1] for v in self.constant_pairs])


def over_one_denominator(*pairs):
    """Int (numerator, denominator) pairs as numerators over one denominator.

    Returns (numerators, den) with den the least common multiple of the
    denominators, positive when they are nonzero.
    """
    # Lists, not generators, feed the star-arguments: a tuple unpacked from
    # a generator is resized, and when freed it joins CPython's tuple free
    # list without having come from it, so the list would only grow.
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def integer_ratios(*values):
    """Ints or Fractions as int numerators over their least common denominator."""
    return over_one_denominator(*[v.as_integer_ratio() for v in values])


# One side's share of the closed-form constants, as int numerators over the
# side's denominator den: for a triple t with its own target B and the other
# side's target D, t.q and t.r, shift = p^2 (B2 - B1) / B1^2, q_other = q D1
# and p_other = p D1, half = B1 / 2 and quarter = (B2 - B1) / 4.
SideConstants = namedtuple(
    "SideConstants", "q r shift q_other p_other half quarter den")


def side_constants(t: ClassTriple, own: MindaTarget,
                   other: MindaTarget) -> SideConstants:
    """The parts of the closed-form constants that one side determines.

    The function side is ``side_constants(tf, phi, psi)`` and the inverse
    side ``side_constants(tg, psi, phi)``.
    """
    (p, q, r), td = integer_ratios(t.p, t.q, t.r)
    (b1, b2, d1), T = integer_ratios(own.B1, own.B2, other.B1)
    values, den = over_one_denominator(
        (q, td), (r, td), (p * p * (b2 - b1) * T, td * td * b1 * b1),
        (q * d1, td * T), (p * d1, td * T), (b1, 2 * T), (b2 - b1, 4 * T))
    return SideConstants(*values, den)


def closed_form_constants(f: SideConstants, g: SideConstants) -> ClosedFormConstants:
    """The constants, sigma_tilde and DEN among them, as int pairs.

    f is the function side and g the inverse side; a caller that holds the
    side parts for many points need not build a PairSpec for each.
    sigma_tilde and DEN share the denominator f.den * g.den, g2 and d2 the
    denominator 2 DEN, gx and gy the numerator of sigma_tilde.
    """
    st = f.q * g.r - g.q * f.r  # sigma_tilde over f.den * g.den
    den = st - g.q * f.shift - f.q * g.shift
    g2 = d2 = None
    if den != 0:
        twice = 2 * den
        g2 = g.q_other * f.den, twice
        d2 = f.q_other * g.den, twice
    return ClosedFormConstants(
        (g.p_other * f.den, f.p_other * g.den), (f.half, f.den),
        (f.quarter, f.den), (g.half, g.den), (g.quarter, g.den),
        (st, f.den * g.den), (den, f.den * g.den), g2, d2,
        (g.r * f.den, st), (f.r * g.den, st),
    )


# Closed-form solution data; a2_squared is None when DEN vanishes.
EliminationResult = namedtuple(
    "EliminationResult",
    "a2_squared a3 rhs_f rhs_g sigma_tilde denominator degenerate")


def _constants(pair: PairSpec, *values) -> ClosedFormConstants:
    if mode_of(*values) == EXACT:
        return pair.exact_constants
    return pair.float_constants


def closed_forms(pair: PairSpec, c1, c2, b2, b1=None) -> ClosedForms:
    """Evaluate X, Y, a2^2 and a3 at scalars or broadcastable ndarrays.

    b1 defaults to the linkage value -kappa c1; a caller that extracted b1
    independently passes it so the linkage stays a separate check.
    """
    k = _constants(pair, c1, c2, b2)
    if b1 is None:
        b1 = -k.kappa * c1
    x = k.half_b1 * c2 + k.quarter_db * c1 * c1
    y = k.half_d1 * b2 + k.quarter_dd * b1 * b1
    a2_squared = None if k.g2 is None else k.g2 * c2 + k.d2 * b2
    return ClosedForms(x, y, a2_squared, k.gx * x + k.gy * y)


def linked_b1(pair: PairSpec, c1):
    """b1 implied by the two linear coefficient equations."""
    return -_constants(pair, c1).kappa * c1


def sigma_tilde(pair: PairSpec) -> Fraction:
    """The a3-elimination determinant q r' - q' r; symmetric under swapping."""
    return pair.exact_constants.sigma_tilde


def elimination_denominator(pair: PairSpec) -> Fraction:
    """DEN: sigma_tilde corrected by the second target coefficients."""
    return pair.exact_constants.denominator


def rhs_pair(pair: PairSpec, sp: SchwarzParams):
    """Order-2 right sides (X, Y); Y takes b1 from the linkage."""
    forms = closed_forms(pair, sp.c1, sp.c2, sp.b2)
    return forms.x, forms.y


def eliminate(pair: PairSpec, sp: SchwarzParams) -> EliminationResult:
    """Solve the four coefficient equations in closed form.

    The a2^2 value is the c1-free display (affine in c2 and b2); the a3
    value keeps the drawn c1 through X and Y.  Both specialize to the
    per-pairing displays once the B1^2 D1^2 normalization is cleared.
    """
    forms = closed_forms(pair, sp.c1, sp.c2, sp.b2)
    den = elimination_denominator(pair)
    return EliminationResult(
        a2_squared=forms.a2_squared,
        a3=forms.a3,
        rhs_f=forms.x,
        rhs_g=forms.y,
        sigma_tilde=sigma_tilde(pair),
        denominator=den,
        degenerate=den == 0,
    )


def _forward(t: ClassTriple, B1, c1, x):
    # The f-side equations p a2 = B1 c1 / 2 and q a3 - r a2^2 = X.
    a2 = B1 * c1 / (2 * t.p)
    return a2, (x + t.r * a2 * a2) / t.q


def solve_forward(spec: ClassSpec, target: MindaTarget, p_series: TruncatedSeries):
    """Unique order-3 solution of functional(f) = target((p-1)/(p+1)).

    Returns (a2, a3) for the transform coefficients c1 = p[1], c2 = p[2].
    """
    if not p_series.has_unit_constant():
        raise ValueError("forward solve needs a transform with constant term 1")
    if p_series.order < 2:
        raise ValueError("forward solve needs a transform of order at least 2, "
                         f"got order {p_series.order}")
    B1, B2 = target.B1, target.B2
    c1, c2 = p_series.coeffs[1:3]
    x = B1 * c2 / 2 + (B2 - B1) * c1 * c1 / 4
    return _forward(triple(spec), B1, c1, x)


def inverse_residual(pair: PairSpec, a2_squared, a3, y) -> float:
    """Magnitude of r' a2^2 - q' a3 - Y, the inverse-side equation's miss."""
    tg = pair.triple_g_inverse()
    return float(abs(tg.r * a2_squared - tg.q * a3 - y))


def consistency_residual(
    pair: PairSpec, sp: SchwarzParams, result: EliminationResult
) -> float:
    """Magnitude of the inverse-side equation residual r' a2^2 - q' a3 - Y.

    Exactly zero (in exact mode) whenever the Schwarz data is consistent,
    i.e. b2 is the one implied by the forward solution; the closed forms of
    ``eliminate`` then reproduce both order-2 equations.
    """
    if result.degenerate:
        raise ValueError("residual is undefined for a degenerate elimination")
    _, y = rhs_pair(pair, sp)
    return inverse_residual(pair, result.a2_squared, result.a3, y)


def implied_b2(pair: PairSpec, c1, c2):
    """b2 forced by the inverse-side order-2 equation for consistent data.

    Together with (c1, c2) this yields Schwarz data on which every closed
    form of this module agrees with the forward solution.
    """
    x, y_at_zero, _, _ = closed_forms(pair, c1, c2, 0)
    a2, a3 = _forward(pair.triple_f(), pair.phi.B1, c1, x)
    tg = pair.triple_g_inverse()
    y = tg.r * a2 * a2 - tg.q * a3
    # Y is affine in b2 with slope D1 / 2.
    return (y - y_at_zero) * 2 / pair.psi.B1
