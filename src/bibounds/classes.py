"""Function classes, targets, and the order-2 expansion machinery.

Three one-parameter families of normalized analytic functions are covered,
identified by a kind letter and parameter:

``P`` (param alpha >= 0)
    functional ``z f'/f + alpha z^2 f''/f``
``M`` (param alpha >= 0)
    functional ``(1-alpha) z f'/f + alpha (1 + z f''/f')``
``L`` (param alpha in [0, 1])
    functional ``(z f'/f)^alpha (1 + z f''/f')^(1-alpha)``

Every kind's functional expands as ``1 + p a2 z + (q a3 - r a2^2) z^2`` for a
triple ``(p, q, r)`` depending only on the kind and parameter; the triple is
the unified currency of the whole package.  On the inverse function the same
triple acts with ``r`` replaced by ``2q - r`` (see :func:`inverse_triple`).

A target is the superordinate function ``1 + B1 z + B2 z^2 + ...`` with real
coefficients and ``B1 > 0``.  Presets: ``caratheodory`` (all 2),
``order:<g>`` (all ``2(1-g)``) and ``strong:<g>`` (the ``g``-th power of the
Caratheodory target, expanded by the series engine).
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction

from .series import (
    DEFAULT_ORDER,
    EXACT,
    FLOAT,
    QComplex,
    TruncatedSeries,
    _count,
    coerce_scalar,
    mode_of,
)

KIND_P = "P"
KIND_M = "M"
KIND_L = "L"
CLASS_KINDS = (KIND_P, KIND_M, KIND_L)


def _real_fraction(value, what):
    """A real value as a Fraction; text is read by :func:`rational`, with its limits.

    A bool is refused as the other non-real types are, and a float must be finite.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rational(value)
    if isinstance(value, QComplex) and value.is_real:
        return value.re
    raise TypeError(f"{what} must be real, got {value!r}")


def _seed(value):
    """A seed as given: an int of at least 0, else an error naming the seed."""
    if _count(value, "seed") < 0:
        raise ValueError(f"seed must be at least 0, got {brief(value)}")
    return value


class CheckedRecord:
    """Base for a namedtuple whose constructor checks or converts its fields.

    ``_make``, and so ``_replace``, builds through the constructor, so no
    replacement gives a value that the constructor refuses.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MindaTarget(CheckedRecord, namedtuple("MindaTarget", "coefficients")):
    """Real coefficients B1.. of a target ``1 + B1 z + B2 z^2 + ...``.

    B1 must be positive; coefficients beyond the stored ones are zero.
    """

    __slots__ = ()

    def __new__(cls, coefficients):
        if isinstance(coefficients, str):
            raise TypeError("target coefficients must be a sequence of numbers, not a str")
        values = tuple([_real_fraction(c, "target coefficient") for c in coefficients])
        if not values:
            raise ValueError("a target needs at least B1")
        if values[0] <= 0:
            raise ValueError(f"B1 must be positive, got {brief(values[0])}")
        return tuple.__new__(cls, (values,))

    @property
    def B1(self) -> Fraction:
        return self.coefficients[0]

    @property
    def B2(self) -> Fraction:
        return self.coefficient(2)

    def coefficient(self, n: int) -> Fraction:
        """B_n (1-based); zero beyond the stored list."""
        if n < 1:
            raise IndexError("target coefficients start at B1")
        if n > len(self.coefficients):
            return Fraction(0)
        return self.coefficients[n - 1]

    def series(self, order=DEFAULT_ORDER, mode=EXACT) -> TruncatedSeries:
        coeffs = [1] + [self.coefficient(n) for n in range(1, order + 1)]
        return TruncatedSeries(coeffs, mode=mode, order=order)


class ClassSpec(CheckedRecord, namedtuple("ClassSpec", "kind param")):
    """A class kind plus its real parameter."""

    __slots__ = ()

    def __new__(cls, kind, param):
        if kind not in CLASS_KINDS:
            raise ValueError(f"unknown class kind {kind!r}")
        value = _real_fraction(param, "class parameter")
        if kind == KIND_L:
            if not 0 <= value <= 1:
                raise ValueError(
                    f"L-class parameter must lie in [0, 1], got {brief(value)}"
                )
        elif value < 0:
            raise ValueError(
                f"{kind}-class parameter must be nonnegative, got {brief(value)}"
            )
        return tuple.__new__(cls, (kind, value))


class ClassTriple(CheckedRecord, namedtuple("ClassTriple", "p q r")):
    """Expansion triple (p, q, r): functional = 1 + p a2 z + (q a3 - r a2^2) z^2."""

    __slots__ = ()

    def __new__(cls, p, q, r):
        return tuple.__new__(cls, map(_real_fraction, (p, q, r), ("p", "q", "r")))


class SchlichtCoeffs(CheckedRecord, namedtuple("SchlichtCoeffs", "values")):
    """Coefficients a2.. of a normalized function z + a2 z^2 + a3 z^3 + ...

    No univalence check is performed or implied.
    """

    __slots__ = ()

    def __new__(cls, values):
        return tuple.__new__(cls, (tuple(values),))

    def series(self, order=DEFAULT_ORDER, mode=EXACT) -> TruncatedSeries:
        coeffs = [0, 1, *self.values]
        return TruncatedSeries(coeffs[: order + 1], mode=mode, order=order)


def _within_disk(value) -> bool:
    # |value| <= 2: exactly in the exact tower, with 1e-9 slack in float.
    if isinstance(value, QComplex):
        return value.abs2() <= 4
    if isinstance(value, (int, Fraction)):
        return value * value <= 4
    return abs(complex(value)) <= 2 + 1e-9


class SchwarzParams(CheckedRecord, namedtuple("SchwarzParams", "c1 c2 b2")):
    """Free coefficients (c1, c2, b2) of the two unit-disk transforms.

    Each modulus is at most 2; b1 is never stored, it is derived from c1
    through the class linkage (:func:`bibounds.solver.linked_b1`).
    """

    __slots__ = ()

    def __new__(cls, c1, c2, b2):
        values = []
        mode = mode_of(c1, c2, b2)
        for name, value in (("c1", c1), ("c2", c2), ("b2", b2)):
            value = coerce_scalar(value, mode)
            if not _within_disk(value):
                raise ValueError(f"|{name}| must be at most 2, got {value!r}")
            values.append(value)
        return tuple.__new__(cls, values)

    @property
    def mode(self) -> str:
        return mode_of(self.c1)


def triple(spec: ClassSpec) -> ClassTriple:
    """The (p, q, r) expansion triple of a class functional."""
    # At a parameter n/d: p and q as numerators over d, r as a Fraction.
    n, d = spec.param.numerator, spec.param.denominator
    if spec.kind == KIND_P:
        p, q, r = d + 2 * n, 2 * (d + 3 * n), Fraction(d + 2 * n, d)
    elif spec.kind == KIND_M:
        p, q, r = d + n, 2 * (d + 2 * n), Fraction(d + 3 * n, d)
    else:  # r = (8 - 5a - a^2) / 2
        p, q = 2 * d - n, 2 * (3 * d - 2 * n)
        r = Fraction(8 * d * d - 5 * n * d - n * n, 2 * d * d)
    return ClassTriple(Fraction(p, d), Fraction(q, d), r)


def inverse_triple(t: ClassTriple) -> ClassTriple:
    """Triple acting on the inverse function: r goes to 2q - r.

    The inverse-side expansion is ``1 - p a2 w + ((2q-r) a2^2 - q a3) w^2``;
    the map is an involution.
    """
    return ClassTriple(t.p, t.q, 2 * t.q - t.r)


def invert_schlicht(a2, a3):
    """Order-3 coefficients of the functional inverse: (-a2, 2 a2^2 - a3)."""
    return (-a2, 2 * a2 * a2 - a3)


def expansion_f(t: ClassTriple, a2, a3):
    """Closed-form order-1/2 coefficients of the functional on f."""
    return (t.p * a2, t.q * a3 - t.r * a2 * a2)


def expansion_g(t: ClassTriple, a2, a3):
    """Closed-form order-1/2 coefficients of the functional on the inverse."""
    g2, g3 = invert_schlicht(a2, a3)
    return expansion_f(t, g2, g3)


def functional(
    spec: ClassSpec,
    f: SchlichtCoeffs,
    order=DEFAULT_ORDER,
    mode=EXACT,
) -> TruncatedSeries:
    """The class functional of f, computed entirely by the series engine.

    Returns a series with constant term 1 whose ``valid_order`` is one below
    the storage order (the functionals consume one derivative).
    """
    fs = f.series(order, mode)
    h = fs.shift_down()          # f/z, constant term 1
    fp = fs.derivative()
    alpha = spec.param if mode == EXACT else float(spec.param)
    if spec.kind == KIND_P:
        return (fp + fp.derivative().shift_up() * alpha) / h
    starlike = fp / h
    convex = 1 + fp.derivative().shift_up() / fp
    if spec.kind == KIND_M:
        return starlike * (1 - alpha) + convex * alpha
    return starlike.pow_unit(alpha) * convex.pow_unit(1 - alpha)


def subordinate_compose(
    target: MindaTarget, p_series: TruncatedSeries
) -> TruncatedSeries:
    """Compose the target with the disk transform (p-1)/(p+1) of p."""
    if not p_series.has_unit_constant():
        raise ValueError("subordination transform needs constant term 1")
    u = (p_series - 1) / (p_series + 1)
    return target.series(p_series.order, p_series.mode).compose(u)


def caratheodory_kernel(x, order=DEFAULT_ORDER, mode=EXACT) -> TruncatedSeries:
    """(1 + x z)/(1 - x z) = 1 + 2 sum_n x^n z^n for a unimodular x."""
    x = coerce_scalar(x, mode)
    coeffs = [coerce_scalar(1, mode)]
    power = coerce_scalar(2, mode)
    for _ in range(order):
        power = power * x
        coeffs.append(power)
    return TruncatedSeries(coeffs, mode=mode, order=order)


def _rational_circle_point(rng) -> QComplex:
    # (1 - t^2 + 2 t i)/(1 + t^2) has exact modulus 1 for rational t = a/b;
    # over b^2 it is (b^2 - a^2 + 2ab i)/(a^2 + b^2).
    a, b = rng.randint(-60, 60), rng.randint(1, 30)
    d = a * a + b * b
    return QComplex(Fraction(b * b - a * a, d), Fraction(2 * a * b, d))


def _float_circle_point(rng) -> complex:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def sample_caratheodory(
    seed: int, m: int, order=DEFAULT_ORDER, mode=FLOAT
) -> TruncatedSeries:
    """Deterministic convex combination of m rotation kernels.

    Produces ``sum lam_k (1 + x_k z)/(1 - x_k z)`` with nonnegative weights
    summing to one and unimodular x_k, so the result has constant term 1,
    positive real part, and every coefficient modulus at most 2.  Exact mode
    uses rational points on the unit circle so the modulus bound is exact.
    The seed must be an int (not a bool) of at least 0.
    """
    rng = random.Random(_seed(seed))
    if _count(m, "kernel count") < 1:
        raise ValueError("need at least one kernel")
    if mode == EXACT:
        weights = [Fraction(rng.randint(1, 100)) for _ in range(m)]
        points = [_rational_circle_point(rng) for _ in range(m)]
    else:
        weights = [rng.random() + 1e-9 for _ in range(m)]
        points = [_float_circle_point(rng) for _ in range(m)]
    total = sum(weights)
    acc = TruncatedSeries.zero(order=order, mode=mode)
    for w, x in zip(weights, points):
        acc = acc + caratheodory_kernel(x, order, mode) * (w / total)
    return acc


# Fraction builds 10**exponent for a decimal exponent before any range check
# can run; past this magnitude (the interpreter's default cap on digits in
# an int-to-str conversion) the text is rejected instead.  So is a literal
# of more digits than this, which the conversion itself would refuse with a
# message that names neither the flag nor the text.
MAX_DECIMAL_EXPONENT = 4300


class LiteralTooLargeError(ValueError):
    """A numeric literal past MAX_DECIMAL_EXPONENT, in digits or exponent."""


def _quoted(text: str) -> str:
    if len(text) > 60:  # keep the message to one short line
        text = text[:28] + "..." + text[-28:]
    return repr(text)


def _refuse_long_literal(text: str):
    if len(text) > MAX_DECIMAL_EXPONENT and (
            sum(map(str.isdigit, text)) > MAX_DECIMAL_EXPONENT):
        raise LiteralTooLargeError(
            f"digit count of {_quoted(text)} exceeds {MAX_DECIMAL_EXPONENT}")


def rational(text: str) -> Fraction:
    """Parse a decimal or p/q; a zero denominator is a ValueError too.

    So are a literal of more than MAX_DECIMAL_EXPONENT digits and a decimal
    exponent above it in magnitude (both a :class:`LiteralTooLargeError`).
    """
    _refuse_long_literal(text)
    head, _, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if head and "/" not in head and digits.isdecimal() and (
            len(digits) > 4 or int(digits) > MAX_DECIMAL_EXPONENT):
        raise LiteralTooLargeError(f"decimal exponent of {_quoted(text)} "
                                   f"exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_quoted(text)}") from None
    except ValueError:  # Fraction's own message quotes the whole text
        raise ValueError(f"Invalid literal for Fraction: {_quoted(text)}") from None


def integer(text: str) -> int:
    """Parse a base-10 int; more than MAX_DECIMAL_EXPONENT digits is refused.

    The refusal is a :class:`LiteralTooLargeError`, raised before ``int``
    would attempt the conversion.
    """
    _refuse_long_literal(text)
    return int(text)


def brief(value) -> str:
    """An int or Fraction for a message: exact when short, else to 6 digits."""
    value = Fraction(value)
    n, d = value.numerator, value.denominator
    if max(abs(n).bit_length(), d.bit_length()) <= 100:
        return str(value)
    exponent = math.log10(abs(n)) - math.log10(d)
    whole = math.floor(exponent)
    return f"{'-' if n < 0 else ''}{10 ** (exponent - whole):.6g}e{whole:+d}"


def target_preset(key: str, order=DEFAULT_ORDER) -> MindaTarget:
    """Resolve a named target: caratheodory | order:<g> | strong:<g>."""
    name, _, arg = key.partition(":")
    name = name.strip().lower()
    if name == "caratheodory":
        if arg:
            raise ValueError("caratheodory takes no parameter")
        return MindaTarget([2] * order)
    if name == "order":
        gamma = rational(arg)
        if not 0 <= gamma < 1:
            raise ValueError(
                f"order parameter must lie in [0, 1), got {brief(gamma)}")
        return MindaTarget([2 * (1 - gamma)] * order)
    if name == "strong":
        gamma = rational(arg)
        if not 0 < gamma <= 1:
            raise ValueError(
                f"strong parameter must lie in (0, 1], got {brief(gamma)}")
        base = caratheodory_kernel(1, order=order, mode=EXACT)
        powered = base.pow_unit(gamma)
        return MindaTarget([powered.coeffs[n].re for n in range(1, order + 1)])
    raise ValueError(f"unknown target preset {_quoted(key)}")
