"""Truncated power-series arithmetic over two coefficient towers.

A :class:`TruncatedSeries` holds the coefficients ``c[0..N]`` of
``sum c_k z**k`` and supports ring operations plus division, composition,
real powers anchored at 1, and compositional reversion.  Two coefficient
modes exist:

``exact``
    Gaussian rationals (:class:`QComplex`).  Equality is decidable; every
    algebraic-identity suite in this package runs here.
``float``
    Native ``complex`` (double precision), used by the numeric sweeps.

The exact scalar is the design of FLINT's ``fmpq_poly`` at the scalar
level: a :class:`QComplex` stores three ``int`` values ``(re, im, den)``,
the Gaussian-integer numerator ``re + i*im`` over one denominator, in
lowest terms (``den > 0`` and ``gcd(re, im, den) == 1``).  That form is
unique, so equality compares three ints.  One normaliser, ``_reduced``,
builds every arithmetic result and every kernel coefficient with one
``math.gcd(re, im, den)`` and a sign fix; ``.re`` and ``.im`` are read-only
``Fraction`` properties for callers that want the parts.

How exact kernels compute: series multiplication, series division,
composition, ``pow_unit`` and the powers behind ``revert`` change
representation once on the way in and once on the way out.  On the way in
each operand becomes Gaussian-integer numerators (one ``int`` list for the
real parts, one for the imaginary parts) over one shared positive
denominator, the lcm of its coefficients' denominators, read straight from
the stored ints.  Every inner-loop step then runs on Python ``int``.  On the
way out each coefficient goes through the normaliser, so ``coeffs`` is
always a tuple of ``QComplex`` in lowest terms.  Addition, negation, the
derivative, the shifts and truncation work on ``QComplex`` directly, and so
do a product by a scalar and a quotient by one: one coefficient at a time,
the same line in both modes, with no scalar padded into a series.  Float
mode works on ``complex`` throughout: products, quotients and composition
(one Horner loop) run on the local coefficient tuples, each sum starting
at ``0j``.

The constructor is the one checked entry point: it coerces callers'
coefficients into the tower, pads or truncates them to the storage order
and clamps ``valid_order``.  Kernel results are already tower values of the
right length, so the ring operations, division, the derivative, the shifts,
composition, ``pow_unit`` and ``revert`` return through a private
constructor that skips that re-coercion.

The scalar rule lives here and nowhere else: :func:`mode_of` names the tower
of a set of values (exact when every one is a ``QComplex``, ``Fraction`` or
``int``), and :func:`coerce_scalar` lifts a value into a given tower.
Modes never mix: combining an exact series with a float series, or feeding
a float coefficient into the exact tower, raises :class:`ModeMismatchError`.
Binary operations truncate to the shorter operand.

Besides the storage order, every series carries ``valid_order``: the highest
index whose coefficient is informationally trustworthy.  Differentiation
lowers it by one (the top coefficient of the derivative would require an
input coefficient beyond the truncation); all other operations propagate the
minimum over their operands.  Consumers that need order-k output must check
``valid_order >= k``.

Floating comparisons use relative tolerance 1e-12 with an absolute floor of
1e-14 for near-zero values (see :func:`approx_equal`).  :func:`agree` is the
one exact-or-float rule: equality in exact mode, ``approx_equal`` in float
mode.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
DEFAULT_ORDER = 8
REL_TOL = 1e-12
ABS_TOL = 1e-14


class ModeMismatchError(TypeError):
    """Exact and floating coefficients met in a single expression."""


def _count(value, what):
    """A count as given; a bool or any non-int is a TypeError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


# The real operands of the exact tower.
_REAL_EXACT = (int, Fraction)

_new = object.__new__


def _reduced(re, im, den):
    """The QComplex (re + i*im)/den, den nonzero: one gcd and a sign fix."""
    g = math.gcd(re, im, den)
    if den < 0:
        g = -g
    if g != 1:
        re, im, den = re // g, im // g, den // g
    q = _new(QComplex)
    q._re, q._im, q._den = re, im, den
    return q


def _parts(value):
    """An exact operand as (re, im, den): a QComplex's ints, n/d as (n, 0, d).

    None for any other type, except that a float or complex raises.
    """
    if isinstance(value, QComplex):
        return value._re, value._im, value._den
    if isinstance(value, _REAL_EXACT):
        return value.numerator, 0, value.denominator
    if isinstance(value, (float, complex)):
        raise ModeMismatchError("cannot mix floating values into exact arithmetic")
    return None


def _quotient(ar, ai, ad, br, bi, bd):
    """(ar + i*ai)/ad divided by (br + i*bi)/bd.

    That is (ar + i*ai)(br - i*bi) bd / (ad (br**2 + bi**2)).
    """
    norm = br * br + bi * bi
    if not norm:
        raise ZeroDivisionError("division by exact zero")
    return _reduced((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd, ad * norm)


class QComplex:
    """Gaussian rational (re + i*im)/den on three ints in lowest terms.

    The stored form is unique: ``den > 0`` and ``gcd(re, im, den) == 1``, so
    equality compares three ints.  ``.re`` and ``.im`` are read-only
    ``Fraction`` properties.  The constructor is the checked entry point: it
    takes int or Fraction parts (int subclasses included) and raises
    :class:`ModeMismatchError` for anything else.  Every arithmetic result
    comes from one normaliser, :func:`_reduced`, which divides out
    ``gcd(re, im, den)`` and makes ``den`` positive.

    Arithmetic is closed over QComplex, int and Fraction operands; float or
    complex operands raise :class:`ModeMismatchError`.  Each of ``+ - * /``
    has one formula: it reads the other operand as ``(re, im, den)``, so a
    real n/d is ``(n, 0, d)``.  Instances are immutable.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        if not isinstance(im, _REAL_EXACT) or not isinstance(re, _REAL_EXACT):
            bad = im if isinstance(re, _REAL_EXACT) else re
            raise ModeMismatchError(
                f"exact scalars take int or Fraction parts, not {type(bad).__name__}"
            )
        a, b, c, d = re.numerator, re.denominator, im.numerator, im.denominator
        if b == d:
            self._re, self._im, self._den = a, c, b
        else:
            # Both parts are in lowest terms, so over lcm(b, d) no common
            # factor is left.
            g = math.gcd(b, d)
            self._re, self._im, self._den = a * (d // g), c * (b // g), b // g * d

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    def __add__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        br, bi, e = parts
        d = self._den
        return _reduced(self._re * e + br * d, self._im * e + bi * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        br, bi, e = parts
        d = self._den
        return _reduced(self._re * e - br * d, self._im * e - bi * d, d * e)

    def __rsub__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        br, bi, e = parts
        d = self._den
        return _reduced(br * d - self._re * e, bi * d - self._im * e, d * e)

    def __mul__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        br, bi, e = parts
        ar, ai = self._re, self._im
        return _reduced(ar * br - ai * bi, ar * bi + ai * br, self._den * e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        return _quotient(self._re, self._im, self._den, *parts)

    def __rtruediv__(self, other):
        if (parts := _parts(other)) is None:
            return NotImplemented
        return _quotient(*parts, self._re, self._im, self._den)

    def __neg__(self):
        return _reduced(-self._re, -self._im, self._den)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return (self._re == other._re and self._im == other._im
                    and self._den == other._den)
        if isinstance(other, _REAL_EXACT):
            return (not self._im and self._re == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # Equal to int/Fraction values, so hashes must agree with theirs.
        if not self._im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._re or self._im)

    def __abs__(self):
        # Approximate; exact comparisons should use abs2().
        return math.sqrt(float(self.abs2()))

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return Fraction(self._re * self._re + self._im * self._im,
                        self._den * self._den)

    def conjugate(self):
        return _reduced(self._re, -self._im, self._den)

    @property
    def is_real(self) -> bool:
        return not self._im

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is.
        return complex(self._re / self._den, self._im / self._den)

    def __repr__(self):
        return f"QComplex({self.re}, {self.im})"


# The exact tower's scalar types; every other scalar belongs to the float tower.
_EXACT_SCALARS = (QComplex, Fraction, int)
# The float tower takes any complex number: numpy scalars register as
# numbers.Complex, so numpy need not be imported.  The concrete types come
# first because an abstract check is slower.
_FLOAT_INPUTS = (complex, float, *_EXACT_SCALARS, numbers.Complex)


def mode_of(*values) -> str:
    """EXACT when every value is a QComplex, Fraction or int; FLOAT otherwise."""
    for value in values:
        if not isinstance(value, _EXACT_SCALARS):
            return FLOAT
    return EXACT


def coerce_scalar(value, mode):
    """Lift a value into mode's tower: exact rejects float/complex, float downgrades.

    The float tower accepts any ``numbers.Complex`` (numpy integer and
    floating scalars included) and any QComplex.
    """
    if mode == EXACT:
        return value if isinstance(value, QComplex) else QComplex(value)
    if mode == FLOAT:
        if isinstance(value, _FLOAT_INPUTS):
            return complex(value)
        raise TypeError(f"cannot build a float scalar from {type(value).__name__}")
    raise ValueError(f"unknown mode {mode!r}")


def approx_equal(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> bool:
    """Floating comparison: relative 1e-12 with absolute floor 1e-14."""
    return cmath.isclose(complex(a), complex(b), rel_tol=rel_tol, abs_tol=abs_tol)


def agree(x, y, mode, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> bool:
    """Equality in exact mode (tolerances ignored), approx_equal in float mode."""
    if mode == EXACT:
        return x == y
    return approx_equal(x, y, rel_tol, abs_tol)


def _ints(coeffs):
    """QComplex coefficients as (re ints, im ints, shared denominator)."""
    den = math.lcm(*[c._den for c in coeffs])
    scales = [den // c._den for c in coeffs]
    re = [c._re * s for c, s in zip(coeffs, scales)]
    im = [c._im * s for c, s in zip(coeffs, scales)]
    return re, im, den


def _from_ints(re, im, dens):
    """QComplex coefficients re[k]/dens[k] + i*im[k]/dens[k], in lowest terms."""
    return [_reduced(r, i, d) for r, i, d in zip(re, im, dens)]


def _convolve(ar, ai, br, bi, order):
    """Gaussian-integer Cauchy product of two int series, truncated to order."""
    cr, ci = [0] * (order + 1), [0] * (order + 1)
    for i in range(order + 1):
        xr, xi = ar[i], ai[i]
        if not (xr or xi):
            continue
        for j in range(order + 1 - i):
            yr, yi = br[j], bi[j]
            cr[i + j] += xr * yr - xi * yi
            ci[i + j] += xr * yi + xi * yr
    return cr, ci


def _times(xr, xi, re, im):
    """xr + i*xi times each Gaussian integer re[k] + i*im[k]."""
    return ([xr * r - xi * i for r, i in zip(re, im)],
            [xr * i + xi * r for r, i in zip(re, im)])


def _float_product(a, b, order):
    """Cauchy product of two complex coefficient sequences, truncated to order.

    Each sum starts at 0j and adds a[i] * b[n - i] for i = 0..n in turn.
    """
    coeffs = []
    for n in range(order + 1):
        acc = 0j
        for i in range(n + 1):
            acc = acc + a[i] * b[n - i]
        coeffs.append(acc)
    return coeffs


class TruncatedSeries:
    """Finite coefficient list of an analytic germ, with order bookkeeping.

    ``coeffs`` always has length ``order + 1``.  ``valid_order`` tracks the
    informational order (see module docstring); it defaults to the storage
    order and never exceeds it.
    """

    __slots__ = ("coeffs", "mode", "valid_order")

    def __init__(self, coeffs, mode=EXACT, order=None, valid_order=None):
        items = [coerce_scalar(c, mode) for c in coeffs]
        if order is None:
            if not items:
                raise ValueError("a series needs at least its constant term")
            order = len(items) - 1
        elif _count(order, "order") < 0:
            raise ValueError("order must be nonnegative")
        zero = coerce_scalar(0, mode)
        items = items[: order + 1]
        items += [zero] * (order + 1 - len(items))
        if valid_order is None:
            valid_order = order
        self.coeffs = tuple(items)
        self.mode = mode
        self.valid_order = max(0, min(_count(valid_order, "valid_order"), order))

    @classmethod
    def _of(cls, coeffs, mode, valid_order):
        """A kernel's result, stored without re-coercion.

        The caller guarantees what ``__init__`` would establish: every
        coefficient already in mode's tower (``complex`` or ``QComplex``),
        ``len(coeffs) == order + 1`` and ``0 <= valid_order <= order``.
        """
        series = object.__new__(cls)
        series.coeffs = tuple(coeffs)
        series.mode = mode
        series.valid_order = valid_order
        return series

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value, order=DEFAULT_ORDER, mode=EXACT):
        return cls([value], mode=mode, order=order)

    @classmethod
    def zero(cls, order=DEFAULT_ORDER, mode=EXACT):
        return cls.constant(0, order=order, mode=mode)

    @classmethod
    def one(cls, order=DEFAULT_ORDER, mode=EXACT):
        return cls.constant(1, order=order, mode=mode)

    @classmethod
    def var(cls, order=DEFAULT_ORDER, mode=EXACT):
        """The series z."""
        return cls([0, 1], mode=mode, order=order)

    # ------------------------------------------------------------------
    # bookkeeping helpers

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, index):
        return self.coeffs[index]

    def __iter__(self):
        return iter(self.coeffs)

    def has_unit_constant(self) -> bool:
        """Constant term 1: exactly in exact mode, to approx_equal in float mode.

        A float convex combination of unit-constant series sums its weights
        to 1 only up to roundoff, so float mode cannot demand exactly 1.0.
        """
        return agree(self.coeffs[0], 1, self.mode)

    def truncated(self, order):
        if order >= self.order:
            return self
        return TruncatedSeries(
            self.coeffs[: order + 1],
            mode=self.mode,
            order=order,
            valid_order=min(self.valid_order, order),
        )

    def _require_same_mode(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot combine {self.mode} and {other.mode} series"
            )

    def _scalar(self, value):
        return coerce_scalar(value, self.mode)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_mode(other)
            order = min(self.order, other.order)
            valid = min(self.valid_order, other.valid_order)
            coeffs = [
                self.coeffs[k] + other.coeffs[k] for k in range(order + 1)
            ]
            return TruncatedSeries._of(coeffs, self.mode, valid)
        value = self._scalar(other)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + value
        return TruncatedSeries._of(coeffs, self.mode, self.valid_order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of(
            [-c for c in self.coeffs], self.mode, self.valid_order
        )

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-self._scalar(other))

    def __rsub__(self, other):
        return (-self) + self._scalar(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_mode(other)
            order = min(self.order, other.order)
            valid = min(self.valid_order, other.valid_order)
            if self.mode == EXACT:
                ar, ai, da = _ints(self.coeffs[: order + 1])
                br, bi, db = _ints(other.coeffs[: order + 1])
                cr, ci = _convolve(ar, ai, br, bi, order)
                return TruncatedSeries._of(
                    _from_ints(cr, ci, [da * db] * (order + 1)), EXACT, valid
                )
            return TruncatedSeries._of(
                _float_product(self.coeffs, other.coeffs, order), FLOAT, valid
            )
        value = self._scalar(other)
        return TruncatedSeries._of(
            [c * value for c in self.coeffs], self.mode, self.valid_order
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            value = self._scalar(other)
            return TruncatedSeries._of(
                [c / value for c in self.coeffs], self.mode, self.valid_order
            )
        self._require_same_mode(other)
        lead = other.coeffs[0]
        if not lead:
            raise ZeroDivisionError(
                "series division needs a nonzero constant term in the divisor"
            )
        order = min(self.order, other.order)
        valid = min(self.valid_order, other.valid_order)
        if self.mode == EXACT:
            # Multiply both sides by conj(lead) so the divisor's lead is the
            # positive integer L; then q_n = P_n / L**(n+1) with
            # P_n = A_n L**n - sum_{i<n} P_i B_{n-i} L**(n-1-i).
            ar, ai, da = _ints(self.coeffs[: order + 1])
            br, bi, db = _ints(other.coeffs[: order + 1])
            conj = br[0], -bi[0]
            ar, ai = _times(*conj, ar, ai)
            br, bi = _times(*conj, br, bi)
            powers = [1]
            for _ in range(order + 1):
                powers.append(powers[-1] * br[0])
            pr, pi = [], []
            for n in range(order + 1):
                sr, si = ar[n] * powers[n], ai[n] * powers[n]
                for i in range(n):
                    w = powers[n - 1 - i]
                    sr -= (pr[i] * br[n - i] - pi[i] * bi[n - i]) * w
                    si -= (pr[i] * bi[n - i] + pi[i] * br[n - i]) * w
                pr.append(sr)
                pi.append(si)
            return TruncatedSeries._of(
                _from_ints([p * db for p in pr], [p * db for p in pi],
                           [da * p for p in powers[1:]]),
                EXACT, valid,
            )
        a, b = self.coeffs, other.coeffs
        quotient = []
        for n in range(order + 1):
            acc = a[n]
            for i in range(n):
                acc = acc - quotient[i] * b[n - i]
            quotient.append(acc / lead)
        return TruncatedSeries._of(quotient, FLOAT, valid)

    def __rtruediv__(self, other):
        return TruncatedSeries.constant(
            other, order=self.order, mode=self.mode
        ) / self

    # ------------------------------------------------------------------
    # calculus and composition

    def derivative(self):
        """Termwise derivative, re-padded to the same storage order.

        The result is informationally one order shorter; ``valid_order``
        records that.
        """
        coeffs = [
            (k + 1) * self.coeffs[k + 1] for k in range(self.order)
        ]
        coeffs.append(self._scalar(0))
        return TruncatedSeries._of(
            coeffs, self.mode, max(0, self.valid_order - 1)
        )

    def shift_up(self):
        """Multiply by z (the top stored coefficient is dropped)."""
        coeffs = [self._scalar(0), *self.coeffs[:-1]]
        return TruncatedSeries._of(
            coeffs, self.mode, min(self.valid_order + 1, self.order)
        )

    def shift_down(self):
        """Divide by z; requires a vanishing constant term."""
        if self.coeffs[0]:
            raise ValueError("cannot divide by z: constant term is nonzero")
        coeffs = [*self.coeffs[1:], self._scalar(0)]
        return TruncatedSeries._of(
            coeffs, self.mode, max(0, self.valid_order - 1)
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)) truncated; inner must have zero constant term."""
        self._require_same_mode(inner)
        if inner.coeffs[0]:
            raise ValueError(
                "composition needs a vanishing constant term in the inner series"
            )
        order = min(self.order, inner.order)
        valid = min(self.valid_order, inner.valid_order, order)
        if self.mode == EXACT:
            # Horner on ints: after the level of o_k the partial sum is
            # r / (do * di**(order - k)).
            orr, ori, do = _ints(self.coeffs[: order + 1])
            ir, ii, di = _ints(inner.coeffs[: order + 1])
            rr = [orr[order]] + [0] * order
            ri = [ori[order]] + [0] * order
            scale = 1  # di ** (order - k): the weight of o_k against do
            for k in range(order - 1, -1, -1):
                rr, ri = _convolve(rr, ri, ir, ii, order)
                scale *= di
                rr[0] += orr[k] * scale
                ri[0] += ori[k] * scale
            return TruncatedSeries._of(
                _from_ints(rr, ri, [do * scale] * (order + 1)), EXACT, valid
            )
        # Horner on complex lists: r = r * inner + o_k, level by level.
        a, b = self.coeffs, inner.coeffs
        r = [a[order]] + [0j] * order
        for k in range(order - 1, -1, -1):
            r = _float_product(r, b, order)
            r[0] = r[0] + a[k]
        return TruncatedSeries._of(r, FLOAT, valid)

    def pow_unit(self, exponent) -> "TruncatedSeries":
        """Real power of a series anchored at constant term 1.

        Miller's power formula: w = self**t satisfies self*w' = t*self'*w, so
        self_0*n*w_n = sum_{k=1..n} (tk - (n-k)) self_k w_{n-k} with w_0 = 1.
        Irrational exponents are fine in float mode; exact mode takes int or
        Fraction exponents; a bool is refused in both modes.
        """
        if isinstance(exponent, bool):
            raise TypeError(f"exponent must be real, got {exponent!r}")
        if not self.has_unit_constant():
            raise ValueError("pow_unit needs constant term exactly 1")
        if self.mode == EXACT:
            if not isinstance(exponent, (int, Fraction)):
                raise ModeMismatchError(
                    "exact-mode exponents must be int or Fraction"
                )
        else:
            exponent = float(exponent)
        if exponent == 0:
            return TruncatedSeries.one(order=self.order, mode=self.mode)
        if exponent == 1:
            return self
        if self.mode == EXACT:
            # self_k = A_k/d, t = s/m and w_n = W_n/(n! m**n d**n), so W_0 = 1
            # and W_n = sum_k (sk - m(n-k)) A_k W_{n-k} (n-1)!/(n-k)! (md)**(k-1).
            ar, ai, d = _ints(self.coeffs)
            s, m = exponent.numerator, exponent.denominator
            wr, wi, dens = [1], [0], [1]
            for n in range(1, self.order + 1):
                accr = acci = 0
                w = 1  # (n-1)!/(n-k)! * (m*d)**(k-1)
                for k in range(1, n + 1):
                    c = (s * k - m * (n - k)) * w
                    xr, xi, yr, yi = ar[k], ai[k], wr[n - k], wi[n - k]
                    accr += c * (xr * yr - xi * yi)
                    acci += c * (xr * yi + xi * yr)
                    w *= (n - k) * m * d
                wr.append(accr)
                wi.append(acci)
                dens.append(dens[-1] * n * m * d)
            coeffs = _from_ints(wr, wi, dens)
        else:
            # tk - (n-k), not (t+1)k - n, keeps a tiny t's precision; dividing
            # by self_0 gives (self/self_0)**t for a roundoff-unit lead.
            a = self.coeffs
            coeffs = [self._scalar(1)]
            for n in range(1, self.order + 1):
                acc = self._scalar(0)
                for k in range(1, n + 1):
                    acc += (exponent * k - (n - k)) * a[k] * coeffs[n - k]
                coeffs.append(acc / (n * a[0]))
        return TruncatedSeries._of(coeffs, self.mode, self.valid_order)

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with g(self(z)) = z to the stored order.

        Requires zero constant term and nonzero linear term.  Lagrange
        inversion: g_n = [z^(n-1)] q**n / n with q = z/self.
        """
        if self.coeffs[0]:
            raise ValueError("reversion needs a vanishing constant term")
        if self.order < 1 or not self.coeffs[1]:
            raise ValueError("reversion needs a nonzero linear term")
        order = self.order
        q = 1 / TruncatedSeries(self.coeffs[1:], mode=self.mode, order=order - 1)
        if self.mode == EXACT:
            # q**n = P_n / dq**n, with no normalisation between products.
            qr, qi, dq = _ints(q.coeffs)
            pr, pi, dq_n = qr, qi, dq
            gr, gi, dens = [0, qr[0]], [0, qi[0]], [1, dq]
            for n in range(2, order + 1):
                pr, pi = _convolve(pr, pi, qr, qi, order - 1)
                dq_n *= dq
                gr.append(pr[n - 1])
                gi.append(pi[n - 1])
                dens.append(n * dq_n)
            g = _from_ints(gr, gi, dens)
        else:
            g = [self._scalar(0), q.coeffs[0]]
            power = q
            for n in range(2, order + 1):
                power = power * q
                g.append(power.coeffs[n - 1] / n)
        return TruncatedSeries._of(g, self.mode, self.valid_order)

    # ------------------------------------------------------------------
    # comparisons

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.coeffs == other.coeffs
            and self.valid_order == other.valid_order
        )

    def __hash__(self):
        return hash((self.mode, self.coeffs, self.valid_order))

    def agrees_with(self, other, rel_tol=REL_TOL, abs_tol=ABS_TOL) -> bool:
        """Coefficientwise :func:`agree` up to the common informational order."""
        self._require_same_mode(other)
        count = min(self.valid_order, other.valid_order) + 1
        mine, theirs = self.coeffs[:count], other.coeffs[:count]
        if self.mode == EXACT:  # whole tuples: one comparison, not one per coefficient
            return agree(mine, theirs, EXACT)
        return all(agree(a, b, FLOAT, rel_tol, abs_tol) for a, b in zip(mine, theirs))

    def __repr__(self):
        preview = ", ".join(str(c) for c in self.coeffs[:4])
        if self.order >= 4:
            preview += ", ..."
        return (
            f"TruncatedSeries([{preview}], mode={self.mode!r}, "
            f"order={self.order}, valid_order={self.valid_order})"
        )
