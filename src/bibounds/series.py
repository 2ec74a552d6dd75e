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
builds every scalar result and every coefficient a series hands out with
one ``math.gcd(re, im, den)`` and a sign fix; ``.re`` and ``.im`` are read-only
``Fraction`` properties for callers that want the parts.

How exact series are stored and computed: an exact series is the same
design at the series level.  It holds one ``int`` tuple of real numerators,
one of imaginary numerators and one shared denominator, in canonical form
(``den > 0`` and no factor common to the denominator and every numerator),
so equality and hashing compare ints.  Every kernel reads and writes these
vectors: the ring operations, division, the derivative, the shifts,
truncation, composition, ``pow_unit``, ``revert`` and a product by a scalar;
a quotient by a scalar is the product by its exact reciprocal.  A kernel
whose coefficients share one natural denominator (products, sums,
composition) ends with one ``math.gcd`` over the vector; one whose
coefficients carry their own (division's powers of the lead, ``pow_unit``'s
``n!(md)**n``, ``revert``'s ``n*dq**n``) reduces each coefficient by its own
gcd first, then brings them to the lcm.  Comparison reads the canonical ints
too: ``agrees_with`` truncates the longer series to the shorter one's order
and compares ints.  Nothing else is stored: ``coeffs`` builds the
:class:`QComplex` tuple on each call, and indexing builds only the
coefficient asked for.  Float mode stores a tuple of ``complex`` as a plain
attribute: products, quotients and composition (one Horner loop) run on it,
each sum starting at ``0j``.

The constructor is the one checked entry point: it reads callers'
coefficients into the tower (an exact one straight into its ints, with no
QComplex built) and pads or truncates them to the order.  A scalar operand
of ``+`` or ``-``, and a scalar numerator, is the constant series of the
series operand's order and mode, so it takes the series-by-series path.
Kernel results are already tower values of the right length, so every
operation returns through a private constructor that skips that re-coercion.

The scalar rule lives here and nowhere else: :func:`mode_of` names the tower
of a set of values (exact when every one is a ``QComplex``, ``Fraction`` or
``int``), and :func:`coerce_scalar` lifts a value into a given tower.
Modes never mix: combining an exact series with a float series, or feeding
a float coefficient into the exact tower, raises :class:`ModeMismatchError`.
Binary operations truncate to the shorter operand.

A series has one order: an order-N series stores ``c[0..N]``, knows
nothing past ``z**N``, and every result keeps only the coefficients its
inputs determine.  The derivative and ``shift_down`` return order N-1 (the
derivative's ``z**N`` coefficient would need ``c[N+1]``), ``shift_up``
returns order N+1 with every coefficient kept, and every other operation
returns the minimum order of its operands.  Order 0 is the one corner, as
no series has order -1: the derivative of an order-0 series, and
``shift_down`` of the order-0 zero series, are the order-0 zero series.

:func:`agree` is the one comparison rule, read from the values: two exact
values agree when they are equal, and any pair with a float in it when
``cmath.isclose`` holds with :data:`FLOAT_TOL` as both the relative and the
absolute tolerance.  A float series' ``has_unit_constant`` and
``agrees_with`` compare through it; an exact series compares its ints.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"
DEFAULT_ORDER = 8

# The float tolerance, relative and absolute alike.  The identity suites'
# checks cancel terms of size 1e2..1e3 (quotient coefficients, the a2^2
# chain) down to about 1e-2, so roundoff reaches a few 1e-13 there; 1e-9
# clears that by far and still catches a relative error of 1e-6 in any
# coefficient.
FLOAT_TOL = 1e-9


class ModeMismatchError(TypeError):
    """Exact and floating coefficients met in a single expression."""


def _count(value, what):
    """A count as given; a bool or any non-int is a TypeError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def _order(value):
    """A truncation order as given: an int (by :func:`_count`) of at least 0."""
    if _count(value, "order") < 0:
        raise ValueError("order must be nonnegative")
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


def _exact_parts(value):
    """An exact coefficient as lowest-terms (re, im, den); else QComplex's refusal."""
    if isinstance(value, QComplex):
        return value._re, value._im, value._den
    if isinstance(value, _REAL_EXACT):
        return value.numerator, 0, value.denominator
    raise ModeMismatchError(
        f"exact scalars take int or Fraction parts, not {type(value).__name__}")


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


# The float types come first in agree: a miss on Fraction goes through
# ABCMeta, which costs as much as the tolerance test itself.
_FLOATS = (complex, float)


def agree(x, y) -> bool:
    """Equality when both values are exact; else isclose within FLOAT_TOL."""
    if (isinstance(x, _FLOATS) or isinstance(y, _FLOATS)
            or not (isinstance(x, _EXACT_SCALARS) and isinstance(y, _EXACT_SCALARS))):
        return cmath.isclose(x, y, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
    return x == y


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


def _exact(re, im, den):
    """An exact series from canonical vectors: den > 0, no factor common to all."""
    series = _new(_ExactSeries)
    series._re, series._im, series._den = re, im, den
    series.mode = EXACT
    return series


def _over_lcm(parts):
    """Lowest-terms (re, im, den) triples over their lcm: canonical vectors."""
    den = math.lcm(*[d for _, _, d in parts])
    re, im = [], []
    for r, i, d in parts:
        scale = den // d
        re.append(r * scale)
        im.append(i * scale)
    return tuple(re), tuple(im), den


def _lowest(re, im, den):
    """The exact series (re[k] + i*im[k])/den, den > 0: one gcd over all of them."""
    g = math.gcd(den, *re, *im)
    if g != 1:
        return _exact(tuple([r // g for r in re]), tuple([i // g for i in im]),
                      den // g)
    return _exact(tuple(re), tuple(im), den)


def _lowest_each(re, im, dens):
    """The exact series (re[k] + i*im[k])/dens[k], every dens[k] > 0.

    Each coefficient is reduced by its own gcd before all are brought to the
    lcm of the reduced denominators.  A kernel whose denominators grow with k
    (a power of the lead, ``n!``) leaves most of that growth in its
    numerators; one gcd over the vector scaled to the largest denominator
    would run on far longer ints.
    """
    reduced = []
    for r, i, d in zip(re, im, dens):
        g = math.gcd(r, i, d)
        reduced.append((r // g, i // g, d // g) if g != 1 else (r, i, d))
    return _exact(*_over_lcm(reduced))


def _float(coeffs):
    """A float series of complex coefficients, stored without re-coercion."""
    series = _new(TruncatedSeries)
    series.coeffs = tuple(coeffs)
    series.mode = FLOAT
    return series


class TruncatedSeries:
    """The coefficients ``c[0..order]`` of an analytic germ, all of them known.

    A float series stores ``coeffs``, a tuple of ``complex``, as a plain
    attribute.  An exact series is an :class:`_ExactSeries`, the same slots
    read through exact accessors: int numerators ``_re`` and ``_im`` over one
    ``_den``, with ``coeffs`` built from them when asked.
    The kernels live here and branch on ``mode``.  The order is the only one
    a series has: a result keeps only the coefficients its inputs determine
    (see module docstring).
    """

    __slots__ = ("coeffs", "mode", "_re", "_im", "_den")

    def __init__(self, coeffs, mode=EXACT, order=None):
        if mode == EXACT:
            items, zero = [_exact_parts(c) for c in coeffs], (0, 0, 1)
        else:
            items, zero = [coerce_scalar(c, mode) for c in coeffs], coerce_scalar(0, mode)
        if order is None:
            if not items:
                raise ValueError("a series needs at least its constant term")
            order = len(items) - 1
        else:
            _order(order)
        items = items[: order + 1]
        items += [zero] * (order + 1 - len(items))
        self.mode = mode
        if mode != EXACT:
            self.coeffs = tuple(items)
            return
        # The layouts match, so the class can change in place; a float
        # series pays no dispatch for it.
        self.__class__ = _ExactSeries
        self._re, self._im, self._den = _over_lcm(items)

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

    def _nonzero(self, k) -> bool:
        return bool(self.coeffs[k])

    def has_unit_constant(self) -> bool:
        """Constant term 1: exactly in exact mode, within FLOAT_TOL in float mode.

        A float convex combination of unit-constant series sums its weights
        to 1 only up to roundoff, so float mode cannot demand exactly 1.0.
        """
        return agree(self.coeffs[0], 1)

    def truncated(self, order):
        """The series to ``order``; itself when it has no higher coefficient."""
        if _order(order) >= self.order:
            return self
        if self.mode == EXACT:
            return _lowest(self._re[: order + 1], self._im[: order + 1], self._den)
        return _float(self.coeffs[: order + 1])

    def _require_same_mode(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a series, got {type(other).__name__}")
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot combine {self.mode} and {other.mode} series"
            )

    def _as_series(self, other):
        """A series operand as it is; a scalar as the constant series of self's order."""
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries.constant(other, order=self.order, mode=self.mode)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        other = self._as_series(other)
        self._require_same_mode(other)
        if self.mode == EXACT:
            # Over lcm(da, db); zip stops at the lower order.
            da, db = self._den, other._den
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            return _lowest(
                [x * sa + y * sb for x, y in zip(self._re, other._re)],
                [x * sa + y * sb for x, y in zip(self._im, other._im)],
                da * sa)
        return _float([x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        if self.mode == EXACT:
            return _exact(tuple([-r for r in self._re]),
                          tuple([-i for i in self._im]), self._den)
        return _float([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._as_series(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_mode(other)
            order = min(self.order, other.order)
            if self.mode == EXACT:
                cr, ci = _convolve(self._re, self._im, other._re, other._im, order)
                return _lowest(cr, ci, self._den * other._den)
            return _float(_float_product(self.coeffs, other.coeffs, order))
        value = coerce_scalar(other, self.mode)
        if self.mode == EXACT:
            cr, ci = _times(value._re, value._im, self._re, self._im)
            return _lowest(cr, ci, self._den * value._den)
        return _float([c * value for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            value = coerce_scalar(other, self.mode)
            if self.mode == EXACT:
                return self * (1 / value)
            return _float([c / value for c in self.coeffs])
        self._require_same_mode(other)
        if not other._nonzero(0):
            raise ZeroDivisionError(
                "series division needs a nonzero constant term in the divisor"
            )
        order = min(self.order, other.order)
        if self.mode == EXACT:
            # Multiply both sides by conj(lead) so the divisor's lead is the
            # positive integer L; then q_n = P_n / L**(n+1) with
            # P_n = A_n L**n - sum_{i<n} P_i B_{n-i} L**(n-1-i).
            ar, ai, da = self._re[: order + 1], self._im[: order + 1], self._den
            br, bi, db = other._re[: order + 1], other._im[: order + 1], other._den
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
            return _lowest_each([p * db for p in pr], [p * db for p in pi],
                                [da * p for p in powers[1:]])
        a, b = self.coeffs, other.coeffs
        lead = b[0]
        quotient = []
        for n in range(order + 1):
            acc = a[n]
            for i in range(n):
                acc = acc - quotient[i] * b[n - i]
            quotient.append(acc / lead)
        return _float(quotient)

    def __rtruediv__(self, other):
        return self._as_series(other) / self

    # ------------------------------------------------------------------
    # calculus and composition

    def derivative(self):
        """Termwise derivative, one order lower (order 0 gives the zero series)."""
        if self.mode == EXACT:
            re, im = self._re, self._im
            if len(re) == 1:
                return _exact((0,), (0,), 1)
            return _lowest([k * re[k] for k in range(1, len(re))],
                           [k * im[k] for k in range(1, len(im))], self._den)
        coeffs = [(k + 1) * self.coeffs[k + 1] for k in range(self.order)]
        return _float(coeffs or [0j])

    def shift_up(self):
        """Multiply by z: one order higher, every coefficient kept."""
        if self.mode == EXACT:
            return _exact((0, *self._re), (0, *self._im), self._den)
        return _float([0j, *self.coeffs])

    def shift_down(self):
        """Divide by z, one order lower; requires a vanishing constant term.

        At order 0 that leaves the zero series, still of order 0.
        """
        if self._nonzero(0):
            raise ValueError("cannot divide by z: constant term is nonzero")
        if self.mode == EXACT:
            # Dropping a zero keeps the form canonical; at order 0 den is 1.
            return _exact(self._re[1:] or (0,), self._im[1:] or (0,), self._den)
        return _float(self.coeffs[1:] or [0j])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)) truncated; inner must have zero constant term."""
        self._require_same_mode(inner)
        if inner._nonzero(0):
            raise ValueError(
                "composition needs a vanishing constant term in the inner series"
            )
        order = min(self.order, inner.order)
        if self.mode == EXACT:
            # Horner on ints: after the level of o_k the partial sum is
            # r / (do * di**(order - k)).
            orr, ori, do = self._re, self._im, self._den
            ir, ii, di = inner._re, inner._im, inner._den
            rr = [orr[order]] + [0] * order
            ri = [ori[order]] + [0] * order
            scale = 1  # di ** (order - k): the weight of o_k against do
            for k in range(order - 1, -1, -1):
                rr, ri = _convolve(rr, ri, ir, ii, order)
                scale *= di
                rr[0] += orr[k] * scale
                ri[0] += ori[k] * scale
            return _lowest(rr, ri, do * scale)
        # Horner on complex lists: r = r * inner + o_k, level by level.
        a, b = self.coeffs, inner.coeffs
        r = [a[order]] + [0j] * order
        for k in range(order - 1, -1, -1):
            r = _float_product(r, b, order)
            r[0] = r[0] + a[k]
        return _float(r)

    def pow_unit(self, exponent) -> "TruncatedSeries":
        """Real power of a series anchored at constant term 1.

        Miller's power formula: w = self**t satisfies self*w' = t*self'*w, so
        self_0*n*w_n = sum_{k=1..n} (tk - (n-k)) self_k w_{n-k} with w_0 = 1.
        Irrational exponents are fine in float mode, finite ones only (one
        past the float range is not); exact mode takes int or Fraction
        exponents.  A bool, or any value that is not a ``numbers.Real`` (text
        included), is refused in both modes.  A float result with a coefficient
        past the float range is an OverflowError naming the exponent.
        """
        if isinstance(exponent, bool) or not isinstance(exponent, numbers.Real):
            raise TypeError(f"exponent must be real, got {exponent!r}")
        if not self.has_unit_constant():
            raise ValueError("pow_unit needs constant term exactly 1")
        if self.mode == EXACT:
            if not isinstance(exponent, (int, Fraction)):
                raise ModeMismatchError(
                    "exact-mode exponents must be int or Fraction"
                )
        else:
            try:
                exponent = float(exponent)
            except OverflowError:
                raise ValueError(
                    "exponent must be finite, got one past the float range") from None
            if not math.isfinite(exponent):
                raise ValueError(f"exponent must be finite, got {exponent!r}")
        if exponent == 0:
            return TruncatedSeries.one(order=self.order, mode=self.mode)
        if exponent == 1:
            return self
        if self.mode == EXACT:
            # self_k = A_k/d, t = s/m and w_n = W_n/(n! m**n d**n), so W_0 = 1
            # and W_n = sum_k (sk - m(n-k)) A_k W_{n-k} (n-1)!/(n-k)! (md)**(k-1).
            ar, ai, d = self._re, self._im, self._den
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
            return _lowest_each(wr, wi, dens)
        # tk - (n-k), not (t+1)k - n, keeps a tiny t's precision; dividing
        # by self_0 gives (self/self_0)**t for a roundoff-unit lead.
        a = self.coeffs
        coeffs = [1 + 0j]
        for n in range(1, self.order + 1):
            acc = 0j
            for k in range(1, n + 1):
                acc += (exponent * k - (n - k)) * a[k] * coeffs[n - k]
            coeffs.append(acc / (n * a[0]))
        if not all(map(cmath.isfinite, coeffs)):
            raise OverflowError(
                f"pow_unit overflows a float coefficient at exponent {exponent!r}")
        return _float(coeffs)

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with g(self(z)) = z to the stored order.

        Requires zero constant term and nonzero linear term.  Lagrange
        inversion: g_n = [z^(n-1)] q**n / n with q = z/self.
        """
        if self._nonzero(0):
            raise ValueError("reversion needs a vanishing constant term")
        if self.order < 1 or not self._nonzero(1):
            raise ValueError("reversion needs a nonzero linear term")
        order = self.order
        q = 1 / self.shift_down()
        if self.mode == EXACT:
            # q**n = P_n / dq**n, with no normalisation between products.
            qr, qi, dq = q._re, q._im, q._den
            pr, pi, dq_n = qr, qi, dq
            gr, gi, dens = [0, qr[0]], [0, qi[0]], [1, dq]
            for n in range(2, order + 1):
                pr, pi = _convolve(pr, pi, qr, qi, order - 1)
                dq_n *= dq
                gr.append(pr[n - 1])
                gi.append(pi[n - 1])
                dens.append(n * dq_n)
            return _lowest_each(gr, gi, dens)
        g = [0j, q.coeffs[0]]
        power = q
        for n in range(2, order + 1):
            power = power * q
            g.append(power.coeffs[n - 1] / n)
        return _float(g)

    # ------------------------------------------------------------------
    # comparisons

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.mode, self.coeffs))

    def agrees_with(self, other) -> bool:
        """Coefficientwise :func:`agree` up to the lower of the two orders."""
        self._require_same_mode(other)
        if self.mode == EXACT:
            # A value has one canonical form, so equal prefixes are equal ints.
            a, b = self, other
            if len(a._re) != len(b._re):
                order = min(a.order, b.order)
                a, b = a.truncated(order), b.truncated(order)
            return a._den == b._den and a._re == b._re and a._im == b._im
        count = min(self.order, other.order) + 1
        return all(map(agree, self.coeffs[:count], other.coeffs[:count]))

    def __repr__(self):
        preview = ", ".join(str(c) for c in self.coeffs[:4])
        if self.order >= 4:
            preview += ", ..."
        return (
            f"TruncatedSeries([{preview}], mode={self.mode!r}, "
            f"order={self.order})"
        )


class _ExactSeries(TruncatedSeries):
    """An exact series: Gaussian-integer numerators over one denominator.

    ``_re`` and ``_im`` are int tuples of length ``order + 1`` over the int
    ``_den``, in canonical form (``_den > 0``, ``gcd(*_re, *_im, _den) ==
    1``), so equality, hashing and ``agrees_with`` read the ints.  ``coeffs``
    builds the :class:`QComplex` tuple on each call; indexing builds only the
    coefficient asked for.  The accessors here read the ints; the
    kernels are :class:`TruncatedSeries`' own.
    """

    __slots__ = ()

    @property
    def coeffs(self):
        den = self._den
        return tuple([_reduced(r, i, den) for r, i in zip(self._re, self._im)])

    @property
    def order(self) -> int:
        return len(self._re) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.coeffs[index]
        return _reduced(self._re[index], self._im[index], self._den)

    def _nonzero(self, k) -> bool:
        return bool(self._re[k] or self._im[k])

    def has_unit_constant(self) -> bool:
        return self._re[0] == self._den and not self._im[0]

    def __eq__(self, other):
        if not isinstance(other, _ExactSeries):
            return False if isinstance(other, TruncatedSeries) else NotImplemented
        return (self._den == other._den and self._re == other._re
                and self._im == other._im)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def __reduce__(self):
        # coeffs is a read-only view here, so copy and pickle take the ints.
        return _exact, (self._re, self._im, self._den)
