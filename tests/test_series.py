import cmath
import copy
import math
import operator
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibounds import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    QComplex,
    TruncatedSeries,
    agree,
)
from bibounds.series import FLOAT_TOL
from conftest import rand_exact_series, rand_qc
from oracles import (
    lagrange_revert,
    poly_compose,
    poly_mul,
    poly_pow_unit,
    poly_reciprocal,
    qc,
)


def exact(coeffs, order=8):
    return TruncatedSeries(coeffs, mode=EXACT, order=order)


def coeffs_re(series):
    return [c.re for c in series.coeffs]


def complex_lead(rng, den=30):
    """A nonzero scalar with nonzero real and imaginary parts, neither 1."""
    parts = [Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, den))
             for _ in range(2)]
    return QComplex(*parts)


Z = TruncatedSeries.var(order=8)
ONE = TruncatedSeries.one(order=8)


class TestScalars:
    def test_arithmetic(self):
        a = qc(1, 2, 3, 4)
        b = qc(-2, 1, 1, 2)
        assert a + b == qc(-3, 2, 5, 4)
        assert a * b == QComplex(
            Fraction(1, 2) * -2 - Fraction(3, 4) * Fraction(1, 2),
            Fraction(1, 2) * Fraction(1, 2) + Fraction(3, 4) * -2,
        )
        assert (a / b) * b == a
        assert a.conjugate().im == -a.im
        assert a.abs2() == Fraction(1, 4) + Fraction(9, 16)

    def test_mode_guard(self):
        with pytest.raises(ModeMismatchError):
            qc(1) + 0.5
        with pytest.raises(ModeMismatchError):
            0.5 * qc(1)
        with pytest.raises(ModeMismatchError):
            QComplex(0.5)

    @pytest.mark.parametrize("value", [
        QComplex(0), QComplex(3, 4), QComplex(Fraction(7, 3), Fraction(-5, 11)),
        QComplex(Fraction(1, 10**20), 1), QComplex(-2),
    ])
    def test_abs_is_the_square_root_of_abs2(self, value):
        assert abs(value) == math.sqrt(float(value.abs2()))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qc(1) / qc(0)

    @pytest.mark.parametrize(
        "value", [0, 3, -7, 10**20, Fraction(1, 2), Fraction(-5, 3)]
    )
    def test_hash_agrees_with_eq(self, value):
        assert QComplex(value) == value
        assert hash(QComplex(value)) == hash(value)
        assert value in {QComplex(value)}
        assert QComplex(value) in {value}


real_operands = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40),
)


@settings(max_examples=200, deadline=None)
@given(st.builds(QComplex, real_operands, real_operands), real_operands)
def test_real_operand_matches_the_lifted_formula(q, r):
    # An int, bool or Fraction operand r and its lift QComplex(r) give the
    # same result, on either side of every operator.
    lifted = QComplex(r)
    cases = [(q + r, q + lifted), (r + q, lifted + q), (q - r, q - lifted),
             (r - q, lifted - q), (q * r, q * lifted), (r * q, lifted * q)]
    if r != 0:
        cases.append((q / r, q / lifted))
    if q:
        cases.append((r / q, lifted / q))
    for got, want in cases:
        assert type(got) is QComplex
        assert (got.re, got.im) == (want.re, want.im)
        assert type(got.re) is Fraction and type(got.im) is Fraction


class TestRealOperands:
    @pytest.mark.parametrize("zero", [0, False, Fraction(0)])
    def test_zero_divisor_raises(self, zero):
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            qc(1, 2, 3, 4) / zero
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            Fraction(3, 2) / QComplex(zero)
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            3 / QComplex(zero)

    @pytest.mark.parametrize("value", [0.5, 0.0, 2j, complex(1, 0)])
    def test_floating_operand_raises_in_both_orders(self, value):
        q = qc(1, 2, 3, 4)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ModeMismatchError):
                op(q, value)
            with pytest.raises(ModeMismatchError):
                op(value, q)

    def test_other_operands_are_not_implemented(self):
        q = qc(1, 2, 3, 4)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__"):
            assert getattr(q, name)("1") is NotImplemented, name


# ----------------------------------------------------------------------
# the stored form: three ints (re, im, den) in lowest terms

wide_fractions = st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                              max_denominator=10**4)
real_exact = st.one_of(st.integers(-10**9, 10**9), st.booleans(), wide_fractions)
qcomplexes = st.builds(QComplex, real_exact, real_exact)
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def fraction_parts(value):
    """(re, im) of an exact scalar as plain Fractions: the reference form."""
    if isinstance(value, QComplex):
        return Fraction(value.re), Fraction(value.im)
    return Fraction(value), Fraction(0)


def reference(op, x, y):
    """op(x, y) computed on (Fraction, Fraction) pairs."""
    (a, b), (c, d) = fraction_parts(x), fraction_parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def assert_canonical(q):
    assert type(q) is QComplex
    re, im, den = q._re, q._im, q._den
    assert type(re) is int and type(im) is int and type(den) is int
    assert den > 0 and math.gcd(re, im, den) == 1


class _Int(int):
    pass


@settings(max_examples=300, deadline=None)
@given(qcomplexes, st.one_of(qcomplexes, real_exact), st.booleans())
def test_results_are_canonical_and_match_fraction_pairs(q, other, reflected):
    x, y = (other, q) if reflected else (q, other)
    assert_canonical(q)
    for op in OPERATORS:
        if op is operator.truediv and fraction_parts(y) == (0, 0):
            with pytest.raises(ZeroDivisionError, match="division by exact zero"):
                op(x, y)
            continue
        got = op(x, y)
        assert_canonical(got)
        assert (got.re, got.im) == reference(op, x, y), op
    for got, want in ((-q, (-q.re, -q.im)), (q.conjugate(), (q.re, -q.im)),
                      (+q, (q.re, q.im))):
        assert_canonical(got)
        assert (got.re, got.im) == want
    assert q.abs2() == q.re ** 2 + q.im ** 2 and type(q.abs2()) is Fraction


@settings(max_examples=200, deadline=None)
@given(real_exact, real_exact)
def test_parts_are_fractions_in_lowest_terms(re, im):
    for q in (QComplex(re, im), QComplex(_Int(int(re)), Fraction(im))):
        assert_canonical(q)
        for part in (q.re, q.im):
            assert type(part) is Fraction
            assert part.denominator > 0
            assert math.gcd(part.numerator, part.denominator) == 1
    assert (QComplex(re, im).re, QComplex(re, im).im) == (re, im)
    with pytest.raises(AttributeError):
        QComplex(re, im).re = 1


@settings(max_examples=200, deadline=None)
@given(real_exact, real_exact)
def test_eq_and_hash_agree_with_int_and_fraction(r, s):
    # The same real value reached by construction and by arithmetic.
    for q in (QComplex(r), QComplex(r, s) - QComplex(0, s),
              QComplex(r, 1) * 1 - QComplex(0, 1)):
        assert q == r and r == q and q == Fraction(r)
        assert hash(q) == hash(r) == hash(Fraction(r))
        assert {q: 1}[r] == 1 and {r: 1}[q] == 1
        assert q != Fraction(r) + Fraction(1, 7)
    q = QComplex(r, s)
    assert (q == r) == (s == 0)
    if s:
        assert hash(q) == hash((Fraction(r), Fraction(s)))


floating = st.one_of(st.floats(), st.complex_numbers())


@settings(max_examples=100, deadline=None)
@given(qcomplexes, floating)
def test_floating_operands_raise_and_exact_zero_divisors_raise(q, value):
    for op in OPERATORS:
        with pytest.raises(ModeMismatchError):
            op(q, value)
        with pytest.raises(ModeMismatchError):
            op(value, q)
    with pytest.raises(ModeMismatchError):
        QComplex(value)
    with pytest.raises(ModeMismatchError):
        QComplex(0, value)
    for zero in (0, False, Fraction(0), QComplex(0), QComplex(Fraction(0), 0)):
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            q / zero
    with pytest.raises(ZeroDivisionError, match="division by exact zero"):
        Fraction(1, 3) / QComplex(0)


class TestAdd:
    def test_cancellation(self):
        assert (exact([1, 1]) + exact([1, -1])).agrees_with(exact([2]))

    def test_additive_identity(self, rng):
        s = rand_exact_series(rng)
        assert (s + TruncatedSeries.zero(order=8)).agrees_with(s)

    def test_coefficientwise_sum(self):
        left = exact([1, 2, 2])
        right = exact([1, -2, 2])
        assert coeffs_re(left + right)[:3] == [2, 0, 4]


class TestMul:
    def test_difference_of_squares(self):
        got = exact([1, 1]) * exact([1, -1])
        assert coeffs_re(got)[:3] == [1, 0, -1]

    def test_multiplicative_identity(self, rng):
        s = rand_exact_series(rng)
        assert (s * ONE).agrees_with(s)

    def test_hand_cauchy_product(self):
        # (1 + z + z^2)(1 + z) = 1 + 2z + 2z^2 + z^3
        got = exact([1, 1, 1]) * exact([1, 1])
        assert coeffs_re(got)[:5] == [1, 2, 2, 1, 0]

    def test_matches_oracle(self, rng):
        for _ in range(25):
            a = rand_exact_series(rng)
            b = rand_exact_series(rng)
            want = poly_mul(list(a.coeffs), list(b.coeffs), 8)
            assert list((a * b).coeffs) == want

    def test_truncates_to_min_order(self):
        a = exact([1, 1], order=8)
        b = exact([1, 1], order=3)
        assert (a * b).order == 3

    def test_large_prime_denominators_match_oracle(self):
        # Every coefficient part has its own large prime denominator, so the
        # shared denominator is the product of 36 primes.
        primes = iter([1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                       1000117, 1000121, 1000133, 1000151, 1000159, 1000171,
                       1000183, 1000187, 1000193, 1000199, 1000211, 1000213,
                       1000231, 1000249, 1000253, 1000273, 1000289, 1000291,
                       1000303, 1000313, 1000333, 1000357, 1000367, 1000381,
                       1000393, 1000397, 1000403, 1000409, 1000423, 1000427])
        rng = random.Random(7)

        def prime_series():
            return exact([
                QComplex(Fraction(rng.randint(-10**6, 10**6), next(primes)),
                         Fraction(rng.randint(-10**6, 10**6), next(primes)))
                for _ in range(9)
            ])

        a, b = prime_series(), prime_series()
        assert list((a * b).coeffs) == poly_mul(list(a.coeffs), list(b.coeffs), 8)

    def test_scalar_product_matches_coefficientwise(self, rng):
        s = rand_exact_series(rng, den=30)
        scalars = [rng.randint(-10**6, 10**6), True, False, Fraction(-5, 12),
                   Fraction(rng.randint(-99, 99), rng.randint(2, 99)),
                   complex_lead(rng), QComplex(rng.randint(-9, 9))]
        for c in scalars:
            want = [reference(operator.mul, x, c) for x in s.coeffs]
            for got in (s * c, c * s):
                assert (got.mode, got.order) == (EXACT, 8)
                for q in got.coeffs:
                    assert_canonical(q)
                assert [(q.re, q.im) for q in got.coeffs] == want

    @pytest.mark.parametrize("value", [0.5, 2j, 1.0])
    def test_floating_scalar_into_exact_series_raises(self, rng, value):
        s = rand_exact_series(rng)
        for op in OPERATORS:
            with pytest.raises(ModeMismatchError):
                op(s, value)
            with pytest.raises(ModeMismatchError):
                op(value, s)


class TestDiv:
    def test_geometric_series(self):
        got = ONE / (1 - Z)
        assert coeffs_re(got) == [1] * 9

    def test_self_division(self, rng):
        s = rand_exact_series(rng, constant=1)
        assert (s / s).agrees_with(ONE)

    def test_shifted_division_remultiplies(self):
        # (1 + 2z + 3z^2)/(1 + z): verify by re-multiplication.
        num = exact([1, 2, 3])
        den = exact([1, 1])
        quotient = num / den
        assert coeffs_re(quotient)[:3] == [1, 1, 2]
        assert (quotient * den).agrees_with(num)

    def test_zero_constant_divisor_raises(self, rng):
        with pytest.raises(ZeroDivisionError):
            ONE / Z
        divisor = exact([0, qc(1, 3, -2, 7), qc(5, 2)])
        for numerator in (rand_exact_series(rng, den=30), 3):
            with pytest.raises(ZeroDivisionError, match="nonzero constant term"):
                numerator / divisor

    def test_complex_lead_matches_oracle(self, rng):
        for _ in range(8):
            a = rand_exact_series(rng, den=30)
            b = rand_exact_series(rng, den=30)
            b = exact([complex_lead(rng), *b.coeffs[1:]])
            want = poly_mul(list(a.coeffs), poly_reciprocal(list(b.coeffs), 8), 8)
            assert list((a / b).coeffs) == want
            assert list((1 / b).coeffs) == poly_reciprocal(list(b.coeffs), 8)


class TestDerivative:
    def test_power_rule(self):
        f = exact([0, 1, Fraction(1, 2), Fraction(1, 3)])
        assert coeffs_re(f.derivative())[:3] == [1, 1, 1]

    def test_constant(self):
        d = TruncatedSeries.constant(5, order=4).derivative()
        assert all(c == QComplex(0) for c in d.coeffs)

    def test_example(self):
        assert coeffs_re(exact([1, 2, 2]).derivative())[:3] == [2, 4, 0]

    def test_informational_order_drops(self):
        s = rand_exact_series(random.Random(1))
        d = s.derivative()
        assert d.order == s.order - 1
        assert list(d.coeffs) == [(k + 1) * s.coeffs[k + 1] for k in range(s.order)]

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_order_zero_gives_the_order_zero_zero(self, mode):
        zero = TruncatedSeries.zero(order=0, mode=mode)
        assert TruncatedSeries.constant(5, order=0, mode=mode).derivative() == zero
        assert zero.shift_down() == zero


class TestCompose:
    def test_identity_inner(self, rng):
        a = rand_exact_series(rng)
        assert a.compose(Z).agrees_with(a)

    def test_geometric_expansion(self):
        # ((1+z)/(1-z)) o z = 1 + 2z + 2z^2 + ...
        moebius = (1 + Z) / (1 - Z)
        assert coeffs_re(moebius.compose(Z)) == [1] + [2] * 8

    def test_scaling_inner(self):
        target = exact([1, 3, 5])
        c = qc(1, 2)
        inner = TruncatedSeries([QComplex(0), c], order=8)
        got = target.compose(inner)
        assert got.coeffs[1] == 3 * c
        assert got.coeffs[2] == 5 * c * c

    def test_matches_oracle(self, rng):
        for den, count in ((4, 15), (30, 6)):
            for _ in range(count):
                outer = rand_exact_series(rng, den=den)
                inner = rand_exact_series(rng, den=den)
                inner = TruncatedSeries(
                    [QComplex(0), *inner.coeffs[1:]], order=8
                )
                want = poly_compose(list(outer.coeffs), list(inner.coeffs), 8)
                assert list(outer.compose(inner).coeffs) == want

    def test_nonzero_inner_constant_raises(self, rng):
        message = "composition needs a vanishing constant term in the inner series"
        with pytest.raises(ValueError, match=message):
            ONE.compose(ONE)
        with pytest.raises(ValueError, match=message):
            rand_exact_series(rng, den=30).compose(exact([qc(1, 7, 2, 3), qc(1)]))


class TestPowUnit:
    def test_zeroth_power(self, rng):
        a = rand_exact_series(rng, constant=1)
        assert a.pow_unit(0).agrees_with(ONE)

    def test_moebius_power_oracle(self):
        # ((1+z)/(1-z))^g expanded independently via exp(g log(.)).
        gamma = Fraction(1, 3)
        base = (1 + Z) / (1 - Z)
        got = base.pow_unit(gamma)
        want = poly_pow_unit(list(base.coeffs), QComplex(gamma), 8)
        assert list(got.coeffs) == want
        assert got.coeffs[1] == QComplex(2 * gamma)
        assert got.coeffs[2] == QComplex(2 * gamma * gamma)

    def test_square_of_square_root(self, rng):
        a = rand_exact_series(rng, constant=1)
        root = a.pow_unit(Fraction(1, 2))
        assert (root * root).agrees_with(a)

    def test_wide_denominators_match_oracle(self, rng):
        for exponent in (Fraction(1, 3), Fraction(-5, 2), 3, -2):
            base = rand_exact_series(rng, constant=1, den=30)
            want = poly_pow_unit(list(base.coeffs), QComplex(exponent), 8)
            assert list(base.pow_unit(exponent).coeffs) == want

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            (2 * ONE).pow_unit(Fraction(1, 2))
        # Float mode asks for a unit constant the way has_unit_constant does.
        near_one = TruncatedSeries([1 + 2.0 ** -52, 0.5], mode=FLOAT, order=4)
        assert near_one.has_unit_constant()
        assert near_one.pow_unit(0.5).agrees_with(
            TruncatedSeries([1.0, 0.5], mode=FLOAT, order=4).pow_unit(0.5))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("exponent", [True, False])
    def test_bool_exponent_is_refused(self, mode, exponent):
        base = TruncatedSeries([1, 1], mode=mode, order=4)
        with pytest.raises(TypeError, match=f"^exponent must be real, got {exponent}$"):
            base.pow_unit(exponent)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("exponent", ["0.5", "1"])
    def test_text_exponent_is_refused(self, mode, exponent):
        base = TruncatedSeries([1, 0.5, 0.25], mode=FLOAT) if mode == FLOAT else ONE
        with pytest.raises(TypeError, match=f"^exponent must be real, got '{exponent}'$"):
            base.pow_unit(exponent)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_float_mode_refuses_a_non_finite_exponent(self, exponent):
        base = TruncatedSeries([1, 0.5, 0.25], mode=FLOAT)
        with pytest.raises(ValueError, match=f"^exponent must be finite, got {exponent!r}$"):
            base.pow_unit(exponent)

    def test_exact_mode_rejects_float_exponent(self):
        with pytest.raises(ModeMismatchError):
            ONE.pow_unit(0.5)

    def test_float_mode_irrational_exponent(self):
        base = (1 + TruncatedSeries.var(order=8, mode=FLOAT)) / (
            1 - TruncatedSeries.var(order=8, mode=FLOAT)
        )
        t = 2 ** 0.5
        got = base.pow_unit(t)
        assert cmath.isclose(got.coeffs[1], 2 * t, rel_tol=1e-12)
        assert cmath.isclose(got.coeffs[2], 2 * t * t, rel_tol=1e-12)

    @pytest.mark.parametrize("exponent", [10**400, -10**400, Fraction(10**400, 3)])
    def test_float_mode_refuses_an_exponent_past_the_float_range(self, exponent):
        base = TruncatedSeries([1, 0.5, 0.25], mode=FLOAT)
        with pytest.raises(ValueError, match="^exponent must be finite, got one past the float range$"):
            base.pow_unit(exponent)

    def test_float_mode_overflow_names_the_exponent(self):
        # 1e300 is finite, but w_2 = (t**2 - ...) / 8 is past the float range.
        base = TruncatedSeries([1, 0.5, 0.25], mode=FLOAT)
        with pytest.raises(OverflowError, match=r"at exponent 1e\+300$"):
            base.pow_unit(1e300)
        assert base.pow_unit(1e100).coeffs[1] == 5e99


class TestOrders:
    @pytest.mark.parametrize("field, value", [
        ("order", True), ("order", 2.0), ("order", Fraction(2)),
    ])
    def test_order_fields_must_be_ints(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
            TruncatedSeries([1, 1], **{field: value})

    @pytest.mark.parametrize("value", [True, 0.5, "1", 3])
    def test_valid_order_keyword_is_refused(self, value):
        # A series has one order, its storage order; there is no second one to set.
        assert "valid_order" not in TruncatedSeries.__slots__
        with pytest.raises(TypeError, match="valid_order"):
            TruncatedSeries([1, 1], order=3, valid_order=value)

    def test_int_orders_build_and_clamp(self):
        s = TruncatedSeries([1, 1], order=3)
        assert (s.order, s.coeffs) == (3, (1, 1, 0, 0))
        assert TruncatedSeries([1, 2, 3, 4, 5], order=2).coeffs == (1, 2, 3)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            TruncatedSeries([1], order=-1)

    @pytest.mark.parametrize("value", [10.0, 2.5, True])
    def test_truncated_order_must_be_an_int(self, value):
        s = exact([1, 2, 3, 4], order=3)
        with pytest.raises(TypeError, match=f"^order must be an int, got {value!r}$"):
            s.truncated(value)

    def test_truncated_order_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            exact([1, 2, 3, 4], order=3).truncated(-1)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_truncated_keeps_the_lower_coefficients(self, mode):
        s = TruncatedSeries([1, 2, 3, 4], mode=mode)
        assert s.truncated(1) == TruncatedSeries([1, 2], mode=mode)
        assert s.truncated(0) == TruncatedSeries([1], mode=mode)
        assert s.truncated(3) is s and s.truncated(10) is s

    def test_one_count_rule_serves_every_layer(self):
        from bibounds import classes, harness, series

        assert classes._count is harness._count is series._count


class TestUnitConstant:
    def test_exact_mode_is_exact(self):
        assert ONE.has_unit_constant()
        assert not TruncatedSeries.constant(Fraction(10**15 + 1, 10**15)).has_unit_constant()

    def test_float_mode_forgives_roundoff(self):
        ulp = 2.0 ** -52
        for constant in (1.0, 1.0 + ulp, 1.0 - ulp / 2):
            series = TruncatedSeries.constant(constant, order=3, mode=FLOAT)
            assert series.has_unit_constant()
        assert not TruncatedSeries.constant(1.001, mode=FLOAT).has_unit_constant()

    def test_float_mode_reads_float_tol(self):
        # The unit-constant test is agree(c0, 1): FLOAT_TOL, relative and absolute.
        inside = TruncatedSeries.constant(1 + FLOAT_TOL / 2, mode=FLOAT)
        outside = TruncatedSeries.constant(1 + 2 * FLOAT_TOL, mode=FLOAT)
        assert inside.has_unit_constant() and not outside.has_unit_constant()


class TestAgree:
    def test_two_exact_values_compare_by_equality(self):
        near_one = QComplex(Fraction(10**15 + 1, 10**15))
        assert agree(QComplex(1, 2), QComplex(1, 2))
        assert agree(QComplex(Fraction(1, 2)), Fraction(1, 2))
        assert agree(Fraction(4, 2), 2)
        assert not agree(QComplex(1), near_one)
        assert not agree(0, Fraction(1, 10**30))

    @pytest.mark.parametrize("exact_one", [1, Fraction(1), QComplex(1)])
    def test_an_exact_and_a_float_value_compare_by_isclose(self, exact_one):
        for other in (1.0, 1.0 + 1e-13, 1 - 1e-10 + 0j):
            assert agree(exact_one, other) and agree(other, exact_one)
        assert not agree(exact_one, 1 + 2 * FLOAT_TOL)

    def test_float_values_compare_by_isclose(self):
        assert agree(1.0, 1.0 + 1e-13) and agree(2j, 2j * (1 + 1e-10))
        # The absolute tolerance holds near zero: 0 against 1e-10 agrees.
        assert agree(0.0, 1e-10) and not agree(0.0, 1e-8)

    @pytest.mark.parametrize("exact", [False, True])
    def test_a_relative_error_of_1e_6_fails(self, exact):
        rng = random.Random(5)
        for _ in range(50):
            x = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            base = QComplex(Fraction(x.real), Fraction(x.imag)) if exact else x
            assert agree(base, x)
            assert not agree(base, x * (1 + 1e-6))

    def test_takes_no_mode_or_tolerance(self):
        with pytest.raises(TypeError):
            agree(1.0, 1.0, FLOAT)
        with pytest.raises(TypeError):
            ONE.agrees_with(ONE, rel_tol=1e-3)


class TestRevert:
    def test_identity(self):
        assert Z.revert().agrees_with(Z)

    def test_cubic_prefix(self, rng):
        # order-3 prefix of the inverse: w - a2 w^2 + (2 a2^2 - a3) w^3
        for _ in range(10):
            a2, a3 = rand_qc(rng), rand_qc(rng)
            f = TruncatedSeries([QComplex(0), QComplex(1), a2, a3], order=8)
            g = f.revert()
            assert g.coeffs[1] == QComplex(1)
            assert g.coeffs[2] == -a2
            assert g.coeffs[3] == 2 * a2 * a2 - a3

    def test_geometric_reversion(self):
        f = Z / (1 - Z)  # z + z^2 + z^3 + ...
        g = f.revert()   # w/(1+w) = w - w^2 + w^3 - ...
        assert coeffs_re(g) == [0, 1, -1, 1, -1, 1, -1, 1, -1]
        assert g.compose(f).agrees_with(Z)

    def test_matches_lagrange_oracle(self, rng):
        for _ in range(10):
            coeffs = [QComplex(0), QComplex(1)] + [rand_qc(rng) for _ in range(7)]
            f = TruncatedSeries(coeffs, order=8)
            assert list(f.revert().coeffs) == lagrange_revert(coeffs, 8)
        for _ in range(5):  # non-unit complex linear term, wider denominators
            coeffs = [QComplex(0), complex_lead(rng)] + [
                rand_qc(rng, den=30) for _ in range(7)
            ]
            f = TruncatedSeries(coeffs, order=8)
            assert list(f.revert().coeffs) == lagrange_revert(coeffs, 8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ONE.revert()
        with pytest.raises(ValueError):
            (Z * Z).revert()
        with pytest.raises(ValueError, match="nonzero linear term"):
            TruncatedSeries([0], order=0).revert()


class TestModeDiscipline:
    def test_mixing_series_raises(self):
        with pytest.raises(ModeMismatchError):
            ONE + TruncatedSeries.one(order=8, mode=FLOAT)

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a * b,
            lambda a, b: b * a,
            lambda a, b: a / b,
            lambda a, b: b / a,
            lambda a, b: (a - 1).compose(b - 1),
            lambda a, b: (b - 1).compose(a - 1),
        ],
    )
    def test_mixing_series_raises_in_every_kernel(self, op, rng):
        exact_series = rand_exact_series(rng, constant=1, den=30)
        float_series = TruncatedSeries([1.0, 0.5, -0.25], mode=FLOAT, order=8)
        with pytest.raises(ModeMismatchError):
            op(exact_series, float_series)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("operand", [1, [0, 1], None, QComplex(1)],
                             ids=["int", "list", "None", "QComplex"])
    @pytest.mark.parametrize("method", ["compose", "agrees_with"])
    def test_a_non_series_operand_is_a_type_error_naming_it(self, mode, operand, method):
        s = TruncatedSeries([1, 2, 3], mode=mode)
        with pytest.raises(TypeError, match=f"got {type(operand).__name__}$"):
            getattr(s, method)(operand)

    def test_float_coefficient_in_exact_mode_raises(self):
        with pytest.raises(ModeMismatchError):
            TruncatedSeries([1.0, 2.0], mode=EXACT)

    def test_float_mode_accepts_exact_values(self):
        s = TruncatedSeries([1, Fraction(1, 2)], mode=FLOAT, order=4)
        assert s.coeffs[1] == 0.5 + 0j


class TestExactResults:
    """Exact kernels return QComplex in lowest terms and today's orders."""

    @staticmethod
    def kernel_results(rng):
        a = rand_exact_series(rng, den=30)
        b = exact([complex_lead(rng), *rand_exact_series(rng, den=30).coeffs[1:]])
        u = rand_exact_series(rng, constant=1, den=30)
        f = exact([0, complex_lead(rng), *rand_exact_series(rng, den=30).coeffs[2:]])
        return [a * b, a * complex_lead(rng), a / b, a.compose(f), a.derivative(),
                u.pow_unit(Fraction(2, 3)), f.revert()]

    def test_coefficients_are_qcomplex_in_lowest_terms(self, rng):
        for result in self.kernel_results(rng):
            assert isinstance(result.coeffs, tuple)
            for c in result.coeffs:
                assert_canonical(c)
                for part in (c.re, c.im):
                    assert type(part) is Fraction
                    assert part.denominator > 0
                    assert math.gcd(part.numerator, part.denominator) == 1

    def test_equal_and_hash_equal_to_hand_built(self, rng):
        for result in self.kernel_results(rng):
            hand = TruncatedSeries(
                [QComplex(Fraction(c.re.numerator * 6, c.re.denominator * 6),
                          Fraction(c.im.numerator * 10, c.im.denominator * 10))
                 for c in result.coeffs],
                order=result.order,
            )
            assert result == hand
            assert hash(result) == hash(hand)

    def test_real_results_hash_like_their_values(self):
        got = exact([1, Fraction(1, 2)]) * exact([2, Fraction(1, 3)])
        assert got.coeffs[:3] == (2, Fraction(4, 3), Fraction(1, 6))
        assert set(got.coeffs[:3]) == {2, Fraction(4, 3), Fraction(1, 6)}

    @pytest.mark.parametrize(
        "op",
        [lambda a, b: a * b, lambda a, b: a / b,
         lambda a, b: a.compose(b - b.coeffs[0])],
    )
    def test_mixed_storage_orders(self, op, rng):
        for order_a, order_b in [(8, 3), (3, 8), (5, 7), (0, 4), (6, 6)]:
            a = rand_exact_series(rng, order=order_a)
            b = exact([complex_lead(rng),
                       *rand_exact_series(rng, order=order_b).coeffs[1:]],
                      order=order_b)
            got = op(a, b)
            short = min(order_a, order_b)
            assert got.order == short
            assert got == op(a.truncated(short), b.truncated(short))

    def test_unary_kernels_keep_orders(self, rng):
        u = rand_exact_series(rng, constant=1, order=6)
        assert u.pow_unit(Fraction(1, 2)).order == 6
        tail = rand_exact_series(rng, order=6).coeffs[2:]
        f = exact([0, complex_lead(rng), *tail], order=6)
        assert f.revert().order == 6
        assert f.derivative().order == 5
        assert f.shift_down().order == 5
        assert f.shift_up().order == 7


# ----------------------------------------------------------------------
# property tests

small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
scalars = st.builds(QComplex, small_fractions, small_fractions)


def series_strategy(constant=None, min_order=2, max_order=8):
    def build(coeffs):
        if constant is not None:
            coeffs = [QComplex(constant), *coeffs[1:]]
        return TruncatedSeries(coeffs, order=len(coeffs) - 1)

    return st.lists(scalars, min_size=min_order + 1, max_size=max_order + 1).map(
        build
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_commutes(a, b):
    assert (a * b).agrees_with(b * a)


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_associates(a, b, c):
    assert ((a * b) * c).agrees_with(a * (b * c))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(constant=1))
def test_div_mul_roundtrip(a, b):
    assert ((a / b) * b).agrees_with(a)


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy().filter(lambda s: s.coeffs[0]))
def test_div_any_lead_matches_oracle(a, b):
    order = min(a.order, b.order)
    want = poly_mul(list(a.coeffs), poly_reciprocal(list(b.coeffs), order), order)
    assert list((a / b).coeffs) == want


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy())
def test_product_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs.agrees_with(rhs)


@settings(max_examples=30, deadline=None)
@given(
    series_strategy(constant=1, min_order=4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=4),
)
def test_pow_unit_additivity(a, s, t):
    assert (a.pow_unit(s) * a.pow_unit(t)).agrees_with(a.pow_unit(s + t))


@settings(max_examples=40, deadline=None)
@given(st.lists(scalars, min_size=3, max_size=7))
def test_compose_revert_identity(tail):
    f = TruncatedSeries([QComplex(0), QComplex(1), *tail], order=len(tail) + 1)
    ident = TruncatedSeries.var(order=f.order)
    assert f.revert().compose(f).agrees_with(ident)
    assert f.compose(f.revert()).agrees_with(ident)


@settings(max_examples=30, deadline=None)
@given(scalars.filter(bool), st.lists(scalars, min_size=2, max_size=6))
def test_revert_any_linear_term_matches_lagrange(lead, tail):
    coeffs = [QComplex(0), lead, *tail]
    f = TruncatedSeries(coeffs)
    assert list(f.revert().coeffs) == lagrange_revert(coeffs, f.order)


# Complex coefficients with denominators up to 30.
wide_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=30
)
wide_scalars = st.builds(QComplex, wide_fractions, wide_fractions)
pow_exponents = st.one_of(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(-1, 12), max_denominator=12),
    st.integers(-4, 4),
    st.sampled_from([0, 1]),
)


def max_abs_error(got, want):
    """Largest coefficient error over the largest oracle coefficient (at least 1)."""
    scale = max(1.0, *(abs(w) for w in want))
    return max(abs(g - w) for g, w in zip(got, want)) / scale


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_scalars, min_size=1, max_size=12), pow_exponents)
def test_exact_pow_unit_matches_exp_log_oracle(tail, t):
    order = len(tail)
    coeffs = [QComplex(1), *tail]
    got = TruncatedSeries(coeffs, order=order).pow_unit(t)
    assert got.order == order
    assert list(got.coeffs) == poly_pow_unit(coeffs, QComplex(t), order)


@settings(max_examples=40, deadline=None)
@given(st.lists(wide_scalars, min_size=1, max_size=12),
       st.one_of(st.floats(-4, 4), st.integers(-4, 4).map(float)))
def test_float_pow_unit_matches_exp_log_oracle(tail, t):
    # The oracle runs exactly on the same inputs (a float is a rational): its
    # alternating log series loses up to 2e-10 when run on complex itself.
    coeffs = [QComplex(1), *tail]
    got = TruncatedSeries(coeffs, mode=FLOAT).pow_unit(t)
    want = poly_pow_unit(coeffs, QComplex(Fraction(t)), len(tail))
    assert max_abs_error(got.coeffs, [complex(w) for w in want]) <= 1e-12


def test_float_pow_unit_divides_out_a_roundoff_lead():
    # A lead of 1 + 5e-13 passes has_unit_constant; the power is then that of
    # the series over its lead, far closer than the lead's own offset.
    base = TruncatedSeries([1.0, 0.5 - 0.25j, -1.5, 0.75j, 2.0], mode=FLOAT)
    lead = 1 + 5e-13
    shifted = base * lead
    assert shifted.has_unit_constant()
    for t in (0.5, -1.5, 3.0):
        assert max_abs_error(shifted.pow_unit(t).coeffs, base.pow_unit(t).coeffs) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(wide_scalars.filter(lambda c: c.im != 0),
       st.lists(wide_scalars, min_size=0, max_size=11))
def test_exact_revert_round_trips_with_complex_lead(lead, tail):
    f = TruncatedSeries([QComplex(0), lead, *tail])
    ident = TruncatedSeries.var(order=f.order)
    assert f.revert().compose(f) == ident
    assert f.compose(f.revert()) == ident


@settings(max_examples=40, deadline=None)
@given(wide_scalars.filter(bool), st.lists(wide_scalars, min_size=0, max_size=11))
def test_float_revert_matches_lagrange_oracle(lead, tail):
    coeffs = [QComplex(0), lead, *tail]
    got = TruncatedSeries(coeffs, mode=FLOAT).revert()
    want = lagrange_revert(coeffs, len(tail) + 1)
    assert max_abs_error(got.coeffs, [complex(w) for w in want]) <= 1e-12


# Kernel results skip the coercion of the public constructor; what they hold
# must be what it would have built.

cheap_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
exact_values = st.builds(QComplex, cheap_fractions, cheap_fractions)
float_values = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
float_leads = st.complex_numbers(min_magnitude=0.5, max_magnitude=4,
                                 allow_nan=False, allow_infinity=False)
exact_leads = exact_values.filter(lambda q: q.abs2() >= Fraction(1, 4))
TOWERS = {
    EXACT: (exact_values, exact_leads,
            st.one_of(exact_values, st.integers(-5, 5), cheap_fractions),
            cheap_fractions),
    FLOAT: (float_values, float_leads,
            st.one_of(float_values, st.floats(-4, 4), st.integers(-5, 5), cheap_fractions),
            st.floats(-3, 3)),
}


def tower_series(draw, mode, values, lead=None, min_order=0):
    order = draw(st.integers(min_order, 8))
    coeffs = draw(st.lists(values, min_size=order + 1, max_size=order + 1))
    if lead is not None:
        coeffs[lead[0]] = lead[1]
    return TruncatedSeries(coeffs, mode=mode, order=order)


def kernel_results(draw, mode):
    values, leads, scalar_values, exponents = TOWERS[mode]
    zero = 0 if mode == EXACT else 0j
    a = tower_series(draw, mode, values)
    b = tower_series(draw, mode, values)
    divisor = tower_series(draw, mode, values, lead=(0, draw(leads)))
    unit = tower_series(draw, mode, values, lead=(0, 1))
    f = tower_series(draw, mode, values, lead=(1, draw(leads)), min_order=1)
    f = TruncatedSeries([zero, *f.coeffs[1:]], mode=mode)
    s = draw(scalar_values)
    nonzero = draw(leads)
    return {
        "a + b": a + b, "a + s": a + s, "s + a": s + a,
        "a - b": a - b, "a - s": a - s, "s - a": s - a, "-a": -a,
        "a * b": a * b, "b * a": b * a, "a * s": a * s, "s * a": s * a,
        "a / divisor": a / divisor, "a / nonzero": a / nonzero,
        "s / divisor": s / divisor,
        "a.compose(f)": a.compose(f), "f.compose(f)": f.compose(f),
        "unit.pow_unit(t)": unit.pow_unit(draw(exponents)),
        "f.revert()": f.revert(), "a.derivative()": a.derivative(),
        "a.shift_up()": a.shift_up(), "f.shift_down()": f.shift_down(),
    }


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_results_are_what_the_constructor_builds(mode, data):
    for name, r in kernel_results(data.draw, mode).items():
        assert r == TruncatedSeries(r.coeffs, mode=r.mode, order=r.order), name
        assert r.mode == mode and isinstance(r.coeffs, tuple), name
        assert len(r.coeffs) == r.order + 1, name
        for c in r.coeffs:
            if mode == FLOAT:
                assert type(c) is complex, name
            else:
                assert type(c) is QComplex, name
                assert_canonical(c)


# An exact series stores int numerators _re and _im over one int _den in
# canonical form: den > 0 and no common factor of all of them.

def assert_canonical_series(s):
    ints = (*s._re, *s._im, s._den)
    assert all(type(x) is int for x in ints)
    assert len(s._re) == len(s._im) == s.order + 1
    assert s._den > 0 and math.gcd(*ints) == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_kernel_results_are_canonical(data):
    results = kernel_results(data.draw, EXACT)
    a = results["a + b"]
    results["a.truncated(k)"] = a.truncated(data.draw(st.integers(0, a.order)))
    for name, r in results.items():
        assert_canonical_series(r), name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_exact_series_by_different_routes_are_equal_and_hash_equal(data):
    results = kernel_results(data.draw, EXACT)
    for name, r in results.items():
        rebuilt = TruncatedSeries(r.coeffs, order=r.order)
        assert r == rebuilt and hash(r) == hash(rebuilt), name
    pairs = [("a * b", "b * a"), ("a * s", "s * a"), ("a + s", "s + a")]
    for left, right in pairs:
        assert results[left] == results[right], left
        assert hash(results[left]) == hash(results[right]), left


@settings(max_examples=100, deadline=None)
@given(st.lists(exact_values, min_size=9, max_size=9), st.integers(0, 3))
def test_agrees_with_its_truncation_over_a_smaller_denominator(coeffs, k):
    s = TruncatedSeries(coeffs, order=8)
    t = s.truncated(3)
    assert s._den % t._den == 0
    assert s.agrees_with(t) and t.agrees_with(s)
    bumped = TruncatedSeries([*t.coeffs[:k], t[k] + Fraction(1, 7), *t.coeffs[k + 1:]])
    assert not s.agrees_with(bumped) and not bumped.agrees_with(s)


# Tail values over primes that exact_values never use, so a prefix with a
# tail sits over another denominator than the series it came from.
other_fractions = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([7, 11, 13]))
other_values = st.builds(QComplex, other_fractions, other_fractions)


@settings(max_examples=200, deadline=None)
@given(st.lists(exact_values, min_size=1, max_size=9), st.data())
def test_exact_agrees_with_is_coefficientwise_equality(coeffs, data):
    a = TruncatedSeries(coeffs)
    prefix = list(a.coeffs[: data.draw(st.integers(1, len(coeffs)))])
    edit = data.draw(st.sampled_from(["keep", "bump", "scale"]))
    if edit == "bump":
        k = data.draw(st.integers(0, len(prefix) - 1))
        prefix[k] += data.draw(st.sampled_from([Fraction(1, 7), QComplex(0, 1)]))
    elif edit == "scale":
        # Numerators seldom have a factor 13, so the ints mostly stay the same
        # and only the denominator moves.
        prefix = [c / 13 for c in prefix]
    b = TruncatedSeries(prefix + data.draw(st.lists(other_values, max_size=4)))
    want = all(x == y for x, y in zip(a.coeffs, b.coeffs))
    assert a.agrees_with(b) is want
    assert b.agrees_with(a) is want


@settings(max_examples=100, deadline=None)
@given(st.lists(exact_values, min_size=1, max_size=9),
       st.one_of(exact_values, cheap_fractions, st.integers(-5, 5)).filter(bool))
def test_exact_division_by_a_scalar_is_coefficientwise(coeffs, q):
    s = TruncatedSeries(coeffs)
    assert (s / q).coeffs == tuple(c / q for c in s.coeffs)
    assert_canonical_series(s / q)
    for zero in (0, False, Fraction(0), QComplex(0)):
        with pytest.raises(ZeroDivisionError, match="division by exact zero"):
            s / zero


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_copies_and_pickles_are_equal(mode, duplicate):
    s = TruncatedSeries([1, Fraction(1, 2), QComplex(Fraction(2, 3), 1)], mode=mode)
    for series in (s, s * s):
        twin = duplicate(series)
        assert twin == series and hash(twin) == hash(series)
        assert twin.coeffs == series.coeffs and twin.mode == mode


def test_truncation_can_shrink_the_denominator():
    s = exact([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    t = s.truncated(3)
    assert (s._den, t._den) == (210, 30)
    assert s.agrees_with(t) and t.agrees_with(s)
    assert t == exact([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], order=3)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shifts_round_trip_and_each_result_has_its_order(mode, data):
    # A series of order N stores what it knows: the derivative and shift_down
    # know one coefficient less, shift_up one more, and every other result the
    # lower order of its operands.
    values, leads, scalar_values, exponents = TOWERS[mode]
    zero = 0 if mode == EXACT else 0j
    a = tower_series(data.draw, mode, values)
    b = tower_series(data.draw, mode, values, lead=(0, data.draw(leads)))
    unit = tower_series(data.draw, mode, values, lead=(0, 1))
    f = tower_series(data.draw, mode, values, lead=(1, data.draw(leads)), min_order=1)
    f = TruncatedSeries([zero, *f.coeffs[1:]], mode=mode)
    s = data.draw(scalar_values)
    k = data.draw(st.integers(0, 10))
    n, m = a.order, b.order
    up = a.shift_up()
    assert up.shift_down() == a
    assert up.coeffs == (zero, *a.coeffs)
    results = [
        ("a.shift_up()", up, n + 1), ("f.shift_down()", f.shift_down(), f.order - 1),
        ("a.derivative()", a.derivative(), max(n - 1, 0)),
        ("a + b", a + b, min(n, m)), ("a - b", a - b, min(n, m)),
        ("a * b", a * b, min(n, m)), ("a / b", a / b, min(n, m)),
        ("a + s", a + s, n), ("a * s", a * s, n), ("s / b", s / b, m),
        ("-a", -a, n), ("a.compose(f)", a.compose(f), min(n, f.order)),
        ("unit.pow_unit(t)", unit.pow_unit(data.draw(exponents)), unit.order),
        ("f.revert()", f.revert(), f.order), ("a.truncated(k)", a.truncated(k), min(n, k)),
    ]
    for name, r, order in results:
        assert r.order == order, name
        assert len(r.coeffs) == order + 1, name


def compose_by_levels(outer, inner):
    """outer(inner) built level by level with series * and +, the reference."""
    order = min(outer.order, inner.order)
    result = TruncatedSeries.constant(outer.coeffs[order], order=order, mode=outer.mode)
    for k in range(order - 1, -1, -1):
        result = result * inner.truncated(order) + outer.coeffs[k]
    return result.coeffs


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_compose_is_bit_identical_to_level_by_level_horner(data):
    outer = tower_series(data.draw, FLOAT, float_values)
    inner = tower_series(data.draw, FLOAT, float_values, lead=(0, 0j))
    got = outer.compose(inner).coeffs
    want = compose_by_levels(outer, inner)
    assert [(c.real.hex(), c.imag.hex()) for c in got] == [
        (c.real.hex(), c.imag.hex()) for c in want]
