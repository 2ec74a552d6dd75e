import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibounds import (
    ClassSpec,
    MindaTarget,
    PairSpec,
    QComplex,
    SchwarzParams,
    TruncatedSeries,
    caratheodory_kernel,
    consistency_residual,
    eliminate,
    elimination_denominator,
    functional,
    implied_b2,
    linked_b1,
    rhs_pair,
    sigma_tilde,
    SchlichtCoeffs,
    solve_forward,
    subordinate_compose,
    target_preset,
    theorem_pair,
)
from bibounds.bounds import SIGMA_SCALE, THEOREM_TAGS, derived_sigma
from bibounds.solver import ClosedFormConstants, closed_forms
from conftest import rand_fraction, rand_qc
from oracles import constants_reference

CARA = target_preset("caratheodory")


def rand_target(rng):
    return MindaTarget(
        [Fraction(rng.randint(1, 12), 4), Fraction(rng.randint(-12, 12), 4)]
    )


def rand_pair(rng, tag):
    kf, kg = tag[0], tag[1]
    alpha = Fraction(rng.randint(0, 8), 8)
    beta = Fraction(rng.randint(0, 8), 8)
    return PairSpec(
        ClassSpec(kf, alpha), rand_target(rng), ClassSpec(kg, beta), rand_target(rng)
    )


def consistent_params(rng, pair):
    """Schwarz data on which all four coefficient equations hold."""
    while True:
        c1 = QComplex(
            rand_fraction(rng, 4, 4) / 8, rand_fraction(rng, 4, 4) / 8
        )
        c2 = QComplex(
            rand_fraction(rng, 4, 4) / 8, rand_fraction(rng, 4, 4) / 8
        )
        b2 = implied_b2(pair, c1, c2)
        if b2.abs2() <= 4:
            return SchwarzParams(c1, c2, b2)


# ----------------------------------------------------------------------
# printed per-pairing forms, transcribed for cross-checking

B1_LINK_FACTORS = {
    "PP": lambda a, b: (1 + 2 * b, 1 + 2 * a),
    "PM": lambda a, b: (1 + b, 1 + 2 * a),
    "PL": lambda a, b: (2 - b, 1 + 2 * a),
    "MM": lambda a, b: (1 + b, 1 + a),
    "ML": lambda a, b: (2 - b, 1 + a),
    "LL": lambda a, b: (2 - b, 2 - a),
}


def display_a2_squared(tag, pair, c2, b2, sigma):
    """The displayed a2^2 closed form (statement-aligned PM variant)."""
    a = pair.class_f.param
    b = pair.class_g.param
    B1, B2 = pair.phi.B1, pair.phi.B2
    D1, D2 = pair.psi.B1, pair.psi.B2
    scale = B1**2 * D1**2
    if tag == "PP":
        num = scale * (B1 * (1 + 3 * b) * c2 + D1 * (1 + 3 * a) * b2)
        den = 2 * (
            sigma * scale
            - (1 + 2 * a) ** 2 * (1 + 3 * b) * (B2 - B1) * D1**2
            - (1 + 2 * b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
    elif tag == "PM":
        num = scale * (B1 * (1 + 2 * b) * c2 + D1 * (1 + 3 * a) * b2)
        den = 2 * (
            sigma * scale
            - (1 + 2 * a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            - (1 + b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
    elif tag == "PL":
        num = scale * (B1 * (3 - 2 * b) * c2 + D1 * (1 + 3 * a) * b2)
        den = (
            sigma * scale
            - 2 * (1 + 2 * a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            - 2 * (2 - b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
    elif tag == "MM":
        num = scale * (B1 * (1 + 2 * b) * c2 + D1 * (1 + 2 * a) * b2)
        den = (
            2 * sigma * scale
            - 2 * (1 + a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            - 2 * (1 + b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
    elif tag == "ML":
        num = scale * (B1 * (3 - 2 * b) * c2 + D1 * (1 + 2 * a) * b2)
        den = (
            sigma * scale
            - 2 * (1 + a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            - 2 * (2 - b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
    else:
        num = scale * (B1 * (3 - 2 * b) * c2 + D1 * (3 - 2 * a) * b2)
        den = (
            sigma * scale
            - 2 * (2 - a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            - 2 * (2 - b) ** 2 * (3 - 2 * a) * (D2 - D1) * B1**2
        )
    return num / den


def display_scaled_a3(tag, pair, c1, c2, b2):
    """The displayed multiplier * sigma * a3 right side (with derived sigma).

    For ML the statement-implied (halved) |B2 - B1| factor is used; for LL
    the last factor is the displayed (alpha^2 + 5 alpha - 8).
    """
    a = pair.class_f.param
    b = pair.class_g.param
    B1, B2 = pair.phi.B1, pair.phi.B2
    D1, D2 = pair.psi.B1, pair.psi.B2
    c1sq = c1 * c1
    if tag == "PP":
        return (B1 * (3 + 10 * b) * c2 + D1 * (1 + 2 * a) * b2) / 2 + c1sq / 4 * (
            (3 + 10 * b) * (B2 - B1)
            + (1 + 2 * b) ** 2 * B1**2 * (D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PM":
        return (B1 * (3 + 5 * b) * c2 + D1 * (1 + 2 * a) * b2) / 2 + c1sq / 4 * (
            (3 + 5 * b) * (B2 - B1)
            + (1 + b) ** 2 * B1**2 * (D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PL":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly * c2 / 4
            + D1 * (1 + 2 * a) * b2 / 2
            + c1sq / 4 * (
                poly * (B2 - B1) / 2
                + (2 - b) ** 2 * B1**2 * (D2 - D1) / (D1**2 * (1 + 2 * a))
            )
        )
    if tag == "MM":
        return (
            B1 * (3 + 5 * b) * c2 / 2
            + D1 * (1 + 3 * a) * b2 / 2
            + c1sq / 4 * (
                (3 + 5 * b) * (B2 - B1)
                + (1 + b) ** 2 * (1 + 3 * a) * B1**2 * (D2 - D1)
                / (D1**2 * (1 + a) ** 2)
            )
        )
    if tag == "ML":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly * c2 / 4
            + D1 * (1 + 3 * a) * b2 / 2
            + c1sq / 4 * (
                poly * (B2 - B1) / 2
                + (2 - b) ** 2 * (1 + 3 * a) * B1**2 * (D2 - D1)
                / (D1**2 * (1 + a) ** 2)
            )
        )
    poly = b * b - 11 * b + 16
    return (
        B1 * poly * c2 / 2
        + D1 * (8 - 5 * a - a * a) * b2 / 2
        + c1sq / 4 * (
            poly * (B2 - B1)
            + (2 - b) ** 2 * (a * a + 5 * a - 8) * B1**2 * (D2 - D1)
            / (D1**2 * (2 - a) ** 2)
        )
    )


class TestLinkedB1:
    def test_zero_input(self, rng):
        for tag in THEOREM_TAGS:
            assert linked_b1(rand_pair(rng, tag), QComplex(0)) == QComplex(0)

    def test_basic_value(self):
        pair = theorem_pair("PP", 0, 0, CARA, CARA)
        assert linked_b1(pair, QComplex(1)) == QComplex(-1)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_printed_specializations(self, tag, rng):
        for _ in range(40):
            pair = rand_pair(rng, tag)
            c1 = rand_qc(rng)
            top, bottom = B1_LINK_FACTORS[tag](
                pair.class_f.param, pair.class_g.param
            )
            want = -(pair.phi.B1 * top) / (pair.psi.B1 * bottom) * c1
            assert linked_b1(pair, c1) == want


class TestSigmaTilde:
    def test_values(self):
        assert sigma_tilde(theorem_pair("PP", 0, 0, CARA, CARA)) == 4
        assert sigma_tilde(theorem_pair("ML", 0, 0, CARA, CARA)) == 10
        assert sigma_tilde(theorem_pair("LL", 1, 1, CARA, CARA)) == 4

    def test_swap_invariance(self, rng):
        for tag in THEOREM_TAGS:
            for _ in range(10):
                pair = rand_pair(rng, tag)
                assert sigma_tilde(pair) == sigma_tilde(pair.swapped())

    def test_ll_symbolic_expansion(self):
        # Independent symbolic oracle for the LL determinant.
        import sympy

        a, b = sympy.symbols("a b")
        expected = sympy.expand(
            (3 - 2 * a) * (b**2 - 11 * b + 16) - (3 - 2 * b) * (8 - 5 * a - a**2)
        )
        for aa in (0, Fraction(1, 2), 1):
            for bb in (0, Fraction(1, 4), 1):
                pair = theorem_pair("LL", aa, bb, CARA, CARA)
                want = expected.subs(
                    {a: sympy.Rational(aa), b: sympy.Rational(bb)}
                )
                assert sigma_tilde(pair) == Fraction(str(want))


class TestRhsPair:
    def test_all_zero(self):
        pair = theorem_pair("PP", 0, 0, CARA, CARA)
        sp = SchwarzParams(0, 0, 0)
        assert rhs_pair(pair, sp) == (QComplex(0), QComplex(0))

    def test_caratheodory_corner(self):
        pair = theorem_pair("PP", 0, 0, CARA, CARA)
        sp = SchwarzParams(2, 2, 0)
        x, _ = rhs_pair(pair, sp)
        assert x == QComplex(2)  # B2 = B1 kills the c1^2 term

    def test_second_coefficient_term(self):
        pair = theorem_pair(
            "PP", 0, 0, MindaTarget([1, 2]), MindaTarget([1, 2])
        )
        sp = SchwarzParams(2, 0, 0)
        x, _ = rhs_pair(pair, sp)
        assert x == QComplex(1)  # (B2-B1) c1^2 / 4 = 1*4/4


class TestEliminate:
    def test_corner_value(self):
        pair = theorem_pair("PP", 0, 0, CARA, CARA)
        result = eliminate(pair, SchwarzParams(0, 2, 2))
        assert result.a2_squared == QComplex(2)
        assert not result.degenerate

    def test_all_zero(self, rng):
        for tag in THEOREM_TAGS:
            pair = rand_pair(rng, tag)
            if elimination_denominator(pair) == 0 or sigma_tilde(pair) == 0:
                continue
            result = eliminate(pair, SchwarzParams(0, 0, 0))
            assert result.a2_squared == QComplex(0)
            assert result.a3 == QComplex(0)

    def test_degenerate_flag(self):
        pair = theorem_pair(
            "PP", 0, 0, MindaTarget([1, 2]), MindaTarget([1, 2])
        )
        assert elimination_denominator(pair) == 0
        result = eliminate(pair, SchwarzParams(1, 1, 1))
        assert result.degenerate
        assert result.a2_squared is None
        assert result.a3 is not None  # sigma_tilde alone is fine here

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_matches_displayed_forms(self, tag, rng):
        # The closed forms must specialize to the displayed per-pairing
        # formulas (with the derived sigma, so the LL sign slip and the PM
        # display variant do not contaminate the structural check).
        for _ in range(25):
            pair = rand_pair(rng, tag)
            if elimination_denominator(pair) == 0 or sigma_tilde(pair) == 0:
                continue
            sp = SchwarzParams(rand_qc(rng, 1, 2), rand_qc(rng, 1, 2), rand_qc(rng, 1, 2))
            result = eliminate(pair, sp)
            sigma = derived_sigma(tag, pair.class_f.param, pair.class_g.param)
            want_a2 = display_a2_squared(tag, pair, sp.c2, sp.b2, sigma)
            assert result.a2_squared == want_a2
            scale = SIGMA_SCALE[tag]
            # displayed: multiplier * sigma * a3 = right side; with
            # sigma_tilde = scale * sigma the left side is just
            # (multiplier/scale) * sigma_tilde * a3.
            mult = {"PP": 2, "PM": 2, "PL": 1, "MM": 2, "ML": 1, "LL": 2}[tag]
            lhs = Fraction(mult, scale) * result.sigma_tilde * result.a3
            want_a3 = display_scaled_a3(tag, pair, sp.c1, sp.c2, sp.b2)
            if tag == "LL" and pair.psi.B2 != pair.psi.B1 and sp.c1:
                assert lhs != want_a3  # displayed last term has flipped sign
            else:
                assert lhs == want_a3

    def test_ml_display_variant_differs(self, rng):
        # The ML derivation display carries an unhalved |B2-B1| factor; the
        # statement (and the generic route) halve it.
        pair = PairSpec(
            ClassSpec("M", Fraction(1, 2)),
            MindaTarget([2, 1]),
            ClassSpec("L", Fraction(1, 4)),
            MindaTarget([2, 2]),
        )
        sp = SchwarzParams(QComplex(1), QComplex(1), QComplex(1))
        result = eliminate(pair, sp)
        a = pair.class_f.param
        b = pair.class_g.param
        poly = b * b - 11 * b + 16
        unhalved = display_scaled_a3("ML", pair, sp.c1, sp.c2, sp.b2) + (
            sp.c1 * sp.c1 / 4 * (poly * (pair.phi.B2 - pair.phi.B1) / 2)
        )
        assert result.sigma_tilde * result.a3 != unhalved


class TestSolveForward:
    def test_trivial_transform(self):
        p = TruncatedSeries.one(order=6)
        a2, a3 = solve_forward(ClassSpec("P", 0), CARA, p)
        assert a2 == QComplex(0) and a3 == QComplex(0)

    def test_koebe_coefficients(self):
        p = caratheodory_kernel(1)
        a2, a3 = solve_forward(ClassSpec("P", 0), CARA, p)
        assert (a2, a3) == (QComplex(2), QComplex(3))
        # cross-check: the functional of the solution reproduces the target
        series = functional(ClassSpec("P", 0), SchlichtCoeffs([a2, a3]), order=4)
        want = subordinate_compose(CARA, p.truncated(4))
        assert series.coeffs[1] == want.coeffs[1]
        assert series.coeffs[2] == want.coeffs[2]

    def test_roundtrip_against_series_engine(self, rng):
        for tag in THEOREM_TAGS:
            pair = rand_pair(rng, tag)
            c1, c2 = rand_qc(rng, 2, 3), rand_qc(rng, 2, 3)
            p = TruncatedSeries([QComplex(1), c1, c2], order=4)
            a2, a3 = solve_forward(pair.class_f, pair.phi, p)
            series = functional(pair.class_f, SchlichtCoeffs([a2, a3]), order=4)
            want = subordinate_compose(pair.phi, p)
            assert series.coeffs[1] == want.coeffs[1]
            assert series.coeffs[2] == want.coeffs[2]

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            solve_forward(ClassSpec("P", 0), CARA, TruncatedSeries.zero(order=4))

    @pytest.mark.parametrize("order", [0, 1])
    def test_short_transform_is_refused_by_order(self, order):
        p = TruncatedSeries.one(order=order)
        with pytest.raises(ValueError, match=rf"order at least 2, got order {order}$"):
            solve_forward(ClassSpec("P", 0), CARA, p)


class TestConsistency:
    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_exact_chain(self, tag, rng):
        checked = 0
        while checked < 25:
            pair = rand_pair(rng, tag)
            if elimination_denominator(pair) == 0 or sigma_tilde(pair) == 0:
                continue
            checked += 1
            sp = consistent_params(rng, pair)
            result = eliminate(pair, sp)
            tf = pair.triple_f()
            # forward equation recovered from the closed forms
            assert tf.q * result.a3 - tf.r * result.a2_squared == result.rhs_f
            # inverse-side residual exactly zero
            assert consistency_residual(pair, sp, result) == 0.0
            # closed forms agree with the forward solve
            p = TruncatedSeries([QComplex(1), sp.c1, sp.c2], order=4)
            a2, a3 = solve_forward(pair.class_f, pair.phi, p)
            assert result.a2_squared == a2 * a2
            assert result.a3 == a3
            # linkage agrees with the printed form
            assert linked_b1(pair, sp.c1) == -(
                pair.triple_g_inverse().p * pair.phi.B1
            ) / (tf.p * pair.psi.B1) * sp.c1

    def test_float_mode_residual(self):
        rng = random.Random(11)
        pair = theorem_pair(
            "PM", Fraction(1, 4), Fraction(1, 2), MindaTarget([2, 1]), MindaTarget([1, 2])
        )
        for _ in range(50):
            c1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            c2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            b2 = implied_b2(pair, c1, c2)
            sp = SchwarzParams(c1, c2, b2)
            result = eliminate(pair, sp)
            assert consistency_residual(pair, sp, result) < 1e-12

    def test_degenerate_raises(self):
        pair = theorem_pair("PP", 0, 0, MindaTarget([1, 2]), MindaTarget([1, 2]))
        result = eliminate(pair, SchwarzParams(0, 0, 0))
        with pytest.raises(ValueError):
            consistency_residual(pair, SchwarzParams(0, 0, 0), result)


class TestClosedFormsKernel:
    @staticmethod
    def exact_points(rng, count):
        return [
            (rand_qc(rng, 1, 2), rand_qc(rng, 1, 2), rand_qc(rng, 1, 2))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_towers_agree(self, tag, rng):
        for _ in range(10):
            pair = rand_pair(rng, tag)
            points = self.exact_points(rng, 12)
            exact = [closed_forms(pair, *point) for point in points]
            scalar = [
                closed_forms(pair, *(complex(v) for v in point))
                for point in points
            ]
            arrays = [np.array([complex(p[i]) for p in points]) for i in range(3)]
            grid = closed_forms(pair, *arrays)
            for field in range(4):
                if exact[0][field] is None:
                    assert grid[field] is None
                    assert all(forms[field] is None for forms in scalar)
                    continue
                assert grid[field].dtype == np.complex128
                want = np.array([complex(forms[field]) for forms in exact])
                got = np.array([forms[field] for forms in scalar])
                assert isinstance(got[0], complex)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(grid[field], got, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_matches_eliminate_and_linkage(self, tag, rng):
        for _ in range(10):
            pair = rand_pair(rng, tag)
            c1, c2, b2 = self.exact_points(rng, 1)[0]
            forms = closed_forms(pair, c1, c2, b2)
            result = eliminate(pair, SchwarzParams(c1, c2, b2))
            assert (forms.x, forms.y) == (result.rhs_f, result.rhs_g)
            assert forms.a2_squared == result.a2_squared
            assert forms.a3 == result.a3
            # An explicit b1 replaces the linkage value in Y only.
            b1 = linked_b1(pair, c1)
            assert closed_forms(pair, c1, c2, b2, b1=b1) == forms
            other = closed_forms(pair, c1, c2, b2, b1=b1 + 1)
            assert other.x == forms.x and other.a2_squared == forms.a2_squared
            assert other.y != forms.y or pair.psi.B2 == pair.psi.B1

    def test_broadcast_grid_shape(self):
        pair = theorem_pair("LL", Fraction(1, 2), Fraction(1, 3), CARA, CARA)
        ring = 2 * np.exp(1j * np.linspace(0, 2 * np.pi, 5, endpoint=False))
        forms = closed_forms(
            pair, ring[:, None, None], ring[None, :, None], ring[None, None, :]
        )
        assert forms.a3.shape == (5, 5, 5)
        assert forms.a2_squared.shape == (1, 5, 5)
        assert forms.a3.dtype == np.complex128

    def test_cached_constants_leave_identity_alone(self, rng):
        for tag in THEOREM_TAGS:
            pair = rand_pair(rng, tag)
            twin = PairSpec(pair.class_f, pair.phi, pair.class_g, pair.psi)
            before = repr(pair)
            closed_forms(pair, QComplex(1), QComplex(1), QComplex(1))
            closed_forms(pair, 1j, 1j, 1j)
            assert "exact_constants" in vars(pair)
            assert "float_constants" in vars(pair)
            assert pair == twin and hash(pair) == hash(twin)
            assert repr(pair) == before == (
                f"PairSpec(class_f={pair.class_f!r}, phi={pair.phi!r}, "
                f"class_g={pair.class_g!r}, psi={pair.psi!r})"
            )
            assert pair.swapped() == twin.swapped()
            assert pair.swapped().swapped() == twin

    def test_accessors_stay_plain_methods(self):
        for name in ("triple_f", "triple_g_inverse", "swapped"):
            assert callable(PairSpec.__dict__[name])


# ----------------------------------------------------------------------
# every field of the pair's constants against the Fraction oracle

# Parameters in [0, 1] with denominators up to 12, sevenths and elevenths
# among them; targets with negative second coefficients.
_PARAM = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d).map(lambda n: Fraction(n, d)))
_FIRST = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)
_SECOND = st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestConstantsOracle:
    @settings(max_examples=200, deadline=None)
    @given(tag=st.sampled_from(THEOREM_TAGS), a=_PARAM, b=_PARAM,
           B1=_FIRST, B2=_SECOND, D1=_FIRST, D2=_SECOND)
    @example(tag="PP", a=Fraction(0), b=Fraction(0), B1=Fraction(1), B2=Fraction(2),
             D1=Fraction(1), D2=Fraction(2))
    @example(tag="LL", a=Fraction(3, 7), b=Fraction(10, 11), B1=Fraction(5, 12),
             B2=Fraction(-7, 11), D1=Fraction(2, 7), D2=Fraction(-3))
    def test_every_field(self, tag, a, b, B1, B2, D1, D2):
        pair = theorem_pair(tag, a, b, MindaTarget([B1, B2]), MindaTarget([D1, D2]))
        _, want = constants_reference(tag, a, b, B1, B2, D1, D2)
        for field in ClosedFormConstants._fields:
            exact = getattr(pair.exact_constants, field)
            assert exact == want[field] and type(exact) is type(want[field]), field
            value = getattr(pair.float_constants, field)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(value) == repr(None if exact is None else float(exact)), field

    def test_degenerate_pp_has_no_a2_constants(self):
        # PP(0, 0) with B = D = (1, 2), the first example above: DEN vanishes
        # and sigma_tilde does not.
        target = MindaTarget([1, 2])
        pair = theorem_pair("PP", 0, 0, target, target)
        assert pair.exact_constants.denominator == 0
        assert pair.exact_constants.g2 is pair.exact_constants.d2 is None
        assert pair.float_constants.g2 is pair.float_constants.d2 is None
        assert pair.exact_constants.gx is not None
