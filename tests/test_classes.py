from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bibounds import (
    DEFAULT_ORDER,
    EXACT,
    FLOAT,
    ClassSpec,
    ClassTriple,
    MindaTarget,
    QComplex,
    SchlichtCoeffs,
    SchwarzParams,
    TruncatedSeries,
    agree,
    caratheodory_kernel,
    expansion_f,
    expansion_g,
    functional,
    inverse_triple,
    invert_schlicht,
    sample_caratheodory,
    subordinate_compose,
    target_preset,
    triple,
)
from bibounds.classes import (MAX_DECIMAL_EXPONENT, LiteralTooLargeError, _within_disk,
                              brief, integer, rational)
from bibounds.series import coerce_scalar, mode_of
from conftest import BAD_SEEDS, rand_qc
from oracles import poly_pow_unit


def frac_grid(stop, step):
    out = []
    value = Fraction(0)
    while value <= stop:
        out.append(value)
        value += step
    return out


class TestValidation:
    def test_target_needs_positive_b1(self):
        with pytest.raises(ValueError):
            MindaTarget([0, 2])
        with pytest.raises(ValueError):
            MindaTarget([-1])
        with pytest.raises(ValueError):
            MindaTarget([])

    def test_target_rejects_complex(self):
        with pytest.raises(TypeError):
            MindaTarget([2, 1j])
        with pytest.raises(TypeError):
            MindaTarget([QComplex(2, 1)])

    @pytest.mark.parametrize("text", ["22", "1/2", ""])
    def test_target_refuses_a_str(self, text):
        # A str would otherwise be read one character at a time.
        with pytest.raises(TypeError, match="^target coefficients must be a "
                                            "sequence of numbers, not a str$"):
            MindaTarget(text)

    def test_target_reads_text_coefficients_one_by_one(self):
        assert MindaTarget(["1/2", "2"]).coefficients == (Fraction(1, 2), 2)

    def test_target_tail_defaults_to_zero(self):
        t = MindaTarget([2])
        assert t.B2 == 0
        assert t.coefficient(5) == 0

    def test_class_spec_ranges(self):
        ClassSpec("P", 0)
        ClassSpec("M", Fraction(7, 2))
        ClassSpec("L", 1)
        with pytest.raises(ValueError):
            ClassSpec("P", -1)
        with pytest.raises(ValueError):
            ClassSpec("L", Fraction(5, 4))
        with pytest.raises(ValueError):
            ClassSpec("X", 0)

    def test_schwarz_params_disk(self):
        SchwarzParams(2, 2, 2)
        SchwarzParams(1.99j, 0.0, -2.0)
        with pytest.raises(ValueError):
            SchwarzParams(3, 0, 0)
        with pytest.raises(ValueError):
            SchwarzParams(0, 0, QComplex(2, 1))

    def test_schwarz_params_modes(self):
        assert SchwarzParams(1, 1, 1).mode == EXACT
        assert SchwarzParams(1.0, 1, 1).mode == FLOAT

    @pytest.mark.parametrize("values, mode", [
        ((1, 0, -2), EXACT),
        ((True, False, True), EXACT),
        ((Fraction(1, 2), Fraction(-3, 2), 0), EXACT),
        ((QComplex(1, 1), QComplex(0), Fraction(1, 3)), EXACT),
        ((0.5, 0.5, 0.5), FLOAT),
        ((1j, 0j, 1 + 0j), FLOAT),
        ((np.float64(0.5), np.float64(1), np.float64(-2)), FLOAT),
        ((1, 0.5, 0), FLOAT),
        ((QComplex(1), 1j, Fraction(1, 2)), FLOAT),
    ])
    def test_mode_of_decides_schwarz_params_mode(self, values, mode):
        assert mode_of(*values) == mode
        assert SchwarzParams(*values).mode == mode

    def test_mode_of_numpy_integer_is_float(self):
        # Not an int subclass, so it never enters the exact tower.
        assert mode_of(np.int64(1)) == FLOAT
        assert mode_of(1, np.int64(1)) == FLOAT

    @pytest.mark.parametrize("value", [np.int64(1), np.float64(1)])
    def test_numpy_scalars_build_a_float_point(self, value):
        params = SchwarzParams(value, 0, 0)
        assert params.mode == FLOAT
        assert params == SchwarzParams(1.0, 0, 0)
        assert type(params.c1) is complex
        assert coerce_scalar(value, FLOAT) == 1 + 0j

    def test_float_tower_rejects_non_numbers(self):
        for value in ("1", Decimal(1), None):
            with pytest.raises(TypeError, match="cannot build a float scalar"):
                coerce_scalar(value, FLOAT)

    def test_within_disk_edges(self):
        assert _within_disk(QComplex(2))
        assert _within_disk(QComplex(0, -2))
        assert _within_disk(Fraction(-2))
        assert not _within_disk(QComplex(2, Fraction(1, 10**30)))
        assert not _within_disk(Fraction(2 * 10**30 + 1, 10**30))
        assert _within_disk(2 + 1e-10)
        assert _within_disk(complex(0, -2 - 1e-10))
        assert not _within_disk(2 + 1e-8)
        assert not _within_disk(complex(0, 2 + 1e-8))


class TestTriples:
    def test_printed_p_expansion_at_zero(self):
        assert triple(ClassSpec("P", 0)) == ClassTriple(1, 2, 1)

    def test_convexity_coincidence(self):
        # M at 1 and L at 0 are both the convexity functional.
        assert triple(ClassSpec("M", 1)) == ClassTriple(2, 6, 4)
        assert triple(ClassSpec("L", 0)) == ClassTriple(2, 6, 4)

    def test_starlike_coincidence(self):
        assert triple(ClassSpec("L", 1)) == triple(ClassSpec("P", 0))

    def test_positivity_on_legal_ranges(self):
        for kind, params in (
            ("P", frac_grid(Fraction(2), Fraction(1, 4))),
            ("M", frac_grid(Fraction(2), Fraction(1, 4))),
            ("L", frac_grid(Fraction(1), Fraction(1, 8))),
        ):
            for param in params:
                t = triple(ClassSpec(kind, param))
                assert t.p > 0 and t.q > 0

    def test_inverse_triple_printed_values(self):
        # P and M side inverse expansions at parameter 0 share (1, 2, 3).
        assert inverse_triple(ClassTriple(1, 2, 1)) == ClassTriple(1, 2, 3)

    def test_inverse_triple_involution(self, rng):
        for _ in range(20):
            t = ClassTriple(
                Fraction(rng.randint(1, 9), 3),
                Fraction(rng.randint(1, 9), 3),
                Fraction(rng.randint(-9, 9), 3),
            )
            assert inverse_triple(inverse_triple(t)) == t


class TestExpansions:
    def test_expansion_f_trivial(self):
        assert expansion_f(ClassTriple(1, 2, 1), 0, 0) == (0, 0)

    def test_expansion_f_values(self):
        e1, e2 = expansion_f(ClassTriple(2, 6, 4), QComplex(1), QComplex(1))
        assert (e1, e2) == (QComplex(2), QComplex(2))

    def test_expansion_g_values(self):
        e1, e2 = expansion_g(ClassTriple(1, 2, 1), QComplex(1), QComplex(0))
        assert (e1, e2) == (QComplex(-1), QComplex(3))

    def test_expansion_g_through_inversion(self, rng):
        for _ in range(30):
            t = ClassTriple(
                Fraction(rng.randint(1, 8), 2),
                Fraction(rng.randint(1, 8), 2),
                Fraction(rng.randint(-8, 8), 2),
            )
            a2, a3 = rand_qc(rng), rand_qc(rng)
            assert expansion_g(t, a2, a3) == expansion_f(
                t, *invert_schlicht(a2, a3)
            )

    def test_invert_schlicht_examples(self):
        assert invert_schlicht(0, 0) == (0, 0)
        assert invert_schlicht(QComplex(1), QComplex(1)) == (QComplex(-1), QComplex(1))

    def test_invert_schlicht_involution(self, rng):
        for _ in range(20):
            a2, a3 = rand_qc(rng), rand_qc(rng)
            assert invert_schlicht(*invert_schlicht(a2, a3)) == (a2, a3)


ALL_SPECS = (
    [ClassSpec("P", p) for p in frac_grid(Fraction(2), Fraction(1, 2))]
    + [ClassSpec("M", p) for p in frac_grid(Fraction(2), Fraction(1, 2))]
    + [ClassSpec("L", p) for p in frac_grid(Fraction(1), Fraction(1, 4))]
)


class TestFunctional:
    def test_identity_function_fixed_point(self):
        for spec in ALL_SPECS:
            series = functional(spec, SchlichtCoeffs([]))
            assert series.coeffs[0] == QComplex(1)
            assert series.order == DEFAULT_ORDER - 1
            assert all(not c for c in series.coeffs[1:])

    def test_printed_p_expansion(self, rng):
        # 1 + (1+2a) a2 z + (2(1+3a) a3 - (1+2a) a2^2) z^2 + ...
        a = Fraction(3, 4)
        a2, a3 = rand_qc(rng), rand_qc(rng)
        series = functional(ClassSpec("P", a), SchlichtCoeffs([a2, a3]))
        assert series.coeffs[1] == (1 + 2 * a) * a2
        assert series.coeffs[2] == 2 * (1 + 3 * a) * a3 - (1 + 2 * a) * a2 * a2

    def test_order2_matches_triples_on_grid(self):
        # (a2, a3) on the [-2, 2] grid, step 1/2, exact mode.
        grid = [Fraction(k, 2) for k in range(-4, 5)]
        for spec in ALL_SPECS[:: 3]:
            t = triple(spec)
            for a2 in grid:
                for a3 in grid:
                    series = functional(spec, SchlichtCoeffs([a2, a3]), order=4)
                    e1, e2 = expansion_f(t, a2, a3)
                    assert series.coeffs[1] == QComplex(e1)
                    assert series.coeffs[2] == QComplex(e2)

    def test_order2_matches_triples_fine_grid_one_spec(self):
        # full step-1/4 grid for one representative of each kind
        grid = [Fraction(k, 4) for k in range(-8, 9)]
        for spec in (
            ClassSpec("P", Fraction(1, 2)),
            ClassSpec("M", Fraction(3, 4)),
            ClassSpec("L", Fraction(1, 4)),
        ):
            t = triple(spec)
            for a2 in grid:
                for a3 in grid:
                    series = functional(spec, SchlichtCoeffs([a2, a3]), order=4)
                    e1, e2 = expansion_f(t, a2, a3)
                    assert series.coeffs[1] == QComplex(e1)
                    assert series.coeffs[2] == QComplex(e2)

    def test_three_starlike_routes_agree(self, rng):
        for _ in range(5):
            f = SchlichtCoeffs([rand_qc(rng) for _ in range(5)])
            routes = [
                functional(ClassSpec("L", 1), f),
                functional(ClassSpec("M", 0), f),
                functional(ClassSpec("P", 0), f),
            ]
            assert routes[0].agrees_with(routes[1])
            assert routes[1].agrees_with(routes[2])

    def test_inverse_side_expansion_matches_reverted_series(self, rng):
        for spec in (ClassSpec("P", Fraction(1, 2)), ClassSpec("L", Fraction(1, 4))):
            a2, a3 = rand_qc(rng), rand_qc(rng)
            f_series = TruncatedSeries(
                [QComplex(0), QComplex(1), a2, a3], order=8
            )
            g_series = f_series.revert()
            g = SchlichtCoeffs([g_series.coeffs[2], g_series.coeffs[3]])
            series = functional(spec, g)
            e1, e2 = expansion_g(triple(spec), a2, a3)
            assert series.coeffs[1] == e1
            assert series.coeffs[2] == e2

    def test_float_mode(self):
        series = functional(ClassSpec("L", Fraction(1, 3)), SchlichtCoeffs([0.5, 0.25]))
        assert series.mode == FLOAT
        t = triple(ClassSpec("L", Fraction(1, 3)))
        e1, e2 = expansion_f(t, 0.5, 0.25)
        assert abs(series.coeffs[1] - complex(e1)) < 1e-12
        assert abs(series.coeffs[2] - complex(e2)) < 1e-12

    @pytest.mark.parametrize("values, mode", [
        ([], EXACT), ([1, Fraction(1, 2)], EXACT), ([QComplex(1, 1)], EXACT),
        ([0.5, Fraction(1, 4)], FLOAT), ([Fraction(1, 2), 1j], FLOAT),
    ])
    def test_tower_is_read_from_the_values(self, values, mode):
        f = SchlichtCoeffs(values)
        assert f.series(4).mode == mode
        assert functional(ClassSpec("M", 1), f, order=4).mode == mode

    def test_mode_keyword_is_refused(self):
        f = SchlichtCoeffs([Fraction(1, 2), 0])
        with pytest.raises(TypeError):
            functional(ClassSpec("P", 0), f, mode=EXACT)
        with pytest.raises(TypeError):
            f.series(4, mode=EXACT)
        with pytest.raises(TypeError):
            caratheodory_kernel(1, mode=EXACT)


class TestSubordination:
    def test_constant_transform(self):
        target = MindaTarget([2, 2])
        p = TruncatedSeries.one(order=6)
        result = subordinate_compose(target, p)
        assert result.agrees_with(TruncatedSeries.one(order=6))

    def test_quadratic_closed_form(self, rng):
        for _ in range(20):
            target = MindaTarget(
                [Fraction(rng.randint(1, 8), 2), Fraction(rng.randint(-8, 8), 2)]
            )
            c1, c2 = rand_qc(rng), rand_qc(rng)
            p = TruncatedSeries([QComplex(1), c1, c2], order=6)
            result = subordinate_compose(target, p)
            B1, B2 = target.B1, target.B2
            assert result.coeffs[1] == B1 * c1 / 2
            assert result.coeffs[2] == B1 * (c2 - c1 * c1 / 2) / 2 + B2 * c1 * c1 / 4

    def test_caratheodory_fixed_point(self):
        target = target_preset("caratheodory")
        p = caratheodory_kernel(1)
        assert subordinate_compose(target, p).agrees_with(p)

    def test_quadratic_closed_form_on_sampled_prefixes(self, rng):
        # same closed form on genuine positive-real-part samples
        for seed in range(10):
            target = MindaTarget(
                [Fraction(rng.randint(1, 8), 2), Fraction(rng.randint(-8, 8), 2)]
            )
            p = sample_caratheodory(seed, m=2, order=6, mode=EXACT)
            c1, c2 = p.coeffs[1], p.coeffs[2]
            result = subordinate_compose(target, p)
            B1, B2 = target.B1, target.B2
            assert result.coeffs[1] == B1 * c1 / 2
            assert result.coeffs[2] == B1 * (c2 - c1 * c1 / 2) / 2 + B2 * c1 * c1 / 4

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            subordinate_compose(MindaTarget([2]), TruncatedSeries.zero(order=4))

    def test_float_samples_off_unit_constant_by_roundoff_compose(self):
        # A float sample's constant term is 1 only up to roundoff; u is formed
        # from p minus that term, so it still vanishes at 0.
        target = target_preset("caratheodory")
        B1, B2 = target.B1, target.B2
        for seed in range(500):
            p = sample_caratheodory(seed, 3)
            c1, c2 = p.coeffs[1], p.coeffs[2]
            composed = subordinate_compose(target, p)
            assert agree(composed.coeffs[1], B1 * c1 / 2), seed
            assert agree(composed.coeffs[2],
                         B1 * (c2 - c1 * c1 / 2) / 2 + B2 * c1 * c1 / 4), seed


class TestCaratheodorySampling:
    def test_moebius_kernels(self):
        plus = caratheodory_kernel(1, order=4)
        minus = caratheodory_kernel(-1, order=4)
        assert [c.re for c in plus.coeffs] == [1, 2, 2, 2, 2]
        assert [c.re for c in minus.coeffs] == [1, -2, 2, -2, 2]

    def test_kernel_tower_is_read_from_x(self):
        assert caratheodory_kernel(QComplex(0, 1), order=2).coeffs == (1, QComplex(0, 2), -2)
        assert caratheodory_kernel(1j, order=2) == TruncatedSeries([1, 2j, -2], mode=FLOAT)

    def test_requires_at_least_one_kernel(self):
        with pytest.raises(ValueError, match="^need at least one kernel$"):
            sample_caratheodory(0, 0)
        for m in (2.5, 1.0, True):
            with pytest.raises(TypeError) as info:
                sample_caratheodory(0, m)
            assert str(info.value) == f"kernel count must be an int, got {m!r}"

    def test_exact_samples_within_bound(self):
        for seed in range(200):
            p = sample_caratheodory(seed, m=1 + seed % 4, order=8, mode=EXACT)
            assert p.coeffs[0] == QComplex(1)
            for c in p.coeffs[1:]:
                assert c.abs2() <= 4

    def test_float_samples_within_bound(self):
        for seed in range(10_000):
            p = sample_caratheodory(seed, m=1 + seed % 3, order=6, mode=FLOAT)
            assert abs(p.coeffs[0] - 1) < 1e-12
            assert all(abs(c) <= 2 + 1e-9 for c in p.coeffs[1:])

    def test_deterministic(self):
        a = sample_caratheodory(42, 3)
        b = sample_caratheodory(42, 3)
        assert a == b

    @pytest.mark.parametrize("seed, error, message", BAD_SEEDS)
    def test_bad_seeds(self, seed, error, message):
        for mode in (EXACT, FLOAT):
            with pytest.raises(error) as info:
                sample_caratheodory(seed, 3, mode=mode)
            assert str(info.value) == message


class TestPresets:
    def test_caratheodory(self):
        t = target_preset("caratheodory", order=5)
        assert t.coefficients == (2, 2, 2, 2, 2)

    def test_order_preset(self):
        t = target_preset("order:1/4", order=4)
        assert t.coefficients == (Fraction(3, 2),) * 4
        with pytest.raises(ValueError):
            target_preset("order:1")

    def test_strong_preset_matches_power_oracle(self):
        gamma = Fraction(1, 2)
        t = target_preset("strong:1/2", order=6)
        assert t.B1 == 2 * gamma
        assert t.B2 == 2 * gamma * gamma
        base = [QComplex(1)] + [QComplex(2)] * 6
        want = poly_pow_unit(base, QComplex(gamma), 6)
        assert list(t.coefficients) == [want[n].re for n in range(1, 7)]

    def test_strong_range(self):
        with pytest.raises(ValueError):
            target_preset("strong:0")
        with pytest.raises(ValueError):
            target_preset("strong:3/2")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            target_preset("bogus")


# The library builders that take a truncation order, each called with one.
ORDER_BUILDERS = {
    "functional": lambda order: functional(ClassSpec("P", 0), SchlichtCoeffs([1]),
                                           order=order),
    "caratheodory_kernel": lambda order: caratheodory_kernel(1, order=order),
    "target_preset caratheodory": lambda order: target_preset("caratheodory", order=order),
    "target_preset strong": lambda order: target_preset("strong:1/2", order=order),
    "MindaTarget.series": lambda order: MindaTarget([2]).series(order),
    "SchlichtCoeffs.series": lambda order: SchlichtCoeffs([1]).series(order),
}


class TestOrderRule:
    @pytest.mark.parametrize("builder", sorted(ORDER_BUILDERS))
    @pytest.mark.parametrize("order, error, message", [
        (True, TypeError, "^order must be an int, got True$"),
        (2.0, TypeError, "^order must be an int, got 2.0$"),
        (2.5, TypeError, "^order must be an int, got 2.5$"),
        (-1, ValueError, "^order must be nonnegative$"),
        (-3, ValueError, "^order must be nonnegative$"),
    ])
    def test_a_bad_order_is_refused_by_name(self, builder, order, error, message):
        with pytest.raises(error, match=message):
            ORDER_BUILDERS[builder](order)

    @pytest.mark.parametrize("builder, message", [
        ("functional", "^functional needs order at least 1, got 0$"),
        ("target_preset caratheodory", "^a target preset needs order at least 1, got 0$"),
        ("target_preset strong", "^a target preset needs order at least 1, got 0$"),
    ])
    def test_order_zero_is_refused_where_it_leaves_nothing(self, builder, message):
        with pytest.raises(ValueError, match=message):
            ORDER_BUILDERS[builder](0)

    def test_the_order_is_checked_before_the_preset_key(self):
        with pytest.raises(TypeError, match="^order must be an int, got 2.0$"):
            target_preset("bogus", order=2.0)

    @pytest.mark.parametrize("builder", ["caratheodory_kernel", "MindaTarget.series",
                                         "SchlichtCoeffs.series"])
    def test_order_zero_is_the_constant_term(self, builder):
        assert ORDER_BUILDERS[builder](0).order == 0


class TestRational:
    def test_exponent_limit_is_inclusive(self):
        limit = MAX_DECIMAL_EXPONENT
        assert rational(f"1e{limit}") == 10**limit
        assert rational(f"1e-{limit}") == Fraction(1, 10**limit)
        assert rational(" 2.5E+0_3 ") == 2500

    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "-3.5E+4301", "1e0_4301",
                                      "1e99999999999999999999"])
    def test_exponent_past_the_limit_is_rejected_quoting_the_text(self, text):
        with pytest.raises(ValueError, match="decimal exponent of") as info:
            rational(text)
        assert repr(text) in str(info.value)

    def test_digit_limit_is_inclusive(self):
        limit = MAX_DECIMAL_EXPONENT
        assert rational("7" * limit) == int("7" * limit)
        assert rational("1/" + "3" * (limit - 2)) == Fraction(1, int("3" * (limit - 2)))
        assert integer("-" + "7" * limit) == -int("7" * limit)

    @pytest.mark.parametrize("parse", [rational, integer])
    @pytest.mark.parametrize("text", ["1" * 4301, "-" + "9" * 5000, "1_" * 4301, "1/" + "3" * 4300])
    def test_too_many_digits_are_rejected_quoting_the_text_shortened(self, parse, text):
        with pytest.raises(LiteralTooLargeError, match="digit count of") as info:
            parse(text)
        message = str(info.value)
        assert len(message) < 120
        assert repr(text[:28] + "..." + text[-28:]) in message

    def test_other_forms_keep_their_messages(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            rational("1/0")
        with pytest.raises(ValueError, match="Invalid literal"):
            rational("1/1e4301")

    def test_brief(self):
        assert brief(Fraction(-3, 2)) == "-3/2"
        assert brief(7) == "7"
        assert brief(10**300) == "1e+300"
        assert brief(Fraction(-1, 10**300)) == "-1e-300"
        assert brief(Fraction(3 * 10**4300, 7)) == "4.28571e+4299"

    def test_range_checks_format_huge_values_briefly(self):
        with pytest.raises(ValueError, match=r"got 1e\+300$"):
            ClassSpec("L", rational("1e300"))
        with pytest.raises(ValueError, match=r"got -1e\+4300$"):
            MindaTarget([rational("-1e4300")])
