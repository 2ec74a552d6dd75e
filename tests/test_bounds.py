import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibounds import (
    ClassSpec,
    ClassTriple,
    MindaTarget,
    QComplex,
    audit,
    derived_sigma,
    generic_a2_bound,
    generic_a3_bound,
    printed_a2_bound,
    printed_a3_bound,
    printed_sigma,
    reduction_table,
    report,
    sigma_tilde,
    target_preset,
    theorem_pair,
    theorem_tag,
)
from bibounds.bounds import (
    A3_MULTIPLIER,
    SIGMA_SCALE,
    THEOREM_TAGS,
    _generic_a2_sq,
    _generic_a3_value,
    _mismatch,
    _printed_a2_sq,
    _printed_a3_value,
    pm_display_variant_a2_bound,
)
from bibounds.classes import LiteralTooLargeError
from oracles import (
    compare_reference,
    generic_reference,
    statement_a2_brackets,
    statement_a2_sq,
    statement_a3_value,
    statement_pm_display_brackets,
    statement_sigma,
)

CARA = target_preset("caratheodory")


def frac_grid(stop, step):
    out = []
    value = Fraction(0)
    while value <= stop:
        out.append(value)
        value += step
    return out


def rand_target(rng):
    return MindaTarget(
        [Fraction(rng.randint(1, 12), 4), Fraction(rng.randint(-12, 12), 4)]
    )


# ----------------------------------------------------------------------
# independent symbolic oracle for the sigma polynomials

_A, _B = sympy.symbols("a b")


def _sym_triple(kind, t):
    if kind == "P":
        return (1 + 2 * t, 2 * (1 + 3 * t), 1 + 2 * t)
    if kind == "M":
        return (1 + t, 2 * (1 + 2 * t), 1 + 3 * t)
    return (2 - t, 2 * (3 - 2 * t), sympy.Rational(1, 2) * (8 - 5 * t - t**2))


def symbolic_sigma_tilde(tag):
    _, qf, rf = _sym_triple(tag[0], _A)
    _, qg, rg = _sym_triple(tag[1], _B)
    return sympy.expand(qf * (2 * qg - rg) - qg * rf)


def sigma_tilde_box(tag):
    """sigma_tilde's coefficients over its full degree box, i-major.

    An L side's parameter a in [0, 1) is x/(1+x) with x >= 0; the
    polynomial is multiplied by (1+x)^deg, deg its degree in a.  The
    coefficient of x^deg is then the value at a = 1, so positive box
    coefficients prove sigma_tilde > 0 on the closed ranges.
    """
    poly = symbolic_sigma_tilde(tag)
    degrees = [sympy.degree(poly, v) for v in (_A, _B)]
    for kind, v, deg in zip(tag, (_A, _B), degrees):
        if kind == "L":
            poly = sympy.expand(sympy.cancel(poly.subs(v, v / (1 + v)) * (1 + v) ** deg))
    p = sympy.Poly(poly, _A, _B)
    return [p.coeff_monomial(_A**i * _B**j)
            for i in range(degrees[0] + 1) for j in range(degrees[1] + 1)]


class TestSigma:
    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_sigma_tilde_is_positive_on_the_valid_region(self, tag):
        # alpha, beta >= 0 for P and M, in [0, 1] for L: no valid pair has
        # sigma_tilde = 0, so DEN = 0 is the one degenerate case.
        box = sigma_tilde_box(tag)
        assert all(c > 0 for c in box), box
        known = {"PP": [4, 14, 14, 48], "PL": [10, 13, 4, 36, 47, 14],
                 "LL": [24, 31, 10, 31, 40, 13, 10, 13, 4]}
        assert box == known.get(tag, box)

    def test_printed_values(self):
        assert printed_sigma("PP", 0, 0) == 2
        assert printed_sigma("MM", 0, 0) == 2
        assert printed_sigma("LL", 1, 1) == -20

    @pytest.mark.parametrize("tag", ["PP", "PM", "PL", "MM", "ML"])
    def test_scaled_printed_equals_determinant(self, tag):
        for a in frac_grid(Fraction(1), Fraction(1, 8)):
            for b in frac_grid(Fraction(1), Fraction(1, 8)):
                pair = theorem_pair(tag, a, b, CARA, CARA)
                assert printed_sigma(tag, a, b) * SIGMA_SCALE[tag] == sigma_tilde(pair)

    def test_ll_gap_is_24ab(self):
        # independent symbolic expansion: determinant minus printed = 24ab
        diff = sympy.expand(
            symbolic_sigma_tilde("LL")
            - (
                24 + 3 * _A**2 + 3 * _B**2 - 17 * _A - 17 * _B
                - 2 * _B * _A**2 - 2 * _A * _B**2 - 12 * _A * _B
            )
        )
        assert diff == 24 * _A * _B
        for a in frac_grid(Fraction(1), Fraction(1, 4)):
            for b in frac_grid(Fraction(1), Fraction(1, 4)):
                pair = theorem_pair("LL", a, b, CARA, CARA)
                assert sigma_tilde(pair) - printed_sigma("LL", a, b) == 24 * a * b

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_report_sigma_matches_derived_sigma(self, tag):
        pair = theorem_pair(tag.lower(), 0, 0, CARA, CARA)
        assert pair.class_f.kind + pair.class_g.kind == theorem_tag(tag) == tag
        target = MindaTarget([3, 1])
        for a in frac_grid(Fraction(1), Fraction(1, 4)):
            for b in frac_grid(Fraction(1), Fraction(1, 4)):
                rep = report(tag, a, b, target, CARA)
                assert rep.sigma_derived == float(derived_sigma(tag, a, b))

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_determinant_matches_symbolic_oracle(self, tag):
        # derived_sigma reads unit targets; sigma_tilde reads none, so skewed
        # targets on the two sides give the same determinant.
        expected = symbolic_sigma_tilde(tag)
        rng = random.Random(5)
        phi = MindaTarget([Fraction(5, 12), Fraction(-7, 11)])
        psi = MindaTarget([Fraction(2, 7), -3])
        for _ in range(10):
            a = Fraction(rng.randint(0, 8), 8)
            b = Fraction(rng.randint(0, 8), 8)
            want = Fraction(str(expected.subs({_A: sympy.Rational(a), _B: sympy.Rational(b)})))
            for pair in (theorem_pair(tag, a, b, CARA, CARA), theorem_pair(tag, a, b, phi, psi)):
                assert sigma_tilde(pair) == want
                assert derived_sigma(tag, a, b) * SIGMA_SCALE[tag] == sigma_tilde(pair)


class TestPrintedBounds:
    def test_canonical_a2(self):
        got = printed_a2_bound("PP", 0, 0, 2, 2, 2, 2)
        assert got == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_degenerate_bracket(self):
        assert printed_a2_bound("PP", 0, 0, 1, 2, 1, 2) is None

    def test_strong_target_closed_form(self):
        # PP at alpha=beta=0 with B = D = (2g, 2g^2) evaluates to
        # 2g/sqrt(1+g); fixed by substituting into the stated formula.
        for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            got = printed_a2_bound(
                "PP", 0, 0, 2 * gamma, 2 * gamma**2, 2 * gamma, 2 * gamma**2
            )
            want = 2 * float(gamma) / math.sqrt(1 + float(gamma))
            assert got == pytest.approx(want, rel=1e-14)

    def test_canonical_a3(self):
        assert printed_a3_bound("PP", 0, 0, 2, 2, 2, 2) == pytest.approx(2.0)
        assert printed_a3_bound("PM", 0, 0, 2, 2, 2, 2) == pytest.approx(2.0)

    def test_difference_terms_vanish(self):
        # B2 = B1 and D2 = D1 kill the modulus-difference terms.
        for tag in THEOREM_TAGS:
            plain = _printed_a3_value(tag, Fraction(1, 4), Fraction(1, 2), 2, 2, 3, 3)
            manual = _printed_a3_value(tag, Fraction(1, 4), Fraction(1, 2), 2, 2, 3, 3)
            assert plain == manual

    def test_a3_degenerate_at_zero_sigma(self):
        # The printed LL sigma has no rational zero inside [0,1]^2, so the
        # degeneracy path is exercised at a rational zero of the polynomial
        # itself (the formula evaluators do not clamp parameters).
        assert printed_sigma("LL", 3, 0) == 0
        assert printed_a3_bound("LL", 3, 0, 2, 2, 2, 2) is None


class TestGenericBounds:
    def test_canonical_values(self):
        pair = theorem_pair("PP", 0, 0, CARA, CARA)
        assert generic_a2_bound(pair) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert generic_a3_bound(pair) == pytest.approx(2.0, abs=1e-15)

    def test_cross_pairing_consistency(self):
        # L at parameter 1 is the starlike functional, so LL at (1,1) must
        # reproduce the PP value at (0,0).
        ll = theorem_pair("LL", 1, 1, CARA, CARA)
        pp = theorem_pair("PP", 0, 0, CARA, CARA)
        assert generic_a2_bound(ll) == generic_a2_bound(pp)

    def test_swap_invariance(self):
        rng = random.Random(3)
        for tag in THEOREM_TAGS:
            for _ in range(10):
                a = Fraction(rng.randint(0, 8), 8)
                b = Fraction(rng.randint(0, 8), 8)
                pair = theorem_pair(tag, a, b, rand_target(rng), rand_target(rng))
                assert _generic_a2_sq(pair) == _generic_a2_sq(pair.swapped())

    def test_pl_a3_example(self):
        pair = theorem_pair("PL", 0, 0, CARA, CARA)
        assert generic_a3_bound(pair) == pytest.approx(1.8, abs=1e-15)
        assert printed_a3_bound("PL", 0, 0, 2, 2, 2, 2) == pytest.approx(1.8)

    def test_positive_when_not_degenerate(self):
        rng = random.Random(9)
        for tag in THEOREM_TAGS:
            for _ in range(20):
                a = Fraction(rng.randint(0, 8), 8)
                b = Fraction(rng.randint(0, 8), 8)
                pair = theorem_pair(tag, a, b, rand_target(rng), rand_target(rng))
                a2 = generic_a2_bound(pair)
                a3 = generic_a3_bound(pair)
                assert a2 is None or a2 > 0
                assert a3 is None or a3 > 0


class TestPrintedVsGeneric:
    @pytest.mark.parametrize("tag", ["PP", "PM", "PL", "MM", "ML"])
    def test_exact_agreement_random_targets(self, tag):
        rng = random.Random(f"targets:{tag}")
        for _ in range(60):
            a = Fraction(rng.randint(0, 20), 20)
            b = Fraction(rng.randint(0, 20), 20)
            phi = rand_target(rng)
            psi = rand_target(rng)
            pair = theorem_pair(tag, a, b, phi, psi)
            assert _printed_a2_sq(
                tag, a, b, phi.B1, phi.B2, psi.B1, psi.B2
            ) == _generic_a2_sq(pair)
            assert _printed_a3_value(
                tag, a, b, phi.B1, phi.B2, psi.B1, psi.B2
            ) == _generic_a3_value(pair)

    def test_monotone_in_strong_parameter(self):
        # calculus oracle: d/dt of 2t/sqrt(1+t) = (2+t)/(1+t)^(3/2) > 0,
        # so the PP bound on the strong-target family must increase.
        previous = 0.0
        for k in range(1, 21):
            t = Fraction(k, 20)
            value = printed_a2_bound("PP", 0, 0, 2 * t, 2 * t**2, 2 * t, 2 * t**2)
            assert value > previous
            previous = value


class TestAudit:
    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        # A nan tolerance would hide every mismatch: nan comparisons are false.
        with pytest.raises(ValueError):
            report("LL", 1, 1, CARA, CARA, rel_tol=tolerance)

    def test_zero_tolerance_accepted(self):
        assert report("PP", 0, 0, CARA, CARA, rel_tol=0).discrepancies == ()

    def test_pp_grid_clean(self):
        grid = frac_grid(Fraction(1), Fraction(1, 4))
        reports = audit("PP", grid, grid, [(CARA, CARA)])
        assert len(reports) == 25
        assert all(not rep.discrepancies for rep in reports)

    def test_ll_sigma_set_is_exactly_nonzero_products(self):
        grid = frac_grid(Fraction(1), Fraction(1, 4))
        reports = audit("LL", grid, grid, [(CARA, CARA)])
        for rep in reports:
            sigma_flags = [d for d in rep.discrepancies if d.field == "sigma"]
            expect = rep.alpha * rep.beta != 0
            assert bool(sigma_flags) == expect
            if rep.alpha == rep.beta == 1.0:
                assert sigma_flags[0].printed == -20.0
                assert sigma_flags[0].derived == 4.0

    def test_ll_a3_flag_tracks_second_coefficient(self):
        grid = frac_grid(Fraction(1), Fraction(1, 2))
        same = audit("LL", grid, grid, [(CARA, CARA)])
        assert all(
            not [d for d in rep.discrepancies if d.field in ("a2", "a3")]
            for rep in same
        )
        skew = audit("LL", grid, grid, [(CARA, MindaTarget([2, 1]))])
        for rep in skew:
            a3_flags = [d for d in rep.discrepancies if d.field == "a3"]
            assert a3_flags, (rep.alpha, rep.beta)
            a2_flags = [d for d in rep.discrepancies if d.field == "a2"]
            assert not a2_flags

    def test_single_point_grid(self):
        reports = audit("MM", [Fraction(0)], [Fraction(0)], [(CARA, CARA)])
        assert len(reports) == 1
        assert not reports[0].discrepancies

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            audit("PP", [], [Fraction(0)], [(CARA, CARA)])

    def test_pm_variant_note(self):
        rep = report("PM", Fraction(1, 2), Fraction(1, 2), CARA, MindaTarget([2, 1]))
        assert rep.notes
        assert not rep.discrepancies
        variant = pm_display_variant_a2_bound(
            Fraction(1, 2), Fraction(1, 2), 2, 2, 2, 1
        )
        assert variant != rep.a2_printed


SKEW = MindaTarget([2, 1])
UNEVEN = MindaTarget([Fraction(3, 2), Fraction(1, 3)])
_TARGET_SETS = {
    "equal": [(CARA, CARA)],
    "skewed": [(CARA, SKEW)],
    "two_pairs": [(CARA, SKEW), (target_preset("order:1/3"), CARA)],
}


def _sqrt(sq):
    return None if sq is None else math.sqrt(float(sq))


class TestAuditLoop:
    @pytest.mark.parametrize("targets", sorted(_TARGET_SETS))
    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_audit_is_the_per_point_reports_in_order(self, tag, targets):
        pairs = _TARGET_SETS[targets]
        alphas = [Fraction(0), Fraction(1, 3), Fraction(1)]
        betas = [Fraction(1, 2), Fraction(0), Fraction(1, 4)]
        want = [report(tag, a, b, phi, psi)
                for a in alphas for b in betas for phi, psi in pairs]
        assert audit(tag, alphas, betas, pairs) == want
        assert [(rep.alpha, rep.beta) for rep in want[::len(pairs)]] == [
            (float(a), float(b)) for a in alphas for b in betas]

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_audit_rows_are_reports_on_the_cli_grid(self, tag):
        # The 11 x 11 grid 0:1:1/10 with an equal and a skewed target pair.
        grid = [Fraction(k, 10) for k in range(11)]
        pairs = [(CARA, CARA), (CARA, SKEW)]
        rows = audit(tag, grid, grid, pairs)
        assert len(rows) == len(grid) ** 2 * len(pairs)
        points = [(a, b, phi, psi) for a in grid for b in grid for phi, psi in pairs]
        for row, (a, b, phi, psi) in zip(rows, points):
            assert row == report(tag, a, b, phi, psi)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_report_values_are_the_module_functions(self, tag):
        # At the printed sigma the reported values are the printed ones; at
        # the derived sigma (which differs for LL off the axes) the aligned
        # value equals the generic one exactly or is flagged with its value.
        for a, b in [(0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 1)]:
            for phi, psi in [(CARA, CARA), (CARA, SKEW), (SKEW, UNEVEN)]:
                rep = report(tag, a, b, phi, psi, rel_tol=0)
                args = (tag, a, b, phi.B1, phi.B2, psi.B1, psi.B2)
                witness = tuple(float(v) for v in args[1:])
                for d in rep.discrepancies:
                    assert (d.alpha, d.beta, d.B1, d.B2, d.D1, d.D2) == witness
                assert rep.a2_printed == _sqrt(_printed_a2_sq(*args))
                assert rep.a3_printed == float(_printed_a3_value(*args))
                sigma = derived_sigma(tag, a, b)
                pair = theorem_pair(tag, a, b, phi, psi)
                # The statements at the derived sigma, from the oracle.
                aligned = {"a2": statement_a2_sq(statement_a2_brackets(*args), sigma,
                                                 phi.B1, psi.B1),
                           "a3": statement_a3_value(*args, sigma)}
                generic = {"a2": _generic_a2_sq(pair), "a3": _generic_a3_value(pair)}
                flagged = {d.field: d for d in rep.discrepancies}
                for field, to_float in (("a2", _sqrt), ("a3", float)):
                    assert (field in flagged) == (aligned[field] != generic[field])
                    if field in flagged:
                        assert flagged[field].printed == to_float(aligned[field])
                        assert flagged[field].derived == to_float(generic[field])
        if tag == "LL":
            assert derived_sigma(tag, 1, 1) != printed_sigma(tag, 1, 1)

    def test_degenerate_a2_bracket(self):
        # PP at alpha = beta = 0 with B1 = D1 = 1, B2 = D2 = 2: both a2
        # denominators vanish, the a3 values do not.
        target = MindaTarget([1, 2])
        rep = report("PP", 0, 0, target, target)
        assert _printed_a2_sq("PP", 0, 0, 1, 2, 1, 2) is None
        assert rep.degenerate
        assert rep.a2_printed is None and rep.a2_generic is None
        assert rep.a3_printed == float(_printed_a3_value("PP", 0, 0, 1, 2, 1, 2))
        assert rep.a3_generic is not None
        assert rep.discrepancies == ()
        grid = audit("PP", [0, 1], [0], [(target, target)])
        assert [r.degenerate for r in grid] == [True, False]

    def test_pm_variant_note_per_target_pair(self):
        half = Fraction(1, 2)
        equal, skewed = audit("PM", [half], [half], [(CARA, CARA), (CARA, SKEW)])
        assert equal.notes == ()
        variant = pm_display_variant_a2_bound(half, half, 2, 2, 2, 1)
        assert len(skewed.notes) == 1
        assert repr(variant) in skewed.notes[0]
        assert repr(skewed.a2_printed) in skewed.notes[0]

    @pytest.mark.parametrize("tolerance", [1, 1.0, 2.0, 1e300, Fraction(3, 2)])
    def test_tolerance_of_one_or_more_rejected(self, tolerance):
        # At 1 no same-sign mismatch can flag, and from 2 on nothing can.
        point = ([0], [0], [(CARA, CARA)])
        with pytest.raises(ValueError, match="tolerance must be below 1"):
            audit("LL", *point, rel_tol=tolerance)
        with pytest.raises(ValueError, match="tolerance must be below 1"):
            report("LL", 1, 1, CARA, CARA, rel_tol=tolerance)

    def test_tolerance_just_below_one_still_flags_a_sign_flip(self):
        # The LL sigma at alpha = beta = 1 is printed -20 and derived 4.
        rep = report("LL", 1, 1, CARA, CARA, rel_tol=0.999)
        assert [d.field for d in rep.discrepancies] == ["sigma"]

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_one_point_audit_checks_tag_and_tolerance(self, tolerance):
        point = ([0], [0], [(CARA, CARA)])
        with pytest.raises(ValueError, match="unknown pairing tag"):
            audit("QQ", *point)
        with pytest.raises(ValueError, match="unknown pairing tag"):
            audit("QQ", *point, rel_tol=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            audit("PP", *point, rel_tol=tolerance)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            report("PP", 0, 0, CARA, CARA, rel_tol=tolerance)

    @pytest.mark.parametrize("tolerance", [False, True, "0.1", None, 1j])
    def test_a_non_real_tolerance_is_refused_by_name(self, tolerance):
        message = f"^tolerance must be real, got {re.escape(repr(tolerance))}$"
        with pytest.raises(TypeError, match=message):
            audit("PP", [0], [0], [(CARA, CARA)], rel_tol=tolerance)
        with pytest.raises(TypeError, match=message):
            report("PP", 0, 0, CARA, CARA, rel_tol=tolerance)

    @pytest.mark.parametrize("phi, psi, message", [
        (None, CARA, "phi must be a MindaTarget, got NoneType"),
        (CARA, [2, 1], "psi must be a MindaTarget, got list"),
        ("caratheodory", CARA, "phi must be a MindaTarget, got str"),
    ])
    def test_a_non_target_is_refused_by_name(self, phi, psi, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            report("PP", 0, 0, phi, psi)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            audit("PP", [0], [0], [(CARA, CARA), (phi, psi)])

    @pytest.mark.parametrize("pair", [(CARA,), [CARA, CARA, CARA], CARA, None])
    def test_a_target_pair_that_is_not_two_targets_is_refused(self, pair):
        message = f"target pair must be (phi, psi), got {pair!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            audit("PP", [0], [0], [pair])

    def test_invalid_parameters_raise_in_grid_order(self):
        # (0, -1) comes before (2, 0): the beta error is the one raised.
        with pytest.raises(ValueError, match="got -1"):
            audit("LL", [0, 2], [0, -1], [(CARA, CARA)])
        with pytest.raises(ValueError, match="got 2"):
            audit("LL", [0, 2], [0, 1], [(CARA, CARA)])


class TestTheoremTag:
    def test_kinds(self):
        assert theorem_tag("pl") == "PL"
        pair = theorem_pair("pl", 0, 1, CARA, CARA)
        assert (pair.class_f.kind, pair.class_g.kind) == ("P", "L")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown pairing tag 'QQ'"):
            theorem_tag("QQ")

    def test_multiplier_table(self):
        assert A3_MULTIPLIER == {"PP": 2, "PM": 2, "PL": 1, "MM": 2, "ML": 1, "LL": 2}


class TestReductionTable:
    def test_reference_values(self):
        table = reduction_table()
        values = [row["value"] for row in table["rows"] if row["source"] == "reference"]
        assert values == [1.5894, 2.0, 1.507, 1.224]

    def test_computed_value(self):
        table = reduction_table()
        computed = [row for row in table["rows"] if row["source"] == "computed"]
        assert len(computed) == 1
        assert computed[0]["value"] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_notes_flag_the_mismatch(self):
        notes = " ".join(reduction_table()["notes"])
        assert "unspecified" in notes
        assert "does not reproduce" in notes


# ----------------------------------------------------------------------
# the factored statements against the verbatim ones


def _outcome(fn, *args, **kwargs):
    # A value, or the type of the exception it raised: ZeroDivisionError at
    # a pole of the |a3| term, ValueError for the root of a negative square.
    try:
        return fn(*args, **kwargs)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _oracle_a3(tag, a, b, B1, B2, D1, D2, sigma):
    return _outcome(statement_a3_value, tag, a, b, B1, B2, D1, D2, sigma)


_RATIONAL = st.fractions(min_value=-2, max_value=4, max_denominator=12)
_POSITIVE = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)
_ANY = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def _class_param(kind):
    upper = 1 if kind == "L" else 3
    return st.fractions(min_value=0, max_value=upper, max_denominator=12)


class TestStatementOracle:
    @settings(max_examples=300, deadline=None)
    @given(tag=st.sampled_from(THEOREM_TAGS), a=_RATIONAL, b=_RATIONAL,
           B1=_POSITIVE, B2=_ANY, D1=_POSITIVE, D2=_ANY)
    @example(tag="PP", a=Fraction(0), b=Fraction(0), B1=Fraction(1), B2=Fraction(2),
             D1=Fraction(1), D2=Fraction(2))  # vanishing |a2| denominator
    @example(tag="LL", a=Fraction(3), b=Fraction(0), B1=Fraction(2), B2=Fraction(2),
             D1=Fraction(2), D2=Fraction(2))  # sigma = 0
    @example(tag="PM", a=Fraction(1, 2), b=Fraction(1, 2), B1=Fraction(2),
             B2=Fraction(2), D1=Fraction(2), D2=Fraction(1))  # D2 != D1
    @example(tag="LL", a=Fraction(2), b=Fraction(0), B1=Fraction(2), B2=Fraction(1),
             D1=Fraction(2), D2=Fraction(3))  # pole of the |a3| cross term
    def test_single_point_functions(self, tag, a, b, B1, B2, D1, D2):
        sigma = statement_sigma(tag, a, b)
        brackets = statement_a2_brackets(tag, a, b, B1, B2, D1, D2)
        a2_sq = statement_a2_sq(brackets, sigma, B1, D1)
        a3 = _oracle_a3(tag, a, b, B1, B2, D1, D2, sigma)
        args = (tag, a, b, B1, B2, D1, D2)
        assert printed_sigma(tag, a, b) == sigma
        assert _printed_a2_sq(*args) == a2_sq
        assert _outcome(printed_a2_bound, *args) == _outcome(_sqrt, a2_sq)
        assert _outcome(_printed_a3_value, *args) == a3
        want_a3 = a3 if a3 is None or a3 is ZeroDivisionError else float(a3)
        assert _outcome(printed_a3_bound, *args) == want_a3
        variant = statement_a2_sq(
            statement_pm_display_brackets(a, b, B1, B2, D1, D2),
            statement_sigma("PM", a, b), B1, D1)
        assert _outcome(pm_display_variant_a2_bound, a, b, B1, B2, D1, D2) == \
            _outcome(_sqrt, variant)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), tag=st.sampled_from(THEOREM_TAGS),
           B1=_POSITIVE, B2=_ANY, D1=_POSITIVE, D2=_ANY)
    def test_audit_rows(self, data, tag, B1, B2, D1, D2):
        alphas = data.draw(st.lists(_class_param(tag[0]), min_size=1, max_size=3))
        betas = data.draw(st.lists(_class_param(tag[1]), min_size=1, max_size=3))
        phi, psi = MindaTarget([B1, B2]), MindaTarget([D1, D2])
        rows = iter(audit(tag, alphas, betas, [(phi, psi), (psi, phi)]))
        for a in alphas:
            for b in betas:
                for (P1, P2), (Q1, Q2) in [((B1, B2), (D1, D2)), ((D1, D2), (B1, B2))]:
                    self._check_row(next(rows), tag, a, b, P1, P2, Q1, Q2)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_audit_rows_at_the_degenerate_points(self, tag):
        one_two = MindaTarget([1, 2])
        for phi, psi in [(one_two, one_two), (CARA, SKEW), (SKEW, UNEVEN)]:
            for a, b in [(0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 3))]:
                row = report(tag, a, b, phi, psi)
                self._check_row(row, tag, Fraction(a), Fraction(b),
                                phi.B1, phi.B2, psi.B1, psi.B2)

    @staticmethod
    def _check_row(row, tag, a, b, B1, B2, D1, D2):
        sigma = statement_sigma(tag, a, b)
        brackets = statement_a2_brackets(tag, a, b, B1, B2, D1, D2)
        a2_sq = statement_a2_sq(brackets, sigma, B1, D1)
        a3 = statement_a3_value(tag, a, b, B1, B2, D1, D2, sigma)
        assert (row.alpha, row.beta) == (float(a), float(b))
        assert row.sigma_printed == float(sigma)
        assert row.a2_printed == _sqrt(a2_sq)
        assert row.a3_printed == (None if a3 is None else float(a3))
        # The a2/a3 discrepancies carry the statements at the derived sigma.
        derived = derived_sigma(tag, a, b)
        flagged = {d.field: d for d in row.discrepancies}
        if "a2" in flagged:
            want = _sqrt_nan(statement_a2_sq(brackets, derived, B1, D1))
            assert _same_float(flagged["a2"].printed, want)
        if "a3" in flagged:
            value = statement_a3_value(tag, a, b, B1, B2, D1, D2, derived)
            want = math.nan if value is None else float(value)
            assert _same_float(flagged["a3"].printed, want)
        if tag == "PM" and D2 != D1:
            variant = _sqrt(statement_a2_sq(
                statement_pm_display_brackets(a, b, B1, B2, D1, D2), sigma, B1, D1))
            stated = _sqrt_nan(a2_sq)
            if variant is None or abs(variant - stated) > 1e-10 * max(1.0, stated):
                assert row.notes and repr(variant) in row.notes[0]
            else:
                assert row.notes == ()


def _sqrt_nan(sq):
    return math.nan if sq is None else math.sqrt(float(sq))


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


# ----------------------------------------------------------------------
# every audit field against oracles that share none of its arithmetic


def _grid_value(upper):
    # Mixed denominators up to 12 across one axis.
    return st.integers(1, 12).flatmap(
        lambda d: st.integers(0, upper * d).map(lambda n: Fraction(n, d)))


_TOLERANCES = st.one_of(st.sampled_from([0, 0.0, 1e-10, 0.25]),
                        st.floats(0, 1, exclude_max=True))
_TARGET_PAIR = st.tuples(_POSITIVE, _ANY, _POSITIVE, _ANY)


def _float_or_nan(value):
    return math.nan if value is None else float(value)


class TestAuditOracle:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), tag=st.sampled_from(THEOREM_TAGS),
           targets=st.lists(_TARGET_PAIR, min_size=1, max_size=2),
           rel_tol=_TOLERANCES)
    @example(data=None, tag="LL", targets=[(Fraction(2), Fraction(2), Fraction(2),
                                            Fraction(1))], rel_tol=0.25)
    @example(data=None, tag="PM", targets=[(Fraction(3, 2), Fraction(-7, 8),
                                            Fraction(5, 4), Fraction(-3))], rel_tol=0)
    def test_every_field_of_every_row(self, data, tag, targets, rel_tol):
        if data is None:  # the explicit examples: sevenths and elevenths
            alphas = [Fraction(0), Fraction(3, 7), Fraction(10, 11), Fraction(1)]
            betas = [Fraction(2, 7), Fraction(5, 12), Fraction(1, 11)]
        else:
            alphas = data.draw(st.lists(_grid_value(1), min_size=1, max_size=4))
            betas = data.draw(st.lists(_grid_value(1), min_size=1, max_size=4))
        pairs = [(MindaTarget([B1, B2]), MindaTarget([D1, D2]))
                 for B1, B2, D1, D2 in targets]
        rows = iter(audit(tag, alphas, betas, pairs, rel_tol=rel_tol))
        for a in alphas:
            for b in betas:
                for B1, B2, D1, D2 in targets:
                    self._check(next(rows), tag, a, b, B1, B2, D1, D2, rel_tol)

    @staticmethod
    def _check(row, tag, a, b, B1, B2, D1, D2, rel_tol):
        sigma = statement_sigma(tag, a, b)
        sigma_tilde, a2_generic, a3_generic = generic_reference(tag, a, b, B1, B2, D1, D2)
        derived = sigma_tilde / SIGMA_SCALE[tag]
        brackets = statement_a2_brackets(tag, a, b, B1, B2, D1, D2)
        a2_printed = statement_a2_sq(brackets, sigma, B1, D1)
        a3_printed = statement_a3_value(tag, a, b, B1, B2, D1, D2, sigma)
        assert (row.theorem, row.alpha, row.beta) == (tag, float(a), float(b))
        assert (row.phi, row.psi) == ((float(B1), float(B2)), (float(D1), float(D2)))
        assert row.sigma_printed == float(sigma)
        assert row.sigma_derived == float(derived)
        assert row.sigma_tilde == float(sigma_tilde)
        assert row.a2_printed == _sqrt(a2_printed)
        assert row.a2_generic == _sqrt(a2_generic)
        assert row.a3_printed == (None if a3_printed is None else float(a3_printed))
        assert row.a3_generic == (None if a3_generic is None else float(a3_generic))
        assert row.degenerate == (None in (a2_printed, a2_generic, a3_printed, a3_generic))
        # The a2/a3 rows compare the statements at the derived sigma.
        compared = (
            ("sigma", sigma, derived, _float_or_nan),
            ("a2", statement_a2_sq(brackets, derived, B1, D1), a2_generic, _sqrt_nan),
            ("a3", statement_a3_value(tag, a, b, B1, B2, D1, D2, derived), a3_generic,
             _float_or_nan),
        )
        witness = tuple(float(v) for v in (a, b, B1, B2, D1, D2))
        want = [(field, to_float(printed), to_float(generic)) + witness
                for field, printed, generic, to_float in compared
                if compare_reference(printed, generic, rel_tol)]
        got = [(d.field, d.printed, d.derived, d.alpha, d.beta, d.B1, d.B2, d.D1, d.D2)
               for d in row.discrepancies]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and all(map(_same_float, g[1:], w[1:])), (g, w)
        notes = []
        if tag == "PM" and D2 != D1:
            variant = _sqrt(statement_a2_sq(
                statement_pm_display_brackets(a, b, B1, B2, D1, D2), sigma, B1, D1))
            stated = _sqrt_nan(a2_printed)
            if variant is None or abs(variant - stated) > rel_tol * max(1.0, stated):
                notes.append(f"{variant!r}; the statement value {stated!r} matches")
        if tag == "LL" and D2 != D1:
            notes.append("LL |a3| statement carries")
        assert len(row.notes) == len(notes)
        for note, part in zip(row.notes, notes):
            assert part in note


class TestCompareRule:
    def test_boundary_is_the_float_product(self):
        # A difference equal to the float rel_tol * float(scale) does not
        # flag; one 1e-30 larger does.  Either argument may be the scale.
        rel_tol, scale = 0.1, Fraction(1, 3)
        limit = Fraction(rel_tol * float(scale))
        assert limit != Fraction(rel_tol) * scale  # the float product, not the exact one
        for below in (scale - limit, scale - limit - Fraction(1, 10**30)):
            flags = _mismatch(scale.as_integer_ratio(), below.as_integer_ratio(), rel_tol)
            assert flags == (scale - below > limit)
            assert _mismatch(below.as_integer_ratio(), scale.as_integer_ratio(),
                             rel_tol) == flags
        assert not _mismatch((1, 3), (2, 6), 0.0)
        assert _mismatch((1, 3), (10**40 + 1, 3 * 10**40), 0)

    def test_int_tolerance_is_exact(self):
        # An int tolerance scales exactly, so no float conversion of the
        # scale happens; a float tolerance converts it, as Fraction does.
        huge, other = (10**400, 1), (10**400 + 1, 1)
        assert _mismatch(huge, other, 0)
        with pytest.raises(OverflowError, match="integer division result too large"):
            _mismatch(huge, other, 0.0)

    def test_none_flags_only_against_a_value(self):
        assert not _mismatch(None, None, 0.25)
        assert _mismatch(None, (1, 2), 0.25) and _mismatch((1, 2), None, 0.25)


# Each library entry point that reads outside numbers, given one value in one
# of its numeric places.
READERS = {
    "MindaTarget": lambda x: MindaTarget([2, x]),
    "ClassSpec": lambda x: ClassSpec("M", x),
    "ClassTriple": lambda x: ClassTriple(1, 1, x),
    "theorem_pair": lambda x: theorem_pair("PL", 0, x, CARA, CARA),
    "printed_sigma": lambda x: printed_sigma("PP", x, 0),
    "derived_sigma": lambda x: derived_sigma("MM", 0, x),
    "printed_a2_bound": lambda x: printed_a2_bound("PP", 0, 0, x, 2, 2, 2),
    "printed_a3_bound": lambda x: printed_a3_bound("PP", 0, 0, 2, 2, 2, x),
    "pm_display_variant_a2_bound": lambda x: pm_display_variant_a2_bound(0, x, 2, 2, 2, 2),
    "report": lambda x: report("PP", x, 0, CARA, CARA),
    "audit": lambda x: audit("PP", [0, 1], [0, x], [(CARA, CARA)]),
}


class TestOutsideNumbers:
    # Every reader takes text through classes.rational and its limits.

    @pytest.mark.parametrize("text", ["1e4301", "7" * 5000], ids=["exponent", "digits"])
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_over_limit_text_is_refused(self, name, text):
        with pytest.raises(LiteralTooLargeError):
            READERS[name](text)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_zero_denominator_text_is_a_value_error(self, name):
        with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
            READERS[name]("1/0")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_non_finite_floats_are_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf" must be finite, got {value!r}$"):
            READERS[name](value)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_bool_is_refused_by_name(self, name):
        with pytest.raises(TypeError, match=r" must be real, got True$"):
            READERS[name](True)

    def test_real_qcomplex_parameters_are_read(self):
        half = Fraction(1, 2)
        assert printed_sigma("PL", QComplex(half), QComplex(0)) == printed_sigma("PL", half, 0)
        assert printed_a2_bound("PP", QComplex(half), 0, 2, QComplex(1), 2, 2) == \
            printed_a2_bound("PP", half, 0, 2, 1, 2, 2)
        assert report("PP", QComplex(half), 0, CARA, CARA) == report("PP", half, 0, CARA, CARA)

    @pytest.mark.parametrize("value", [np.int64(1), Decimal(1), QComplex(0, 1)],
                             ids=["int64", "Decimal", "QComplex"])
    def test_other_types_are_refused_by_name(self, value):
        for name, call in (
                ("alpha", lambda: printed_sigma("PP", value, 0)),
                ("beta", lambda: printed_a3_bound("PP", 0, value, 2, 2, 2, 2)),
                ("D1", lambda: printed_a2_bound("PP", 0, 0, 2, 2, value, 2)),
                ("beta", lambda: audit("PP", [0], [value], [(CARA, CARA)]))):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == f"{name} must be real, got {value!r}"
