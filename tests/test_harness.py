import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibounds import (
    EXACT,
    ClassSpec,
    ClassTriple,
    FLOAT,
    DegeneratePairError,
    BoundViolationError,
    MindaTarget,
    QComplex,
    RandomCheckReport,
    SchwarzParams,
    SweepResult,
    TruncatedSeries,
    caratheodory_kernel,
    check_bounds_random,
    end_to_end,
    run_identity_suites,
    sweep_a2,
    sweep_a3,
    target_preset,
    theorem_pair,
)
from bibounds import bounds, classes, harness, solver
from bibounds.bounds import THEOREM_TAGS
from conftest import BAD_SEEDS

CARA = target_preset("caratheodory")
CANONICAL = theorem_pair("PP", 0, 0, CARA, CARA)
DEGENERATE = theorem_pair("PP", 0, 0, MindaTarget([1, 2]), MindaTarget([1, 2]))


def rand_target(rng, equal_tail=False):
    b1 = Fraction(rng.randint(1, 12), 4)
    if equal_tail:
        return MindaTarget([b1, b1])
    return MindaTarget([b1, Fraction(rng.randint(-12, 12), 4)])


def rand_pair(rng, tag, equal_tail=False):
    return theorem_pair(
        tag,
        Fraction(rng.randint(0, 8), 8),
        Fraction(rng.randint(0, 8), 8),
        rand_target(rng, equal_tail),
        rand_target(rng, equal_tail),
    )


# One interior parameter point per pairing, for the tie test below.
TIE_POINTS = {
    "PP": (Fraction(1, 3), Fraction(1, 4)), "PM": (Fraction(1, 2), Fraction(1, 5)),
    "PL": (Fraction(1, 4), Fraction(1, 2)), "MM": (Fraction(2, 3), Fraction(1, 3)),
    "ML": (Fraction(1, 5), Fraction(3, 4)), "LL": (Fraction(1, 2), Fraction(1, 2)),
}


@pytest.mark.parametrize("tag", THEOREM_TAGS)
@pytest.mark.parametrize("what", ["a2", "a3"])
def test_sweep_ties_keep_the_exact_corner(tag, what):
    # A float tie between the corner and the bound must not turn the gap
    # negative.
    targets = [(CARA, CARA),
               (target_preset("strong:1/2"), target_preset("order:1/3"))]
    for phi, psi in targets:
        pair = theorem_pair(tag, *TIE_POINTS[tag], phi, psi)
        result = (sweep_a2 if what == "a2" else sweep_a3)(pair)
        at = result.argmax
        c1, c2, b2 = complex(at.c1), complex(at.c2), complex(at.b2)
        if what == "a2":
            assert (c1, c2, b2) == (0, 2, 2), result.argmax
        else:
            assert c1 == 2 and c2 == b2 and c2 in (2, -2), result.argmax
        assert result.gap >= 0


class TestSweepA2:
    def test_canonical_attains_at_corner(self):
        result = sweep_a2(CANONICAL)
        assert result.max_value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert result.attained
        assert complex(result.argmax.c2) == 2 + 0j
        assert complex(result.argmax.b2) == 2 + 0j

    @pytest.mark.parametrize("equal_tail", [True, False], ids=["equal", "skewed"])
    def test_attained_on_every_pairing(self, equal_tail):
        # g2 d2 > 0, so the corner c2 = b2 = 2 reaches 2 |g2| + 2 |d2|.
        rng = random.Random(7)
        for tag in THEOREM_TAGS:
            for _ in range(5):
                pair = rand_pair(rng, tag, equal_tail)
                try:
                    result = sweep_a2(pair)
                except DegeneratePairError:
                    continue
                assert result.attained
                assert result.gap >= -1e-9

    def test_gap_nonnegative_generally(self):
        rng = random.Random(8)
        for tag in THEOREM_TAGS:
            for _ in range(5):
                pair = rand_pair(rng, tag)
                try:
                    result = sweep_a2(pair)
                except DegeneratePairError:
                    continue
                assert result.gap >= -1e-9
                assert result.max_value <= result.bound + 1e-9

    def test_degenerate_pair_raises(self):
        with pytest.raises(DegeneratePairError):
            sweep_a2(DEGENERATE)


class TestSweepA3:
    def test_canonical_value(self):
        result = sweep_a3(CANONICAL)
        # With matching tails the c1^2 contribution vanishes and the
        # aligned corner reaches the bound.
        assert result.max_value == pytest.approx(2.0, abs=1e-12)
        assert result.bound == pytest.approx(2.0, abs=1e-12)
        assert result.gap >= -1e-9

    def test_gap_nonnegative_over_random_pairs(self):
        rng = random.Random(9)
        for tag in THEOREM_TAGS:
            for _ in range(8):
                pair = rand_pair(rng, tag)
                try:
                    result = sweep_a3(pair)
                except DegeneratePairError:
                    continue
                assert result.gap >= -1e-9

    def test_respects_phase_alignment(self):
        # Opposite-sign tails force a genuine gap: the bound's triangle
        # inequality cannot be tight.
        pair = theorem_pair("PP", 0, 0, MindaTarget([2, 3]), MindaTarget([2, 1]))
        result = sweep_a3(pair)
        assert result.gap > 0


@pytest.mark.parametrize("tag", THEOREM_TAGS)
@pytest.mark.parametrize("b2", [10**8, 10**12, -10**9])
def test_sweep_a3_large_target_is_not_a_violation(tag, b2):
    # The corner reaches the termwise bound; at |B2| of 1e8 and more the
    # relative rule must still read that as attained, not as a violation.
    pair = theorem_pair(tag, Fraction(1, 2), Fraction(1, 3), MindaTarget([2, b2]), CARA)
    result = sweep_a3(pair)
    at = result.argmax
    c1, c2, b2_at = complex(at.c1), complex(at.c2), complex(at.b2)
    assert c1 == 2 and c2 == b2_at and c2 in (2, -2), result.argmax
    assert result.gap == 0.0
    assert result.attained


# gx = 3/4, gy = 1/4 and kappa^2 = 1 on PP(0, 0): W's two terms, about 2e11
# each, cancel, so S3 = 2 while the grid's addends carry roundoff near 1e-4.
CANCELLING = theorem_pair("PP", 0, 0, MindaTarget([2, 10**12 + 2]),
                          MindaTarget([2, -3 * 10**12 + 2]))


def test_sweep_a3_cancelling_large_targets_are_not_a_violation():
    result = sweep_a3(CANCELLING)
    assert result.max_value == 2.0
    assert result.argmax == SchwarzParams(2.0, 2.0, 2.0)


@pytest.mark.parametrize("tag", THEOREM_TAGS)
def test_sweep_a3_corner_sign_follows_w_gx(tag):
    # At c1 = 2, a3 = 2 s (gx B1 / 2 + gy D1 / 2) + 4 W on c2 = b2 = 2 s, so
    # s = sign(W gx) aligns the two parts; equal tails make W = 0, a tie
    # that keeps s = 1.
    rng = random.Random(12)
    seen = set()
    for equal_tail in [False] * 12 + [True]:
        pair = rand_pair(rng, tag, equal_tail)
        k = pair.exact_constants
        w = k.gx * k.quarter_db + k.gy * k.quarter_dd * k.kappa ** 2
        sign = -1.0 if w * k.gx < 0 else 1.0
        assert sweep_a3(pair).argmax == SchwarzParams(2.0, 2 * sign, 2 * sign)
        seen.add((w == 0, sign))
    assert seen == {(False, 1.0), (False, -1.0), (True, 1.0)}


@pytest.mark.parametrize("scale", [1, Fraction(1, 10**12)], ids=["1", "1e-12"])
@pytest.mark.parametrize("what", ["a2", "a3"])
def test_sweep_halved_bound_raises_at_every_scale(what, scale, monkeypatch):
    # The corner is the supremum, so a bound below it means the algebra is
    # wrong: the sweep must raise, not report a negative gap.  The tolerance's
    # absolute floor is the smallest normal float, so tiny targets raise too.
    pair = theorem_pair("PL", Fraction(1, 3), Fraction(1, 2),
                        MindaTarget([2 * scale, 2 * scale]),
                        MindaTarget([2 * scale, scale]))
    name = f"generic_{what}_bound"
    generic_bound = getattr(bounds, name)
    monkeypatch.setattr(bounds, name, lambda pair: generic_bound(pair) / 2)
    sweep = sweep_a2 if what == "a2" else sweep_a3
    with pytest.raises(BoundViolationError, match=f"{what} sweep exceeded its bound"):
        sweep(pair)


def disk_grid(radial, phase):
    """radial moduli in [0, 2] times phase unit phases."""
    moduli = np.linspace(0.0, 2.0, radial)
    return (moduli[:, None] * phase_ring(phase)[None, :]).ravel()


def phase_ring(phase):
    return np.exp(1j * np.linspace(0.0, 2.0 * math.pi, phase, endpoint=False))


def full_grid_sweep(what, pair, radial, phase):
    """The reference sweep: every value of the closed forms on a radial x phase grid.

    Returns the SweepResult of the exact corner and the grid's maximum.
    """
    if what == "a2":
        best = math.sqrt(float(abs(solver.closed_forms(pair, 0, 2, 2).a2_squared)))
        best_params = SchwarzParams(0.0, 2.0, 2.0)
        grid = disk_grid(radial, phase)
        axes = (np.zeros(1), grid, grid)
        values = np.sqrt(np.abs(solver.closed_forms(pair, *np.ix_(*axes)).a2_squared))
        bound = bounds.generic_a2_bound(pair)
    else:
        analytic, sign = max(
            (abs(solver.closed_forms(pair, 2, 2 * s, 2 * s).a3), s) for s in (1, -1))
        best, best_params = float(analytic), SchwarzParams(2.0, 2.0 * sign, 2.0 * sign)
        ring = 2.0 * phase_ring(phase)
        axes = (disk_grid(radial, phase), ring, ring)
        values = np.abs(solver.closed_forms(pair, *np.ix_(*axes)).a3)
        bound = bounds.generic_a3_bound(pair)
    top = values.max()
    if harness._exceeds(best, bound):
        raise BoundViolationError(f"{what} sweep exceeded its bound")
    result = SweepResult(what, best, best_params, bound, bound - best,
                         not harness._exceeds(bound, best))
    return result, top


def oracle_pairs():
    rng = random.Random(20)
    pairs = [rand_pair(rng, tag, equal_tail) for tag in THEOREM_TAGS
             for equal_tail in (False, True)]
    pairs += [theorem_pair(tag, Fraction(1, 2), Fraction(1, 3), MindaTarget([2, b2]), CARA)
              for tag in ("PM", "LL") for b2 in (10**8, 10**12, -10**9)]
    return pairs + [CANCELLING]


@pytest.mark.parametrize("radial, phase", [(2, 4), (9, 16), (17, 32), (16, 64)],
                         ids=["2x4", "9x16", "17x32", "16x64"])
@pytest.mark.parametrize("what", ["a2", "a3"])
def test_sweeps_match_the_full_grid(what, radial, phase):
    # The corner is the supremum, so no grid value may exceed it beyond
    # roundoff.  The termwise bound is at least max |p| + max |q| of the
    # grid's two addends, so 1e-9 of it covers their roundoff, which
    # cancelling addends (CANCELLING) do not shrink.
    sweep = sweep_a2 if what == "a2" else sweep_a3
    for pair in oracle_pairs():  # none is degenerate
        result = sweep(pair)
        expected, top = full_grid_sweep(what, pair, radial, phase)
        assert result == expected
        assert not harness._exceeds(top, result.max_value + 1e-9 * result.bound)


_KIND_PARAMS = {"P": Fraction(8), "M": Fraction(8), "L": Fraction(1)}


@st.composite
def valid_pairs(draw):
    """Any two class kinds, each parameter in its range, any B2 and D2."""
    def spec():
        kind = draw(st.sampled_from(classes.CLASS_KINDS))
        top = _KIND_PARAMS[kind]
        return classes.ClassSpec(kind, top * draw(st.fractions(0, 1, max_denominator=24)))

    def target():
        return MindaTarget([draw(st.fractions(Fraction(1, 16), 8, max_denominator=16)),
                            draw(st.fractions(-8, 8, max_denominator=16))])

    return solver.PairSpec(spec(), target(), spec(), target())


@settings(max_examples=200, deadline=None)
@given(valid_pairs())
def test_exact_corners_are_the_suprema(pair):
    # a2^2 = g2 c2 + d2 b2 and a3 = (gx B1 / 2) c2 + (gy D1 / 2) b2 + W c1^2:
    # with g2 d2 > 0 and gx gy > 0 the corners reach the termwise sums.
    k = pair.exact_constants
    B1, D1 = 2 * k.half_b1, 2 * k.half_d1
    if k.g2 is not None:
        assert k.g2 * k.d2 > 0
        corner_sq = abs(solver.closed_forms(pair, 0, 2, 2).a2_squared)
        assert corner_sq == 2 * abs(k.g2) + 2 * abs(k.d2) == bounds._generic_a2_sq(pair)
    # sigma_tilde is positive on every valid pair, so gx and gy always exist.
    assert k.sigma_tilde > 0 and k.gx * k.gy > 0
    w = k.gx * k.quarter_db + k.gy * k.quarter_dd * k.kappa ** 2
    corner = max(abs(solver.closed_forms(pair, 2, 2 * s, 2 * s).a3) for s in (1, -1))
    assert corner == abs(k.gx) * B1 + abs(k.gy) * D1 + 4 * abs(w)
    assert bounds._generic_a3_value(pair) >= corner


@pytest.mark.parametrize("what", ["a2", "a3"])
@pytest.mark.parametrize("psi", [CARA, MindaTarget([2, 1])], ids=["equal", "skewed"])
def test_fine_sweep_peak_memory(what, psi):
    # tracemalloc counts numpy's buffers; a full 17 x 32 grid peaks at 9.3
    # (a2) and 12.8 MiB (a3), and the sweeps build none.
    pair = theorem_pair("PL", Fraction(1, 3), Fraction(1, 2), CARA, psi)
    sweep = sweep_a2 if what == "a2" else sweep_a3
    sweep(pair)
    tracemalloc.start()
    try:
        sweep(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_random_check_peak_memory():
    # The six draw rows take 0.46 MiB.  One pass over all 10,000 samples
    # peaked at 1.53 MiB; the blocks of 2,048 samples peak near 0.9 MiB.
    pair = theorem_pair("PL", Fraction(1, 3), Fraction(1, 2), CARA, MindaTarget([2, 1]))
    check_bounds_random(pair, 1, 10_000)
    tracemalloc.start()
    try:
        check_bounds_random(pair, 1, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def one_pass_forms(pair, seed, n):
    """The closed forms at all n random draws in one pass: six random(n) calls."""
    rng = np.random.default_rng(seed)

    def draw():
        radii = 2.0 * np.sqrt(rng.random(n))
        return radii * np.exp(2j * math.pi * rng.random(n))

    return solver.closed_forms(pair, draw(), draw(), draw())


def one_pass_random_check(pair, seed, n):
    """The reference random check: the maxima of one pass over all n."""
    forms = one_pass_forms(pair, seed, n)
    max_a2 = math.sqrt(float(np.abs(forms.a2_squared).max()))
    max_a3 = float(np.abs(forms.a3).max())
    a2_bound = bounds.generic_a2_bound(pair)
    a3_bound = bounds.generic_a3_bound(pair)
    if harness._exceeds(max_a2, a2_bound):
        raise BoundViolationError(f"|a2| sample {max_a2} exceeds bound {a2_bound}")
    if harness._exceeds(max_a3, a3_bound):
        raise BoundViolationError(f"|a3| sample {max_a3} exceeds bound {a3_bound}")
    return RandomCheckReport(n, a2_bound, a3_bound, max_a2 / a2_bound, max_a3 / a3_bound)


class TestRandomChecksMatchOnePass:
    # The blocks of 2,048 samples: one sample, one short of a block, one
    # block, one past it, and 10,000 (four blocks and a partial one).
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 10_000])
    def test_oracle_pairs(self, n):
        for pair in oracle_pairs():  # none is degenerate
            for seed in (1, 2, 3):
                assert (check_bounds_random(pair, seed, n)
                        == one_pass_random_check(pair, seed, n))

    def test_maximum_in_the_last_partial_block(self):
        forms = one_pass_forms(CANONICAL, 4, 10_000)
        assert np.abs(forms.a2_squared).argmax() >= 4 * 2048
        assert (check_bounds_random(CANONICAL, 4, 10_000)
                == one_pass_random_check(CANONICAL, 4, 10_000))

    def test_violation_message(self, monkeypatch):
        generic_a3_bound = bounds.generic_a3_bound
        monkeypatch.setattr(bounds, "generic_a3_bound",
                            lambda pair: generic_a3_bound(pair) / 2)
        for seed in (1, 2, 3):
            messages = []
            for check in (check_bounds_random, one_pass_random_check):
                with pytest.raises(BoundViolationError, match=r"^\|a3\| sample") as info:
                    check(CANONICAL, seed, 5000)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_bad_sample_counts(self, monkeypatch):
        # Refused before numpy loads (a None entry makes its import fail) and
        # before the degeneracy check, with messages that name the count.
        monkeypatch.setitem(sys.modules, "numpy", None)
        for pair in (CANONICAL, DEGENERATE):
            for n in (10.0, 2.5, 0.0, True, False):
                with pytest.raises(TypeError) as info:
                    check_bounds_random(pair, 1, n)
                assert str(info.value) == f"sample count must be an int, got {n!r}"
            with pytest.raises(ValueError) as info:
                check_bounds_random(pair, 1, -1)
            assert str(info.value) == "sample count must be at least 0, got -1"
            for n in (harness.MAX_RANDOM_SAMPLES + 1, 10**8):
                with pytest.raises(ValueError) as info:
                    check_bounds_random(pair, 1, n)
                assert str(info.value) == (f"sample count must be at most "
                                           f"{harness.MAX_RANDOM_SAMPLES}, got {n}")

    @pytest.mark.parametrize("seed, error, message", BAD_SEEDS)
    def test_bad_seeds(self, seed, error, message, monkeypatch):
        # Refused before numpy loads and before the degeneracy check.
        monkeypatch.setitem(sys.modules, "numpy", None)
        for pair in (CANONICAL, DEGENERATE):
            with pytest.raises(error) as info:
                check_bounds_random(pair, seed, 10)
            assert str(info.value) == message


class TestRandomChecks:
    def test_canonical_within_bounds(self):
        report = check_bounds_random(CANONICAL, seed=1, n=10_000)
        assert report.max_a2_ratio <= 1 + 1e-9
        assert report.max_a3_ratio <= 1 + 1e-9

    def test_empty_report(self):
        report = check_bounds_random(CANONICAL, seed=1, n=0)
        assert report.samples == 0
        assert report.max_a2_ratio == 0.0

    def test_all_pairings_within_bounds(self):
        rng = random.Random(10)
        for tag in THEOREM_TAGS:
            pair = rand_pair(rng, tag)
            try:
                report = check_bounds_random(pair, seed=11, n=3000)
            except DegeneratePairError:
                continue
            assert report.max_a2_ratio <= 1 + 1e-9
            assert report.max_a3_ratio <= 1 + 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePairError):
            check_bounds_random(DEGENERATE, seed=0, n=10)

    @pytest.mark.parametrize("scale", [1, Fraction(1, 10**12)], ids=["1", "1e-12"])
    def test_halved_bound_raises_at_every_scale(self, scale, monkeypatch):
        # The tolerance's absolute floor is the smallest normal float, so a
        # violation of tiny targets is not lost under it.
        pair = theorem_pair("PL", Fraction(1, 3), Fraction(1, 2),
                            MindaTarget([2 * scale, 2 * scale]),
                            MindaTarget([2 * scale, scale]))
        generic_a2_bound = bounds.generic_a2_bound
        monkeypatch.setattr(bounds, "generic_a2_bound",
                            lambda pair: generic_a2_bound(pair) / 2)
        with pytest.raises(BoundViolationError, match="a2"):
            check_bounds_random(pair, seed=1, n=1000)

    def test_deterministic(self):
        a = check_bounds_random(CANONICAL, seed=5, n=500)
        b = check_bounds_random(CANONICAL, seed=5, n=500)
        assert a == b


class TestEndToEnd:
    def test_trivial_sample(self):
        p = TruncatedSeries.one(order=8)
        report = end_to_end(CANONICAL, seed=0, p_series=p)
        assert report.a2 == QComplex(0) and report.a3 == QComplex(0)
        assert report.b1 == QComplex(0) and report.b2 == QComplex(0)
        assert report.b1_matches_linkage
        assert report.closed_forms_match
        assert report.residual == 0.0
        assert report.subordination_plausible

    def test_exact_samples_are_algebraically_consistent(self):
        rng = random.Random(12)
        for seed in range(25):
            tag = THEOREM_TAGS[seed % 6]
            pair = rand_pair(rng, tag)
            from bibounds.solver import elimination_denominator

            if elimination_denominator(pair) == 0:
                continue
            report = end_to_end(pair, seed=seed)
            assert report.b1_matches_linkage
            assert report.closed_forms_match
            assert report.residual == 0.0

    def test_koebe_direction_flagged(self):
        # The full-mass kernel drives |b1| to the boundary and |b2| beyond
        # it; the identities still hold and the report only flags it.
        p = caratheodory_kernel(1)
        report = end_to_end(CANONICAL, seed=0, p_series=p)
        assert report.b1 == QComplex(-2)
        assert report.b2 == QComplex(6)
        assert report.b1_matches_linkage
        assert report.residual == 0.0
        assert not report.subordination_plausible

    def test_float_mode(self):
        report = end_to_end(CANONICAL, seed=3, mode=FLOAT)
        assert report.b1_matches_linkage
        assert report.closed_forms_match
        assert report.residual < 1e-12

    def test_deterministic(self):
        a = end_to_end(CANONICAL, seed=21)
        b = end_to_end(CANONICAL, seed=21)
        assert a == b

    @pytest.mark.parametrize("seed, error, message", BAD_SEEDS)
    def test_bad_seeds(self, seed, error, message):
        # The seed is checked when it draws the sample, and not read beside
        # a given one.
        for mode in (EXACT, FLOAT):
            with pytest.raises(error) as info:
                end_to_end(CANONICAL, seed, mode=mode)
            assert str(info.value) == message
        p = TruncatedSeries.one(order=8)
        assert (end_to_end(CANONICAL, seed, p_series=p)
                == end_to_end(CANONICAL, 0, p_series=p))

    @pytest.mark.parametrize("order", [0, 1])
    def test_short_transform_is_refused_by_order(self, order):
        p = TruncatedSeries([1, 1][: order + 1])
        with pytest.raises(ValueError, match=rf"order at least 2, got order {order}$"):
            end_to_end(CANONICAL, 0, p_series=p)

    def test_float_samples_off_unit_constant_by_roundoff(self):
        # Float sample weights sum to 1 only up to roundoff, so the sampled
        # constant term is often 1 +- 1 ulp; the pipeline must accept it.
        pair = theorem_pair("PP", Fraction(1, 3), Fraction(1, 4), CARA, CARA)
        for seed in range(500):
            report = end_to_end(pair, seed=seed, mode=FLOAT)
            assert report.b1_matches_linkage, seed
            assert report.closed_forms_match, seed
            assert report.residual < 1e-12, seed


class TestIdentitySuites:
    def test_exact_suites_pass(self):
        results = run_identity_suites("all", mode=EXACT, seed=7, samples=15)
        assert all(r.passed for r in results), [
            (r.name, r.witness) for r in results if not r.passed
        ]
        assert len(results) == 12

    def test_float_suites_pass(self):
        results = run_identity_suites("identities", mode=FLOAT, seed=3, samples=15)
        assert all(r.passed for r in results)

    # Seeds that missed by roundoff under tighter float tolerances: a ring-law
    # div/mul round trip (479) and the a2^2 chain (673), among others.
    @pytest.mark.parametrize("seed", [313302, 378735, 479, 770, 673])
    def test_float_roundoff_stays_within_tolerance(self, seed):
        results = run_identity_suites("identities", mode=FLOAT, seed=seed, samples=30)
        assert [(r.name, r.witness) for r in results if not r.passed] == []

    def test_float_tolerance_catches_a_relative_1e_6_error(self, monkeypatch):
        closed_form = harness.expansion_f

        def off_by_1e_6(t, a2, a3):
            e1, e2 = closed_form(t, a2, a3)
            return e1, e2 * (1 + 1e-6)

        monkeypatch.setattr(harness, "expansion_f", off_by_1e_6)
        results = run_identity_suites("classes", mode=FLOAT, seed=7, samples=20)
        failed = [r.name for r in results if not r.passed]
        assert failed == ["class_forward_expansion"]

    def test_series_agreement_catches_a_relative_1e_6_error(self):
        rng = random.Random(11)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7)]
        base = TruncatedSeries(coeffs, mode=FLOAT)
        tol = harness.VERIFY_TOL
        for k in range(len(coeffs)):
            moved = list(coeffs)
            moved[k] *= 1 + 1e-6
            assert not base.agrees_with(TruncatedSeries(moved, mode=FLOAT), tol, tol)

    def test_consistency_chain_stops_after_its_draw_cap(self, monkeypatch):
        calls = []

        def reject_every_draw(value):
            calls.append(value)
            if len(calls) > 10_000:
                raise RuntimeError("rejection sampling did not stop")
            return False

        monkeypatch.setattr(harness, "_within_disk", reject_every_draw)
        results = run_identity_suites("solver", mode=EXACT, seed=7, samples=5)
        chain = {r.name: r for r in results}["consistency_chain"]
        assert not chain.passed
        assert chain.witness.startswith("only 0 of 5 draws accepted")
        assert len(calls) <= harness.CHAIN_DRAWS_PER_SAMPLE * 5

    def test_bounds_check_catches_a_misprinted_statement(self, monkeypatch):
        # A PM inverse side off by one in its |a2| numerator must fail the
        # printed-vs-generic check with a PM witness; other tags stay clean.
        inverse_side = bounds._inverse_side

        def misprinted(tag, b, t):
            side = inverse_side(tag, b, t)
            return side._replace(num=side.num + 1) if tag == "PM" else side

        monkeypatch.setattr(bounds, "_inverse_side", misprinted)
        results = {r.name: r for r in run_identity_suites("bounds", EXACT, 7, 40)}
        assert results["sigma_relations"].passed
        check = results["printed_vs_generic_bounds"]
        assert not check.passed
        assert check.witness.startswith("a2 bounds disagree for PM ")

    def test_single_group(self):
        results = run_identity_suites("series", seed=1, samples=5)
        assert [r.name for r in results] == [
            "series_ring_laws",
            "series_product_rule",
            "series_power_additivity",
            "series_reversion",
        ]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_identity_suites("bogus")

    @pytest.mark.parametrize("samples", [0, -5, harness.MAX_SAMPLES + 1])
    def test_no_samples_rejected(self, samples):
        # An empty run would pass every check vacuously, and an unbounded
        # one would not end.
        with pytest.raises(ValueError):
            run_identity_suites("series", samples=samples)

    @pytest.mark.parametrize("seed, error, message", BAD_SEEDS)
    def test_bad_seeds(self, seed, error, message, monkeypatch):
        # Refused as the samplers refuse them, before the sample count and
        # before any check runs: the one check here would fail.
        def failing_check(rng, mode, samples):
            return "the check ran"

        monkeypatch.setitem(harness._SUITE_CHECKS, "series",
                            (("failing_check", failing_check),))
        assert not run_identity_suites("series", seed=1, samples=1)[0].passed
        for mode in (EXACT, FLOAT):
            for samples in (1, 0):
                with pytest.raises(error) as info:
                    run_identity_suites("series", mode, seed, samples)
                assert str(info.value) == message

    @pytest.mark.parametrize("samples", [True, False, 2.5, 10.0])
    def test_non_int_samples_rejected(self, samples):
        with pytest.raises(TypeError) as info:
            run_identity_suites("series", samples=samples)
        assert str(info.value) == f"samples must be an int, got {samples!r}"


# sha256 of repr([(re, im, den), ...]) for the first 1,000 exact draws of
# random.Random("7:series_ring_laws"), recorded when each draw still built
# two Fractions.
FIRST_EXACT_DRAWS_SHA256 = (
    "e856098ff68aadf9de180ec79391a6c916467810ac4f7b43d170bcd8f0087a18")


class TestExactDraws:
    # The verify goldens pin only pass flags, so these pin the draw stream.

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, "3:consistency_chain"])
    def test_same_scalars_and_rng_state_as_two_fractions(self, seed):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(500):
            got = harness._rand_scalar(rng, EXACT)
            want = QComplex(harness._rand_fraction(twin),
                            harness._rand_fraction(twin))
            assert got._re == want._re
            assert got._im == want._im
            assert got._den == want._den
        assert rng.getstate() == twin.getstate()

    def test_first_draws_of_a_suite_stream_are_pinned(self):
        rng = random.Random("7:series_ring_laws")
        draws = [harness._rand_scalar(rng, EXACT) for _ in range(1000)]
        text = repr([(q._re, q._im, q._den) for q in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == FIRST_EXACT_DRAWS_SHA256


def sigma_relations_per_point():
    """The sigma-relations check evaluated point by point, one PairSpec each."""
    grid = [Fraction(k, 4) for k in range(5)]
    for tag in THEOREM_TAGS:
        scale = bounds.SIGMA_SCALE[tag]
        for a in grid:
            for b in grid:
                printed = bounds.printed_sigma(tag, a, b)
                tilde = solver.sigma_tilde(
                    theorem_pair(tag, a, b, MindaTarget([1]), MindaTarget([1])))
                if tag == "LL":
                    if tilde / scale - printed != 24 * a * b:
                        return f"LL sigma gap wrong at alpha={a}, beta={b}"
                elif printed * scale != tilde:
                    return f"sigma relation failed for {tag} at alpha={a}, beta={b}"
    return None


def sigma_relations_witness():
    rng = random.Random(7)
    return harness._check_sigma_relations(rng, EXACT, 1)


class TestSigmaRelations:
    def test_passes_like_the_per_point_loop(self):
        assert sigma_relations_per_point() is None
        assert sigma_relations_witness() is None

    def test_perturbed_sigma_coefficient_fails_at_the_same_point(self, monkeypatch):
        stated = bounds._sigma_in_alpha

        def perturbed(tag, b, d):
            # Numerators over d^2: adding d^2 adds 1 to the alpha coefficient.
            coefficients = stated(tag, b, d)
            if tag == "PM" and Fraction(b, d) == Fraction(1, 2):
                return coefficients[0], coefficients[1] + d * d
            return coefficients

        monkeypatch.setattr(bounds, "_sigma_in_alpha", perturbed)
        witness = "sigma relation failed for PM at alpha=1/4, beta=1/2"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_flipped_ll_gap_fails_at_the_same_point(self, monkeypatch):
        stated = bounds._sigma_in_alpha

        def flipped(tag, b, d):
            coefficients = stated(tag, b, d)
            if tag == "LL":  # give the alpha*beta term the derived sign
                c0, c1, c2 = coefficients
                return c0, c1 + 24 * b * d, c2
            return coefficients

        monkeypatch.setattr(bounds, "_sigma_in_alpha", flipped)
        witness = "LL sigma gap wrong at alpha=1/4, beta=1/4"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_perturbed_ll_alpha_squared_coefficient_fails_at_the_same_point(
            self, monkeypatch):
        # The only degree-2 term: the int Horner weights it by n^2 where the
        # constant gets d^2.  A third does not divide any other denominator.
        stated = bounds._sigma_in_alpha

        def perturbed(tag, b, d):
            coefficients = stated(tag, b, d)
            if tag == "LL" and Fraction(b, d) == Fraction(1, 2):
                c0, c1, c2 = coefficients
                return c0, c1, c2 + Fraction(d * d, 3)
            return coefficients

        monkeypatch.setattr(bounds, "_sigma_in_alpha", perturbed)
        witness = "LL sigma gap wrong at alpha=1/4, beta=1/2"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_perturbed_constant_coefficient_fails_in_the_alpha_zero_row(
            self, monkeypatch):
        stated = bounds._sigma_in_alpha

        def perturbed(tag, b, d):
            coefficients = stated(tag, b, d)
            if tag == "MM" and Fraction(b, d) == Fraction(3, 4):
                return (coefficients[0] + Fraction(d * d, 5),) + coefficients[1:]
            return coefficients

        monkeypatch.setattr(bounds, "_sigma_in_alpha", perturbed)
        witness = "sigma relation failed for MM at alpha=0, beta=3/4"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_changed_inverse_triple_fails_at_the_same_point(self, monkeypatch):
        stated = classes.inverse_triple
        target = classes.triple(ClassSpec("M", Fraction(3, 4)))

        def changed(t):
            u = stated(t)
            return ClassTriple(u.p, u.q, u.r + 1) if t == target else u

        monkeypatch.setattr(solver, "inverse_triple", changed)
        monkeypatch.setattr(harness, "inverse_triple", changed)
        witness = "sigma relation failed for PM at alpha=0, beta=3/4"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_first_failure_is_first_in_alpha_major_order(self, monkeypatch):
        # A changed row (P at alpha = 1/2) and a changed column (M at
        # beta = 3/4): alpha-major and beta-major order meet different
        # failures first.
        stated, stated_inverse = classes.triple, classes.inverse_triple
        row = ClassSpec("P", Fraction(1, 2))
        column = stated(ClassSpec("M", Fraction(3, 4)))

        def changed(spec):
            t = stated(spec)
            return ClassTriple(t.p, t.q, t.r + 1) if spec == row else t

        def changed_inverse(t):
            u = stated_inverse(t)
            return ClassTriple(u.p, u.q, u.r + 1) if t == column else u

        for module in (solver, harness):
            monkeypatch.setattr(module, "triple", changed)
            monkeypatch.setattr(module, "inverse_triple", changed_inverse)
        witness = "sigma relation failed for PP at alpha=0, beta=1/2"
        assert sigma_relations_per_point() == witness
        assert sigma_relations_witness() == witness

    def test_one_triple_per_row_and_column(self, monkeypatch):
        calls = {"triple": 0, "integer_ratios": 0}
        for name in calls:
            original = getattr(harness, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(harness, name, counted)
        assert sigma_relations_witness() is None
        tags, side = len(THEOREM_TAGS), 5
        # One triple, and one reduction of its q and r, per row and column.
        assert calls == {"triple": tags * 2 * side,
                         "integer_ratios": tags * 2 * side}
