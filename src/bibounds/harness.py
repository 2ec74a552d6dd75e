"""Extremal sweeps and end-to-end consistency checks.

The sweeps maximize the closed-form |a2| and |a3| of
:func:`bibounds.solver.closed_forms` over the relaxed coefficient region
(independent moduli |c1|, |c2|, |b2| <= 2, with b1 linked).  That region is
what the bound derivations actually use.  On every valid pairing the two
addends of a2^2 have coefficients of one sign, and so do those of a3 in c2
and b2, so an exact corner is the supremum: c2 = b2 = 2 for |a2|, which
therefore attains its bound on every non-degenerate pairing, and c1 = 2,
c2 = b2 = +-2 for |a3|, whose sweep only reports the gap.  The sweeps
evaluate those corners and build no grid, so they take no grid settings;
the tests hold them against full numpy grids of their own sizes.

``end_to_end`` runs the whole pipeline on a genuine positive-real-part
sample: forward solve, inversion, inverse-side functional through the series
engine, extraction of the implied (b1, b2), and the linkage/residual
identities.  Whether |b1|, |b2| <= 2 actually holds for the sample is
reported informationally, never asserted.

``run_identity_suites`` packages the algebraic identity checks behind the
CLI ``verify`` command; each check reports its first failure witness.  In
float mode every check compares with :data:`VERIFY_TOL`, relative and
absolute alike.  The ``bounds`` suite is exact whatever the mode: its two
checks compare rationals with equality.  ``sigma_relations`` also ignores
the sample count, as it always checks the same 150 points: the six
pairings on the 5 x 5 grid of quarters, with the printed sigma evaluated
by :mod:`bibounds.bounds` itself.  The sample count is an int capped at
:data:`MAX_SAMPLES`.

``check_bounds_random`` takes an int sample count up to
:data:`MAX_RANDOM_SAMPLES`, checked before numpy loads.  It draws all its
uniforms in one ``random((6, n))`` call, the stream of six ``random(n)``
calls, and evaluates them in fixed blocks of 2,048 samples.  Each block's
temporaries are 32 KiB, small enough that the allocator reuses the heap
rather than mapping fresh pages on every call, so a check takes the same
time whatever ran before it, and the report equals one pass over all n, bit
for bit.  numpy is imported inside the random check, the only code that
uses it, so no CLI command loads it.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .series import (
    EXACT,
    FLOAT,
    TruncatedSeries,
    _count,
    _reduced,
    agree,
)
from .classes import (
    CLASS_KINDS,
    ClassSpec,
    MindaTarget,
    SchlichtCoeffs,
    SchwarzParams,
    _seed,
    _within_disk,
    brief,
    expansion_f,
    expansion_g,
    functional,
    inverse_triple,
    invert_schlicht,
    sample_caratheodory,
    subordinate_compose,
    triple,
)
from .solver import (
    PairSpec,
    closed_forms,
    consistency_residual,
    eliminate,
    elimination_denominator,
    implied_b2,
    integer_ratios,
    inverse_residual,
    linked_b1,
    solve_forward,
)
from . import bounds as _bounds

ATTAIN_TOL = 1e-9

# The smallest normal float: the sweeps' absolute floor.
_TINY = sys.float_info.min

# Float tolerance of the identity suites.  Their checks cancel terms of size
# 1e2..1e3 (quotient coefficients, the a2^2 chain) down to about 1e-2, so
# roundoff reaches a few 1e-13 there; 1e-9 clears that by far and still
# catches a relative error of 1e-6 in any coefficient.  The checks compare
# through these two helpers, relative and absolute alike.
VERIFY_TOL = 1e-9


def _agree(x, y, mode):
    return agree(x, y, mode, VERIFY_TOL, VERIFY_TOL)


def _agrees_with(a, b):
    return a.agrees_with(b, VERIFY_TOL, VERIFY_TOL)


# run_identity_suites' defaults, which the CLI ``verify`` shares.
VERIFY_SEED = 7
VERIFY_SAMPLES = 60

# Most samples per check.  Exact ``--suite all`` takes about 2.5 ms a sample
# (Python 3.11 on a shared 2-vCPU Xeon), so the cap is about 25 s of work.
MAX_SAMPLES = 10_000

# Most samples per random check.  Its one draw takes 48 bytes a sample, 48 MB
# at the cap, where a check takes about 0.3 s (shared 2-vCPU Xeon).
MAX_RANDOM_SAMPLES = 1_000_000

# end_to_end's sample mixes this many rotation kernels, at the default order.
END_TO_END_KERNELS = 3

# The consistency chain gives up after this many draws per accepted sample
# (acceptance is at least 0.7 in practice).
CHAIN_DRAWS_PER_SAMPLE = 20


class DegeneratePairError(ValueError):
    """The pairing's DEN vanishes (its sigma_tilde cannot: that is positive)."""


class BoundViolationError(RuntimeError):
    """A sweep or random check exceeded its bound beyond tolerance."""


SweepResult = namedtuple(
    "SweepResult", "quantity max_value argmax bound gap attained")


def _exceeds(value, limit) -> bool:
    # The sweeps' and the random check's one rule: 1e-9 relative, with the
    # smallest normal float as the floor, so it holds at every scale.
    return value > limit * (1 + ATTAIN_TOL) + _TINY


def _sweep_result(quantity, bound, best, best_params):
    """Settle a sweep at its exact corner ``best``, the supremum."""
    if _exceeds(best, bound):
        raise BoundViolationError(
            f"{quantity} sweep exceeded its bound: max {best!r} vs "
            f"bound {bound!r}"
        )
    return SweepResult(quantity, best, best_params, bound, bound - best,
                       not _exceeds(bound, best))


def sweep_a2(pair: PairSpec) -> SweepResult:
    """Maximize |a2| over the relaxed region and report the gap to the bound.

    a2^2 = g2 c2 + d2 b2 with g2 d2 > 0 and no c1, so the aligned corner
    c2 = b2 = 2 is the maximum, and it attains the bound.
    """
    if elimination_denominator(pair) == 0:
        raise DegeneratePairError("a2 sweep needs a non-degenerate pairing")
    corner_sq = closed_forms(pair, 0, 2, 2).a2_squared  # exact
    return _sweep_result(
        "a2", _bounds.generic_a2_bound(pair), math.sqrt(float(abs(corner_sq))),
        SchwarzParams(0.0, 2.0, 2.0),
    )


def sweep_a3(pair: PairSpec) -> SweepResult:
    """Maximize |a3| over the relaxed region, c1 phases included.

    a3 = (gx B1 / 2) c2 + (gy D1 / 2) b2 + W c1^2 with gx gy > 0, so the
    maximum sits at c1 = 2 and c2 = b2 = 2 sign(W gx), the larger of the two
    exact corners c2 = b2 = +-2.  Attainment of the bound is not asserted
    (the triangle inequality in the bound need not be tight when the two
    second-coefficient gaps pull apart).
    """
    analytic, sign = max(
        (abs(closed_forms(pair, 2, 2 * s, 2 * s).a3), s) for s in (1, -1)
    )
    return _sweep_result(
        "a3", _bounds.generic_a3_bound(pair), float(analytic),
        SchwarzParams(2.0, 2.0 * sign, 2.0 * sign),
    )


# Samples per block of the random check: each complex temporary is 32 KiB,
# below glibc's 128 KiB mmap threshold, so it comes from the heap that the
# previous block freed.  1,024 costs more per-block overhead; from 4,096 up
# the time again depends on whether an earlier large free raised the
# threshold.
_RANDOM_BLOCK = 2048

RandomCheckReport = namedtuple(
    "RandomCheckReport", "samples a2_bound a3_bound max_a2_ratio max_a3_ratio")


def check_bounds_random(pair: PairSpec, seed: int, n: int) -> RandomCheckReport:
    """n pseudo-random admissible draws; verify neither bound is exceeded.

    One ``random((6, n))`` call draws the radius and phase rows of c1, c2
    and b2, the same stream as six ``random(n)`` calls.  The transforms,
    :func:`closed_forms` and the two maxima then run over blocks of
    :data:`_RANDOM_BLOCK` samples, whose temporaries the allocator reuses
    instead of mapping fresh pages on every call, so a call takes the same
    time whatever ran before it.  The elementwise operations are those of
    one pass over all n, so the report is the same, bit for bit.

    The seed must be an int (not a bool) of at least 0, and n an int from 0
    to :data:`MAX_RANDOM_SAMPLES`; both are checked before numpy is loaded.
    Raises :class:`BoundViolationError` past bound * (1 + 1e-9) plus the
    smallest normal float.
    """
    _seed(seed)
    if _count(n, "sample count") < 0:
        raise ValueError(f"sample count must be at least 0, got {brief(n)}")
    if n > MAX_RANDOM_SAMPLES:
        raise ValueError(
            f"sample count must be at most {MAX_RANDOM_SAMPLES}, got {brief(n)}")
    import numpy as np

    if elimination_denominator(pair) == 0:
        raise DegeneratePairError("random check needs a non-degenerate pairing")
    a2_bound = _bounds.generic_a2_bound(pair)
    a3_bound = _bounds.generic_a3_bound(pair)
    if n == 0:
        return RandomCheckReport(0, a2_bound, a3_bound, 0.0, 0.0)

    draws = np.random.default_rng(seed).random((6, n))
    top_a2_sq = top_a3 = 0.0
    for start in range(0, n, _RANDOM_BLOCK):
        block = draws[:, start:start + _RANDOM_BLOCK]
        c1, c2, b2 = (
            2.0 * np.sqrt(block[row]) * np.exp(2j * math.pi * block[row + 1])
            for row in (0, 2, 4)
        )
        forms = closed_forms(pair, c1, c2, b2)
        top_a2_sq = np.abs(forms.a2_squared).max(initial=top_a2_sq)
        top_a3 = np.abs(forms.a3).max(initial=top_a3)
    max_a2 = math.sqrt(float(top_a2_sq))
    max_a3 = float(top_a3)
    if _exceeds(max_a2, a2_bound):
        raise BoundViolationError(f"|a2| sample {max_a2} exceeds bound {a2_bound}")
    if _exceeds(max_a3, a3_bound):
        raise BoundViolationError(f"|a3| sample {max_a3} exceeds bound {a3_bound}")
    return RandomCheckReport(
        n, a2_bound, a3_bound, max_a2 / a2_bound, max_a3 / a3_bound
    )


EndToEndReport = namedtuple(
    "EndToEndReport",
    "a2 a3 b1 b2 b1_matches_linkage closed_forms_match residual "
    "subordination_plausible degenerate")


def end_to_end(
    pair: PairSpec,
    seed: int,
    mode: str = EXACT,
    p_series: TruncatedSeries | None = None,
) -> EndToEndReport:
    """Forward solve, invert, and recover the inverse-side Schwarz data.

    The implied b1 must equal the linkage value and the closed forms must
    reproduce the forward coefficients; both are algebraic identities,
    independent of whether the sample really keeps |b1|, |b2| <= 2 (that is
    reported in ``subordination_plausible``).  The seed, read only when no
    ``p_series`` is given, must be an int (not a bool) of at least 0.
    """
    if p_series is None:
        p_series = sample_caratheodory(seed, END_TO_END_KERNELS, mode=mode)
    a2, a3 = solve_forward(pair.class_f, pair.phi, p_series)
    c1, c2 = p_series.coeffs[1:3]
    g2, g3 = invert_schlicht(a2, a3)
    inverse_side = functional(
        pair.class_g, SchlichtCoeffs([g2, g3]), mode=mode
    )
    e1 = inverse_side.coeffs[1]
    e2 = inverse_side.coeffs[2]
    D1, D2 = pair.psi.B1, pair.psi.B2
    b1 = 2 * e1 / D1
    b2 = b1 * b1 / 2 + (e2 - D2 * b1 * b1 / 4) * 2 / D1

    b1_ok = agree(b1, linked_b1(pair, c1), mode)

    # The extracted b1, not the linkage value, goes into Y.
    forms = closed_forms(pair, c1, c2, b2, b1=b1)
    degenerate = forms.a2_squared is None
    closed_match = False
    residual = None
    if not degenerate:
        residual = inverse_residual(pair, forms.a2_squared, forms.a3, forms.y)
        a2_ok = agree(forms.a2_squared, a2 * a2, mode)
        closed_match = a2_ok and agree(forms.a3, a3, mode)
    plausible = _within_disk(b1) and _within_disk(b2)
    return EndToEndReport(
        a2=a2,
        a3=a3,
        b1=b1,
        b2=b2,
        b1_matches_linkage=b1_ok,
        closed_forms_match=closed_match,
        residual=residual,
        subordination_plausible=plausible,
        degenerate=degenerate,
    )


# ----------------------------------------------------------------------
# identity suites behind the CLI verify command


CheckResult = namedtuple("CheckResult", "name passed witness")


def _rand_fraction(rng, span=8, den=6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_scalar(rng, mode):
    if mode == EXACT:
        # The four draws of QComplex(_rand_fraction(rng), _rand_fraction(rng)),
        # in the same order, over b * d: lowest terms are unique, so the
        # normaliser gives the same scalar without the two Fractions.
        a, b = rng.randint(-8, 8), rng.randint(1, 6)
        c, d = rng.randint(-8, 8), rng.randint(1, 6)
        return _reduced(a * d, c * b, b * d)
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def _rand_series(rng, mode, order=6, constant=None):
    coeffs = [_rand_scalar(rng, mode) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return TruncatedSeries(coeffs, mode=mode, order=order)


def _rand_spec(rng) -> ClassSpec:
    kind = rng.choice(CLASS_KINDS)
    if kind == "L":
        return ClassSpec(kind, Fraction(rng.randint(0, 8), 8))
    return ClassSpec(kind, Fraction(rng.randint(0, 16), 8))


def _rand_target(rng) -> MindaTarget:
    b1 = Fraction(rng.randint(1, 12), 4)
    b2 = Fraction(rng.randint(-12, 12), 4)
    return MindaTarget([b1, b2])


def _rand_pair(rng, tag=None) -> PairSpec:
    if tag is None:
        tag = rng.choice(_bounds.THEOREM_TAGS)
    alpha = Fraction(rng.randint(0, 8), 8)
    beta = Fraction(rng.randint(0, 8), 8)
    return _bounds.theorem_pair(tag, alpha, beta, _rand_target(rng), _rand_target(rng))


def _check_series_ring(rng, mode, samples):
    for _ in range(samples):
        a = _rand_series(rng, mode)
        b = _rand_series(rng, mode)
        if not _agrees_with(a * b, b * a):
            return f"commutativity failed for {a!r}, {b!r}"
        c = _rand_series(rng, mode)
        if not _agrees_with((a * b) * c, a * (b * c)):
            return f"associativity failed for {a!r}, {b!r}, {c!r}"
        nz = _rand_series(rng, mode, constant=1)
        if not _agrees_with((a / nz) * nz, a):
            return f"div/mul round trip failed for {a!r}, {nz!r}"
    return None


def _check_product_rule(rng, mode, samples):
    for _ in range(samples):
        a = _rand_series(rng, mode)
        b = _rand_series(rng, mode)
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        if not _agrees_with(lhs, rhs):
            return f"product rule failed for {a!r}, {b!r}"
    return None


def _check_pow_additivity(rng, mode, samples):
    for _ in range(samples):
        a = _rand_series(rng, mode, constant=1)
        if mode == EXACT:
            s = _rand_fraction(rng, span=4, den=4)
            t = _rand_fraction(rng, span=4, den=4)
        else:
            s = rng.uniform(-1.5, 1.5)
            t = rng.uniform(-1.5, 1.5)
        lhs = a.pow_unit(s) * a.pow_unit(t)
        rhs = a.pow_unit(s + t)
        if not _agrees_with(lhs, rhs):
            return f"power additivity failed for {a!r}, s={s}, t={t}"
    return None


def _check_reversion(rng, mode, samples):
    for _ in range(samples):
        order = 8
        coeffs = [0, 1] + [_rand_scalar(rng, mode) for _ in range(order - 1)]
        f = TruncatedSeries(coeffs, mode=mode, order=order)
        g = f.revert()
        ident = TruncatedSeries.var(order=order, mode=mode)
        if not _agrees_with(g.compose(f), ident):
            return f"reversion round trip failed for {f!r}"
        a2, a3 = f.coeffs[2], f.coeffs[3]
        if not (_agree(g.coeffs[2], -a2, mode)
                and _agree(g.coeffs[3], 2 * a2 * a2 - a3, mode)):
            return f"cubic inverse prefix failed for {f!r}"
    return None


def _check_expansions(side, rng, mode, samples):
    # The series-engine functional on f ("forward") or on its inverse
    # ("inverse") against the matching closed form.
    inverse = side == "inverse"
    for _ in range(samples):
        spec = _rand_spec(rng)
        a2 = _rand_scalar(rng, mode)
        a3 = _rand_scalar(rng, mode)
        coeffs = invert_schlicht(a2, a3) if inverse else (a2, a3)
        series = functional(spec, SchlichtCoeffs(coeffs), mode=mode)
        e1, e2 = (expansion_g if inverse else expansion_f)(triple(spec), a2, a3)
        if not (_agree(series.coeffs[1], e1, mode)
                and _agree(series.coeffs[2], e2, mode)):
            return f"{side} expansion failed for {spec!r}, a2={a2!r}, a3={a3!r}"
    return None


def _check_subordination_form(rng, mode, samples):
    for _ in range(samples):
        target = _rand_target(rng)
        c1 = _rand_scalar(rng, mode)
        c2 = _rand_scalar(rng, mode)
        p = TruncatedSeries([1, c1, c2], mode=mode, order=6)
        composed = subordinate_compose(target, p)
        B1, B2 = target.B1, target.B2
        want1 = B1 * c1 / 2
        want2 = B1 * (c2 - c1 * c1 / 2) / 2 + B2 * c1 * c1 / 4
        if not (_agree(composed.coeffs[1], want1, mode)
                and _agree(composed.coeffs[2], want2, mode)):
            return f"subordination form failed for {target!r}, c1={c1!r}, c2={c2!r}"
    return None


def _check_starlike_three_ways(rng, mode, samples):
    for _ in range(max(1, samples // 4)):
        coeffs = [_rand_scalar(rng, mode) for _ in range(5)]
        f = SchlichtCoeffs(coeffs)
        variants = [
            functional(ClassSpec("L", 1), f, mode=mode),
            functional(ClassSpec("M", 0), f, mode=mode),
            functional(ClassSpec("P", 0), f, mode=mode),
        ]
        base = variants[0]
        for other in variants[1:]:
            if not _agrees_with(base, other):
                return f"starlike functionals disagree for {f!r}"
    return None


_PRINTED_B1_LINKS = {
    "PP": lambda a, b: ((1 + 2 * b), (1 + 2 * a)),
    "PM": lambda a, b: ((1 + b), (1 + 2 * a)),
    "PL": lambda a, b: ((2 - b), (1 + 2 * a)),
    "MM": lambda a, b: ((1 + b), (1 + a)),
    "ML": lambda a, b: ((2 - b), (1 + a)),
    "LL": lambda a, b: ((2 - b), (2 - a)),
}


def _check_linkage(rng, mode, samples):
    for _ in range(samples):
        tag = rng.choice(_bounds.THEOREM_TAGS)
        pair = _rand_pair(rng, tag)
        c1 = _rand_scalar(rng, mode)
        got = linked_b1(pair, c1)
        top, bottom = _PRINTED_B1_LINKS[tag](pair.class_f.param, pair.class_g.param)
        want = -(pair.phi.B1 * top) / (pair.psi.B1 * bottom) * c1
        if not _agree(got, want, mode):
            return f"b1 linkage failed for {tag} {pair!r}"
    return None


def _check_consistency_chain(rng, mode, samples):
    made = 0
    attempts = CHAIN_DRAWS_PER_SAMPLE * samples
    for _ in range(attempts):
        pair = _rand_pair(rng)
        if elimination_denominator(pair) == 0:
            continue
        # Draws stay well inside the admissible region so that the implied
        # b2 usually lands inside it too.
        scale = Fraction(1, 16) if mode == EXACT else 0.25
        c1 = _rand_scalar(rng, mode) * scale
        c2 = _rand_scalar(rng, mode) * scale
        b2 = implied_b2(pair, c1, c2)
        if not _within_disk(b2):
            continue
        made += 1
        sp = SchwarzParams(c1, c2, b2)
        result = eliminate(pair, sp)
        tf = pair.triple_f()
        lhs = tf.q * result.a3 - tf.r * result.a2_squared
        if not _agree(lhs, result.rhs_f, mode):
            return f"forward equation not recovered for {pair!r}, sp={sp!r}"
        residual = consistency_residual(pair, sp, result)
        if mode == EXACT:
            if residual != 0.0:
                return f"nonzero residual {residual!r} for {pair!r}, sp={sp!r}"
        elif residual > VERIFY_TOL:
            return f"residual {residual!r} too large for {pair!r}, sp={sp!r}"
        a2, a3 = solve_forward(
            pair.class_f,
            pair.phi,
            TruncatedSeries([1, c1, c2], mode=mode, order=4),
        )
        if not (_agree(result.a2_squared, a2 * a2, mode)
                and _agree(result.a3, a3, mode)):
            return f"closed forms disagree with forward solve for {pair!r}"
        if made == samples:
            return None
    return f"only {made} of {samples} draws accepted in {attempts} attempts"


def _check_sigma_relations(rng, mode, samples):
    # Exact whatever the mode, and the same 5 x 5 grid whatever the samples.
    # Per tag, one function-side triple per alpha and one inverse-side triple
    # and set of printed sigma coefficients per beta, each triple's q and r
    # (all that the determinant reads) held once as int numerators over one
    # denominator.  Each point then costs one determinant, one Horner step
    # and one cross-multiplied comparison.  Alpha outer, beta inner, as the
    # first failure's witness depends on the order.
    grid = [Fraction(k, 4) for k in range(5)]
    for tag in _bounds.THEOREM_TAGS:
        scale = _bounds.SIGMA_SCALE[tag]
        rows = [integer_ratios(t.q, t.r)
                for t in (triple(ClassSpec(tag[0], a)) for a in grid)]
        columns = []
        for b in grid:
            t = inverse_triple(triple(ClassSpec(tag[1], b)))
            (q, r), den = integer_ratios(t.q, t.r)
            coefficients = _bounds._sigma_in_alpha(tag, b.numerator, b.denominator)
            columns.append((q, r, scale * den, coefficients, b.denominator ** 2))
        for a, ((qf, rf), f_den) in zip(grid, rows):
            n, d = a.numerator, a.denominator
            for b, (qg, rg, scaled_den, coefficients, c_den) in zip(grid, columns):
                printed, printed_den = _bounds._horner(coefficients, n, d)
                printed_den *= c_den
                # tilde / scale - printed, over f_den * scaled_den * printed_den
                gap = ((qf * rg - qg * rf) * printed_den
                       - printed * scaled_den * f_den)
                if tag == "LL":
                    # derived minus printed is 24 a b
                    expected = 24 * n * b.numerator * f_den * scaled_den * printed_den
                    if gap * d * b.denominator != expected:
                        return f"LL sigma gap wrong at alpha={a}, beta={b}"
                elif gap:
                    return f"sigma relation failed for {tag} at alpha={a}, beta={b}"
    return None


def _check_printed_vs_generic(rng, mode, samples):
    # Away from LL the printed and derived sigmas agree, so report's exact
    # comparison flags exactly the printed |a2| or |a3| that the derivation
    # does not reproduce.
    tags = [t for t in _bounds.THEOREM_TAGS if t != "LL"]
    for _ in range(samples):
        tag = rng.choice(tags)
        pair = _rand_pair(rng, tag)
        found = _bounds.report(tag, pair.class_f.param, pair.class_g.param,
                               pair.phi, pair.psi, rel_tol=0).discrepancies
        if found:
            return f"{found[0].field} bounds disagree for {tag} {pair!r}"
    return None


_SUITE_CHECKS = {
    "series": (
        ("series_ring_laws", _check_series_ring),
        ("series_product_rule", _check_product_rule),
        ("series_power_additivity", _check_pow_additivity),
        ("series_reversion", _check_reversion),
    ),
    "classes": (
        ("class_forward_expansion", partial(_check_expansions, "forward")),
        ("class_inverse_expansion", partial(_check_expansions, "inverse")),
        ("subordination_quadratic_form", _check_subordination_form),
        ("starlike_three_ways", _check_starlike_three_ways),
    ),
    "solver": (
        ("b1_linkage_printed_forms", _check_linkage),
        ("consistency_chain", _check_consistency_chain),
    ),
    "bounds": (
        ("sigma_relations", _check_sigma_relations),
        ("printed_vs_generic_bounds", _check_printed_vs_generic),
    ),
}

SUITE_NAMES = ("identities", "all") + tuple(_SUITE_CHECKS)


def run_identity_suites(
    suite: str = "identities",
    mode: str = EXACT,
    seed: int = VERIFY_SEED,
    samples: int = VERIFY_SAMPLES,
) -> list[CheckResult]:
    """Run the named identity suite; one CheckResult per check, in order.

    The seed, checked first, must be an int (not a bool) of at least 0.
    """
    _seed(seed)
    _count(samples, "samples")
    if suite == "identities":
        groups = ("series", "classes", "solver")
    elif suite == "all":
        groups = ("series", "classes", "solver", "bounds")
    elif suite in _SUITE_CHECKS:
        groups = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {brief(samples)}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {brief(samples)}")
    results = []
    for group in groups:
        for name, fn in _SUITE_CHECKS[group]:
            rng = random.Random(f"{seed}:{name}")
            witness = fn(rng, mode, samples)
            results.append(CheckResult(name, witness is None, witness))
    return results
