import random
from fractions import Fraction

import pytest

from bibounds import QComplex, TruncatedSeries


def rand_fraction(rng, span=6, den=6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_qc(rng, span=6, den=6) -> QComplex:
    return QComplex(rand_fraction(rng, span, den), rand_fraction(rng, span, den))


def rand_exact_series(rng, order=8, constant=None, den=4) -> TruncatedSeries:
    coeffs = [rand_qc(rng, span=4, den=den) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = QComplex(constant)
    return TruncatedSeries(coeffs, order=order)


# Seeds that the library's samplers refuse, each with its error.  Unchecked,
# None drew OS entropy, a negative int ran as its absolute value and True
# as 1.
BAD_SEEDS = [pytest.param(seed, error, message, id=repr(seed))
             for seed, error, message in (
                 (None, TypeError, "seed must be an int, got None"),
                 (True, TypeError, "seed must be an int, got True"),
                 (2.5, TypeError, "seed must be an int, got 2.5"),
                 ("x", TypeError, "seed must be an int, got 'x'"),
                 (-1, ValueError, "seed must be at least 0, got -1"),
                 (-5, ValueError, "seed must be at least 0, got -5"),
             )]


@pytest.fixture
def rng():
    return random.Random(20240817)
