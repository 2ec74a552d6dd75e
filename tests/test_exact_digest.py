"""The exact kernels' values, pinned by one sha256 over 200 seeds.

Any change to how an exact series is stored or computed must leave every
coefficient the same rational, bit for bit.  The digest hashes ``(c.re,
c.im)`` of every coefficient of every result, in order.
"""

import hashlib
import random
from fractions import Fraction

from bibounds import EXACT, ClassSpec, SchlichtCoeffs, functional, target_preset
from bibounds.harness import _rand_scalar, _rand_series
from bibounds.series import TruncatedSeries

SEEDS = 200

DIGEST = "2cbfbf414ddddc47b6052c53790dc029edf5b5ee57b20ceaaa2c9250b6aaf777"


def _nonzero(rng):
    while not (value := _rand_scalar(rng, EXACT)):
        pass
    return value


def _results(seed):
    rng = random.Random(seed)
    a = _rand_series(rng, EXACT)
    b = _rand_series(rng, EXACT, constant=_nonzero(rng))
    inner = _rand_series(rng, EXACT, constant=0)
    unit = _rand_series(rng, EXACT, constant=1)
    t = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
    f = TruncatedSeries([0, _nonzero(rng), *inner.coeffs[2:]], mode=EXACT)
    values = SchlichtCoeffs([_rand_scalar(rng, EXACT) for _ in range(7)])
    alpha = Fraction(rng.randint(0, 8), 8)
    return [a * b, a / b, a.compose(inner), unit.pow_unit(t), f.revert(),
            *(functional(ClassSpec(kind, alpha), values, order=8) for kind in "PML")]


def _digest():
    h = hashlib.sha256()
    for seed in range(SEEDS):
        for series in _results(seed):
            h.update(repr([(c.re, c.im) for c in series.coeffs]).encode())
    h.update(repr(target_preset("strong:1/3").coefficients).encode())
    return h.hexdigest()


def test_exact_kernel_values_are_pinned():
    assert _digest() == DIGEST
