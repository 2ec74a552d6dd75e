"""Independent oracles for the series-engine and printed-bound tests.

Plain-list truncated polynomial arithmetic, written without touching
bibounds.series: only the scalar types are shared, so an engine bug cannot
hide in its own oracle.  All routines take coefficient lists c[0..order]
and return lists of the same length.

The printed statements of the six pairings, term by term as the literature
states them (sigma, the |a2| brackets, the |a3| right sides and the PM
worked-display variant); ``bibounds.bounds`` evaluates the same statements
through per-side factors.  The generic bounds, in Fractions straight from
the closed forms that the ``bibounds.solver`` docstring states; the package
computes them on int numerators over per-side denominators.
"""

from fractions import Fraction

from bibounds import QComplex
from bibounds.classes import ClassSpec, inverse_triple, triple


def _zero_like(c):
    return c[0] * 0


def poly_pad(c, order):
    zero = _zero_like(c)
    out = list(c[: order + 1])
    out += [zero] * (order + 1 - len(out))
    return out


def poly_add(a, b, order):
    a = poly_pad(a, order)
    b = poly_pad(b, order)
    return [x + y for x, y in zip(a, b)]


def poly_mul(a, b, order):
    zero = _zero_like(a)
    out = [zero] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1]):
            if i + j > order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def poly_pow(a, n, order):
    result = poly_pad([a[0] * 0 + 1], order)
    for _ in range(n):
        result = poly_mul(result, a, order)
    return result


def poly_compose(outer, inner, order):
    """outer(inner(z)) to the given order; inner[0] must be zero."""
    assert not inner[0], "inner constant term must vanish"
    result = poly_pad([outer[min(order, len(outer) - 1)]], order)
    for k in range(min(order, len(outer) - 1) - 1, -1, -1):
        result = poly_mul(result, inner, order)
        result[0] = result[0] + outer[k]
    return result


def poly_reciprocal(a, order):
    """1/a via the Neumann sum over e = a/a0 - 1 (nilpotent to order)."""
    lead = a[0]
    assert lead, "reciprocal needs a nonzero constant term"
    e = [c / lead for c in poly_pad(a, order)]
    e[0] = e[0] - 1
    term = poly_pad([e[0] * 0 + 1], order)
    acc = list(term)
    for _ in range(order):
        term = [-c for c in poly_mul(term, e, order)]
        acc = poly_add(acc, term, order)
    return [c / lead for c in acc]


def poly_exp(s, order):
    """exp(s) = sum s^k / k! for vanishing constant term."""
    assert not s[0], "exp oracle needs a vanishing constant term"
    acc = poly_pad([s[0] * 0 + 1], order)
    term = list(acc)
    factorial = 1
    for k in range(1, order + 1):
        term = poly_mul(term, s, order)
        factorial *= k
        acc = poly_add(acc, [c / factorial for c in term], order)
    return acc


def poly_log(u, order):
    """log(u) = sum (-1)^(k+1) e^k / k over e = u - 1, for u[0] = 1."""
    e = poly_pad(u, order)
    assert e[0] == e[0] * 0 + 1, "log oracle needs constant term 1"
    e[0] = e[0] - 1
    term = poly_pad([e[0] * 0 + 1], order)
    acc = poly_pad([e[0] * 0], order)
    sign = 1
    for k in range(1, order + 1):
        term = poly_mul(term, e, order)
        acc = poly_add(acc, [sign * c / k for c in term], order)
        sign = -sign
    return acc


def poly_pow_unit(u, t, order):
    """u**t = exp(t log u) for u[0] = 1 and scalar t."""
    return poly_exp([t * c for c in poly_log(u, order)], order)


def lagrange_revert(f, order):
    """Compositional inverse by the Lagrange inversion formula.

    g_n = [z^(n-1)] (z/f)^n / n on plain lists, with the Neumann-sum
    reciprocal.  ``TruncatedSeries.revert`` uses the same formula, so this
    oracle checks the engine's arithmetic, not its algorithm; the round trips
    g(f(z)) = f(g(z)) = z are the independent check.
    """
    assert not f[0] and f[1], "reversion needs f(0) = 0, f'(0) != 0"
    h = poly_pad(f[1:], order)  # f/z
    recip = poly_reciprocal(h, order)
    g = [f[0] * 0, f[0] * 0]
    power = list(recip)
    g[1] = power[0]
    for n in range(2, order + 1):
        power = poly_mul(power, recip, order)
        g.append(power[n - 1] / n)
    return poly_pad(g, order)


def rational(num, den=1):
    return Fraction(num, den)


def qc(re_num, re_den=1, im_num=0, im_den=1):
    return QComplex(Fraction(re_num, re_den), Fraction(im_num, im_den))


# ----------------------------------------------------------------------
# printed statements, verbatim

# Multiplier of sigma |a3| on the left side of each stated |a3| inequality.
STATEMENT_A3_MULTIPLIER = {"PP": 2, "PM": 2, "PL": 1, "MM": 2, "ML": 1, "LL": 2}


def statement_sigma(tag, a, b):
    """The stated sigma polynomial."""
    if tag == "PP":
        return 2 + 7 * a + 7 * b + 24 * a * b
    if tag == "PM":
        return 2 + 7 * a + 3 * b + 11 * a * b
    if tag == "PL":
        return 10 + 36 * a - 7 * b - 25 * a * b + b * b + 3 * a * b * b
    if tag == "MM":
        return 2 + 3 * a + 3 * b + 4 * a * b
    if tag == "ML":
        return 10 + 14 * a - 7 * b + b * b + 2 * a * b * b - 10 * a * b
    return (
        24 + 3 * a * a + 3 * b * b - 17 * a - 17 * b
        - 2 * b * a * a - 2 * a * b * b - 12 * a * b
    )


def statement_a2_brackets(tag, a, b, B1, B2, D1, D2):
    """The |a2| numerator bracket and the sigma-free part R of the denominator.

    The denominator bracket is sigma B1^2 D1^2 - R.
    """
    if tag == "PP":
        num = B1 * (1 + 3 * b) + D1 * (1 + 3 * a)
        rest = (
            (1 + 2 * a) ** 2 * (1 + 3 * b) * (B2 - B1) * D1**2
            + (1 + 2 * b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "PM":
        num = B1 * (1 + 2 * b) + D1 * (1 + 3 * a)
        rest = (
            (1 + 2 * a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            + (1 + b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "PL":
        num = 2 * (B1 * (3 - 2 * b) + D1 * (1 + 3 * a))
        rest = (
            2 * (1 + 2 * a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            + 2 * (2 - b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "MM":
        num = B1 * (1 + 2 * b) + D1 * (1 + 2 * a)
        rest = (
            (1 + a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
            + (1 + b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    if tag == "ML":
        num = 2 * (B1 * (3 - 2 * b) + D1 * (1 + 2 * a))
        rest = (
            2 * (1 + a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
            + 2 * (2 - b) ** 2 * (1 + 2 * a) * (D2 - D1) * B1**2
        )
        return num, rest
    num = 2 * (B1 * (3 - 2 * b) + D1 * (3 - 2 * a))
    rest = (
        2 * (2 - a) ** 2 * (3 - 2 * b) * (B2 - B1) * D1**2
        + 2 * (2 - b) ** 2 * (3 - 2 * a) * (D2 - D1) * B1**2
    )
    return num, rest


def statement_pm_display_brackets(a, b, B1, B2, D1, D2):
    """PM's |a2| brackets per the worked display: (1+2b)^2 on the |D2-D1| term."""
    num = B1 * (1 + 2 * b) + D1 * (1 + 3 * a)
    rest = (
        (1 + 2 * a) ** 2 * (1 + 2 * b) * (B2 - B1) * D1**2
        + (1 + 2 * b) ** 2 * (1 + 3 * a) * (D2 - D1) * B1**2
    )
    return num, rest


def statement_a3_rhs(tag, a, b, B1, B2, D1, D2):
    """The right side of the stated |a3| inequality."""
    if tag == "PP":
        return (
            B1 * (3 + 10 * b) + D1 * (1 + 2 * a)
            + (3 + 10 * b) * abs(B2 - B1)
            + (1 + 2 * b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PM":
        return (
            B1 * (3 + 5 * b) + D1 * (1 + 2 * a)
            + (3 + 5 * b) * abs(B2 - B1)
            + (1 + b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "PL":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly / 2 + D1 * (1 + 2 * a)
            + poly * abs(B2 - B1) / 2
            + (2 - b) ** 2 * B1**2 * abs(D2 - D1) / (D1**2 * (1 + 2 * a))
        )
    if tag == "MM":
        return (
            B1 * (3 + 5 * b) + D1 * (1 + 3 * a)
            + (3 + 5 * b) * abs(B2 - B1)
            + (1 + b) ** 2 * (1 + 3 * a) * B1**2 * abs(D2 - D1)
            / (D1**2 * (1 + a) ** 2)
        )
    if tag == "ML":
        poly = b * b - 11 * b + 16
        return (
            B1 * poly / 2 + D1 * (1 + 3 * a)
            + poly * abs(B2 - B1) / 2
            + (2 - b) ** 2 * (1 + 3 * a) * B1**2 * abs(D2 - D1)
            / (D1**2 * (1 + a) ** 2)
        )
    poly = b * b - 11 * b + 16
    return (
        B1 * poly + D1 * (8 - 5 * a - a * a)
        + poly * abs(B2 - B1)
        + (2 - b) ** 2 * (a * a + 5 * a - 8) * B1**2 * abs(D2 - D1)
        / (D1**2 * (2 - a) ** 2)
    )


def statement_a2_sq(brackets, sigma, B1, D1):
    """B1^2 D1^2 num / |sigma B1^2 D1^2 - R|, or None when that vanishes."""
    num, rest = brackets
    den = sigma * B1**2 * D1**2 - rest
    return None if den == 0 else B1**2 * D1**2 * num / abs(den)


def statement_a3_value(tag, a, b, B1, B2, D1, D2, sigma):
    """The stated |a3| bound rhs / (multiplier |sigma|), or None at sigma = 0."""
    if sigma == 0:
        return None
    rhs = statement_a3_rhs(tag, a, b, B1, B2, D1, D2)
    return rhs / (STATEMENT_A3_MULTIPLIER[tag] * abs(sigma))


# ----------------------------------------------------------------------
# generic bounds, from the solver's closed forms


def generic_reference(tag, a, b, B1, B2, D1, D2):
    """(sigma_tilde, |a2|^2 bound, |a3| bound) of the unified elimination.

    With (p, q, r) the function-side triple and (p', q', r') the inverse-side
    triple (r' = 2 q' - r_G):

        sigma_tilde = q r' - q' r
        DEN   = sigma_tilde - q' p^2 (B2 - B1)/B1^2 - q p'^2 (D2 - D1)/D1^2
        kappa = p' B1 / (p D1)
        g2 = q' B1 / (2 DEN),  d2 = q D1 / (2 DEN)
        gx = r' / sigma_tilde, gy = r / sigma_tilde

    and the bounds are |a2|^2 <= 2 |g2| + 2 |d2| and |a3| <= |gx| (B1 + |B2 -
    B1|) + |gy| (D1 + kappa^2 |D2 - D1|); each is None where DEN or
    sigma_tilde vanishes.
    """
    tf = triple(ClassSpec(tag[0], a))
    tg = inverse_triple(triple(ClassSpec(tag[1], b)))
    p, q, r = tf.p, tf.q, tf.r
    pg, qg, rg = tg.p, tg.q, tg.r
    sigma_tilde = q * rg - qg * r
    den = sigma_tilde - qg * p**2 * (B2 - B1) / B1**2 - q * pg**2 * (D2 - D1) / D1**2
    kappa = pg * B1 / (p * D1)
    a2_sq = a3 = None
    if den != 0:
        g2, d2 = qg * B1 / (2 * den), q * D1 / (2 * den)
        a2_sq = 2 * abs(g2) + 2 * abs(d2)
    if sigma_tilde != 0:
        gx, gy = rg / sigma_tilde, r / sigma_tilde
        a3 = abs(gx) * (B1 + abs(B2 - B1)) + abs(gy) * (D1 + kappa**2 * abs(D2 - D1))
    return sigma_tilde, a2_sq, a3


def compare_reference(printed, derived, rel_tol):
    """The audit's compare rule on Fractions (or None): True flags a mismatch.

    An exact difference flags when it exceeds rel_tol * max(|printed|,
    |derived|), that product taken as Fraction arithmetic takes it.
    """
    if printed is None or derived is None:
        return (printed is None) != (derived is None)
    if printed == derived:
        return False
    return abs(printed - derived) > rel_tol * max(abs(printed), abs(derived))
