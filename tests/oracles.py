"""Independent oracles for the series-engine tests.

Plain-list truncated polynomial arithmetic, written without touching
bibounds.series: only the scalar types are shared, so an engine bug cannot
hide in its own oracle.  All routines take coefficient lists c[0..order]
and return lists of the same length.
"""

from fractions import Fraction

from bibounds import QComplex


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
