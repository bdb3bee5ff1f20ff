"""Degenerate Bell polynomials and exact-rational Dobinski-style series.

The polynomial side is plain bookkeeping over the Stirling rows.  The
series side sums infinite expansions such as

    phi(x) = exp(-x) * sum_k  P(k) x^k / k!

in exact rational arithmetic with a certified truncation error: every
result carries a tail_bound that rigorously dominates the difference to
the infinite sum.  The bound comes from a per-term ratio majorant that is
provably decreasing, so once it drops below 1/2 the tail is geometric.

Each series is summed in integers over one running denominator (scale *
q^k * k!, with x = p/q), and so is the exp(-x) factor; the two are combined
and the error budget checked by int cross-multiplication, so the only
reductions are the two that build the value and the tail_bound.  These are
the same rationals a term-by-term Fraction sum gives.  The balanced series
dobinski_rr is the s = r case of dobinski_eval, not a second copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    XPoly,
    _add,
    _cleared,
    _convolve,
    _degenerate_exp,
    _lambda_polys,
    _mul,
    _require,
    _require_at_least,
    _require_rs,
    as_rational,
    falling_scalar,
)
from .stirling import family_row

__all__ = [
    "DobinskiResult",
    "bell_rs_poly",
    "r_bell_poly",
    "r_bell_recurrence",
    "dobinski_eval",
    "dobinski_rr",
    "gamma_formula_classical",
]

def bell_rs_poly(n: int, r: int, s: int) -> XPoly:
    """Degenerate (r, s)-Bell polynomial: sum_k S(n, k) x^k over the row
    k = 0..n*s.  The n = 0 polynomial is the empty product, 1."""
    _require_at_least("n", n, 0)
    _require_rs(r, s)
    if n == 0:
        return XPoly.one()
    return XPoly(family_row("stirling-rs", n, r, s).coefficients)


def r_bell_poly(n: int, r: int) -> XPoly:
    """Degenerate shifted Bell polynomial: sum_k c_k x^k where c_k is the
    coefficient of (x)_k in (x+r)_{n,l}."""
    return XPoly(family_row("r-stirling", n, r).coefficients)


def r_bell_recurrence(n: int, r: int) -> tuple[XPoly, XPoly]:
    """Two independent convolution forms for the next shifted Bell
    polynomial; both must equal r_bell_poly(n+1, r).

    form_a = sum_k C(n,k) (-l)_{n-k,l} (x phi_k^(r+1) + r phi_k^(r))
    form_b = sum_k C(n,k) (r (-l)_{k,l} + x (1-l)_{k,l}) phi_{n-k}^(r)

    with (-l)_{j,l} = j! (-l)^j.  Both are binomial convolutions of series
    entries, built in algebra's int (x, l) lists like serieslab's products.
    """
    _require_at_least("n", n, 0)
    _require_at_least("r", r, 0)
    # the shifted Bell rows have int coefficients, so the cleared
    # denominator is 1; [[], *p] is x p
    phi, phi_next = ([_cleared(r_bell_poly(k, s).coeffs)[0] for k in range(n + 1)]
                     for s in (r, r + 1))
    neg, one_minus = _degenerate_exp([[0, -1]], n), _degenerate_exp([[1, -1]], n)
    form_a = _convolve(neg, [_add([[], *q], _mul(p, [[r]])) for p, q in zip(phi, phi_next)], n)
    form_b = _convolve([_add(_mul(a, [[r]]), [[], *b]) for a, b in zip(neg, one_minus)], phi, n)
    return XPoly(_lambda_polys(form_a)), XPoly(_lambda_polys(form_b))


@dataclass(frozen=True)
class DobinskiResult:
    """Truncated series value with a certified error bound.

    tail_bound rigorously dominates |value - infinite sum| and is at most
    the requested tolerance; terms_used counts main-series terms summed.
    """

    value: Fraction
    terms_used: int
    tail_bound: Fraction


def _sum_series(coeff, p: int, q: int, scale: int, k0: int,
                bn: int, bd: int) -> tuple[int, int, int, int]:
    """Sum t_k = coeff(k) p^k / (scale q^k k!) from k = 0 upward, in
    integers over one running denominator.

    num/den is the partial sum with den = scale q^k k!: each step scales both
    by q k and adds a_k = coeff(k) p^k, so t_k = a_k/den and nothing is
    reduced.  The caller guarantees |t_{k+1}/t_k| <= 1/2 for every k >= k0.
    Once k >= k0 and the current term is within the budget bn/bd, the
    remaining tail is dominated by the geometric series and hence by
    |t_k| <= bn/bd.
    Returns (num, |a_k|, den, terms_used): the partial sum is num/den and its
    tail bound |a_k|/den.
    """
    num, den, pk = 0, scale, 1
    k = 0
    while True:
        if k:
            num *= q * k
            den *= q * k
        a = coeff(k) * pk
        num += a
        if k >= k0 and abs(a) * bd <= bn * den:
            return num, abs(a), den, k + 1
        pk *= p
        k += 1


def _factored_start(x: Fraction, factor_count: int, depth: int, drift: Fraction) -> int:
    """Start index k0 for terms  x^k/k! * prod of factor_count factors, each
    of the shape (k + c)_depth - d*l with c >= 0 and |d*l| <= drift.

    Let k1 be the first k >= depth with (k)_depth >= 2*drift.  For k >= k1
    every factor is positive and

      |t_{k+1}/t_k| <= x/(k+1) * [ (k+1)/(k+1-depth)
                                   * ((k)_depth + drift)/((k)_depth - drift) ]^factor_count,

    which is decreasing in k.  k0 is the first k >= k1 where this majorant is
    at most 1/2.  With x = a/b, drift = d/e and g = (k)_depth the test is, all
    denominators cleared,

      2 a ((k+1)(g e + d))^factor_count <= b (k+1) ((k+1-depth)(g e - d))^factor_count.
    """
    a, b = abs(x.numerator), x.denominator
    d, e = drift.numerator, drift.denominator
    k = depth
    while falling_scalar(k, depth) * e < 2 * d:
        k += 1
    while True:
        g = falling_scalar(k, depth) * e
        if 2 * a * ((k + 1) * (g + d)) ** factor_count \
                <= b * (k + 1) * ((k + 1 - depth) * (g - d)) ** factor_count:
            return k
        k += 1


def _combine_with_exp(num: int, tail: int, den: int, used: int,
                      x: Fraction, tol: Fraction) -> DobinskiResult:
    """Multiply a certified partial sum S = num/den, with tail bound
    T = tail/den, by a certified partial sum W of exp(-x), x > 0, and
    propagate both tails into one rigorous bound.

    W is summed within min(tol/6, (tol/4)/(|S|+T+1), 1/2), and the error
    |W| T + tail_W (|S| + T) is checked against tol; all of it is int
    cross-multiplication, and only the value and the bound become Fractions.
    """
    tn, td = tol.numerator, tol.denominator
    size = abs(num) + tail  # (|S| + T) den
    # tol/6 <= (tol/4)/(|S|+T+1) exactly when |S| + T <= 1/2
    if 2 * size <= den:
        bn, bd = tn, 6 * td
    else:
        bn, bd = tn * den, 4 * td * (size + den)
    if 2 * bn > bd:
        bn, bd = 1, 2
    p, q = x.numerator, x.denominator
    # from m0 = max(0, ceil(2x) - 1) on the term ratio x/(m+1) is <= 1/2
    m0 = max(0, -(-2 * p // q) - 1)
    wn, tail_w, wden, _ = _sum_series(lambda m: 1, -p, q, 1, m0, bn, bd)
    err, out_den = abs(wn) * tail + tail_w * size, wden * den
    if err * td > tn * out_den:
        raise ArithmeticError("internal tail budgeting failed")
    return DobinskiResult(Fraction(wn * num, out_den), used, Fraction(err, out_den))


def dobinski_eval(n: int, r: int, s: int, x, lam, tol) -> DobinskiResult:
    """Evaluate the degenerate (r, s)-Bell polynomial at x > 0 and a rational
    l by its Dobinski-style series

        exp(-x) sum_{k>=0} (x^k / k!) prod_{j=1..n} [(k+(j-1)(r-s))_s - (n-j) l]

    in exact rationals, truncated with a certified tail bound <= tol."""
    _require_at_least("n", n, 1)
    _require_rs(r, s)
    x = as_rational(x)
    lam = as_rational(lam)
    tol = as_rational(tol)
    # each message is built only when its check fails: str() of a valid x or
    # tol past Python's int-to-str digit limit would raise
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    u, v = lam.numerator, lam.denominator
    # factor j is (k + shift)_s v - drop, with l = u/v; the shifts ascend,
    # so each distinct falling factorial is computed once per term (at
    # s = r every shift is 0: once, not n times)
    factors = [((j - 1) * (r - s), (n - j) * u) for j in range(1, n + 1)]

    def coeff(k: int) -> int:  # v^n times the product
        out, shift, fall = 1, None, 0
        for c, drop in factors:
            if c != shift:
                shift, fall = c, falling_scalar(k + c, s) * v
            out *= fall - drop
        return out

    k0 = _factored_start(x, n, s, n * abs(lam))
    series = _sum_series(coeff, x.numerator, x.denominator, v ** n, k0,
                         tol.numerator, 6 * tol.denominator)
    return _combine_with_exp(*series, x, tol)


def dobinski_rr(k: int, r: int, x, lam, tol) -> DobinskiResult:
    """Evaluate the balanced Bell polynomial phi_k^(r,r)(x) by the series

        exp(-x) sum_{n>=1} (x^n / n!) ((n)_r)_{k,l}

    in exact rationals with a certified tail bound <= tol.  This is
    dobinski_eval(k, r, r, ...), which also sums the n = 0 term; that term
    is zero and terms_used here does not count it."""
    _require_at_least("k", k, 1)
    _require_at_least("r", r, 1)
    res = dobinski_eval(k, r, r, x, lam, tol)
    return DobinskiResult(res.value, res.terms_used - 1, res.tail_bound)


def gamma_formula_classical(n: int, r: int, s: int, tol) -> DobinskiResult:
    """Classical (l = 0, x = 1) Bell number via the Gamma-ratio series

        ((r-s)^(s n) / e) sum_{k>=0} (1/k!) prod_{l=1..s} G(n + q_kl)/G(q_kl),

    q_kl = (k-l+1)/(r-s), valid for r > s.  Each Gamma ratio is the rising
    factorial q(q+1)...(q+n-1) = prod_{i<n} (k-l+1+i(r-s)) / (r-s)^n, so the
    prefactor cancels and every term is an integer over k!."""
    _require_at_least("n", n, 1)
    _require(
        isinstance(r, int) and isinstance(s, int) and r > s >= 1,
        f"need integers r > s >= 1, got r={r!r}, s={s!r}",
    )
    tol = as_rational(tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def coeff(k: int) -> int:
        out = 1
        for l in range(1, s + 1):
            for i in range(n):
                out *= k - l + 1 + i * (r - s)
        return out

    # for k >= s all q_kl are positive and each rising-factorial ratio is at
    # most (1 + 1/(k-s+1))^n, giving the decreasing majorant
    # (k-s+2)^(s n) / ((k+1) (k-s+1)^(s n)); start where it is <= 1/2
    k0 = s
    while 2 * (k0 - s + 2) ** (s * n) > (k0 + 1) * (k0 - s + 1) ** (s * n):
        k0 += 1
    series = _sum_series(coeff, 1, 1, 1, k0, tol.numerator, 6 * tol.denominator)
    return _combine_with_exp(*series, Fraction(1), tol)
