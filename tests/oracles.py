"""Brute-force oracles used only by the tests.

Nothing here imports the package: each oracle recomputes its target from
first principles (set enumeration, single-swap rewriting, plain
coefficient-list polynomial division) so it can independently confirm the
library's closed forms.
"""

from fractions import Fraction
from math import comb, factorial


def set_partition_count(n: int, k: int) -> int:
    """Number of partitions of {1..n} into exactly k nonempty blocks, by
    explicit enumeration (element i goes into an existing block or opens a
    new one)."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    stack = [(1, 1)]  # (elements placed, blocks open); element 1 opened block 1
    while stack:
        placed, blocks = stack.pop()
        if placed == n:
            count += 1 if blocks == k else 0
            continue
        for _ in range(blocks):
            stack.append((placed + 1, blocks))
        stack.append((placed + 1, blocks + 1))
    return count


# -- plain coefficient-list polynomials over Fraction ------------------------

def poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divide_linear(p: list, root: Fraction) -> list:
    """Quotient of p by (x - root); the caller guarantees divisibility."""
    n = len(p) - 1
    quot = [Fraction(0)] * n
    acc = p[n]
    for i in range(n - 1, -1, -1):
        quot[i] = acc
        acc = p[i] + acc * root
    assert acc == 0, "not divisible"
    return quot


def rising_poly(n: int) -> list:
    p = [Fraction(1)]
    for i in range(n):
        p = poly_mul(p, [Fraction(i), Fraction(1)])
    return p


def falling_poly(n: int) -> list:
    p = [Fraction(1)]
    for i in range(n):
        p = poly_mul(p, [Fraction(-i), Fraction(1)])
    return p


def expand_in_basis(p: list, rising: bool) -> list:
    """Coefficients of p over the falling (points 0,1,2,..) or rising
    (points 0,-1,-2,..) factorial basis, by successive exact division."""
    coeffs = []
    q = list(p)
    k = 0
    while any(c != 0 for c in q):
        while q and q[-1] == 0:
            q.pop()
        point = Fraction(-k if rising else k)
        c = poly_eval(q, point)
        coeffs.append(c)
        q[0] -= c
        q = poly_divide_linear(q, point)
        k += 1
    return coeffs


def classical_lah(n: int, k: int) -> Fraction:
    """C(n-1, k-1) n!/k! for 1 <= k <= n, the textbook unsigned Lah value."""
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n - 1, k - 1) * factorial(n), factorial(k))


def lah_by_expansion(n: int, k: int) -> Fraction:
    """Unsigned Lah via brute expansion of <x>_n over the falling basis."""
    coeffs = expand_in_basis(rising_poly(n), rising=False)
    return coeffs[k] if k < len(coeffs) else Fraction(0)


def signed_lah_by_expansion(n: int, k: int) -> Fraction:
    """Signed Lah via brute expansion of (x)_n over the rising basis."""
    coeffs = expand_in_basis(falling_poly(n), rising=True)
    return coeffs[k] if k < len(coeffs) else Fraction(0)


# -- single-swap normal ordering ---------------------------------------------

def normal_order_word(word: tuple) -> dict:
    """Normally order a word over {'c', 'a'} (creation/annihilation) by
    repeatedly applying a c -> c a + (drop both); returns {(i, j): coeff}."""
    pending = {tuple(word): 1}
    done = {}
    while pending:
        w, coeff = pending.popitem()
        for idx in range(len(w) - 1):
            if w[idx] == "a" and w[idx + 1] == "c":
                swapped = w[:idx] + ("c", "a") + w[idx + 2:]
                contracted = w[:idx] + w[idx + 2:]
                pending[swapped] = pending.get(swapped, 0) + coeff
                pending[contracted] = pending.get(contracted, 0) + coeff
                break
        else:
            key = (w.count("c"), w.count("a"))
            done[key] = done.get(key, 0) + coeff
    return {key: c for key, c in done.items() if c != 0}


def normal_order_power(r: int, s: int, n: int) -> dict:
    """Normal ordering of ((a+)^r a^s)^n by single swaps."""
    return normal_order_word((("c",) * r + ("a",) * s) * n)


def normal_order_letters(word) -> dict:
    """Normal order a word by absorbing one letter at a time into a kept
    normal form, using only a^j c = c a^j + j a^(j-1) (iterated single
    swaps); linear in the word length, so long words stay cheap."""
    state = {(0, 0): 1}
    for letter in word:
        nxt = {}
        for (i, j), coeff in state.items():
            if letter == "c":
                nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + coeff
                if j:
                    nxt[(i, j - 1)] = nxt.get((i, j - 1), 0) + j * coeff
            else:
                nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) + coeff
        state = nxt
    return {key: c for key, c in state.items() if c}


def normal_order_power_fast(r: int, s: int, n: int) -> dict:
    """Normal ordering of ((a+)^r a^s)^n by the letter-wise oracle."""
    return normal_order_letters((("c",) * r + ("a",) * s) * n)


# -- certified Dobinski series, one Fraction per term ------------------------
#
# The plain reference for the package's integer series kernel: every term is
# built as its own Fraction, added to a Fraction sum and compared with a
# Fraction budget, with the start index found by evaluating the ratio
# majorant as a Fraction.  Each function returns (value, terms_used,
# tail_bound) and must agree with the package exactly, field by field.

_HALF = Fraction(1, 2)


def _falling(a, k: int):
    out = 1
    for i in range(k):
        out = out * (a - i)
    return out


def _rising(a, k: int):
    out = 1
    for i in range(k):
        out = out * (a + i)
    return out


def _exp_neg_partial(x: Fraction, budget: Fraction):
    budget = min(budget, _HALF)
    m0 = 0
    while x > Fraction(m0 + 1, 2):  # after m0 the term ratio x/(m+1) is <= 1/2
        m0 += 1
    s = Fraction(0)
    term = Fraction(1)
    m = 0
    while True:
        s += term
        if m >= m0 and abs(term) <= budget:
            return s, abs(term)
        term = term * (-x) / (m + 1)
        m += 1


def _sum_series(term_fn, k_first: int, k_min_ratio: int, rho, budget: Fraction):
    k0 = max(k_min_ratio, k_first)
    while rho(k0) > _HALF:
        k0 += 1
    s = Fraction(0)
    k = k_first
    used = 0
    while True:
        t = term_fn(k)
        s += t
        used += 1
        if k >= k0 and abs(t) <= budget:
            return s, abs(t), used
        k += 1


def _factored_ratio_bound(x: Fraction, factor_count: int, depth: int, drift: Fraction):
    ax = abs(x)
    k1 = depth
    while _falling(k1, depth) < 2 * drift:
        k1 += 1

    def rho(k: int) -> Fraction:
        g = Fraction(_falling(k, depth))
        core = Fraction(k + 1, k + 1 - depth) * ((g + drift) / (g - drift))
        return ax / (k + 1) * core ** factor_count

    return k1, rho


def _combine_with_exp(series_sum, tail_s, used, x: Fraction, tol: Fraction):
    e_budget = min(tol / 6, (tol / 4) / (abs(series_sum) + tail_s + 1))
    w, tail_e = _exp_neg_partial(x, e_budget)
    err = abs(w) * tail_s + tail_e * (abs(series_sum) + tail_s)
    if err > tol:
        raise ArithmeticError("tail budgeting failed")
    return w * series_sum, used, err


def dobinski_reference(n: int, r: int, s: int, x: Fraction, lam: Fraction, tol: Fraction):
    """exp(-x) sum_k (x^k/k!) prod_{j=1..n} [(k+(j-1)(r-s))_s - (n-j) l]."""
    def term(k: int) -> Fraction:
        prod = Fraction(1)
        for j in range(1, n + 1):
            prod *= _falling(k + (j - 1) * (r - s), s) - (n - j) * lam
        return prod * x ** k / factorial(k)

    k1, rho = _factored_ratio_bound(x, n, s, n * abs(lam))
    series_sum, tail_s, used = _sum_series(term, 0, k1, rho, tol / 6)
    return _combine_with_exp(series_sum, tail_s, used, x, tol)


def dobinski_rr_reference(k: int, r: int, x: Fraction, lam: Fraction, tol: Fraction):
    """exp(-x) sum_{m>=1} (x^m/m!) ((m)_r)_{k,l}."""
    def term(m: int) -> Fraction:
        fm = _falling(m, r)
        prod = Fraction(1)
        for i in range(k):
            prod *= fm - i * lam
        return prod * x ** m / factorial(m)

    k1, rho = _factored_ratio_bound(x, k, r, k * abs(lam))
    series_sum, tail_s, used = _sum_series(term, 1, k1, rho, tol / 6)
    return _combine_with_exp(series_sum, tail_s, used, x, tol)


def gamma_reference(n: int, r: int, s: int, tol: Fraction):
    """((r-s)^(s n)/e) sum_k (1/k!) prod_{l=1..s} <(k-l+1)/(r-s)>_n, r > s."""
    pre = Fraction((r - s) ** (s * n))

    def term(k: int) -> Fraction:
        prod = pre
        for l in range(1, s + 1):
            prod *= _rising(Fraction(k - l + 1, r - s), n)
        return prod / factorial(k)

    def rho(k: int) -> Fraction:
        return Fraction(1, k + 1) * (1 + Fraction(1, k - s + 1)) ** (s * n)

    series_sum, tail_s, used = _sum_series(term, 0, s, rho, tol / 6)
    return _combine_with_exp(series_sum, tail_s, used, Fraction(1), tol)
