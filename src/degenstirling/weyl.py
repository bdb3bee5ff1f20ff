"""Normal ordering in the boson Weyl algebra with [a, a+] = 1.

A NormalForm is a finite sum  sum_{ij} c_ij (a+)^i a^j  with every creation
operator to the left of every annihilation operator; the coefficients are
LambdaPoly.  Products are renormalised with the closed-form reordering

    a^j (a+)^i = sum_m m! C(j, m) C(i, m) (a+)^(i-m) a^(j-m),

which is what repeated single swaps a a+ -> a+ a + 1 collapse to.

NormalForm multiplication is the general engine: it multiplies any two
normal forms and serves as the reference the specialised engine is tested
against.  The degenerate product lives on one diagonal (i - j fixed by the
number of factors) with int coefficients in l, so diagonal_row absorbs each
factor by single commutations a^j a+ = a+ a^j + j a^(j-1) into a row indexed
by the annihilation power, each entry one int at l = 2^b, b read off the
product's action on x^m.  degenerate_product wraps that row into a
NormalForm; the CLI's normal-order prints it as it is.

The row extract_stirling reads off degenerate_product is the (r, s)
Stirling row by normal ordering.  It is one of the three routes that
verify's triple-oracle checks compare, with the alternating sum
stirling.stirling_rs_degenerate and the factor kernel stirling.family_row;
it shares no code with either.
"""

from __future__ import annotations

from itertools import accumulate, count, repeat
from math import comb, factorial, perm, prod
from operator import add, floordiv, lshift, mul

from .algebra import LambdaPoly, _LP_ZERO, _got, _require_at_least, _require_rs

__all__ = [
    "NormalForm",
    "degenerate_product",
    "diagonal_row",
    "extract_stirling",
]


class NormalForm:
    """Normally ordered operator polynomial, keyed by (creation, annihilation)
    powers; zero coefficients are never stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """terms maps each (creation, annihilation) key to its coefficient."""
        cleaned = {}
        for key, coeff in (terms or {}).items():
            i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                raise ValueError(f"operator powers must be nonnegative integers, got {_got(key)}")
            lp = LambdaPoly._coerce(coeff)
            if lp is None:
                raise TypeError(f"cannot use {coeff!r} as a coefficient")
            if not lp.is_zero():
                cleaned[(i, j)] = lp
        self._terms = cleaned

    @classmethod
    def identity(cls) -> "NormalForm":
        return cls({(0, 0): 1})

    @classmethod
    def ladder(cls, creation: int, annihilation: int, coeff=1) -> "NormalForm":
        """c * (a+)^creation a^annihilation."""
        return cls({(creation, annihilation): coeff})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, i: int, j: int) -> LambdaPoly:
        return self._terms.get((i, j), _LP_ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out[key] + c if key in out else c
        return NormalForm(out)

    def __sub__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, NormalForm):
            out = {}
            for (i, j), c in self._terms.items():
                for (i2, j2), d in other._terms.items():
                    cd = c * d
                    for m in range(min(j, i2) + 1):
                        w = factorial(m) * comb(j, m) * comb(i2, m)
                        key = (i + i2 - m, j + j2 - m)
                        out[key] = out.get(key, _LP_ZERO) + w * cd
            return NormalForm(out)
        lp = LambdaPoly._coerce(other)
        if lp is None:
            return NotImplemented
        return NormalForm({key: c * lp for key, c in self._terms.items()})

    def __rmul__(self, other):
        lp = LambdaPoly._coerce(other)
        if lp is None:
            return NotImplemented
        return self * lp

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        # each power through _got: str() of one past the int digit limit raises
        body = ", ".join(f"({_got(i)},{_got(j)}): {c}"
                         for (i, j), c in sorted(self._terms.items(), reverse=True))
        return f"NormalForm({{{body}}})"


def diagonal_row(n: int, r: int, s: int) -> list:
    """The product over k = 0..n-1 of ((a+)^r a^s - k l (a+)^(r-s)), k = 0
    leftmost, as its diagonal row: entry j is the int coefficient list in l,
    trailing zeros trimmed, of (a+)^(n(r-s)+j) a^j.

    Factor k, (a+)^(r-s) ((a+)^s a^s - k l), is r single commutations
    a^j a+ = a+ a^j + j a^(j-1) on the right, each adding (j+1) times entry
    j+1 to entry j; the row after the first r - s, times -k l, is the l-term,
    and a^s prepends s zeros.  Each entry is one int, its polynomial at
    l = 2^b (b from _digit_width): a commutation is one pass of big-int
    multiply-adds, l a shift, and _unpack reads back the signed b-bit digits
    that each entry's bit length allows (at most n)."""
    _require_at_least("n", n, 1)
    _require_rs(r, s)
    b = _digit_width(n, r, s)
    row = [1]
    for k in range(n):
        for step in range(r):
            if step == r - s:
                held = row[:]
            row[:-1] = map(add, row, map(mul, count(1), row[1:]))
        row = [0] * s + row
        if k:
            row[:len(held)] = map(add, row, map(lshift, map(mul, held, repeat(-k)), repeat(b)))
    return _unpack(row, b, n)


def _digit_width(n: int, r: int, s: int) -> int:
    """The digit width b of diagonal_row, read off the product's action on
    x^m with a+ = x, a = d/dx: x^m goes to P(m) x^(m+n(r-s)), with P(m) =
    prod_k ((m + (n-1-k)(r-s))_s - k l), and to sum_j e_j (m)_j x^(m+n(r-s))
    by the normal form.  At l = -1 all absorption weights are nonnegative, so
    e_j(-1) >= 0 bounds the sum of the absolute l-coefficients of e_j, and
    e_j(-1) <= P_-1(j) / j! <= e max_i e_i(-1); b is one bit more than the
    largest floor(P_-1(j) / j!)."""
    d, top = r - s, n * s + 1
    ff = list(map(perm, range(n * r + 1), repeat(s)))  # (m)_s; factor k is at m + (n-1-k) d
    at = (prod(map(add, ff[j:j + n * d:d] if d else repeat(ff[j], n), range(n - 1, -1, -1)))
          for j in range(top))
    return max(map(floordiv, at, accumulate(range(1, top), mul, initial=1))).bit_length() + 1


def _unpack(packed: list, b: int, n: int) -> list:
    """Each int as its n signed b-bit digits, lowest first, trailing zeros
    trimmed.  The offset H = 2^(b-1) (2^(bn) - 1) / (2^b - 1) is 2^(b-1) in
    every digit, so digit i of v + H, less 2^(b-1), is digit i of v; anything
    of v + H above the n-th digit raises ArithmeticError.

    Only the first t = min(n, (L + 1) // b + 1) digits are read, L the bit
    length of |v| (int.bit_length ignores the sign): if digit h is the top
    nonzero one, |v| > 2^(bh) / 3 (for b >= 2 the lower digits sum to less
    than (2/3) 2^(bh) in magnitude; for b = 1 every digit is 0 or -1 and
    nothing cancels), so L >= bh - 1 and h < t."""
    half, mask, top = 1 << (b - 1), (1 << b) - 1, b * n
    offset = half * ((1 << top) - 1) // mask
    out = []
    for j, v in enumerate(packed):
        w = v + offset
        if w >> top:
            raise ArithmeticError(f"entry {j} of the packed row overflows {b}-bit digits")
        stop = ((v.bit_length() + 1) // b + 1) * b  # the digits past (L + 1) // b are zero
        coeffs = [((w >> i) & mask) - half for i in range(0, stop if stop < top else top, b)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    return out


def degenerate_product(n: int, r: int, s: int) -> NormalForm:
    """Normal form of the product over k = 0..n-1 of
    ((a+)^r a^s - k l (a+)^(r-s)), with the k = 0 factor leftmost: each
    nonzero entry j of diagonal_row as the term (a+)^(n(r-s)+j) a^j."""
    row = diagonal_row(n, r, s)
    shift = n * (r - s)
    return NormalForm({(shift + j, j): LambdaPoly(c) for j, c in enumerate(row)})


def extract_stirling(nf: NormalForm, n: int, r: int, s: int) -> list:
    """Read the coefficient row S(n, k), k = 0..n*s, off a normal form that
    is supported on the diagonal (n(r-s) + k, k).  Any term off that
    diagonal means the engine produced something structurally wrong, so it
    raises rather than returning a best effort."""
    _require_at_least("n", n, 1)
    _require_rs(r, s)
    shift = n * (r - s)
    top = n * s
    for (i, j) in nf.terms:
        if i - j != shift or j > top:
            raise ValueError(
                f"normal form has off-diagonal term (a+)^{i} a^{j}; "
                f"expected keys ({shift}+k, k) with k <= {top}"
            )
    return [nf.coefficient(shift + k, k) for k in range(top + 1)]
