"""Normal ordering in the boson Weyl algebra with [a, a+] = 1.

A NormalForm is a finite sum  sum_{ij} c_ij (a+)^i a^j  with every creation
operator to the left of every annihilation operator; the coefficients are
LambdaPoly.  Products are renormalised with the closed-form reordering

    a^j (a+)^i = sum_m m! C(j, m) C(i, m) (a+)^(i-m) a^(j-m),

which is what repeated single swaps a a+ -> a+ a + 1 collapse to.

NormalForm multiplication is the general engine: it multiplies any two
normal forms and serves as the reference the specialised engine is tested
against.  degenerate_product uses the same reordering formula, but its
product lives on one diagonal (i - j fixed by the number of factors) and
has integer coefficients in l, so it absorbs one factor at a time into a
row indexed by the annihilation power.  Each entry of that row is packed
into one int at l = 2^b, with b sized by a first pass at l = -1 (the
l = -1 majorant) and each entry decoded into exactly n signed b-bit digits.

The row extract_stirling reads off degenerate_product is the (r, s)
Stirling row by normal ordering.  It is one of the three routes that
verify's triple-oracle checks compare, with the alternating sum
stirling.stirling_rs_degenerate and the factor kernel stirling.family_row;
it shares no code with either.
"""

from __future__ import annotations

from math import comb, factorial, perm

from .algebra import LambdaPoly, _require, _require_rs

__all__ = [
    "NormalForm",
    "degenerate_product",
    "extract_stirling",
]


class NormalForm:
    """Normally ordered operator polynomial, keyed by (creation, annihilation)
    powers; zero coefficients are never stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        cleaned = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for key, coeff in items:
            i, j = key
            _require(
                isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0,
                f"operator powers must be nonnegative integers, got {key!r}",
            )
            lp = LambdaPoly._coerce(coeff)
            if lp is None:
                raise TypeError(f"cannot use {coeff!r} as a coefficient")
            if not lp.is_zero():
                acc = cleaned.get((i, j))
                lp = lp if acc is None else acc + lp
                if lp.is_zero():
                    cleaned.pop((i, j), None)
                else:
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
        return self._terms.get((i, j), LambdaPoly.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def at_lambda(self, lam_value) -> "NormalForm":
        return NormalForm(
            {key: LambdaPoly.constant(c(lam_value)) for key, c in self._terms.items()}
        )

    def __add__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        nf = NormalForm()
        nf._terms = out
        return nf

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
                        acc = out.get(key, LambdaPoly.zero()) + w * cd
                        if acc.is_zero():
                            out.pop(key, None)
                        else:
                            out[key] = acc
            nf = NormalForm()
            nf._terms = out
            return nf
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
        body = ", ".join(
            f"({i},{j}): {c}" for (i, j), c in sorted(self._terms.items(), reverse=True)
        )
        return f"NormalForm({{{body}}})"


def degenerate_product(n: int, r: int, s: int) -> NormalForm:
    """Normal form of the product over k = 0..n-1 of
    ((a+)^r a^s - k l (a+)^(r-s)), with the k = 0 factor leftmost.

    After m factors every term is (a+)^(m(r-s)+j) a^j, so the running
    product is a row indexed by j whose entries are int polynomials in l.
    Multiplying on the right by factor k reorders a^j past the creation
    powers with weights t! C(j, t) C(., t): the (a+)^r a^s term sends j to
    j - t + s, and the -k l (a+)^(r-s) term sends j to j - t, scaled by -k l.

    Each entry is carried as one int, its polynomial evaluated at l = 2^b
    (Kronecker substitution), so an absorption is one big-int multiply-add
    rather than a loop over l-coefficients, and the factor l is a shift by
    b bits.  The weight tables are built once per call.  A first pass at
    l = -1 makes every weight nonnegative, so each of its entries bounds the
    sum of the absolute l-coefficients of the true entry; b is one bit more
    than the largest.  Every coefficient then fits a signed b-bit digit, and
    each entry is read back as exactly n digits (the l-degree is at most
    n - 1); anything left over raises ArithmeticError."""
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}")
    _require_rs(r, s)
    up, down = ([[perm(j, t) * comb(c, t) for t in range(min(j, c) + 1)]
                 for j in range(n * s + 1)] for c in (r, r - s))

    def run(sign: int, b: int) -> list:
        # the row at l = sign * 2^b; -k l v is a shift, not a multiply
        row = [1]
        for k in range(n):
            new = [0] * (len(row) + s)
            for j, v in enumerate(row):
                for t, w in enumerate(up[j]):
                    new[j - t + s] += w * v
                if k:
                    v = (-sign * k * v) << b
                    for t, w in enumerate(down[j]):
                        new[j - t] += w * v
            row = new
        return row

    b = max(run(-1, 0)).bit_length() + 1
    half, mask = 1 << (b - 1), (1 << b) - 1
    shift = n * (r - s)
    terms = {}
    for j, v in enumerate(run(1, b)):
        coeffs = []
        for _ in range(n):
            d = ((v + half) & mask) - half
            coeffs.append(d)
            v = (v - d) >> b
        if v:
            raise ArithmeticError(f"entry {j} of the packed row overflows {b}-bit digits")
        if any(coeffs):
            terms[(shift + j, j)] = LambdaPoly(coeffs)
    # distinct diagonal keys and nonzero int polynomials: nothing to re-validate
    nf = NormalForm()
    nf._terms = terms
    return nf


def extract_stirling(nf: NormalForm, n: int, r: int, s: int) -> list:
    """Read the coefficient row S(n, k), k = 0..n*s, off a normal form that
    is supported on the diagonal (n(r-s) + k, k).  Any term off that
    diagonal means the engine produced something structurally wrong, so it
    raises rather than returning a best effort."""
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}")
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
