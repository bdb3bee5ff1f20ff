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
row indexed by the annihilation power, in plain int arithmetic.

The row extract_stirling reads off degenerate_product is the (r, s)
Stirling row by normal ordering.  It is one of the three routes that
verify's triple-oracle checks compare, with the alternating sum
stirling.stirling_rs_degenerate and the factor kernel stirling.family_row;
it shares no code with either.
"""

from __future__ import annotations

from math import comb, factorial

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


def _absorb(src: list, weight: int, dst: list, shift: int):
    """dst += weight * l^shift * src, for coefficient lists ascending in l."""
    for d, c in enumerate(src, shift):
        dst[d] += weight * c


def degenerate_product(n: int, r: int, s: int) -> NormalForm:
    """Normal form of the product over k = 0..n-1 of
    ((a+)^r a^s - k l (a+)^(r-s)), with the k = 0 factor leftmost.

    After m factors every term is (a+)^(m(r-s)+j) a^j, so the running
    product is a row indexed by j whose entries are int coefficient lists
    in l.  Multiplying on the right by factor k reorders a^j past the
    creation powers with weights t! C(j, t) C(., t): the (a+)^r a^s term
    sends j to j - t + s, and the -k l (a+)^(r-s) term sends j to j - t,
    one power of l up and scaled by -k."""
    _require(isinstance(n, int) and n >= 1, f"n must be a positive integer, got {n!r}")
    _require_rs(r, s)
    row = [[1]]
    for k in range(n):
        # factor k raises the l-degree to at most k
        new = [[0] * (k + 1) for _ in range(len(row) + s)]
        for j, coeffs in enumerate(row):
            for t in range(min(j, r) + 1):
                w = factorial(t) * comb(j, t) * comb(r, t)
                _absorb(coeffs, w, new[j - t + s], 0)
            if k:
                for t in range(min(j, r - s) + 1):
                    w = factorial(t) * comb(j, t) * comb(r - s, t)
                    _absorb(coeffs, -k * w, new[j - t], 1)
        row = new
    shift = n * (r - s)
    return NormalForm(
        {(shift + j, j): LambdaPoly(coeffs) for j, coeffs in enumerate(row) if any(coeffs)}
    )


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
