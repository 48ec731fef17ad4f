"""Multivariate polynomials and truncated power series over the rationals."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactlin import Vec, frac

Monomial = tuple[int, ...]


class Poly:
    """Polynomial in a fixed number of variables with Fraction coefficients.

    Stored sparsely as {exponent tuple: coefficient}; zero coefficients are
    never kept, so equality of the dicts is equality of polynomials.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, Fraction] | None = None):
        self.nvars = nvars
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = frac(c)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = frac(c)
        return cls(nvars, {(0,) * nvars: c} if c != 0 else {})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "Poly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = frac(c)
            if c != 0:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = frac(c)
        if c == 0:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: c * co for m, co in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval_frac(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                if e:
                    v *= x ** e
            total += v
        return total

    def subs_linear(self, forms: Sequence[Vec]) -> "Poly":
        """Substitute x_i -> sum_j forms[i][j] * s_j; returns a Poly in the s variables."""
        nnew = len(forms[0]) if forms else 0
        result = Poly(nnew)
        lin = [Poly.linear(f) for f in forms]
        for m, c in self.terms.items():
            term = Poly.const(nnew, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * lin[i]
            result = result + term
        return result

    def along_line(self, direction: Sequence[Fraction]) -> list[Fraction]:
        """Coefficients in t of p(t * direction), ascending, trailing zeros trimmed."""
        deg = self.degree()
        out = [Fraction(0)] * (deg + 1)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, direction):
                if e:
                    v *= x ** e
            out[sum(m)] += v
        while out and out[-1] == 0:
            out.pop()
        return out

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def exp_series(a: Fraction, order: int) -> list[Fraction]:
    """Power series of exp(a t) in t, through t^order."""
    out = [Fraction(1)]
    term = Fraction(1)
    for k in range(1, order + 1):
        term = term * a / k
        out.append(term)
    return out
