"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain :class:`fractions.Fraction`.  A :class:`CycloNumber` is
an element of Q(e) with e a primitive n-th root of unity, stored as a
rational-coefficient polynomial in e reduced modulo the n-th cyclotomic
polynomial.  All equality and zero tests are exact; nothing here ever touches
floating point.  One polynomial division, :func:`_divmod`, builds the
cyclotomic polynomials, reduces every arithmetic result and drives the
extended-Euclid inverse.

Scalars travel as text in one grammar for both fields (:func:`format_scalar`
writes it, :func:`parse_scalar` reads it): a signed sum of terms ``a``,
``a/b``, ``e``, ``e^k``, ``a*e^k`` and ``a/b*e^k`` in decimal digits, such as
``-3/2`` or ``1/2*e^2-e+3``.  A rational scalar is exactly one constant term
``[+-]a[/b]``; decimals, exponent notation (``1e5``) and ``_`` separators are
not part of the grammar.  Python's limit on integer-string digits (4300 by
default) caps each coefficient.  Arrangement documents also bound the
conductor (``projective.MAX_CONDUCTOR``) and the line count
(``arrangement.MAX_LINES``); values built in Python are unbounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

__all__ = [
    "ConductorMismatch",
    "cyclotomic_polynomial",
    "CycloNumber",
    "cyclo_arith",
    "parse_scalar",
    "format_scalar",
]

_ZERO = Fraction(0)


class ConductorMismatch(ValueError):
    """Mixed ``CycloNumber`` conductors in one operation."""


def _divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    """
    Quotient and remainder of two polynomials (ascending int or Fraction
    coefficients) over Q.

    ``den`` must have a nonzero leading coefficient.  A monic ``den`` (every
    cyclotomic polynomial) is never divided by, so integer input stays
    integer.  The remainder has its trailing zeros stripped: the zero
    polynomial comes back as ``[]``.
    """
    num = list(num)
    deg = len(den) - 1
    lead = den[-1]
    monic = lead == 1
    terms = [(i, d) for i, d in enumerate(den) if d]
    quo = [0] * max(1, len(num) - deg)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + deg]
        if c:
            if not monic:
                c = c / lead
            quo[shift] = c
            for i, d in terms:
                num[shift + i] -= c * d
    del num[deg:]
    while num and not num[-1]:
        num.pop()
    return quo, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """
    Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by the recursion Phi_n(x) = (x^n - 1) / prod_{d|n, d<n} Phi_d(x)
    with exact integer polynomial division.  Monic of degree phi(n).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"conductor must be a positive integer, got {n!r}")
    if n == 1:
        return (-1, 1)
    work = [0] * (n + 1)
    work[0], work[n] = -1, 1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            work, rem = _divmod(work, cyclotomic_polynomial(d))
            assert not rem, f"non-exact division building Phi_{n}"
    return tuple(work)


class CycloNumber:
    """
    Element of the cyclotomic field Q(e), e = primitive n-th root of unity.

    Immutable; ``coeffs`` always has length deg Phi_n = phi(n) and represents
    sum coeffs[i] * e^i in the reduced basis.  Arithmetic reduces mod Phi_n;
    division inverts via the extended Euclidean algorithm in Q[x].
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[Fraction | int]) -> None:
        phi = cyclotomic_polynomial(n)
        _, rem = _divmod([Fraction(c) for c in coeffs], phi)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(rem) + (_ZERO,) * (len(phi) - 1 - len(rem)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CycloNumber is immutable")

    # -- constructors

    @classmethod
    def zero(cls, n: int) -> "CycloNumber":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "CycloNumber":
        return cls(n, [1])

    @classmethod
    def from_rational(cls, n: int, value) -> "CycloNumber":
        return cls(n, [Fraction(value)])

    @classmethod
    def root(cls, n: int, power: int = 1) -> "CycloNumber":
        """e^power as an element of Q(e)."""
        power %= n
        coeffs = [0] * (power + 1)
        coeffs[power] = 1
        return cls(n, coeffs)

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic

    def _coerce(self, other) -> "CycloNumber":
        if isinstance(other, CycloNumber):
            if other.n != self.n:
                raise ConductorMismatch(f"conductors differ: {self.n} vs {other.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNumber(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNumber(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = [Fraction(0)] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloNumber(self.n, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse via extended Euclid on (self, Phi_n) in Q[x]."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # Invariant: r_i = t_i * self (mod Phi_n).  The first step only
        # swaps, since deg self < deg Phi_n, and strips self's zero top terms.
        r0, r1 = list(self.coeffs), [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        t0, t1 = [1], [0]
        while r1:
            quo, rem = _divmod(r0, r1)
            tn = t0 + [0] * (len(quo) + len(t1) - 1 - len(t0))
            for i, a in enumerate(quo):
                if a:
                    for j, b in enumerate(t1):
                        tn[i + j] -= a * b
            r0, r1 = r1, rem
            t0, t1 = t1, tn
        # r0 is now the gcd; Phi_n irreducible over Q => gcd is a nonzero constant.
        g = r0[0]
        assert len(r0) == 1 and g != 0, "cyclotomic polynomial must be coprime to nonzero elements"
        return CycloNumber(self.n, [c / g for c in t0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparison / hashing / display

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(self.n, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloNumber({self.n}, {format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def cyclo_arith(a: CycloNumber, b: CycloNumber, op: str) -> CycloNumber:
    """Dispatch add/sub/mul/div on two same-conductor cyclotomic numbers."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}; expected add, sub, mul or div")


# ---------------------------------------------------------------------------
# Exact-string formatting, used by the arrangement JSON coordinate payloads.
# Rationals render as Fraction strings ("-3/2"); cyclotomic numbers as
# polynomials in e ("e^2+1", "1/2*e-3").

_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<pow1>e(?:\^(?P<exp1>\d+))?))?
          | (?P<pow2>e(?:\^(?P<exp2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


def format_scalar(value) -> str:
    """Render a Fraction or CycloNumber as an exact, parseable string."""
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if not isinstance(value, CycloNumber):
        raise TypeError(f"cannot format {type(value).__name__}")
    out = ""
    for exp in range(len(value.coeffs) - 1, -1, -1):
        c = value.coeffs[exp]
        if not c:
            continue
        mag = abs(c)
        e = "e" if exp == 1 else f"e^{exp}"
        body = str(mag) if exp == 0 else e if mag == 1 else f"{mag}*{e}"
        out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


def parse_scalar(text: str, conductor: int | None = None):
    """
    Parse the output of :func:`format_scalar`.

    The text is a signed sum of terms ``a``, ``a/b``, ``e``, ``e^k``,
    ``a*e^k`` or ``a/b*e^k`` (decimal digits only), every term after the
    first starting with ``+`` or ``-``.  With ``conductor`` set, returns a
    CycloNumber, reducing e^k by e^n = 1 and modulo Phi_n.  Without it, the
    text must be one constant term ``[+-]a[/b]`` and a Fraction comes back;
    ``e`` terms, decimals, exponent notation and ``_`` separators all raise
    ValueError, and a zero denominator raises ZeroDivisionError.
    """
    if conductor is not None:
        cyclotomic_polynomial(conductor)  # rejects a bad conductor up front
    text = text.strip()
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at offset {pos}")
        power = match.group("pow1") or match.group("pow2")
        if conductor is None and (power or coeffs):
            raise ValueError(f"a rational scalar is one constant term, got {text!r}")
        if coeffs and match.group("sign") is None:
            raise ValueError(f"missing sign between terms in {text!r}")
        coef = Fraction(match.group("coef") or 1)
        if match.group("sign") == "-":
            coef = -coef
        exp = int(match.group("exp1") or match.group("exp2") or 1) % conductor if power else 0
        coeffs[exp] = coeffs.get(exp, 0) + coef
        pos = match.end()
    if not coeffs:
        raise ValueError(f"cannot parse scalar {text!r}")
    if conductor is None:
        return coeffs[0]
    return CycloNumber(conductor, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])
