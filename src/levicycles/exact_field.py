"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain :class:`fractions.Fraction`.  A :class:`CycloNumber` is
an element of Q(e) with e a primitive n-th root of unity.  It is stored
fraction-free: integer numerators of 1, e, ..., e^(phi(n)-1) over one
positive common denominator, in lowest terms.  Sums and products are
computed in integers and reduced modulo the n-th cyclotomic polynomial
Phi_n, which is monic with integer coefficients, so the one polynomial
division, :func:`_divmod`, never divides a coefficient.  The inverse of a is
the product of its other Galois conjugates divided by the rational norm of
a (H. Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
Springer 1993).  Its coefficients have about phi(n) times the digits of a's;
the extended Euclid over Q that it replaces grew its intermediate
coefficients far past that.  All equality and zero tests are exact; nothing
here ever touches floating point.

Scalars travel as text in one grammar for both fields (:func:`format_scalar`
writes it, :func:`parse_scalar` reads it): a signed sum of terms ``a``,
``a/b``, ``e``, ``e^k``, ``a*e^k`` and ``a/b*e^k`` in decimal digits, such as
``-3/2`` or ``1/2*e^2-e+3``.  A rational scalar is exactly one constant term
``[+-]a[/b]``; decimals, exponent notation (``1e5``) and ``_`` separators are
not part of the grammar.  Python's limit on integer-string digits (4300 by
default) caps each coefficient.  Arrangement documents also bound the
conductor (``projective.MAX_CONDUCTOR``), the line count
(``arrangement.MAX_LINES``) and, over a cyclotomic field, the length of each
scalar string (``projective.MAX_SCALAR_CHARS``) and the digits of its
:attr:`CycloNumber.height` (``projective.MAX_COEFFICIENT_DIGITS``); values
built in Python are unbounded.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "ConductorMismatch",
    "cyclotomic_polynomial",
    "CycloNumber",
    "cyclo_arith",
    "parse_scalar",
    "format_scalar",
]


class ConductorMismatch(ValueError):
    """Mixed ``CycloNumber`` conductors in one operation."""


def _divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """
    Quotient and remainder of two integer polynomials (ascending
    coefficients), ``den`` monic.

    The remainder always has ``len(den) - 1`` coefficients, zero-padded.
    """
    num = list(num)
    deg = len(den) - 1
    if len(num) < deg:
        return [0], num + [0] * (deg - len(num))
    # The leading term cancels by construction and is never read again.
    terms = [(i, d) for i, d in enumerate(den[:-1]) if d]
    quo = [0] * max(1, len(num) - deg)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + deg]
        if c:
            quo[shift] = c
            for i, d in terms:
                num[shift + i] -= c * d
    del num[deg:]
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
            assert not any(rem), f"non-exact division building Phi_{n}"
    return tuple(work)


def _mul_mod(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two reduced integer numerator lists, reduced mod Phi_n."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    # Phi_n divides x^n - 1: folding e^(n+i) onto e^i first leaves a dense
    # Phi_n (n prime) a single division step.
    for i in range(n, len(prod)):
        prod[i - n] += prod[i]
    return _divmod(prod[:n], cyclotomic_polynomial(n))[1]


def _conjugate(n: int, a: Sequence[int], k: int) -> list[int]:
    """The Galois conjugate s_k(a), e -> e^k, of reduced numerators, reduced again."""
    image = [0] * n
    for i, x in enumerate(a):
        if x:
            image[i * k % n] += x
    return _divmod(image, cyclotomic_polynomial(n))[1]


@lru_cache(maxsize=None)
def _galois_steps(n: int) -> tuple[tuple[int, int], ...]:
    """
    Pairs (g, r) that build the unit group (Z/n)^*, the Galois group of
    Q(e): each g has order r over the subgroup H that the pairs before it
    generate, so the cosets g^j H, 0 <= j < r, make the next subgroup.

    The inverse walks these pairs with :func:`_orbit_product`: 12 field
    products at conductor 31 instead of 29 one conjugate at a time.  The
    costliest 256-line documents within projective's scalar bounds are read
    in about 1.1 s this way and took 3.2 s the direct way (2-core x86-64
    VM, Python 3.11), past the 2 s their tests allow.
    """
    group, steps = {1 % n}, []
    for g in range(2, n):
        if gcd(g, n) == 1 and g not in group:
            r, power = 1, g
            while power not in group:
                r, power = r + 1, power * g % n
            group = {h * pow(g, j, n) % n for h in group for j in range(r)}
            steps.append((g, r))
    return tuple(steps)


def _orbit_product(n: int, t: list[int], g: int, m: int) -> list[int]:
    """prod s_{g^j}(t) over 0 <= j < m, in about 2 log2(m) products."""
    if m == 1:
        return t
    if m % 2:
        return _mul_mod(n, t, _conjugate(n, _orbit_product(n, t, g, m - 1), g))
    half = _orbit_product(n, t, g, m // 2)
    return _mul_mod(n, half, _conjugate(n, half, pow(g, m // 2, n)))


_HASH_MODULUS = sys.hash_info.modulus


def _store(self: "CycloNumber", n: int, num: list[int], den: int) -> None:
    """Set self to num/den (``num`` reduced mod Phi_n, ``den`` > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [a // g for a in num]
        den //= g
    object.__setattr__(self, "n", n)
    object.__setattr__(self, "_num", tuple(num))
    object.__setattr__(self, "_den", den)


def _cyclo(n: int, num: list[int], den: int) -> "CycloNumber":
    """The CycloNumber num/den, for numerators already reduced mod Phi_n."""
    self = object.__new__(CycloNumber)
    _store(self, n, num, den)
    return self


class CycloNumber:
    """
    Element of the cyclotomic field Q(e), e = primitive n-th root of unity.

    Immutable.  Stored as phi(n) integer numerators over one positive
    denominator with no factor common to all of them, so equal elements have
    equal storage.  ``coeffs`` is the same value as phi(n) Fractions,
    sum coeffs[i] * e^i in the reduced basis, built on demand.  Arithmetic
    runs in integers and reduces mod Phi_n, except that a rational factor
    only scales the numerators; ``inverse`` multiplies the other Galois
    conjugates and divides by the rational norm.
    """

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, coeffs: Iterable[Fraction | int]) -> None:
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        num = [f.numerator * (den // f.denominator) for f in fracs]
        _store(self, n, _divmod(num, cyclotomic_polynomial(n))[1], den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CycloNumber is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__.
        return CycloNumber, (self.n, self.coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) coefficients of 1, e, ..., e^(phi(n)-1), as Fractions."""
        return tuple(Fraction(a, self._den) for a in self._num)

    @property
    def height(self) -> int:
        """
        The largest of the denominator and the absolute numerators, with
        the value written as integers over their least common denominator.
        """
        return max(self._den, *map(abs, self._num))

    # -- constructors

    @classmethod
    def zero(cls, n: int) -> "CycloNumber":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "CycloNumber":
        return cls(n, [1])

    @classmethod
    def from_rational(cls, n: int, value) -> "CycloNumber":
        value = Fraction(value)
        num = [0] * (len(cyclotomic_polynomial(n)) - 1)
        num[0] = value.numerator
        return _cyclo(n, num, value.denominator)

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
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

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
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _cyclo(self.n, [a + b for a, b in zip(self._num, other._num)], d1)
        return _cyclo(self.n, [a * d2 + b * d1 for a, b in zip(self._num, other._num)], d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(self.n, [-a for a in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _cyclo(self.n, [a - b for a, b in zip(self._num, other._num)], d1)
        return _cyclo(self.n, [a * d2 - b * d1 for a, b in zip(self._num, other._num)], d1 * d2)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        # A rational factor, 0 and +-1 included, scales the other's numerators.
        if isinstance(other, (int, Fraction)):
            return _cyclo(self.n, [a * other.numerator for a in self._num], self._den * other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational():
            c = other._num[0]
            return _cyclo(self.n, [a * c for a in self._num], self._den * other._den)
        if self.is_rational():
            c = self._num[0]
            return _cyclo(self.n, [c * b for b in other._num], self._den * other._den)
        return _cyclo(self.n, _mul_mod(self.n, self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """
        Multiplicative inverse: the product of the other Galois conjugates
        s_k(a), 1 < k < n with gcd(k, n) = 1, over the rational norm N(a),
        which is a times that product.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, num, den = self.n, self._num, self._den
        if self.is_rational():  # every conjugate is a itself
            inv = [0] * len(num)
            inv[0] = den if num[0] > 0 else -den
            return _cyclo(n, inv, abs(num[0]))
        # The integer part A = d * a suffices: a^-1 = d * A^-1.  Over the
        # subgroup H built so far, ``others`` is the product of s_h(A) for
        # h != 1 and ``total`` = A * others; a step (g, r) multiplies both by
        # the conjugates of ``total`` under g^j, 0 < j < r.
        others, total = [1], list(num)
        for g, r in _galois_steps(n):
            step = _conjugate(n, _orbit_product(n, total, g, r - 1), g)
            others, total = _mul_mod(n, others, step), _mul_mod(n, total, step)
        # For n > 2 the conjugates come in complex-conjugate pairs, so the
        # norm of a nonzero element is a positive rational.
        norm = total[0]
        assert norm > 0 and not any(total[1:]), "the norm of a nonzero element must be a positive rational"
        return _cyclo(n, [c * den for c in others], norm)

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
        return self.n == other.n and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # A rational value equals that int or Fraction, so it hashes like it.
        if self.is_rational():
            a, d = self._num[0], self._den
            return hash(a) if d == 1 else hash(Fraction(a, d))
        # Otherwise equal to hash((n, coeffs)) without building Fractions: Python
        # hashes a rational a/d like the integer a * d^-1 modulo its hash modulus.
        if self._den == 1:
            return hash((self.n, self._num))
        try:
            dinv = pow(self._den, -1, _HASH_MODULUS)
        except ValueError:  # the denominator is a multiple of the modulus
            return hash((self.n, self.coeffs))
        return hash((self.n, tuple(a * dinv for a in self._num)))

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
    out, den = "", value._den
    for exp in range(len(value._num) - 1, -1, -1):
        c = value._num[exp]
        if not c:
            continue
        g = gcd(c, den)
        mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
        e = "e" if exp == 1 else f"e^{exp}"
        body = mag if exp == 0 else e if mag == "1" else f"{mag}*{e}"
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
