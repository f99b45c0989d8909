import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levicycles.exact_field import (
    ConductorMismatch,
    CycloNumber,
    _cyclo,
    _mul_mod,
    cyclo_arith,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
)
from levicycles.projective import ProjLine


KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n", sorted(KNOWN_PHI))
def test_cyclotomic_polynomial_known(n):
    assert cyclotomic_polynomial(n) == KNOWN_PHI[n]


def test_cyclotomic_polynomial_is_monic_of_totient_degree():
    totient = {7: 6, 11: 10, 12: 4, 15: 8, 16: 8, 18: 6, 20: 8}
    for n, phi in totient.items():
        coeffs = cyclotomic_polynomial(n)
        assert len(coeffs) == phi + 1
        assert coeffs[-1] == 1


@pytest.mark.parametrize("n", [0, -3, "6", 2.0])
def test_cyclotomic_polynomial_rejects_bad_conductor(n):
    with pytest.raises(ValueError):
        cyclotomic_polynomial(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_root_is_a_root_of_phi(n):
    eps = CycloNumber.root(n)
    value = CycloNumber.zero(n)
    for i, c in enumerate(cyclotomic_polynomial(n)):
        value = value + c * CycloNumber.root(n, i)
    assert value.is_zero
    assert not value
    # and eps^n = 1 by repeated multiplication, not just exponent reduction
    power = CycloNumber.one(n)
    for _ in range(n):
        power = power * eps
    assert power == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_all_roots_sum_to_zero(n):
    total = sum(CycloNumber.root(n, i) for i in range(n))
    assert total == 0


def test_reduction_identities():
    assert CycloNumber.root(4, 2) == -1
    assert CycloNumber.root(6, 3) == -1
    # 1 + e + e^2 = 0 in Q(zeta_3)
    assert CycloNumber.root(3, 2) == -1 - CycloNumber.root(3)
    # exponent wraps mod the conductor
    assert CycloNumber.root(5, 7) == CycloNumber.root(5, 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_inverse_roundtrip(n):
    eps = CycloNumber.root(n)
    x = eps + 2
    assert not x.is_zero
    assert x * x.inverse() == 1
    y = 3 - eps * eps
    assert (x / y) * y == x


def test_inverse_of_root_is_inverse_power():
    eps = CycloNumber.root(12)
    assert eps.inverse() == CycloNumber.root(12, 11)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(5).inverse()


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        CycloNumber.root(3) + CycloNumber.root(4)
    with pytest.raises(ConductorMismatch):
        CycloNumber.root(3) * CycloNumber.root(6)


def test_mixed_arithmetic_with_rationals():
    eps = CycloNumber.root(4)
    assert (1 + eps) - eps == 1
    assert (Fraction(1, 2) * eps) * 2 == eps
    assert 1 / eps == CycloNumber.root(4, 3)
    assert 2 - eps == -(eps - 2)


def test_unsupported_operand():
    with pytest.raises(TypeError):
        CycloNumber.root(4) + 1.5


def test_predicates_and_equality():
    three = CycloNumber.from_rational(7, 3)
    assert three.is_rational()
    assert three == 3
    assert not CycloNumber.root(7).is_rational()
    # equality requires matching conductor, even for equal abstract values
    assert CycloNumber.root(4) != CycloNumber.root(8, 2)
    assert hash(CycloNumber.root(4)) == hash(CycloNumber.root(4, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 31])
@pytest.mark.parametrize("r", [0, 1, -1, 3, Fraction(1, 2), Fraction(-7, 3), 10**30, Fraction(1, 2**61 - 1)])
def test_rational_value_hashes_like_the_rational(n, r):
    # It compares equal to r, so sets and dicts must see one key.
    x = CycloNumber.from_rational(n, r)
    assert x == r and hash(x) == hash(r)
    assert len({x, r}) == 1


def test_immutable():
    eps = CycloNumber.root(4)
    with pytest.raises(AttributeError):
        eps.coeffs = (Fraction(0), Fraction(0))


def test_cyclo_arith_dispatch():
    a = CycloNumber.root(5)
    b = CycloNumber.from_rational(5, 2)
    assert cyclo_arith(a, b, "add") == a + 2
    assert cyclo_arith(a, b, "sub") == a - 2
    assert cyclo_arith(a, b, "mul") == a * 2
    assert cyclo_arith(a, b, "div") == a / 2
    with pytest.raises(ValueError):
        cyclo_arith(a, b, "pow")


def test_format_rational():
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(5) == "5"
    assert parse_scalar("-3/2") == Fraction(-3, 2)


def test_format_rejects_other_types():
    with pytest.raises(TypeError):
        format_scalar(1.5)


def test_parse_without_conductor_rejects_roots():
    with pytest.raises(ValueError):
        parse_scalar("e^2+1")


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_format_parse_roundtrip(n):
    eps = CycloNumber.root(n)
    samples = [
        CycloNumber.zero(n),
        CycloNumber.one(n),
        -CycloNumber.one(n),
        eps,
        -eps,
        Fraction(1, 2) * eps - 3,
        eps * eps + 2 * eps - Fraction(5, 3),
        (1 + eps).inverse(),
    ]
    for x in samples:
        text = format_scalar(x)
        assert parse_scalar(text, conductor=n) == x


def test_format_examples():
    eps = CycloNumber.root(12)
    assert format_scalar(CycloNumber.zero(12)) == "0"
    assert format_scalar(eps * eps + 1) == "e^2+1"
    assert format_scalar(Fraction(1, 2) * eps - 3) == "1/2*e-3"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("e + ?", conductor=4)
    with pytest.raises(ValueError):
        parse_scalar("1 2", conductor=4)
    with pytest.raises(ValueError):
        parse_scalar("", conductor=4)


def test_parse_handles_high_exponents():
    # e^7 in Q(zeta_4) wraps to e^3 = -e
    assert parse_scalar("e^7", conductor=4) == -CycloNumber.root(4)


@pytest.mark.parametrize("text", ["1e5", "1E3", "1.5", "1_000", "e^0", "1+2", "e", "1*e^0", "+", "1/"])
def test_parse_without_conductor_accepts_one_constant_term_only(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("+7", 7), ("-3/6", Fraction(-1, 2)), (" 12/5 ", Fraction(12, 5))])
def test_parse_without_conductor_constants(text, value):
    assert parse_scalar(text) == value


# Property tests: derandomized, no example database, bounded example counts.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

small_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))


@st.composite
def cyclo_numbers(draw):
    n = draw(st.integers(1, 16))
    return CycloNumber(n, draw(st.lists(small_fractions, max_size=n + 2)))


@PROPERTY
@given(cyclo_numbers())
def test_property_cyclo_format_parse_roundtrip(x):
    assert parse_scalar(format_scalar(x), x.n) == x


@PROPERTY
@given(small_fractions)
def test_property_fraction_format_parse_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


@PROPERTY
@given(cyclo_numbers())
def test_property_inverse(x):
    assume(x)
    assert x * x.inverse() == 1
    assert x.inverse() * x == 1


@PROPERTY
@given(
    st.text(alphabet=st.sampled_from("0123456789+-*/^eE._ x\t") | st.characters(), max_size=24),
    st.none() | st.integers(1, 16),
)
def test_property_parse_raises_only_value_errors(text, conductor):
    try:
        value = parse_scalar(text, conductor)
    except (ValueError, ZeroDivisionError):
        return
    assert parse_scalar(format_scalar(value), conductor) == value


# -- Differential tests against a reference: the Fraction arithmetic this
# module used before its fraction-free representation (coefficients reduced
# by division over Q, inverse by extended Euclid in Q[x]).


def _ref_divmod(num, den):
    """Quotient and remainder over Q, trailing zeros of the remainder stripped."""
    num = [Fraction(c) for c in num]
    deg, lead = len(den) - 1, den[-1]
    quo = [Fraction(0)] * max(1, len(num) - deg)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + deg] / lead
        quo[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
    del num[deg:]
    while num and not num[-1]:
        num.pop()
    return quo, num


def _ref_reduce(n, coeffs):
    phi = cyclotomic_polynomial(n)
    rem = _ref_divmod(coeffs, phi)[1]
    return tuple(rem) + (Fraction(0),) * (len(phi) - 1 - len(rem))


def _ref_mul(n, a, b):
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(n, prod)


def _ref_inverse(n, a):
    r0, r1 = list(a), [Fraction(c) for c in cyclotomic_polynomial(n)]
    t0, t1 = [Fraction(1)], [Fraction(0)]
    while r1:
        quo, rem = _ref_divmod(r0, r1)
        tn = t0 + [Fraction(0)] * (len(quo) + len(t1) - len(t0))
        for i, x in enumerate(quo):
            for j, y in enumerate(t1):
                tn[i + j] -= x * y
        r0, r1 = r1, rem
        t0, t1 = t1, tn
    assert len(r0) == 1 and r0[0], "the gcd with Phi_n must be a nonzero constant"
    return _ref_reduce(n, [c / r0[0] for c in t0])


def _ref_format(coeffs):
    out = ""
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if not c:
            continue
        mag = abs(c)
        e = "e" if exp == 1 else f"e^{exp}"
        body = str(mag) if exp == 0 else e if mag == 1 else f"{mag}*{e}"
        out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


def _ref_canonical(n, triple):
    """The reference canonical form of a homogeneous triple: lead entry scaled to 1."""
    lead = next(v for v in triple if any(v))
    inv = _ref_inverse(n, lead)
    return tuple(_ref_mul(n, v, inv) for v in triple)


DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=100, deadline=None)
tiny_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def coefficient_lists(draw, n, max_size=None):
    """Sparse coefficient lists, sometimes longer than phi(n) or with large entries."""
    size = draw(st.integers(0, max_size if max_size is not None else n + 2))
    entries = draw(st.lists(st.tuples(st.integers(0, max(size - 1, 0)), tiny_fractions | small_fractions),
                            max_size=min(size, 6)))
    coeffs = [Fraction(0)] * size
    for i, c in entries:
        coeffs[i] += c
    return coeffs


@st.composite
def conductor_and_pair(draw):
    n = draw(st.integers(1, 32))
    return n, draw(coefficient_lists(n)), draw(coefficient_lists(n))


@DIFFERENTIAL
@given(conductor_and_pair())
def test_differential_arithmetic_matches_reference(case):
    n, a, b = case
    x, y = CycloNumber(n, a), CycloNumber(n, b)
    ra, rb = _ref_reduce(n, a), _ref_reduce(n, b)
    assert x.coeffs == ra and y.coeffs == rb
    assert (x + y).coeffs == tuple(p + q for p, q in zip(ra, rb))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(ra, rb))
    assert (x * y).coeffs == _ref_mul(n, ra, rb)
    assert (x == y) == (ra == rb)
    assert hash(x) == (hash(ra[0]) if not any(ra[1:]) else hash((n, ra)))
    assert format_scalar(x) == _ref_format(ra)
    if any(ra):
        assert x.inverse().coeffs == _ref_inverse(n, ra)
        assert (y / x).coeffs == _ref_mul(n, rb, _ref_inverse(n, ra))


@st.composite
def conductor_and_triple(draw):
    n = draw(st.integers(1, 32))
    triple = [draw(coefficient_lists(n)) for _ in range(3)]
    assume(any(any(_ref_reduce(n, t)) for t in triple))
    return n, triple


@DIFFERENTIAL
@given(conductor_and_triple())
def test_differential_projline_canonical_form_matches_reference(case):
    n, triple = case
    line = ProjLine(tuple(CycloNumber(n, t) for t in triple))
    expected = _ref_canonical(n, [_ref_reduce(n, t) for t in triple])
    assert tuple(c.coeffs for c in line.coords) == expected
    assert [format_scalar(c) for c in line.coords] == [_ref_format(c) for c in expected]


@pytest.mark.parametrize("n", range(1, 33))
def test_inverse_of_dense_element_matches_reference(n):
    # Every power of e with its own coefficient and denominator, so each
    # Galois conjugate is a dense element and the norm is far from trivial.
    coeffs = [Fraction((-1) ** i * (i + 2), i % 5 + 1) for i in range(len(cyclotomic_polynomial(n)) - 1)]
    x = CycloNumber(n, coeffs)
    assert x.inverse().coeffs == _ref_inverse(n, _ref_reduce(n, coeffs))
    assert x * x.inverse() == 1


@pytest.mark.parametrize("n", range(1, 33))
def test_rational_factor_scales_like_the_full_product(n):
    # A rational operand, 0 and +-1 included, scales the other's numerators
    # instead of calling _mul_mod; the stored value must be the same.
    def full(a, b):
        return _cyclo(n, _mul_mod(n, a._num, b._num), a._den * b._den)

    def stored(c):
        return c.n, c._num, c._den

    rng = random.Random(n)
    phi = len(cyclotomic_polynomial(n)) - 1
    for _ in range(25):
        x = CycloNumber(n, [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(phi)])
        r = rng.choice([0, 1, -1, rng.randrange(-10**9, 10**9), Fraction(rng.randrange(-99, 99), rng.randrange(1, 99))])
        rc = CycloNumber.from_rational(n, r)
        for product in (x * r, r * x, x * rc, rc * x):
            assert stored(product) == stored(full(x, rc))
        assert stored(rc * rc) == stored(full(rc, rc))
