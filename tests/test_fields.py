from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialkit.fields import (DivisionByZero, FieldDescriptor, PRIME,
                             QUADRATIC, RATIONALS, format_scalar,
                             parse_scalar, sqrt_in_field)

Q = FieldDescriptor(RATIONALS)
QS3 = FieldDescriptor(QUADRATIC, d=3)
F7 = FieldDescriptor(PRIME, p=7)


def test_rational_arithmetic():
    a = Q.from_fraction(Fraction(2, 3))
    b = Q.from_int(5)
    assert a + b == Q.from_fraction(Fraction(17, 3))
    assert a * b == Q.from_fraction(Fraction(10, 3))
    assert (a - a).is_zero()
    assert b / a == Q.from_fraction(Fraction(15, 2))
    assert -a == Q.from_fraction(Fraction(-2, 3))


def test_quadratic_arithmetic():
    r3 = sqrt_in_field(QS3.from_int(3))
    assert r3 is not None
    assert r3 * r3 == QS3.from_int(3)
    x = QS3.from_int(1) + r3
    y = QS3.from_int(2) - r3
    # (1 + s)(2 - s) = 2 + s - 3 = s - 1
    assert x * y == r3 - QS3.from_int(1)
    assert (x / x) == QS3.one()


def test_prime_field_arithmetic():
    a = F7.from_int(3)
    b = F7.from_int(5)
    assert a + b == F7.from_int(1)
    assert a * b == F7.from_int(1)
    assert a.inverse() == F7.from_int(5)
    assert F7.from_fraction(Fraction(1, 2)) == F7.from_int(4)


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()
    with pytest.raises(DivisionByZero):
        F7.zero().inverse()


def test_sqrt_availability():
    assert sqrt_in_field(Q.from_int(4)) == Q.from_int(2)
    assert sqrt_in_field(Q.from_int(3)) is None
    assert sqrt_in_field(QS3.from_int(12)) == QS3.from_int(2) * sqrt_in_field(QS3.from_int(3))
    # 3 = 5^2 mod 11, but 3 is not a square mod 7
    F11 = FieldDescriptor(PRIME, p=11)
    r = sqrt_in_field(F11.from_int(3))
    assert r is not None and r * r == F11.from_int(3)
    assert sqrt_in_field(F7.from_int(3)) is None


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor(QUADRATIC, d=4)  # not square-free
    with pytest.raises(ValueError):
        FieldDescriptor(PRIME, p=6)
    with pytest.raises(ValueError):
        FieldDescriptor(PRIME, p=2)


def test_format_parse_round_trip():
    for desc, vals in ((Q, ["-7/3", "0", "5"]),
                       (F7, ["3", "0"]),):
        for text in vals:
            x = parse_scalar(text, desc)
            assert parse_scalar(format_scalar(x), desc) == x
    x = QS3.from_fraction(Fraction(1, 2)) + sqrt_in_field(QS3.from_int(3))
    assert parse_scalar(format_scalar(x), QS3) == x


def test_characteristic():
    assert Q.characteristic == 0
    assert F7.characteristic == 7
    assert FieldDescriptor(PRIME, p=3).characteristic == 3


# ---------------------------------------------------------------------------
# Cross-check against a plain-Fraction reference model
# ---------------------------------------------------------------------------

FIELDS = ([Q]
          + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5, 6, 10)]
          + [FieldDescriptor(PRIME, p=p) for p in (3, 5, 7, 11, 13)])

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def ref_coords(desc, a):
    """Reference value of the rational a: a residue in F_p, else the pair (a, 0)."""
    if desc.kind == PRIME:
        if a.denominator % desc.p == 0:
            raise DivisionByZero
        return a.numerator * pow(a.denominator, -1, desc.p) % desc.p
    return (a, Fraction(0))


def ref_op(desc, op, x, y=None):
    """Apply op to reference values: residues mod p, or Fraction pairs (a, b)
    standing for a + b*sqrt(d) (b == 0 over Q)."""
    if op == "div":
        return ref_op(desc, "mul", x, ref_op(desc, "inv", y))
    if desc.kind == PRIME:
        p = desc.p
        if op == "add":
            return (x + y) % p
        if op == "sub":
            return (x - y) % p
        if op == "mul":
            return x * y % p
        if op == "neg":
            return -x % p
        if x == 0:
            raise DivisionByZero
        return pow(x, -1, p)
    d = desc.d or 0
    if op == "add":
        return (x[0] + y[0], x[1] + y[1])
    if op == "sub":
        return (x[0] - y[0], x[1] - y[1])
    if op == "mul":
        return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    if op == "neg":
        return (-x[0], -x[1])
    norm = x[0] * x[0] - d * x[1] * x[1]
    if norm == 0:
        raise DivisionByZero
    return (x[0] / norm, -x[1] / norm)


def coords(x):
    if x.desc.kind == PRIME:
        return x.a
    if x.desc.kind == QUADRATIC:
        return (x.a, x.b)
    assert x.b is None
    return (x.a, Fraction(0))


def from_ref(desc, r):
    if desc.kind == PRIME:
        return desc.element(r)
    if desc.kind == QUADRATIC:
        return desc.element(*r)
    return desc.from_fraction(r[0])


def assert_matches(x, desc, r):
    """x has the reference value r, and equals (and hashes like) the element
    built directly from r, so results stay in one canonical form."""
    assert coords(x) == r
    fresh = from_ref(desc, r)
    assert x == fresh and hash(x) == hash(fresh)


def ref_str(desc, r):
    if desc.kind == PRIME:
        return str(r)
    a, b = r
    if desc.kind == RATIONALS or b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt({desc.d})"
    return f"{a}+{b}*sqrt({desc.d})"


@st.composite
def scalars(draw, desc):
    """(element, reference value) pairs built through the public constructors."""
    if desc.kind == PRIME:
        n = draw(st.integers(-3 * desc.p, 3 * desc.p))
        return desc.element(n), n % desc.p
    a = draw(small_fractions)
    if desc.kind == QUADRATIC:
        b = draw(small_fractions)
        return desc.element(a, b), (a, b)
    return desc.from_fraction(a), (a, Fraction(0))


@st.composite
def field_and_pair(draw):
    desc = draw(st.sampled_from(FIELDS))
    return desc, draw(scalars(desc)), draw(scalars(desc))


@settings(max_examples=200, deadline=None)
@given(field_and_pair())
def test_arithmetic_matches_fraction_model(case):
    desc, (x, rx), (y, ry) = case
    assert coords(x) == rx and coords(y) == ry
    assert_matches(x + y, desc, ref_op(desc, "add", rx, ry))
    assert_matches(x - y, desc, ref_op(desc, "sub", rx, ry))
    assert_matches(x * y, desc, ref_op(desc, "mul", rx, ry))
    assert_matches(-x, desc, ref_op(desc, "neg", rx))
    for op, call in (("inv", x.inverse), ("div", lambda: x / y)):
        try:
            want = ref_op(desc, op, rx, ry)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                call()
        else:
            assert_matches(call(), desc, want)


@settings(max_examples=200, deadline=None)
@given(field_and_pair())
def test_equality_and_hash_match_fraction_model(case):
    desc, (x, rx), (y, ry) = case
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    # the same value reached along different paths is equal and hashes equal
    for same in ((x + y) - y, (x * y) + x - x * y, x * desc.one(), -(-x),
                 parse_scalar(format_scalar(x), desc)):
        assert same == x and not (same != x)
        assert hash(same) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_equality_with_ints_and_fractions(desc, data):
    x, rx = data.draw(scalars(desc))
    n = data.draw(st.integers(-60, 60))
    assert (x == n) == (rx == ref_coords(desc, Fraction(n)))
    assert (x == n) == (n == x)
    f = data.draw(small_fractions)
    try:
        want = rx == ref_coords(desc, f)
    except DivisionByZero:
        want = False  # f has no value in the field, so it equals no element
    assert (x == f) == want
    assert (x != f) == (not want)
    # equal values hash equal: an int or a Fraction, over F_p the residue
    residue = n if desc.p is None else n % desc.p
    if x == n:
        assert hash(x) == hash(residue) and {residue: "x"}.get(x) == "x"
    if want and desc.p is None:
        assert hash(x) == hash(f) and x in {f}
    # a value given as an int or Fraction coerces in arithmetic too
    assert_matches(x + n, desc, ref_op(desc, "add", rx, ref_coords(desc, Fraction(n))))
    assert_matches(n * x, desc, ref_op(desc, "mul", ref_coords(desc, Fraction(n)), rx))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_str_and_format_parse_round_trip(desc, data):
    x, rx = data.draw(scalars(desc))
    assert str(x) == ref_str(desc, rx)
    assert repr(x) == f"FieldElement({ref_str(desc, rx)})"
    text = format_scalar(x)
    back = parse_scalar(text, desc)
    assert back == x and hash(back) == hash(x)
    assert format_scalar(back) == text


def test_elements_are_immutable():
    x = QS3.element(1, 2)
    with pytest.raises(AttributeError):
        x.desc = Q
    with pytest.raises(AttributeError):
        x.a = Fraction(3)
    with pytest.raises(AttributeError):
        del x.desc
    assert x == QS3.element(1, 2)
