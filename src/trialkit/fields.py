"""Exact scalar arithmetic over Q, quadratic extensions Q(sqrt(d)), and odd prime fields F_p.

Every coefficient in the library flows through :class:`FieldElement`.  Elements
are immutable and hashable, so they can be shared freely between threads.

A value enters a field by one rule, :meth:`FieldDescriptor.coerce`: a
FieldElement of the field is kept as it is, an int or a Fraction converts
exactly (over F_p a denominator divisible by p raises DivisionByZero), a
FieldElement of another field raises DescriptorMismatch, and anything else,
a float, a str or a Decimal, raises TypeError.  `FieldElement(desc, a, b)`,
`element`, `from_int`, the operators of FieldElement and, through them, every
`algebra` entry point read their scalars by this rule.

An element stores three plain Python integers ``(n0, n1, q)`` and stands for
``(n0 + n1*sqrt(d)) / q``:

* Q: ``n1 == 0``, ``q > 0`` and ``gcd(n0, q) == 1`` -- a reduced fraction.
* Q(sqrt d): ``q > 0`` and ``gcd(n0, n1, q) == 1`` -- both coordinates over
  one shared denominator.
* F_p: ``n0`` is the residue in ``[0, p)``, ``n1 == 0`` and ``q == 1``.

Every operation brings its result back to this form with a single
``math.gcd``, so the stored integers are canonical: equality and hashing are
structural and the arithmetic stays exact.  The read-only accessors ``a`` and
``b`` give the coordinates as before (Fractions over Q and Q(sqrt d), the
integer residue over F_p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

RATIONALS = "Q"
QUADRATIC = "Q_sqrt"
PRIME = "Fp"


class FieldError(Exception):
    pass


class DescriptorMismatch(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class SqrtUnavailable(FieldError):
    pass


class FieldNotEmbeddable(FieldError):
    """Raised when a float embedding is requested for a finite field."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_square_free(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str
    d: Optional[int] = None
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == RATIONALS:
            if self.d is not None or self.p is not None:
                raise ValueError("rationals take no parameters")
        elif self.kind == QUADRATIC:
            if self.d is None or self.d in (0, 1) or not is_square_free(self.d):
                raise ValueError(f"d must be square-free and != 0, 1: {self.d}")
        elif self.kind == PRIME:
            if self.p is None or not is_prime(self.p) or self.p == 2:
                raise ValueError(f"p must be an odd prime: {self.p}")
        else:
            raise ValueError(f"unknown field kind: {self.kind}")

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == PRIME else 0

    def zero(self) -> "FieldElement":
        return _make(self, 0, 0, 1)

    def one(self) -> "FieldElement":
        return _make(self, 1, 0, 1)

    def from_int(self, n: int) -> "FieldElement":
        if n.__class__ is not int:
            return self.coerce(n)
        if self.p is not None:
            n %= self.p
        return _make(self, n, 0, 1)

    def from_fraction(self, q: Fraction) -> "FieldElement":
        num, den = q.numerator, q.denominator
        p = self.p
        if p is None:
            return _make(self, num, 0, den)
        if den % p == 0:
            raise DivisionByZero(f"denominator divisible by p={p}")
        return _make(self, num * pow(den, p - 2, p) % p, 0, 1)

    def coerce(self, x) -> "FieldElement":
        """x as an element of this field, the one rule for every value that
        enters it: a FieldElement of this field as it is, an int or a
        Fraction exactly (over F_p a denominator divisible by p raises
        DivisionByZero).  A FieldElement of another field raises
        DescriptorMismatch, and any other type, a float, a str or a Decimal
        included, TypeError."""
        if isinstance(x, FieldElement):
            if x.desc is not self and x.desc != self:
                raise DescriptorMismatch(f"{x.desc} vs {self}")
            return x
        if isinstance(x, int):
            return self.from_int(int(x))
        if isinstance(x, Fraction):
            return self.from_fraction(x)
        raise TypeError(f"not a scalar of {self}: {x!r}")

    def element(self, a, b=None) -> "FieldElement":
        """a, or a + b*sqrt(d) over Q(sqrt d), each read by `coerce`; a second
        coordinate over Q or F_p is a ValueError."""
        x = self.coerce(a)
        if b is None:
            return x
        if self.d is None:
            raise ValueError("second coordinate only valid for quadratic fields")
        y = self.coerce(b)
        # y sqrt d = (d y1 + y0 sqrt d)/qy
        qx, qy = x._q, y._q
        return _reduced(self, x._n0 * qy + self.d * y._n1 * qx, x._n1 * qy + y._n0 * qx, qx * qy)

    def to_json(self) -> dict:
        if self.kind == RATIONALS:
            return {"field": "Q"}
        if self.kind == QUADRATIC:
            return {"field": "Q_sqrt", "d": self.d}
        return {"field": "Fp", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldDescriptor":
        kind = obj["field"]
        if kind == "Q":
            return FieldDescriptor(RATIONALS)
        if kind == "Q_sqrt":
            return FieldDescriptor(QUADRATIC, d=int(obj["d"]))
        if kind == "Fp":
            return FieldDescriptor(PRIME, p=int(obj["p"]))
        raise ValueError(f"unknown field tag: {kind}")


Scalar = Union["FieldElement", int, Fraction]


class FieldElement:
    """Immutable exact scalar in one of the three supported field families.

    ``FieldElement(desc, a, b=None)`` builds ``a`` (Q, F_p) or
    ``a + b*sqrt(d)`` (Q(sqrt d)), as `FieldDescriptor.element` does, except
    that over Q and F_p it also takes a zero ``b``.
    """

    __slots__ = ("desc", "_n0", "_n1", "_q")

    def __init__(self, desc: FieldDescriptor, a, b=None):
        x = desc.element(a, None if desc.d is None and b == 0 else b)
        _set_desc(self, desc)
        _set_n0(self, x._n0)
        _set_n1(self, x._n1)
        _set_q(self, x._q)

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    @property
    def a(self):
        """Rational part (a Fraction), or the integer residue over F_p."""
        if self.desc.p is not None:
            return self._n0
        return Fraction(self._n0, self._q)

    @property
    def b(self) -> Optional[Fraction]:
        """Coefficient of sqrt(d) over Q(sqrt d); None in the other fields."""
        if self.desc.d is None:
            return None
        return Fraction(self._n1, self._q)

    def _coerce(self, other: Scalar) -> "FieldElement":
        """`coerce` for a FieldElement, an int or a Fraction; NotImplemented
        for anything else, so that c * x with an `algebra.Element` x reaches
        the element's own operator."""
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.desc.coerce(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        """Equality with an element, an int or a Fraction, read by `coerce`;
        a scalar with no value in the field (over F_p, a Fraction whose
        denominator p divides) equals no element."""
        if other.__class__ is not FieldElement:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            try:
                other = self._coerce(other)
            except DivisionByZero:
                return False
        return (
            self._n0 == other._n0
            and self._n1 == other._n1
            and self._q == other._q
            and (self.desc is other.desc or self.desc == other.desc)
        )

    def __hash__(self) -> int:
        """An element with no sqrt d part hashes as the Fraction n0/q, so over
        Q and Q(sqrt d) as the equal int or Fraction.  Over F_p that is the
        residue: an element there equals every int of its residue class
        (F7(2) == 9), which no hash can match, so only the residue's own
        hash agrees."""
        if self._n1:
            return hash((self._n0, self._n1, self._q))
        return hash(Fraction(self._n0, self._q))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self._n0 == 0 and self._n1 == 0

    def __add__(self, other: Scalar) -> "FieldElement":
        desc = self.desc
        if other.__class__ is not FieldElement or other.desc is not desc:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if desc.p is not None:
            return _make(desc, (self._n0 + other._n0) % desc.p, 0, 1)
        q, r = self._q, other._q
        if q == r:
            return _reduced(desc, self._n0 + other._n0, self._n1 + other._n1, q)
        return _reduced(desc, self._n0 * r + other._n0 * q, self._n1 * r + other._n1 * q, q * r)

    __radd__ = __add__

    def __neg__(self) -> "FieldElement":
        desc = self.desc
        if desc.p is not None:
            return _make(desc, -self._n0 % desc.p, 0, 1)
        return _make(desc, -self._n0, -self._n1, self._q)

    def __sub__(self, other: Scalar) -> "FieldElement":
        desc = self.desc
        if other.__class__ is not FieldElement or other.desc is not desc:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if desc.p is not None:
            return _make(desc, (self._n0 - other._n0) % desc.p, 0, 1)
        q, r = self._q, other._q
        if q == r:
            return _reduced(desc, self._n0 - other._n0, self._n1 - other._n1, q)
        return _reduced(desc, self._n0 * r - other._n0 * q, self._n1 * r - other._n1 * q, q * r)

    def __rsub__(self, other: Scalar) -> "FieldElement":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "FieldElement":
        desc = self.desc
        if other.__class__ is not FieldElement or other.desc is not desc:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if desc.p is not None:
            return _make(desc, self._n0 * other._n0 % desc.p, 0, 1)
        a0, b0, q = self._n0, other._n0, self._q * other._q
        if desc.d is None:
            return _reduced(desc, a0 * b0, 0, q)
        a1, b1 = self._n1, other._n1
        return _reduced(desc, a0 * b0 + desc.d * a1 * b1, a0 * b1 + a1 * b0, q)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        desc = self.desc
        if desc.p is not None:
            return _make(desc, pow(self._n0, desc.p - 2, desc.p), 0, 1)
        n0, n1, q = self._n0, self._n1, self._q
        if n1 == 0:
            return _make(desc, -q, 0, -n0) if n0 < 0 else _make(desc, q, 0, n0)
        # q/(n0 + n1 sqrt d) = q(n0 - n1 sqrt d)/(n0^2 - d n1^2); the norm is
        # nonzero because d is not a rational square.
        norm = n0 * n0 - desc.d * n1 * n1
        if norm < 0:
            return _reduced(desc, -q * n0, q * n1, -norm)
        return _reduced(desc, q * n0, -q * n1, norm)

    def __truediv__(self, other: Scalar) -> "FieldElement":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> "FieldElement":
        return self.inverse() * other

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.desc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "FieldElement":
        """Quadratic conjugate a + b*sqrt(d) -> a - b*sqrt(d); identity elsewhere."""
        if self._n1 != 0:
            return _make(self.desc, self._n0, -self._n1, self._q)
        return self

    def to_float(self) -> float:
        k = self.desc.kind
        if k == PRIME:
            raise FieldNotEmbeddable("F_p has no float embedding")
        if k == QUADRATIC:
            return self._n0 / self._q + self._n1 / self._q * float(self.desc.d) ** 0.5
        return self._n0 / self._q

    def __repr__(self) -> str:
        return f"FieldElement({self})"

    def __str__(self) -> str:
        k = self.desc.kind
        if k == QUADRATIC:
            if self._n1 == 0:
                return str(self.a)
            if self._n0 == 0:
                return f"{self.b}*sqrt({self.desc.d})"
            return f"{self.a}+{self.b}*sqrt({self.desc.d})"
        return str(self.a)


_set_desc = FieldElement.desc.__set__
_set_n0 = FieldElement._n0.__set__
_set_n1 = FieldElement._n1.__set__
_set_q = FieldElement._q.__set__
_new = object.__new__


def _make(desc: FieldDescriptor, n0: int, n1: int, q: int) -> FieldElement:
    """Wrap integers that are already in canonical form (see module docstring)."""
    x = _new(FieldElement)
    _set_desc(x, desc)
    _set_n0(x, n0)
    _set_n1(x, n1)
    _set_q(x, q)
    return x


def _reduced(desc: FieldDescriptor, n0: int, n1: int, q: int) -> FieldElement:
    """Canonical element (n0 + n1 sqrt d)/q of Q or Q(sqrt d), given q > 0."""
    if q != 1:
        g = gcd(n0, n1, q)
        if g != 1:
            n0, n1, q = n0 // g, n1 // g, q // g
    return _make(desc, n0, n1, q)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_in_field(c: FieldElement) -> Optional[FieldElement]:
    """Return r with r*r == c if one exists in c's field, else None."""
    desc = c.desc
    if desc.kind == RATIONALS:
        r = _rational_sqrt(c.a)
        return None if r is None else FieldElement(desc, r)
    if desc.kind == PRIME:
        # Exhaustive: p is small in this workbench.
        target = c.a
        for r in range((desc.p + 1) // 2):
            if r * r % desc.p == target:
                return FieldElement(desc, r)
        return None
    # Q(sqrt d): solve (a + b sqrt d)^2 = c0 + c1 sqrt d.
    c0, c1, d = c.a, c.b, desc.d
    if c1 == 0:
        r = _rational_sqrt(c0)
        if r is not None:
            return FieldElement(desc, r, Fraction(0))
        r = _rational_sqrt(c0 / d)
        if r is not None:
            return FieldElement(desc, Fraction(0), r)
        return None
    # a != 0, b = c1/(2a), and a^2 solves 2t^2 - 2 c0 t + c1^2 d / 2 = 0.
    disc = _rational_sqrt(c0 * c0 - c1 * c1 * d)
    if disc is None:
        return None
    for sign in (1, -1):
        a2 = (c0 + sign * disc) / 2
        a = _rational_sqrt(a2)
        if a is not None and a != 0:
            b = c1 / (2 * a)
            return FieldElement(desc, a, b)
    return None


def format_scalar(x: FieldElement) -> str:
    """Encode a scalar for the algebra-spec file (exact round-trip)."""
    k = x.desc.kind
    if k == PRIME:
        return str(x.a)
    if k == QUADRATIC:
        return f"{x.a}+{x.b}*sqrt({x.desc.d})"
    return str(x.a)


# a+b*sqrt(d), a-b*sqrt(d) or b*sqrt(d), a and b "n" or "n/m", b possibly signed
_QUADRATIC_TEXT = re.compile(
    r"(?:([+-]?\d+)(?:/(\d+))?([+-]))?([+-]?\d+)(?:/(\d+))?\*sqrt\(([+-]?\d+)\)")


def parse_scalar(text: str, desc: FieldDescriptor) -> FieldElement:
    """Read a scalar as `format_scalar` or `str` writes it: an integer
    residue, a rational, or over Q(sqrt d) also a+b*sqrt(d), a-b*sqrt(d) or
    b*sqrt(d).  A sqrt of any other d, or a sqrt outside Q(sqrt d), is a
    ValueError."""
    text = text.strip().replace(" ", "")
    if desc.kind == PRIME:
        return desc.element(int(text))
    if desc.kind != QUADRATIC or not text.endswith(")"):
        return desc.element(Fraction(text))
    m = _QUADRATIC_TEXT.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse quadratic scalar: {text}")
    an, ad, sign, bn, bd, d = m.groups()
    if int(d) != desc.d:
        raise ValueError(f"sqrt({d}) is not in Q(sqrt({desc.d}))")
    an, ad, bn, bd = int(an or 0), int(ad or 1), int(bn), int(bd or 1)
    if ad == 0 or bd == 0:
        raise ZeroDivisionError(f"zero denominator in {text}")
    return _reduced(desc, an * bd, -bn * ad if sign == "-" else bn * ad, ad * bd)
