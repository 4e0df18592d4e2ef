"""Spec files round-trip: algebra_from_dict(algebra_to_dict(a)) is a again,
and every scalar survives format_scalar then parse_scalar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trialkit.algebra import Algebra
from trialkit.constructors import named_algebra
from trialkit.fields import (FieldDescriptor, FieldElement, PRIME, QUADRATIC, RATIONALS,
                             SqrtUnavailable, format_scalar, parse_scalar)
from trialkit.specfile import algebra_from_dict, algebra_to_dict

FIELDS = ([FieldDescriptor(RATIONALS)]
          + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5)]
          + [FieldDescriptor(PRIME, p=p) for p in (3, 5, 7, 13, 31)])
NAMED = ("ground", "para2", "hurwitz:1", "hurwitz:2", "hurwitz:4", "hurwitz:8",
         "hurwitz:4:split", "hurwitz:8:split", "para:1", "para:2", "para:4", "para:8",
         "para:4:split", "okubo", "okubo:-", "matrix:2", "zorn", "parazorn:1:1",
         "parazorn:2:1", "parazorn:3:2")


@st.composite
def scalars(draw, field):
    """Any scalar of the field: residues, or fractions with either sign in
    both coordinates of Q(sqrt d)."""
    if field.kind == PRIME:
        return field.from_int(draw(st.integers(-2 * field.p, 2 * field.p)))
    nums, dens = st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)
    a = Fraction(draw(nums), draw(dens))
    if field.kind == QUADRATIC:
        return FieldElement(field, a, Fraction(draw(nums), draw(dens)))
    return FieldElement(field, a)


def exact(x):
    return (x.desc, x._n0, x._n1, x._q)


def exact_rows(rows):
    return None if rows is None else [[exact(x) for x in row] for row in rows]


def exact_vector(v):
    return None if v is None else [exact(x) for x in v]


def shape(a):
    """Everything a spec file carries, entry by entry and exactly."""
    return (a.name, a.kind, a.field, a.dim,
            [exact_rows(plane) for plane in a.structure],
            exact_rows(a.form), exact_rows(a.involution), exact_vector(a.unit),
            exact_vector(getattr(a, "para_unit", None)))


def random_scalar(field, rng):
    """A scalar as `scalars` draws it, from a seeded generator: drawing each
    of the up to 512 structure constants through hypothesis is slow."""
    if field.kind == PRIME:
        return field.from_int(rng.randint(-2 * field.p, 2 * field.p))

    def q():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))

    return FieldElement(field, q(), q()) if field.kind == QUADRATIC else FieldElement(field, q())


_NAMED = {}


def named(name, field):
    if (name, field) not in _NAMED:
        try:
            _NAMED[name, field] = named_algebra(name, field)
        except SqrtUnavailable:  # okubo needs sqrt(3) in the field
            _NAMED[name, field] = named_algebra("para:4", field)
    return _NAMED[name, field]


@st.composite
def algebras(draw):
    field = draw(st.sampled_from(FIELDS))
    a = named(draw(st.sampled_from(NAMED)), field)
    if draw(st.booleans()):
        # the same form, involution, units and tags over random structure
        # constants, about half of them zero
        rng = draw(st.randoms(use_true_random=False))
        n = a.dim
        structure = [[[random_scalar(field, rng) if rng.random() < 0.5 else field.zero()
                       for _ in range(n)] for _ in range(n)] for _ in range(n)]
        a = Algebra(field, structure, form=a.form, involution=a.involution, unit=a.unit,
                    name=a.name, para_unit=a.para_unit, kind=a.kind)
    return a


@settings(max_examples=80, deadline=None)
@given(algebras())
def test_spec_dict_round_trip(a):
    back = algebra_from_dict(algebra_to_dict(a))
    assert shape(back) == shape(a)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(scalars))
def test_scalar_text_round_trip(x):
    back = parse_scalar(format_scalar(x), x.desc)
    assert back == x and exact(back) == exact(x)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(scalars))
def test_scalar_str_round_trip(x):
    """str() writes b*sqrt(d) when the rational part is 0, as it is in x minus
    its rational part, and a negative b as a+-b."""
    for y in (x, x - x.desc.element(x.a)):
        back = parse_scalar(str(y), y.desc)
        assert back == y and exact(back) == exact(y)


def test_quadratic_scalar_spellings():
    f = FieldDescriptor(QUADRATIC, d=3)
    want = {"1+2*sqrt(3)": (1, 2), "1-2*sqrt(3)": (1, -2), "1+-2*sqrt(3)": (1, -2),
            "3*sqrt(3)": (0, 3), "-3/2*sqrt(3)": (0, Fraction(-3, 2)),
            "-1/2+-3/4*sqrt(3)": (Fraction(-1, 2), Fraction(-3, 4)), "7/3": (Fraction(7, 3), 0),
            " 1 + 2 * sqrt(3) ": (1, 2)}
    for text, (a, b) in want.items():
        assert parse_scalar(text, f) == FieldElement(f, a, b), text


@pytest.mark.parametrize("text", ["1+2*sqrt(5)", "2*sqrt(-3)", "sqrt(3)", "1+2+3*sqrt(3)",
                                  "1+2*sqrt(3)x", "1*2*sqrt(3)"])
def test_quadratic_scalar_outside_the_field_is_a_value_error(text):
    with pytest.raises(ValueError):
        parse_scalar(text, FieldDescriptor(QUADRATIC, d=3))
