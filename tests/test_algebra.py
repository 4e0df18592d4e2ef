from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from trialkit import autos, linalg, triality
from trialkit.algebra import Algebra, AlgebraError, Element, LinearMap, _int_element, _int_map
from trialkit.constructors import (cross_space, make_hurwitz, make_para, make_para_zorn,
                                   named_algebra)
from trialkit.fields import (DescriptorMismatch, DivisionByZero, FieldDescriptor, FieldElement,
                             PRIME, QUADRATIC, RATIONALS)
from trialkit.linalg import NotInvertible, _lift
from trialkit.symcomp import is_symmetric_composition, residue_arithmetic

Q = FieldDescriptor(RATIONALS)


def quaternions():
    return make_hurwitz(Q, (-1, -1))


def test_element_arithmetic():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    assert i * j == k
    assert j * i == -k
    assert i * i == -e
    assert (i + j) * (i - j) == i * i - i * j + j * i - j * j == -k - k
    assert 2 * i == i + i
    assert (i + j) / Q.from_int(2) + (i + j) / Q.from_int(2) == i + j


def test_form_and_involution():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    assert h.form_eval(i, i) == Q.one()
    assert h.form_eval(i, j).is_zero()
    assert h.involute(i) == -i
    assert h.involute(e) == e
    x = e + i + j
    assert x * h.involute(x) == h.form_eval(x, x) * e


def test_linear_map_operations():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    li = h.left_op(i)
    assert li(j) == i * j
    ri = h.right_op(i)
    assert ri(j) == j * i
    assert (li @ ri)(k) == i * (k * i)
    inv = li.inverse()
    assert (li @ inv).is_identity()
    assert (li - li)(j).is_zero()
    assert (Q.from_int(3) * li)(j) == 3 * (i * j)
    # the first nonzero entry, column by column, as (column, row): over F7
    # the entry 7 is 0, and over Q(sqrt 3) the entry s = sqrt 3 has no
    # rational part
    for field in SCALAR_FIELDS:
        a = Algebra(field, [[[0] * 3] * 3] * 3)
        s = field.element(0, 1) if field.d is not None else Fraction(1, 2)
        m = LinearMap(a, [[0, 7, 1], [0, 0, 0], [0, s, 0]])
        assert m.first_nonzero() == ((1, 2) if field.p == 7 else (1, 0))
        assert (m - LinearMap(a, [[0, 7, 0]] + [[0] * 3] * 2)).first_nonzero() == (1, 2)
        assert (m - m).first_nonzero() is None


def test_singular_map_raises():
    h = quaternions()
    zero_map = LinearMap(h, [[Q.zero()] * 4 for _ in range(4)])
    with pytest.raises(NotInvertible):
        zero_map.inverse()


SCALAR_FIELDS = (Q, FieldDescriptor(QUADRATIC, d=3), FieldDescriptor(PRIME, p=7))


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=["Q", "Qsqrt3", "F7"])
def test_scalars_coerce_exactly_or_raise(field):
    """An int or a Fraction scales an element or a map, or becomes a
    coordinate, a matrix entry, an argument of Algebra or a constructor's
    scalar, exactly as its FieldElement does; a float, a str or any other
    type raises TypeError, and a FieldElement of another field
    DescriptorMismatch.  Over F_7 a denominator divisible by 7 raises
    DivisionByZero."""
    a = named_algebra("para:4", field)
    x = a.element([1, 2, 0, 3])
    m = a.left_op(x)
    half, h = Fraction(1, 2), field.from_int(Fraction(1, 2))
    assert not (x * half).is_zero()
    assert canonical((x * half).coords) == canonical([h * c for c in x.coords])
    assert x * half == half * x == x * h == x / 2 == x / field.from_int(2)
    assert x * 3 == 3 * x == x + x + x and x * Fraction(6, 2) == x * 3
    assert m * half == half * m == h * m and (m * half)(x) == h * m(x)
    assert a.element([half, 0, 0, 0]) == h * a.basis(0)
    assert a.element([Fraction(-3, 4), 1, 0, 0]).coords[0] == field.from_int(Fraction(-3, 4))
    operations = (lambda c: x * c, lambda c: c * x, lambda c: x / c, lambda c: m * c,
                  lambda c: c * m, lambda c: a.element([c, 0, 0, 0]))
    for bad in (2.7, 0.5, 2.0, "2", None, complex(1, 0)):
        for op in operations:
            with pytest.raises(TypeError):
                op(bad)
    for op in operations:
        with pytest.raises(DescriptorMismatch):
            op(FieldDescriptor(PRIME, p=11).one())
        if field.p is not None:
            with pytest.raises(DivisionByZero):
                op(Fraction(3, 14))
    # One table of inputs for every entry point: each reads c as
    # FieldDescriptor.coerce does, so an int or a Fraction gives what its
    # FieldElement gives (views and integers alike), and the rest raise.
    one, zero = field.one(), field.zero()

    def small(**args):
        """A two-dimensional algebra with one argument replaced."""
        full = dict(structure=[[[zero, zero], [zero, zero]], [[zero, zero], [zero, zero]]],
                    form=[[one, zero], [zero, one]], involution=[[one, zero], [zero, -one]],
                    unit=[one, zero], para_unit=[one, zero])
        b = Algebra(field, **{**full, **args})
        e0, e1 = b.basis_elements()
        return [*(e0 * e0).coords, b.form_eval(e0, e1), *b.involute(e1).coords,
                *b.unit_element().coords, *[x for p in b.structure for r in p for x in r],
                *[x for r in b.form + b.involution for x in r], *b.unit, *b.para_unit]

    entry_points = {
        "FieldElement()": lambda c: [FieldElement(field, c)],
        "element()": lambda c: [field.element(c)],
        "from_int()": lambda c: [field.from_int(c)],
        "Algebra.element": lambda c: a.element([c, 0, 0, 0]).coords,
        "Element()": lambda c: Element(a, [c, one, zero, one]).coords,
        "LinearMap()": lambda c: [y for r in LinearMap(a, [[c] * 4] * 4).rows for y in r]
                                 + LinearMap(a, [[c] * 4] * 4)(x).coords,
        "Algebra structure": lambda c: small(structure=[[[c, zero], [zero, zero]],
                                                        [[zero, zero], [zero, zero]]]),
        "Algebra form": lambda c: small(form=[[one, c], [c, one]]),
        "Algebra involution": lambda c: small(involution=[[one, c], [zero, -one]]),
        "Algebra unit": lambda c: small(unit=[c, zero]),
        "Algebra para_unit": lambda c: small(para_unit=[zero, c]),
        "make_hurwitz gammas": lambda c: (lambda h: [h.form[i][i] for i in range(4)]
                                          + (h.basis(1) * h.basis(1)).coords)(
                                              make_hurwitz(field, (c, -1))),
        "make_para_zorn k": lambda c: [y for p in make_para_zorn(cross_space(field), c).structure
                                       for r in p for y in r],
        "x * c": lambda c: (x * c).coords,
        "x / c": lambda c: (x / c).coords,
        "m * c": lambda c: [y for r in (m * c).rows for y in r],
    }
    exact = {c: field.from_int(c) if isinstance(c, int) else field.from_fraction(c)
             for c in (-3, Fraction(-5, 4))}
    foreign = FieldDescriptor(QUADRATIC, d=2).element(0, 1)
    raising = [(TypeError, c) for c in (2.5, 0.1, "3", Decimal("0.5"))]
    raising.append((DescriptorMismatch, foreign))
    if field.p is not None:
        raising.append((DivisionByZero, Fraction(3, 14)))
    for name, entry in entry_points.items():
        for c, fe in exact.items():
            got = entry(c)
            assert all(y.desc == field for y in got), (name, c)
            assert canonical(got) == canonical(entry(fe)), (name, c)
        for error, c in raising:
            with pytest.raises(error):
                entry(c)
                pytest.fail(f"{name} accepted {c!r}")
    # the three faults of the earlier entry points, fixed: a foreign
    # structure constant made the product zero, a Fraction gamma was
    # truncated to a degenerate form, and element() truncated over F_p
    with pytest.raises(DescriptorMismatch):
        Algebra(Q, [[[foreign]]])
    with pytest.raises(DescriptorMismatch):
        Element(named_algebra("para:4"), [foreign] * 4)
    half = Q.from_fraction(Fraction(-1, 2))
    assert make_hurwitz(Q, (Fraction(1, 2), -1)).form == [
        [[Q.one(), half, Q.one(), half][i] if i == j else Q.zero() for j in range(4)]
        for i in range(4)]
    f7 = FieldDescriptor(PRIME, p=7)
    assert f7.element(Fraction(1, 2)) == FieldElement(f7, Fraction(1, 2)) == f7.from_int(4)
    # FieldElement() takes a zero second coordinate over Q and F_p, and
    # element() takes none; a nonzero one raises in both
    if field.d is None:
        assert FieldElement(field, Fraction(-5, 4), 0) == exact[Fraction(-5, 4)]
        for second in (lambda: FieldElement(field, 1, 1), lambda: field.element(1, 0)):
            with pytest.raises(ValueError, match="^second coordinate only valid"):
                second()
    else:
        assert FieldElement(field, Fraction(-5, 4), 0) == field.element(Fraction(-5, 4), 0)


def test_operands_must_share_an_algebra():
    """Map +, -, @ (and map * map), m(x) and a form law raise on operands
    of two algebras, as element arithmetic does: over two fields, and over
    one field from two constructions."""
    s2, s3 = FieldDescriptor(QUADRATIC, d=2), FieldDescriptor(QUADRATIC, d=3)
    for f, g in ((s2, s3), (Q, s2), (Q, Q)):
        a, b = named_algebra("para:4", f), named_algebra("para:4", g)
        m, n, x, y = a.left_op(a.basis(1)), b.left_op(b.basis(2)), a.basis(1), b.basis(2)
        for op in (lambda: m + n, lambda: m - n, lambda: m @ n, lambda: m * n, lambda: m(y),
                   lambda: m.commutator(n), lambda: triality.form_law_failure(a, n, None),
                   lambda: triality.form_law_failure(a, None, n)):
            with pytest.raises(AlgebraError, match="^maps belong to different algebras$"):
                op()
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(AlgebraError, match="^elements belong to different algebras$"):
                op()


def test_unit_element():
    h = quaternions()
    e = h.unit_element()
    for b in h.basis_elements():
        assert e * b == b and b * e == b


def test_symmetric_composition_quick():
    assert not is_symmetric_composition(quaternions()).ok
    assert is_symmetric_composition(make_para(quaternions())).ok
    assert is_symmetric_composition(named_algebra("okubo")).ok


def test_bad_involution_is_rejected():
    h = quaternions()
    one, zero = Q.one(), Q.zero()

    def diag(*d):
        return [[Q.from_int(d[i]) if i == j else zero for j in range(4)] for i in range(4)]

    rotation = diag(0, 0, 1, 1)
    rotation[0][1], rotation[1][0] = -one, one    # squares to -1 on span(e, i)
    unipotent = diag(1, 1, 1, 1)
    unipotent[0][3] = one                           # squares to I + 2 E_03
    for bad in (diag(2, -2, -2, -2), diag(1, 0, 1, 1), rotation, unipotent):
        with pytest.raises(AlgebraError, match="involution matrix must square to the identity"):
            Algebra(Q, h.structure, form=h.form, involution=bad, unit=h.unit)
    swap = diag(0, 0, 1, 1)
    swap[0][1] = swap[1][0] = one
    for good in (diag(1, -1, -1, -1), diag(1, 1, 1, 1), swap):
        Algebra(Q, h.structure, form=h.form, involution=good, unit=h.unit)


@pytest.mark.parametrize("field", [Q, FieldDescriptor(QUADRATIC, d=3), FieldDescriptor(PRIME, p=7)])
def test_asymmetric_form_is_rejected(field):
    """A form is accepted exactly when it equals its transpose, entry by
    entry as FieldElements; entries equal only mod p count as equal."""
    h = make_hurwitz(field, (-1, -1))
    for (r, c), (x, y) in (((0, 1), (1, 1)), ((2, 3), (2, 9)), ((1, 3), (1, -1)), ((3, 0), (0, 5))):
        form = [list(row) for row in h.form]
        form[r][c], form[c][r] = field.from_int(x), field.from_int(y)
        if form[r][c] == form[c][r]:
            assert Algebra(field, h.structure, form=form).form == form
        else:
            with pytest.raises(AlgebraError, match="^form is not symmetric$"):
                Algebra(field, h.structure, form=form)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_sparse_involution_check_matches_dense_square(entries):
    F3 = FieldDescriptor(PRIME, p=3)
    m = [[F3.from_int(v) for v in row] for row in entries]
    n = len(m)
    structure = [[[F3.zero()] * n for _ in range(n)] for _ in range(n)]
    a = Algebra(F3, structure)
    dense = linalg.mat_mul(m, m) == a.identity_map().rows
    assert LinearMap(a, m).squares_to_identity() == dense
    try:
        Algebra(F3, structure, involution=m)
        assert dense
    except AlgebraError:
        assert not dense


# ---------------------------------------------------------------------------
# The integer product loop against the FieldElement and residue loops
# ---------------------------------------------------------------------------
#
# multiply, left_op and right_op as they were before they ran on
# Algebra.int_product (one FieldElement product and sum per term), and the
# residue class the F_p enumerations used.

def ref_terms(a):
    return [[[(k, c) for k, c in enumerate(row) if not c.is_zero()] for row in plane]
            for plane in a.structure]


def ref_multiply(a, x, y):
    terms = ref_terms(a)
    out = [a.field.zero()] * a.dim
    ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
    for i, xi in enumerate(x):
        if not xi.is_zero():
            for j, yj in ys:
                for k, c in terms[i][j]:
                    out[k] = out[k] + xi * yj * c
    return out


def ref_left_op(a, x):
    """Entry (k, j) is sum_i x_i c[i][j][k]."""
    rows = [[a.field.zero()] * a.dim for _ in range(a.dim)]
    for xi, plane in zip(x, ref_terms(a)):
        for j, terms in enumerate(plane):
            for k, c in terms:
                rows[k][j] = rows[k][j] + xi * c
    return rows


def ref_right_op(a, y):
    """Entry (k, i) is sum_j y_j c[i][j][k]."""
    rows = [[a.field.zero()] * a.dim for _ in range(a.dim)]
    all_terms = ref_terms(a)
    for j, yj in enumerate(y):
        for i, plane in enumerate(all_terms):
            for k, c in plane[j]:
                rows[k][i] = rows[k][i] + yj * c
    return rows


class RefResidueAlgebra:
    """The residue product and form of an algebra over F_p, on the int
    residues of its FieldElement structure constants and form."""

    def __init__(self, a):
        self.p, self.dim = a.field.p, a.dim
        self.terms = [[[(k, c.a) for k, c in row] for row in plane] for plane in ref_terms(a)]
        self.form = [[c.a for c in row] for row in a.form]

    def multiply(self, x, y):
        out = [0] * self.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k, c in self.terms[i][j]:
                    out[k] += xi * yj * c
        return tuple(v % self.p for v in out)

    def form_eval(self, x, y):
        return sum(xi * c * yj for xi, row in zip(x, self.form)
                   for c, yj in zip(row, y)) % self.p


PRODUCT_FIELDS = ([Q] + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5)]
                  + [FieldDescriptor(PRIME, p=p) for p in (3, 7, 13)])


@st.composite
def scalars(draw, field):
    """Zero a third of the time, else a residue or a (pair of) fractions
    with mixed denominators."""
    if draw(st.integers(0, 2)) == 0:
        return field.zero()
    if field.kind == PRIME:
        return field.from_int(draw(st.integers(1, field.p - 1)))
    part = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    if field.kind == QUADRATIC:
        return FieldElement(field, draw(part), draw(part))
    return FieldElement(field, draw(part))


@st.composite
def algebras_and_pairs(draw):
    """(a, x, y): a random structure tensor and symmetric form of dimension
    1 to 4, or a named algebra, with two vectors."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    named = {3: "okubo", 2: "para:8", -1: "parazorn:1:1", 13: "okubo", 7: "para:4"}
    key = field.p if field.p is not None else field.d
    if key in named and draw(st.booleans()):
        a = named_algebra(named[key], field)
    else:
        n = draw(st.integers(1, 4))
        structure = [[[draw(scalars(field)) for _ in range(n)] for _ in range(n)]
                     for _ in range(n)]
        form = [[field.zero()] * n for _ in range(n)]
        for i in range(n):
            for k in range(i, n):
                form[i][k] = form[k][i] = draw(scalars(field))
        a = Algebra(field, structure, form=form)
    x = [draw(scalars(field)) for _ in range(a.dim)]
    y = [draw(scalars(field)) for _ in range(a.dim)]
    return a, x, y


def canonical(values):
    return [(c.desc, c._n0, c._n1, c._q) for c in values]


@settings(max_examples=250, deadline=None)
@given(algebras_and_pairs())
def test_product_loop_matches_the_fieldelement_and_residue_loops(case):
    a, x, y = case
    field = a.field
    want = ref_multiply(a, x, y)
    # the loop itself: numerators over qx qy int_den, read back independently
    _, qx, x0, x1 = _lift(field, x)
    _, qy, y0, y1 = _lift(field, y)
    s0, s1 = a.int_product(x0, y0, x1, y1)
    q = qx * qy * a.int_den
    if field.p is not None:
        got = [field.from_int(v) for v in s0]
    else:
        got = [FieldElement(field, Fraction(v0, q), Fraction(v1, q)) if field.d is not None
               else FieldElement(field, Fraction(v0, q)) for v0, v1 in zip(s0, s1)]
    assert got == want
    assert canonical(a.multiply(a.element(x), a.element(y)).coords) == canonical(want)
    left, right = a.left_op(a.element(x)).rows, a.right_op(a.element(y)).rows
    assert [canonical(r) for r in left] == [canonical(r) for r in ref_left_op(a, x)]
    assert [canonical(r) for r in right] == [canonical(r) for r in ref_right_op(a, y)]
    if field.p is not None:
        multiply, form_eval = residue_arithmetic(a)
        ref = RefResidueAlgebra(a)
        rx, ry = tuple(c.a for c in x), tuple(c.a for c in y)
        assert multiply(rx, ry) == ref.multiply(rx, ry)
        assert form_eval(rx, ry) == ref.form_eval(rx, ry)


@settings(max_examples=100, deadline=None)
@given(algebras_and_pairs())
def test_covector_matches_the_form_eval_comprehension(case):
    """covector(w) lists <e_l|w>, as the comprehension it replaced did, over
    random symmetric forms and the named algebras (parazorn:1:1's form is
    not the identity)."""
    a, x, _ = case
    w = a.element(x)
    want = [a.form_eval(a.basis(l), w) for l in range(a.dim)]
    got = a.covector(w)
    assert got == want and canonical(got) == canonical(want)


def test_covector_needs_a_form():
    h = quaternions()
    h.form = None
    with pytest.raises(AlgebraError, match="^algebra has no bilinear form$"):
        h.covector(h.basis(0))


# ---------------------------------------------------------------------------
# The integer form of LinearMap against FieldElement loops
# ---------------------------------------------------------------------------
#
# A LinearMap keeps (q, R0, R1), entry (R0 + R1 sqrt d)/q.  The references
# below are the FieldElement loops the map operations ran on before: one
# FieldElement product and sum per term.

def ref_mat_mul(a, b):
    n = len(b)
    return [[sum((row[k] * b[k][j] for k in range(1, n)), row[0] * b[0][j])
             for j in range(len(b[0]))] for row in a]


def ref_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def ref_mat_vec(a, v):
    return [sum((row[k] * v[k] for k in range(1, len(v))), row[0] * v[0]) for row in a]


def ref_combine(a, b, sign):
    return [[x + y if sign == 1 else x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_is_zero(m):
    return all(x.is_zero() for row in m for x in row)


def ref_entry(field, q, n0, n1):
    """(n0 + n1 sqrt d)/q as a FieldElement, built from Fractions."""
    if field.p is not None:
        return field.from_int(n0) / field.from_int(q)
    if field.d is None:
        return FieldElement(field, Fraction(n0, q))
    return FieldElement(field, Fraction(n0, q), Fraction(n1, q))


def big_scalar(draw, field):
    """A scalar with numerators near 10^12 and mixed denominators."""
    if field.kind == PRIME:
        return field.from_int(draw(st.integers(10 ** 12 - 50, 10 ** 12 + 50)))
    part = st.builds(Fraction, st.integers(10 ** 12 - 50, 10 ** 12 + 50).map(
        lambda v: v if draw(st.booleans()) else -v), st.sampled_from((1, 7, 12, 10 ** 12 + 39)))
    if field.kind == QUADRATIC:
        return FieldElement(field, draw(part), draw(part))
    return FieldElement(field, draw(part))


@st.composite
def map_rows(draw, field, n):
    """An n x n FieldElement matrix: random with small or big entries, or
    square-zero (entries only in rows < h <= columns) conjugated by a shear
    I + t E_rc, whose inverse is I - t E_rc."""
    shape = draw(st.sampled_from(("small", "big", "square-zero")))

    def entry():
        return big_scalar(draw, field) if shape == "big" else draw(scalars(field))

    if shape != "square-zero":
        return [[entry() for _ in range(n)] for _ in range(n)]
    h = draw(st.integers(0, n))
    m = [[entry() if i < h <= j else field.zero() for j in range(n)] for i in range(n)]
    r, c, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(scalars(field))
    if r != c:
        shear, unshear = ref_identity(n, field.one(), field.zero()), \
            ref_identity(n, field.one(), field.zero())
        shear[r][c], unshear[r][c] = t, -t
        m = ref_mat_mul(ref_mat_mul(shear, m), unshear)
    return m


@st.composite
def map_cases(draw):
    """(a, rows, m, x, c): an algebra of dimension 1 to 8 with a sparse random
    structure tensor, a FieldElement matrix `rows`, a map m equal to it built
    from the rows or from integers (random numerators over a random q, or
    over F_p any integers, brought to canonical form by the constructor), a
    vector x and a scalar c."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    n = draw(st.integers(1, 8))
    structure = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        structure[i][j][k] = draw(scalars(field))
    a = Algebra(field, structure)
    if draw(st.booleans()):
        rows = draw(map_rows(field, n))
        m = LinearMap(a, rows)
    else:
        # from integers: over F_p q is 1 and the numerators any integers
        q = 1 if field.p is not None else draw(st.sampled_from((1, 2, 6, 35, 10 ** 12)))
        top = draw(st.sampled_from((5, 10 ** 12)))
        ints = st.integers(-top, top)
        r0 = [[draw(ints) * draw(st.sampled_from((1, q))) for _ in range(n)] for _ in range(n)]
        r1 = None if field.d is None else [[draw(ints) for _ in range(n)] for _ in range(n)]
        m = _int_map(a, q, [v for row in r0 for v in row], r1 and [v for row in r1 for v in row])
        rows = [[ref_entry(field, q, r0[i][j], 0 if r1 is None else r1[i][j])
                 for j in range(n)] for i in range(n)]
    x = [draw(scalars(field)) for _ in range(n)]
    return a, rows, m, x, draw(scalars(field))


def assert_canonical(m):
    """m holds the canonical integer form, and m.rows rebuilds an equal map
    with an equal hash."""
    field, q, n0, n1 = m.algebra.field, m._q, m._n0, m._n1
    assert q > 0 and (n1 is None) == (field.d is None) and len(n0) == m.algebra.dim ** 2
    if field.p is not None:
        assert q == 1 and all(0 <= v < field.p for v in n0)
    else:
        assert gcd(q, *n0, *(n1 or [])) == 1
    again = LinearMap(m.algebra, m.rows)
    assert again == m and hash(again) == hash(m)
    assert (again._q, again._n0, again._n1) == (q, n0, n1)


@settings(max_examples=150, deadline=None)
@given(map_cases(), st.data())
def test_integer_maps_match_the_fieldelement_loops(case, data):
    a, rows, m, x, c = case
    field = a.field
    assert canonical_rows(m.rows) == canonical_rows(rows)
    assert_canonical(m)
    # a second map from rows: a new matrix, a copy of the first one, or a
    # matrix one entry away from it
    kind = data.draw(st.sampled_from(("new", "copy", "moved")))
    rows2 = data.draw(map_rows(field, a.dim)) if kind == "new" else [list(r) for r in rows]
    if kind == "moved":
        i, j = data.draw(st.integers(0, a.dim - 1)), data.draw(st.integers(0, a.dim - 1))
        rows2[i][j] = rows2[i][j] + field.one()
    m2 = LinearMap(a, rows2)
    assert (m == m2) == (canonical_rows(rows) == canonical_rows(rows2))
    if m == m2:
        assert hash(m) == hash(m2)
    results = [
        (m @ m2, ref_mat_mul(rows, rows2)),
        (m + m2, ref_combine(rows, rows2, 1)),
        (m - m2, ref_combine(rows, rows2, -1)),
        (-m, [[-v for v in row] for row in rows]),
        (c * m, [[c * v for v in row] for row in rows]),
        (m * 3, [[v * 3 for v in row] for row in rows]),
        (m.transpose(), [list(column) for column in zip(*rows)]),
    ]
    # scalar times map on the numerators, entry by entry against c m[r][k]
    for s in (field.zero(), -field.one(), c, data.draw(scalars(field))):
        results.append((s * m, [[s * v for v in row] for row in m.rows]))
        results.append((m * s, [[s * v for v in row] for row in m.rows]))
    for got, want in results:
        assert canonical_rows(got.rows) == canonical_rows(want)
        assert_canonical(got)
    assert canonical(m(a.element(x)).coords) == canonical(ref_mat_vec(rows, x))
    left, right = a.left_op(a.element(x)), a.right_op(a.element(x))
    assert canonical_rows(left.rows) == canonical_rows(ref_left_op(a, x))
    assert canonical_rows(right.rows) == canonical_rows(ref_right_op(a, x))
    assert_canonical(left)
    assert_canonical(right)
    # the identity and the derivation basis, built from integers
    assert_canonical(a.identity_map())
    assert a.identity_map().rows == ref_identity(a.dim, field.one(), field.zero())
    for d in autos.derivation_space(a)[:3]:
        assert_canonical(d)
    # d d = 0 on the integers, for a map and for m +- m2
    assert m.squares_to_zero() == ref_is_zero(ref_mat_mul(rows, rows))
    for got, sign in ((m + m2, 1), (m - m2, -1)):
        want = ref_combine(rows, rows2, sign)
        assert got.squares_to_zero() == ref_is_zero(ref_mat_mul(want, want))


def canonical_rows(m):
    return [canonical(r) for r in m]


# ---------------------------------------------------------------------------
# The integer form of Element against FieldElement loops
# ---------------------------------------------------------------------------
#
# An Element keeps (q, x0, x1), coordinate (x0 + x1 sqrt d)/q.  The
# references below are the FieldElement loops the element operations ran on
# before: one FieldElement product and sum per term.

ELEMENT_FIELDS = ([Q] + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5)]
                  + [FieldDescriptor(PRIME, p=p) for p in (3, 5, 7, 11, 13)])


def ref_form_eval(form, x, y):
    zero = x[0] - x[0]
    return sum((xi * form[i][k] * yk for i, xi in enumerate(x) for k, yk in enumerate(y)), zero)


@st.composite
def element_cases(draw):
    """(a, x, y, c, rows): an algebra of dimension 1 to 4 with a sparse random
    structure tensor, a random symmetric form and an involution (a signed
    diagonal conjugated by a shear I + t E_rc), two vectors, a nonzero
    scalar and a FieldElement matrix."""
    field = draw(st.sampled_from(ELEMENT_FIELDS))
    n = draw(st.integers(1, 4))
    one, zero = field.one(), field.zero()
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        structure[i][j][k] = draw(scalars(field))
    form = [[zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            form[i][k] = form[k][i] = draw(scalars(field))
    signs = ref_identity(n, one, zero)
    for i in range(n):
        if draw(st.booleans()):
            signs[i][i] = -one
    shear, unshear = ref_identity(n, one, zero), ref_identity(n, one, zero)
    r, s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(scalars(field))
    if r != s:
        shear[r][s], unshear[r][s] = t, -t
    involution = ref_mat_mul(ref_mat_mul(shear, signs), unshear)
    a = Algebra(field, structure, form=form, involution=involution)
    x = [draw(scalars(field)) for _ in range(n)]
    y = [draw(scalars(field)) for _ in range(n)]
    c = draw(scalars(field))
    rows = [[draw(scalars(field)) for _ in range(n)] for _ in range(n)]
    return a, x, y, one if c.is_zero() else c, rows


def assert_canonical_element(x):
    """x holds the canonical integer form, and x.coords rebuilds an equal
    element with an equal hash and the same integers."""
    field, q, x0, x1 = x.algebra.field, x._q, x._n0, x._n1
    assert q > 0 and (x1 is None) == (field.d is None)
    if field.p is not None:
        assert q == 1 and all(0 <= v < field.p for v in x0)
    else:
        assert gcd(q, *x0, *(x1 or ())) == 1
    again = Element(x.algebra, x.coords)
    assert again == x and hash(again) == hash(x)
    assert (again._q, again._n0, again._n1) == (q, x0, x1)


@settings(max_examples=150, deadline=None)
@given(element_cases(), st.integers(2, 10 ** 12), st.lists(st.integers(-10 ** 12, 10 ** 12),
                                                          min_size=8, max_size=8))
def test_integer_elements_match_the_fieldelement_loops(case, k, ints):
    a, x, y, c, rows = case
    field, n = a.field, a.dim
    ex, ey = a.element(x), a.element(y)
    assert canonical(ex.coords) == canonical(x)
    assert_canonical_element(ex)
    results = [
        (ex + ey, [u + v for u, v in zip(x, y)]),
        (ex - ey, [u - v for u, v in zip(x, y)]),
        (-ex, [-u for u in x]),
        (c * ex, [c * u for u in x]),
        (ex * c, [u * c for u in x]),
        (3 * ex, [3 * u for u in x]),
        (ex / c, [u / c for u in x]),
        (ex * ey, ref_multiply(a, x, y)),
        (a.involute(ex), ref_mat_vec(a.involution, x)),
        (LinearMap(a, rows)(ex), ref_mat_vec(rows, x)),
        (a.basis(n - 1), [field.one() if i == n - 1 else field.zero() for i in range(n)]),
    ]
    for got, want in results:
        assert canonical(got.coords) == canonical(want)
        assert_canonical_element(got)
        assert got == a.element(want) and hash(got) == hash(a.element(want))
    assert canonical([a.form_eval(ex, ey)]) == canonical([ref_form_eval(a.form, x, y)])
    assert canonical(a.covector(ey)) == canonical(ref_mat_vec(a.form, y))
    assert (ex == ey) == (canonical(x) == canonical(y))
    assert ex.is_zero() == all(u.is_zero() for u in x)
    # one element from integers over q, and from k times them over k q (2/4
    # against 1/2; over F_p, q = 1 and any integers, read mod p)
    q = 1 if field.p is not None else ints[0] % 97 + 1
    x0, x1 = ints[:n], (None if field.d is None else ints[4:4 + n])
    want = [ref_entry(field, q, u, 0 if x1 is None else x1[i]) for i, u in enumerate(x0)]
    if field.p is not None:
        x0 = [u + k * field.p for u in x0]
    else:
        q, x0, x1 = k * q, [k * u for u in x0], x1 and [k * u for u in x1]
    got = _int_element(a, q, x0, x1)
    assert canonical(got.coords) == canonical(want)
    assert_canonical_element(got)
    assert got == a.element(want) and hash(got) == hash(a.element(want))
