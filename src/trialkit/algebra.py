"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` bundles a field, a structure tensor c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, a symmetric bilinear form, an optional
involution matrix, and an optional unit element.  Instances are treated as
immutable.  The nonzero structure constants are lifted once, at construction,
to integers over one denominator (`Algebra.int_terms` over `int_den`), as are
the form (`int_form`) and the involution (a map), and every product of
elements runs one integer loop on them (`Algebra.int_product`): `multiply`
keeps its numerators as an element, `left_op` and `right_op` as the columns
of a map, and the F_p enumerations reduce them mod p.

An :class:`Element` keeps one canonical integer form (q, x0, x1), coordinate
(x0 + x1 sqrt d)/q with gcd(q, every entry) = 1, and a :class:`LinearMap`
one (q, R0, R1), entry (R0 + R1 sqrt d)/q.  Their sums, scalar multiples,
comparisons and hash, the algebra product, the form, the involution, map
products, m(x), the tests for invertibility and d d = 0 and the law checks
of `triality` read these integers (see `linalg`); an element's FieldElement
`coords` and a map's FieldElement `rows` are built only when read, and are
read-only.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from typing import List, Optional, Sequence

from . import linalg
from .fields import DescriptorMismatch, FieldDescriptor, FieldElement
from .linalg import _add_multiple, _lift, _wrap, _wrap_vector

Matrix = List[list]


class AlgebraError(Exception):
    """The input lies outside a construction's domain: mismatched shapes, a
    missing form, involution or unit, or a failed precondition."""


class Element:
    """A vector in an algebra, supporting + - scalar* and the algebra product.

    An element keeps one canonical integer form (q, x0, x1): coordinate t is
    (x0[t] + x1[t] sqrt d)/q, with q > 0 and gcd(q, every entry) = 1.  Over
    Q, x1 is None; over F_p, q = 1 and x0 holds the residues.  So == and
    hash are structural, as for FieldElement, and +, -, scalar * and /, the
    algebra product, the form, the involution and every map applied to the
    element read these integers.  `.coords`, the coordinates as
    FieldElements, is built on its first read and is read-only: a write into
    it would not reach the integers."""

    __slots__ = ("algebra", "_q", "_x0", "_x1", "_coords")

    def __init__(self, algebra: "Algebra", coords: Sequence[FieldElement]):
        if len(coords) != algebra.dim:
            raise AlgebraError(f"expected {algebra.dim} coords, got {len(coords)}")
        self.algebra = algebra
        self._coords = list(coords)
        # canonical already for canonical FieldElements (see linalg._lift_matrix)
        self._q, self._x0, x1 = _lift(self._coords)
        self._x1 = None if algebra.field.d is None else x1

    @property
    def coords(self) -> list:
        """The coordinates as FieldElements; read-only."""
        if self._coords is None:
            self._coords = _wrap_vector(self.algebra.field, self._q, self._x0, self._x1)
        return self._coords

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and other.algebra is self.algebra
                and self._q == other._q and self._x0 == other._x0 and self._x1 == other._x1)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self._q, *self._x0))

    def is_zero(self) -> bool:
        return not any(self._x0) and not any(self._x1 or ())

    def _sum(self, other: "Element", sign: int) -> "Element":
        """self + sign other, over the lcm of the two denominators."""
        self._check(other)
        q = lcm(self._q, other._q)
        s, t = q // self._q, sign * (q // other._q)
        x1 = self._x1 and [s * u + t * v for u, v in zip(self._x1, other._x1)]
        return _int_element(self.algebra, q, [s * u + t * v for u, v in zip(self._x0, other._x0)],
                            x1)

    def __add__(self, other: "Element") -> "Element":
        return self._sum(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._sum(other, -1)

    def __neg__(self) -> "Element":
        return self * -1

    def _times(self, c: FieldElement) -> "Element":
        """c self: (c0 + c1 sqrt d)/r times (x0 + x1 sqrt d)/q (c1 = 0 over Q
        and F_p)."""
        c0, c1, x0 = c._n0, c._n1, self._x0
        if self._x1 is None:
            return _int_element(self.algebra, c._q * self._q, [c0 * u for u in x0], None)
        xs, dc1 = list(zip(x0, self._x1)), self.algebra.field.d * c1
        return _int_element(self.algebra, c._q * self._q, [c0 * u + dc1 * v for u, v in xs],
                            [c0 * v + c1 * u for u, v in xs])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.multiply(self, other)
        return self._times(self._scalar(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._times(self._scalar(other).inverse())

    def _scalar(self, c) -> FieldElement:
        """c as a FieldElement of the algebra's field."""
        field = self.algebra.field
        if not isinstance(c, FieldElement):
            return field.from_int(int(c))
        if c.desc is not field and c.desc != field:
            raise DescriptorMismatch(f"{c.desc} vs {field}")
        return c

    def _check(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError("elements belong to different algebras")

    def __repr__(self) -> str:
        return f"Element({[str(c) for c in self.coords]})"


def _int_element(algebra: "Algebra", q: int, x0: list, x1: Optional[list]) -> Element:
    """The element (x0 + x1 sqrt d)/q of `algebra`, for integer lists and
    q > 0 (x1 not read over Q and F_p, q = 1 over F_p), in the canonical form
    of `Element`: over F_p each entry reduced mod p, else q and every entry
    divided by their gcd.  The lists are kept, not copied."""
    field = algebra.field
    if field.d is None:
        x1 = None
    if field.p is not None:
        x0 = [u % field.p for u in x0]
    elif q != 1:
        g = gcd(q, *x0, *(x1 or ()))
        if g != 1:
            q, x0 = q // g, [u // g for u in x0]
            x1 = x1 and [u // g for u in x1]
    x = _new(Element)
    x.algebra, x._q, x._x0, x._x1, x._coords = algebra, q, x0, x1, None
    return x


class LinearMap:
    """A dense linear operator on one algebra, applied as a callable.

    A map keeps one canonical integer form (q, R0, R1): entry (r, c) is
    (R0[r][c] + R1[r][c] sqrt d)/q, with q > 0 and gcd(q, every entry) = 1.
    Over Q, R1 is None; over F_p, q = 1 and R0 holds the residues.  So ==
    and hash are structural, as for FieldElement, and @, +, -, scalar *,
    m(x), the law checks of `triality` and the tests for invertibility and
    d d = 0 all read these integers.  `.rows`, the entries as FieldElements,
    is built on its first read and is read-only: a write into it would not
    reach the integers."""

    __slots__ = ("algebra", "_q", "_r0", "_r1", "_rows", "_row_lines", "_col_lines")

    def __init__(self, algebra: "Algebra", rows: Matrix):
        n = algebra.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise AlgebraError("operator shape does not match the algebra")
        self.algebra = algebra
        self._rows = [list(r) for r in rows]
        self._q, self._r0, self._r1 = linalg._lift_matrix(self._rows, algebra.field)
        self._row_lines = self._col_lines = None

    @property
    def rows(self) -> Matrix:
        """The entries as FieldElements; read-only."""
        if self._rows is None:
            desc, q = self.algebra.field, self._q
            self._rows = [_wrap_vector(desc, q, u0, u1)
                          for u0, u1 in zip(self._r0, self._r1 or repeat(None))]
        return self._rows

    def __call__(self, x: Element) -> Element:
        """m x: the columns of the numerators weighted by those of x."""
        a = self.algebra
        d, n = a.field.d, a.dim
        s0, s1 = [0] * n, [0] * n
        for t0, t1, column in zip(x._x0, x._x1 or repeat(0), self._lines(True)):
            if t0 or t1:
                _add_multiple(d, s0, s1, t0, t1, column)
        return _int_element(a, x._q * self._q, s0, s1)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        a = self.algebra
        return _int_map(a, self._q * other._q, *linalg._int_matmul(
            a.field.d, self._lines(False), other._lines(False), a.dim))

    def _sum(self, other: "LinearMap", sign: int) -> tuple:
        """(q, r0, r1), not reduced, with self + sign other = (r0 + r1 sqrt d)/q."""
        q = lcm(self._q, other._q)
        s, t = q // self._q, sign * (q // other._q)

        def combine(m, n):
            return [[s * x + t * y for x, y in zip(u, v)] for u, v in zip(m, n)]

        return q, combine(self._r0, other._r0), self._r1 and combine(self._r1, other._r1)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return _int_map(self.algebra, *self._sum(other, 1))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return _int_map(self.algebra, *self._sum(other, -1))

    def __neg__(self) -> "LinearMap":
        return self * -1

    def __mul__(self, c) -> "LinearMap":
        if isinstance(c, LinearMap):
            return self @ c
        a = self.algebra
        if not isinstance(c, FieldElement):
            c = a.field.from_int(int(c))
        return self @ LinearMap(a, linalg.identity(a.dim, c, a.field.zero()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearMap) and self._q == other._q and self._r0 == other._r0
                and self._r1 == other._r1 and self.algebra.field == other.algebra.field)

    def __hash__(self) -> int:
        return hash((self._q, *map(tuple, self._r0)))

    def squares_to_zero(self) -> bool:
        """Whether self self = 0, read off the integers (`linalg._squares_to`)."""
        return linalg._squares_to(self.algebra.field, self._lines(False))

    def require_invertible(self) -> None:
        """Raise linalg.NotInvertible unless the map is invertible."""
        linalg._require_full_rank(self.algebra.field, self._r0, self._r1)

    def _lines(self, columns: bool) -> list:
        """The nonzero entries (index, n0, n1) of each row, or of each
        column, of the numerators; each built once."""
        if columns:
            if self._col_lines is None:
                self._col_lines = linalg._sparse_lines(list(zip(*self._r0)),
                                                       self._r1 and list(zip(*self._r1)))
            return self._col_lines
        if self._row_lines is None:
            self._row_lines = linalg._sparse_lines(self._r0, self._r1)
        return self._row_lines

    def inverse(self) -> "LinearMap":
        f = self.algebra.field
        return LinearMap(self.algebra, linalg.mat_inv(self.rows, f.zero(), f.one()))

    def commutator(self, other: "LinearMap") -> "LinearMap":
        return self @ other - other @ self

    def is_identity(self) -> bool:
        return self == self.algebra.identity_map()

    def __repr__(self) -> str:
        return f"LinearMap({[[str(c) for c in r] for r in self.rows]})"


def _int_map(algebra: "Algebra", q: int, r0: list, r1: Optional[list]) -> LinearMap:
    """The map (r0 + r1 sqrt d)/q on `algebra`, for integer rows (lists) and
    q > 0, r1 None over Q and F_p and q = 1 over F_p, in the canonical form
    of `LinearMap`: over F_p each entry reduced mod p, else q and every
    entry divided by their gcd."""
    p = algebra.field.p
    if p is not None:
        r0 = [[x % p for x in row] for row in r0]
    elif q != 1:
        g = gcd(q, *chain.from_iterable(r0), *chain.from_iterable(r1 or ()))
        if g != 1:
            q, r0 = q // g, [[x // g for x in row] for row in r0]
            r1 = r1 and [[x // g for x in row] for row in r1]
    m = _new(LinearMap)
    m.algebra, m._q, m._r0, m._r1 = algebra, q, r0, r1
    m._rows = m._row_lines = m._col_lines = None
    return m


_new = object.__new__


class Algebra:
    def __init__(
        self,
        field: FieldDescriptor,
        structure: Sequence[Sequence[Sequence[FieldElement]]],
        form: Optional[Matrix] = None,
        involution: Optional[Matrix] = None,
        unit: Optional[Sequence[FieldElement]] = None,
        name: str = "",
        para_unit: Optional[Sequence[FieldElement]] = None,
        kind: Optional[str] = None,
    ):
        self.field = field
        self.dim = len(structure)
        n = self.dim
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in structure):
            raise AlgebraError("structure tensor must be dim^3")
        self.structure = [[[structure[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]
        self.form = [list(r) for r in form] if form is not None else None
        if self.form is not None:
            if len(self.form) != n or any(len(r) != n for r in self.form):
                raise AlgebraError("form must be dim x dim")
            for i in range(n):
                for j in range(i):
                    if self.form[i][j] != self.form[j][i]:
                        raise AlgebraError("form is not symmetric")
        self.involution = [list(r) for r in involution] if involution is not None else None
        if self.involution is not None and not linalg.squares_to(
                self.involution, field.one(), field.zero()):
            raise AlgebraError("involution matrix must square to the identity")
        self.unit = list(unit) if unit is not None else None
        self.name = name
        # the coordinates of a para-unit e (e x = x e = conj x; see
        # constructors.make_para) or None
        self.para_unit = list(para_unit) if para_unit is not None else None
        # the family a constructor declares (constructors.PARA_ZORN) or None;
        # the CLI picks its suites by it, never by the name
        self.kind = kind
        # The structure constants and the form on integers (linalg._lift_rows):
        # int_terms[i][j] lists the nonzero (k, c0, c1), c[i][j][k] = (c0 + c1
        # sqrt d)/int_den, and int_form is (q, rows), the form over q.
        self.int_den, flat = linalg._lift_rows([row for plane in self.structure for row in plane],
                                               field)
        self.int_terms = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.int_form = None if self.form is None else linalg._lift_rows(self.form, field)
        # each basis vector e_i as ints, with the zero sqrt d part
        self._units = [([int(i == j) for j in range(n)], [0] * n) for i in range(n)]
        # the form and the involution lifted once, as maps
        self._form = None if self.form is None else LinearMap(self, self.form)
        self._involution = None if self.involution is None else LinearMap(self, self.involution)
        # (witness,) of symcomp.linearized_failure and the Certificate of
        # symcomp.is_symmetric_composition, once computed
        self._linearized_cache = None
        self._symcomp_cache = None

    # -- element builders ---------------------------------------------------
    def element(self, coords) -> Element:
        """The element with these coordinates, FieldElements of the field or
        ints."""
        return Element(self, [c if isinstance(c, FieldElement) else self.field.from_int(int(c))
                              for c in coords])

    def basis(self, i: int) -> Element:
        return _int_element(self, 1, *self._units[i])

    def unit_element(self) -> Element:
        if self.unit is None:
            raise AlgebraError("algebra has no declared unit")
        return Element(self, self.unit)

    def basis_elements(self) -> List[Element]:
        return [self.basis(i) for i in range(self.dim)]

    # -- operations ---------------------------------------------------------
    def int_product(self, x0: list, y0: list, x1: list = None, y1: list = None) -> tuple:
        """Numerators (s0, s1) with x y = (s0 + s1 sqrt d)/(qx qy int_den), for
        x = (x0 + x1 sqrt d)/qx and y = (y0 + y1 sqrt d)/qy, all dense int lists;
        over Q and F_p, x1 and y1 are not read and s1 is zero."""
        terms, d = self.int_terms, self.field.d
        s0, s1 = [0] * self.dim, [0] * self.dim
        if d is None:
            ys = [(j, b) for j, b in enumerate(y0) if b]
            for i, a in enumerate(x0):
                if a:
                    row = terms[i]
                    for j, b in ys:
                        for k, c, _ in row[j]:
                            s0[k] += a * b * c
            return s0, s1
        ys = [(j, b0, b1) for j, (b0, b1) in enumerate(zip(y0, y1)) if b0 or b1]
        for i, (a0, a1) in enumerate(zip(x0, x1)):
            if a0 or a1:
                row = terms[i]
                for j, b0, b1 in ys:
                    # (a0 + a1 sqrt d)(b0 + b1 sqrt d) times e_i e_j
                    _add_multiple(d, s0, s1, a0 * b0 + d * a1 * b1, a0 * b1 + a1 * b0, row[j])
        return s0, s1

    def multiply(self, x: Element, y: Element) -> Element:
        return _int_element(self, x._q * y._q * self.int_den,
                            *self.int_product(x._x0, y._x0, x._x1, y._x1))

    def left_op(self, x: Element) -> LinearMap:
        """L(x): e_j -> x e_j, so column j is the product x e_j."""
        x0, x1 = x._x0, x._x1
        return self._operator(x._q, [self.int_product(x0, e, x1, z) for e, z in self._units])

    def right_op(self, y: Element) -> LinearMap:
        """R(y): e_i -> e_i y, so column i is the product e_i y."""
        y0, y1 = y._x0, y._x1
        return self._operator(y._q, [self.int_product(e, y0, z, y1) for e, z in self._units])

    def _operator(self, q: int, columns: list) -> LinearMap:
        """The map whose columns are `int_product` numerators over q int_den."""
        r1 = None if self.field.d is None else [list(r) for r in zip(*[s1 for _, s1 in columns])]
        return _int_map(self, q * self.int_den, [list(r) for r in zip(*[s0 for s0, _ in columns])],
                        r1)

    def form_eval(self, x: Element, y: Element) -> FieldElement:
        """<x|y> = sum x_i g_ik y_k over the nonzero g_ik of `int_form`, on
        numerators over qx qg qy."""
        if self.form is None:
            raise AlgebraError("algebra has no bilinear form")
        qg, gram = self.int_form
        d, y0, y1 = self.field.d, y._x0, y._x1
        s0 = s1 = 0
        if d is None:
            for a, row in zip(x._x0, gram):
                if a:
                    for k, g, _ in row:
                        s0 += a * g * y0[k]
        else:
            for a0, a1, row in zip(x._x0, x._x1, gram):
                if a0 or a1:
                    for k, g0, g1 in row:
                        # (a0 + a1 sqrt d)(g0 + g1 sqrt d), then times y_k
                        c0, c1 = a0 * g0 + d * a1 * g1, a0 * g1 + a1 * g0
                        b0, b1 = y0[k], y1[k]
                        s0 += c0 * b0 + d * c1 * b1
                        s1 += c0 * b1 + c1 * b0
        return _wrap(self.field, s0, s1, x._q * y._q * qg)

    def covector(self, w: Element) -> list:
        """The list of <e_l|w> over every basis index l: the form times w."""
        return self.form_map()(w).coords

    def orthogonal_space(self, vectors: Sequence[Element]) -> List[Element]:
        """Basis of {p : <p|v> = 0 for every v in `vectors`}: the RREF kernel
        basis (see `linalg.nullspace`) of their covectors, read off the
        numerators, as a row times a nonzero integer has the same kernel."""
        rows = [self.form_map()(v) for v in vectors]
        r1 = None if self.field.d is None else [r._x1 for r in rows]
        return [_int_element(self, *v) for v in linalg._kernel(
            linalg._dict_rows([r._x0 for r in rows], r1), self.dim, self.field)]

    def form_map(self) -> LinearMap:
        """The form as a map: w -> the vector of <e_l|w>."""
        if self.form is None:
            raise AlgebraError("algebra has no bilinear form")
        return self._form

    def involute(self, x: Element) -> Element:
        return self.involution_map()(x)

    def involution_map(self) -> LinearMap:
        if self.involution is None:
            raise AlgebraError("algebra has no involution")
        return self._involution

    def identity_map(self) -> LinearMap:
        n = self.dim
        return _int_map(self, 1, [[int(i == j) for j in range(n)] for i in range(n)],
                        None if self.field.d is None else [[0] * n for _ in range(n)])

    def __repr__(self) -> str:
        return f"Algebra(name={self.name!r}, dim={self.dim}, field={self.field})"
