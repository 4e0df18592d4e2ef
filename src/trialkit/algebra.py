"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` bundles a field, a structure tensor c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, a symmetric bilinear form, an optional
involution matrix, and an optional unit element.  Instances are treated as
immutable.

Every value enters by one rule and one lift.  A scalar, whether it is a
coordinate, a matrix entry, a structure constant or a factor of `*` and
`/`, is read by `FieldDescriptor.coerce`: a FieldElement of the algebra's
field as it is, an int or a Fraction exactly, and a FieldElement of another
field (DescriptorMismatch) or any other type (TypeError) not at all.
`linalg._lift` applies that rule to a list of scalars and puts them over one
denominator; `Element`, `LinearMap` and `Algebra` build through it, and
their FieldElement views (`coords`, `rows`, `structure`, `form`,
`involution`, `unit`, `para_unit`) hold the values it read.

The nonzero structure constants are lifted once, at construction, to
integers over one denominator (`Algebra.int_terms` over `int_den`), and
the form and the involution to maps (`form_map`, `involution_map`), whose
blocks and sparse rows are the form and the involution on integers.  Every
product of elements runs one integer loop on them (`Algebra.int_product`):
`multiply` keeps its numerators as an element and the F_p enumerations
reduce them mod p; `left_op` and `right_op` add each structure constant,
times one coordinate, into one entry of the map.

An :class:`Element` and a :class:`LinearMap` keep one integer block (see
`_Block`): (q, n0, n1), the entries (n0 + n1 sqrt d)/q in canonical form,
the n coordinates of an element or the n^2 entries of a map row by row.
One canonical form (`_Block._of`), one lcm sum, one scalar scaling and one
operand check serve both.  The algebra product, the form, the involution,
map products, m(x), the inverse, the tests for invertibility, m m = Id and
d d = 0 and the law checks of `triality` read these integers (see
`linalg`); an element's FieldElement `coords` and a map's FieldElement
`rows` are built only when read, and are read-only.

An identity between two maps is checked on their difference, and one
read-off, `LinearMap.first_nonzero`, gives its witness: the first nonzero
entry, column by column, as (column, row).  It reads the canonical
numerators, so over F_p, where they hold reduced residues, it is exact.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence

from . import linalg
from .fields import FieldDescriptor, FieldElement
from .linalg import _add_multiple, _lift, _split, _wrap, _wrap_vector

Matrix = List[list]


class AlgebraError(Exception):
    """The input lies outside a construction's domain: mismatched shapes, a
    missing form, involution or unit, or a failed precondition."""


def _verdict(self, law: str, check: Callable[[], object]):
    """The verdict of the law `law` of a map or an algebra, check(),
    computed on its first read and kept under the law's name in the
    owner's `_verdicts`."""
    if law not in self._verdicts:
        self._verdicts[law] = check()
    return self._verdicts[law]


class _Block:
    """Exact entries over one denominator, as an `Element` (n coordinates)
    and a `LinearMap` (n^2 entries, row-major) keep them.

    The block (q, n0, n1) of integer lists stands for the entries (n0[t] +
    n1[t] sqrt d)/q, with q > 0 and gcd(q, every entry) = 1.  Over Q, n1 is
    None; over F_p, q = 1 and n0 holds the residues.  The form is canonical,
    so == and hash are structural, as for FieldElement.  Sums run over the
    lcm of the two denominators, scalar multiples on the numerators, and
    the operands of a sum or product must belong to one algebra.  Each kind
    names itself in `_NOUN`, drops its FieldElement views in `_forget` and
    multiplies two of its kind in `_product`."""

    __slots__ = ("algebra", "_q", "_n0", "_n1")

    @classmethod
    def _of(cls, algebra: "Algebra", q: int, n0: list, n1: Optional[list]):
        """The block (n0 + n1 sqrt d)/q of `algebra`, for integer lists and
        q > 0 (n1 not read over Q and F_p, q = 1 over F_p), in canonical
        form: over F_p each entry reduced mod p, else q and every entry
        divided by their gcd.  The lists are kept, not copied."""
        field = algebra.field
        if field.d is None:
            n1 = None
        if field.p is not None:
            n0 = [u % field.p for u in n0]
        elif q != 1:
            g = gcd(q, *n0, *(n1 or ()))
            if g != 1:
                q, n0 = q // g, [u // g for u in n0]
                n1 = n1 and [u // g for u in n1]
        x = _new(cls)
        x.algebra, x._q, x._n0, x._n1 = algebra, q, n0, n1
        x._forget()
        return x

    def _check(self, other: "_Block") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError(f"{self._NOUN} belong to different algebras")

    def _same(self, other: "_Block") -> bool:
        return self._q == other._q and self._n0 == other._n0 and self._n1 == other._n1

    def __hash__(self) -> int:
        return hash((self._q, *self._n0))

    def is_zero(self) -> bool:
        return not any(self._n0) and not any(self._n1 or ())

    def _sum(self, other: "_Block", sign: int):
        """self + sign other, over the lcm of the two denominators."""
        self._check(other)
        q = lcm(self._q, other._q)
        s, t = q // self._q, sign * (q // other._q)
        n1 = self._n1 and [s * u + t * v for u, v in zip(self._n1, other._n1)]
        return self._of(self.algebra, q, [s * u + t * v for u, v in zip(self._n0, other._n0)], n1)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self * -1

    def _times(self, c: FieldElement):
        """c self: (c0 + c1 sqrt d)/r times (n0 + n1 sqrt d)/q, on the
        numerators (c1 = 0 over Q and F_p)."""
        c0, c1, n0 = c._n0, c._n1, self._n0
        if self._n1 is None:
            return self._of(self.algebra, c._q * self._q, [c0 * u for u in n0], None)
        pairs, dc1 = list(zip(n0, self._n1)), self.algebra.field.d * c1
        return self._of(self.algebra, c._q * self._q, [c0 * u + dc1 * v for u, v in pairs],
                        [c0 * v + c1 * u for u, v in pairs])

    def __mul__(self, other):
        """The product with a block of the same kind (`_product`), else the
        multiple by a scalar (`FieldDescriptor.coerce`)."""
        if type(other) is type(self):
            return self._product(other)
        return self._times(self.algebra.field.coerce(other))

    __rmul__ = __mul__


class Element(_Block):
    """A vector in an algebra, supporting + - scalar* and the algebra product.

    Its block (see `_Block`) holds the n coordinates, and the algebra
    product, the form, the involution and every map applied to the element
    read these integers.  `.coords`, the coordinates as FieldElements, is
    built on its first read and is read-only: a write into it would not
    reach the integers."""

    __slots__ = ("_coords",)
    _NOUN = "elements"

    def __init__(self, algebra: "Algebra", coords: Sequence[FieldElement]):
        if len(coords) != algebra.dim:
            raise AlgebraError(f"expected {algebra.dim} coords, got {len(coords)}")
        self.algebra = algebra
        self._coords, self._q, self._n0, self._n1 = _lift(algebra.field, coords)

    def _forget(self) -> None:
        self._coords = None

    @property
    def coords(self) -> list:
        """The coordinates as FieldElements; read-only."""
        if self._coords is None:
            self._coords = _wrap_vector(self.algebra.field, self._q, self._n0, self._n1)
        return self._coords

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and other.algebra is self.algebra and self._same(other)

    __hash__ = _Block.__hash__

    def _product(self, other: "Element") -> "Element":
        self._check(other)
        return self.algebra.multiply(self, other)

    def __truediv__(self, other):
        return self._times(self.algebra.field.coerce(other).inverse())

    def __repr__(self) -> str:
        return f"Element({[str(c) for c in self.coords]})"


class LinearMap(_Block):
    """A dense linear operator on one algebra, applied as a callable.

    Its block (see `_Block`) holds the n^2 entries row by row: entry (r, c)
    is (n0[r n + c] + n1[r n + c] sqrt d)/q.  @, m(x), the law checks of
    `triality` and the tests for invertibility, m m = Id and m m = 0 read
    these integers, through the sparse rows and columns of `_lines`.
    `.rows`, the entries as FieldElements, is built on its first read and is
    read-only: a write into it would not reach the integers.  The verdicts
    of the laws of one map (invertibility here, isometry and skewness in
    `triality`) are kept on it, each computed once (`_verdict`)."""

    __slots__ = ("_rows", "_row_lines", "_col_lines", "_verdicts")
    _NOUN = "maps"

    def __init__(self, algebra: "Algebra", rows: Matrix):
        n = algebra.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise AlgebraError("operator shape does not match the algebra")
        self.algebra = algebra
        xs, self._q, self._n0, self._n1 = _lift(algebra.field, [x for r in rows for x in r])
        self._forget()
        self._rows = _split(xs, n)

    def _forget(self) -> None:
        self._rows = self._row_lines = self._col_lines = None
        self._verdicts = {}

    _verdict = _verdict

    @property
    def rows(self) -> Matrix:
        """The entries as FieldElements; read-only."""
        if self._rows is None:
            self._rows = _split(_wrap_vector(self.algebra.field, self._q, self._n0, self._n1),
                                self.algebra.dim)
        return self._rows

    def __call__(self, x: Element) -> Element:
        """m x: the columns of the numerators weighted by those of x."""
        self._check(x)
        a = self.algebra
        d, n = a.field.d, a.dim
        s0, s1 = [0] * n, [0] * n
        for t0, t1, column in zip(x._n0, x._n1 or repeat(0), self._lines(True)):
            if t0 or t1:
                _add_multiple(d, s0, s1, t0, t1, column)
        return _int_element(a, x._q * self._q, s0, s1)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        self._check(other)
        a = self.algebra
        return _int_map(a, self._q * other._q, *linalg._int_matmul(
            a.field.d, self._lines(False), other._lines(False), a.dim))

    _product = __matmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearMap) and other.algebra is self.algebra and self._same(other)

    __hash__ = _Block.__hash__

    def squares_to_zero(self) -> bool:
        """Whether self self = 0, read off the integers (`linalg._squares_to`)."""
        return linalg._squares_to(self.algebra.field, self._lines(False))

    def squares_to_identity(self) -> bool:
        """Whether self self = Id: for self = R/q, whether R R = q^2 Id."""
        return linalg._squares_to(self.algebra.field, self._lines(False), self._q * self._q)

    def require_invertible(self) -> None:
        """Raise linalg.NotInvertible unless the map is invertible; its rank
        is found once (`_verdict`)."""
        n = self.algebra.dim
        if not self._verdict("invertible", lambda: linalg._full_rank(
                self.algebra.field, _split(self._n0, n), _split(self._n1, n))):
            raise linalg.NotInvertible("matrix is singular")

    def _lines(self, columns: bool) -> list:
        """The nonzero entries (index, n0, n1) of each row, or of each
        column, of the numerators; each built once."""
        if columns:
            if self._col_lines is None:
                n, n0, n1 = self.algebra.dim, self._n0, self._n1
                self._col_lines = linalg._sparse_lines([n0[c::n] for c in range(n)],
                                                       n1 and [n1[c::n] for c in range(n)])
            return self._col_lines
        if self._row_lines is None:
            n = self.algebra.dim
            self._row_lines = linalg._sparse_lines(_split(self._n0, n), _split(self._n1, n))
        return self._row_lines

    def first_nonzero(self) -> Optional[tuple]:
        """(column, row) of the first nonzero entry, column by column, or
        None for the zero map: read off the canonical numerators, which
        over F_p are reduced residues, so the test is exact.  The scan stops
        at the witness and builds no sparse columns."""
        if self.is_zero():
            return None
        n, n0, n1 = self.algebra.dim, self._n0, self._n1
        for c in range(n):
            for r in range(n):
                if n0[n * r + c] or n1 and n1[n * r + c]:
                    return c, r

    def inverse(self) -> "LinearMap":
        """The inverse, read off the integer kernel (`linalg._inverse`)."""
        n = self.algebra.dim
        return _int_map(self.algebra, *linalg._inverse(
            self.algebra.field, self._q, _split(self._n0, n), _split(self._n1, n)))

    def transpose(self) -> "LinearMap":
        """The transposed map, read off the block column by column."""
        n = self.algebra.dim
        return _int_map(self.algebra, self._q, *[v and [x for c in range(n) for x in v[c::n]]
                                                 for v in (self._n0, self._n1)])

    def commutator(self, other: "LinearMap") -> "LinearMap":
        return self @ other - other @ self

    def is_identity(self) -> bool:
        return self == self.algebra.identity_map()

    def __repr__(self) -> str:
        return f"LinearMap({[[str(c) for c in r] for r in self.rows]})"


_new = object.__new__
_int_element = Element._of
_int_map = LinearMap._of


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
        # The structure constants read by field.coerce and lifted once
        # (linalg._lift): int_terms[i][j] lists the nonzero (k, c0, c1),
        # c[i][j][k] = (c0 + c1 sqrt d)/int_den.
        flat, self.int_den, c0, c1 = _lift(field, [c for plane in structure for row in plane
                                                   for c in row])
        self.structure = _split(_split(flat, n), n)
        self.int_terms = _split(linalg._sparse_lines(_split(c0, n), _split(c1, n)), n)
        # the form and the involution lifted once, as maps; .form and
        # .involution are their entries as the lift read them, and the form
        # map's block and sparse rows (LinearMap._lines) are the form on
        # integers
        self._form = self.form = None
        if form is not None:
            if len(form) != n or any(len(r) != n for r in form):
                raise AlgebraError("form must be dim x dim")
            self._form = LinearMap(self, form)
            self.form = self._form.rows
            if self._form.transpose() != self._form:
                raise AlgebraError("form is not symmetric")
        self._involution = self.involution = None
        if involution is not None:
            self._involution = LinearMap(self, involution)
            self.involution = self._involution.rows
            if not self._involution.squares_to_identity():
                raise AlgebraError("involution matrix must square to the identity")
        coerce = field.coerce
        self.unit = None if unit is None else [coerce(c) for c in unit]
        self.name = name
        # the coordinates of a para-unit e (e x = x e = conj x; see
        # constructors.make_para) or None
        self.para_unit = None if para_unit is None else [coerce(c) for c in para_unit]
        # the family a constructor declares (constructors.PARA_ZORN) or None;
        # the CLI picks its suites by it, never by the name
        self.kind = kind
        # each basis vector e_i as ints, with the zero sqrt d part
        self._units = [([int(i == j) for j in range(n)], [0] * n) for i in range(n)]
        # the verdicts of the algebra's laws, each computed once (`_verdict`):
        # the witness of triality.linearized_failure and the Certificate of
        # symcomp.is_symmetric_composition
        self._verdicts = {}

    _verdict = _verdict

    # -- element builders ---------------------------------------------------
    def element(self, coords) -> Element:
        """The element with these coordinates: FieldElements of the field,
        ints or Fractions (see `FieldDescriptor.coerce`)."""
        return Element(self, coords)

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
                            *self.int_product(x._n0, y._n0, x._n1, y._n1))

    def left_op(self, x: Element) -> LinearMap:
        """L(x): e_j -> x e_j, so entry (k, j) is the sum of x_i c_ij^k."""
        return self._multiplication(x, True)

    def right_op(self, y: Element) -> LinearMap:
        """R(y): e_i -> e_i y, so entry (k, i) is the sum of y_j c_ij^k."""
        return self._multiplication(y, False)

    def _multiplication(self, x: Element, left: bool) -> LinearMap:
        """L(x), or R(x) unless `left`, in one pass over `int_terms`: each
        c_ij^k adds x_i c_ij^k to entry (k, j) of L(x), or x_j c_ij^k to
        entry (k, i) of R(x), on numerators over qx int_den."""
        n, d, terms = self.dim, self.field.d, self.int_terms
        m0, m1 = [0] * (n * n), [0] * (n * n)
        # planes[s][c] lists the c_sc^k of L(x), or the c_cs^k of R(x), which
        # x_s times adds to column c
        planes = terms if left else list(zip(*terms))
        for s, (a0, a1) in enumerate(zip(x._n0, x._n1 or repeat(0))):
            if a0 or a1:
                lines = planes[s]
                if d is None:
                    for c, line in enumerate(lines):
                        for k, c0, _ in line:
                            m0[k * n + c] += a0 * c0
                    continue
                da1 = d * a1
                for c, line in enumerate(lines):
                    for k, c0, c1 in line:
                        m0[k * n + c] += a0 * c0 + da1 * c1
                        m1[k * n + c] += a0 * c1 + a1 * c0
        return _int_map(self, x._q * self.int_den, m0, m1)

    def form_eval(self, x: Element, y: Element) -> FieldElement:
        """<x|y> = sum x_i g_ik y_k over the nonzero g_ik of the form's map
        (its sparse rows, `LinearMap._lines`), on numerators over qx qg qy."""
        g = self.form_map()
        qg, gram = g._q, g._lines(False)
        d, y0, y1 = self.field.d, y._n0, y._n1
        s0 = s1 = 0
        if d is None:
            for a, row in zip(x._n0, gram):
                if a:
                    for k, g, _ in row:
                        s0 += a * g * y0[k]
        else:
            for a0, a1, row in zip(x._n0, x._n1, gram):
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
        basis (see `linalg._kernel`) of their covectors, read off the
        numerators, as a row times a nonzero integer has the same kernel."""
        rows = [self.form_map()(v) for v in vectors]
        r1 = None if self.field.d is None else [r._n1 for r in rows]
        return [_int_element(self, *v) for v in linalg._kernel(
            linalg._dict_rows([r._n0 for r in rows], r1), self.dim, self.field)]

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
        return _int_map(self, 1, [int(i == j) for i in range(n) for j in range(n)], [0] * (n * n))

    def __repr__(self) -> str:
        return f"Algebra(name={self.name!r}, dim={self.dim}, field={self.field})"
