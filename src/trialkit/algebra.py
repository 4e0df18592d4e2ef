"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` bundles a field, a structure tensor c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, a symmetric bilinear form, an optional
involution matrix, and an optional unit element.  Instances are treated as
immutable.  The nonzero structure constants are lifted once, at construction,
to integers over one denominator (`Algebra.int_terms` over `int_den`), and
every product of elements runs one integer loop on them
(`Algebra.int_product`): `multiply`, `left_op` and `right_op` wrap its
numerators as FieldElements, and the F_p enumerations reduce them mod p.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import linalg
from .fields import FieldDescriptor, FieldElement
from .linalg import _add_multiple, _lift, _wrap

Matrix = List[list]


class AlgebraError(Exception):
    """The input lies outside a construction's domain: mismatched shapes, a
    missing form, involution or unit, or a failed precondition."""


class Element:
    """A vector in an algebra, supporting + - scalar* and the algebra product."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "Algebra", coords: Sequence[FieldElement]):
        if len(coords) != algebra.dim:
            raise AlgebraError(f"expected {algebra.dim} coords, got {len(coords)}")
        self.algebra = algebra
        self.coords = list(coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), tuple(self.coords)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, linalg.vec_add(self.coords, other.coords))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, linalg.vec_sub(self.coords, other.coords))

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-c for c in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.multiply(self, other)
        return Element(self.algebra, linalg.vec_scale(self._scalar(other), self.coords))

    def __rmul__(self, other):
        return Element(self.algebra, linalg.vec_scale(self._scalar(other), self.coords))

    def __truediv__(self, other):
        return self * self._scalar(other).inverse()

    def _scalar(self, c) -> FieldElement:
        if isinstance(c, FieldElement):
            return c
        return self.algebra.field.from_int(int(c))

    def _check(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError("elements belong to different algebras")

    def __repr__(self) -> str:
        return f"Element({[str(c) for c in self.coords]})"


class LinearMap:
    """A dense linear operator on one algebra, applied as a callable."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: "Algebra", rows: Matrix):
        n = algebra.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise AlgebraError("operator shape does not match the algebra")
        self.algebra = algebra
        self.rows = [list(r) for r in rows]

    def __call__(self, x: Element) -> Element:
        return Element(self.algebra, linalg.mat_vec(self.rows, x.coords))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, linalg.mat_mul(self.rows, other.rows))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, linalg.mat_add(self.rows, other.rows))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, linalg.mat_sub(self.rows, other.rows))

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.algebra, linalg.mat_scale(self.algebra.field.from_int(-1), self.rows))

    def __mul__(self, c) -> "LinearMap":
        if isinstance(c, LinearMap):
            return self @ c
        if not isinstance(c, FieldElement):
            c = self.algebra.field.from_int(int(c))
        return LinearMap(self.algebra, linalg.mat_scale(c, self.rows))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearMap) and linalg.mat_eq(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash(tuple(tuple(r) for r in self.rows))

    def inverse(self) -> "LinearMap":
        f = self.algebra.field
        return LinearMap(self.algebra, linalg.mat_inv(self.rows, f.zero(), f.one()))

    def commutator(self, other: "LinearMap") -> "LinearMap":
        return self @ other - other @ self

    def is_identity(self) -> bool:
        f = self.algebra.field
        return linalg.mat_eq(self.rows, linalg.identity(self.algebra.dim, f.one(), f.zero()))

    def __repr__(self) -> str:
        return f"LinearMap({[[str(c) for c in r] for r in self.rows]})"


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
        self.int_den, flat = linalg._lift_rows([row for plane in self.structure for row in plane])
        self.int_terms = [flat[i * n:(i + 1) * n] for i in range(n)]
        self.int_form = None if self.form is None else linalg._lift_rows(self.form)
        # each basis vector e_i as ints, with the zero sqrt d part
        self._units = [([int(i == j) for j in range(n)], [0] * n) for i in range(n)]
        self._zero = field.zero()
        # (witness,) of symcomp.linearized_failure and the Certificate of
        # symcomp.is_symmetric_composition, once computed
        self._linearized_cache = None
        self._symcomp_cache = None

    # -- element builders ---------------------------------------------------
    def element(self, coords) -> Element:
        out = []
        for c in coords:
            if not isinstance(c, FieldElement):
                c = self.field.from_int(int(c))
            out.append(c)
        return Element(self, out)

    def basis(self, i: int) -> Element:
        f = self.field
        return Element(self, [f.one() if j == i else f.zero() for j in range(self.dim)])

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

    def _elements(self, s0: list, s1: list, q: int) -> list:
        """The FieldElements (s0[k] + s1[k] sqrt d)/q; each zero is one shared object."""
        desc, zero = self.field, self._zero
        return [_wrap(desc, v0, v1, q) if v0 or v1 else zero for v0, v1 in zip(s0, s1)]

    def multiply(self, x: Element, y: Element) -> Element:
        qx, x0, x1 = _lift(x.coords)
        qy, y0, y1 = _lift(y.coords)
        return Element(self, self._elements(*self.int_product(x0, y0, x1, y1),
                                            qx * qy * self.int_den))

    def left_op(self, x: Element) -> LinearMap:
        """L(x): e_j -> x e_j, so column j is the product x e_j."""
        q, x0, x1 = _lift(x.coords)
        return self._operator(q, [self.int_product(x0, e, x1, z) for e, z in self._units])

    def right_op(self, y: Element) -> LinearMap:
        """R(y): e_i -> e_i y, so column i is the product e_i y."""
        q, y0, y1 = _lift(y.coords)
        return self._operator(q, [self.int_product(e, y0, z, y1) for e, z in self._units])

    def _operator(self, q: int, columns: list) -> LinearMap:
        """The map whose columns are `int_product` numerators over q int_den."""
        cols = [self._elements(s0, s1, q * self.int_den) for s0, s1 in columns]
        return LinearMap(self, list(zip(*cols)))

    def form_eval(self, x: Element, y: Element) -> FieldElement:
        if self.form is None:
            raise AlgebraError("algebra has no bilinear form")
        acc = self.field.zero()
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y.coords):
                if not yj.is_zero() and not self.form[i][j].is_zero():
                    acc = acc + xi * self.form[i][j] * yj
        return acc

    def covector(self, w: Element) -> list:
        """The list of <e_l|w> over every basis index l: the form times w."""
        if self.form is None:
            raise AlgebraError("algebra has no bilinear form")
        return linalg.mat_vec(self.form, w.coords)

    def involute(self, x: Element) -> Element:
        if self.involution is None:
            raise AlgebraError("algebra has no involution")
        return Element(self, linalg.mat_vec(self.involution, x.coords))

    def involution_map(self) -> LinearMap:
        if self.involution is None:
            raise AlgebraError("algebra has no involution")
        return LinearMap(self, self.involution)

    def identity_map(self) -> LinearMap:
        f = self.field
        return LinearMap(self, linalg.identity(self.dim, f.one(), f.zero()))

    def __repr__(self) -> str:
        return f"Algebra(name={self.name!r}, dim={self.dim}, field={self.field})"
