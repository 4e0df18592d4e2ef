"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` bundles a field, a structure tensor c[i][j][k] with
e_i e_j = sum_k c[i][j][k] e_k, a symmetric bilinear form, an optional
involution matrix, and an optional unit element.  Instances are treated as
immutable; the nonzero terms of every basis product e_i e_j are listed once at
construction, and products and multiplication operators read only those.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from . import linalg
from .fields import FieldDescriptor, FieldElement

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
        # the family a constructor declares (constructors.PARA_ZORN) or None;
        # the CLI picks its suites by it, never by the name
        self.kind: Optional[str] = None
        # product_terms[i][j]: the nonzero (k, c[i][j][k]) of e_i e_j, by k.
        self.product_terms = [[tuple((k, c) for k, c in enumerate(row) if not c.is_zero())
                               for row in plane] for plane in self.structure]
        # The same terms on integers, for linalg's kernel: int_terms[i][j] is
        # the (k, c0, c1) with c[i][j][k] = (c0 + c1 sqrt d)/int_den (over
        # F_p, int_den = 1 and c0 is the residue).
        self.int_den, n0s, n1s = linalg._lift(
            [c for plane in self.product_terms for terms in plane for _, c in terms])
        ints = iter(zip(n0s, n1s))
        self.int_terms = [[tuple((k, *next(ints)) for k, _ in terms) for terms in plane]
                          for plane in self.product_terms]
        # the Certificate of symcomp.is_symmetric_composition, once computed
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
    def multiply(self, x: Element, y: Element) -> Element:
        out = [self.field.zero()] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y.coords) if not yj.is_zero()]
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            terms = self.product_terms[i]
            for j, yj in ys:
                if terms[j]:
                    coef = xi * yj
                    for k, c in terms[j]:
                        out[k] = out[k] + coef * c
        return Element(self, out)

    def left_op(self, x: Element) -> LinearMap:
        """L(x): e_j -> x e_j, so entry (k, j) is sum_i x_i c[i][j][k]."""
        n = self.dim
        zero = self.field.zero()
        rows = [[zero] * n for _ in range(n)]
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            for j, terms in enumerate(self.product_terms[i]):
                for k, c in terms:
                    rows[k][j] = rows[k][j] + xi * c
        return LinearMap(self, rows)

    def right_op(self, y: Element) -> LinearMap:
        """R(y): e_i -> e_i y, so entry (k, i) is sum_j y_j c[i][j][k]."""
        n = self.dim
        zero = self.field.zero()
        rows = [[zero] * n for _ in range(n)]
        for j, yj in enumerate(y.coords):
            if yj.is_zero():
                continue
            for i, plane in enumerate(self.product_terms):
                for k, c in plane[j]:
                    rows[k][i] = rows[k][i] + yj * c
        return LinearMap(self, rows)

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


class ResidueAlgebra:
    """An algebra over F_p with its product terms and form read as int
    residues, for loops that would otherwise build millions of
    FieldElements.  Vectors are tuples of residues in [0, p).

    Exact: a FieldElement over F_p is its residue, every stored residue is
    < p, and Python ints do not overflow, so one reduction mod p after each
    sum gives the coordinate the FieldElement path computes.
    """

    __slots__ = ("p", "dim", "terms", "form")

    def __init__(self, a: Algebra):
        if a.field.p is None:
            raise AlgebraError("residue arithmetic needs a prime field")
        self.p = a.field.p
        self.dim = a.dim
        # terms[i][j]: the nonzero (k, c) of e_i e_j with c a residue
        self.terms = [[tuple((k, c) for k, c, _ in row) for row in plane]
                      for plane in a.int_terms]
        self.form = None if a.form is None else [[c.a for c in row] for row in a.form]

    def multiply(self, x: tuple, y: tuple) -> tuple:
        out = [0] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                terms = self.terms[i]
                for j, yj in ys:
                    for k, c in terms[j]:
                        out[k] += xi * yj * c
        p = self.p
        return tuple(v % p for v in out)

    def form_eval(self, x: tuple, y: tuple) -> int:
        if self.form is None:
            raise AlgebraError("algebra has no bilinear form")
        acc = 0
        for xi, row in zip(x, self.form):
            if xi:
                acc += xi * sum(c * yj for c, yj in zip(row, y))
        return acc % self.p
