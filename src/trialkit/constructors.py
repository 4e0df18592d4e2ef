"""Constructors for the algebra families used throughout the workbench.

Ground field, two-dimensional para-algebra, Cayley-Dickson composition
algebras and their para twins, the eight-dimensional pseudo-octonion algebra,
full matrix algebras with transpose involution, and para-Zorn algebras built
over a bilinear space.  Each construction has one builder: the para twin and
the conjugate share `_conjugate_product`, and the para-Zorn algebras and
Zorn's split octonions share `_para_zorn_tables`, Zorn's product being the
para-Zorn one with the alpha and beta entries exchanged.  `find_unit` reads
a two-sided identity off the integer kernel (`linalg._kernel`) of the
structure constants.

The pseudo-octonion structure constants are computed in M(3, Q(i)), built
by `make_matrix_algebra`, from traces of Gell-Mann matrices, and kept as
one table of Fractions per sign, built on first use; each construction
only maps that table into its field.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Algebra, AlgebraError, Element
from .fields import (
    QUADRATIC,
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    SqrtUnavailable,
    sqrt_in_field,
)


def make_ground(field: FieldDescriptor) -> Algebra:
    one = field.one()
    return Algebra(
        field,
        [[[one]]],
        form=[[one]],
        involution=[[one]],
        unit=[one],
        name="ground",
    )


# ---------------------------------------------------------------------------
# Cayley-Dickson composition algebras
# ---------------------------------------------------------------------------

def _cd_basis_product(i: int, j: int, level: int) -> Tuple[int, List[int], int]:
    """e_i e_j = sign * prod(gammas[t] for t in ts) * e_k after `level`
    doublings; returns (sign, ts, k).

    Bit t of an index says whether the basis vector lies in the second half
    of the t-th doubling, where (a,b)(c,d) = (ac + g conj(d) b, da + b conj(c))
    with g = gammas[t].  On basis vectors exactly one term survives, and
    conj(e_m) = -e_m unless m = 0, so each bit costs one step.
    """
    sign, ts, k = 1, [], 0
    for t in range(level - 1, -1, -1):
        bit = 1 << t
        hi, hj = i & bit, j & bit
        i, j = i ^ hi, j ^ hj
        if hi and j:
            sign = -sign  # conj(d) or conj(c) on a non-unit basis vector
        if hi and hj:
            ts.append(t)
        if hi != hj:
            k |= bit
        if hj:
            i, j = j, i  # the product continues as d a or conj(d) b
    return sign, ts, k


def make_hurwitz(field: FieldDescriptor, gammas: Sequence) -> Algebra:
    """Unital composition algebra of dimension 2^len(gammas) by doubling."""
    if len(gammas) > 3:
        raise AlgebraError("doubling past dimension 8 loses the composition law")
    gs = [field.coerce(g) for g in gammas]
    level = len(gs)
    n = 2 ** level
    zero, one = field.zero(), field.one()
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sign, ts, k = _cd_basis_product(i, j, level)
            coef = one if sign > 0 else -one
            for t in ts:
                coef = coef * gs[t]
            structure[i][j][k] = coef
    norms = [one]
    for g in gs:
        norms = norms + [-g * v for v in norms]
    form = [[norms[i] if i == j else zero for j in range(n)] for i in range(n)]
    invol = [[(one if i == 0 else -one) if i == j else zero for j in range(n)] for i in range(n)]
    unit = [one if i == 0 else zero for i in range(n)]
    return Algebra(field, structure, form=form, involution=invol, unit=unit,
                   name=f"hurwitz-{n}")


def _conjugate_product(a: Algebra, what: str, name: str,
                       para_unit: Optional[Sequence[FieldElement]] = None) -> Algebra:
    """The algebra with product x . y = conj(x * y) on the space, form and
    involution of `a`, without a unit."""
    if a.involution is None:
        raise AlgebraError(f"{what} construction needs an involution")
    basis = a.basis_elements()
    structure = [[a.involute(x * y).coords for y in basis] for x in basis]
    return Algebra(a.field, structure, form=a.form, involution=a.involution,
                   unit=None, name=name, para_unit=para_unit)


def make_para(h: Algebra) -> Algebra:
    """Para twin of a unital involutive algebra: x . y = conj(x * y).

    The old unit e becomes the para-unit (e . x = x . e = conj(x)); it is
    kept on the result as `para_unit` since it is no longer an identity.
    """
    return _conjugate_product(h, "para", f"para-{h.name}", para_unit=h.unit)


def make_conjugate(astar: Algebra) -> Algebra:
    """Conjugate algebra: x y = conj(x * y).  A declared unit is rediscovered
    by solving for a two-sided identity if one exists."""
    out = _conjugate_product(astar, "conjugate", f"conj-{astar.name}")
    unit = find_unit(out)
    if unit is not None:
        out.unit = unit.coords
    return out


def find_unit(a: Algebra) -> Optional[Element]:
    """Two-sided identity of a, or None.

    The unit u solves the 2 n^2 conditions (u e_j)_k = delta_jk and
    (e_i u)_k = delta_ik, written as integer rows off `a.int_terms`: row
    (j, k) holds c[i][j][k] at column i, row (i, k) holds it at column j,
    and -int_den delta is column n.  So a kernel vector (u, 1) is a unit.
    The system is consistent exactly when column n is free (not a pivot),
    and then the last vector of the RREF kernel basis (`linalg._kernel`) is
    the one of column n, nonzero there and (u, 1) over its denominator.
    Otherwise every basis vector belongs to a free column before n and is
    zero at n, since an RREF row is zero before its pivot.
    """
    n, d = a.dim, a.field.d
    left, right = [{} for _ in range(n * n)], [{} for _ in range(n * n)]
    for i, plane in enumerate(a.int_terms):
        for j, terms in enumerate(plane):
            for k, c0, c1 in terms:
                left[n * j + k][i] = right[n * i + k][j] = c0 if d is None else (c0, c1)
    for i in range(n):
        left[n * i + i][n] = right[n * i + i][n] = -a.int_den if d is None else (-a.int_den, 0)
    basis = linalg._kernel(left + right, n + 1, a.field)
    if not basis or not basis[-1][1][n]:
        return None
    q, v0, v1 = basis[-1]
    return Element._of(a, q, v0[:n], v1 and v1[:n])


def make_para_dim2(field: FieldDescriptor) -> Algebra:
    """2-dimensional para-algebra: ee = e, ff = -e, ef = fe = -f."""
    h = make_hurwitz(field, (-1,))
    return _conjugate_product(h, "para", "para2", para_unit=h.unit)


# ---------------------------------------------------------------------------
# Pseudo-octonion algebra
# ---------------------------------------------------------------------------
# The basis is the eight Gell-Mann matrices l_1..l_8, and l_j l_k =
# sum_l (sqrt3 d_jkl + s f_jkl) l_l with Tr(l_j l_k l_l) = 2(d_jkl + i f_jkl)
# (Okubo 1978).  The traces are computed exactly in M(3, Q(i)), the
# package's own matrix algebra, on generators with entries in Z[i]:
# l_8 enters scaled by sqrt 3, so a trace holding it m times is sqrt3^m
# times the true one, which the table divides out again.


@lru_cache(maxsize=None)
def _pseudo_octonion_table(s: int) -> tuple:
    """The nonzero structure constants of sign s, as (j, k, l, rational
    part, sqrt3 coefficient) with Fraction parts; built on first use."""
    m = make_matrix_algebra(FieldDescriptor(QUADRATIC, d=-1), 3)
    e, i = m.basis, m.field.element(0, 1)
    lam = []
    for r, c in ((0, 1), (0, 2), (1, 2)):
        lam += [e(3 * r + c) + e(3 * c + r), (e(3 * c + r) - e(3 * r + c)) * i]
    lam.insert(2, e(0) - e(4))
    lam.append(e(0) + e(4) - 2 * e(8))  # sqrt3 l_8 = diag(1, 1, -2)
    table = []
    for j, k in product(range(8), repeat=2):
        jk = m.involute(lam[j] * lam[k])  # form_eval(t(x), y) = Tr(x y)
        for l in range(8):
            t = m.form_eval(jk, lam[l])
            if t:
                half, odd = divmod((j == 7) + (k == 7) + (l == 7), 2)
                q = 2 * 3 ** half
                d, f = t.a / q, t.b / q
                # sqrt3 d + s f; an odd m leaves one sqrt3 in d and f, so the
                # rational part is sqrt3 (d / sqrt3) and the sqrt3 part s f / 3
                table.append((j, k, l, d, s * f / 3) if odd else (j, k, l, s * f, d))
    return tuple(table)


def sqrt3_in(field: FieldDescriptor) -> FieldElement:
    r = sqrt_in_field(field.from_int(3))
    if r is None:
        raise SqrtUnavailable(f"sqrt(3) does not exist in {field}")
    return r


def make_pseudo_octonion(field: FieldDescriptor, sign: str = "+") -> Algebra:
    """Eight-dimensional symmetric composition algebra on traceless hermitian
    generators; the two sign branches are the two orientations of the product."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1 if sign == "+" else -1
    r3 = sqrt3_in(field)
    zero, one = field.zero(), field.one()
    structure = [[[zero] * 8 for _ in range(8)] for _ in range(8)]
    for j, k, l, rat, irr in _pseudo_octonion_table(s):
        structure[j][k][l] = field.from_fraction(rat) + field.from_fraction(irr) * r3
    form = [[one if i == j else zero for j in range(8)] for i in range(8)]
    flip = {1, 4, 6}  # imaginary antisymmetric generators change sign under transpose
    invol = [[(-one if i in flip else one) if i == j else zero for j in range(8)] for i in range(8)]
    return Algebra(field, structure, form=form, involution=invol, unit=None,
                   name="pseudo-octonion")


# ---------------------------------------------------------------------------
# Matrix algebras with transpose involution
# ---------------------------------------------------------------------------

def make_matrix_algebra(field: FieldDescriptor, n: int) -> Algebra:
    """M(n, F) with basis e_{rc} (index n*r + c), transpose involution, and
    the trace pairing tr(t(x) y) as declared form."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    dim = n * n
    zero, one = field.zero(), field.one()
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        structure[n * r + c][n * r2 + c2][n * r + c2] = one
    form = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    invol = [[zero] * dim for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            invol[n * c + r][n * r + c] = one
    unit = [one if i % (n + 1) == 0 and i // n == i % n else zero for i in range(dim)]
    return Algebra(field, structure, form=form, involution=invol, unit=unit,
                   name=f"matrix-{n}")


# ---------------------------------------------------------------------------
# Para-Zorn algebras
# ---------------------------------------------------------------------------

def quadratic_space(field: FieldDescriptor, dim: int) -> Algebra:
    """A bilinear space packaged as an algebra with zero product, identity
    form, and identity involution."""
    if dim < 0:
        raise ValueError("space dimension must not be negative")
    zero, one = field.zero(), field.one()
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    form = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    invol = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    return Algebra(field, structure, form=form, involution=invol, unit=None,
                   name=f"space-{dim}")


def cross_space(field: FieldDescriptor) -> Algebra:
    """F^3 with the cross product, negated dot form, and negation involution.

    The form sign is what makes x(yz) = (x|y)z - (x|z)y hold, which the
    para-Zorn construction needs to yield an alternative unital twin.
    """
    zero, one = field.zero(), field.one()
    structure = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)):
        structure[i][j][k] = field.from_int(s)
    form = [[-one if i == j else zero for j in range(3)] for i in range(3)]
    invol = [[-one if i == j else zero for j in range(3)] for i in range(3)]
    return Algebra(field, structure, form=form, involution=invol, unit=None,
                   name="cross3")


PARA_ZORN = "para-zorn"


def _para_zorn_tables(b: Algebra, k) -> tuple:
    """(structure, form, involution) of the para-Zorn product F + B + B + F
    over the bilinear space B (see `make_para_zorn`); the involution is None
    when B has none."""
    field = b.field
    if b.form is None:
        raise AlgebraError("para-Zorn needs a bilinear form on B")
    k = field.coerce(k)
    m = b.dim
    dim = 2 * m + 2
    zero, one = field.zero(), field.one()

    def split(i):
        """Basis vector i as (alpha, x, y, beta), x and y elements of B."""
        c = [one if t == i else zero for t in range(dim)]
        return c[0], b.element(c[1:1 + m]), b.element(c[1 + m:1 + 2 * m]), c[-1]

    # (a1, x1, y1, b1)(a2, x2, y2, b2) = (b1 b2 + <y1|x2>, a1 x2 + b2 x1 + k y1 y2,
    # a2 y1 + b1 y2 + k x1 x2, a1 a2 + <x1|y2>)
    parts = [split(i) for i in range(dim)]
    structure = [[[b1 * b2 + b.form_eval(y1, x2), *(a1 * x2 + b2 * x1 + k * (y1 * y2)).coords,
                   *(a2 * y1 + b1 * y2 + k * (x1 * x2)).coords, a1 * a2 + b.form_eval(x1, y2)]
                  for a2, x2, y2, b2 in parts] for a1, x1, y1, b1 in parts]

    half = one / field.from_int(2)
    form = [[zero] * dim for _ in range(dim)]
    # polarization of N(X) = alpha*beta - (x|y)
    form[0][dim - 1] = half
    form[dim - 1][0] = half
    for i in range(m):
        for j in range(m):
            v = -half * b.form[i][j]
            form[1 + i][1 + m + j] = form[1 + i][1 + m + j] + v
            form[1 + m + j][1 + i] = form[1 + m + j][1 + i] + v

    invol = None
    if b.involution is not None:
        invol = [[zero] * dim for _ in range(dim)]
        invol[0][dim - 1] = one
        invol[dim - 1][0] = one
        for i in range(m):
            for j in range(m):
                invol[1 + i][1 + j] = b.involution[i][j]
                invol[1 + m + i][1 + m + j] = b.involution[i][j]
    return structure, form, invol


def make_para_zorn(b: Algebra, k=1) -> Algebra:
    """Para-Zorn algebra F + B + B + F over a bilinear space B.

    Coordinates order: [alpha, x (dim B), y (dim B), beta].  When B has zero
    product the k-terms vanish automatically.  The result has kind PARA_ZORN.
    """
    structure, form, invol = _para_zorn_tables(b, k)
    return Algebra(b.field, structure, form=form, involution=invol, unit=None,
                   name=f"para-zorn-{b.dim}", kind=PARA_ZORN)


def make_zorn(field: FieldDescriptor) -> Algebra:
    """Split octonion algebra in vector-matrix form.

    The unital product is the para-Zorn product over `cross_space` with the
    alpha and beta entries of every product exchanged (the para product
    stores its results with the diagonal exchanged), on the same form and
    involution: the standard involution, which swaps the diagonal and
    negates both vector slots.  The unit is alpha = beta = 1.
    """
    structure, form, invol = _para_zorn_tables(cross_space(field), 1)
    structure = [[[s[-1], *s[1:-1], s[0]] for s in row] for row in structure]
    one, zero = field.one(), field.zero()
    unit = [one, *[zero] * (len(structure) - 2), one]
    return Algebra(field, structure, form=form, involution=invol, unit=unit, name="zorn")


# ---------------------------------------------------------------------------
# Named algebras for the command line
# ---------------------------------------------------------------------------

def default_field(name: str) -> FieldDescriptor:
    if name == "okubo":
        return FieldDescriptor(QUADRATIC, d=3)
    return FieldDescriptor(RATIONALS)


# the fewest and the most parts each name takes after its head
_NAME_PARTS = {"ground": (0, 0), "para2": (0, 0), "zorn": (0, 0), "okubo": (0, 1),
              "matrix": (1, 1), "hurwitz": (1, 2), "para": (1, 2), "parazorn": (1, 2)}


def named_algebra(name: str, field: Optional[FieldDescriptor] = None) -> Algebra:
    """The algebra of a name: `ground`, `para2`, `zorn`, `okubo[:+|:-]`,
    `matrix:N` (N >= 1), `hurwitz:N[:split]` and `para:N[:split]` (N = 1, 2,
    4, 8) or `parazorn:M[:K]` (M >= 0, K an integer).  Every part is read,
    and a name with a part missing, extra or misspelt raises ValueError."""
    head, *parts = name.split(":")
    lo, hi = _NAME_PARTS.get(head, (0, -1))
    if not lo <= len(parts) <= hi or (head in ("hurwitz", "para")
                                      and parts[1:] not in ([], ["split"])):
        raise ValueError(f"unknown algebra name: {name}")
    field = field or default_field(head)
    if head == "ground":
        return make_ground(field)
    if head == "para2":
        return make_para_dim2(field)
    if head in ("hurwitz", "para"):
        dim = int(parts[0])
        if dim not in (1, 2, 4, 8):
            raise ValueError("dimension must be 1, 2, 4 or 8")
        level = dim.bit_length() - 1
        gammas = [-1] * level
        if parts[1:]:
            if level == 0:
                raise ValueError("dimension 1 has no split form")
            gammas[-1] = 1
        h = make_hurwitz(field, gammas)
        return h if head == "hurwitz" else make_para(h)
    if head == "okubo":
        return make_pseudo_octonion(field, parts[0] if parts else "+")
    if head == "matrix":
        return make_matrix_algebra(field, int(parts[0]))
    if head == "parazorn":
        k = int(parts[1]) if parts[1:] else 1
        return make_para_zorn(quadratic_space(field, int(parts[0])), k)
    return make_zorn(field)
