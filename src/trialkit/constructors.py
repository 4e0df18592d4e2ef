"""Constructors for the algebra families used throughout the workbench.

Ground field, two-dimensional para-algebra, Cayley-Dickson composition
algebras and their para twins, the eight-dimensional pseudo-octonion algebra,
full matrix algebras with transpose involution, and para-Zorn algebras built
over a bilinear space.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Algebra, AlgebraError
from .fields import (
    PRIME,
    QUADRATIC,
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    SqrtUnavailable,
    sqrt_in_field,
)


def make_ground(field: FieldDescriptor) -> Algebra:
    one, zero = field.one(), field.zero()
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


def find_unit(a: Algebra) -> Optional["object"]:
    """Two-sided identity of a, or None."""
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append([a.structure[i][j][k] for i in range(n)])
            rhs.append(one if j == k else zero)
    for i in range(n):
        for k in range(n):
            rows.append([a.structure[i][j][k] for j in range(n)])
            rhs.append(one if i == k else zero)
    sol = linalg.solve(rows, rhs, zero, one)
    return None if sol is None else a.element(sol)


def make_para_dim2(field: FieldDescriptor) -> Algebra:
    """2-dimensional para-algebra: ee = e, ff = -e, ef = fe = -f."""
    out = make_para(make_hurwitz(field, (-1,)))
    out.name = "para2"
    return out


# ---------------------------------------------------------------------------
# Pseudo-octonion algebra
# ---------------------------------------------------------------------------
# Structure constants come from the eight traceless hermitian 3x3 generator
# matrices via trace formulas; the arithmetic below is exact over
# Q(sqrt 3) adjoined i, so nothing is transcribed by hand.

# number = (a, b, c, d) <-> (a + b*sqrt3) + i*(c + d*sqrt3)
_C0 = (Fraction(0),) * 4


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _csub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def _cmul(x, y):
    re = (x[0] * y[0] + 3 * x[1] * y[1] - x[2] * y[2] - 3 * x[3] * y[3],
          x[0] * y[1] + x[1] * y[0] - x[2] * y[3] - x[3] * y[2])
    im = (x[0] * y[2] + 3 * x[1] * y[3] + x[2] * y[0] + 3 * x[3] * y[1],
          x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0])
    return (re[0], re[1], im[0], im[1])


def _num(a=0, b=0, c=0, d=0):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _generator_matrices():
    i1 = _num(1)
    im = _num(0, 0, 1)
    # 1/sqrt(3) = sqrt(3)/3
    r3 = _num(0, Fraction(1, 3))
    z = _C0
    return [
        [[z, i1, z], [i1, z, z], [z, z, z]],
        [[z, _num(0, 0, -1), z], [im, z, z], [z, z, z]],
        [[i1, z, z], [z, _num(-1), z], [z, z, z]],
        [[z, z, i1], [z, z, z], [i1, z, z]],
        [[z, z, _num(0, 0, -1)], [z, z, z], [im, z, z]],
        [[z, z, z], [z, z, i1], [z, i1, z]],
        [[z, z, z], [z, z, _num(0, 0, -1)], [z, im, z]],
        [[r3, z, z], [z, r3, z], [z, z, _num(0, Fraction(-2, 3))]],
    ]


@lru_cache(maxsize=None)
def _pseudo_octonion_tensors() -> Tuple[tuple, tuple]:
    """Symmetric tensor d and antisymmetric tensor f, each entry a pair
    (rational part, sqrt3 coefficient), as immutable nested tuples.

    T[j][k][l] = Tr(l_j l_k l_l) is summed over the nonzero generator
    entries only; d and f come from T[j][k] + T[k][j] and T[j][k] - T[k][j].
    """
    lam = [{(r, c): m[r][c] for r in range(3) for c in range(3) if m[r][c] != _C0}
           for m in _generator_matrices()]
    trace = [[None] * 8 for _ in range(8)]
    for j in range(8):
        for k in range(8):
            prod = {}  # nonzero entries of l_j l_k
            for (r, s), x in lam[j].items():
                for (s2, t), y in lam[k].items():
                    if s == s2:
                        prod[r, t] = _cadd(prod.get((r, t), _C0), _cmul(x, y))
            row = []
            for l in range(8):
                acc = _C0
                for (r, t), x in prod.items():
                    y = lam[l].get((t, r))
                    if y is not None:
                        acc = _cadd(acc, _cmul(x, y))
                row.append(acc)
            trace[j][k] = row
    d, f = [], []
    for j in range(8):
        dj, fj = [], []
        for k in range(8):
            djk, fjk = [], []
            for l in range(8):
                td = _cadd(trace[j][k][l], trace[k][j][l])
                tf = _csub(trace[j][k][l], trace[k][j][l])
                # d = Tr({l_j,l_k} l_l)/4 is real; Tr([l_j,l_k] l_l) is purely
                # imaginary, and f = that trace / (4i).
                assert td[2] == 0 and td[3] == 0
                assert tf[0] == 0 and tf[1] == 0
                djk.append((td[0] / 4, td[1] / 4))
                fjk.append((tf[2] / 4, tf[3] / 4))
            dj.append(tuple(djk))
            fj.append(tuple(fjk))
        d.append(tuple(dj))
        f.append(tuple(fj))
    return tuple(d), tuple(f)


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
    d, f = _pseudo_octonion_tensors()
    structure = [[[zero] * 8 for _ in range(8)] for _ in range(8)]
    for j in range(8):
        for k in range(8):
            for l in range(8):
                da, db = d[j][k][l]
                fa, fb = f[j][k][l]
                # sqrt3*(da + db*sqrt3) + s*(fa + fb*sqrt3)
                rat = 3 * db + s * fa
                irr = da + s * fb
                if rat or irr:
                    structure[j][k][l] = (field.from_fraction(rat)
                                          + field.from_fraction(irr) * r3)
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


def make_para_zorn(b: Algebra, k=1) -> Algebra:
    """Para-Zorn algebra F + B + B + F over a bilinear space B.

    Coordinates order: [alpha, x (dim B), y (dim B), beta].  When B has zero
    product the k-terms vanish automatically.  The result has kind PARA_ZORN.
    """
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

    half = field.one() / field.from_int(2) if field.characteristic != 2 else None
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
    return Algebra(field, structure, form=form, involution=invol, unit=None,
                   name=f"para-zorn-{m}", kind=PARA_ZORN)


def make_zorn(field: FieldDescriptor) -> Algebra:
    """Split octonion algebra in vector-matrix form.

    The unital product is recovered from the para-Zorn product by swapping
    the diagonal of every output (the para product stores results with the
    diagonal exchanged).  The attached involution is the standard one that
    swaps the diagonal and negates both vector slots.
    """
    pz = make_para_zorn(cross_space(field), 1)
    n = pz.dim
    swap = list(range(n))
    swap[0], swap[n - 1] = n - 1, 0
    structure = [
        [[pz.structure[i][j][swap[k]] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    one, zero = field.one(), field.zero()
    unit = [one if t in (0, n - 1) else zero for t in range(n)]
    out = Algebra(field, structure, form=pz.form, involution=pz.involution,
                  unit=unit, name="zorn")
    return out


# ---------------------------------------------------------------------------
# Named algebras for the command line
# ---------------------------------------------------------------------------

def default_field(name: str) -> FieldDescriptor:
    if name == "okubo":
        return FieldDescriptor(QUADRATIC, d=3)
    return FieldDescriptor(RATIONALS)


def named_algebra(name: str, field: Optional[FieldDescriptor] = None) -> Algebra:
    parts = name.split(":")
    head = parts[0]
    if field is None:
        field = default_field(head)
    if head == "ground":
        return make_ground(field)
    if head == "para2":
        return make_para_dim2(field)
    if head in ("hurwitz", "para"):
        dim = int(parts[1])
        if dim not in (1, 2, 4, 8):
            raise ValueError("dimension must be 1, 2, 4 or 8")
        level = dim.bit_length() - 1
        gammas = [-1] * level
        if len(parts) > 2 and parts[2] == "split":
            if level == 0:
                raise ValueError("dimension 1 has no split form")
            gammas[-1] = 1
        h = make_hurwitz(field, gammas)
        return h if head == "hurwitz" else make_para(h)
    if head == "okubo":
        return make_pseudo_octonion(field, parts[1] if len(parts) > 1 else "+")
    if head == "matrix":
        return make_matrix_algebra(field, int(parts[1]))
    if head == "parazorn":
        bdim = int(parts[1])
        k = int(parts[2]) if len(parts) > 2 else 1
        return make_para_zorn(quadratic_space(field, bdim), k)
    if head == "zorn":
        return make_zorn(field)
    raise ValueError(f"unknown algebra name: {name}")
