"""Dense exact linear algebra over FieldElement matrices.

Matrices are plain lists of lists of FieldElements of one field.

Products and comparisons run on the integers that a FieldElement already
stores, (n0 + n1 sqrt d)/q (see `fields`): `_lift` puts a row, a column or a
whole matrix over one common denominator, the lcm of its entries' q, so that
each sum of products is a sum of integer pair products
(u0 + u1 sqrt d)(v0 + v1 sqrt d) = (u0 v0 + d u1 v1) + (u0 v1 + u1 v0) sqrt d
(`_dot` on dense vectors, `_add_multiple` on sparse ones), and `_wrap` builds
one FieldElement per result.  Over Q the n1 parts are zero and skipped; over
F_p every q is 1, the n0 are the residues, and a result is reduced mod p only
when it is wrapped or compared.  This is exact with no stated bound: Python
ints do not overflow, and two quotients over positive denominators are equal
exactly when their numerators, each multiplied by the other's denominator,
are equal (mod p over F_p), which is when their canonical FieldElements are
equal.

`nullspace` and `require_invertible` row-reduce the same integers with one
elimination, `_rref`, for all three kinds of field: Gauss-Jordan without
division, the pivot made 1 and every entry reduced mod p over F_p.
`mat_inv` and `solve` read their results off a `nullspace` basis.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul, sub
from typing import List, Optional, Tuple

from .fields import FieldDescriptor, FieldElement, _make, _reduced

Matrix = List[list]
Vector = List


class NotInvertible(ValueError):
    pass


def zeros(rows: int, cols: int, zero) -> Matrix:
    return [[zero for _ in range(cols)] for _ in range(rows)]


def identity(n: int, one, zero) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, each entry the integer dot product of a row of a and a column of
    b, each lifted over its own denominator; every zero entry is one shared
    zero element."""
    if not b or not b[0]:
        return [[] for _ in a]
    desc = b[0][0].desc
    d = desc.d
    zero = _make(desc, 0, 0, 1)
    cols = [_lift(col) for col in zip(*b)]
    out = []
    for row in a:
        q, u0, u1 = _lift(row)
        line = []
        for r, v0, v1 in cols:
            s0, s1 = _dot(d, u0, u1, v0, v1)
            line.append(_wrap(desc, s0, s1, q * r) if s0 or s1 else zero)
        out.append(line)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """a v, each entry the integer dot product of a lifted row and the
    lifted v."""
    if not a:
        return []
    desc = v[0].desc
    d = desc.d
    qv, v0, v1 = _lift(v)
    out = []
    for row in a:
        q, u0, u1 = _lift(row)
        s0, s1 = _dot(d, u0, u1, v0, v1)
        out.append(_wrap(desc, s0, s1, q * qv))
    return out


def vec_add(u: Vector, v: Vector) -> Vector:
    return [x + y for x, y in zip(u, v)]


def vec_sub(u: Vector, v: Vector) -> Vector:
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, v: Vector) -> Vector:
    return [c * x for x in v]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def squares_to(m: Matrix, c, zero) -> bool:
    """Whether m m = c Id, each row of m m summed over the nonzero entries of
    m only and tested as soon as it is complete."""
    rows = [[(j, x) for j, x in enumerate(row) if not x.is_zero()] for row in m]
    for i, row in enumerate(rows):
        sq = [zero] * len(rows)
        for j, x in row:
            for k, y in rows[j]:
                sq[k] = sq[k] + x * y
        sq[i] = sq[i] - c
        if not all(v.is_zero() for v in sq):
            return False
    return True


# -- the integer kernel (see the module docstring) ----------------------------

def _lift(xs) -> Tuple[int, List[int], List[int]]:
    """(q, n0s, n1s) with xs[t] = (n0s[t] + n1s[t] sqrt d)/q, where q is the
    lcm of the denominators of the FieldElements xs; over F_p every
    denominator is 1 and no lcm is taken."""
    q = lcm(*[x._q for x in xs]) if xs and xs[0].desc.p is None else 1
    if q == 1:
        return 1, [x._n0 for x in xs], [x._n1 for x in xs]
    return q, [x._n0 * (q // x._q) for x in xs], [x._n1 * (q // x._q) for x in xs]


def _lift_rows(m: Matrix) -> Tuple[int, List[list]]:
    """A whole matrix over one denominator q: (q, rows), rows[i] the nonzero
    entries of row i as (column, n0, n1), entry (n0 + n1 sqrt d)/q."""
    q, n0s, n1s = _lift([x for row in m for x in row])
    rows, t = [], 0
    for row in m:
        rows.append([(c, n0s[t + c], n1s[t + c]) for c in range(len(row))
                     if n0s[t + c] or n1s[t + c]])
        t += len(row)
    return q, rows


def _lift_columns(m: Matrix) -> Tuple[int, List[list]]:
    """`_lift_rows` of the transpose: the nonzero entries of each column."""
    return _lift_rows(list(zip(*m)))


def _wrap(desc: FieldDescriptor, s0: int, s1: int, q: int) -> FieldElement:
    """The FieldElement (s0 + s1 sqrt d)/q for integers s0, s1 and q > 0;
    over F_p (q = 1, s1 = 0) the residue of s0."""
    p = desc.p
    if p is not None:
        return _make(desc, s0 % p, 0, 1)
    return _reduced(desc, s0, s1, q)


def _add_multiple(d: Optional[int], acc0: list, acc1: list, y0: int, y1: int,
                  terms) -> None:
    """acc += y v in place, for the scalar y = y0 + y1 sqrt d and the sparse
    vector v given as its nonzero (r, v0, v1), all numerators; over Q and
    F_p (d None) the sqrt d parts are not read and acc1 is not written."""
    if d is None:
        for r, v0, _ in terms:
            acc0[r] += y0 * v0
    elif y1:
        dy1 = d * y1
        for r, v0, v1 in terms:
            acc0[r] += y0 * v0 + dy1 * v1
            acc1[r] += y0 * v1 + y1 * v0
    else:
        for r, v0, v1 in terms:
            acc0[r] += y0 * v0
            acc1[r] += y0 * v1


def _dot(d: Optional[int], u0: list, u1: list, v0, v1) -> Tuple[int, int]:
    """Numerators (s0, s1) of sum_t u_t v_t for dense vectors u = u0 +
    u1 sqrt d and v = v0 + v1 sqrt d; over Q and F_p (d None) s1 = 0."""
    s0 = sum(map(mul, u0, v0))
    if d is None:
        return s0, 0
    return (s0 + d * sum(map(mul, u1, v1)),
            sum(map(mul, u0, v1)) + sum(map(mul, u1, v0)))


def _agree(p: Optional[int], u0: list, u1: list, v0: list, v1: list) -> bool:
    """Whether the vectors u = u0 + u1 sqrt d and v = v0 + v1 sqrt d of
    numerators over one denominator are equal; over F_p, whether u0 = v0
    mod p."""
    if p is not None:
        return not any(map(p.__rmod__, map(sub, u0, v0)))
    return u0 == v0 and u1 == v1


def _scaled(s: int, vectors: List[list]) -> List[list]:
    """Sparse vectors (see `_lift_rows`) multiplied by the integer s."""
    if s == 1:
        return vectors
    return [[(r, s * x0, s * x1) for r, x0, x1 in v] for v in vectors]


def _sparse(v0: list, v1: list) -> list:
    """The nonzero (r, v0[r], v1[r]) of a dense vector of numerators."""
    return [(r, x0, x1) for r, (x0, x1) in enumerate(zip(v0, v1)) if x0 or x1]


def nullspace(a: Matrix, zero, one) -> List[Vector]:
    """Basis of {v : a v = 0} for a matrix of FieldElements.

    The basis is the one read off the reduced row echelon form (RREF): one
    vector per free (non-pivot) column f, with 1 at f, 0 at the other free
    columns and minus column f of the RREF at the pivot columns.  It is
    `int_nullspace` of the integer rows of `a` (see `_int_rows`).
    """
    if not a:
        return []
    return int_nullspace(_int_rows(a, zero.desc), len(a[0]), zero, one)


def _int_rows(a: Matrix, desc: FieldDescriptor) -> List[dict]:
    """The rows of `a` times the lcm q of its denominators, which leaves the
    kernel unchanged, as sparse rows {column: (n0, n1)} of the nonzero
    integer entries n0 + n1 sqrt d (over F_p q is 1, taken without an lcm,
    and n0 is the residue)."""
    q = 1 if desc.p is not None else lcm(*[x._q for row in a for x in row])
    if q == 1:
        return [{c: (x._n0, x._n1) for c, x in enumerate(row) if x._n0 or x._n1} for row in a]
    return [{c: (x._n0 * (q // x._q), x._n1 * (q // x._q))
             for c, x in enumerate(row) if x._n0 or x._n1} for row in a]


def int_nullspace(rows: List[dict], cols: int, zero, one) -> List[Vector]:
    """`nullspace` of the system given as sparse integer rows {column: (n0,
    n1)} of nonzero entries n0 + n1 sqrt d (n1 = 0 over Q and F_p; over F_p
    any integers, read mod p): a row times a nonzero integer has the same
    kernel.  The rows are consumed."""
    desc = zero.desc
    pivots = _rref(rows, cols, desc)
    out = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [zero] * cols
        v[f] = one
        for pc, row in pivots.items():
            if f in row:
                # the RREF entry row[f]/row[pc], negated
                (f0, f1), (q, _) = row[f], row[pc]
                v[pc] = _wrap(desc, -f0, -f1, q) if q > 0 else _wrap(desc, f0, f1, -q)
        out.append(v)
    return out


def _rref(rows: List[dict], cols: int, desc: FieldDescriptor) -> dict:
    """Gauss-Jordan elimination without division on sparse rows {column:
    (n0, n1)}, each entry n0 + n1 sqrt d in Z[sqrt d] (d = 0 over Q and
    F_p); over F_p an entry stands for its residue n0 mod p.

    The sparsest row holding column c (over F_p: nonzero mod p) is the
    pivot row.  Over F_p it is rebuilt from the residues of its entries
    times the inverse of its pivot, which makes the pivot 1; over
    Q(sqrt d), if its pivot has a sqrt d part, it is multiplied by the
    pivot's conjugate, which makes the pivot the integer norm
    n0^2 - d n1^2, nonzero because d is not a square.  Every other row r
    holding c, earlier pivot rows included, becomes pivot r - r[c]
    pivot_row, which is 0 at c and has the same kernel.  Over F_p the
    pivot is 1, so r is never rescaled, and each updated entry is reduced
    mod p; a row whose entry at c is 0 mod p needs no update and keeps
    that entry.  Over Q and Q(sqrt d) r is then divided by the gcd of its
    integers.

    Returns {pivot column: row}, in column order; each row is a nonzero
    integer at its pivot (1 over F_p, and every entry a nonzero residue)
    and 0 at every other pivot column, so the RREF entry (row, f) is
    row[f]/row[pc].  The rows passed in are consumed.
    """
    d, p = desc.d or 0, desc.p
    # the rows that are neither pivot rows nor zero, by id: a row leaves as
    # it becomes one or the other, so they are never filtered in a pass
    active = {id(r): r for r in rows if r}
    pivots: dict = {}
    for c in range(cols):
        if p is None:
            hits = [r for r in active.values() if c in r]
        else:
            hits = [r for r in active.values() if c in r and r[c][0] % p]
        if not hits:
            continue
        piv = hits[0] if len(hits) == 1 else min(hits, key=len)
        del active[id(piv)]
        p0, p1 = piv[c]
        if p is not None:
            inv = pow(p0, -1, p)
            ys = [(k, y0) for k, (x0, _) in piv.items() if (y0 := x0 * inv % p)]
            piv.clear()
            for k, y0 in ys:
                piv[k] = (y0, 0)
        elif p1:
            dp1 = d * p1
            for k, (x0, x1) in piv.items():
                piv[k] = (p0 * x0 - dp1 * x1, p0 * x1 - p1 * x0)
            p0 = piv[c][0]
        for r in hits + [r for r in pivots.values() if c in r]:
            if r is piv:
                continue
            f0, f1 = r[c]
            if p is not None:
                for k, y0 in ys:
                    x0 = (r.get(k, _ZERO)[0] - f0 * y0) % p
                    if x0:
                        r[k] = (x0, 0)
                    else:
                        del r[k]
            else:
                df1 = d * f1
                for k, (x0, x1) in r.items():
                    r[k] = (p0 * x0, p0 * x1)
                for k, (y0, y1) in piv.items():
                    x0, x1 = r.get(k, _ZERO)
                    x0 -= f0 * y0 + df1 * y1
                    x1 -= f0 * y1 + f1 * y0
                    if x0 or x1:
                        r[k] = (x0, x1)
                    else:
                        del r[k]
                # fold the gcd entry by entry: a gcd(*all) call per row
                # fragments the heap with its argument tuples
                g = 0
                for x0, x1 in r.values():
                    g = gcd(g, x0, x1)
                    if g == 1:
                        break
                if g > 1:
                    for k, (x0, x1) in r.items():
                        r[k] = (x0 // g, x1 // g)
            if not r:
                # only a row that is not a pivot row can vanish
                del active[id(r)]
        pivots[c] = piv
    return pivots


_ZERO = (0, 0)


def require_invertible(a: Matrix, zero, one) -> None:
    """Raise NotInvertible unless the square FieldElement matrix `a` is
    invertible, without computing the inverse.

    `a` is invertible iff its rank is its size, and `_rref` of its integer
    rows finds the rank exactly, so both verdicts are exact.
    """
    if len(_rref(_int_rows(a, zero.desc), len(a), zero.desc)) < len(a):
        raise NotInvertible("matrix is singular")


def mat_inv(a: Matrix, zero, one) -> Matrix:
    """Inverse of a square FieldElement matrix, from the kernel basis of
    [a | -I] (see `nullspace`): each basis vector (x, y) has a x = y, so y
    blocks that form the identity prove a X = I.  An invertible a always
    gives them, since its free columns are the last n."""
    n = len(a)
    aug = [row[:] + [-one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    basis = nullspace(aug, zero, one)
    if [v[n:] for v in basis] != identity(n, one, zero):
        raise NotInvertible("matrix is singular")
    return [[v[r] for v in basis] for r in range(n)]


def solve(a: Matrix, b: Vector, zero, one) -> Optional[Vector]:
    """One solution of a x = b, or None if inconsistent.  The kernel basis of
    [a | -b] (see `nullspace`) ends in (x, 1), x zero at the free columns of
    a, exactly when the last column is free, i.e. a x = b is consistent;
    every other basis vector is zero past its own free column."""
    cols = len(a[0])
    basis = nullspace([row[:] + [-x] for row, x in zip(a, b)], zero, one)
    if not basis or basis[-1][cols].is_zero():
        return None
    return basis[-1][:cols]
