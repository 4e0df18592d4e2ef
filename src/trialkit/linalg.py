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

`nullspace` row-reduces modulo primes and checks the lifted result exactly
(see its docstring).  `mat_inv` and `solve` read their results off a
`nullspace` basis.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
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
    lcm of the denominators of the FieldElements xs (1 over F_p)."""
    q = lcm(*[x._q for x in xs])
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


# Primes for the modular nullspace: the twelve largest primes below 2**62 that
# are not 1 mod 8, so that _sqrt_mod needs no search.  Each of d = -3, -1,
# +-2, 3, 5, 6, 7 is a square mod at least three of them.
NULLSPACE_PRIMES = (
    4611686018427387847, 4611686018427387787, 4611686018427387751,
    4611686018427387733, 4611686018427387709, 4611686018427387701,
    4611686018427387631, 4611686018427387587, 4611686018427387461,
    4611686018427387421, 4611686018427387323, 4611686018427387301,
)


def nullspace(a: Matrix, zero, one) -> List[Vector]:
    """Basis of {v : a v = 0} for a matrix of FieldElements.

    The basis is the one read off the reduced row echelon form (RREF): one
    vector per free (non-pivot) column f, with 1 at f, 0 at the other free
    columns and minus column f of the RREF at the pivot columns.

    Over F_p the residues are row-reduced as plain ints, which is exact.
    Over Q and Q(sqrt d) the matrix is first scaled by the lcm of its
    denominators, which leaves the kernel unchanged and means no prime has to
    be skipped for dividing a denominator.  The integer rows are mapped to
    F_P for P in NULLSPACE_PRIMES (over Q(sqrt d) only the P with d a nonzero
    square r^2 mod P, mapped twice, by sqrt d -> r and sqrt d -> -r, which
    gives both coordinates), row-reduced there, and the mod-P basis is lifted
    by rational reconstruction.  Every lifted vector v is then checked
    exactly: a v = 0 in integer arithmetic.  If the two embeddings disagree,
    or reconstruction or the check fails, the next prime is tried; after the
    last one the exact RREF over the field runs.

    Why an accepted lift is exactly the RREF basis over the field K:

    * Reduction mod P is a ring map, so it can only lower the rank: the
      nullity over K is at most the nullity mod P, the number of free
      columns mod P.
    * The lifted vectors lie in the kernel over K (checked exactly), and they
      are independent, because the vector for free column f is 1 at f and 0
      at the other free columns.  So the two nullities are equal.
    * The vector for f is zero past f, so column f of `a` is a combination of
      earlier columns: f is a non-pivot over K too.  With equal counts, the
      free columns over K are those mod P.
    * A kernel vector is fixed by its values on the free columns, so each
      lifted vector is the RREF basis vector of its column, entry for entry.
    """
    if not a:
        return []
    # entries over F_p are their residues, and need no lift
    int_rows = (_lift_rows(a)[1] if zero.desc.p is None else
                [[(c, x._n0, 0) for c, x in enumerate(row) if x._n0] for row in a])
    return int_nullspace(int_rows, len(a[0]), zero, one)


def int_nullspace(int_rows: List[list], cols: int, zero, one) -> List[Vector]:
    """`nullspace` of the system given as integer rows (see `_lift_rows`);
    a row times a nonzero integer has the same kernel.  FieldElement rows
    are built only for the exact fallback."""
    desc = zero.desc
    if desc.p is not None:
        rows = [{c: y for c, n0, _ in row if (y := n0 % desc.p)} for row in int_rows]
        pivots = _rref_mod(rows, cols, desc.p)
        out = []
        for f in range(cols):
            if f not in pivots:
                v = [zero] * cols
                v[f] = one
                for pc, row in pivots.items():
                    if f in row:
                        v[pc] = _make(desc, -row[f] % desc.p, 0, 1)
                out.append(v)
        return out
    for p, roots in _embeddings(desc.d):
        images = []
        for s in roots:
            rows = [{c: y for c, n0, n1 in row if (y := (n0 + n1 * s) % p)}
                    for row in int_rows]
            images.append(_rref_mod(rows, cols, p))
        if images[-1].keys() != images[0].keys():
            continue
        lifted = _reconstruct(images, roots, cols, p)
        if lifted is not None and _in_kernel(int_rows, lifted, desc.d):
            out = []
            for den, w in lifted:
                v = [zero] * cols
                for c, (n0, n1) in w.items():
                    v[c] = _reduced(desc, n0, n1, den)
                out.append(v)
            return out
    a = [[zero] * cols for _ in int_rows]
    for row, entries in zip(a, int_rows):
        for c, n0, n1 in entries:
            row[c] = _reduced(desc, n0, n1, 1)
    return _nullspace_exact(a, zero, one)


@lru_cache(maxsize=64)
def _embeddings(d: Optional[int]) -> tuple:
    """(P, images of sqrt d) for each usable P in NULLSPACE_PRIMES: (0,) over
    Q; the two square roots r, -r of d over Q(sqrt d), where d is a nonzero
    square mod P."""
    if d is None:
        return tuple((p, (0,)) for p in NULLSPACE_PRIMES)
    out = []
    for p in NULLSPACE_PRIMES:
        r = _sqrt_mod(d, p)
        if r:
            out.append((p, (r, p - r)))
    return tuple(out)


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """r with r^2 = a mod p, for p = 3 mod 4 or p = 5 mod 8 (Atkin), or None
    when a is not a square mod p."""
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        v = pow(2 * a, (p - 5) // 8, p)
        r = a * v * (2 * a * v * v - 1) % p
    return r if r * r % p == a else None


def _rref_mod(rows: List[dict], cols: int, p: int) -> dict:
    """Gauss-Jordan elimination mod p on sparse rows {column: residue}.

    Returns {pivot column: row}, in column order; each row is 1 at its pivot
    and 0 at every other pivot column.  The rows passed in are consumed.
    """
    active = [r for r in rows if r]
    pivots: dict = {}
    for c in range(cols):
        hits = [r for r in active if c in r]
        if not hits:
            continue
        piv = min(hits, key=len)
        inv = pow(piv[c], -1, p)
        if inv != 1:
            for k in piv:
                piv[k] = piv[k] * inv % p
        for r in hits + [r for r in pivots.values() if c in r]:
            if r is piv:
                continue
            f = r[c]
            for k, x in piv.items():
                y = (r.get(k, 0) - f * x) % p
                if y:
                    r[k] = y
                else:
                    del r[k]
        pivots[c] = piv
        active = [r for r in active if r and r is not piv]
    return pivots


def _rational(u: int, p: int, bound: int) -> Optional[Tuple[int, int]]:
    """(n, q) with n = u q mod p, |n| <= bound and 0 < q <= bound, in lowest
    terms (Wang's rational reconstruction), or None."""
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(images: List[dict], roots: tuple, cols: int, p: int) -> Optional[list]:
    """Rational reconstruction of the mod-p kernel basis.

    One (den, {column: (n0, n1)}) per free column, for the vector with
    entries (n0 + n1 sqrt d)/den (n1 = 0 over Q); None if an entry has no
    reconstruction.
    """
    bound = isqrt((p - 1) // 2)
    if len(roots) == 2:
        half = (p + 1) // 2
        half_root = pow(2 * roots[0], -1, p)
    # entry pc of the vector for free column f is minus entry f of pivot row pc
    vectors = {f: {f: (1, 1, 0, 1)} for f in range(cols) if f not in images[0]}
    for pc in images[0]:
        rows = [im[pc] for im in images]
        for f in set().union(*rows) - {pc}:
            u = [-row.get(f, 0) % p for row in rows]
            if len(u) == 2:
                a, b = (u[0] + u[1]) * half % p, (u[0] - u[1]) * half_root % p
            else:
                a, b = u[0], 0
            ra, rb = _rational(a, p, bound), _rational(b, p, bound)
            if ra is None or rb is None:
                return None
            vectors[f][pc] = ra + rb
    out = []
    for entries in vectors.values():
        den = lcm(*(e[1] for e in entries.values()), *(e[3] for e in entries.values()))
        out.append((den, {c: (an * (den // ad), bn * (den // bd))
                          for c, (an, ad, bn, bd) in entries.items()}))
    return out


def _in_kernel(int_rows: List[list], vectors: list, d: Optional[int]) -> bool:
    """Exact check that every row of the integer system (see `_lift_rows`)
    kills every vector: the columns of the system weighted by the vector's
    entries sum to zero."""
    by_col: dict = {}
    for i, row in enumerate(int_rows):
        for c, n0, n1 in row:
            by_col.setdefault(c, []).append((i, n0, n1))
    for _, w in vectors:
        s0 = [0] * len(int_rows)
        s1 = [0] * len(int_rows)
        for c, (w0, w1) in w.items():
            _add_multiple(d, s0, s1, w0, w1, by_col.get(c, ()))
        if any(s0) or any(s1):
            return False
    return True


def _nullspace_exact(a: Matrix, zero, one) -> List[Vector]:
    """The RREF basis of the kernel, by exact Gauss-Jordan elimination over
    the field."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for fc in range(cols):
        if fc not in pivots:
            v = [zero] * cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(v)
    return basis


def require_invertible(a: Matrix, zero, one) -> None:
    """Raise NotInvertible unless the square FieldElement matrix `a` is
    invertible, without computing the inverse.

    `a` is invertible iff its kernel is zero, and `nullspace` finds the kernel
    exactly.  The usual case costs one modular row reduction: reduction mod P
    is a ring map, so rank mod P <= rank over K, and full rank mod P already
    proves full rank over K, with no vector to lift.  A kernel that is nonzero
    mod P is lifted and checked exactly, so a singular verdict is exact too.
    """
    if nullspace(a, zero, one):
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
