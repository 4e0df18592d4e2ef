"""Dense exact linear algebra on integers: the kernel under `algebra.Element`
and `algebra.LinearMap`, and the FieldElement matrix front-ends `mat_mul`,
`nullspace` and `mat_inv`.  Nothing in the package calls the front-ends;
they stay because the benchmark's per-layer view measures them
(`perfbench/micro.py` times `mat_mul`, and its tracer reports `mat_mul`,
`mat_inv` and `nullspace`).

Everything runs on the integers that a FieldElement already stores,
(n0 + n1 sqrt d)/q (see `fields`).  `_lift`, the one way in, reads a list of
scalars by `FieldDescriptor.coerce` and puts them over one common
denominator, the lcm of their q: (q, n0, n1), a matrix row by row.
Each sum of products is then a sum of integer pair products
(u0 + u1 sqrt d)(v0 + v1 sqrt d) = (u0 v0 + d u1 v1) + (u0 v1 + u1 v0) sqrt d
(`_add_multiple` on sparse vectors, `_int_matmul` on integer matrices given
by their sparse rows), and `_wrap` builds one FieldElement per result that
is read as one.  `_first_difference` compares two numerator vectors over one
denominator and returns the first index where they differ: the product law
of `triality` is two block products of `_int_matmul` read off by it.  Over
Q the n1 parts are zero and skipped (R1 is None); over F_p every q is 1, the
n0 are the residues, and a result is reduced mod p only when it is wrapped
or compared.  This is exact with no stated bound:
Python ints do not overflow, and two quotients over positive denominators
are equal exactly when their numerators, each multiplied by the other's
denominator, are equal (mod p over F_p), which is when their canonical
FieldElements are equal.

One elimination, `_eliminate`, row-reduces integer rows for all three kinds
of field: Gauss-Jordan without division on plain ints over Q and F_p and on
pairs (n0, n1) over Q(sqrt d), the pivot made 1 and every entry reduced mod
p over F_p.  `_kernel` reads the kernel basis off it as integer vectors over
one denominator, and `nullspace` and `constructors.find_unit` read theirs
off that basis; `_span_kernel_basis` gives that same basis for a kernel
known by a spanning set; `_inverse` (under `mat_inv` and
`LinearMap.inverse`) reads an inverse off the kernel of [R | -I], and
`_require_full_rank` the invertibility of R off its rank.  `_squares_to`
decides m m = t Id on the integer rows.
`_int_matmul` and `_inverse` return their matrices row by row in one list,
the block a LinearMap keeps.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from math import gcd, lcm
from operator import ne, sub
from typing import List, Optional

from .fields import FieldDescriptor, FieldElement, _make, _reduced

Matrix = List[list]
Vector = List


class NotInvertible(ValueError):
    pass


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b for FieldElement matrices, on their integer forms (`_lift`,
    `_int_matmul`); every zero entry is one shared zero element."""
    if not b or not b[0]:
        return [[] for _ in a]
    if any(len(row) != len(b) for row in a):
        raise ValueError("a has a row whose length is not the height of b")
    desc, width = b[0][0].desc, len(b[0])
    _, qa, a0, a1 = _lift(desc, [x for row in a for x in row])
    _, qb, b0, b1 = _lift(desc, [x for row in b for x in row])
    return _split(_wrap_vector(desc, qa * qb, *_int_matmul(
        desc.d, _sparse_lines(_split(a0, len(b)), _split(a1, len(b))),
        _sparse_lines(_split(b0, width), _split(b1, width)), width)), width)


# -- the integer kernel (see the module docstring) ----------------------------

def _lift(desc: FieldDescriptor, xs) -> tuple:
    """(xs, q, n0, n1): the scalars xs read by `desc.coerce`, and their block,
    xs[t] = (n0[t] + n1[t] sqrt d)/q over the lcm q of their denominators;
    n1 is None over Q and F_p, and over F_p q is 1, taken without an lcm, and
    n0 holds the residues.  The one way FieldElements enter the kernel.  For
    canonical FieldElements the block is canonical (see `algebra._Block`): a
    prime dividing q divides some entry's denominator to the full power, and
    that entry's numerators are prime to it."""
    xs = [desc.coerce(x) for x in xs]
    q = 1 if desc.p is not None else lcm(*[x._q for x in xs])
    n1 = None if desc.d is None else [x._n1 * (q // x._q) for x in xs]
    return xs, q, [x._n0 * (q // x._q) for x in xs], n1


def _split(v: Optional[list], width: int) -> Optional[list]:
    """A row-major list as its rows of `width` entries (None stays None)."""
    return v and [v[i:i + width] for i in range(0, len(v), width)]


def _sparse_lines(r0: list, r1: Optional[list]) -> List[list]:
    """`_sparse` of every row of the integer matrix r0 + r1 sqrt d (r1 None:
    zero)."""
    if r1 is None:
        return [[(c, x, 0) for c, x in enumerate(row) if x] for row in r0]
    return [_sparse(u0, u1) for u0, u1 in zip(r0, r1)]


def _wrap(desc: FieldDescriptor, s0: int, s1: int, q: int) -> FieldElement:
    """The FieldElement (s0 + s1 sqrt d)/q for integers s0, s1 and q > 0;
    over F_p (q = 1, s1 = 0) the residue of s0."""
    p = desc.p
    if p is not None:
        return _make(desc, s0 % p, 0, 1)
    return _reduced(desc, s0, s1, q)


def _wrap_vector(desc: FieldDescriptor, q: int, v0: list, v1: Optional[list]) -> list:
    """The FieldElements (v0[k] + v1[k] sqrt d)/q (v1 None: zero); each zero
    numerator gives one shared zero element."""
    zero = _make(desc, 0, 0, 1)
    return [_wrap(desc, x0, x1, q) if x0 or x1 else zero
            for x0, x1 in zip(v0, v1 or repeat(0))]


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


def _int_matmul(d: Optional[int], a: List[list], b: List[list], width: int) -> tuple:
    """(C0, C1) with C0 + C1 sqrt d = A B for integer matrices A and B given
    by their sparse rows (`_sparse_lines`), B with `width` columns: row i of
    C is the sum of the rows of B weighted by the entries of row i of A.
    C0 and C1 hold the entries row by row, the block of an
    `algebra.LinearMap`; over Q and F_p (d None) C1 is None."""
    c0, c1 = [], []
    for u in a:
        acc0, acc1 = [0] * width, d and [0] * width
        for j, x0, x1 in u:
            _add_multiple(d, acc0, acc1, x0, x1, b[j])
        c0 += acc0
        c1 += acc1 or ()
    return c0, c1 if d else None


def _squares_to(desc: FieldDescriptor, rows: List[list], t: int = 0) -> bool:
    """Whether m m = t Id for the integer matrix m given by its sparse rows
    (`_sparse_lines`), mod p over F_p; each row of m m summed over the
    nonzero entries of m only and tested as soon as it is complete.  With
    t = 0, whether m m = 0: for a map m/q too, whose square is m m / q^2;
    with t = q^2, whether (m/q)(m/q) = Id."""
    d, p = desc.d, desc.p
    for i, row in enumerate(rows):
        acc0, acc1 = [0] * len(rows), [0] * len(rows)
        for j, x0, x1 in row:
            _add_multiple(d, acc0, acc1, x0, x1, rows[j])
        acc0[i] -= t
        if p is not None:
            acc0 = [x % p for x in acc0]
        if any(acc0) or any(acc1):
            return False
    return True


def _first_difference(p: Optional[int], u0: list, u1, v0: list, v1) -> Optional[int]:
    """The first index t where the vectors u = u0 + u1 sqrt d and
    v = v0 + v1 sqrt d of numerators over one denominator differ, or None
    when they are equal; over F_p, where u0 - v0 is nonzero mod p.  u1 and
    v1 are both None (over Q and F_p) or both lists."""
    if p is None and u0 == v0 and u1 == v1:
        return None
    differs = (map(p.__rmod__, map(sub, u0, v0)) if p is not None
               else map(ne, zip(u0, u1 or repeat(0)), zip(v0, v1 or repeat(0))))
    return next(compress(count(), differs), None)


def _scaled(s: int, vectors: List[list]) -> List[list]:
    """Sparse vectors (see `_sparse_lines`) multiplied by the integer s."""
    if s == 1:
        return vectors
    return [[(r, s * x0, s * x1) for r, x0, x1 in v] for v in vectors]


def _sparse(v0, v1) -> list:
    """The nonzero (r, v0[r], v1[r]) of a dense vector of numerators."""
    return [(r, x0, x1) for r, (x0, x1) in enumerate(zip(v0, v1)) if x0 or x1]


def nullspace(a: Matrix, zero, one) -> List[Vector]:
    """Basis of {v : a v = 0} for a matrix of FieldElements.

    The basis is the one read off the reduced row echelon form (RREF): one
    vector per free (non-pivot) column f, with 1 at f, 0 at the other free
    columns and minus column f of the RREF at the pivot columns (see
    `_kernel`, here on the integer rows of `a` times the lcm of its
    denominators, which leaves the kernel unchanged).
    """
    if not a:
        return []
    desc, cols = zero.desc, len(a[0])
    _, _, r0, r1 = _lift(desc, [x for row in a for x in row])
    return [_wrap_vector(desc, *v)
            for v in _kernel(_dict_rows(_split(r0, cols), _split(r1, cols)), cols, desc)]


def _dict_rows(r0: list, r1: Optional[list]) -> List[dict]:
    """The rows of the integer matrix r0 + r1 sqrt d as the sparse rows
    `_eliminate` takes: {column: n0} of the nonzero entries, or {column:
    (n0, n1)} when r1 is given (over Q(sqrt d))."""
    if r1 is None:
        return [{c: x for c, x in enumerate(row) if x} for row in r0]
    return [{c: (x0, x1) for c, (x0, x1) in enumerate(zip(u0, u1)) if x0 or x1}
            for u0, u1 in zip(r0, r1)]


def _kernel(rows: List[dict], cols: int, desc: FieldDescriptor) -> List[tuple]:
    """The RREF kernel basis (see `nullspace`) of the sparse integer rows that
    `_eliminate` takes, each vector as integers over one denominator:
    (q, v0, v1) with v = (v0 + v1 sqrt d)/q, v1 None over Q and F_p.

    The RREF entry at (pivot row pc, f) is row[f]/row[pc], and row[pc] is a
    nonzero integer (1 over F_p), so over the lcm q of the pivots of the rows
    holding f, v[f] = q and v[pc] = -row[f] (q/row[pc]).  The rows are
    consumed."""
    pivots = _eliminate(rows, cols, desc)
    pair = desc.d is not None
    out = []
    for f in range(cols):
        if f in pivots:
            continue
        held = [(pc, row[pc][0] if pair else row[pc], row[f])
                for pc, row in pivots.items() if f in row]
        q = lcm(*[s for _, s, _ in held])
        v0, v1 = [0] * cols, [0] * cols
        v0[f] = q
        for pc, s, x in held:
            t = -(q // s)
            if pair:
                v0[pc], v1[pc] = t * x[0], t * x[1]
            else:
                v0[pc] = t * x
        out.append((q, v0, v1 if pair else None))
    return out


def _span_kernel_basis(vectors: List[dict], cols: int, desc: FieldDescriptor) -> List[tuple]:
    """The basis that `_kernel` reads off any system whose kernel is the span
    of `vectors` (sparse integer rows as `_eliminate` takes them), in its
    layout (q, v0, v1).

    That basis is unique: the vector of free column f is 1 at f, 0 at the
    other free columns, and nonzero elsewhere only at pivot columns before
    f.  So f is its last nonzero entry, and the basis is the RREF of the span
    with the column order reversed, each row over its pivot."""
    last = cols - 1
    pivots = _eliminate([{last - c: x for c, x in v.items()} for v in vectors], cols, desc)
    pair = desc.d is not None
    out = []
    for c, row in reversed(pivots.items()):
        s = row[c][0] if pair else row[c]
        sign = -1 if s < 0 else 1
        v0, v1 = [0] * cols, [0] * cols
        for k, x in row.items():
            x0, x1 = x if pair else (x, 0)
            v0[last - k], v1[last - k] = sign * x0, sign * x1
        out.append((sign * s, v0, v1 if pair else None))
    return out


def _eliminate(rows: List[dict], cols: int, desc: FieldDescriptor) -> dict:
    """Gauss-Jordan elimination without division on sparse integer rows:
    {column: n} over Q and F_p, where over F_p an entry stands for its
    residue n mod p, and {column: (n0, n1)} for n0 + n1 sqrt d in Z[sqrt d]
    over Q(sqrt d).

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
    integer at its pivot (1 over F_p, and every entry a nonzero residue;
    (integer, 0) over Q(sqrt d)) and 0 at every other pivot column, so the
    RREF entry (row, f) is row[f]/row[pc].  The rows passed in are consumed.
    """
    d, p = desc.d, desc.p
    # the rows that are neither pivot rows nor zero, by id: a row leaves as
    # it becomes one or the other, so they are never filtered in a pass
    active = {id(r): r for r in rows if r}
    pivots: dict = {}
    for c in range(cols):
        if p is None:
            hits = [r for r in active.values() if c in r]
        else:
            hits = [r for r in active.values() if c in r and r[c] % p]
        if not hits:
            continue
        piv = hits[0] if len(hits) == 1 else min(hits, key=len)
        del active[id(piv)]
        if p is not None:
            inv = pow(piv[c], -1, p)
            ys = [(k, y) for k, x in piv.items() if (y := x * inv % p)]
            piv.clear()
            piv.update(ys)
        elif d is None:
            p0 = piv[c]
        else:
            p0, p1 = piv[c]
            if p1:
                dp1 = d * p1
                for k, (x0, x1) in piv.items():
                    piv[k] = (p0 * x0 - dp1 * x1, p0 * x1 - p1 * x0)
                p0 = piv[c][0]
        for r in hits + [r for r in pivots.values() if c in r]:
            if r is piv:
                continue
            f = r[c]
            if p is not None:
                for k, y in ys:
                    x = (r.get(k, 0) - f * y) % p
                    if x:
                        r[k] = x
                    else:
                        del r[k]
            elif d is None:
                if p0 != 1:
                    for k, x in r.items():
                        r[k] = p0 * x
                for k, y in piv.items():
                    x = r.get(k, 0) - f * y
                    if x:
                        r[k] = x
                    else:
                        del r[k]
                # fold the gcd entry by entry: a gcd(*all) call per row
                # fragments the heap with its argument tuples
                g = 0
                for x in r.values():
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    for k, x in r.items():
                        r[k] = x // g
            else:
                f0, f1 = f
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


def _require_full_rank(desc: FieldDescriptor, r0: list, r1: Optional[list]) -> None:
    """Raise NotInvertible unless the square integer matrix r0 + r1 sqrt d
    (mod p over F_p) is invertible: iff its rank is its size, which
    `_eliminate` finds exactly, so both verdicts are exact.  A matrix over a
    denominator q has the rank of its numerators."""
    if len(_eliminate(_dict_rows(r0, r1), len(r0), desc)) < len(r0):
        raise NotInvertible("matrix is singular")


def _inverse(desc: FieldDescriptor, q: int, r0: list, r1: Optional[list]) -> tuple:
    """(s, C0, C1) with (C0 + C1 sqrt d)/s, row by row, the inverse of the
    square matrix (r0 + r1 sqrt d)/q given by its integer rows; raise
    NotInvertible if it is singular.

    It is read off the kernel basis of [R | -I] (see `nullspace`) for R =
    r0 + r1 sqrt d: basis vector j is (x, y) over its own denominator t, with
    R x = y, so y blocks that form the identity, y = t e_j for every j, prove
    R X = I, and column j of (R/q)^-1 = q R^-1 is then q x/t.  An invertible
    R always gives them, since its free columns are the last n, and a
    singular R never does, since R X = I has no solution."""
    n = len(r0)
    aug0 = [row + [-int(i == j) for j in range(n)] for i, row in enumerate(r0)]
    basis = _kernel(_dict_rows(aug0, r1 and [row + [0] * n for row in r1]), 2 * n, desc)
    if any(v0[n:] != [t * (k == j) for k in range(n)] or (v1 and any(v1[n:]))
           for j, (t, v0, v1) in enumerate(basis)):
        raise NotInvertible("matrix is singular")
    s = lcm(*[t for t, _, _ in basis])
    scaled = [(q * (s // t), v0, v1) for t, v0, v1 in basis]
    c1 = r1 and [f * v1[r] for r in range(n) for f, _, v1 in scaled]
    return s, [f * v0[r] for r in range(n) for f, v0, _ in scaled], c1


def mat_inv(a: Matrix, zero, one) -> Matrix:
    """Inverse of a square FieldElement matrix (see `_inverse`)."""
    desc, n = zero.desc, len(a)
    _, q, r0, r1 = _lift(desc, [x for row in a for x in row])
    return _split(_wrap_vector(desc, *_inverse(desc, q, _split(r0, n), _split(r1, n))), n)
