"""Dense exact linear algebra over any ring whose elements support +, -, *, /.

Matrices are plain lists of lists.  Everything here works for FieldElement
entries and, where no division is used, for dual-number entries too.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

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
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        ai = a[i]
        for j in range(cols):
            acc = ai[0] * b[0][j]
            for k in range(1, inner):
                acc = acc + ai[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def vec_add(u: Vector, v: Vector) -> Vector:
    return [x + y for x, y in zip(u, v)]


def vec_sub(u: Vector, v: Vector) -> Vector:
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, v: Vector) -> Vector:
    return [c * x for x in v]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _rref(a: Matrix, zero) -> tuple[Matrix, List[int]]:
    """Row-reduce a copy of `a`; return (rref, pivot column list)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse() if hasattr(m[r][c], "inverse") else 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a: Matrix, zero, one) -> List[Vector]:
    """Basis of {v : a v = 0}."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = _rref(a, zero)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def mat_inv(a: Matrix, zero, one) -> Matrix:
    n = len(a)
    aug = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    red, pivots = _rref(aug, zero)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("matrix is singular")
    return [row[n:] for row in red[:n]]


def solve(a: Matrix, b: Vector, zero, one) -> Optional[Vector]:
    """One solution of a x = b, or None if inconsistent."""
    n_rows = len(a)
    cols = len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(n_rows)]
    red, pivots = _rref(aug, zero)
    if cols in pivots:
        return None
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x

