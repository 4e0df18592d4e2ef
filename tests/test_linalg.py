"""The integer nullspace against exact row reduction, and the integer
products against the FieldElement loops they replaced.

`linalg.nullspace` row-reduces integer rows, mod p or without division; the
reference below is Gauss-Jordan elimination over the field on
FieldElements, kept unchanged apart from skipping the zero entries of the
pivot row (x - f*0 is x exactly), which makes it fast enough for the
512 x 64 derivation systems.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trialkit import autos, linalg
from trialkit.algebra import Algebra, AlgebraError, LinearMap
from trialkit.constructors import named_algebra
from trialkit.fields import (FieldDescriptor, FieldElement, PRIME, QUADRATIC,
                             RATIONALS, SqrtUnavailable)

Q = FieldDescriptor(RATIONALS)
FIELDS = ([Q] + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5)]
          + [FieldDescriptor(PRIME, p=p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)])


def reference_rref(a, zero):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
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
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        support = [k for k, y in enumerate(m[r]) if y != zero]
        for i in range(rows):
            if i != r and m[i][c] != zero:
                f = m[i][c]
                for k in support:
                    m[i][k] = m[i][k] - f * m[r][k]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def reference_nullspace(a, zero, one):
    if not a:
        return []
    cols = len(a[0])
    red, pivots = reference_rref(a, zero)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reference_derivation_space(a):
    """The dense derivation system, built as before the sparse rows."""
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    rows = []
    for i in range(n):
        for j in range(n):
            prod = list(a.structure[i][j])
            for m in range(n):
                row = [zero] * (n * n)
                for l in range(n):
                    row[m * n + l] = row[m * n + l] + prod[l]
                for l in range(n):
                    row[l * n + i] = row[l * n + i] - a.structure[l][j][m]
                    row[l * n + j] = row[l * n + j] - a.structure[i][l][m]
                rows.append(row)
    return [LinearMap(a, [v[k * n:(k + 1) * n] for k in range(n)])
            for v in reference_nullspace(rows, zero, one)]


def key(vectors):
    """Exact, representation-level view of a list of vectors."""
    return [[(x.desc, x._n0, x._n1, x._q) for x in v] for v in vectors]


def zero_algebra(field, n):
    """An n-dimensional algebra with every product zero, to hold maps."""
    return Algebra(field, [[[field.zero()] * n for _ in range(n)] for _ in range(n)])


def apply(a, x):
    """a x for a FieldElement matrix a, by mat_mul with x as a column."""
    return [row[0] for row in linalg.mat_mul(a, [[v] for v in x])]


def assert_same_as_reference(a, field):
    zero, one = field.zero(), field.one()
    expected = key(reference_nullspace(a, zero, one))
    assert key(linalg.nullspace(a, zero, one)) == expected


@st.composite
def scalars(draw, field, big=False):
    if draw(st.integers(0, 2)) == 0:
        return field.zero()
    if field.kind == PRIME:
        return field.from_int(draw(st.integers(0, field.p - 1)))
    top = 10 ** 12 if big else 6
    nums, dens = st.integers(-top, top), st.integers(1, top)
    a = Fraction(draw(nums), draw(dens))
    if field.kind == QUADRATIC:
        return FieldElement(field, a, Fraction(draw(nums), draw(dens)))
    return FieldElement(field, a)


@st.composite
def systems(draw):
    field = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(("random", "tall", "wide", "low-rank", "big")))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if shape == "tall":
        rows = cols + draw(st.integers(1, 4))
    elif shape == "wide":
        cols = rows + draw(st.integers(1, 4))
    big = shape == "big"

    def matrix(r, c):
        return [[draw(scalars(field, big)) for _ in range(c)] for _ in range(r)]

    if shape == "low-rank":
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        a = linalg.mat_mul(matrix(rows, inner), matrix(inner, cols))
    else:
        a = matrix(rows, cols)
    return field, a


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_nullspace_matches_exact_rref(system):
    field, a = system
    assert_same_as_reference(a, field)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(systems(), st.data())
def test_span_kernel_basis_recovers_the_rref_kernel_basis(system, data):
    """Any spanning set of a kernel re-reduces to its RREF basis: here that
    basis mixed by a unit triangular matrix, one more combination added and
    the order shuffled."""
    field, a = system
    want = linalg.nullspace(a, field.zero(), field.one())
    coef = st.integers(-3, 3)
    mixed = []
    for i, v in enumerate(want):
        for w in want[i + 1:]:
            c = data.draw(coef)
            v = [x + c * y for x, y in zip(v, w)]
        mixed.append(v)
    if want:
        cs = [data.draw(coef) for _ in want]
        mixed.append([sum((c * v[t] for c, v in zip(cs, want)), field.zero())
                      for t in range(len(a[0]))])
    rows = []
    for v in data.draw(st.permutations(mixed)):
        _, _, n0, n1 = linalg._lift(field, v)
        rows += linalg._dict_rows([n0], n1 and [n1])
    got = linalg._span_kernel_basis(rows, len(a[0]), field)
    assert key([linalg._wrap_vector(field, *v) for v in got]) == key(want)


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def raw_residue_systems(draw):
    """(p, rows, cols): sparse integer rows {column: n0}, the form
    `_eliminate` takes over F_p, standing for a random matrix of low rank mod p, each residue shifted by a random
    multiple of p, so that entries are negative, >= p, large, or nonzero
    multiples of p; a row whose coefficients are all 0 vanishes mod p."""
    p = draw(st.sampled_from(PRIMES))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(rows, cols)))
    gens = [[draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rank)]
    shifts = st.one_of(st.integers(-3, 3), st.sampled_from((10 ** 12, -10 ** 12)))
    out = []
    for _ in range(rows):
        coeffs = [draw(st.integers(0, p - 1)) for _ in range(rank)]
        row = {}
        for c in range(cols):
            x = sum(k * g[c] for k, g in zip(coeffs, gens)) % p + p * draw(shifts)
            if x:
                row[c] = x
        out.append(row)
    return p, out, cols


@settings(max_examples=300, deadline=None)
@given(raw_residue_systems())
def test_kernel_reads_raw_integer_rows_mod_p(system):
    """Over F_p, `_kernel` reads any integers as their residues: its kernel
    is that of the reduced FieldElement matrix, and the pivot rows of
    `_eliminate`, which it reads the kernel off, hold reduced residues,
    pivot 1."""
    p, rows, cols = system
    field = FieldDescriptor(PRIME, p=p)
    zero, one = field.zero(), field.one()
    a = [[field.from_int(row.get(c, 0)) for c in range(cols)] for row in rows]
    want = key(reference_nullspace(a, zero, one))
    got = linalg._kernel([dict(r) for r in rows], cols, field)
    assert key([linalg._wrap_vector(field, *v) for v in got]) == want
    pivots = linalg._eliminate([dict(r) for r in rows], cols, field)
    assert len(pivots) == cols - len(want)
    for pc, row in pivots.items():
        assert row[pc] == 1
        assert all(0 < x < p for x in row.values())


@st.composite
def square_matrices(draw, top=6):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, top))
    shape = draw(st.sampled_from(("random", "singular", "big")))

    def matrix(r, c):
        return [[draw(scalars(field, shape == "big")) for _ in range(c)] for _ in range(r)]

    if shape == "singular":
        inner = draw(st.integers(0, n - 1))
        if inner == 0:
            return field, [[field.zero()] * n for _ in range(n)]
        return field, linalg.mat_mul(matrix(n, inner), matrix(inner, n))
    return field, matrix(n, n)


@st.composite
def square_test_matrices(draw):
    """A zero, square-zero, involutive or random n x n matrix; the first
    three conjugated by a random shear I + t E_rc (r != c), whose inverse is
    I - t E_rc, so that they are dense."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(("zero", "square-zero", "involutive", "random")))
    zero, one = field.zero(), field.one()
    if shape == "random":
        return field, [[draw(scalars(field)) for _ in range(n)] for _ in range(n)]
    if shape == "zero":
        m = [[zero] * n for _ in range(n)]
    elif shape == "square-zero":
        # entries only in rows < h <= columns, so m m = 0
        h = draw(st.integers(0, n))
        m = [[draw(scalars(field)) if i < h <= j else zero for j in range(n)]
             for i in range(n)]
    else:
        m = [[draw(st.sampled_from((one, -one))) if i == j else zero for j in range(n)]
             for i in range(n)]
    r, c, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(scalars(field))
    if r != c:
        shear, unshear = linalg.identity(n, one, zero), linalg.identity(n, one, zero)
        shear[r][c], unshear[r][c] = t, -t
        m = linalg.mat_mul(linalg.mat_mul(shear, m), unshear)
    return field, m


@settings(max_examples=300, deadline=None)
@given(square_test_matrices(), st.data())
def test_sparse_square_test_matches_the_dense_product(case, data):
    """The square-zero test (m m = 0) and the involution check (m m = Id,
    as a map and at Algebra construction) read m m off the nonzero entries
    of m; the dense mat_mul decides both, and m m = c Id for a random scalar
    c, compared as maps."""
    field, m = case
    n = len(m)
    zero, one = field.zero(), field.one()
    a = zero_algebra(field, n)
    square, mm = linalg.mat_mul(m, m), LinearMap(a, m)
    assert mm.squares_to_zero() == (square == linalg.identity(n, zero, zero))
    want = square == linalg.identity(n, one, zero)
    assert mm.squares_to_identity() == want
    try:
        Algebra(field, a.structure, involution=m)
        assert want
    except AlgebraError as exc:
        assert not want and str(exc) == "involution matrix must square to the identity"
    c = data.draw(scalars(field))
    assert (mm @ mm == c * a.identity_map()) == (square == linalg.identity(n, c, zero))


def require_invertible_outcome(a, field):
    try:
        LinearMap(zero_algebra(field, len(a)), a).require_invertible()
    except linalg.NotInvertible as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices())
def test_require_invertible_agrees_with_mat_inv(system):
    field, a = system
    try:
        linalg.mat_inv(a, field.zero(), field.one())
        want = None
    except linalg.NotInvertible as exc:
        want = str(exc)
    assert require_invertible_outcome(a, field) == want


def reference_mat_inv(a, zero, one):
    """mat_inv as it was: exact Gauss-Jordan on [a | I]."""
    n = len(a)
    aug = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    red, pivots = reference_rref(aug, zero)
    if pivots[:n] != list(range(n)):
        raise linalg.NotInvertible("matrix is singular")
    return [row[n:] for row in red[:n]]


def reference_solve(a, b, zero, one):
    """solve as it was: exact Gauss-Jordan on [a | b]."""
    cols = len(a[0])
    red, pivots = reference_rref([a[i][:] + [b[i]] for i in range(len(a))], zero)
    if cols in pivots:
        return None
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def inverse_outcome(inv, a, field):
    try:
        return key(inv(a, field.zero(), field.one()))
    except linalg.NotInvertible as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices())
def test_mat_inv_matches_exact_rref(system):
    field, a = system
    assert inverse_outcome(linalg.mat_inv, a, field) == inverse_outcome(reference_mat_inv, a, field)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices(top=4))
def test_map_inverse_matches_exact_rref(system):
    """LinearMap.inverse, read off the integer kernel of the map's own
    numerators, on maps of dimension 1 to 4 over Q, Q(sqrt d) and F_p,
    singular ones included."""
    field, a = system
    m = LinearMap(zero_algebra(field, len(a)), a)
    got = inverse_outcome(lambda *_: m.inverse().rows, a, field)
    assert got == inverse_outcome(reference_mat_inv, a, field)


@st.composite
def linear_systems(draw):
    """(field, a, b): b drawn freely (often inconsistent when a has low rank)
    or as a x for a drawn x (consistent)."""
    field, a = draw(systems())
    cols = len(a[0])
    if draw(st.booleans()):
        x = [draw(scalars(field)) for _ in range(cols)]
        b = apply(a, x)
    else:
        b = [draw(scalars(field)) for _ in a]
    return field, a, b


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(linear_systems())
def test_solve_matches_exact_rref(system):
    field, a, b = system
    zero, one = field.zero(), field.one()
    want = reference_solve(a, b, zero, one)
    got = linalg.solve(a, b, zero, one)
    assert (got is None) == (want is None)
    if want is not None:
        assert key([got]) == key([want])
        assert apply(a, got) == b


def test_mat_inv_and_solve_on_fixed_cases():
    # the kernel basis of [a | -I] is (-1, 1, 0, 0), (1, 0, 1, 1)
    with pytest.raises(linalg.NotInvertible, match="matrix is singular"):
        linalg.mat_inv([q(1, 1), q(1, 1)], Q.zero(), Q.one())
    assert linalg.mat_inv([q(2, 1), q(1, 1)], Q.zero(), Q.one()) == [q(1, -1), q(-1, 2)]
    # consistent with a free column: x is 0 there
    assert linalg.solve([q(1, 2, 3), q(2, 4, 7)], q(1, 3), Q.zero(), Q.one()) == q(-2, 0, 1)
    assert linalg.solve([q(1, 2), q(2, 4)], q(1, 3), Q.zero(), Q.one()) is None
    F7 = FieldDescriptor(PRIME, p=7)
    assert linalg.solve([[F7.from_int(3)]], [F7.one()], F7.zero(), F7.one()) == [F7.from_int(5)]
    # a 2x3 matrix times a 2x2 one has no product, whatever the flat entries
    with pytest.raises(ValueError, match="height of b"):
        linalg.mat_mul([q(1, 2, 3), q(4, 5, 6)], [q(1, 0), q(0, 1)])


P = 4611686018427387847  # a prime just below 2**62


def test_require_invertible_on_fixed_cases():
    # invertible, with an entry 1 + P
    assert require_invertible_outcome([q(1, 1), q(1, 1 + P)], Q) is None
    # singular, with the kernel vector (-2^100 - 1, 1)
    big = 2 ** 100 + 1
    assert require_invertible_outcome([q(1, big), q(2, 2 * big)], Q) == "matrix is singular"


def q(*values):
    return [Q.element(Fraction(v)) for v in values]


S3 = FieldDescriptor(QUADRATIC, d=3)
SM3 = FieldDescriptor(QUADRATIC, d=-3)
SM118 = FieldDescriptor(QUADRATIC, d=-118)


@pytest.mark.parametrize("field,a", [
    (Q, [q(Fraction(1, P), Fraction(-2, P), 0), q(0, Fraction(1, P), Fraction(1, P))]),
    (Q, [q(1, 1), q(1, 1 + P)]),
    (Q, [q(1, 2 ** 100 + 1)]),
    (S3, [[S3.one(), S3.element(0, 1), S3.element(Fraction(1, 2), 1)]]),
    # 1309334561089365911 is a square root of -3 mod P
    (SM3, [[SM3.element(1309334561089365911, 1)]]),
    (SM3, [[SM3.element(1309334561089365911, -1)]]),
    (SM118, [[SM118.element(0, 1), SM118.one()]]),
], ids=["denominators-1/P", "rank-drop-mod-P", "kernel-2^100+1", "sqrt3-entries",
        "r+sqrt-3", "r-sqrt-3", "sqrt-118"])
def test_nullspace_on_fixed_cases(field, a):
    assert_same_as_reference(a, field)


NAMED = ("ground", "para2", "hurwitz:1", "hurwitz:2", "hurwitz:4", "hurwitz:8",
         "hurwitz:2:split", "hurwitz:4:split", "hurwitz:8:split", "para:1",
         "para:2", "para:4", "para:8", "para:2:split", "para:4:split",
         "para:8:split", "okubo", "okubo:-", "matrix:2", "zorn", "parazorn:1:1",
         "parazorn:2:1", "parazorn:3:1", "parazorn:3:2", "parazorn:1:3")


@pytest.mark.parametrize("field", ["Q", "Qsqrt2", "Qsqrt3", "F7", "F11", "F13"])
def test_derivation_space_matches_exact_reference(field):
    from trialkit.cli import parse_field
    desc = parse_field(field)
    checked = 0
    for name in NAMED:
        try:
            a = named_algebra(name, desc)
        except SqrtUnavailable:
            continue  # okubo needs sqrt(-3)
        got = autos.derivation_space(a)
        want = reference_derivation_space(a)
        assert [key(d.rows) for d in got] == [key(d.rows) for d in want], name
        checked += 1
    assert checked >= len(NAMED) - 2


@pytest.mark.parametrize("field", ["Q", "Qsqrt3", "F7"])
@pytest.mark.parametrize("n", [2, 3])
def test_zero_algebra_with_zero_form_has_every_map_as_derivation(field, n):
    """The zero form satisfies the linearized law vacuously, but a zero g_k
    leaves row k of a derivation free: no skew system applies."""
    from trialkit.cli import parse_field
    desc = parse_field(field)
    zero = desc.zero()
    a = Algebra(desc, [[[zero] * n for _ in range(n)] for _ in range(n)],
                form=[[zero] * n for _ in range(n)])
    got = autos.derivation_space(a)
    assert [key(d.rows) for d in got] == [key(d.rows) for d in reference_derivation_space(a)]
    assert len(got) == n * n


# ---------------------------------------------------------------------------
# mat_mul and m(x) on the integer kernel against the ring loops
# ---------------------------------------------------------------------------

def ref_mat_mul(a, b):
    """mat_mul as it was: one FieldElement product and sum per term."""
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


def ref_mat_vec(a, v):
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


KERNEL_FIELDS = ([Q] + [FieldDescriptor(QUADRATIC, d=d) for d in (-3, -1, 2, 3, 5)]
                 + [FieldDescriptor(PRIME, p=p) for p in (3, 7, 13)])


@st.composite
def products(draw):
    """(field, a, b): square 1 x 1, 2 x 2 or 8 x 8 factors, or a
    non-square pair; small or big entries with mixed denominators, and
    some rows of a and columns of b set to zero."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    shape = draw(st.sampled_from(((1, 1, 1), (2, 2, 2), (8, 8, 8), "other")))
    if shape == "other":
        shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    rows, inner, cols = shape
    big = draw(st.booleans())

    def matrix(r, c):
        return [[draw(scalars(field, big)) for _ in range(c)] for _ in range(r)]

    a, b = matrix(rows, inner), matrix(inner, cols)
    for i in draw(st.sets(st.integers(0, rows - 1))):
        a[i] = [field.zero()] * inner
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in b:
            row[j] = field.zero()
    return field, a, b


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(products())
def test_integer_products_match_the_ring_loop(case):
    """Entry for entry the same canonical FieldElements: same field, same
    stored integers."""
    field, a, b = case
    assert key(linalg.mat_mul(a, b)) == key(ref_mat_mul(a, b))
    v = [row[0] for row in b]
    assert key([apply(a, v)]) == key([ref_mat_vec(a, v)])
    if len(a) == len(v):
        alg = zero_algebra(field, len(a))
        assert key([LinearMap(alg, a)(alg.element(v)).coords]) == key([ref_mat_vec(a, v)])
