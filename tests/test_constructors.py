import functools
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import trialkit
from trialkit import constructors
from trialkit.algebra import Algebra, AlgebraError
from trialkit.constructors import (cross_space, find_unit, make_conjugate,
                                   make_ground, make_hurwitz, make_para,
                                   make_matrix_algebra, make_para_dim2,
                                   make_para_zorn, make_pseudo_octonion, make_zorn,
                                   named_algebra, quadratic_space, sqrt3_in)
from trialkit.fields import (FieldDescriptor, PRIME, QUADRATIC, RATIONALS,
                             format_scalar)

Q = FieldDescriptor(RATIONALS)
QS3 = FieldDescriptor(QUADRATIC, d=3)
F7 = FieldDescriptor(PRIME, p=7)
F11 = FieldDescriptor(PRIME, p=11)
F13 = FieldDescriptor(PRIME, p=13)
GAMMAS = (-1, 1, 2, -3)


# ---------------------------------------------------------------------------
# Reference implementations: the dense Cayley-Dickson recursion on coordinate
# vectors and the dense 3x3-matrix trace formulas for the pseudo-octonions.
# ---------------------------------------------------------------------------

def _ref_cd_conj(x, level):
    if level == 0:
        return x
    half = len(x) // 2
    return _ref_cd_conj(x[:half], level - 1) + [-c for c in x[half:]]


def _ref_cd_mul(x, y, gammas, level):
    """(a,b)(c,d) = (ac + g conj(d) b, da + b conj(c)) on dense vectors."""
    if level == 0:
        return [x[0] * y[0]]
    half = len(x) // 2
    g = gammas[level - 1]
    a, b = x[:half], x[half:]
    c, d = y[:half], y[half:]
    ac = _ref_cd_mul(a, c, gammas, level - 1)
    db = _ref_cd_mul(_ref_cd_conj(d, level - 1), b, gammas, level - 1)
    da = _ref_cd_mul(d, a, gammas, level - 1)
    bc = _ref_cd_mul(b, _ref_cd_conj(c, level - 1), gammas, level - 1)
    return ([u + g * v for u, v in zip(ac, db)]
            + [u + v for u, v in zip(da, bc)])


def _ref_hurwitz_structure(gammas, zero, one):
    """Dense products of basis vectors; the recursion only adds, negates and
    multiplies, so it runs over any ring, e.g. Z mapped into a field after."""
    level = len(gammas)
    n = 2 ** level
    basis = [[one if t == i else zero for t in range(n)] for i in range(n)]
    return [[_ref_cd_mul(basis[i], basis[j], gammas, level) for j in range(n)]
            for i in range(n)]


def _cmul(x, y):
    # (a, b, c, d) <-> (a + b sqrt3) + i (c + d sqrt3)
    return (x[0] * y[0] + 3 * x[1] * y[1] - x[2] * y[2] - 3 * x[3] * y[3],
            x[0] * y[1] + x[1] * y[0] - x[2] * y[3] - x[3] * y[2],
            x[0] * y[2] + 3 * x[1] * y[3] + x[2] * y[0] + 3 * x[3] * y[1],
            x[0] * y[3] + x[1] * y[2] + x[2] * y[1] + x[3] * y[0])


def _cadd(x, y):
    return tuple(u + v for u, v in zip(x, y))


def _csub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def _cmat_mul(x, y):
    return [[functools.reduce(_cadd, (_cmul(x[r][t], y[t][c]) for t in range(3)))
             for c in range(3)] for r in range(3)]


def _ctrace_of_product(x, y):
    """Tr(x y) = sum over r, c of x[r][c] y[c][r], over all nine entries."""
    return functools.reduce(_cadd, (_cmul(x[r][c], y[c][r])
                                    for r in range(3) for c in range(3)))


def _ref_generator_matrices():
    """The Gell-Mann matrices l_1..l_8 over Q(sqrt3, i), l_8 with its
    1/sqrt3 = sqrt3/3 entries."""
    def num(a=0, b=0, c=0, d=0):
        return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))
    z, one, i, minus_i = num(), num(1), num(0, 0, 1), num(0, 0, -1)
    r3 = num(0, Fraction(1, 3))
    return [
        [[z, one, z], [one, z, z], [z, z, z]],
        [[z, minus_i, z], [i, z, z], [z, z, z]],
        [[one, z, z], [z, num(-1), z], [z, z, z]],
        [[z, z, one], [z, z, z], [one, z, z]],
        [[z, z, minus_i], [z, z, z], [i, z, z]],
        [[z, z, z], [z, z, one], [z, one, z]],
        [[z, z, z], [z, z, minus_i], [z, i, z]],
        [[r3, z, z], [z, r3, z], [z, z, num(0, Fraction(-2, 3))]],
    ]


@functools.lru_cache(maxsize=None)
def _ref_pseudo_octonion_tensors():
    """d = Tr({l_j,l_k} l_l)/4 and f = Tr([l_j,l_k] l_l)/4i from full 3x3
    products, entries (rational part, sqrt3 coefficient)."""
    lam = _ref_generator_matrices()
    prods = [[_cmat_mul(a, b) for b in lam] for a in lam]
    d = [[[None] * 8 for _ in range(8)] for _ in range(8)]
    f = [[[None] * 8 for _ in range(8)] for _ in range(8)]
    for j in range(8):
        for k in range(8):
            pjk, pkj = prods[j][k], prods[k][j]
            anti = [[_cadd(pjk[r][c], pkj[r][c]) for c in range(3)] for r in range(3)]
            comm = [[_csub(pjk[r][c], pkj[r][c]) for c in range(3)] for r in range(3)]
            for l in range(8):
                td = _ctrace_of_product(anti, lam[l])
                tf = _ctrace_of_product(comm, lam[l])
                assert td[2] == 0 and td[3] == 0
                assert tf[0] == 0 and tf[1] == 0
                d[j][k][l] = (td[0] / 4, td[1] / 4)
                f[j][k][l] = (tf[2] / 4, tf[3] / 4)
    return d, f


def _ref_pseudo_octonion_structure(field, sign):
    s = 1 if sign == "+" else -1
    r3 = sqrt3_in(field)
    d, f = _ref_pseudo_octonion_tensors()
    out = [[[None] * 8 for _ in range(8)] for _ in range(8)]
    for j, k, l in itertools.product(range(8), repeat=3):
        da, db = d[j][k][l]
        fa, fb = f[j][k][l]
        out[j][k][l] = (field.from_fraction(3 * db + s * fa)
                        + field.from_fraction(da + s * fb) * r3)
    return out


def _text(tensor):
    """Nested lists of scalars rendered through format_scalar."""
    if isinstance(tensor, list):
        return [_text(t) for t in tensor]
    return format_scalar(tensor)


def test_hurwitz_quaternion_table():
    h = make_hurwitz(Q, (-1, -1))
    e, i, j, k = h.basis_elements()
    table = {(1, 2): k, (2, 3): i, (3, 1): j}
    for (a, b), c in table.items():
        assert h.basis(a) * h.basis(b) == c
        assert h.basis(b) * h.basis(a) == -c
    for b in (i, j, k):
        assert b * b == -e


def test_hurwitz_octonion_is_alternative_not_associative():
    o = make_hurwitz(Q, (-1, -1, -1))
    basis = o.basis_elements()
    assoc = True
    for x in basis:
        for y in basis:
            # alternativity: x(xy) = (xx)y and (yx)x = y(xx)
            assert x * (x * y) == (x * x) * y
            assert (y * x) * x == y * (x * x)
    assert (basis[1] * basis[2]) * basis[4] != basis[1] * (basis[2] * basis[4])


def test_hurwitz_norm_is_multiplicative():
    for consts in ((-1,), (-1, -1), (1, -1), (-1, -1, -1), (1, 1, 1)):
        h = make_hurwitz(Q, consts)
        basis = h.basis_elements()
        for x in basis:
            for y in basis:
                u = x + y
                for v in basis:
                    assert h.form_eval(u * v, u * v) == \
                        h.form_eval(u, u) * h.form_eval(v, v)


def test_para_product_is_conjugated_product():
    h = make_hurwitz(Q, (-1, -1))
    p = make_para(h)
    for i in range(4):
        for j in range(4):
            x, y = h.basis(i), h.basis(j)
            expect = h.involute(x * y).coords
            assert (p.basis(i) * p.basis(j)).coords == expect
    e = p.element(p.para_unit)
    for b in p.basis_elements():
        assert e * b == p.element(h.involute(h.element(b.coords)).coords)


def test_conjugate_of_para_recovers_original():
    h = make_hurwitz(Q, (-1, -1))
    back = make_conjugate(make_para(h))
    assert back.structure == h.structure
    assert back.unit == h.unit


def _ref_conjugate_structure(h):
    """The structure tensor of x . y = conj(x * y), built entry by entry as
    make_para and make_conjugate each did before they shared a builder."""
    n = h.dim
    zero = h.field.zero()
    structure = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = h.involute(h.basis(i) * h.basis(j))
            for k in range(n):
                structure[i][j][k] = prod.coords[k]
    return structure


def _exact(values):
    return [(x.desc, x._n0, x._n1, x._q) for x in values]


@pytest.mark.parametrize("field", [Q, QS3, F7])
def test_para_and_conjugate_match_the_entrywise_reference(field):
    from trialkit.fields import SqrtUnavailable

    checked = 0
    for name in ("hurwitz:1", "hurwitz:2", "hurwitz:4", "hurwitz:8", "hurwitz:4:split",
                 "hurwitz:8:split", "matrix:2", "zorn", "para:4", "para:8", "okubo",
                 "parazorn:1:1", "parazorn:3:1"):
        try:
            h = named_algebra(name, field)
        except SqrtUnavailable:
            continue
        want = [_exact(row) for plane in _ref_conjugate_structure(h) for row in plane]
        for build, prefix in ((make_para, "para-"), (make_conjugate, "conj-")):
            out = build(h)
            assert [_exact(row) for plane in out.structure for row in plane] == want
            assert out.name == prefix + h.name
            assert out.form == h.form and out.involution == h.involution
        p = make_para(h)
        assert p.unit is None
        assert p.para_unit == (list(h.unit) if h.unit is not None else None)
        assert make_conjugate(h).unit == (None if (u := find_unit(p)) is None else u.coords)
        checked += 1
    assert checked >= 12
    bare = Algebra(field, [[[field.one()]]])
    with pytest.raises(AlgebraError, match="^para construction needs an involution$"):
        make_para(bare)
    with pytest.raises(AlgebraError, match="^conjugate construction needs an involution$"):
        make_conjugate(bare)


def test_zorn_is_unital_diag_swap_of_para_zorn():
    z = make_zorn(Q)
    e = z.unit_element()
    for b in z.basis_elements():
        assert e * b == b and b * e == b
    basis = z.basis_elements()
    for x in basis:
        for y in basis:
            assert z.form_eval(x * y, x * y) == \
                z.form_eval(x, x) * z.form_eval(y, y)
    # the unital product is the para product with the output diagonal swapped
    pz = make_para_zorn(cross_space(Q), 1)
    n = z.dim
    swap = list(range(n))
    swap[0], swap[n - 1] = n - 1, 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert z.structure[i][j][swap[k]] == pz.structure[i][j][k]


def test_conjugate_of_para_zorn_over_plain_space_is_unital():
    # with a zero-product coefficient space the attached involution is the
    # pure diagonal swap, and conjugating the para product gives a unital
    # algebra; with the cross product the compatible involution negates
    # vectors and the conjugate has no unit (only the swapped presentation
    # above is unital)
    pz = make_para_zorn(quadratic_space(Q, 2), 1)
    conj = make_conjugate(pz)
    assert conj.unit is not None
    e = conj.unit_element()
    for b in conj.basis_elements():
        assert e * b == b and b * e == b
    twisted = make_conjugate(make_para_zorn(cross_space(Q), 1))
    assert find_unit(twisted) is None


def test_cross_space_contraction_identity():
    b = cross_space(Q)
    basis = b.basis_elements()
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = x * (y * z)
                rhs = (b.form_eval(x, y) * z) - (b.form_eval(x, z) * y)
                assert lhs == rhs


def test_pseudo_octonion_against_gell_mann_oracle():
    lam = [
        sp.Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        sp.Matrix([[0, -sp.I, 0], [sp.I, 0, 0], [0, 0, 0]]),
        sp.Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        sp.Matrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        sp.Matrix([[0, 0, -sp.I], [0, 0, 0], [sp.I, 0, 0]]),
        sp.Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        sp.Matrix([[0, 0, 0], [0, 0, -sp.I], [0, sp.I, 0]]),
        sp.Matrix([[1, 0, 0], [0, 1, 0], [0, 0, -2]]) / sp.sqrt(3),
    ]
    a = make_pseudo_octonion(QS3, "+")
    r3 = sp.sqrt(3)
    for j in range(8):
        for k in range(8):
            prod = sp.zeros(3, 3)
            for l in range(8):
                d = sp.trace((lam[j] * lam[k] + lam[k] * lam[j]) * lam[l]) / 4
                f = sp.trace((lam[j] * lam[k] - lam[k] * lam[j]) * lam[l]) / (4 * sp.I)
                prod += sp.expand(r3 * d + f) * lam[l]
            got = sp.zeros(3, 3)
            for l in range(8):
                c = a.structure[j][k][l]
                expr = sp.Rational(c.a) + sp.Rational(c.b) * r3 if hasattr(c, "b") \
                    else sp.Rational(str(c))
                got += expr * lam[l]
            assert sp.simplify(prod - got) == sp.zeros(3, 3), (j, k)


def test_pseudo_octonion_form_is_identity_and_prime_field_variant():
    a = make_pseudo_octonion(QS3, "-")
    for i in range(8):
        for j in range(8):
            want = QS3.one() if i == j else QS3.zero()
            assert a.form[i][j] == want
    F13 = FieldDescriptor(PRIME, p=13)
    b = make_pseudo_octonion(F13)  # 4^2 = 3 mod 13
    assert b.dim == 8


def test_named_algebra_parsing():
    assert named_algebra("ground").dim == 1
    assert named_algebra("para2").dim == 2
    assert named_algebra("hurwitz:4").dim == 4
    assert named_algebra("para:8").dim == 8
    assert named_algebra("okubo").dim == 8
    assert named_algebra("matrix:2").dim == 4
    assert named_algebra("parazorn:3:1").dim == 8
    assert named_algebra("zorn").dim == 8
    with pytest.raises(ValueError):
        named_algebra("hurwitz:3")


def test_ground_and_para_dim2():
    g = make_ground(Q)
    assert g.dim == 1 and g.basis(0) * g.basis(0) == g.basis(0)
    p2 = make_para_dim2(Q)
    e, f = p2.basis_elements()
    assert e * e == e
    assert f * f == -e
    assert e * f == -f and f * e == -f


def test_quadratic_space_has_zero_product():
    b = quadratic_space(Q, 2)
    for x in b.basis_elements():
        for y in b.basis_elements():
            assert (x * y).is_zero()


def test_hurwitz_matches_dense_doubling_for_every_small_gamma():
    for level in range(4):
        for gammas in itertools.product(GAMMAS, repeat=level):
            ref = _ref_hurwitz_structure(gammas, 0, 1)
            for field in (Q, QS3, F7, F13):
                want = [[[field.from_int(c) for c in row] for row in plane]
                        for plane in ref]
                h = make_hurwitz(field, gammas)
                assert _text(h.structure) == _text(want), (field, gammas)


_FIELDS = st.sampled_from([Q, QS3, F7, F13,
                           FieldDescriptor(QUADRATIC, d=-1),
                           FieldDescriptor(QUADRATIC, d=5),
                           FieldDescriptor(PRIME, p=3),
                           FieldDescriptor(PRIME, p=31)])


@settings(max_examples=40, deadline=None)
@given(field=_FIELDS,
       gammas=st.lists(st.one_of(st.sampled_from(GAMMAS), st.integers(-40, 40)),
                       max_size=3))
def test_hurwitz_matches_dense_doubling_on_drawn_gammas(field, gammas):
    # the reference runs in the field itself here
    h = make_hurwitz(field, gammas)
    ref = _ref_hurwitz_structure([field.from_int(g) for g in gammas],
                                 field.zero(), field.one())
    assert _text(h.structure) == _text(ref)


def test_pseudo_octonion_tensors_match_dense_traces():
    ref_d, ref_f = _ref_pseudo_octonion_tensors()
    for s in (1, -1):
        table = constructors._pseudo_octonion_table(s)
        # cached, and immutable so no caller can change what the next one reads
        assert constructors._pseudo_octonion_table(s) is table
        assert isinstance(table, tuple) and all(isinstance(t, tuple) for t in table)
        assert len(table) == 112
        want = {}
        for j, k, l in itertools.product(range(8), repeat=3):
            (da, db), (fa, fb) = ref_d[j][k][l], ref_f[j][k][l]
            # sqrt3 (da + db sqrt3) + s (fa + fb sqrt3)
            if da or db or fa or fb:
                want[j, k, l] = (3 * db + s * fa, da + s * fb)
        assert {(j, k, l): (rat, irr) for j, k, l, rat, irr in table} == want
        assert all(isinstance(x, Fraction) for t in table for x in t[3:])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [Q, FieldDescriptor(QUADRATIC, d=-1), F7], ids=str)
def test_matrix_algebra_matches_nested_list_matrices(field, n):
    # e_{rc} has index n r + c; the product is the matrix product and the
    # declared form is tr(t(x) y), on nested lists of FieldElements
    a = make_matrix_algebra(field, n)
    zero, one = field.zero(), field.one()
    w = field.element(0, 1) if field.d is not None else field.from_int(3)

    def mat(x):
        return [x.coords[n * r:n * r + n] for r in range(n)]

    def mul(x, y):
        return [[sum((x[r][t] * y[t][c] for t in range(n)), zero) for c in range(n)]
                for r in range(n)]

    def transpose(x):
        return [list(col) for col in zip(*x)]

    samples = a.basis_elements() + [
        a.element([field.from_int(t * t - 2) + (w if t % 2 else zero) for t in range(n * n)]),
        a.element([w * (t - 1) + 5 for t in range(n * n)])]
    for x, y in itertools.product(samples, repeat=2):
        assert mat(x * y) == mul(mat(x), mat(y))
        tty = mul(transpose(mat(x)), mat(y))
        assert a.form_eval(x, y) == sum((tty[r][r] for r in range(n)), zero)
    for x in samples:
        assert mat(a.involute(x)) == transpose(mat(x))
    assert mat(a.unit_element()) == [[one if r == c else zero for c in range(n)]
                                     for r in range(n)]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("field", [QS3, F11, F13], ids=str)
def test_okubo_matches_dense_trace_reference(field, sign):
    a = make_pseudo_octonion(field, sign)
    assert _text(a.structure) == _text(_ref_pseudo_octonion_structure(field, sign))
    one, zero = field.one(), field.zero()
    flip = {1, 4, 6}
    assert _text(a.form) == _text([[one if i == j else zero for j in range(8)]
                                   for i in range(8)])
    assert _text(a.involution) == _text(
        [[(-one if i in flip else one) if i == j else zero for j in range(8)]
         for i in range(8)])


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([23, 37, 47, 59, 61, 71, 73, 83, 97]),
       sign=st.sampled_from(["+", "-"]))
def test_okubo_matches_dense_trace_reference_on_drawn_primes(p, sign):
    # sqrt(3) lies in F_p exactly when p = +-1 mod 12
    field = FieldDescriptor(PRIME, p=p)
    a = make_pseudo_octonion(field, sign)
    assert _text(a.structure) == _text(_ref_pseudo_octonion_structure(field, sign))


def test_startup_builds_no_pseudo_octonion_tensors():
    # A fresh process that never asks for the pseudo-octonions must not pay
    # for their tensors; the first okubo build fills the cache.
    code = (
        "import contextlib, io\n"
        "from trialkit import cli, constructors\n"
        "info = constructors._pseudo_octonion_table.cache_info\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['enumerate', 'trig', 'ground', 'F5']) == 0\n"
        "assert info().currsize == 0, info()\n"
        "constructors.named_algebra('okubo')\n"
        "assert info().currsize == 1, info()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(trialkit.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
