import pytest
from hypothesis import given, settings, strategies as st

from trialkit import linalg
from trialkit.algebra import Algebra, AlgebraError, LinearMap
from trialkit.constructors import make_hurwitz, make_para, named_algebra
from trialkit.fields import FieldDescriptor, PRIME, RATIONALS
from trialkit.linalg import NotInvertible
from trialkit.symcomp import is_symmetric_composition

Q = FieldDescriptor(RATIONALS)


def quaternions():
    return make_hurwitz(Q, (-1, -1))


def test_element_arithmetic():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    assert i * j == k
    assert j * i == -k
    assert i * i == -e
    assert (i + j) * (i - j) == i * i - i * j + j * i - j * j == -k - k
    assert 2 * i == i + i
    assert (i + j) / Q.from_int(2) + (i + j) / Q.from_int(2) == i + j


def test_form_and_involution():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    assert h.form_eval(i, i) == Q.one()
    assert h.form_eval(i, j).is_zero()
    assert h.involute(i) == -i
    assert h.involute(e) == e
    x = e + i + j
    assert x * h.involute(x) == h.form_eval(x, x) * e


def test_linear_map_operations():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    li = h.left_op(i)
    assert li(j) == i * j
    ri = h.right_op(i)
    assert ri(j) == j * i
    assert (li @ ri)(k) == i * (k * i)
    inv = li.inverse()
    assert (li @ inv).is_identity()
    assert (li - li)(j).is_zero()
    assert (Q.from_int(3) * li)(j) == 3 * (i * j)


def test_singular_map_raises():
    h = quaternions()
    zero_map = LinearMap(h, [[Q.zero()] * 4 for _ in range(4)])
    with pytest.raises(NotInvertible):
        zero_map.inverse()


def test_unit_element():
    h = quaternions()
    e = h.unit_element()
    for b in h.basis_elements():
        assert e * b == b and b * e == b


def test_symmetric_composition_quick():
    assert not is_symmetric_composition(quaternions()).ok
    assert is_symmetric_composition(make_para(quaternions())).ok
    assert is_symmetric_composition(named_algebra("okubo")).ok


def test_bad_involution_is_rejected():
    h = quaternions()
    one, zero = Q.one(), Q.zero()

    def diag(*d):
        return [[Q.from_int(d[i]) if i == j else zero for j in range(4)] for i in range(4)]

    rotation = diag(0, 0, 1, 1)
    rotation[0][1], rotation[1][0] = -one, one    # squares to -1 on span(e, i)
    unipotent = diag(1, 1, 1, 1)
    unipotent[0][3] = one                           # squares to I + 2 E_03
    for bad in (diag(2, -2, -2, -2), diag(1, 0, 1, 1), rotation, unipotent):
        with pytest.raises(AlgebraError, match="involution matrix must square to the identity"):
            Algebra(Q, h.structure, form=h.form, involution=bad, unit=h.unit)
    swap = diag(0, 0, 1, 1)
    swap[0][1] = swap[1][0] = one
    for good in (diag(1, -1, -1, -1), diag(1, 1, 1, 1), swap):
        Algebra(Q, h.structure, form=h.form, involution=good, unit=h.unit)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_sparse_involution_check_matches_dense_square(entries):
    F3 = FieldDescriptor(PRIME, p=3)
    m = [[F3.from_int(v) for v in row] for row in entries]
    n = len(m)
    dense = linalg.mat_eq(linalg.mat_mul(m, m), linalg.identity(n, F3.one(), F3.zero()))
    assert linalg.squares_to(m, F3.one(), F3.zero()) == dense
