import pytest

from trialkit.algebra import Element, LinearMap
from trialkit.constructors import make_hurwitz, make_para, named_algebra
from trialkit.fields import FieldDescriptor, RATIONALS
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


def test_product_vector_matches_element_product():
    h = quaternions()
    for i in range(4):
        for j in range(4):
            assert Element(h, h.product_vector(i, j)) == h.basis(i) * h.basis(j)
