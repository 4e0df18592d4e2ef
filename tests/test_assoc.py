from fractions import Fraction

import pytest

from trialkit import assoc
from trialkit.constructors import make_conjugate, make_hurwitz, named_algebra
from trialkit.fields import FieldDescriptor, PRIME, RATIONALS
from trialkit.linalg import NotInvertible
from trialkit.triality import LocalTriple, RelationFails, TrialityTriple

Q = FieldDescriptor(RATIONALS)


def matrices():
    return named_algebra("matrix:2")


def quaternions():
    return make_hurwitz(Q, (-1, -1))


def rotation(m):
    # [[0, 1], [-1, 0]] in matrix-unit coordinates: skew and unitary
    return m.element([Q.zero(), Q.one(), -Q.one(), Q.zero()])


def test_check_associative():
    assoc.check_associative(matrices())
    assoc.check_associative(quaternions())
    with pytest.raises(RelationFails, match=r"associativity fails at \(\d, \d, \d\)"):
        assoc.check_associative(make_hurwitz(Q, (-1, -1, -1)))


def test_para_associativity_of_conjugate_products():
    assoc.para_associativity(make_conjugate(matrices()))
    assoc.para_associativity(named_algebra("para:4"))


def test_certify_unitary_and_skew():
    h = quaternions()
    e, i, j, k = h.basis_elements()
    u = assoc.certify_unitary(h, i, j, k)
    assert u.comp(1) == i and u.comp(2) == j and u.comp(3) == k
    assert u.comp(4) == i
    with pytest.raises(RelationFails, match="component 1 is not unitary"):
        assoc.certify_unitary(h, 2 * i, j, k)
    s = assoc.certify_skew(h, i, j, k)
    assert s.comp(3) == k
    with pytest.raises(RelationFails, match="component 1 is not skew"):
        assoc.certify_skew(h, e, j, k)


def test_sandwich_triples_are_triality_triples():
    m = matrices()
    a = rotation(m)
    t = assoc.assoc_sigma_triple(m, assoc.certify_unitary(m, a, a, a))
    assert isinstance(t, TrialityTriple)

    h = quaternions()
    e, i, j, k = h.basis_elements()
    t2 = assoc.assoc_sigma_triple(h, assoc.certify_unitary(h, i, j, k))
    assert isinstance(t2, TrialityTriple)

    c = make_hurwitz(Q, (-1,))
    z = Q.from_fraction(Fraction(3, 5)) * c.basis(0) \
        + Q.from_fraction(Fraction(4, 5)) * c.basis(1)
    t3 = assoc.assoc_sigma_triple(c, assoc.certify_unitary(c, z, z, c.involute(z)))
    assert isinstance(t3, TrialityTriple)


def test_skew_differences_are_local_triples():
    m = matrices()
    p = rotation(m)
    lt = assoc.assoc_local_triple(m, assoc.certify_skew(m, p, p, p))
    assert isinstance(lt, LocalTriple)

    h = quaternions()
    e, i, j, k = h.basis_elements()
    lt2 = assoc.assoc_local_triple(h, assoc.certify_skew(h, i, j, k))
    assert isinstance(lt2, LocalTriple)


def test_cayley_transform():
    m = matrices()
    p = rotation(m)
    a = assoc.cayley_transform(m, p)
    assert a == -p
    assoc.certify_unitary(m, a, a, a)
    with pytest.raises(RelationFails, match="the argument is not skew"):
        assoc.cayley_transform(m, m.unit_element())


def test_cayley_transform_needs_invertibility():
    F5 = FieldDescriptor(PRIME, p=5)
    m5 = named_algebra("matrix:2", F5)
    # (e + 2p) has determinant 1 + 4 = 0 over F5
    p = F5.from_int(2) * m5.element([F5.zero(), F5.one(), -F5.one(), F5.zero()])
    with pytest.raises(NotInvertible, match=r"^e \+ p is not invertible$"):
        assoc.cayley_transform(m5, p)
