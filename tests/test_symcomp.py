import pytest

from trialkit import symcomp, triality
from trialkit.algebra import Algebra, AlgebraError
from trialkit.constructors import named_algebra
from trialkit.fields import FieldDescriptor, PRIME, QUADRATIC, RATIONALS

Q = FieldDescriptor(RATIONALS)


def para_quaternion():
    return named_algebra("para:4")


def okubo():
    return named_algebra("okubo")


def ijk_triple(pq):
    return symcomp.certify_sigma(pq, pq.basis(1), pq.basis(2), -pq.basis(3))


def okubo_triple(a):
    return symcomp.certify_sigma(a, a.basis(0), a.basis(1), a.basis(2))


def test_symmetric_composition_certificates():
    for name in ("ground", "para2", "para:4", "para:8", "okubo", "para:4:split"):
        cert = symcomp.is_symmetric_composition(named_algebra(name))
        assert cert.ok, (name, cert.witness)


def test_hurwitz_is_not_symmetric_composition():
    cert = symcomp.is_symmetric_composition(named_algebra("hurwitz:4"))
    assert not cert.ok


def test_perturbed_structure_fails_with_witness():
    a = named_algebra("para:4")
    structure = [[[v for v in row] for row in plane] for plane in a.structure]
    structure[1][2][3] = structure[1][2][3] + Q.one()
    bad = Algebra(a.field, structure, form=a.form, involution=a.involution,
                  unit=None, name="perturbed")
    cert = symcomp.is_symmetric_composition(bad)
    assert not cert.ok
    assert cert.witness is not None


def test_sigma_triple_certification_and_errors():
    pq = para_quaternion()
    t = ijk_triple(pq)
    assert t.comp(1) * t.comp(2) == t.comp(3)
    with pytest.raises(triality.RelationFails, match="component 1 does not have norm one"):
        symcomp.certify_sigma(pq, 2 * pq.basis(1), pq.basis(2), -pq.basis(3))
    with pytest.raises(triality.RelationFails, match="a1 a2 != a3"):
        symcomp.certify_sigma(pq, pq.basis(1), pq.basis(2), pq.basis(3))
    pair = symcomp.sigma_from_pair(pq, pq.basis(1), pq.basis(2))
    assert pair.comp(3) == -pq.basis(3)


def test_sigma_theta_triples_on_three_instances():
    pq = para_quaternion()
    e = pq.element(pq.para_unit)
    for alg, triple in ((pq, symcomp.certify_sigma(pq, e, e, e)),
                        (pq, ijk_triple(pq)),
                        (okubo(), okubo_triple(okubo()))):
        sigma, theta = symcomp.sigma_theta_triples(triple)
        for j in range(1, 4):
            assert (sigma.comp(j) @ theta.comp(j)).is_identity()


def test_conjugation_law_moves_triples():
    pq = para_quaternion()
    t = ijk_triple(pq)
    sigma, theta = symcomp.sigma_theta_triples(t)
    for g in (sigma, theta, triality.klein_triples(pq)[1]):
        moved = symcomp.conjugation_law(g, t)
        assert isinstance(moved, symcomp.SigmaTriple)


def test_normal_subgroup_generators():
    pq = para_quaternion()
    e = pq.element(pq.para_unit)
    a = symcomp.certify_sigma(pq, e, e, e)
    b = ijk_triple(pq)
    c = symcomp.sigma_from_pair(pq, pq.basis(2), pq.basis(3))
    gens = symcomp.normal_subgroup_generators(a, b, c)
    assert len(gens) == 4


def test_lambda_vectors_and_space():
    ok = okubo()
    t = okubo_triple(ok)
    lv = symcomp.lambda_vector(t, ok.basis(7), ok.basis(7))
    assert lv.p_comp(3) == ok.basis(0) + ok.basis(1)
    assert len(symcomp.lambda_space(t)) == 14
    pq = para_quaternion()
    assert len(symcomp.lambda_space(ijk_triple(pq))) == 6


@pytest.mark.parametrize("name", ["hurwitz:4", "hurwitz:8"])
@pytest.mark.parametrize("k, message, witness", [
    (0, "p recursion fails", ("p", 2)),
    (2, "p recovery from q fails", ("pq", 1)),
])
def test_transport_failures_on_a_hurwitz_algebra(name, k, message, witness):
    """A Hurwitz algebra fails the linearized law, so lambda_vector scans
    its relations: on (e1, e2, e3) with p2 = 0 and p1 the k-th basis vector
    of e1's orthogonal space, the scan stops at these."""
    h = named_algebra(name)
    t = symcomp.certify_sigma(h, h.basis(1), h.basis(2), h.basis(3))
    p1 = h.orthogonal_space([h.basis(1)])[k]
    with pytest.raises(symcomp.RelationFails, match=f"^{message}$") as info:
        symcomp.lambda_vector(t, p1, 0 * p1)
    assert info.value.witness == witness


def test_local_D_certifies_and_cycles():
    ok = okubo()
    t = okubo_triple(ok)
    lv = symcomp.lambda_vector(t, ok.basis(7), ok.basis(7))
    d = symcomp.local_D(t, lv)
    shifted = symcomp.cycle_shift(lv)
    d2 = symcomp.local_D(shifted.base, shifted)
    for j in range(1, 4):
        assert d2.comp(j) == d.comp(j + 1)


def test_first_order_factorization_dual_numbers():
    pq = para_quaternion()
    t = ijk_triple(pq)
    for lv in symcomp.lambda_space(t):
        symcomp.first_order_factorization(lv)


def test_express_D_as_d_independent_of_parameters():
    pq = para_quaternion()
    t = ijk_triple(pq)
    basis_vecs = symcomp.lambda_space(t)
    # combine basis vectors to kill the third transport component
    from trialkit import linalg
    rows = [[lv.p_comp(3).coords[k] for lv in basis_vecs] for k in range(pq.dim)]
    combos = linalg.nullspace(rows, Q.zero(), Q.one())
    vecs = []
    for combo in combos:
        p1 = pq.element([Q.zero()] * pq.dim)
        p2 = pq.element([Q.zero()] * pq.dim)
        for c, lv in zip(combo, basis_vecs):
            p1 = p1 + c * lv.p_comp(1)
            p2 = p2 + c * lv.p_comp(2)
        vecs.append(symcomp.lambda_vector(t, p1, p2))
    assert vecs and all(lv.p_comp(3).is_zero() for lv in vecs)
    for lv in vecs:
        for alpha, beta in ((0, 1), (2, 1), (-1, 3)):
            symcomp.express_D_as_d(lv, Q.from_int(alpha), Q.from_int(beta))
    nonzero = [lv for lv in symcomp.lambda_space(t) if not lv.p_comp(3).is_zero()]
    with pytest.raises(AlgebraError, match="the third transport component must vanish"):
        symcomp.express_D_as_d(nonzero[0], Q.zero(), Q.one())
    with pytest.raises(AlgebraError, match="beta must be invertible"):
        symcomp.express_D_as_d(vecs[0], Q.zero(), Q.zero())


def test_cubic_identity_structure():
    pq = para_quaternion()
    rep = symcomp.cubic_identity(pq, pq.basis(0), pq.basis(1))
    assert rep.delta == Q.from_int(-4)
    assert rep.square == (True, True)
    assert rep.cubic[0] and rep.cubic[1]
    # the third component obeys the 4*delta-scaled cubic instead
    assert not rep.cubic[2]
    assert rep.scaled_third_cubic


def test_enumerate_trig_small_orders():
    F3 = FieldDescriptor(PRIME, p=3)
    F5 = FieldDescriptor(PRIME, p=5)
    g1 = symcomp.enumerate_trig_small(named_algebra("ground", F5))
    assert g1.order == 4
    g3 = symcomp.enumerate_trig_small(named_algebra("para2", F3))
    g5 = symcomp.enumerate_trig_small(named_algebra("para2", F5))
    assert g3.order == 32 and g5.order == 32
    # same abstract multiplication table over the two fields
    assert g3.table_hash == g5.table_hash
    with pytest.raises(AlgebraError, match="enumeration requires a prime field"):
        symcomp.enumerate_trig_small(named_algebra("para2"))
    with pytest.raises(ValueError):
        symcomp.enumerate_trig_small(named_algebra("para2",
                                                   FieldDescriptor(PRIME, p=37)))


def test_auto_dim2_orders():
    assert symcomp.auto_dim2(Q).order == 2
    assert symcomp.auto_dim2(FieldDescriptor(QUADRATIC, d=3)).order == 6
    assert symcomp.auto_dim2(FieldDescriptor(PRIME, p=13)).order == 6
    assert symcomp.auto_dim2(FieldDescriptor(PRIME, p=5)).order == 2


def test_dim2_local_needs_zero_sum():
    a = named_algebra("para2")
    symcomp.dim2_local(a, [Q.from_int(1), Q.from_int(1), Q.from_int(-2)])
    with pytest.raises(triality.RelationFails):
        symcomp.dim2_local(a, [Q.one(), Q.one(), Q.one()])
