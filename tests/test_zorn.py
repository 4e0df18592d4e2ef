import pytest

from trialkit import triality, zorn
from trialkit.algebra import AlgebraError, LinearMap
from trialkit.constructors import (cross_space, make_para_zorn, named_algebra,
                                   quadratic_space)
from trialkit.fields import FieldDescriptor, PRIME, RATIONALS
from trialkit.triality import RelationFails

Q = FieldDescriptor(RATIONALS)
F5 = FieldDescriptor(PRIME, p=5)
F7 = FieldDescriptor(PRIME, p=7)


def coefficient_spaces():
    return [quadratic_space(Q, 0), quadratic_space(Q, 1),
            quadratic_space(Q, 2), cross_space(Q)]


def scalar_map(b, s):
    n = b.dim
    return LinearMap(b, [[s if i == j else b.field.zero() for j in range(n)]
                         for i in range(n)])


def test_element_split_round_trip():
    a = named_algebra("parazorn:3:1")
    assert zorn.coeff_dim(a) == 3
    v = a.element([Q.from_int(t) for t in range(8)])
    z = zorn.split_element(a, v)
    assert z.alpha == Q.zero() and z.beta == Q.from_int(7)
    assert z.to_element(a) == v
    with pytest.raises(Exception):
        zorn.coeff_dim(named_algebra("ground"))


def test_scaling_triple_certifies_over_all_coefficient_spaces():
    for b in coefficient_spaces():
        a = make_para_zorn(b, 1)
        t, cert = zorn.zorn_rho(a, Q.from_int(2))
        assert cert.ok
        fac = zorn.zorn_operator_factorization(a, Q.from_int(2))
        assert fac.ok


def test_scaling_triple_coordinates_and_group_laws():
    a = named_algebra("parazorn:3:1")
    t2, _ = zorn.zorn_rho(a, Q.from_int(2))
    v = a.element([Q.one()] * a.dim)
    half = Q.from_int(2).inverse()
    got = t2.comp(1)(v).coords
    assert got[:4] == [Q.from_int(2)] * 4 and got[4:] == [half] * 4
    # one-parameter group: rho(mu) rho(nu) = rho(mu nu), rho(1) = Id
    t3, _ = zorn.zorn_rho(a, Q.from_int(3))
    t6, _ = zorn.zorn_rho(a, Q.from_int(6))
    for j in (1, 2, 3):
        assert t2.comp(j) @ t3.comp(j) == t6.comp(j)
    t1, _ = zorn.zorn_rho(a, Q.one())
    assert all(t1.comp(j).is_identity() for j in (1, 2, 3))
    with pytest.raises(AlgebraError, match="the scale must be nonzero"):
        zorn.zorn_rho(a, Q.zero())


def test_slot_swap_conjugates_scalings_but_is_not_an_automorphism():
    for b in coefficient_spaces():
        a = make_para_zorn(b, 1)
        pi, cert = zorn.zorn_pi(a)
        failing = [r[0] for r in cert.records if not r[1]]
        # swapping only the vector slots permutes the scaling triples
        # correctly but breaks the product whenever B is nonzero
        if b.dim == 0:
            assert failing == []
        else:
            assert failing == ["swap-intertwines-product"]


def test_transpose_triple_and_grading_triple():
    for b in coefficient_spaces():
        a = make_para_zorn(b, 1)
        zorn.zorn_transpose_triple(a)
        st, cert = zorn.zorn_s_triple(a)
        assert cert.ok
    a = named_algebra("parazorn:3:1")
    st, _ = zorn.zorn_s_triple(a)
    v = a.element([Q.from_int(3)] + [Q.from_int(7)] * 6 + [Q.from_int(5)])
    out = st.comp(3)(v)
    assert out.coords[0] == Q.from_int(-6)
    assert out.coords[-1] == Q.from_int(10)
    assert all(c.is_zero() for c in out.coords[1:-1])


def test_double_lift():
    b7 = cross_space(F7)
    a7 = make_para_zorn(b7, 1)
    # 2 * 4 = 1 mod 7, so the pairing is preserved
    d = zorn.DoubleAutomorphism(scalar_map(b7, F7.from_int(2)),
                                scalar_map(b7, F7.from_int(4)))
    zorn.certify_double_automorphism(b7, d.xi, d.eta)
    p = zorn.zorn_double_lift(a7, b7, d)
    diag = [p.rows[i][i] for i in range(a7.dim)]
    assert diag[0] == F7.one() and diag[-1] == F7.one()
    assert diag[1:4] == [F7.from_int(2)] * 3 and diag[4:7] == [F7.from_int(4)] * 3

    bq = cross_space(Q)
    aq = make_para_zorn(bq, 1)
    triv = zorn.DoubleAutomorphism(scalar_map(bq, Q.one()), scalar_map(bq, Q.one()))
    assert zorn.zorn_double_lift(aq, bq, triv).is_identity()
    bad = zorn.DoubleAutomorphism(scalar_map(bq, Q.from_int(2)),
                                  scalar_map(bq, Q.one()))
    with pytest.raises(RelationFails, match=r"pairing fails at basis pair \(0, 0\)"):
        zorn.zorn_double_lift(aq, bq, bad)


def test_conjugate_consistency():
    for b in coefficient_spaces():
        a = make_para_zorn(b, 1)
        cert = zorn.conjugate_consistency(a, Q.from_int(2))
        assert cert.ok


def test_scaling_and_transpose_generate_a_group_of_order_8_over_f5():
    a5 = make_para_zorn(cross_space(F5), 1)
    gens = []
    for v in (1, 2, 3, 4):
        t, _ = zorn.zorn_rho(a5, F5.from_int(v))
        gens.append(t)
    gens.append(zorn.zorn_transpose_triple(a5))

    def key(t):
        return tuple(str(c) for m in t.maps for row in m.rows for c in row)

    elems = {key(g): g for g in gens}
    changed = True
    while changed:
        changed = False
        for g in list(elems.values()):
            for h in list(elems.values()):
                prod = triality.trig_mul(g, h)
                k = key(prod)
                if k not in elems:
                    elems[k] = prod
                    changed = True
    assert len(elems) == 8
