"""The basis-pair law primitives of `trialkit.triality` against the loops
they replaced.

`product_law_failure` checks outer(e_i e_k) = (left e_i)(right e_k), or its
local form, and `form_law_failure` checks <A e_i|B e_k> = s <C e_i|D e_k>,
each over every basis pair.  The references below are the hand-written
loops the library used before, one per law.  On true members (sigma and
theta triples, derivation pairs, scaling triples, automorphisms,
derivations, double automorphisms) and on the same maps with one entry
perturbed, both sides must agree on pass or fail, exception, message and
first witness, law by law, over Q, Q(sqrt 3) and F_p.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialkit import assoc, autos, cli, symcomp, triality, zorn
from trialkit.algebra import Algebra, AlgebraError, Element, LinearMap
from trialkit.cli import parse_field
from trialkit.constructors import cross_space, make_para_zorn, named_algebra
from trialkit.fields import SqrtUnavailable
from trialkit.linalg import NotInvertible
from trialkit.triality import RelationFails

# ---------------------------------------------------------------------------
# References: the loops as written before the primitives
# ---------------------------------------------------------------------------


def _column(m, i):
    return Element(m.algebra, [row[i] for row in m.rows])


def _product_element(a, i, j):
    return Element(a, list(a.structure[i][j]))


def ref_symmetric_composition_quick(a):
    if a.form is None:
        return False
    basis = a.basis_elements()
    xs = list(basis) + [basis[i] + basis[j] for i in range(a.dim) for j in range(i + 1, a.dim)]
    for x in xs:
        nx = a.form_eval(x, x)
        for y in basis:
            if (x * y) * x != nx * y or x * (y * x) != nx * y:
                return False
    return True


def ref_verify_triality(a, g1, g2, g3):
    maps = (g1, g2, g3)
    for g in maps:
        g.inverse()
    n = a.dim
    for j in range(3):
        gj, gj1, gj2 = maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3]
        cols1 = [_column(gj1, i) for i in range(n)]
        cols2 = [_column(gj2, i) for i in range(n)]
        for i in range(n):
            for k in range(n):
                lhs = gj(_product_element(a, i, k))
                rhs = cols1[i] * cols2[k]
                if lhs != rhs:
                    raise RelationFails(
                        f"g{j + 1}(e{i} e{k}) != (g{j + 2 if j < 2 else 1}...)",
                        witness=(j + 1, i, k),
                    )


def ref_verify_local(a, t1, t2, t3):
    maps = (t1, t2, t3)
    n = a.dim
    for j in range(3):
        tj, tj1, tj2 = maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3]
        cols1 = [_column(tj1, i) for i in range(n)]
        cols2 = [_column(tj2, i) for i in range(n)]
        basis = a.basis_elements()
        for i in range(n):
            for k in range(n):
                lhs = tj(_product_element(a, i, k))
                rhs = cols1[i] * basis[k] + basis[i] * cols2[k]
                if lhs != rhs:
                    raise RelationFails(
                        f"local law fails at j={j + 1}, basis pair ({i},{k})",
                        witness=(j + 1, i, k),
                    )
    if a.form is not None and ref_symmetric_composition_quick(a):
        for j, t in enumerate(maps):
            ref = ref_skew(a, t)
            if ref is not None:
                raise RelationFails(f"component {j + 1} is not skew for the form",
                                    witness=(j + 1, *ref))


def ref_skew(a, t):
    n = a.dim
    for i in range(n):
        for k in range(i, n):
            x, y = a.basis(i), a.basis(k)
            if a.form_eval(t(x), y) != -a.form_eval(x, t(y)):
                return (i, k)
    return None


def ref_certify_automorphism(a, g):
    g.inverse()
    n = a.dim
    cols = [Element(a, [row[i] for row in g.rows]) for i in range(n)]
    for i in range(n):
        for k in range(n):
            if g(Element(a, list(a.structure[i][k]))) != cols[i] * cols[k]:
                raise RelationFails("map is not an automorphism", witness=(i, k))


def ref_certify_derivation(a, d):
    n = a.dim
    cols = [Element(a, [row[i] for row in d.rows]) for i in range(n)]
    basis = a.basis_elements()
    for i in range(n):
        for k in range(n):
            if d(Element(a, list(a.structure[i][k]))) != cols[i] * basis[k] + basis[i] * cols[k]:
                raise RelationFails("map is not a derivation", witness=(i, k))


def ref_is_automorphism(a, g):
    basis = a.basis_elements()
    n = a.dim
    for i in range(n):
        for j in range(n):
            if g(basis[i] * basis[j]) != g(basis[i]) * g(basis[j]):
                return (i, j)
    return None


def ref_square_zero_products(a, d):
    n = a.dim
    cols = [Element(a, [row[i] for row in d.rows]) for i in range(n)]
    for i in range(n):
        for k in range(n):
            if not (cols[i] * cols[k]).is_zero():
                return (i, k)
    return None


def ref_certify_double_automorphism(b, xi, eta):
    basis = b.basis_elements()
    n = b.dim
    for i in range(n):
        for j in range(n):
            p = basis[i] * basis[j]
            if xi(p) != eta(basis[i]) * eta(basis[j]):
                raise RelationFails("first double-automorphism law fails",
                                    witness=(i, j))
            if eta(p) != xi(basis[i]) * xi(basis[j]):
                raise RelationFails("second double-automorphism law fails",
                                    witness=(i, j))


def ref_zorn_double_lift(a, b, d):
    m = zorn.coeff_dim(a)

    def bform(u, w):
        acc = b.field.zero()
        for i in range(m):
            for j in range(m):
                if not b.form[i][j].is_zero():
                    acc = acc + u[i] * b.form[i][j] * w[j]
        return acc

    basis = b.basis_elements()
    for i in range(m):
        for j in range(m):
            xi_x = d.xi(basis[i]).coords
            eta_y = d.eta(basis[j]).coords
            if bform(xi_x, eta_y) != bform(basis[i].coords, basis[j].coords):
                raise RelationFails(f"pairing fails at basis pair ({i}, {j})")
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    rows = [[zero] * n for _ in range(n)]
    rows[0][0] = one
    rows[n - 1][n - 1] = one
    for r in range(m):
        for c in range(m):
            rows[1 + r][1 + c] = d.xi.rows[r][c]
            rows[1 + m + r][1 + m + c] = d.eta.rows[r][c]
    p = LinearMap(a, rows)
    w = ref_is_automorphism(a, p)
    if w is not None:
        raise RelationFails("lifted map is not an automorphism", witness=w)


def ref_isometry(a, g):
    """The isometry loop of order3_auto, hurwitz_sigma and enumerate_trig_small."""
    basis = a.basis_elements()
    for i in range(a.dim):
        for k in range(a.dim):
            if a.form_eval(g(basis[i]), g(basis[k])) != a.form_eval(basis[i], basis[k]):
                return (i, k)
    return None


def ref_order3_isometries(a, sigma, theta):
    basis = a.basis_elements()
    for i in range(a.dim):
        for k in range(a.dim):
            if a.form_eval(sigma(basis[i]), sigma(basis[k])) != a.form_eval(basis[i], basis[k]):
                return "sigma is not an isometry", (i, k)
            if a.form_eval(theta(basis[i]), theta(basis[k])) != a.form_eval(basis[i], basis[k]):
                return "theta is not an isometry", (i, k)
    return None


def ref_sigma_theta_forms(alg, sj, tj):
    """The adjointness and isometry loop of sigma_theta_triples, one j."""
    basis = alg.basis_elements()
    n = alg.dim
    for i in range(n):
        for k in range(n):
            x, y = basis[i], basis[k]
            if alg.form_eval(sj(x), y) != alg.form_eval(x, tj(y)):
                return "sigma/theta adjointness fails", (i, k)
            if alg.form_eval(sj(x), sj(y)) != alg.form_eval(x, y):
                return "sigma is not an isometry", (i, k)
            if alg.form_eval(tj(x), tj(y)) != alg.form_eval(x, y):
                return "theta is not an isometry", (i, k)
    return None


def ref_first_conjugate_failure(a, lam):
    """(clause, (j, i, k)) of the first failing triple on the conjugate
    algebra, the scaling triple before the transpose triple, or None."""
    from trialkit.constructors import make_conjugate

    conj = make_conjugate(a)
    jmap = a.involution_map()
    basis = conj.basis_elements()
    for name, maps in (("scaling", zorn._rho_maps(a, lam)),
                       ("transpose", (zorn._slot_swap(a, True),) * 3)):
        for j in range(3):
            bar = LinearMap(conj, (jmap @ maps[j] @ jmap).rows)
            g1 = LinearMap(conj, maps[(j + 1) % 3].rows)
            g2 = LinearMap(conj, maps[(j + 2) % 3].rows)
            for i in range(a.dim):
                for k in range(a.dim):
                    if bar(basis[i] * basis[k]) != g1(basis[i]) * g2(basis[k]):
                        return f"{name}-triple-transfers-to-conjugate-product", (j + 1, i, k)
    return None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

_ALGEBRAS = {}


def algebra(name, field):
    """Named algebras built once, so each keeps its symmetric-composition
    certificate across examples."""
    key = (name, field)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = named_algebra(name, parse_field(field))
    return _ALGEBRAS[key]


SYMCOMP = [("para:4", "Q"), ("para:4", "F7"), ("para:4", "Qsqrt3"),
           ("para:8", "F13"), ("okubo", "F13"), ("okubo", "Qsqrt3")]
VECTOR_MATRIX = [("parazorn:1:1", "Q"), ("parazorn:3:1", "F7"),
                 ("parazorn:2:1", "Qsqrt3"), ("parazorn:1:3", "F13")]


def outcome(fn, *args):
    """None on success, else (exception class name, message, witness)."""
    try:
        fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return None


def small_scalar(f, rng):
    """A nonzero scalar: a + b sqrt(3) over Q(sqrt 3), a small rational or a
    residue otherwise."""
    if f.p is not None:
        return f.from_int(rng.randrange(1, f.p))
    if f.d is not None:
        return f.element(rng.choice((-2, -1, 1, 2)), rng.choice((-1, 0, 1)))
    return f.from_fraction(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))


def dense_unit(a, rng):
    """A norm-one vector for an identity form: (+-1)^4 / 2 in dimension 4,
    (+-1 x 7, +-3) / 4 in dimension 8."""
    if a.dim == 4:
        nums, den = [1, 1, 1, 1], 2
    else:
        nums, den = [1] * 7 + [3], 4
        rng.shuffle(nums)
    return a.element([a.field.from_fraction(Fraction(rng.choice((-1, 1)) * c, den))
                      for c in nums])


def random_element(a, rng):
    return a.element([small_scalar(a.field, rng) if rng.random() < 0.7 else a.field.zero()
                      for _ in range(a.dim)])


def perturb(maps, rng):
    """The same maps with one entry of one of them shifted by a nonzero scalar."""
    maps = list(maps)
    t = rng.randrange(len(maps))
    m = maps[t]
    rows = [list(r) for r in m.rows]
    r, c = rng.randrange(m.algebra.dim), rng.randrange(m.algebra.dim)
    rows[r][c] = rows[r][c] + small_scalar(m.algebra.field, rng)
    maps[t] = LinearMap(m.algebra, rows)
    return maps


def maybe_perturb(maps, rng, flag):
    return perturb(maps, rng) if flag else list(maps)


def product_triple(a, rng):
    return symcomp.sigma_from_pair(a, dense_unit(a, rng), dense_unit(a, rng))


_DERIVATIONS = {}


def derivation(a, rng):
    """A random combination of the derivation-space basis."""
    if id(a) not in _DERIVATIONS:
        _DERIVATIONS[id(a)] = autos.derivation_space(a)
    acc = a.identity_map() - a.identity_map()
    for d in _DERIVATIONS[id(a)]:
        if rng.random() < 0.6:
            acc = acc + small_scalar(a.field, rng) * d
    return acc


seeds = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# Product laws
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP + VECTOR_MATRIX), kind=st.integers(0, 2),
       seed=seeds, bad=st.booleans())
def test_triality_law_matches_reference(case, kind, seed, bad):
    rng = random.Random(seed)
    a = algebra(*case)
    if case in VECTOR_MATRIX:
        t = zorn._slot_swap(a, swap_diag=True)
        maps = (zorn._rho_maps(a, small_scalar(a.field, rng)) if kind else (t, t, t))
    else:
        triple = product_triple(a, rng)
        maps = (symcomp.sigma_maps, symcomp.theta_maps, symcomp.sigma_maps)[kind](triple)
        if kind == 2:  # a product of two members
            maps = [s @ th for s, th in zip(maps, symcomp.theta_maps(product_triple(a, rng)))]
    maps = maybe_perturb(maps, rng, bad)
    want = outcome(ref_verify_triality, a, *maps)
    assert outcome(triality.verify_triality, a, *maps) == want
    if not bad:
        assert want is None
    if want is not None and want[0] == "NotInvertible":
        return
    # law by law: the first failing j and its pair, as the reference saw them
    for j in range(3):
        w = triality.product_law_failure(a, maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3])
        if w is not None:
            assert want is not None and want[2] == (j + 1, *w)
            break
    else:
        assert want is None


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP + VECTOR_MATRIX), seed=seeds, bad=st.booleans())
def test_local_law_matches_reference(case, seed, bad):
    rng = random.Random(seed)
    a = algebra(*case)
    if case in VECTOR_MATRIX:
        maps = zorn.zorn_s_triple(a)[0].maps if rng.random() < 0.5 else [derivation(a, rng)] * 3
    else:
        maps = triality.derivation_pair(a, random_element(a, rng), random_element(a, rng)).maps()
    maps = maybe_perturb(maps, rng, bad)
    want = outcome(ref_verify_local, a, *maps)
    assert outcome(triality.verify_local, a, *maps) == want
    if not bad:
        assert want is None


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(SYMCOMP + VECTOR_MATRIX), seed=seeds, bad=st.booleans())
def test_automorphism_and_derivation_laws_match_reference(case, seed, bad):
    rng = random.Random(seed)
    a = algebra(*case)
    if case in VECTOR_MATRIX:
        g = zorn._slot_swap(a, swap_diag=rng.random() < 0.5)
    elif case[0].startswith("para"):
        idems = autos.find_idempotents(a)
        x = idems[rng.randrange(len(idems))].elem
        g = a.right_op(x) @ a.right_op(x)
    else:
        g = a.identity_map()
    [g] = maybe_perturb([g], rng, bad)
    assert outcome(autos.certify_automorphism, a, g) == outcome(ref_certify_automorphism, a, g)
    assert triality.product_law_failure(a, g, g, g) == ref_is_automorphism(a, g)
    [d] = maybe_perturb([derivation(a, rng)], rng, bad)
    assert outcome(autos.certify_derivation, a, d) == outcome(ref_certify_derivation, a, d)
    if not bad:
        assert outcome(autos.certify_derivation, a, d) is None
    zero = LinearMap(a, [[a.field.zero()] * a.dim for _ in range(a.dim)])
    assert triality.product_law_failure(a, zero, d, d) == ref_square_zero_products(a, d)


@pytest.mark.parametrize("case", VECTOR_MATRIX[:3])
def test_slot_swap_records_match_reference(case):
    a = algebra(*case)
    _, cert = zorn.zorn_pi(a)
    records = dict((r[0], r[2]) for r in cert.records)
    assert records["swap-intertwines-product"] == ref_is_automorphism(a, zorn._slot_swap(a, False))
    assert records["transpose-intertwines-product"] is None


def _signed_rotation(b, rng):
    """A signed even permutation of the basis with sign product 1: an
    automorphism of the cross product."""
    f = b.field
    perm = rng.choice([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    signs = rng.choice([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    rows = [[f.zero()] * 3 for _ in range(3)]
    for c in range(3):
        rows[perm[c]][c] = f.from_int(signs[c])
    return LinearMap(b, rows)


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(["Q", "Qsqrt3", "F7", "F13"]), seed=seeds,
       bad=st.booleans())
def test_double_automorphism_laws_match_reference(field, seed, bad):
    rng = random.Random(seed)
    f = parse_field(field)
    b = cross_space(f)
    a = make_para_zorn(b, 1)
    # (w g, w^2 g) with w^3 = 1 and g a rotation
    roots = [v for v in range(1, f.p) if pow(v, 3, f.p) == 1] if f.p else [1]
    w = f.from_int(rng.choice(roots))
    g = _signed_rotation(b, rng)
    xi, eta = maybe_perturb([w * g, (w * w) * g], rng, bad)
    want = outcome(ref_certify_double_automorphism, b, xi, eta)
    assert outcome(zorn.certify_double_automorphism, b, xi, eta) == want
    if not bad:
        assert want is None
    d = zorn.DoubleAutomorphism(xi, eta)
    assert outcome(zorn.zorn_double_lift, a, b, d) == outcome(ref_zorn_double_lift, a, b, d)


# ---------------------------------------------------------------------------
# Form laws
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP + VECTOR_MATRIX), seed=seeds, bad=st.booleans())
def test_form_laws_match_reference(case, seed, bad):
    rng = random.Random(seed)
    a = algebra(*case)
    if case in VECTOR_MATRIX:
        maps = zorn.zorn_s_triple(a)[0].maps + zorn._rho_maps(a, small_scalar(a.field, rng))
        sj, tj = maybe_perturb([zorn._slot_swap(a, True)] * 2, rng, bad)
    else:
        triple = product_triple(a, rng)
        j = rng.randrange(3)
        sj, tj = maybe_perturb([symcomp.sigma_maps(triple)[j], symcomp.theta_maps(triple)[j]],
                               rng, bad)
        maps = triality.derivation_pair(a, random_element(a, rng),
                                        random_element(a, rng)).maps()
    maps = maybe_perturb(maps, rng, bad)
    form_law = triality.form_law_failure
    for t in maps:
        assert form_law(a, t, None, None, -t) == ref_skew(a, t)
        assert form_law(a, t, t) == ref_isometry(a, t)
    # the joined form checks of ref_sigma_theta_triples and ref_order3_auto
    want = ref_sigma_theta_forms(a, sj, tj)
    assert triality.earliest_failure([
        ("sigma/theta adjointness fails", form_law(a, sj, None, None, tj)),
        ("sigma is not an isometry", form_law(a, sj, sj)),
        ("theta is not an isometry", form_law(a, tj, tj))]) == want
    want = ref_order3_isometries(a, sj, tj)
    assert triality.earliest_failure([("sigma is not an isometry", form_law(a, sj, sj)),
                                      ("theta is not an isometry", form_law(a, tj, tj))]) == want
    if not bad and case not in VECTOR_MATRIX:
        assert want is None


def test_order3_and_sphere_isometries_certify():
    a = algebra("para:8", "F13")
    for idem in autos.find_idempotents(a)[:3]:
        sigma = autos.order3_auto(a, idem)
        assert triality.form_law_failure(a, sigma, sigma) is None
    h = named_algebra("hurwitz:4")
    half = h.field.from_int(2).inverse()
    x = half * (-h.unit_element() + h.basis(1) + h.basis(2) + h.basis(3))
    sigma = autos.hurwitz_sigma(h, x)
    assert ref_isometry(h, sigma) is None


def test_form_law_needs_a_form():
    h = named_algebra("hurwitz:2")
    b = Algebra(h.field, h.structure, involution=h.involution, unit=h.unit)
    with pytest.raises(AlgebraError, match="no bilinear form"):
        triality.form_law_failure(b, None, None)


# ---------------------------------------------------------------------------
# The law checkers on the integer kernel against the FieldElement checkers
# ---------------------------------------------------------------------------
#
# product_law_failure and form_law_failure as they were before they ran on
# linalg's integer kernel: every scalar product and sum a FieldElement.

def _ref_sparse(v):
    return [(r, x) for r, x in enumerate(v) if not x.is_zero()]


def _ref_columns(m, n, one):
    if m is None:
        return [[(i, one)] for i in range(n)]
    return [_ref_sparse(col) for col in zip(*m.rows)]


def _ref_combine(n, zero, weighted):
    out = [zero] * n
    for c, v in weighted:
        for r, x in v:
            out[r] = out[r] + c * x
    return out


def ref_product_law_failure(a, outer, left, right, local=False):
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    terms = [[_ref_sparse(row) for row in plane] for plane in a.structure]
    outer_cols = _ref_columns(outer, n, one)
    lcols, rcols = _ref_columns(left, n, one), _ref_columns(right, n, one)
    by_right = [[_ref_sparse(_ref_combine(n, zero, ((v, terms[l][m]) for m, v in rcols[k])))
                 for l in range(n)] for k in range(n)]
    for i in range(n):
        for k in range(n):
            lhs = _ref_combine(n, zero, ((c, outer_cols[m]) for m, c in terms[i][k]))
            if local:
                rhs = _ref_combine(n, zero, [(u, terms[l][k]) for l, u in lcols[i]]
                                   + [(one, by_right[k][i])])
            else:
                rhs = _ref_combine(n, zero, ((u, by_right[k][l]) for l, u in lcols[i]))
            if lhs != rhs:
                return (i, k)
    return None


def _ref_pairings(a, f, g):
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    form_rows = [_ref_sparse(row) for row in a.form]
    gcols = _ref_columns(g, n, one)
    out = []
    for fcol in _ref_columns(f, n, one):
        w = _ref_combine(n, zero, ((x, form_rows[l]) for l, x in fcol))
        out.append([sum((w[m] * y for m, y in gcol), zero) for gcol in gcols])
    return out


def ref_form_law_failure(a, f1, g1, f2=None, g2=None):
    lhs, rhs = _ref_pairings(a, f1, g1), _ref_pairings(a, f2, g2)
    for i in range(a.dim):
        for k in range(a.dim):
            if lhs[i][k] != rhs[i][k]:
                return (i, k)
    return None


# Q, Q(sqrt d) for d = -3, -1, 2, 3, 5, and F_p for p = 3, 7, 13
KERNEL_CASES = [("para:4", "Q"), ("para:4", "Qsqrt-1"), ("para:4", "F3"),
                ("para:8", "Qsqrt2"), ("para:8", "Qsqrt5"), ("para:8", "F13"),
                ("para:8", "Qsqrt-3"), ("okubo", "Qsqrt3"), ("okubo", "F13"), ("para:4", "F7"),
                ("parazorn:1:1", "Qsqrt-1"), ("parazorn:2:1", "F3"),
                ("parazorn:3:1", "Qsqrt5"), ("parazorn:1:3", "Qsqrt2")]


def big_scalar(f, rng):
    """A nonzero scalar with numerators and denominators up to 10^12 (a
    residue over F_p)."""
    if f.p is not None:
        return f.from_int(rng.randrange(1, f.p))

    def big():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))

    return f.element(big(), big()) if f.d is not None else f.element(big())


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(KERNEL_CASES), seed=seeds,
       shift=st.sampled_from(("none", "small", "big")), bad=st.booleans())
def test_law_kernels_match_the_fieldelement_checkers(case, seed, shift, bad):
    """Triality and local triples of a named algebra, one entry of a map
    perturbed (bad), checked on a copy of the algebra with one structure
    constant shifted: the same first witness, law by law."""
    rng = random.Random(seed)
    a = algebra(*case)
    if case[0].startswith("parazorn"):
        triple = zorn._rho_maps(a, small_scalar(a.field, rng))
        local = zorn.zorn_s_triple(a)[0].maps
    else:
        triple = symcomp.sigma_maps(product_triple(a, rng))
        local = triality.derivation_pair(a, random_element(a, rng),
                                         random_element(a, rng)).maps()
    triple, local = maybe_perturb(triple, rng, bad), maybe_perturb(local, rng, bad)
    n = a.dim
    c = {"none": a.field.zero(), "small": small_scalar(a.field, rng),
         "big": big_scalar(a.field, rng)}[shift]
    alg = _shifted(a, rng.randrange(n), rng.randrange(n), rng.randrange(n), c)
    triple = [LinearMap(alg, m.rows) for m in triple]
    local = [LinearMap(alg, m.rows) for m in local]
    witnesses = []
    for j in range(3):
        for maps, is_local in ((triple, False), (local, True)):
            args = (alg, maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3])
            want = ref_product_law_failure(*args, local=is_local)
            assert triality.product_law_failure(*args, local=is_local) == want
            witnesses.append(want)
    if shift == "none" and not bad:
        assert witnesses == [None] * 6
    s, t = triple[0], triple[1]
    for args in ([(m, None, None, -m) for m in local]
                 + [(s, s), (s, None, None, t), (None, None, t, s), (None, t)]):
        assert triality.form_law_failure(alg, *args) == ref_form_law_failure(alg, *args)


@pytest.mark.parametrize("local", [False, True])
def test_product_law_fails_first_in_the_sqrt_d_part_alone(local):
    """On para:4 over Q(sqrt 3) with outer = left = right = Id + sqrt 3 E_13
    (sqrt 3 E_13 for the local law), the two sides first differ at a pair
    where their rational parts agree: the witness is the reference's."""
    a = algebra("para:4", "Qsqrt3")
    f, n = a.field, a.dim
    rows = [[f.zero()] * n for _ in range(n)]
    rows[1][3] = f.element(0, 1)
    m = LinearMap(a, rows)
    if not local:
        m = a.identity_map() + m
    want = ref_product_law_failure(a, m, m, m, local=local)
    assert want is not None
    assert triality.product_law_failure(a, m, m, m, local=local) == want
    x, y = a.basis(want[0]), a.basis(want[1])
    diff = (m(x * y) - (m(x) * y + x * m(y) if local else m(x) * m(y))).coords
    assert all(c.a == 0 for c in diff) and any(c.b != 0 for c in diff)


# ---------------------------------------------------------------------------
# conjugate_consistency reports the first failing tuple
# ---------------------------------------------------------------------------

def test_conjugate_consistency_reports_the_first_failing_tuple():
    a = named_algebra("zorn")
    lam = a.field.from_int(2)
    want = ("scaling-triple-transfers-to-conjugate-product", (1, 0, 0))
    assert ref_first_conjugate_failure(a, lam) == want
    with pytest.raises(RelationFails) as info:
        zorn.conjugate_consistency(a, lam)
    assert info.value.witness == want


def conjugate_outcome(a, lam):
    """None when conjugate_consistency certifies, else its witness."""
    try:
        zorn.conjugate_consistency(a, lam)
    except RelationFails as exc:
        return exc.witness
    return None


@pytest.mark.parametrize("case", [("parazorn:1:1", "Q"), ("parazorn:2:1", "Qsqrt3"),
                                  ("parazorn:3:1", "F7"), ("parazorn:1:3", "Q"),
                                  ("zorn", "Qsqrt3")])
def test_conjugate_transfer_matches_the_conjugate_algebra(case):
    """Checked on the algebra itself, the transfer reports what the
    conjugate algebra reports: pass, or the clause and (j, i, k) of the first
    failure, on the unshifted algebra and on copies with one structure
    constant shifted, at a random scale.  Over the shifts both triples fail
    first somewhere and some copy passes."""
    rng = random.Random(case[0] + case[1])
    a = algebra(*case)
    n = a.dim
    seen = set()
    for t in range(16):
        c = small_scalar(a.field, rng) if t else a.field.zero()
        alg = _shifted(a, rng.randrange(n), rng.randrange(n), rng.randrange(n), c)
        lam = small_scalar(a.field, rng) if t % 2 else a.field.one()
        got = conjugate_outcome(alg, lam)
        assert got == ref_first_conjugate_failure(alg, lam), (t, got)
        seen.add(got and got[0])
    assert seen == {None, "scaling-triple-transfers-to-conjugate-product",
                    "transpose-triple-transfers-to-conjugate-product"}, seen


# ---------------------------------------------------------------------------
# The cached symmetric-composition certificate
# ---------------------------------------------------------------------------

NAMED = ("ground", "para2", "hurwitz:1", "hurwitz:2", "hurwitz:4", "hurwitz:8",
         "hurwitz:2:split", "hurwitz:4:split", "hurwitz:8:split", "para:1",
         "para:2", "para:4", "para:8", "para:2:split", "para:4:split",
         "para:8:split", "okubo", "okubo:-", "matrix:2", "zorn", "parazorn:1:1",
         "parazorn:2:1", "parazorn:3:1", "parazorn:3:2", "parazorn:1:3")


@pytest.mark.parametrize("field", ["Q", "Qsqrt3", "F7"])
def test_cached_symcomp_verdict_matches_a_fresh_one(field):
    checked = 0
    for name in NAMED:
        try:
            a = named_algebra(name, parse_field(field))
        except SqrtUnavailable:
            continue  # okubo needs sqrt(-3)
        cert = symcomp.is_symmetric_composition(a)
        assert a._symcomp_cache is cert
        assert symcomp.is_symmetric_composition(a) is cert
        fresh = symcomp.is_symmetric_composition(named_algebra(name, parse_field(field)))
        assert fresh is not cert and fresh.records == cert.records, name
        # the gate of verify_local reads the same verdict as the old quick check
        if a.form is not None:
            assert cert.ok == ref_symmetric_composition_quick(a), name
        checked += 1
    assert checked >= len(NAMED) - 2


def spy_symcomp_scans(monkeypatch):
    """Record the sizes of every basis-tuple scan of the linearized law
    (triality) and of the other clauses (symcomp), and every symcomp
    Certificate built."""
    scans, built = [], []
    scan = symcomp.first_failing_tuple

    def scan_spy(holds, *sizes):
        scans.append(sizes)
        return scan(holds, *sizes)

    class Counting(symcomp.Certificate):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(triality, "first_failing_tuple", scan_spy)
    monkeypatch.setattr(symcomp, "first_failing_tuple", scan_spy)
    monkeypatch.setattr(symcomp, "Certificate", Counting)
    return scans, built


def test_verify_local_scans_the_linearized_law_once(monkeypatch):
    scans, built = spy_symcomp_scans(monkeypatch)
    a = named_algebra("okubo")
    basis = a.basis_elements()
    for i in range(3):
        pair = triality.derivation_pair(a, basis[i], basis[i + 1])
        triality.verify_local(a, *pair.maps())
    assert scans == [(8, 8, 8)] and built == []
    assert a._linearized_cache == (None,) and a._symcomp_cache is None
    # the full certificate reads the same scan
    assert symcomp.is_symmetric_composition(a).ok and scans == [(8, 8, 8)]


def test_verify_local_on_para_zorn_skips_the_five_clause_scan(monkeypatch):
    """A para-Zorn algebra fails the linearized law; verify_local reads that
    verdict alone, never the witnesses of the other five clauses."""
    scans, built = spy_symcomp_scans(monkeypatch)
    a = named_algebra("parazorn:3:1")
    zorn.zorn_s_triple(a)  # its triple goes through verify_local
    assert symcomp.linearized_failure(a) is not None
    assert scans == [(a.dim, a.dim, a.dim)] and built == []
    assert a._symcomp_cache is None


# ---------------------------------------------------------------------------
# first_failing_tuple against the nested loops it replaced
# ---------------------------------------------------------------------------

def ref_symmetric_composition_records(a):
    """The clause loops of is_symmetric_composition as written before."""
    records = []
    n = a.dim
    basis = a.basis_elements()
    prods = [[basis[i] * basis[j] for j in range(n)] for i in range(n)]
    gram = [[a.form_eval(basis[i], basis[k]) for k in range(n)] for i in range(n)]

    def add(clause, wit):
        records.append((clause, wit is None, wit))

    wit = None
    for i in range(n):
        x = basis[i]
        for j in range(n):
            y = basis[j]
            if prods[i][j] * x != gram[i][i] * y or x * prods[j][i] != gram[i][i] * y:
                wit = (i, j)
                break
        if wit:
            break
    add("two-sided-norm-law", wit)
    wit = None
    for i in range(n):
        for j in range(n):
            p = prods[i][j]
            if a.form_eval(p, p) != gram[i][i] * gram[j][j]:
                wit = (i, j)
                break
        if wit:
            break
    add("composition-law", wit)
    two = a.field.from_int(2)
    wit = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    lhs = a.form_eval(prods[i][j], prods[k][l]) + a.form_eval(
                        prods[k][j], prods[i][l])
                    if lhs != two * gram[i][k] * gram[j][l]:
                        wit = (i, j, k, l)
                        break
                if wit:
                    break
            if wit:
                break
        if wit:
            break
    add("polarized-composition-law", wit)
    wit = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a.form_eval(prods[i][j], basis[k]) != a.form_eval(basis[i], prods[j][k]):
                    wit = (i, j, k)
                    break
            if wit:
                break
        if wit:
            break
    add("form-associativity", wit)
    wit = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                rhs = two * gram[i][k] * y
                if (prods[i][j] * z + prods[k][j] * x != rhs
                        or x * prods[j][k] + z * prods[j][i] != rhs):
                    wit = (i, j, k)
                    break
            if wit:
                break
        if wit:
            break
    add("linearized-norm-law", wit)
    ys = list(basis) + [basis[i] + basis[j] for i in range(n) for j in range(i + 1, n)]
    wit = None
    for i in range(n):
        x = basis[i]
        for y in ys:
            for k in range(n):
                yz = y * basis[k]
                if (x * y) * yz != two * a.form_eval(x, yz) * y - a.form_eval(y, y) * prods[k][i]:
                    wit = (i, k)
                    break
            if wit:
                break
        if wit:
            break
    add("product-exchange-law", wit)
    return records


def ref_check_associative(a):
    basis = a.basis_elements()
    n = a.dim
    for i in range(n):
        for j in range(n):
            p = basis[i] * basis[j]
            for k in range(n):
                if p * basis[k] != basis[i] * (basis[j] * basis[k]):
                    raise RelationFails(f"associativity fails at ({i}, {j}, {k})")


def ref_para_associativity(a):
    basis = a.basis_elements()
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                if a.involute(z) * (x * y) != (y * z) * a.involute(x):
                    raise RelationFails("para-associativity fails", witness=(i, j, k))


def ref_quartic_exchange_identities(h):
    e = h.unit_element()
    two = h.field.from_int(2)
    basis = h.basis_elements()
    n = h.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                f, g, x = basis[i], basis[j], basis[k]
                fe_, ge_, xe_ = h.form_eval(f, e), h.form_eval(g, e), h.form_eval(x, e)
                fx_, gx_ = h.form_eval(f, x), h.form_eval(g, x)
                if f * (g * x) != x * (f * g) - two * fe_ * (x * g) \
                        + two * ge_ * (f * x) + two * fx_ * g - two * gx_ * f:
                    raise RelationFails("exchange identity 1 fails", witness=(i, j, k))
                if (x * f) * g != (f * g) * x + two * fe_ * (x * g) \
                        - two * ge_ * (f * x) - two * fx_ * g + two * gx_ * f:
                    raise RelationFails("exchange identity 2 fails", witness=(i, j, k))
                if f * (x * g) != -(x * (f * g)) + two * xe_ * (f * g) \
                        + two * fe_ * (x * g) - two * fx_ * g:
                    raise RelationFails("exchange identity 3 fails", witness=(i, j, k))
                if (f * x) * g != -((f * g) * x) + two * xe_ * (f * g) \
                        + two * ge_ * (f * x) - two * gx_ * f:
                    raise RelationFails("exchange identity 4 fails", witness=(i, j, k))


def ref_core_checks(a):
    """(ok, witness) of the three core loops, as the CLI reported them."""
    n = a.dim
    out = {}
    out["core:bilinear-form-symmetric"] = (True, None)
    if a.form is not None:
        bad = [(i, j) for i in range(n) for j in range(n) if a.form[i][j] != a.form[j][i]]
        if bad:
            out["core:bilinear-form-symmetric"] = (False, f"({bad[0][0]}, {bad[0][1]})")
    out["core:unit-acts-as-identity"] = (True, None)
    if a.unit is not None:
        e = a.unit_element()
        for i, b in enumerate(a.basis_elements()):
            if e * b != b or b * e != b:
                out["core:unit-acts-as-identity"] = (False, f"basis index {i}")
                break
    out["core:para-unit-acts-by-conjugation"] = (True, None)
    e_coords = getattr(a, "para_unit", None)
    if e_coords is not None and a.involution is not None:
        e = a.element(list(e_coords))
        for i, b in enumerate(a.basis_elements()):
            if e * b != a.involute(b) or b * e != a.involute(b):
                out["core:para-unit-acts-by-conjugation"] = (False, f"basis index {i}")
                break
    return out


def _shifted(a, i, j, k, c):
    """A fresh copy of a with structure constant (i, j, k) shifted by c."""
    structure = [[list(row) for row in plane] for plane in a.structure]
    structure[i][j][k] = structure[i][j][k] + c
    return type(a)(a.field, structure, form=a.form, involution=a.involution, unit=a.unit,
                   name=a.name, para_unit=a.para_unit)


def _perturbed(a):
    """a with structure constant (1, 1, 0) shifted by one, so that most
    identities fail somewhere past the first tuple."""
    i = min(1, a.dim - 1)
    return _shifted(a, i, i, 0, a.field.one())


def _with_asymmetric_form(a):
    """A copy of a whose form has <e_1|e_2> and <e_3|e_0> shifted by one.
    `Algebra.__init__` rejects such a form, so the copy takes it in after
    construction; the CLI's symmetry check must still find it, at the first
    (i, j) in row-major order."""
    b = _shifted(a, 0, 0, 0, a.field.zero())
    form = [list(row) for row in a.form]
    form[1][2] = form[1][2] + 1
    form[3][0] = form[3][0] + 1
    b._form = LinearMap(b, form)
    b.form = b._form.rows
    return b


@pytest.mark.parametrize("field", ["Q", "Qsqrt3", "F7"])
def test_tuple_checks_keep_their_witnesses(field):
    """The checks rewritten over first_failing_tuple report what their
    loops reported, on the 71 algebra-field pairs and on a perturbed copy
    of each.  hurwitz:4 and para:4 also get a unit or para-unit e_0 that
    fails on one side only, past index 0 (e_2 e_0 shifted, read by R(e_0)
    alone, and e_0 e_3 shifted, read by L(e_0) alone), and a form that is
    not symmetric."""
    checked = 0
    for name in NAMED:
        try:
            a = named_algebra(name, parse_field(field))
        except SqrtUnavailable:
            continue  # okubo needs sqrt(-3)
        copies = [a, _perturbed(a)]
        if name in ("hurwitz:4", "para:4"):
            one = a.field.one()
            copies += [_shifted(a, 2, 0, 1, one), _shifted(a, 0, 3, 1, one)]
            # the other checks may take the form to be symmetric
            alg = _with_asymmetric_form(a)
            core = dict(cli._suite_core(alg))
            for check_id, (_, witness) in ref_core_checks(alg).items():
                assert core[check_id]() == witness, (name, check_id)
        for alg in copies:
            if alg.form is not None:
                got = symcomp.is_symmetric_composition(alg).records
                assert got == ref_symmetric_composition_records(alg), name
            for new, ref in ((assoc.check_associative, ref_check_associative),
                             (assoc.para_associativity, ref_para_associativity),
                             (autos.quartic_exchange_identities,
                              ref_quartic_exchange_identities)):
                assert outcome(new, alg) == outcome(ref, alg), (name, new.__name__)
            core = dict(cli._suite_core(alg))
            for check_id, (_, witness) in ref_core_checks(alg).items():
                assert core[check_id]() == witness, (name, check_id)
        checked += 1
    assert checked >= len(NAMED) - 2


GENERATING = ["linearized_failure"]
IMPLIED = ["_two_sided_norm_failure", "_composition_failure", "_polarized_failure",
           "_form_associativity_failure", "_product_exchange_failure"]


def test_symmetric_composition_scans_only_the_generating_clauses(monkeypatch):
    """Linearized implies the other five clauses, so a certified algebra
    scans only that one; a failing one scans all six, the five implied ones
    in record order.  Each clause function is counted where symcomp calls it."""
    scanned = []

    def counting(name):
        clause = getattr(symcomp, name)

        def count(*args):
            scanned.append(name)
            return clause(*args)

        return count

    for name in GENERATING + IMPLIED:
        monkeypatch.setattr(symcomp, name, counting(name))
    for name in ("okubo", "para:8"):
        scanned.clear()
        assert symcomp.is_symmetric_composition(named_algebra(name)).ok
        assert scanned == GENERATING, name
    scanned.clear()
    a = _perturbed(named_algebra("okubo"))
    assert not symcomp.is_symmetric_composition(a).ok
    assert scanned == GENERATING + IMPLIED
    assert symcomp.is_symmetric_composition(a).records == ref_symmetric_composition_records(a)


SHIFTABLE = [("para:4", "Q"), ("para:4", "Qsqrt3"), ("para:4", "F7"), ("para:8", "Q"),
             ("para:8:split", "F7"), ("okubo", "Qsqrt3"), ("okubo", "F13"),
             ("hurwitz:4", "Q"), ("parazorn:1:1", "Qsqrt3"), ("matrix:2", "F7")]


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(SHIFTABLE), seed=seeds, bad=st.booleans())
def test_symmetric_composition_records_match_reference_after_a_random_shift(case, seed, bad):
    """One random structure constant shifted by a random nonzero scalar
    (bad), or a fresh unshifted copy: the records, and so the first failing
    tuple of every clause, are those of the full scan."""
    rng = random.Random(seed)
    a = algebra(*case)
    n = a.dim
    c = small_scalar(a.field, rng) if bad else a.field.zero()
    alg = _shifted(a, rng.randrange(n), rng.randrange(n), rng.randrange(n), c)
    assert symcomp.is_symmetric_composition(alg).records == ref_symmetric_composition_records(alg)


def ref_sigma_theta_products(sigma, theta):
    """The inverse and product loops of sigma_theta_triples as they were:
    all six triple products checked after sigma_j theta_j = theta_j sigma_j = Id."""
    for j in range(1, 4):
        sj, tj = sigma.comp(j), theta.comp(j)
        if not (sj @ tj).is_identity() or not (tj @ sj).is_identity():
            raise RelationFails(f"sigma_{j} theta_{j} != Id", witness=(j,))
    for j in range(1, 4):
        if not (theta.comp(j) @ theta.comp(j + 1) @ theta.comp(j + 2)).is_identity():
            raise RelationFails(f"theta product at j={j} is not Id", witness=(j,))
        if not (sigma.comp(j + 2) @ sigma.comp(j + 1) @ sigma.comp(j)).is_identity():
            raise RelationFails(f"sigma product at j={j} is not Id", witness=(j,))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds, kind=st.integers(0, 2))
def test_sigma_theta_product_check_matches_reference(case, seed, kind):
    """kind 0: the maps of a product triple; 1: one entry of one of the six
    maps perturbed; 2: one theta_t perturbed and sigma_t its inverse, so
    that only the products can fail.  The triality checks are stubbed out so
    that the perturbed maps reach the product check."""
    rng = random.Random(seed)
    a = algebra(*case)
    triple = product_triple(a, rng)
    sig, the = symcomp.sigma_maps(triple), symcomp.theta_maps(triple)
    if kind == 1:
        maps = perturb(sig + the, rng)
        sig, the = maps[:3], maps[3:]
    elif kind == 2:
        t = rng.randrange(3)
        [the[t]] = perturb([the[t]], rng)
        try:
            sig[t] = the[t].inverse()
        except NotInvertible:
            pass  # fails sigma_t theta_t = Id in both
    want = outcome(ref_sigma_theta_products, triality.TrialityTriple(a, sig),
                   triality.TrialityTriple(a, the))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symcomp, "sigma_maps", lambda _: sig)
        mp.setattr(symcomp, "theta_maps", lambda _: the)
        mp.setattr(symcomp, "verify_triality",
                   lambda alg, *maps: triality.TrialityTriple(alg, maps))
        got = outcome(symcomp.sigma_theta_triples, triple)
    if want is not None:
        assert got == want
    else:
        assert got is None or "product" not in got[1]
    if kind == 0:
        assert got is None


def ref_sigma_theta_triples(a):
    """sigma_theta_triples as it was: theta certified as a triality triple
    and as an isometry, and <sigma_j x|y> = <x|theta_j y> tested."""
    alg = a.algebra
    sigma = symcomp.verify_triality(alg, *symcomp.sigma_maps(a))
    theta = symcomp.verify_triality(alg, *symcomp.theta_maps(a))
    n = alg.dim
    basis = alg.basis_elements()
    two = alg.field.from_int(2)
    for j in range(1, 4):
        if not (sigma.comp(j) @ theta.comp(j)).is_identity():
            raise RelationFails(f"sigma_{j} theta_{j} != Id", witness=(j,))
    if not (theta.comp(1) @ theta.comp(2) @ theta.comp(3)).is_identity():
        raise RelationFails("theta product at j=1 is not Id", witness=(1,))
    form_law = triality.form_law_failure
    for j in range(1, 4):
        sj, tj = sigma.comp(j), theta.comp(j)
        failure = triality.earliest_failure([
            ("sigma/theta adjointness fails", form_law(alg, sj, None, None, tj)),
            ("sigma is not an isometry", form_law(alg, sj, sj)),
            ("theta is not an isometry", form_law(alg, tj, tj))])
        if failure is not None:
            raise RelationFails(failure[0], witness=(j, *failure[1]))
    for j in range(1, 4):
        aj, aj1, aj2 = a.comp(j), a.comp(j + 1), a.comp(j + 2)
        for i in range(n):
            x = basis[i]
            if sigma.comp(j)(x) != two * alg.form_eval(aj1, x) * aj2 - aj * x:
                raise RelationFails("sigma closed form fails", witness=(j, i))
            if theta.comp(j)(x) != two * alg.form_eval(aj2, x) * aj1 - x * aj:
                raise RelationFails("theta closed form fails", witness=(j, i))
    return sigma, theta


def sigma_theta_outcome(alg, sig, the, want):
    """The outcome sigma_theta_triples must have, given the reference's
    `want`.  It is `want`, except where the reference first fails a check
    that involves theta and that sigma_theta_triples no longer runs.  Then
    some sigma_j theta_j is not Id (theta's triality check: sigma's
    passed), or, at the same j, sigma_j is no isometry (the adjointness and
    theta isometry checks, equivalent to it once theta_j = sigma_j^-1)."""
    if want is None:
        return None
    if want[1] in ("sigma/theta adjointness fails", "theta is not an isometry"):
        j = want[2][0]
        w = triality.form_law_failure(alg, sig[j - 1], sig[j - 1])
        return "RelationFails", "sigma is not an isometry", (j, *w)
    if outcome(symcomp.verify_triality, alg, *sig) is None and \
            outcome(symcomp.verify_triality, alg, *the) == want:
        j = next(j for j in range(1, 4) if not (sig[j - 1] @ the[j - 1]).is_identity())
        return "RelationFails", f"sigma_{j} theta_{j} != Id", (j,)
    return want


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds, kind=st.integers(0, 2), stub=st.booleans())
def test_sigma_theta_triples_match_reference(case, seed, kind, stub):
    """kind 0: the maps of a product triple; 1: one entry of one of the six
    maps perturbed; 2: sigma_t, sigma_{t+1} scaled by c, 1/c and theta_t,
    theta_{t+1} by 1/c, c with c^2 != 1, which keeps every inverse and
    triple product but no isometry.  With `stub`, always on for kind 2,
    verify_triality is stubbed out so that the maps reach the later checks.
    The verdicts agree, and the failures too, but where the reference first
    fails a check that sigma_theta_triples no longer runs (see
    `sigma_theta_outcome`)."""
    rng = random.Random(seed)
    a = algebra(*case)
    triple = product_triple(a, rng)
    sig, the = symcomp.sigma_maps(triple), symcomp.theta_maps(triple)
    if kind == 1:
        maps = perturb(sig + the, rng)
        sig, the = maps[:3], maps[3:]
    elif kind == 2:
        stub = True
        t, c = rng.randrange(3), small_scalar(a.field, rng)
        if c * c == a.field.one():
            c = c + c
        u = (t + 1) % 3
        sig[t], sig[u] = c * sig[t], c.inverse() * sig[u]
        the[t], the[u] = c.inverse() * the[t], c * the[u]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symcomp, "sigma_maps", lambda _: sig)
        mp.setattr(symcomp, "theta_maps", lambda _: the)
        if stub:
            mp.setattr(symcomp, "verify_triality",
                       lambda alg, *maps: triality.TrialityTriple(alg, maps))
        want = outcome(ref_sigma_theta_triples, triple)
        got = outcome(symcomp.sigma_theta_triples, triple)
        assert got == sigma_theta_outcome(a, sig, the, want)
    assert (got is None) == (want is None)
    if kind == 0:
        assert got is None


@pytest.mark.parametrize("field", ["Q", "F7", "Qsqrt3"])
@pytest.mark.parametrize("flips, want", [((1, 2), ("sigma closed form fails", (1, 1))),
                                         ((2,), ("theta closed form fails", (1, 1)))])
def test_sigma_theta_closed_forms_fail_at_the_first_basis_index(field, flips, want):
    """sigma_1 h, h theta_1, sigma_2 k and k theta_2 for the isometry h that
    negates the coordinates `flips` and k = sigma_1 h theta_1, both
    involutions, keep every inverse, triple product and isometry but fail
    the closed forms at j = 1.  With flips (1, 2) both first fail at basis
    index 1, sigma in row 3 and theta in row 2: the tie goes to sigma, whose
    check the reference's basis loop meets first, though theta's row is the
    smaller.  With flips (2,) theta fails at index 1, before sigma."""
    a = algebra("para:4", field)
    triple = product_triple(a, random.Random(3))
    sig, the = symcomp.sigma_maps(triple), symcomp.theta_maps(triple)
    h = LinearMap(a, [[int(i == k) * (-1 if i in flips else 1) for k in range(4)]
                      for i in range(4)])
    k = sig[0] @ h @ the[0]
    sig[0], the[0], sig[1], the[1] = sig[0] @ h, h @ the[0], sig[1] @ k, k @ the[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symcomp, "sigma_maps", lambda _: sig)
        mp.setattr(symcomp, "theta_maps", lambda _: the)
        mp.setattr(symcomp, "verify_triality",
                   lambda alg, *maps: triality.TrialityTriple(alg, maps))
        got = outcome(symcomp.sigma_theta_triples, triple)
        assert got == outcome(ref_sigma_theta_triples, triple) == ("RelationFails", *want)


def ref_order3_auto(a, idem):
    """order3_auto as it was: sigma theta and theta sigma, sigma^3 and
    theta^3 all tested."""
    x = idem.elem
    sigma = a.right_op(x) @ a.right_op(x)
    theta = a.left_op(x) @ a.left_op(x)
    autos.certify_automorphism(a, sigma)
    autos.certify_automorphism(a, theta)
    if not (sigma @ theta).is_identity() or not (theta @ sigma).is_identity():
        raise RelationFails("sigma and theta are not mutual inverses")
    if not (sigma @ sigma @ sigma).is_identity() or not (theta @ theta @ theta).is_identity():
        raise RelationFails("order is not 3")
    failure = ref_order3_isometries(a, sigma, theta)
    if failure is not None:
        raise RelationFails(failure[0], witness=failure[1])
    return sigma


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds, kind=st.integers(0, 2),
       stub=st.booleans())
def test_order3_auto_matches_reference(case, seed, kind, stub):
    """kind 0: a found idempotent; 1: Idempotent(a, x) for a random norm-one
    x, for which sigma theta = <x|x>^2 Id = Id but sigma^3 != Id in general;
    2: Idempotent(a, x) for a random x.  With `stub`, certify_automorphism
    is stubbed out so that every x reaches the inverse and order tests."""
    rng = random.Random(seed)
    a = algebra(*case)
    idems = autos.find_idempotents(a)
    if kind == 0 and idems:
        idem = rng.choice(idems)
    else:
        idem = autos.Idempotent(a, (dense_unit if kind == 1 else random_element)(a, rng))
    with pytest.MonkeyPatch.context() as mp:
        if stub:
            mp.setattr(autos, "certify_automorphism", lambda alg, g: g)
        want = outcome(ref_order3_auto, a, idem)
        assert outcome(autos.order3_auto, a, idem) == order3_outcome(a, idem, want)
    if kind == 0 and idems:
        assert want is None


def order3_outcome(a, idem, want):
    """The outcome order3_auto must have, given the reference's `want`.  It
    is `want`, except where the reference first fails a check of theta
    alone, which order3_auto no longer runs: then theta is not sigma^-1,
    or sigma is no isometry either."""
    x = idem.elem
    sigma = a.right_op(x) @ a.right_op(x)
    if want is None:
        return None
    if want[1] == "map is not an automorphism" and \
            outcome(autos.certify_automorphism, a, sigma) is None:
        return "RelationFails", "sigma and theta are not mutual inverses", None
    if want[1] == "theta is not an isometry":
        return "RelationFails", "sigma is not an isometry", triality.form_law_failure(a, sigma, sigma)
    return want


# ---------------------------------------------------------------------------
# Checks that repeated a law certified by another call on the same path
# ---------------------------------------------------------------------------
#
# Each reference below is a check as the library ran it next to another call
# that proves the same law; the library now relies on that other call alone.
# On certified inputs and on inputs with one entry perturbed, the remaining
# call must fail exactly when the reference fails, with the same witness.


def ref_sandwich_law(astar, sig):
    """assoc_sigma_triple's loop: J s_j J(e_i e_k) = (s_{j+1} e_i)(s_{j+2} e_k)
    in astar, which is verify_triality on the conjugate algebra."""
    jmap = astar.involution_map()
    basis = astar.basis_elements()
    n = astar.dim
    for j in range(3):
        conj_sig = jmap @ sig[j] @ jmap
        s1, s2 = sig[(j + 1) % 3], sig[(j + 2) % 3]
        for i in range(n):
            for k in range(n):
                if conj_sig(basis[i] * basis[k]) != s1(basis[i]) * s2(basis[k]):
                    raise RelationFails("sandwich product law fails", witness=(j + 1, i, k))


def ref_star_local_law(astar, ds):
    """assoc_local_triple's loop: J d_j J(e_i e_k) = (d_{j+1} e_i) e_k + e_i (d_{j+2} e_k)
    in astar, which is the local law of verify_local on the conjugate algebra."""
    jmap = astar.involution_map()
    basis = astar.basis_elements()
    n = astar.dim
    for j in range(1, 4):
        conj_d = jmap @ ds[j - 1] @ jmap
        d1, d2 = ds[j % 3], ds[(j + 1) % 3]
        for i in range(n):
            for k in range(n):
                if conj_d(basis[i] * basis[k]) != d1(basis[i]) * basis[k] \
                        + basis[i] * d2(basis[k]):
                    raise RelationFails("star-product local law fails", witness=(j, i, k))


ASSOCIATIVE = [("matrix:2", "Q"), ("matrix:2", "F7"), ("hurwitz:4", "Q"),
               ("hurwitz:4", "Qsqrt3"), ("hurwitz:4:split", "F13"), ("hurwitz:2", "F7")]


_UNITARIES = {}


def _unitaries(h):
    """The unitary elements (conj(x) x = x conj(x) = e) of an associative
    involutive algebra with every coordinate in {-1, 0, 1}."""
    if id(h) not in _UNITARIES:
        from itertools import product

        e = h.unit_element()
        xs = (h.element(list(c)) for c in product((-1, 0, 1), repeat=h.dim))
        _UNITARIES[id(h)] = [x for x in xs
                             if h.involute(x) * x == e and x * h.involute(x) == e]
        assert len(_UNITARIES[id(h)]) >= 4
    return _UNITARIES[id(h)]


def _skews(h, rng):
    """A random skew element x - conj(x)."""
    x = random_element(h, rng)
    return x - h.involute(x)


def _rebound(conj, maps):
    return [LinearMap(conj, m.rows) for m in maps]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(ASSOCIATIVE), seed=seeds, kind=st.integers(0, 2))
def test_sandwich_law_is_verify_triality_on_the_conjugate(case, seed, kind):
    """kind 0: a unitary triple, as assoc_sigma_triple builds it; 1: the same
    maps with one entry perturbed; 2: sandwiches of arbitrary elements."""
    from trialkit.constructors import make_conjugate

    rng = random.Random(seed)
    h = algebra(*case)
    conj = make_conjugate(h)
    if kind == 2:
        us = [random_element(h, rng) for _ in range(3)]
    else:
        us = [rng.choice(_unitaries(h)) for _ in range(3)]
    sig = [h.left_op(us[j]) @ h.right_op(h.involute(us[(j + 1) % 3])) for j in range(3)]
    sig = maybe_perturb(sig, rng, kind == 1)
    want = outcome(ref_sandwich_law, h, sig)
    got = outcome(triality.verify_triality, conj, *_rebound(conj, sig))
    if kind == 0:
        assert want is None and got is None
        t = assoc.assoc_sigma_triple(h, assoc.certify_unitary(h, *us))
        assert [m.rows for m in t.maps] == [m.rows for m in sig]
    if got is not None and got[0] == "NotInvertible":
        return
    assert (want is None) == (got is None)
    if want is not None:
        assert got[2] == want[2]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(ASSOCIATIVE), seed=seeds, kind=st.integers(0, 2))
def test_star_local_law_is_verify_local_on_the_conjugate(case, seed, kind):
    """kind 0: a skew triple, as assoc_local_triple builds it; 1: the same maps
    with one entry perturbed; 2: differences of arbitrary elements."""
    from trialkit.constructors import make_conjugate

    rng = random.Random(seed)
    h = algebra(*case)
    conj = make_conjugate(h)
    ps = [(random_element if kind == 2 else _skews)(h, rng) for _ in range(3)]
    ds = [h.left_op(ps[j]) - h.right_op(ps[(j + 1) % 3]) for j in range(3)]
    ds = maybe_perturb(ds, rng, kind == 1)
    want = outcome(ref_star_local_law, h, ds)
    got = outcome(triality.verify_local, conj, *_rebound(conj, ds))
    if kind == 0:
        assert want is None and got is None
        t = assoc.assoc_local_triple(h, assoc.certify_skew(h, *ps))
        assert [m.rows for m in t.maps] == [m.rows for m in ds]
    if want is not None:
        assert got is not None and got[2] == want[2]
    elif got is not None:
        # the law holds; verify_local may still find a non-skew component
        assert got[1].endswith("is not skew for the form")


def ref_dual_left(alg, coords):
    """L(b) for a vector of dual numbers, from the structure tensor."""
    from trialkit.dual import Dual

    n = alg.dim
    zero = Dual(alg.field.zero(), alg.field.zero())
    return [[sum((coords[r] * Dual.lift(alg.structure[r][s][k]) for r in range(n)), zero)
             for s in range(n)] for k in range(n)]


def _dual_mat_mul(x, y):
    """The product of two matrices of dual numbers, entry by entry."""
    return [[sum((r[k] * y[k][j] for k in range(1, len(y))), r[0] * y[0][j])
             for j in range(len(y[0]))] for r in x]


def ref_factorization(p, ds):
    """The dual-number loop of first_order_factorization, given the D_j."""
    from trialkit.dual import Dual

    a = p.base
    alg = a.algebra
    n = alg.dim
    fdesc = alg.field
    for j in range(1, 4):
        sig = [[Dual.lift(v) for v in row] for row in symcomp.sigma_maps(a)[j - 1].rows]
        bj1 = [Dual(a.comp(j + 1).coords[i], p.p_comp(j + 1).coords[i]) for i in range(n)]
        bj2 = [Dual(a.comp(j + 2).coords[i], p.p_comp(j + 2).coords[i]) for i in range(n)]
        prod = _dual_mat_mul(sig, _dual_mat_mul(ref_dual_left(alg, bj2),
                                                ref_dual_left(alg, bj1)))
        for k in range(n):
            for l in range(n):
                want = Dual(fdesc.one() if k == l else fdesc.zero(), ds[j - 1].rows[k][l])
                if prod[k][l] != want:
                    raise RelationFails("first-order factorization fails", witness=(j, k, l))


def ref_first_order_factorization(p):
    """first_order_factorization as it was: local_D certified inside it."""
    d = symcomp.local_D(p.base, p)
    ref_factorization(p, d.maps)


def _local_D_then_factorization(p):
    symcomp.local_D(p.base, p)
    symcomp.first_order_factorization(p)


def _perturbed_lambda(p, rng):
    """p with one coordinate of one p_j or q_j shifted, uncertified."""
    vecs = [list(p.ps), list(p.qs)]
    which, j, c = rng.randrange(2), rng.randrange(3), rng.randrange(p.base.algebra.dim)
    x = vecs[which][j]
    coords = list(x.coords)
    coords[c] = coords[c] + small_scalar(x.algebra.field, rng)
    vecs[which][j] = x.algebra.element(coords)
    return symcomp.LambdaVector(p.base, tuple(vecs[0]), tuple(vecs[1]))


@settings(max_examples=15, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds, bad=st.booleans())
def test_first_order_factorization_matches_reference(case, seed, bad):
    rng = random.Random(seed)
    a = algebra(*case)
    t = product_triple(a, rng)
    space = symcomp.lambda_space(t)
    p = space[rng.randrange(len(space))]
    if bad:
        p = _perturbed_lambda(p, rng)
    # old: local_D inside first_order_factorization; new: the two calls in turn
    want = outcome(ref_first_order_factorization, p)
    assert outcome(_local_D_then_factorization, p) == want
    # the factorization alone, against the uncertified D_j
    ds = symcomp._local_D_maps(t, p)
    want = outcome(ref_factorization, p, ds)
    assert outcome(symcomp.first_order_factorization, p) == want
    if not bad:
        assert want is None


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds)
def test_dual_left_is_linear_in_the_dual_part(case, seed):
    """L(a + eps p) = L(a) + eps L(p), the form first_order_factorization uses."""
    from trialkit.dual import Dual

    rng = random.Random(seed)
    alg = algebra(*case)
    x, dx = random_element(alg, rng), random_element(alg, rng)
    want = ref_dual_left(alg, [Dual(u, v) for u, v in zip(x.coords, dx.coords)])
    got = [list(map(Dual, r, e)) for r, e in zip(alg.left_op(x).rows, alg.left_op(dx).rows)]
    assert got == want


def ref_unipotent_bridge(m, direction):
    """unipotent_bridge as it was: the derivation certified and d d = 0
    tested a second time after either direction."""
    a = m.algebra
    ident = a.identity_map()
    two = a.field.from_int(2)
    if direction == "auto_to_der":
        autos.certify_automorphism(a, m)
        if m @ m != two * m - ident:
            raise AlgebraError("automorphism is not unipotent of the required shape")
        d = m - ident
        sigma = m
    elif direction == "der_to_auto":
        autos.certify_derivation(a, m)
        zero_rows = [[a.field.zero()] * a.dim for _ in range(a.dim)]
        if not (m @ m).rows == zero_rows:
            raise AlgebraError("derivation does not square to zero")
        d = m
        sigma = ident + m
        autos.certify_automorphism(a, sigma)
        if sigma @ sigma != two * sigma - ident:
            raise RelationFails("built automorphism is not unipotent")
    else:
        raise ValueError("direction must be auto_to_der or der_to_auto")
    autos.certify_derivation(a, d)
    zero_rows = [[a.field.zero()] * a.dim for _ in range(a.dim)]
    if not (d @ d).rows == zero_rows:
        raise RelationFails("derivation does not square to zero")
    w = triality.product_law_failure(a, LinearMap(a, zero_rows), d, d)
    if w is not None:
        raise RelationFails("(dx)(dy) = 0 fails", witness=w)
    p = a.field.characteristic
    if p:
        acc = sigma
        for _ in range(p - 1):
            acc = acc @ sigma
        if not acc.is_identity():
            raise RelationFails("sigma^p != Id over the prime field")
    return sigma if direction == "der_to_auto" else d


NILPOTENT = [("zorn", "Q"), ("zorn", "F5"), ("hurwitz:8:split", "Qsqrt3"),
             ("para:8:split", "F7"), ("parazorn:3:1", "Q")]
_BRIDGE_INPUTS = {}


def _bridge_inputs(case):
    """A square-zero derivation d, the unipotent automorphism Id + d, a
    derivation that is not square-zero, and where the algebra has them an r3
    unipotent automorphism and an order-3 automorphism."""
    if case not in _BRIDGE_INPUTS:
        a = algebra(*case)
        d = autos.find_nilpotent_derivation(a)
        assert d is not None
        inputs = [d, a.identity_map() + d]
        inputs += [x for x in autos.derivation_space(a) if (x @ x).rows != (d @ d).rows][:1]
        if a.unit is not None:
            inputs.append(autos.r3_construction(a, autos.find_r3_data(a)))
        order3 = (autos.order3_auto(a, idem) for idem in autos.find_idempotents(a)[:4])
        inputs += [g for g in order3 if not g.is_identity()][:1]
        _BRIDGE_INPUTS[case] = inputs
    return _BRIDGE_INPUTS[case]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(NILPOTENT), seed=seeds, pick=st.integers(0, 3),
       bad=st.booleans())
def test_unipotent_bridge_matches_reference(case, seed, pick, bad):
    rng = random.Random(seed)
    inputs = _bridge_inputs(case)
    m = inputs[pick % len(inputs)]
    [m] = maybe_perturb([m], rng, bad)
    for direction in ("der_to_auto", "auto_to_der", "sideways"):
        want = outcome(ref_unipotent_bridge, m, direction)
        assert outcome(autos.unipotent_bridge, m, direction) == want
        if want is None:
            assert autos.unipotent_bridge(m, direction) == ref_unipotent_bridge(m, direction)


def test_sigma_from_pair_reports_the_component_without_norm_one():
    a = algebra("para:4", "Q")
    x, y = a.basis(1), a.basis(2)
    with pytest.raises(RelationFails, match="^component 1 does not have norm one$"):
        symcomp.sigma_from_pair(a, 2 * x, y)
    with pytest.raises(RelationFails, match="^component 2 does not have norm one$"):
        symcomp.sigma_from_pair(a, x, 2 * y)
    assert symcomp.sigma_from_pair(a, x, y).elems == (x, y, x * y)


@pytest.mark.parametrize("case", SYMCOMP)
def test_commutator_of_a_local_triple_with_itself_is_zero(case):
    """Why certify's basis-derivation check no longer recertifies [t, t]."""
    a = algebra(*case)
    basis = a.basis_elements()
    t = triality.verify_local(a, *triality.derivation_pair(a, basis[0], basis[1]).maps())
    zero = a.identity_map() - a.identity_map()
    assert triality.commutator_closure(t, t).maps == (zero, zero, zero)


def ref_commutator_covariance(a, t, x, y):
    """commutator_covariance as it was: the pairs rebuilt for every (j, k)."""
    for j in range(1, 4):
        for k in range(1, 4):
            tjk = t.comp(j - k)
            lhs = t.comp(j).commutator(triality.derivation_pair(a, x, y).comp(k))
            rhs = (triality.derivation_pair(a, tjk(x), y).comp(k)
                   + triality.derivation_pair(a, x, tjk(y)).comp(k))
            if lhs != rhs:
                raise RelationFails(f"commutator covariance fails at j={j}, k={k}",
                                    witness=(j, k))


def ref_conjugation_covariance(a, g, x, y):
    """conjugation_covariance as it was: the pairs rebuilt for every (j, k)."""
    for j in range(1, 4):
        gj = g.comp(j)
        gj_inv = gj.inverse()
        for k in range(1, 4):
            gjk = g.comp(j - k)
            lhs = gj @ triality.derivation_pair(a, x, y).comp(k) @ gj_inv
            if lhs != triality.derivation_pair(a, gjk(x), gjk(y)).comp(k):
                raise RelationFails(f"conjugation covariance fails at j={j}, k={k}",
                                    witness=(j, k))


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(SYMCOMP), seed=seeds, bad=st.booleans())
def test_covariance_checks_match_reference(case, seed, bad):
    """Local triples d(u, v) and sigma / theta triples, with one entry
    perturbed or not."""
    rng = random.Random(seed)
    a = algebra(*case)
    x, y = random_element(a, rng), random_element(a, rng)
    t = triality.derivation_pair(a, random_element(a, rng), random_element(a, rng))
    t = triality.LocalTriple(a, maybe_perturb(t.maps(), rng, bad))
    want = outcome(ref_commutator_covariance, a, t, x, y)
    assert outcome(triality.commutator_covariance, a, t, x, y) == want
    assert bad or want is None
    triple = product_triple(a, rng)
    g = (symcomp.sigma_maps, symcomp.theta_maps)[rng.randrange(2)](triple)
    g = triality.TrialityTriple(a, maybe_perturb(g, rng, bad))
    want = outcome(ref_conjugation_covariance, a, g, x, y)
    assert outcome(triality.conjugation_covariance, a, g, x, y) == want
    if not bad:
        assert want is None


# ---------------------------------------------------------------------------
# classify_regularity against its four scans
# ---------------------------------------------------------------------------


def ref_d3(a, x, y):
    """d3(x,y) z = 4(<x|z> y - <y|z> x), the covectors built by form_eval."""
    four = a.field.from_int(4)
    bx = [a.form_eval(a.basis(l), x) for l in range(a.dim)]
    by = [a.form_eval(a.basis(l), y) for l in range(a.dim)]
    return LinearMap(a, [[four * (y.coords[k] * bx[l] - x.coords[k] * by[l])
                          for l in range(a.dim)] for k in range(a.dim)])


def ref_derivation_maps(a, x, y):
    d1 = a.right_op(y) @ a.left_op(x) - a.right_op(x) @ a.left_op(y)
    d2 = a.left_op(y) @ a.right_op(x) - a.left_op(x) @ a.right_op(y)
    return d1, d2, ref_d3(a, x, y)


def ref_classify_regularity(a):
    """classify_regularity as it was: the local law on the pairs i < j, then
    d(e_i, e_i) = 0, then the cyclic sum of d3, then normality."""
    n = a.dim
    basis = a.basis_elements()
    zero = [[a.field.zero()] * n for _ in range(n)]
    d3 = {}
    for i in range(n):
        for j in range(i + 1, n):
            maps = ref_derivation_maps(a, basis[i], basis[j])
            d3[i, j], d3[j, i] = maps[2], -maps[2]
            try:
                triality.verify_local(a, *maps)
            except RelationFails:
                return "none"
    for i in range(n):
        if any(m.rows != zero for m in ref_derivation_maps(a, basis[i], basis[i])):
            return "none"
        d3[i, i] = LinearMap(a, zero)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = d3[i, j](basis[k]) + d3[j, k](basis[i]) + d3[k, i](basis[j])
                if not acc.is_zero():
                    return "regular"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                total = (ref_derivation_maps(a, z, x * y)[0]
                         + ref_derivation_maps(a, y, z * x)[1] + ref_d3(a, x, y * z))
                if total.rows != zero:
                    return "pre-normal"
    return "normal"


def classified(fn, a):
    try:
        return fn(a)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("field", ["Q", "Qsqrt3", "F7", "F13"])
def test_classify_regularity_matches_reference(field):
    """Every named algebra of dimension at most 4, and two copies of it with
    one structure constant shifted."""
    seen = set()
    for name in NAMED:
        try:
            a = algebra(name, field)
        except SqrtUnavailable:
            continue
        if a.dim > 4:
            continue
        n = a.dim
        for b in (a, _perturbed(a), _shifted(a, n - 1, 0, n // 2, a.field.from_int(2))):
            want = ref_classify_regularity(b)
            assert classified(triality.classify_regularity, b) == want, name
            seen.add(want)
    assert seen == {"normal", "none"}


@st.composite
def small_algebras(draw):
    """Two- and three-dimensional algebras over F3, F5 and Q with sparse
    random structure constants and a random symmetric form, degenerate or
    not."""
    f = parse_field(draw(st.sampled_from(["F3", "F5", "Q"])))
    n = draw(st.integers(2, 3))
    values = st.integers(-1, 1) if f.p is None else st.integers(0, f.p - 1)
    structure = [[[f.from_int(draw(values)) if draw(st.integers(0, 3)) == 0 else f.zero()
                   for _ in range(n)] for _ in range(n)] for _ in range(n)]
    form = [[f.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            form[i][k] = form[k][i] = f.from_int(draw(values))
    return Algebra(f, structure, form=form)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_classify_regularity_matches_reference_on_small_algebras(a):
    assert triality.classify_regularity(a) == ref_classify_regularity(a)


def test_classify_regularity_reaches_each_verdict():
    """e0 e0 = e1 with the form diag(1, 0) is pre-normal: its derivation
    triples are local, but Q(e0, e0, e0) = d3(e0, e1) != 0."""
    f = parse_field("F5")
    one, zero = f.one(), f.zero()
    structure = [[[zero, one], [zero, zero]], [[zero, zero], [zero, zero]]]
    a = Algebra(f, structure, form=[[one, zero], [zero, zero]])
    assert triality.classify_regularity(a) == ref_classify_regularity(a) == "pre-normal"
    assert triality.classify_regularity(algebra("para:4", "F5")) == "normal"
    assert triality.classify_regularity(algebra("hurwitz:2", "F5")) == "none"
    with pytest.raises(AlgebraError, match="^algebra has no bilinear form$"):
        triality.classify_regularity(Algebra(f, [[[one]]]))


# ---------------------------------------------------------------------------
# One builder per construction: hurwitz_sigma, verify_elduque_form and
# r3_construction against the copies they replaced
# ---------------------------------------------------------------------------


def ref_hurwitz_sigma(h, a):
    """hurwitz_sigma as it was, with its own copy of order3_auto's checks."""
    autos.check_sphere_point(h, a)
    abar = h.involute(a)
    sigma = h.left_op(abar) @ h.right_op(a)
    if sigma != h.right_op(a) @ h.left_op(abar):
        raise RelationFails("the two operator orders disagree")
    autos.certify_automorphism(h, sigma)
    if not (sigma @ (h.left_op(a) @ h.right_op(abar))).is_identity():
        raise RelationFails("sigma(conj a) is not the inverse")
    if not (sigma @ sigma @ sigma).is_identity():
        raise RelationFails("order is not 3")
    if sigma(h.unit_element()) != h.unit_element():
        raise RelationFails("unit is not fixed")
    w = triality.form_law_failure(h, sigma, sigma)
    if w is not None:
        raise RelationFails("sigma is not an isometry", witness=w)
    return sigma


def ref_verify_elduque_form(h, a_list, side="left"):
    """verify_elduque_form as it was, with a loop per side."""
    r = len(a_list)
    if r == 0:
        raise ValueError("empty chain")
    e = h.unit_element()
    nested = a_list[-1]
    for x in reversed(a_list[:-1]):
        nested = x * nested
    reversed_nested = a_list[-1]
    for x in reversed(a_list[:-1]):
        reversed_nested = reversed_nested * x
    if nested != e or reversed_nested != e:
        raise RelationFails("the chain does not multiply to the unit")
    if side == "left":
        op = h.left_op(a_list[0])
        for x in a_list[1:]:
            op = op @ h.left_op(x)
    elif side == "right":
        op = h.right_op(a_list[0])
        for x in a_list[1:]:
            op = op @ h.right_op(x)
    elif side == "mixed":
        op = h.left_op(a_list[0]) @ h.right_op(a_list[0])
        for x in a_list[1:]:
            op = op @ h.left_op(x) @ h.right_op(x)
    else:
        raise ValueError("side must be left, right, or mixed")
    autos.certify_automorphism(h, op)
    if r == 2 and not op.is_identity():
        raise RelationFails("length-2 chain must give the identity")
    if r == 3:
        one = h.field.one()
        norms_one = all(h.form_eval(x, x) == one for x in a_list)
        eps = [h.form_eval(e, x) for x in a_list]
        degenerate = (one - (eps[0] ** 2 + eps[1] ** 2 + eps[2] ** 2)
                      + h.field.from_int(2) * eps[0] * eps[1] * eps[2]).is_zero()
        if norms_one and degenerate:
            ident = h.identity_map()
            if op @ op != h.field.from_int(2) * op - ident:
                raise RelationFails("length-3 degenerate chain is not unipotent")
    return op


def ref_r3_construction(h, data):
    """r3_construction as it was, with the three chain products written out."""
    defect = autos._r3_defect(h, data)
    if defect is not None:
        raise AlgebraError(defect)
    eps, bs = data.eps, data.bs
    e = h.unit_element()
    a = [bs[j] + eps[j] * e for j in range(3)]
    for j in range(3):
        want = h.involute(a[(j + 2) % 3])
        if a[j] * a[(j + 1) % 3] != want or a[(j + 1) % 3] * a[j] != want:
            raise RelationFails("chain elements do not pair to conjugates",
                                witness=(j + 1,))
    if a[0] * (a[1] * a[2]) != e or (a[2] * a[1]) * a[0] != e:
        raise RelationFails("unit chain condition fails")
    sigma = h.left_op(a[0]) @ h.left_op(a[1]) @ h.left_op(a[2])
    rights = h.right_op(a[0]) @ h.right_op(a[1]) @ h.right_op(a[2])
    mixed = (h.left_op(a[0]) @ h.right_op(a[0]) @ h.left_op(a[1]) @ h.right_op(a[1])
             @ h.left_op(a[2]) @ h.right_op(a[2]))
    ident = h.identity_map()
    rewrites = [
        rights,
        mixed,
        ident + eps[2] * (h.left_op(bs[0]) @ h.left_op(bs[1])),
        ident + eps[1] * (h.left_op(bs[2]) @ h.left_op(bs[0])),
        ident + eps[0] * (h.left_op(bs[1]) @ h.left_op(bs[2])),
    ]
    for t, other in enumerate(rewrites):
        if sigma != other:
            raise RelationFails("rewrites of sigma disagree", witness=(t,))
    autos.certify_automorphism(h, sigma)
    if sigma @ sigma != h.field.from_int(2) * sigma - ident:
        raise RelationFails("sigma is not unipotent")
    return sigma


def returned(fn, *args):
    """`outcome` on failure, else the rows of the map returned."""
    try:
        m = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return m.rows


def message(verdict):
    return verdict[1] if isinstance(verdict, tuple) else None


def unital_variants(h):
    """h, and copies with structure constant (1, 2, 2) or (1, 3, 0) shifted
    by one, with the involution negated, with its (1, 1) entry negated, with
    the unit moved by e_1 - e_2, and with the last diagonal form entry
    doubled."""
    f, n, one = h.field, h.dim, h.field.one()
    parts = dict(form=h.form, involution=h.involution, unit=h.unit, name=h.name)
    flipped = [list(r) for r in h.involution]
    flipped[1][1] = -flipped[1][1]
    unit = list(h.unit)
    unit[1], unit[2] = unit[1] + one, unit[2] - one
    form = [list(r) for r in h.form]
    form[n - 1][n - 1] = f.from_int(2) * form[n - 1][n - 1]
    return [h, _shifted(h, 1, 2, 2, one), _shifted(h, 1, 3, 0, one)] + [
        Algebra(f, h.structure, **dict(parts, **change)) for change in (
            {"involution": [[-x for x in r] for r in h.involution]}, {"involution": flipped},
            {"unit": unit}, {"form": form})]



UNITAL = [("hurwitz:4", "Q"), ("hurwitz:4", "F13"), ("hurwitz:8", "Qsqrt3"),
          ("hurwitz:8:split", "F7")]


def test_hurwitz_sigma_matches_reference():
    """Three sphere points, one of them moved off the sphere, and a random
    element, on each variant of each algebra; with certify_automorphism
    stubbed out as well, so that every check after it is reached."""
    seen = set()
    for case in UNITAL:
        h = algebra(*case)
        rng = random.Random(case[0] + case[1])
        points = rng.sample(autos._sphere_patterns(h), 3)
        points[2] = points[2] + h.basis(rng.randrange(1, h.dim))
        points.append(random_element(h, rng))
        for v in unital_variants(h):
            for stub in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if stub:
                        mp.setattr(autos, "certify_automorphism", lambda alg, g: g)
                    for x in points:
                        x = v.element(x.coords)
                        want = returned(ref_hurwitz_sigma, v, x)
                        assert returned(autos.hurwitz_sigma, v, x) == want, case
                        seen.add(message(want))
    assert seen == {None, "point does not have norm one",
                    "point is not on the affine sphere slice",
                    "the two operator orders disagree", "map is not an automorphism",
                    "sigma(conj a) is not the inverse", "order is not 3", "unit is not fixed",
                    "sigma is not an isometry"}


def chains(h, rng, data):
    """Chains of length 0 to 3: x, x^-1 both ways round, with e in front,
    and with e scaled by 2 against x^-1 / 2; a norm-one u with e in front of
    u and conj(u); x, x; and the r3 chain b_j + e of `data`, if any."""
    e = h.unit_element()
    two = h.field.from_int(2)
    x = next(y for y in iter(lambda: random_element(h, rng), None)
             if not h.form_eval(y, y).is_zero())
    xinv = h.involute(x) / h.form_eval(x, x)
    out = [[], [e], [x, xinv], [xinv, x], [x, x], [e, x, xinv], [two * e, x, xinv / two]]
    units = [b for b in h.basis_elements()[1:] if h.form_eval(b, b) == h.field.one()]
    if units:
        out.append([e, units[0], h.involute(units[0])])
    if data is not None:
        out.append([b + e for b in data.bs])
    return out


def r3_inputs(data):
    """The chain data, with two signs flipped, with b_2 and b_3 swapped, and
    with one sign flipped."""
    one, bs = data.eps[0], data.bs
    return [data, autos.R3Data((one, -one, -one), bs),
            autos.R3Data(data.eps, (bs[0], bs[2], bs[1])), autos.R3Data((one, one, -one), bs)]


CHAIN_ALGEBRAS = [("hurwitz:4", "Q"), ("zorn", "F5"), ("hurwitz:8:split", "Qsqrt3")]


def test_chain_products_match_reference():
    """verify_elduque_form on every side and a bad one, and r3_construction,
    on each variant of each algebra, with certify_automorphism stubbed out
    as well."""
    seen = set()
    for case in CHAIN_ALGEBRAS:
        h = algebra(*case)
        rng = random.Random(case[0] + case[1])
        try:
            data = autos.find_r3_data(h)
        except AlgebraError:  # a division algebra has no such chain
            data = None
        inputs = chains(h, rng, data)
        data = [] if data is None else r3_inputs(data)
        for v in unital_variants(h):
            moved = [[v.element(x.coords) for x in c] for c in inputs]
            moved_data = [autos.R3Data(d.eps, tuple(v.element(b.coords) for b in d.bs))
                          for d in data]
            for stub in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if stub:
                        mp.setattr(autos, "certify_automorphism", lambda alg, g: g)
                    for c in moved:
                        for side in ("left", "right", "mixed", "diagonal"):
                            want = returned(ref_verify_elduque_form, v, c, side)
                            assert returned(autos.verify_elduque_form, v, c, side) == want
                            seen.add(("chain", message(want)))
                    for d in moved_data:
                        want = returned(ref_r3_construction, v, d)
                        assert returned(autos.r3_construction, v, d) == want
                        seen.add(("r3", message(want)))
    assert {m for kind, m in seen if kind == "chain"} == {
        None, "empty chain", "side must be left, right, or mixed",
        "the chain does not multiply to the unit", "map is not an automorphism",
        "length-2 chain must give the identity", "length-3 degenerate chain is not unipotent"}
    assert {m for kind, m in seen if kind == "r3"} >= {
        None, "eps product is not 1", "chain elements do not pair to conjugates",
        "rewrites of sigma disagree"}
