"""Product triples on symmetric composition algebras and what they generate.

A symmetric composition algebra satisfies (xy)x = x(yx) = <x|x>y for a
nondegenerate symmetric form.  A product triple (a1, a2, a3) of norm-one
elements with a_j a_{j+1} = a_{j+2} yields two operator triality triples
(sigma and theta, built from right and left multiplications); transport
vectors p orthogonal to the triple yield local triality triples D_j(a, p).
The module also enumerates the full triality group in dimensions 1 and 2
over a prime field, and the automorphism group in dimension 2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import add, mul
from typing import Callable, List, Optional, Sequence, Tuple

from .algebra import Algebra, AlgebraError, Element, LinearMap, _int_map
from .autos import certify_automorphism
from .constructors import make_para_dim2
from .dual import Dual
from .fields import PRIME, FieldDescriptor, FieldElement, sqrt_in_field
from .triality import (
    Certificate,
    LocalTriple,
    RelationFails,
    TrialityTriple,
    _gram_of,
    _is_symcomp,
    _linearized_law,
    _outer,
    _wedge,
    derivation_pair,
    earliest_failure,
    first_failing_tuple,
    form_law_failure,
    isometry_failure,
    klein_triples,
    linearized_failure,
    verify_local,
    verify_triality,
)


# ---------------------------------------------------------------------------
# Defining identities
# ---------------------------------------------------------------------------

def is_symmetric_composition(a: Algebra) -> Certificate:
    """Certify (xy)x = x(yx) = <x|x>y together with its consequences:
    the composition law <xy|xy> = <x|x><y|y>, form associativity
    <xy|z> = <x|yz>, the linearized law, and (xy)(yz) = 2<x|yz>y - <y|y>zx.

    Checks run over basis tuples, which is complete by multilinearity
    (quadratic occurrences are covered by the polarized variants).  The
    certificate is computed once per algebra and kept on it.

    The generating clause is scanned first: linearized,
    (xy)z + (zy)x = 2<x|z>y = x(yz) + z(yx).  When it holds (on basis
    tuples, so for all x, y, z) the other five follow, as 2 is invertible,
    and are recorded as holding without a scan:

    - two-sided norm and form associativity are the lemma of
      `triality._is_symcomp`; with the roles of x and y swapped the first
      gives y(xy) = <y|y>x and (yz)y = <y|y>z;
    - composition: <xy|xy> = <x|y(xy)> = <y|y><x|x>;
    - polarized: <xy|zw> + <zy|xw> = <(xy)z + (zy)x|w> = 2<x|z><y|w>;
    - product exchange: a(yb) + b(ya) = 2<a|b>y with a = xy, b = z gives
      (xy)(yz) = 2<xy|z>y - z(y(xy)) = 2<x|yz>y - <y|y>zx.

    When linearized fails, the other five are scanned for their witnesses
    too, in record order.  Two-sided norm reads the linearized test at
    (i, j, i), and composition only the diagonal (i, j, i, j) of polarized;
    the other three are checked as identities of maps built from L(e_i) and
    R(e_i): polarized as Gram maps, form associativity as an adjointness
    and product exchange as a closed form.
    """
    return a._verdict("symcomp", lambda: _symcomp_certificate(a))


def _symcomp_certificate(a: Algebra) -> Certificate:
    """`is_symmetric_composition` computed afresh."""
    cert = Certificate()
    linearized = linearized_failure(a)
    if linearized is not None:
        lefts = [a.left_op(a.basis(i)) for i in range(a.dim)]
        rights = [a.right_op(a.basis(i)) for i in range(a.dim)]
    for clause, failure in (("two-sided-norm-law", _two_sided_norm_failure),
                            ("composition-law", _composition_failure),
                            ("polarized-composition-law", _polarized_failure),
                            ("form-associativity", _form_associativity_failure),
                            ("linearized-norm-law", None),
                            ("product-exchange-law", _product_exchange_failure)):
        w = failure(a, lefts, rights) if failure and linearized is not None else linearized
        cert.add(clause, w is None, w)
    return cert


# The clauses linearized implies, each given the maps L(e_i) and R(e_i) and
# returning its first failing basis tuple in row-major order, or None.

def _two_sided_norm_failure(a: Algebra, lefts: list, rights: list) -> Optional[tuple]:
    """(xy)x = <x|x>y = x(yx) at x = e_i, y = e_j: the linearized law at
    (i, j, i), whose halves there read 2(xy)x and 2x(yx) against 2<x|x>y."""
    law = _linearized_law(a)
    return first_failing_tuple(lambda i, j: law(i, j, i), a.dim, a.dim)


def _composition_failure(a: Algebra, lefts: list, rights: list) -> Optional[tuple]:
    """<xy|xy> = <x|x><y|y> at x = e_i, y = e_j."""
    return first_failing_tuple(lambda i, j: a.form_eval(p := lefts[i](a.basis(j)), p)
                               == a.form[i][i] * a.form[j][j], a.dim, a.dim)


def _polarized_failure(a: Algebra, lefts: list, rights: list) -> Optional[tuple]:
    """<xy|zw> + <zy|xw> = 2<x|z><y|w> at (e_i, e_j, e_k, e_l): for each x
    and z the map P = M + M^T - 2<x|z> G, M the Gram map (entry (l, j); see
    `triality._gram`) of (L_x, L_z), read off G L_x, built once per x.  As
    G is symmetric, M^T is the Gram map of (L_z, L_x) and P(z, x) = P(x, z),
    so at x = e_i each z = e_k with k < i was read as zero at x = e_k, and
    only k >= i is read.  The first nonzero entry (j, l) of P gives the
    least (j, k, l) for the least i."""
    g = a.form_map()
    for i, lx in enumerate(lefts):
        glx = g @ lx
        ws = []
        for k in range(i, a.dim):
            m = _gram_of(glx, lefts[k])
            m = m + m.transpose()
            if a.form[i][k]:
                m = m - 2 * a.form[i][k] * g
            if w := m.first_nonzero():
                ws.append((w[0], k, w[1]))
        if ws:
            return (i, *min(ws))
    return None


def _form_associativity_failure(a: Algebra, lefts: list, rights: list) -> Optional[tuple]:
    """<xy|z> = <x|yz> at (e_i, e_j, e_k): for each y = e_j the adjointness
    <R_y x|z> = <x|L_y z> at (i, k), the least (i, j, k) of them."""
    return min(((w[0], j, w[1]) for j, (ly, ry) in enumerate(zip(lefts, rights))
                if (w := form_law_failure(a, ry, None, None, ly))), default=None)


def _product_exchange_failure(a: Algebra, lefts: list, rights: list) -> Optional[tuple]:
    """(xy)(yz) = 2<x|yz>y - <y|y>zx at x = e_i, z = e_k, with y over the
    basis and then the sums e_s + e_t (s < t), as the law is quadratic in
    y: the map L_xy L_y - 2 outer(y, x) L_y + <y|y> R_x of z (`_outer`)
    vanishes.  The witness is (i, k), for the first y that fails."""
    n = a.dim
    ys = [(a.basis(s), lefts[s]) for s in range(n)] + [
        (a.basis(s) + a.basis(t), lefts[s] + lefts[t]) for s in range(n) for t in range(s + 1, n)]
    for i, rx in enumerate(rights):
        x = a.basis(i)
        for y, ly in ys:
            w = (a.left_op(x * y) @ ly - 2 * _outer(a, y, x) @ ly
                 + a.form_eval(y, y) * rx).first_nonzero()
            if w is not None:
                return (i, w[0])
    return None


# ---------------------------------------------------------------------------
# Product triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaTriple:
    """Norm-one elements with a_j a_{j+1} = a_{j+2} for all j (indices mod 3)."""

    algebra: Algebra
    elems: Tuple[Element, Element, Element]

    def comp(self, j: int) -> Element:
        return self.elems[(j - 1) % 3]

    def __iter__(self):
        return iter(self.elems)


def certify_sigma(a: Algebra, a1: Element, a2: Element, a3: Element) -> SigmaTriple:
    elems = (a1, a2, a3)
    one = a.field.one()
    for j, x in enumerate(elems):
        if a.form_eval(x, x) != one:
            raise RelationFails(f"component {j + 1} does not have norm one")
    for j in range(3):
        if elems[j] * elems[(j + 1) % 3] != elems[(j + 2) % 3]:
            raise RelationFails(
                f"a{j + 1} a{(j + 1) % 3 + 1} != a{(j + 2) % 3 + 1}", witness=(j + 1,)
            )
    return SigmaTriple(a, elems)


def sigma_from_pair(a: Algebra, x: Element, y: Element) -> SigmaTriple:
    """Build (x, y, xy); on a symmetric composition algebra the remaining
    product relations follow from the two-sided norm law."""
    return certify_sigma(a, x, y, x * y)


def sigma_maps(a: SigmaTriple) -> List[LinearMap]:
    """sigma_j = R(a_{j+1}) R(a_{j+2})."""
    alg = a.algebra
    return [alg.right_op(a.comp(j + 1)) @ alg.right_op(a.comp(j + 2)) for j in range(1, 4)]


def theta_maps(a: SigmaTriple) -> List[LinearMap]:
    """theta_j = L(a_{j+2}) L(a_{j+1})."""
    alg = a.algebra
    return [alg.left_op(a.comp(j + 2)) @ alg.left_op(a.comp(j + 1)) for j in range(1, 4)]


def sigma_theta_triples(a: SigmaTriple) -> Tuple[TrialityTriple, TrialityTriple]:
    """Certify the sigma and theta operator triples of a product triple.

    Verified properties: both are triality triples; sigma_j theta_j =
    theta_j sigma_j = Id; theta_j theta_{j+1} theta_{j+2} = Id and
    sigma_{j+2} sigma_{j+1} sigma_j = Id; <sigma_j x|y> = <x|theta_j y>;
    both are isometries; and the closed forms
    sigma_j x = 2<a_{j+1}|x>a_{j+2} - a_j x,
    theta_j x = 2<a_{j+2}|x>a_{j+1} - x a_j.

    Only sigma is certified as a triality triple and an isometry: once
    sigma_j theta_j = Id, theta_j = sigma_j^{-1}, and the inverses of a
    triality triple are one (put x = theta_{j+1} u, y = theta_{j+2} v in the
    law of sigma_j); <sigma_j x|y> = <sigma_j x|sigma_j theta_j y> =
    <x|theta_j y> and <theta_j x|theta_j y> = <x|y> the same way.  The
    isometry verdicts that `verify_triality` reads for its guard (sigma_1
    and sigma_2) stay on the maps (`isometry_failure`), so each sigma_j is
    scanned for isometry at most once.
    """
    alg = a.algebra
    sigma = verify_triality(alg, *sigma_maps(a))
    theta = TrialityTriple(alg, theta_maps(a))
    # A one-sided inverse of a square matrix is two-sided, so sigma_j theta_j
    # = Id gives theta_j sigma_j = Id too.
    for j in range(1, 4):
        if not (sigma.comp(j) @ theta.comp(j)).is_identity():
            raise RelationFails(f"sigma_{j} theta_{j} != Id", witness=(j,))
    # As sigma_j = theta_j^{-1}, the other five triple products are conjugates
    # of this one or inverses of those, so they hold when it does.
    if not (theta.comp(1) @ theta.comp(2) @ theta.comp(3)).is_identity():
        raise RelationFails("theta product at j=1 is not Id", witness=(1,))
    for j, s in enumerate(sigma, 1):
        w = isometry_failure(s)
        if w is not None:
            raise RelationFails("sigma is not an isometry", witness=(j, *w))
    for j in range(1, 4):
        aj, aj1, aj2 = a.comp(j), a.comp(j + 1), a.comp(j + 2)
        # the first basis index where each map and its closed form differ;
        # the row is left out, so that a tie goes to sigma
        ws = (sigma.comp(j) - (2 * _outer(alg, aj2, aj1) - alg.left_op(aj))).first_nonzero()
        wt = (theta.comp(j) - (2 * _outer(alg, aj1, aj2) - alg.right_op(aj))).first_nonzero()
        failure = earliest_failure([("sigma closed form fails", ws and ws[0]),
                                    ("theta closed form fails", wt and wt[0])])
        if failure is not None:
            raise RelationFails(failure[0], witness=(j, failure[1]))
    return sigma, theta


def _cycled(g: TrialityTriple, shift: int) -> Tuple[LinearMap, LinearMap, LinearMap]:
    return tuple(g.maps[(i + shift) % 3] for i in range(3))


def act_on_sigma(g: TrialityTriple, a: SigmaTriple, shift: int = 0) -> SigmaTriple:
    """Apply a triality triple componentwise to a product triple, with an
    optional cyclic shift of the triple's components first; re-certified."""
    maps = _cycled(g, shift)
    return certify_sigma(a.algebra, *(m(x) for m, x in zip(maps, a.elems)))


def conjugation_law(g: TrialityTriple, a: SigmaTriple) -> SigmaTriple:
    """Verify how triality triples move product triples and their operators:

    - ga = (g1 a1, g2 a2, g3 a3) is again a product triple (returned);
    - g_j theta_j(a) g_{j+1}^{-1} = theta_j(b) where b_m = g_{m-1} a_m;
    - g_j sigma_j(a) g_{j+2}^{-1} = sigma_j(c) where c_m = g_{m+1} a_m.
    """
    ga = act_on_sigma(g, a)
    b = act_on_sigma(g, a, shift=-1)
    c = act_on_sigma(g, a, shift=1)
    theta_a, theta_b = theta_maps(a), theta_maps(b)
    sigma_a, sigma_c = sigma_maps(a), sigma_maps(c)
    for j in range(1, 4):
        lhs = g.comp(j) @ theta_a[j - 1] @ g.comp(j + 1).inverse()
        if lhs != theta_b[j - 1]:
            raise RelationFails("theta conjugation fails", witness=(j,))
        lhs = g.comp(j) @ sigma_a[j - 1] @ g.comp(j + 2).inverse()
        if lhs != sigma_c[j - 1]:
            raise RelationFails("sigma conjugation fails", witness=(j,))
    return ga


def normal_subgroup_generators(a: SigmaTriple, b: SigmaTriple,
                               c: SigmaTriple) -> List[TrialityTriple]:
    """Componentwise products sigma(a)theta(b), theta(a)sigma(b),
    sigma(a)sigma(b)sigma(c), theta(a)theta(b)theta(c), each certified.
    Conjugating any of them by a triality triple lands back in this family,
    so the subgroup they generate is normal."""
    alg = a.algebra
    sa, ta = sigma_maps(a), theta_maps(a)
    sb, tb = sigma_maps(b), theta_maps(b)
    sc, tc = sigma_maps(c), theta_maps(c)
    out = [
        verify_triality(alg, *(x @ y for x, y in zip(sa, tb))),
        verify_triality(alg, *(x @ y for x, y in zip(ta, sb))),
        verify_triality(alg, *(x @ y @ z for x, y, z in zip(sa, sb, sc))),
        verify_triality(alg, *(x @ y @ z for x, y, z in zip(ta, tb, tc))),
    ]
    return out


# ---------------------------------------------------------------------------
# Transport vectors and the local triples they induce
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaVector:
    """Vectors p_j with a_j p_{j+1} + p_j a_{j+1} = p_{j+2} and <p_j|a_j> = 0,
    stored together with the companions q_j = a_{j+1} p_{j+2}."""

    base: SigmaTriple
    ps: Tuple[Element, Element, Element]
    qs: Tuple[Element, Element, Element]

    def p_comp(self, j: int) -> Element:
        return self.ps[(j - 1) % 3]

    def q_comp(self, j: int) -> Element:
        return self.qs[(j - 1) % 3]


def lambda_vector(a: SigmaTriple, p1: Element, p2: Element,
                  p3: Optional[Element] = None) -> LambdaVector:
    """Certify (p1, p2, p3) as a transport vector of a, deriving
    p3 = a1 p2 + p1 a2 when not supplied, and verify the q-companion
    identities (recursion, inversion, orthogonality).

    The 21 relations are the p recursion and <p_j|a_j> = 0 at j = 1, 2, 3,
    then at each j the relations q, <q_j|a_j> = 0, pq, pq2 and qrec, in the
    order of `_scanned_transport_vector`.  They are scanned only where a
    guard or a check fails, so a failure's message and witness are the
    scan's.  The guard: the algebra has a form and passes the linearized law
    (`triality._is_symcomp`),

        (xy)z + (zy)x = 2<x|z>y = x(yz) + z(yx),                    (L)

    and <a1|a1> = <a2|a2> = 1 and a1 a2 = a3.  The checks:
    p3 = a1 p2 + p1 a2 (the p recursion at j = 1) and <p1|a1> = <p2|a2> = 0.
    Under them the other 18 relations hold:

    - (xy)x = x(yx) = <x|x>y and <xy|z> = <x|yz> by the lemma of
      `triality._is_symcomp`, so <xy|z> = <y|zx> as the form is symmetric.
    - The rest of the triple: a2 a3 = a2(a1 a2) = a1, a3 a1 = (a1 a2)a1 =
      a2 and <a3|a3> = <a1|a2(a1 a2)> = <a1|a1> = 1.  So <a_j|a_j> = 1 and
      a_j a_{j+1} = a_{j+2} for every j, and (a_j y)a_j = a_j(y a_j) = y.
    - p recursion at j = 2: (L) at (a2, a1, p2) gives a2(a1 p2) =
      2<a2|p2>a1 - p2(a1 a2) = -p2 a3, and a2(p1 a2) = p1, so
      a2 p3 + p2 a3 = p1.
    - p recursion at j = 3: (L) at (p1, a2, a1) gives (p1 a2)a1 =
      2<p1|a1>a2 - (a1 a2)p1 = -a3 p1, and (a1 p2)a1 = p2, so
      a3 p1 + p3 a1 = p2.
    - <p3|a3> = <a1 p2|a3> + <p1 a2|a3> = <p2|a3 a1> + <p1|a2 a3> =
      <p2|a2> + <p1|a1> = 0, and <q_j|a_j> = <a_{j+1} p_{j+2}|a_j> =
      <p_{j+2}|a_j a_{j+1}> = <p_{j+2}|a_{j+2}> = 0.
    - q: q_j = a_{j+1} p_{j+2} = p_j - p_{j+1} a_{j+2} is the p recursion
      at j + 1.
    - pq: q_{j+1} a_{j+2} = (a_{j+2} p_j)a_{j+2} = p_j.
    - pq2: q_{j+2} = a_j p_{j+1}, so by the p recursion at j,
      q_j - a_{j+1} q_{j+2} = a_{j+1}(p_{j+2} - a_j p_{j+1}) =
      a_{j+1}(p_j a_{j+1}) = p_j.
    - qrec: (L) at (a_j, a_{j+2}, p_j) gives a_j(a_{j+2} p_j) =
      2<a_j|p_j>a_{j+2} - p_j(a_{j+2} a_j) = -p_j a_{j+1}; with
      q_j a_{j+1} = (a_{j+1} p_{j+2})a_{j+1} = p_{j+2} and the p recursion
      at j, a_j q_{j+1} + q_j a_{j+1} = p_{j+2} - p_j a_{j+1} = a_j p_{j+1}
      = q_{j+2}.
    """
    return _transport_vector(a, _transport_guard(a), p1, p2, p3)


def lambda_space(a: SigmaTriple) -> List[LambdaVector]:
    """Basis of the space of transport vectors: all (p1, p2) with
    <p1|a1> = <p2|a2> = 0, each packaged and re-certified as by
    `lambda_vector`, whose guard is read once.  The basis is the RREF
    kernel basis (see `linalg._kernel`) of the two covector rows,
    <a1|.> on p1 and <a2|.> on p2: the two rows share no column, so it is
    the basis of a1's orthogonal space paired with 0, then 0 paired with the
    basis of a2's."""
    alg = a.algebra
    proven = _transport_guard(a)
    zero = 0 * a.comp(1)
    return ([_transport_vector(a, proven, p1, zero) for p1 in alg.orthogonal_space([a.comp(1)])]
            + [_transport_vector(a, proven, zero, p2) for p2 in alg.orthogonal_space([a.comp(2)])])


def _transport_guard(a: SigmaTriple) -> bool:
    """The guard of `lambda_vector`'s proof: a form, the linearized law, and
    a triple of the algebra with <a1|a1> = <a2|a2> = 1 and a1 a2 = a3."""
    alg = a.algebra
    a1, a2, a3 = a.elems
    one = alg.field.one()
    return (all(x.algebra is alg for x in a.elems) and _is_symcomp(alg)
            and alg.form_eval(a1, a1) == one and alg.form_eval(a2, a2) == one and a1 * a2 == a3)


def _transport_vector(a: SigmaTriple, proven: bool, p1: Element, p2: Element,
                      p3: Optional[Element] = None) -> LambdaVector:
    """`lambda_vector` under the verdict `proven` of its guard: four products
    and two form values when the guard and the checks hold, else the scan."""
    alg = a.algebra
    a1, a2, a3 = a.elems
    zero = alg.field.zero()
    # the scan's first products, so that a foreign operand raises as there
    q3 = a1 * p2
    derived = q3 + p1 * a2
    if (proven and (p3 is None or p3 == derived)
            and alg.form_eval(p1, a1) == zero and alg.form_eval(p2, a2) == zero):
        return LambdaVector(a, (p1, p2, derived), (a2 * derived, a3 * p1, q3))
    return _scanned_transport_vector(a, p1, p2, derived if p3 is None else p3)


def _scanned_transport_vector(a: SigmaTriple, p1: Element, p2: Element,
                              p3: Element) -> LambdaVector:
    """The 21 relations of `lambda_vector`, each tested in turn."""
    alg = a.algebra
    ps = (p1, p2, p3)

    def p(j: int) -> Element:
        return ps[(j - 1) % 3]

    zero = alg.field.zero()
    for j in range(1, 4):
        if a.comp(j) * p(j + 1) + p(j) * a.comp(j + 1) != p(j + 2):
            raise RelationFails("p recursion fails", witness=("p", j))
        if alg.form_eval(p(j), a.comp(j)) != zero:
            raise RelationFails("p is not orthogonal to a", witness=("p-orth", j))
    qs = tuple(a.comp(j + 1) * p(j + 2) for j in range(1, 4))

    def q(j: int) -> Element:
        return qs[(j - 1) % 3]

    for j in range(1, 4):
        if q(j) != p(j) - p(j + 1) * a.comp(j + 2):
            raise RelationFails("q has two inconsistent expressions",
                                witness=("q", j))
        if alg.form_eval(q(j), a.comp(j)) != zero:
            raise RelationFails("q is not orthogonal to a", witness=("q-orth", j))
        if p(j) != q(j + 1) * a.comp(j + 2):
            raise RelationFails("p recovery from q fails", witness=("pq", j))
        if p(j) != q(j) - a.comp(j + 1) * q(j + 2):
            raise RelationFails("p recovery from q fails", witness=("pq2", j))
        if a.comp(j) * q(j + 1) + q(j) * a.comp(j + 1) != q(j + 2):
            raise RelationFails("q recursion fails", witness=("qrec", j))
    return LambdaVector(a, ps, qs)


def _local_D_maps(a: SigmaTriple, p: LambdaVector) -> List[LinearMap]:
    """D_j x = (p_{j+1} x) a_{j+1} + a_j (x q_j) for j = 1, 2, 3, uncertified."""
    alg = a.algebra
    return [alg.right_op(a.comp(j + 1)) @ alg.left_op(p.p_comp(j + 1))
            + alg.left_op(a.comp(j)) @ alg.right_op(p.q_comp(j)) for j in range(1, 4)]


def local_D(a: SigmaTriple, p: LambdaVector) -> LocalTriple:
    """Local triple D_j x = (p_{j+1} x) a_{j+1} + a_j (x q_j), certified
    against the local triality law; the two alternative closed forms must
    produce the identical matrices."""
    alg = a.algebra
    two = alg.field.from_int(2)
    mats = _local_D_maps(a, p)
    for j, dj in enumerate(mats, 1):
        # x -> 2<q|x> a - 2<a|x> q and 2<p|x> a - 2<a|x> p, for a, p, q at j + 2
        alt1 = (_wedge(alg, two * a.comp(j + 2), p.q_comp(j + 2))
                + alg.left_op(a.comp(j)) @ alg.right_op(p.p_comp(j)))
        alt2 = (_wedge(alg, two * a.comp(j + 2), p.p_comp(j + 2))
                + alg.right_op(a.comp(j + 1)) @ alg.left_op(p.q_comp(j + 1)))
        if dj != alt1 or dj != alt2:
            raise RelationFails("alternative forms of D disagree", witness=(j,))
    return verify_local(alg, *mats)


def cycle_shift(p: LambdaVector) -> LambdaVector:
    """Relabel (a_j, p_j, q_j) -> (a_{j+1}, p_{j+1}, q_{j+1}); the induced
    local triple components shift by one place: D_j(new) = D_{j+1}(old)."""
    a = p.base
    new_base = certify_sigma(a.algebra, a.comp(2), a.comp(3), a.comp(1))
    return lambda_vector(new_base, p.p_comp(2), p.p_comp(3), p.p_comp(1))


def first_order_factorization(p: LambdaVector) -> None:
    """Exact dual-number form of the infinitesimal statement: over F[eps]
    with eps^2 = 0, sigma_j(a) theta_j(a + eps p) = Id + eps D_j(a, p).

    theta_j(a + eps p) = L(a_{j+2} + eps p_{j+2}) L(a_{j+1} + eps p_{j+1}),
    and L is linear, so the product is (S)(A + eps P)(B + eps Q) =
    S A B + eps S (A Q + P B): it equals Id + eps D_j when the maps S A B
    and S (A Q + P B) equal Id and D_j.  On a mismatch the witness is the
    first entry (k, l), in row-major order, where the two dual numbers
    differ.

    Only the factorization is checked here; `local_D` certifies D(a, p) as a
    local triple."""
    a = p.base
    alg = a.algebra
    n = alg.dim
    ds = _local_D_maps(a, p)
    sigmas = sigma_maps(a)
    ident = alg.identity_map()
    # L(a_j) and L(p_j), the two parts of L(a_j + eps p_j), at j - 1
    left = [(alg.left_op(a.comp(j)), alg.left_op(p.p_comp(j))) for j in range(1, 4)]
    for j in range(1, 4):
        (a2, p2), (a1, p1) = left[(j + 1) % 3], left[j % 3]
        sig = sigmas[j - 1]
        re = sig @ (a2 @ a1)
        ep = sig @ (a2 @ p1 + p2 @ a1)
        if re != ident or ep != ds[j - 1]:
            w = first_failing_tuple(lambda k, l: Dual(re.rows[k][l], ep.rows[k][l])
                                    == Dual(ident.rows[k][l], ds[j - 1].rows[k][l]), n, n)
            raise RelationFails("first-order factorization fails", witness=(j, *w))


def express_D_as_d(p: LambdaVector, alpha: FieldElement, beta: FieldElement) -> None:
    """When p3 = 0, the local triple D(a, p) equals the two-element local
    triple d(u, v) with u = (p2 + alpha a2) / (2 beta), v = beta a2; the
    equality is independent of the choice of alpha and beta."""
    if not p.p_comp(3).is_zero():
        raise AlgebraError("the third transport component must vanish")
    if beta.is_zero():
        raise AlgebraError("beta must be invertible")
    a = p.base
    alg = a.algebra
    u = (p.p_comp(2) + alpha * a.comp(2)) / (alg.field.from_int(2) * beta)
    v = beta * a.comp(2)
    d = derivation_pair(alg, u, v)
    big = local_D(a, p)
    for j in range(1, 4):
        if big.comp(j) != d.comp(j):
            raise RelationFails("D does not match d(u, v)", witness=(j,))


@dataclass
class CubicReport:
    delta: FieldElement
    cubic: Tuple[bool, bool, bool]          # d_j^3 = delta d_j
    square: Tuple[bool, bool]               # d_j^2 = delta Id, j = 1, 2
    scaled_third_cubic: bool                # d_3^3 = 4 delta d_3

    @property
    def ok(self) -> bool:
        return all(self.cubic) and all(self.square)


def cubic_identity(a: Algebra, x: Element, y: Element) -> CubicReport:
    """Report which power identities the derivation triple of (x, y)
    satisfies, with delta = 4(<x|y>^2 - <x|x><y|y>).

    The first two components always satisfy d^2 = delta Id, hence the cubic.
    The third component instead satisfies d^3 = 4 delta d: it kills the
    orthogonal complement of span(x, y) and squares to 4 delta there.
    """
    four = a.field.from_int(4)
    delta = four * (a.form_eval(x, y) * a.form_eval(x, y)
                    - a.form_eval(x, x) * a.form_eval(y, y))
    ds = derivation_pair(a, x, y).maps()
    squares = [d @ d for d in ds]
    cubes = [s @ d for s, d in zip(squares, ds)]
    ident = a.identity_map()
    cubic = tuple(c == delta * d for c, d in zip(cubes, ds))
    square = tuple(s == delta * ident for s in squares[:2])
    scaled = cubes[2] == (four * delta) * ds[2]
    return CubicReport(delta=delta, cubic=cubic, square=square, scaled_third_cubic=scaled)


# ---------------------------------------------------------------------------
# Small-dimension enumeration
# ---------------------------------------------------------------------------

@dataclass
class TrigGroup:
    algebra: Algebra
    elements: List[TrialityTriple]
    order: int
    table_hash: str


def _residue_triple(g: TrialityTriple) -> tuple:
    """The three maps of a triple over F_p as tuples of residue rows, read
    off their canonical blocks, which hold the residues."""
    n = g.algebra.dim
    return tuple(tuple(tuple(m._n0[r:r + n]) for r in range(0, n * n, n)) for m in g.maps)


def _mat_mul_mod(x: tuple, y: tuple, p: int) -> tuple:
    """Product of two square residue matrices, given as tuples of rows."""
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in x)


def _group_table(members: List[tuple], p: int) -> List[List[int]]:
    """Cayley table of a set G of triples of residue matrices (see
    `_residue_triple`), multiplied component by component: table[g][h] is
    the index of members[g] members[h].

    Checks, in this order, that G is closed under inverses, closed under
    products, and holds the Klein sign triples; each failure raises
    RelationFails.  A product of members is read from a table over the
    distinct components (at most 2(p + 1) of them in dimension 2) and one
    dict lookup.  No inverse is computed: every member is a triple of
    invertible maps, so g h = 1 forces h = g^-1, and the identity triple
    appears in row g exactly when g^-1 lies in G.
    """
    n = len(members[0][0])
    ident = tuple(tuple(int(i == k) for k in range(n)) for i in range(n))
    comps = {ident: 0}
    ids = [tuple(comps.setdefault(m, len(comps)) for m in g) for g in members]
    mats = list(comps)
    prod = [[comps.get(_mat_mul_mod(x, y, p), -1) for y in mats] for x in mats]
    # the identity triple is (0, 0, 0); when it is no member it gets the
    # index len(members), so a product equal to it still shows in its row
    index = {(0, 0, 0): len(members)}
    index.update((key, g) for g, key in enumerate(ids))
    get = index.get
    table = [[get((r1[h1], r2[h2], r3[h3]), -1) for h1, h2, h3 in ids]
             for r1, r2, r3 in ([prod[c] for c in key] for key in ids)]
    one = index[(0, 0, 0)]
    if not all(one in row for row in table):
        raise RelationFails("group is not closed under inverses")
    if one == len(members) or any(-1 in row for row in table):
        raise RelationFails("group is not closed under products")
    minus = tuple(tuple((p - 1) * v for v in row) for row in ident)
    seen = set(members)
    for signs in ((ident, ident, ident), (ident, minus, minus),
                  (minus, ident, minus), (minus, minus, ident)):
        if signs not in seen:
            raise RelationFails("Klein subgroup is missing")
    return table


def _table_hash(members: List[tuple], table: List[List[int]]) -> str:
    """sha256 of the lines "pos,qos,idx" over the Cayley table, members
    numbered in the order of their keys: each row of each map as a tuple of
    decimal residues, the string form of the FieldElement entries."""
    keys = [tuple(tuple(str(v) for v in row) for m in g for row in m) for g in members]
    order = sorted(range(len(members)), key=keys.__getitem__)
    pos = [0] * len(members)
    for at, g in enumerate(order):
        pos[g] = at
    # line "at,qos,idx" is f"{at}," + cols[qos] + names[idx]
    cols = [f"{qos}," for qos in range(len(order))]
    names = [str(at) for at in range(len(order))]
    digest = hashlib.sha256()
    for at, g in enumerate(order):
        row = table[g]
        lines = f"{at}," + f"\n{at},".join(map(add, cols, [names[pos[row[h]]] for h in order]))
        digest.update((f"\n{lines}" if at else lines).encode())
    return digest.hexdigest()


def residue_arithmetic(a: Algebra) -> Tuple[Callable, Callable]:
    """(multiply, form_eval) over F_p on tuples of int residues:
    `Algebra.int_product` and the sparse rows of the form's map
    (`LinearMap._lines`) reduced mod p, which is exact, as every stored
    numerator is a residue (over F_p a map's denominator is 1) and ints do
    not overflow."""
    p, product, form = a.field.p, a.int_product, a.form_map()._lines(False)

    def multiply(x: tuple, y: tuple) -> tuple:
        return tuple(map(p.__rmod__, product(x, y)[0]))

    def form_eval(x: tuple, y: tuple) -> int:
        return sum(xi * g * y[k] for xi, row in zip(x, form) if xi for k, g, _ in row) % p

    return multiply, form_eval


def _dim2_members(a: Algebra) -> Tuple[List[TrialityTriple], List[tuple]]:
    """Every member of Trig(A) for a two-dimensional A over F_p, certified
    by `verify_triality`, with its residue form (see `enumerate_trig_small`).

    Members share their maps: at p = 7, 128 members have 16 distinct maps.
    Each distinct map is built once, where it first occurs, so its rank and
    its isometry verdict, which `verify_triality` reads for its guard (see
    `triality`), are found once and kept on it.  A map that is not an
    isometry is reported after the alpha identity."""
    multiply, form_eval = residue_arithmetic(a)
    p = a.field.p
    # residue matrix -> its LinearMap
    built = {}
    circle = [(mu, nu) for mu in range(p) for nu in range(p) if (mu * mu + nu * nu) % p == 1]
    elements, members = [], []
    for q1 in circle:
        for q2 in circle:
            w = multiply(q1, q2)
            for q3 in circle:
                if form_eval(q3, w):
                    continue
                qs = (q1, q2, q3)
                # g_j(e) = -q_{j+1} q_{j+2} and g_j(f) = q_j are the columns
                member = tuple(((-pj[0] % p, qj[0]), (-pj[1] % p, qj[1])) for pj, qj in
                               ((multiply(qs[(j + 1) % 3], qs[(j + 2) % 3]), qs[j])
                                for j in range(3)))
                for m in member:
                    if m not in built:
                        built[m] = _int_map(a, 1, [*m[0], *m[1]], None)
                elements.append(verify_triality(a, *(built[m] for m in member)))
                members.append(member)
    # polynomial identity on the e-components <e|g_j e> of the members
    for member in members:
        x, y, z = (form_eval((1, 0), (m[0][0], m[1][0])) for m in member)
        if (2 * x * y * z - (x * x + y * y + z * z) + 1) % p:
            raise RelationFails("member violates the alpha identity")
    # every map of every member, each distinct map once
    if any(isometry_failure(g) is not None for g in built.values()):
        raise RelationFails("member is not an isometry")
    return elements, members


def enumerate_trig_small(a: Algebra, p_cap: int = 31) -> TrigGroup:
    """Full triality group of a dimension-1 or dimension-2 symmetric
    composition algebra over a prime field.

    Dimension 1 always gives the Klein four-group of sign triples.
    Dimension 2: each component is determined by a point (mu, nu) on the
    circle mu^2 + nu^2 = 1 via g_j(f) = q_j = mu e + nu f, with the single
    compatibility constraint <q_3|q_1 q_2> = 0 and g_j(e) = -q_{j+1} q_{j+2}.
    Every member is certified by `verify_triality` (see `_dim2_members`)
    and checked to be an isometry, and the group is checked for closure,
    inverses, and the Klein subgroup, all from one Cayley table
    (`_group_table`).

    The search, the alpha check and the table run on int residues
    (`residue_arithmetic`), not FieldElements.  That is exact: a
    FieldElement over F_p is its residue, every entry is < p, and Python
    ints do not overflow, so reducing mod p after each sum gives the field
    result.
    """
    if a.field.kind != PRIME:
        raise AlgebraError("enumeration requires a prime field")
    if a.field.p > p_cap:
        raise ValueError(f"prime exceeds the enumeration cap {p_cap}")
    if a.dim == 1:
        elements = klein_triples(a)
        members = [_residue_triple(g) for g in elements]
    elif a.dim == 2:
        elements, members = _dim2_members(a)
    else:
        raise ValueError("enumeration covers dimensions 1 and 2 only")
    table = _group_table(members, a.field.p)
    return TrigGroup(a, elements, len(elements), _table_hash(members, table))


def dim2_local(a: Algebra, lambdas: Sequence[FieldElement]) -> LocalTriple:
    """Local triple t_j e = lambda_j f, t_j f = -lambda_j e on a
    two-dimensional algebra; valid exactly when the lambdas sum to zero."""
    if a.dim != 2:
        raise ValueError("this shape of local triple needs dimension 2")
    if len(lambdas) != 3:
        raise ValueError("three lambdas required")
    mats = [LinearMap(a, [[a.field.zero(), -lam], [lam, a.field.zero()]])
            for lam in lambdas]
    return verify_local(a, *mats)


@dataclass
class AutoGroup:
    algebra: Algebra
    elements: List[LinearMap]
    order: int


def auto_dim2(field: FieldDescriptor) -> AutoGroup:
    """Automorphism group of the two-dimensional symmetric composition
    algebra: order 2 generated by f -> -f, extended to the symmetric group
    of order 6 exactly when the field contains sqrt(3)."""
    a = make_para_dim2(field)
    one, zero = field.one(), field.zero()
    p = LinearMap(a, [[one, zero], [zero, -one]])
    elements = [a.identity_map(), p]
    root = sqrt_in_field(field.from_int(3))
    if root is not None:
        half = field.from_int(2).inverse()
        q = LinearMap(a, [[-half, -half * root], [half * root, -half]])
        if not (q @ q @ q).is_identity() or not (q @ p @ q) == p:
            raise RelationFails("generator relations fail")
        elements = [a.identity_map(), q, q @ q, p, p @ q, p @ q @ q]
    if not (p @ p).is_identity():
        raise RelationFails("generator relations fail")
    for g in elements:
        certify_automorphism(a, g)
    return AutoGroup(a, elements, len(elements))
