"""Triality families on vector-matrix algebras F + B + B + F.

Elements are stored as [alpha, x (dim B), y (dim B), beta] for the 2x2 array
[[alpha, x], [y, beta]].  The diagonal scaling maps rho_j(lambda) form
one-parameter triality triples; the swap map pi exchanges the vector slots;
double automorphisms of B lift to automorphisms of the big algebra; and the
diagonal grading operators s_j form a local triple.  The transfer of
the scaling and transpose triples to the conjugate algebra is checked on
the algebra itself (see `conjugate_consistency`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import Algebra, AlgebraError, Element, LinearMap
from .fields import FieldElement
from .triality import (Certificate, LocalTriple, RelationFails, TrialityTriple, earliest_failure,
                       form_law_failure, product_law_failure, triality_law_failure, verify_local,
                       verify_triality)


def coeff_dim(a: Algebra) -> int:
    """Dimension of the coefficient space B of a vector-matrix algebra."""
    if a.dim < 2 or a.dim % 2 != 0:
        raise AlgebraError("not a vector-matrix algebra: dim must be 2m + 2")
    return (a.dim - 2) // 2


@dataclass(frozen=True)
class ZornElement:
    alpha: FieldElement
    x: Tuple[FieldElement, ...]
    y: Tuple[FieldElement, ...]
    beta: FieldElement

    def to_element(self, a: Algebra) -> Element:
        m = coeff_dim(a)
        if len(self.x) != m or len(self.y) != m:
            raise AlgebraError("vector slots do not match the algebra")
        return a.element([self.alpha, *self.x, *self.y, self.beta])


def split_element(a: Algebra, v: Element) -> ZornElement:
    m = coeff_dim(a)
    c = v.coords
    return ZornElement(c[0], tuple(c[1:1 + m]), tuple(c[1 + m:1 + 2 * m]), c[-1])


def _diag_map(a: Algebra, alpha, x_scale, y_scale, beta) -> LinearMap:
    m = coeff_dim(a)
    n = a.dim
    zero = a.field.zero()
    rows = [[zero] * n for _ in range(n)]
    rows[0][0] = alpha
    for t in range(m):
        rows[1 + t][1 + t] = x_scale
        rows[1 + m + t][1 + m + t] = y_scale
    rows[n - 1][n - 1] = beta
    return LinearMap(a, rows)


def _rho_maps(a: Algebra, lam: FieldElement) -> Tuple[LinearMap, LinearMap, LinearMap]:
    inv = a.field.one() / lam
    return (
        _diag_map(a, lam, lam, inv, inv),
        _diag_map(a, lam, inv, lam, inv),
        _diag_map(a, inv * inv, a.field.one(), a.field.one(), lam * lam),
    )


def zorn_rho(a: Algebra, lam: FieldElement) -> Tuple[TrialityTriple, Certificate]:
    """Diagonal scaling triple rho(lambda), certified as a triality triple
    together with its one-parameter-group laws."""
    if lam.is_zero():
        raise AlgebraError("the scale must be nonzero")
    maps = _rho_maps(a, lam)
    triple = verify_triality(a, *maps)
    cert = Certificate()
    sq = _rho_maps(a, lam * lam)
    inv = _rho_maps(a, a.field.one() / lam)
    for j in range(3):
        cert.add(f"scaling-square-law-{j + 1}", maps[j] @ maps[j] == sq[j], (j + 1,))
        cert.add(f"scaling-inverse-law-{j + 1}",
                 (maps[j] @ inv[j]).is_identity(), (j + 1,))
        for k in range(j + 1, 3):
            cert.add(f"components-commute-{j + 1}{k + 1}",
                     maps[j] @ maps[k] == maps[k] @ maps[j], (j + 1, k + 1))
    cert.add("product-of-components-is-identity",
             (maps[0] @ maps[1] @ maps[2]).is_identity())
    if a.involution is not None:
        jmap = a.involution_map()
        for j in range(3):
            # conjugating by the involution inverts the scale and swaps
            # components 1 and 2 (component 3 is self-paired)
            partner = inv[(1, 0, 2)[j]]
            cert.add(f"involution-conjugate-{j + 1}",
                     jmap @ maps[j] @ jmap == partner, (j + 1,))
    cert.require("scaling-triple laws fail")
    return triple, cert


def zorn_operator_factorization(a: Algebra, lam: FieldElement) -> Certificate:
    """The diagonal elements e, g(lambda), h(lambda) reproduce rho(lambda)
    through two-step left/right multiplications."""
    if lam.is_zero():
        raise AlgebraError("the scale must be nonzero")
    m = coeff_dim(a)
    field = a.field
    zero, one = field.zero(), field.one()
    inv = one / lam
    zvec = tuple([zero] * m)
    e = ZornElement(one, zvec, zvec, one).to_element(a)
    g = ZornElement(lam, zvec, zvec, inv).to_element(a)
    h = ZornElement(inv, zvec, zvec, lam).to_element(a)
    cert = Certificate()
    cert.add("e-times-g-is-h", e * g == h)
    cert.add("g-times-h-is-e", g * h == e)
    cert.add("h-times-e-is-g", h * e == g)
    # row r holds its 1 in column cols[r]: alpha and beta exchanged
    cols = [a.dim - 1, *range(1, a.dim - 1), 0]
    diag_swap = LinearMap(a, [[one if k == c else zero for k in range(a.dim)] for c in cols])
    cert.add("e-multiplication-swaps-diagonal",
             a.left_op(e) == diag_swap and a.right_op(e) == diag_swap)
    rho = _rho_maps(a, lam)
    pairs = [
        (a.left_op(e) @ a.left_op(g), a.right_op(h) @ a.right_op(e)),
        (a.left_op(h) @ a.left_op(e), a.right_op(e) @ a.right_op(g)),
        (a.left_op(g) @ a.left_op(h), a.right_op(g) @ a.right_op(h)),
    ]
    for j, (lform, rform) in enumerate(pairs):
        cert.add(f"left-factorization-{j + 1}", rho[j] == lform, (j + 1,))
        cert.add(f"right-factorization-{j + 1}", rho[j] == rform, (j + 1,))
    cert.require("operator factorization fails")
    return cert


def _slot_swap(a: Algebra, swap_diag: bool) -> LinearMap:
    m = coeff_dim(a)
    n = a.dim
    zero, one = a.field.zero(), a.field.one()
    rows = [[zero] * n for _ in range(n)]
    rows[0][n - 1 if swap_diag else 0] = one
    rows[n - 1][0 if swap_diag else n - 1] = one
    for t in range(m):
        rows[1 + t][1 + m + t] = one
        rows[1 + m + t][1 + t] = one
    return LinearMap(a, rows)


def zorn_pi(a: Algebra, lam: Optional[FieldElement] = None
            ) -> Tuple[LinearMap, Certificate]:
    """Vector-slot swap pi and its relation to the scaling triples.

    pi is an involution and conjugates rho_1 <-> rho_2 (rho_3 fixed), which
    also equals the involution-conjugate of rho_j at the inverse scale.  pi
    does not intertwine the product on any coefficient space of positive
    dimension: the scalar coefficients alpha_1 x_2 + beta_2 x_1 in one vector
    slot versus alpha_2 y_1 + beta_1 y_2 in the other cannot be exchanged
    without also exchanging the diagonal.  The full transpose (diagonal and
    slots both swapped) is the map that does intertwine the product, at the
    price of conjugating every rho_j(lambda) to rho_j(1/lambda).  Both facts
    are recorded in the certificate.
    """
    if lam is None:
        lam = a.field.from_int(2)
    if lam.is_zero():
        raise AlgebraError("the scale must be nonzero")
    pi = _slot_swap(a, swap_diag=False)
    transpose = _slot_swap(a, swap_diag=True)
    cert = Certificate()
    cert.add("swap-is-involution", (pi @ pi).is_identity())
    cert.add("transpose-is-involution", (transpose @ transpose).is_identity())
    rho = _rho_maps(a, lam)
    rho_inv = _rho_maps(a, a.field.one() / lam)
    for j in range(3):
        partner = rho[(1, 0, 2)[j]]
        cert.add(f"swap-conjugation-{j + 1}", pi @ rho[j] @ pi == partner, (j + 1,))
        if a.involution is not None:
            jmap = a.involution_map()
            cert.add(f"swap-conjugation-matches-involution-form-{j + 1}",
                     pi @ rho[j] @ pi == jmap @ rho_inv[j] @ jmap, (j + 1,))
        cert.add(f"transpose-conjugation-inverts-scale-{j + 1}",
                 transpose @ rho[j] @ transpose == rho_inv[j], (j + 1,))
    w = product_law_failure(a, pi, pi, pi)
    cert.add("swap-intertwines-product", w is None, w)
    w = product_law_failure(a, transpose, transpose, transpose)
    cert.add("transpose-intertwines-product", w is None, w)
    return pi, cert


def zorn_transpose_triple(a: Algebra) -> TrialityTriple:
    """The transpose automorphism repeated three times is a triality triple."""
    t = _slot_swap(a, swap_diag=True)
    return verify_triality(a, t, t, t)


@dataclass(frozen=True)
class DoubleAutomorphism:
    xi: LinearMap
    eta: LinearMap


def certify_double_automorphism(b: Algebra, xi: LinearMap, eta: LinearMap
                                ) -> DoubleAutomorphism:
    """xi(xy) = (eta x)(eta y) and eta(xy) = (xi x)(xi y) on basis pairs."""
    failure = earliest_failure([
        ("first double-automorphism law fails", product_law_failure(b, xi, eta, eta)),
        ("second double-automorphism law fails", product_law_failure(b, eta, xi, xi))])
    if failure is not None:
        raise RelationFails(failure[0], witness=failure[1])
    return DoubleAutomorphism(xi, eta)


def zorn_double_lift(a: Algebra, b: Algebra, d: DoubleAutomorphism) -> LinearMap:
    """Block map diag(1, xi, eta, 1); an automorphism of the vector-matrix
    algebra once the pairing (xi x | eta y) = (x | y) holds."""
    m = coeff_dim(a)
    if b.dim != m:
        raise AlgebraError("coefficient space does not match the algebra")
    if b.form is None:
        raise AlgebraError("the coefficient space needs a bilinear form")
    w = form_law_failure(b, d.xi, d.eta)
    if w is not None:
        raise RelationFails(f"pairing fails at basis pair ({w[0]}, {w[1]})")
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
    w = product_law_failure(a, p, p, p)
    if w is not None:
        raise RelationFails("lifted map is not an automorphism", witness=w)
    return p


def zorn_s_triple(a: Algebra) -> Tuple[LocalTriple, Certificate]:
    """Diagonal grading operators s_1, s_2, s_3: a local triple summing to
    zero, pairwise commuting, and skew-paired by the involution."""
    field = a.field
    one, two = field.one(), field.from_int(2)
    s1 = _diag_map(a, one, one, -one, -one)
    s2 = _diag_map(a, one, -one, one, -one)
    s3 = _diag_map(a, -two, field.zero(), field.zero(), two)
    triple = verify_local(a, s1, s2, s3)
    cert = Certificate()
    zero_map = _diag_map(a, field.zero(), field.zero(), field.zero(), field.zero())
    cert.add("components-sum-to-zero", s1 + s2 + s3 == zero_map)
    maps = (s1, s2, s3)
    for j in range(3):
        for k in range(j + 1, 3):
            cert.add(f"components-commute-{j + 1}{k + 1}",
                     maps[j] @ maps[k] == maps[k] @ maps[j], (j + 1, k + 1))
    if a.involution is not None:
        jmap = a.involution_map()
        for j in range(3):
            partner = maps[(1, 0, 2)[j]]
            cert.add(f"involution-pairs-components-{j + 1}",
                     jmap @ maps[j] @ jmap == -partner, (j + 1,))
    cert.require("grading-triple laws fail")
    return triple, cert


def conjugate_consistency(a: Algebra, lam: FieldElement) -> Certificate:
    """On the conjugate algebra (x * y = J(xy), J the involution) the
    involution-conjugates of a triality triple satisfy the shifted relation
    J g_j J(x * y) = (g_{j+1} x) * (g_{j+2} y), for the scaling triple
    rho(lambda) and the transpose triple.

    Checked on a itself: as J J = Id, the relation at a basis pair reads
    J g_j(xy) = J((g_{j+1} x)(g_{j+2} y)), and J is invertible, so it holds
    there exactly when g_j(xy) = (g_{j+1} x)(g_{j+2} y) does.  The witness
    (j, i, k) is the same on both algebras, and no conjugate algebra is built.
    """
    if a.involution is None:
        raise AlgebraError("an involutive algebra is required")
    cert = Certificate()
    for name, maps in (("scaling", _rho_maps(a, lam)),
                       ("transpose", (_slot_swap(a, True),) * 3)):
        witness = triality_law_failure(a, maps)
        cert.add(f"{name}-triple-transfers-to-conjugate-product", witness is None, witness)
    cert.require("conjugate transfer fails")
    return cert
