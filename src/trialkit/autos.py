"""Automorphisms and derivations of composition algebras.

Two pictures are used side by side.  On a symmetric composition algebra an
idempotent a (aa = a, <a|a> = 1) yields an order-3 automorphism R(a)R(a).
On the unital (Hurwitz) side the same map is l(conj(a)) r(a) for a point of
the sphere <a|a> = 1, 2<e|a> = -1; the toolkit covers transport along that
sphere, the matching derivations D(a, p) and their relation to the standard
derivation d(f, g), unipotent automorphisms (sigma^2 = 2 sigma - 1), and
products of multiplication operators with a unit chain condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import matmul, mul
from typing import Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import Algebra, AlgebraError, Element, LinearMap, _int_map
from .fields import FieldElement, SqrtUnavailable, sqrt_in_field
from .triality import (RelationFails, _is_symcomp, _outer, _wedge, earliest_failure,
                       isometry_failure, product_law_failure)

# ---------------------------------------------------------------------------
# Generic certification helpers
# ---------------------------------------------------------------------------

def certify_automorphism(a: Algebra, g: LinearMap) -> LinearMap:
    """g(xy) = g(x)g(y) on all basis pairs, g invertible."""
    g.require_invertible()
    w = product_law_failure(a, g, g, g)
    if w is not None:
        raise RelationFails("map is not an automorphism", witness=w)
    return g


def certify_derivation(a: Algebra, d: LinearMap) -> LinearMap:
    """d(xy) = (dx)y + x(dy) on all basis pairs."""
    w = product_law_failure(a, d, d, d, local=True)
    if w is not None:
        raise RelationFails("map is not a derivation", witness=w)
    return d


def _skew_weights(a: Algebra) -> Optional[List[Tuple[int, int]]]:
    """The diagonal g_k = <e_k|e_k> = (g0 + g1 sqrt d)/q of the form's map as
    numerators (g0, g1), when every derivation of `a` is skew for the form,
    the form is diagonal and every g_k is nonzero (mod p); else None.

    Skew holds once the linearized law (xy)z + (zy)x = 2<x|z>y = x(yz) +
    z(yx) holds (`triality._is_symcomp`), whose lemma gives x(yx) = <x|x>y.
    A derivation d applied to it gives (dx)(yx) + x((dy)x) + x(y(dx)) =
    <x|x>dy, and x((dy)x) = <x|x>dy, so x(y(dx)) + (dx)(yx) = 0; the law at
    z = dx makes that sum 2<x|dx>y, so <x|dx> = 0 for every x.  Then
    g_k d[k][l] = -g_l d[l][k], so d = T G with T antisymmetric:
    d[k][l] = T[k][l] g_l.  A zero g_k leaves row k of d free, which T G
    does not (the zero algebra with the zero form satisfies the law and has
    every map as a derivation), hence the guard."""
    if not _is_symcomp(a):
        return None
    g = a.form_map()
    n = a.dim
    n0, n1 = g._n0, g._n1 or [0] * (n * n)
    weights = [(n0[k * n + k], n1[k * n + k]) for k in range(n)]
    if not all(g0 or g1 for g0, g1 in weights) or any(
            n0[t] or n1[t] for t in range(n * n) if t % (n + 1)):
        return None
    return weights


def _real_sign(x0: int, x1: int, d: Optional[int]) -> int:
    """The sign of x0 + x1 sqrt d under the real embedding sqrt d > 0, for
    d > 0 not a square (d None: the sign of x0), exact on integers: with
    opposite signs the larger of x0^2 and d x1^2 wins, and they differ."""
    s0, s1 = (x0 > 0) - (x0 < 0), (x1 > 0) - (x1 < 0)
    if d is None or not s1 or s0 == s1:
        return s0
    if not s0:
        return s1
    return s0 if x0 * x0 > d * x1 * x1 else s1


def _is_definite(a: Algebra, weights: List[Tuple[int, int]]) -> bool:
    """Whether the diagonal form with these entries has one strict sign under
    sqrt d > 0; False over F_p and for d < 0, which have no real embedding."""
    d = a.field.d
    if a.field.p is not None or (d is not None and d < 0):
        return False
    return len({_real_sign(g0, g1, d) for g0, g1 in weights}) == 1


def derivation_space(a: Algebra) -> List[LinearMap]:
    """Basis of the full derivation algebra, by solving the linear
    conditions d(e_i e_j) = (d e_i) e_j + e_i (d e_j): the RREF kernel basis
    of the system on the n^2 entries d[k][l].

    The system is homogeneous, with structure constants over `a.int_den` for
    coefficients, so its rows are the integers of `a.int_terms`, and each
    map is an integer kernel vector (`linalg._kernel`), whose layout is the
    row-major block of a map.  Zero and repeated rows are dropped.

    Where every derivation is skew for a diagonal form with nonzero entries
    g_l (see `_skew_weights`), d = T G for T antisymmetric, and the system
    is solved for the n(n-1)/2 unknowns s_kl = T[k][l], k < l: d[k][l] =
    g_l s_kl and d[l][k] = -g_k s_kl.  Its kernel, mapped back to the n^2
    entries, spans the derivations, and `linalg._span_kernel_basis` reduces
    it to the basis that the full system gives."""
    n = a.dim
    terms = a.int_terms
    d, p = a.field.d or 0, a.field.p
    pair = a.field.d is not None
    weights = _skew_weights(a)
    cols, place = n * n, None
    if weights is not None:
        # place[k * n + l] = (u, w0, w1): d[k][l] = (w0 + w1 sqrt d) s_kl
        # over the form's denominator, s_kl the unknown at column u; the
        # diagonal of d is 0
        place, cols = [None] * (n * n), 0
        for k in range(n):
            for l in range(k + 1, n):
                place[k * n + l] = (cols, *weights[l])
                place[l * n + k] = (cols, -weights[k][0], -weights[k][1])
                cols += 1
    rows = {}
    # unknown d[k][l] laid out as k * n + l; entry (m, column, n0, n1) lies
    # in the row of condition (i, j, m), entries of one column are summed,
    # and an entry is n0 alone over Q and F_p (see `linalg._eliminate`),
    # reduced mod p
    for i in range(n):
        for j in range(n):
            # d(e_i e_j)_m = sum_l d[m][l] (e_i e_j)_l
            entries = [(m, m * n + l, c0, c1) for l, c0, c1 in terms[i][j] for m in range(n)]
            # -(d e_i)_l (e_l e_j)_m  and  -(e_i e_l)_m (d e_j)_l
            entries += [(m, l * n + i, -c0, -c1) for l in range(n) for m, c0, c1 in terms[l][j]]
            entries += [(m, l * n + j, -c0, -c1) for l in range(n) for m, c0, c1 in terms[i][l]]
            block = [{} for _ in range(n)]
            for m, col, c0, c1 in entries:
                s0, s1 = block[m].get(col, (0, 0))
                block[m][col] = (s0 + c0, s1 + c1)
            for row in block:
                if place is not None:
                    # the entry x at d[k][l] is the entry +-g_l x at s_kl
                    skew = {}
                    for col, (x0, x1) in row.items():
                        if place[col] is not None:
                            u, w0, w1 = place[col]
                            s0, s1 = skew.get(u, (0, 0))
                            skew[u] = (s0 + x0 * w0 + d * x1 * w1, s1 + x0 * w1 + x1 * w0)
                    row = skew
                if p is not None:
                    row = {u: s0 % p for u, (s0, _) in row.items() if s0 % p}
                elif pair:
                    row = {u: s for u, s in row.items() if s != (0, 0)}
                else:
                    row = {u: s0 for u, (s0, _) in row.items() if s0}
                if row:
                    rows.setdefault(frozenset(row.items()), row)
    basis = linalg._kernel(list(rows.values()), cols, a.field)
    if place is not None:
        # each s back at the n^2 entries, d[k][l] = +-g_l s_kl, as a sparse
        # row of `linalg._eliminate`
        spans = []
        for _, v0, v1 in basis:
            v1 = v1 or [0] * cols
            span = {}
            for t, at in enumerate(place):
                if at is not None and (v0[at[0]] or v1[at[0]]):
                    u, w0, w1 = at
                    x0, x1 = v0[u] * w0 + d * v1[u] * w1, v0[u] * w1 + v1[u] * w0
                    span[t] = (x0, x1) if pair else x0
            spans.append(span)
        basis = linalg._span_kernel_basis(spans, n * n, a.field)
    return [_int_map(a, q, v0, v1) for q, v0, v1 in basis]


def find_nilpotent_derivation(a: Algebra) -> Optional[LinearMap]:
    """First derivation with d^2 = 0, searched deterministically over
    single basis derivations and then pairwise sums/differences.  None of
    these is zero, since the basis is independent.

    None is proved without a search where every derivation is skew for a
    diagonal form (see `_skew_weights`) that is definite under sqrt d > 0:
    d^2 = 0 then gives <dx|dx> = -<x|d^2 x> = 0, and a definite form leaves
    only dx = 0."""
    weights = _skew_weights(a)
    if weights is not None and _is_definite(a, weights):
        return None
    basis = derivation_space(a)
    for d in basis:
        if d.squares_to_zero():
            return d
    for i, bi in enumerate(basis):
        for bj in basis[i + 1:]:
            for d in (bi + bj, bi - bj):
                if d.squares_to_zero():
                    return d
    return None


# ---------------------------------------------------------------------------
# Idempotents and the order-3 automorphisms they induce
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Idempotent:
    algebra: Algebra
    elem: Element


def certify_idempotent(a: Algebra, x: Element) -> Idempotent:
    if x * x != x:
        raise RelationFails("element is not idempotent")
    if a.form_eval(x, x) != a.field.one():
        raise RelationFails("idempotent does not have norm one")
    return Idempotent(a, x)


def _para_unit(a: Algebra) -> Element:
    if a.para_unit is not None:
        return a.element(a.para_unit)
    return a.basis(0)


def _sign_patterns(a: Algebra, e: Element, imag: List[int], every: bool) -> Iterator[Element]:
    """Candidates (1/2)(-e + s_0 e_i + s_1 e_j + s_2 e_k), signs s = +-1, over
    the runs i, j, k of three consecutive entries of `imag`, then
    (1/2)(-e + s sqrt(3) e_i) over the entries i when 3 is a square: the first
    run and the first entry only, unless `every`.  Each coordinate is
    written once: -e_k/2, plus s/2 or s sqrt(3)/2 on the entries of a
    pattern."""
    f = a.field
    half = f.from_int(2).inverse()
    base = [-half * c for c in e.coords]

    def point(moves) -> Element:
        coords = list(base)
        for i, x in moves:
            coords[i] = base[i] + x
        return Element(a, coords)

    starts = range(len(imag) - 2)
    for t in starts if every else starts[:1]:
        for signs in product((half, -half), repeat=3):
            yield point(zip(imag[t:t + 3], signs))
    root3 = sqrt_in_field(f.from_int(3))
    if root3 is not None:
        for i in imag if every else imag[:1]:
            for s in (root3, -root3):
                yield point([(i, s * half)])


def find_idempotents(a: Algebra) -> List[Idempotent]:
    """Idempotents of a para-Hurwitz algebra of shape
    (1/2)(-e + sum alpha_lambda e_lambda) with sum alpha^2 = 3, found from
    canonical sign patterns (three entries +-1) or a single sqrt(3)
    coordinate, plus the para-unit itself when it is idempotent.  Only
    these para-Hurwitz sign patterns are searched, so an empty list does
    not mean that there is none: okubo has the idempotents
    (sqrt(3)/2) e_0 + (1/2) e_7 over Q(sqrt 3) and 2 e_0 + 7 e_7 over F13,
    and the list is empty for both."""
    e = _para_unit(a)
    out: List[Idempotent] = []
    try:
        out.append(certify_idempotent(a, e))
    except RelationFails:
        pass  # not every symmetric composition algebra has a para-unit
    imag = [i for i in range(a.dim) if a.basis(i) != e]
    for x in _sign_patterns(a, e, imag, every=False):
        try:
            idem = certify_idempotent(a, x)
        except RelationFails:
            continue
        if all(idem.elem != known.elem for known in out):
            out.append(idem)
    return out


def _certify_order3(a: Algebra, sigma: LinearMap, inverse: LinearMap, not_inverse: str,
                    fixed: Optional[Element] = None) -> LinearMap:
    """Certify sigma as an automorphism, with sigma inverse = Id (else
    `not_inverse`), sigma^3 = Id, sigma(fixed) = fixed when `fixed` is
    given, and as an isometry."""
    certify_automorphism(a, sigma)
    if not (sigma @ inverse).is_identity():
        raise RelationFails(not_inverse)
    if not (sigma @ sigma @ sigma).is_identity():
        raise RelationFails("order is not 3")
    if fixed is not None and sigma(fixed) != fixed:
        raise RelationFails("unit is not fixed")
    w = isometry_failure(sigma)
    if w is not None:
        raise RelationFails("sigma is not an isometry", witness=w)
    return sigma


def order3_auto(a: Algebra, idem: Idempotent) -> LinearMap:
    """sigma(a) = R(a)R(a) for an idempotent: an automorphism of order 3
    with inverse theta(a) = L(a)L(a), both isometries.  Only sigma is
    certified: once sigma theta = Id, theta = sigma^-1 is an automorphism
    (sigma(theta(x) theta(y)) = xy), has order 3 and is an isometry
    (<theta x|theta y> = <sigma theta x|sigma theta y> = <x|y>)."""
    x = idem.elem
    return _certify_order3(a, a.right_op(x) @ a.right_op(x), a.left_op(x) @ a.left_op(x),
                           "sigma and theta are not mutual inverses")


# ---------------------------------------------------------------------------
# The unital picture: sphere points and transport
# ---------------------------------------------------------------------------

def _sphere_defect(h: Algebra, a: Element) -> Optional[str]:
    """Why a misses the sphere <a|a> = 1, 2<e|a> = -1, or None."""
    e = h.unit_element()
    if h.form_eval(a, a) != h.field.one():
        return "point does not have norm one"
    if h.field.from_int(2) * h.form_eval(e, a) != -h.field.one():
        return "point is not on the affine sphere slice"
    return None


def check_sphere_point(h: Algebra, a: Element) -> None:
    """<a|a> = 1 and 2<e|a> = -1."""
    defect = _sphere_defect(h, a)
    if defect is not None:
        raise AlgebraError(defect)


def hurwitz_sigma(h: Algebra, a: Element) -> LinearMap:
    """sigma(a) = l(conj(a)) r(a) on a Hurwitz algebra, for a sphere point:
    an order-3 automorphism of the unital product fixing the unit, with
    inverse sigma(conj(a)), and an isometry."""
    check_sphere_point(h, a)
    abar = h.involute(a)
    sigma = h.left_op(abar) @ h.right_op(a)
    if sigma != h.right_op(a) @ h.left_op(abar):
        raise RelationFails("the two operator orders disagree")
    return _certify_order3(h, sigma, h.left_op(a) @ h.right_op(abar),
                           "sigma(conj a) is not the inverse", fixed=h.unit_element())


def _sphere_patterns(h: Algebra) -> List[Element]:
    """Deterministic candidate sphere points built from sign patterns."""
    return [x for x in _sign_patterns(h, h.unit_element(), list(range(1, h.dim)), every=True)
            if _sphere_defect(h, x) is None]


def _transport_once(h: Algebra, b: Element, c: Element) -> Element:
    two = h.field.from_int(2)
    e = h.unit_element()
    pairing = two * h.form_eval(b, c) + h.field.one()
    if pairing.is_zero():
        raise AlgebraError("pairing is degenerate; needs an intermediate point")
    # lambda^2 + lambda + 1 = 2<b|c> + 1
    disc = h.field.one() + h.field.from_int(4) * two * h.form_eval(b, c)
    root = sqrt_in_field(disc)
    if root is None:
        raise SqrtUnavailable("transport discriminant is not a square")
    lam = (root - h.field.one()) / two
    a = (lam * (b + c) - (lam * lam) * e - c * b) / pairing
    if hurwitz_sigma(h, a)(b) != c:
        raise RelationFails("transport failed to map b to c")
    return a


def sphere_transport(h: Algebra, b: Element, c: Element) -> List[Element]:
    """Sphere points a_1, ..., a_m (m = 1 or 2) whose sigma-automorphisms
    composed left to right carry b to c.  One step suffices unless
    2<b|c> + 1 = 0, in which case a deterministic search supplies an
    intermediate point."""
    check_sphere_point(h, b)
    check_sphere_point(h, c)
    two = h.field.from_int(2)
    if not (two * h.form_eval(b, c) + h.field.one()).is_zero():
        return [_transport_once(h, b, c)]
    for mid in _sphere_patterns(h):
        if (two * h.form_eval(b, mid) + h.field.one()).is_zero():
            continue
        if (two * h.form_eval(mid, c) + h.field.one()).is_zero():
            continue
        try:
            a1 = _transport_once(h, b, mid)
            a2 = _transport_once(h, mid, c)
        except (SqrtUnavailable, RelationFails):
            continue
        return [a1, a2]
    raise AlgebraError("no intermediate sphere point found")


# ---------------------------------------------------------------------------
# Unipotent automorphisms
# ---------------------------------------------------------------------------

def unipotent_bridge(m: LinearMap, direction: str) -> LinearMap:
    """Exchange sigma^2 = 2 sigma - 1 automorphisms and square-zero
    derivations: d = sigma - Id one way, sigma = Id + d the other.  Only the
    input is certified, with d d = 0: from sigma^2 = 2 sigma - 1 one way,
    directly the other.  The rest follows, as 2 is invertible:

    - for a derivation d, d^2(xy) = d^2x y + 2 (dx)(dy) + x d^2y, so d d = 0
      gives (dx)(dy) = 0 and Id + d is an automorphism (inverse Id - d);
    - for an automorphism m = Id + d, d(xy) = (dx)y + x(dy) + (dx)(dy), and
      applying d again gives d(d(xy)) = 2 (dx)(dy), so d is a derivation;
    - (Id + d)^p = Id + p d = Id over F_p, since d d = 0."""
    a = m.algebra
    ident = a.identity_map()
    if direction == "auto_to_der":
        certify_automorphism(a, m)
        if m @ m != a.field.from_int(2) * m - ident:
            raise AlgebraError("automorphism is not unipotent of the required shape")
        return m - ident
    if direction == "der_to_auto":
        certify_derivation(a, m)
        if not m.squares_to_zero():
            raise AlgebraError("derivation does not square to zero")
        return ident + m
    raise ValueError("direction must be auto_to_der or der_to_auto")


# ---------------------------------------------------------------------------
# Unipotent automorphisms from unit chains of length 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class R3Data:
    eps: Tuple[FieldElement, FieldElement, FieldElement]
    bs: Tuple[Element, Element, Element]


def _r3_defect(h: Algebra, data: R3Data) -> Optional[str]:
    """Which precondition of r3_construction the data misses, or None."""
    eps, bs = data.eps, data.bs
    one = h.field.one()
    e = h.unit_element()
    for j, s in enumerate(eps):
        if s * s != one:
            return f"eps_{j + 1} is not a sign"
    if eps[0] * eps[1] * eps[2] != one:
        return "eps product is not 1"
    for i in range(3):
        if not h.form_eval(bs[i], e).is_zero():
            return f"b_{i + 1} is not orthogonal to the unit"
        for j in range(3):
            if not h.form_eval(bs[i], bs[j]).is_zero():
                return f"b_{i + 1} and b_{j + 1} are not orthogonal"
            if not (bs[i] * bs[j]).is_zero():
                return f"b_{i + 1} * b_{j + 1} != 0"
    if not (eps[0] * bs[0] + eps[1] * bs[1] + eps[2] * bs[2]).is_zero():
        return "eps-weighted sum of b is not zero"
    return None


def r3_construction(h: Algebra, data: R3Data) -> LinearMap:
    """Unipotent automorphism from signs eps_j (eps_j^2 = 1, product 1) and
    elements b_j that are unit-orthogonal, mutually orthogonal, mutually
    annihilating, with eps-weighted sum zero.  Then a_j = b_j + eps_j e
    satisfy the length-3 unit chain and sigma = l(a1) l(a2) l(a3) is an
    automorphism with sigma^2 = 2 sigma - 1; it equals all its rewrites:
    r(a1) r(a2) r(a3), the product of l(a_i) r(a_i), and
    Id + eps_3 l(b1) l(b2) (cyclically)."""
    defect = _r3_defect(h, data)
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
    sigma = _chain_operator(h, a, "left")
    ident = h.identity_map()
    rewrites = [
        _chain_operator(h, a, "right"),
        _chain_operator(h, a, "mixed"),
        ident + eps[2] * (h.left_op(bs[0]) @ h.left_op(bs[1])),
        ident + eps[1] * (h.left_op(bs[2]) @ h.left_op(bs[0])),
        ident + eps[0] * (h.left_op(bs[1]) @ h.left_op(bs[2])),
    ]
    for t, other in enumerate(rewrites):
        if sigma != other:
            raise RelationFails("rewrites of sigma disagree", witness=(t,))
    certify_automorphism(h, sigma)
    if sigma @ sigma != h.field.from_int(2) * sigma - ident:
        raise RelationFails("sigma is not unipotent")
    return sigma


def find_r3_data(h: Algebra) -> R3Data:
    """Deterministic search for nonzero b_1, b_2 (null, unit-orthogonal,
    mutually orthogonal and annihilating) among small integer combinations
    of basis pairs of a split algebra; b_3 = -b_1 - b_2, eps = (1, 1, 1)."""
    one = h.field.one()
    e = h.unit_element()
    candidates = []
    n = h.dim
    for i in range(1, n):
        for j in range(i + 1, n):
            for s in (one, -one):
                x = h.basis(i) + s * h.basis(j)
                if h.form_eval(x, x).is_zero() and h.form_eval(x, e).is_zero():
                    candidates.append(x)
    for b1 in candidates:
        for b2 in candidates:
            if b2 == b1:
                continue
            b3 = -b1 - b2
            data = R3Data((one, one, one), (b1, b2, b3))
            if _r3_defect(h, data) is not None:
                continue
            try:
                r3_construction(h, data)
            except RelationFails:
                continue
            return data
    raise AlgebraError("no chain data found; is the algebra split?")


# ---------------------------------------------------------------------------
# Derivations in the unital picture
# ---------------------------------------------------------------------------

def hurwitz_D(h: Algebra, a: Element, p: Element) -> LinearMap:
    """Derivation D(a, p) = l(conj(a)) l(p) + r(conj(a)) r(q) with
    q = -p * conj(a), for a sphere point a and p orthogonal to both a and
    the unit.  All companion identities are verified, as is the closed form
    D(a, p)x = (x q + p x) + 2<conj(a)|x>(p + q) - 2<p + q|x> conj(a)."""
    check_sphere_point(h, a)
    e = h.unit_element()
    zero = h.field.zero()
    if h.form_eval(p, a) != zero:
        raise RelationFails("p is not orthogonal to a")
    if h.form_eval(p, e) != zero:
        raise RelationFails("p is not orthogonal to the unit")
    abar = h.involute(a)
    q = -(p * abar)
    two = h.field.from_int(2)
    if q != -(a * p):
        raise RelationFails("the two expressions for q disagree")
    if p != -(abar * q) or p != -(q * a):
        raise RelationFails("p cannot be recovered from q")
    pp = h.form_eval(p, p)
    if h.form_eval(q, q) != pp or two * h.form_eval(p, q) != pp:
        raise RelationFails("norm relations among p and q fail")
    if h.form_eval(q, a) != zero or h.form_eval(q, e) != zero:
        raise RelationFails("q is not orthogonal to a and the unit")
    if abar != -e - a:
        raise RelationFails("conj(a) != -e - a")
    if q * p != pp * a or p * q != pp * abar:
        raise RelationFails("product relations among p and q fail")
    d = h.left_op(abar) @ h.left_op(p) + h.right_op(abar) @ h.right_op(q)
    w = (d - (h.right_op(q) + h.left_op(p) + 2 * _wedge(h, p + q, abar))).first_nonzero()
    if w is not None:
        raise RelationFails("closed form of D disagrees", witness=w[:1])
    return certify_derivation(h, d)


def transport_orthogonal(h: Algebra, a: Element) -> List[Element]:
    """Basis of {p : <p|a> = <p|e> = 0}, the parameter space of D(a, .)."""
    return h.orthogonal_space([a, h.unit_element()])


def standard_derivation(h: Algebra, f: Element, g: Element) -> LinearMap:
    """d(f, g) = [l(f), l(g)] + [r(f), r(g)] + [l(f), r(g)], certified, with
    the operator form l([f,g]) - r([f,g]) - 3[l(f), r(g)] and the expansion
    d(f, g)x = (-2 fg - gf + 6<g|e>f) x + x (2 fg + gf - 6<f|e>g)
               + 6<f|x>g - 6<g|x>f
    checked as exact matrices."""
    l, r = h.left_op, h.right_op
    d = (l(f) @ l(g) - l(g) @ l(f)) + (r(f) @ r(g) - r(g) @ r(f)) \
        + (l(f) @ r(g) - r(g) @ l(f))
    comm = f * g - g * f
    three = h.field.from_int(3)
    alt = l(comm) - r(comm) - three * (l(f) @ r(g) - r(g) @ l(f))
    if d != alt:
        raise RelationFails("operator forms of d disagree")
    e = h.unit_element()
    two, six = h.field.from_int(2), h.field.from_int(6)
    left = -two * (f * g) - (g * f) + six * h.form_eval(g, e) * f
    right = two * (f * g) + (g * f) - six * h.form_eval(f, e) * g
    w = (d - (l(left) + r(right) + 6 * _wedge(h, g, f))).first_nonzero()
    if w is not None:
        raise RelationFails("expansion of d disagrees", witness=w[:1])
    return certify_derivation(h, d)


def derivation_match(h: Algebra, a: Element, p: Element) -> None:
    """d(conj(a), p + q) = 3 D(a, p); meaningless in characteristic 3."""
    if h.field.characteristic == 3:
        raise AlgebraError("the comparison degenerates in characteristic 3")
    big = hurwitz_D(h, a, p)
    abar = h.involute(a)
    q = -(p * abar)
    d = standard_derivation(h, abar, p + q)
    if d != h.field.from_int(3) * big:
        raise RelationFails("standard derivation does not match 3 D(a, p)")


def quartic_exchange_identities(h: Algebra) -> None:
    """The four exchange identities of products against the form, checked on
    all basis triples (f, g, x):
      f(gx) =  x(fg) - 2<f|e>(xg) + 2<g|e>(fx) + 2<f|x>g - 2<g|x>f
      (xf)g =  (fg)x + 2<f|e>(xg) - 2<g|e>(fx) - 2<f|x>g + 2<g|x>f
      f(xg) = -x(fg) + 2<x|e>(fg) + 2<f|e>(xg) - 2<f|x>g
      (fx)g = -(fg)x + 2<x|e>(fg) + 2<g|e>(fx) - 2<g|x>f

    For fixed f and g each is an identity of maps of x, with outer(u, w) the
    rank-one map x -> <w|x>u:
      L_f L_g =  R_fg - 2<f|e>R_g + 2<g|e>L_f + 2 outer(g, f) - 2 outer(f, g)
      R_g R_f =  L_fg + 2<f|e>R_g - 2<g|e>L_f - 2 outer(g, f) + 2 outer(f, g)
      L_f R_g = -R_fg + 2 outer(fg, e) + 2<f|e>R_g - 2 outer(g, f)
      R_g L_f = -L_fg + 2 outer(fg, e) + 2<g|e>L_f - 2 outer(f, g)
    and its first failing x is the first nonzero column of the difference.
    The basis pairs (f, g) run in row-major order, so the first pair where
    one fails holds the earliest witness.
    """
    e = h.unit_element()
    on_e = h.covector(e)
    basis = h.basis_elements()
    lefts = [h.left_op(x) for x in basis]
    rights = [h.right_op(x) for x in basis]
    for i, f in enumerate(basis):
        for j, g in enumerate(basis):
            fg = f * g
            l_fg, r_fg, fg_e = h.left_op(fg), h.right_op(fg), 2 * _outer(h, fg, e)
            g_f, f_g = 2 * _outer(h, g, f), 2 * _outer(h, f, g)
            r_g, l_f = 2 * on_e[i] * rights[j], 2 * on_e[j] * lefts[i]
            sides = ((lefts[i] @ lefts[j], r_fg - r_g + l_f + g_f - f_g),
                     (rights[j] @ rights[i], l_fg + r_g - l_f - g_f + f_g),
                     (lefts[i] @ rights[j], fg_e + r_g - g_f - r_fg),
                     (rights[j] @ lefts[i], fg_e + l_f - f_g - l_fg))
            ws = [(lhs - rhs).first_nonzero() for lhs, rhs in sides]
            failure = earliest_failure([(f"exchange identity {t} fails", w and (i, j, w[0]))
                                        for t, w in enumerate(ws, start=1)])
            if failure is not None:
                raise RelationFails(failure[0], witness=failure[1])


# ---------------------------------------------------------------------------
# Products of multiplication operators with a unit chain condition
# ---------------------------------------------------------------------------

def _chain_operator(h: Algebra, chain: Sequence[Element], side: str) -> LinearMap:
    """The product over the chain, first element leftmost, of l(a_j) for
    side "left", r(a_j) for "right" and l(a_j) r(a_j) for "mixed"."""
    if side == "left":
        factors = [h.left_op(x) for x in chain]
    elif side == "right":
        factors = [h.right_op(x) for x in chain]
    elif side == "mixed":
        factors = [op for x in chain for op in (h.left_op(x), h.right_op(x))]
    else:
        raise ValueError("side must be left, right, or mixed")
    return reduce(matmul, factors)


def verify_elduque_form(h: Algebra, a_list: Sequence[Element],
                        side: str = "left") -> LinearMap:
    """Certify the product of multiplication operators of a unit chain
    a_1 * (a_2 * (... * a_r)) = e = ((a_r * a_{r-1}) ...) * a_1 as an
    automorphism.  For r = 2 it must be the identity; for r = 3 with
    norm-one entries and degenerate unit-trace matrix it must satisfy
    sigma^2 = 2 sigma - 1."""
    r = len(a_list)
    if r == 0:
        raise ValueError("empty chain")
    e = h.unit_element()
    rest = list(reversed(a_list[:-1]))
    nested = reduce(lambda acc, x: x * acc, rest, a_list[-1])
    if nested != e or reduce(mul, rest, a_list[-1]) != e:
        raise RelationFails("the chain does not multiply to the unit")
    op = _chain_operator(h, a_list, side)
    certify_automorphism(h, op)
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
