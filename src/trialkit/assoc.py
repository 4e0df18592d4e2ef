"""Triality triples built from associative involutive algebras.

On an associative unital algebra with involution (matrix transpose, complex
or quaternion conjugation), unitary elements a (conj(a)*a = e) give
sandwich maps x -> a_j * x * conj(a_{j+1}); these become triality triples of
the conjugate algebra (product xy = conj(x*y)).  Skew elements give local
triples x -> p_j*x - x*p_{j+1}, and the Cayley transform bridges the two.

Associativity and para-associativity are checked on basis triples as
identities of maps: the product law of L(e_i) for each i, and
R(xy) J = R(J x) L(y) for each pair of basis vectors x, y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import linalg
from .algebra import Algebra, AlgebraError, Element
from .constructors import make_conjugate
from .triality import (LocalTriple, RelationFails, TrialityTriple, product_law_failure,
                       verify_local, verify_triality)


def check_associative(a: Algebra) -> None:
    """(xy)z = x(yz) on all basis triples (i, j, k): for each i the product
    law e_i(yz) = (e_i y)z, that is L(e_i)(yz) = (L(e_i) y)(Id z), at (j, k)."""
    identity = a.identity_map()
    for i in range(a.dim):
        left = a.left_op(a.basis(i))
        w = product_law_failure(a, left, left, identity)
        if w is not None:
            raise RelationFails(f"associativity fails at ({i}, {w[0]}, {w[1]})")


@dataclass(frozen=True)
class UnitaryTriple:
    algebra: Algebra
    elems: Tuple[Element, Element, Element]

    def comp(self, j: int) -> Element:
        return self.elems[(j - 1) % 3]


def certify_unitary(astar: Algebra, a1: Element, a2: Element, a3: Element) -> UnitaryTriple:
    if astar.unit is None or astar.involution is None:
        raise AlgebraError("a unital involutive algebra is required")
    e = astar.unit_element()
    for j, x in enumerate((a1, a2, a3)):
        if astar.involute(x) * x != e or x * astar.involute(x) != e:
            raise RelationFails(f"component {j + 1} is not unitary")
    return UnitaryTriple(astar, (a1, a2, a3))


@dataclass(frozen=True)
class SkewTriple:
    algebra: Algebra
    elems: Tuple[Element, Element, Element]

    def comp(self, j: int) -> Element:
        return self.elems[(j - 1) % 3]


def certify_skew(astar: Algebra, p1: Element, p2: Element, p3: Element) -> SkewTriple:
    if astar.involution is None:
        raise AlgebraError("an involutive algebra is required")
    for j, x in enumerate((p1, p2, p3)):
        if astar.involute(x) != -x:
            raise RelationFails(f"component {j + 1} is not skew")
    return SkewTriple(astar, (p1, p2, p3))


def para_associativity(a: Algebra) -> None:
    """conj(z)(xy) = (yz)conj(x) on all basis triples (i, j, k) of a
    conjugate algebra: for each x = e_i, y = e_j the maps of z,
    R(xy) J = R(J x) L(y), whose first differing column is k."""
    jmap = a.involution_map()
    for i in range(a.dim):
        x = a.basis(i)
        right_conj = a.right_op(jmap(x))
        for j in range(a.dim):
            y = a.basis(j)
            w = (a.right_op(x * y) @ jmap - right_conj @ a.left_op(y)).first_nonzero()
            if w is not None:
                raise RelationFails("para-associativity fails", witness=(i, j, w[0]))


def _rebind(target: Algebra, m):
    """The element or map m, with the same entries, on the algebra target."""
    return type(m)._of(target, m._q, m._n0, m._n1)


def assoc_sigma_triple(astar: Algebra, u: UnitaryTriple) -> TrialityTriple:
    """Sandwich triple sigma_j x = a_j * x * conj(a_{j+1}), certified as a
    triality triple of the conjugate algebra.

    Verified along the way: sigma_j(a) sigma_j(conj a) = Id; the involution
    conjugate of sigma_j is the swapped sandwich a_{j+1} * x * conj(a_j) and
    intertwines the products; on the conjugate algebra sigma_j factors both
    as L(a_{j+1}) L(a_j) and as R(conj a_j) R(conj a_{j+1}).
    """
    check_associative(astar)
    conj_alg = make_conjugate(astar)
    jmap = astar.involution_map()
    sig = []
    sig_bar = []
    swapped = []
    for j in range(1, 4):
        aj = u.comp(j)
        aj1_bar = astar.involute(u.comp(j + 1))
        sig.append(astar.left_op(aj) @ astar.right_op(aj1_bar))
        sig_bar.append(astar.left_op(astar.involute(aj))
                       @ astar.right_op(u.comp(j + 1)))
        swapped.append(astar.left_op(u.comp(j + 1)) @ astar.right_op(astar.involute(aj)))
    for j in range(3):
        if not (sig[j] @ sig_bar[j]).is_identity():
            raise RelationFails("sigma(a) sigma(conj a) != Id", witness=(j + 1,))
        if jmap @ sig[j] @ jmap != swapped[j]:
            raise RelationFails("involution conjugate of sigma is wrong",
                                witness=(j + 1,))
    sig = [_rebind(conj_alg, m) for m in sig]
    for j in range(1, 4):
        m = sig[j - 1]
        a_j, a_j1 = (_rebind(conj_alg, u.comp(k)) for k in (j, j + 1))
        abar_j, abar_j1 = (_rebind(conj_alg, astar.involute(u.comp(k))) for k in (j, j + 1))
        left_form = conj_alg.left_op(a_j1) @ conj_alg.left_op(a_j)
        right_form = conj_alg.right_op(abar_j) @ conj_alg.right_op(abar_j1)
        if m != left_form or m != right_form:
            raise RelationFails("operator factorizations disagree", witness=(j,))
    return verify_triality(conj_alg, *sig)


def assoc_local_triple(astar: Algebra, p: SkewTriple) -> LocalTriple:
    """d_j x = p_j * x - x * p_{j+1} for skew p_j, certified as a local
    triple of the conjugate algebra; the involution conjugate of d_j is the
    swapped difference and satisfies the derivation-style law for *."""
    check_associative(astar)
    conj_alg = make_conjugate(astar)
    jmap = astar.involution_map()
    ds = [astar.left_op(p.comp(j)) - astar.right_op(p.comp(j + 1)) for j in range(1, 4)]
    for j in range(1, 4):
        if jmap @ ds[j - 1] @ jmap != astar.left_op(p.comp(j + 1)) - astar.right_op(p.comp(j)):
            raise RelationFails("involution conjugate of d is wrong", witness=(j,))
    return verify_local(conj_alg, *[_rebind(conj_alg, m) for m in ds])


def cayley_transform(astar: Algebra, p: Element) -> Element:
    """a = (e - p) * (e + p)^{-1} for skew p; the result is unitary."""
    if astar.involution is None or astar.unit is None:
        raise AlgebraError("a unital involutive algebra is required")
    if astar.involute(p) != -p:
        raise RelationFails("the argument is not skew")
    e = astar.unit_element()
    try:
        # (e + p) inv = e, read off the inverse of L(e + p)
        inv = astar.left_op(e + p).inverse()(e)
    except linalg.NotInvertible:
        raise linalg.NotInvertible("e + p is not invertible") from None
    if inv * (e + p) != e:
        raise linalg.NotInvertible("e + p has no two-sided inverse")
    a = (e - p) * inv
    if astar.involute(a) * a != e or a * astar.involute(a) != e:
        raise RelationFails("Cayley transform is not unitary")
    return a
