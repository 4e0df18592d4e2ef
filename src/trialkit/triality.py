"""Global and local triality machinery.

A global triple (g1, g2, g3) of invertible maps satisfies
g_j(xy) = (g_{j+1}x)(g_{j+2}y) for all j (indices mod 3); the set of such
triples forms the group Trig(A).  A local triple (t1, t2, t3) satisfies the
derivation-style law t_j(xy) = (t_{j+1}x)y + x(t_{j+2}y).  A law is
verified over every basis pair, which proves it by bilinearity.

On a symmetric composition algebra the first law implies the other two
(the principle of triality; A. Elduque, "The magic square and symmetric
compositions", Rev. Mat. Iberoamericana 20 (2004), and Knus, Merkurjev,
Rost and Tignol, *The Book of Involutions*, 1998, sections 35 and 45), so
`triality_law_failure` and `verify_local` scan law 1 and prove laws 2 and 3
without a scan when two guards hold:

(a) the algebra has a form and passes the linearized law (`_is_symcomp`),
    and its form is nonzero;
(b) g1 and g2 are isometries, or for a local triple t1 and t2 are skew:
    the verdicts are computed once per map and kept on it
    (`isometry_failure`, `skew_failure`), so a later check of the same law
    on the same map reads them.

Wherever a guard fails all three laws are scanned, so a verdict and its
witness are those of the full scan.

Proof.  By the lemma of `_is_symcomp`, (xy)x = x(yx) = <x|x>y.  Let x be
anisotropic, <x|x> != 0, and z any vector.  Law 1 at (x, zx), as
x(zx) = <x|x>z, reads

    <x|x> g1(z) = (g2 x) g3(zx),

and right-multiplied by g2 x, as (ab)a = <a|a>b and g2 is an isometry,

    <x|x> (g1 z)(g2 x) = <g2 x|g2 x> g3(zx) = <x|x> g3(zx).

For a local triple law 1 at (x, zx) reads <x|x> t1(z) = (t2 x)(zx) +
x t3(zx), and right-multiplied by x

    <x|x> (t1 z)x = ((t2 x)(zx))x + <x|x> t3(zx),

where the linearized law and the skewness of t2 give

    ((t2 x)(zx))x = 2<t2 x|x> zx - (x(zx))(t2 x) = -<x|x> z(t2 x).

So law 3, g3(zx) = (g1 z)(g2 x) or t3(zx) = (t1 z)x + z(t2 x), holds at
(z, x) for every anisotropic x.  These span the algebra: the form is
symmetric and nonzero and 2 is invertible, so some <a|a> != 0; for any v,
<v + ta|v + ta> is a nonzero polynomial in t of degree at most two, so over
a field of odd characteristic (`FieldDescriptor` admits no other) some t
makes v + ta anisotropic, and v = (v + ta) - ta.  Law 3 is bilinear, so it
holds everywhere.  Law 3 is law 1 of the cycled triple (g3, g1, g2), whose
second map is g1, so the same argument with guard (b) on g1 gives law 2.

Such a product law (`product_law_failure`) is checked as two integer block
products of `linalg._int_matmul`, one per side, laid out by (i, k, t) for
the pair (i, k) and the output coordinate t; the witness is the first pair
where they differ (`linalg._first_difference`).

A form law <f1 x|g1 y> = <f2 x|g2 y> (isometry, adjointness, skewness) is
checked as an identity of two Gram maps, entry (k, i) <f e_i|g e_k> (see
`_gram`), and a closed form of a map as an identity with the map built from
`left_op`, `right_op` and the rank-one `_outer`.  In both the witness is the
first nonzero entry of the difference (`LinearMap.first_nonzero`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .algebra import Algebra, AlgebraError, Element, LinearMap, _int_map
from .fields import FieldElement, FieldNotEmbeddable
from .linalg import _add_multiple, _first_difference, _int_matmul, _scaled, _sparse_lines

Pair = Tuple[int, int]


class RelationFails(AlgebraError):
    """A checked identity failed.  `witness` is where: usually the first
    failing basis tuple in row-major order, led by a component index or a
    clause name where the check has several; None when the message says it
    all."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class Certificate:
    """Outcome of a batch of identity checks, one (clause, ok, witness)
    record each; ok iff every record passed."""

    records: List[Tuple[str, bool, object]] = field(default_factory=list)

    def add(self, clause: str, ok: bool, witness=None) -> None:
        self.records.append((clause, ok, None if ok else witness))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.records)

    @property
    def witness(self) -> Optional[tuple]:
        """(clause, witness) of the first failed record, or None."""
        for clause, ok, w in self.records:
            if not ok:
                return (clause, w)
        return None

    def require(self, message: str) -> None:
        """Raise RelationFails(message) at `witness` unless every record passed."""
        if not self.ok:
            raise RelationFails(message, witness=self.witness)


class TripleBase:
    """Three linear maps on one algebra, indexed 1-based modulo 3."""

    def __init__(self, algebra: Algebra, maps: Sequence[LinearMap]):
        if len(maps) != 3:
            raise ValueError("a triple needs exactly three maps")
        self.algebra = algebra
        self.maps = tuple(maps)

    def comp(self, j: int) -> LinearMap:
        return self.maps[(j - 1) % 3]

    def __iter__(self):
        return iter(self.maps)

    def __eq__(self, other) -> bool:
        return isinstance(other, TripleBase) and self.maps == other.maps

    def __hash__(self) -> int:
        return hash(self.maps)


class TrialityTriple(TripleBase):
    pass


class LocalTriple(TripleBase):
    pass


def product_law_failure(a: Algebra, outer: LinearMap, left: LinearMap,
                        right: LinearMap, local: bool = False) -> Optional[Pair]:
    """First basis pair (i, k), in row-major order, where
    outer(e_i e_k) != (left e_i)(right e_k), or with `local`
    outer(e_i e_k) != (left e_i) e_k + e_i (right e_k); None when there is
    none, which proves the bilinear law everywhere.

    Triality and local triples are three such laws; automorphisms and
    derivations are the cases outer = left = right.

    Both sides run on linalg's integer kernel: the columns of each map are
    its numerators over its denominator (see `LinearMap`) and the structure
    constants are `a.int_terms` over `a.int_den`.  Each map is multiplied up
    front by the denominators of the maps on the other side, so that both
    sides are numerator vectors over the same denominator.  Each side is one
    block product (`_int_matmul`) laid out by (i, k, t), t the output
    coordinate: the lhs is the rows e_i e_k times the columns of outer, and
    by_right[l], over (k, t), is the columns of right times the plane e_l e_m
    of the structure constants, e_l (right e_k).  The rhs is the columns of
    left times the rows of by_right; with `local` the rows e_l e_k are
    stacked above them and column i of left gets weight 1 at by_right[i],
    e_i (right e_k).  The first entry where the sides differ (mod p over
    F_p; `_first_difference`) gives the witness.  The three maps must be
    maps of `a`.
    """
    if any(m.algebra is not a for m in (outer, left, right)):
        raise AlgebraError("maps belong to different algebras")
    n, d = a.dim, a.field.d
    terms = a.int_terms
    qo, ocols = outer._q, outer._lines(True)
    ql, lcols = left._q, left._lines(True)
    qr, rcols = right._q, right._lines(True)
    # outer(e_i e_k) is over qo int_den; (left e_i)(right e_k) over
    # ql qr int_den; (left e_i) e_k over ql int_den; e_i (right e_k) over
    # qr int_den
    if local:
        ocols = _scaled(ql * qr, ocols)
        lcols, rcols = _scaled(qo * qr, lcols), _scaled(qo * ql, rcols)
    else:
        ocols, lcols = _scaled(ql * qr, ocols), _scaled(qo, lcols)
    lhs0, lhs1 = _int_matmul(d, [row for plane in terms for row in plane], ocols, n)
    by_right = [_int_matmul(d, rcols, plane, n) for plane in terms]
    rows = _sparse_lines([r0 for r0, _ in by_right], d and [r1 for _, r1 in by_right])
    if local:
        rows = [[(k * n + t, c0, c1) for k, row in enumerate(plane) for t, c0, c1 in row]
                for plane in terms] + rows
        lcols = [column + [(n + i, 1, 0)] for i, column in enumerate(lcols)]
    rhs0, rhs1 = _int_matmul(d, lcols, rows, n * n)
    t = _first_difference(a.field.p, lhs0, lhs1, rhs0, rhs1)
    return None if t is None else divmod(t // n, n)


def linearized_failure(a: Algebra) -> Optional[tuple]:
    """First basis triple (i, j, k), in row-major order, where the linearized
    law (xy)z + (zy)x = 2<x|z>y = x(yz) + z(yx) fails, or None: the verdict
    of `symcomp.is_symmetric_composition` without the other clauses'
    witnesses, scanned once per algebra by `_linearized_law` and kept on
    it (`Algebra._verdict`).  Only the tuples with k >= i are tested (see
    `_linearized_law`)."""
    def scan():
        law = _linearized_law(a)
        return first_failing_tuple(lambda i, j, k: k < i or law(i, j, k), *[a.dim] * 3)

    return a._verdict("linearized", scan)


def _is_symcomp(a: Algebra) -> bool:
    """Whether `a` has a form and passes the linearized law
    (`linearized_failure` is None): the hypothesis of the lemma every proof
    that skips a scan rests on, read by guard (a) of the triality laws, the
    skew clause of `verify_local`, the transport guard of `symcomp`, the
    skew derivation system of `autos` and the CLI's local check.  With a
    form, it is whether `symcomp.is_symmetric_composition` holds.

    The lemma.  Let (L) be the linearized law

        (xy)z + (zy)x = 2<x|z>y = x(yz) + z(yx).                    (L)

    (L) at z = x gives (xy)x = x(yx) = <x|x>y, as 2 is invertible (Q,
    Q(sqrt d) and odd F_p).  Then x := xy in the right half of (L) and
    z := yz in its left half both read (xy)(yz) + <y|y>zx, once as
    2<xy|z>y and once as 2<x|yz>y, so 2(<xy|z> - <x|yz>)y = 0 for every y,
    and <xy|z> = <x|yz>."""
    return a.form is not None and linearized_failure(a) is None


def _linearized_law(a: Algebra) -> Callable[[int, int, int], bool]:
    """The linearized law at (e_i, e_j, e_k), as a test of (i, j, k).  On
    linalg's integer kernel, e_i e_j is terms[i][j] over den and <e_i|e_k> is
    gram_rows[i] over qg (the form's map), so with the outer terms times qg,
    each half of the law and 2<x|z>y (twice_gram) are numerator vectors over
    den^2 qg, compared exactly.  At k = i the halves read 2(xy)x and
    2x(yx) against 2<x|x>y: the two-sided norm law.

    Both halves and <x|z> are symmetric in x and z, so the test at (i, j, k)
    is the test at (k, j, i).  If it fails at some (i, j, k) with k < i, it
    fails at (k, j, i), which comes earlier in row-major order; so the first
    failing tuple has k >= i, and a scan in row-major order may skip the
    tuples with k < i and still meet it first."""
    g = a.form_map()
    n = a.dim
    d, prime = a.field.d, a.field.p
    den, terms = a.int_den, a.int_terms
    qg, gram_rows = g._q, g._lines(False)
    outer_terms = [_scaled(qg, plane) for plane in terms]
    twice_gram = [[(0, 0)] * n for _ in range(n)]
    for i, row in enumerate(gram_rows):
        for k, g0, g1 in row:
            twice_gram[i][k] = (2 * den * den * g0, 2 * den * den * g1)

    def linearized(i, j, k):
        want0, want1 = [0] * n, [0] * n
        want0[j], want1[j] = twice_gram[i][k]
        # (xy)z + (zy)x, then x(yz) + z(yx)
        l0, l1 = [0] * n, [0] * n
        for m, c0, c1 in outer_terms[i][j]:
            _add_multiple(d, l0, l1, c0, c1, terms[m][k])
        for m, c0, c1 in outer_terms[k][j]:
            _add_multiple(d, l0, l1, c0, c1, terms[m][i])
        if _first_difference(prime, l0, l1, want0, want1) is not None:
            return False
        r0, r1 = [0] * n, [0] * n
        for m, c0, c1 in outer_terms[j][k]:
            _add_multiple(d, r0, r1, c0, c1, terms[i][m])
        for m, c0, c1 in outer_terms[j][i]:
            _add_multiple(d, r0, r1, c0, c1, terms[k][m])
        return _first_difference(prime, r0, r1, want0, want1) is None

    return linearized


def _gram(a: Algebra, f: Optional[LinearMap], g: Optional[LinearMap]) -> LinearMap:
    """The map whose entry (k, i) is <f e_i | g e_k>, g^T (G f) for G the
    form's map; a map given as None is the identity.  It is stored
    transposed, so that its columns run over i and `first_nonzero` meets
    the pairs (i, k) in row-major order."""
    gf = a.form_map() if f is None else a.form_map() @ f
    return gf if g is None else _gram_of(gf, g)


def _gram_of(gf: LinearMap, g: LinearMap) -> LinearMap:
    """`_gram` of (f, g) read off gf = G f: g^T gf."""
    gf._check(g)
    a = gf.algebra
    return _int_map(a, g._q * gf._q, *_int_matmul(a.field.d, g._lines(True), gf._lines(False),
                                                  a.dim))


def form_law_failure(a: Algebra, f1: Optional[LinearMap], g1: Optional[LinearMap],
                     f2: Optional[LinearMap] = None,
                     g2: Optional[LinearMap] = None) -> Optional[Pair]:
    """First basis pair (i, k), in row-major order, where
    <f1 e_i | g1 e_k> != <f2 e_i | g2 e_k> (a map given as None is the
    identity), or None.  Isometry is (g, g), adjointness (s, None, None, t)
    and skewness (t, None, None, -t).

    Each side is one Gram map (`_gram`).  Canonical blocks make == exact,
    so the difference, whose first nonzero entry is the witness, is built
    only when the law fails."""
    lhs, rhs = _gram(a, f1, g1), _gram(a, f2, g2)
    return None if lhs == rhs else (lhs - rhs).first_nonzero()


def isometry_failure(g: LinearMap) -> Optional[Pair]:
    """First basis pair (i, k) where <g e_i | g e_k> != <e_i | e_k>, or
    None: `form_law_failure` on the algebra of g, computed once per map and
    kept on it."""
    return g._verdict("isometry", lambda: form_law_failure(g.algebra, g, g))


def skew_failure(t: LinearMap) -> Optional[Pair]:
    """First basis pair (i, k) where <t e_i | e_k> != -<e_i | t e_k>, or
    None, computed once per map and kept on it.  Both sides are symmetric in
    (i, k), so the witness has i <= k."""
    return t._verdict("skew", lambda: form_law_failure(t.algebra, t, None, None, -t))


def first_failing_tuple(holds: Callable[..., bool], *sizes: int) -> Optional[tuple]:
    """First index tuple of range(sizes[0]) x range(sizes[1]) x ..., in
    row-major order, where holds(*t) is false, or None when it holds on all
    of them."""
    for t in product(*map(range, sizes)):
        if not holds(*t):
            return t
    return None


def earliest_failure(laws: Sequence[Tuple[str, Optional[Pair]]]) -> Optional[Tuple[str, Pair]]:
    """Of (message, witness) pairs, the one whose witness comes first in
    row-major order, ties going to the earlier law: the failure a loop
    checking the laws pair by pair, in the given order, would meet first.
    None when every witness is None."""
    found = min(((w, t, message) for t, (message, w) in enumerate(laws) if w is not None),
                default=None)
    return None if found is None else (found[2], found[0])


def verify_triality(a: Algebra, g1: LinearMap, g2: LinearMap, g3: LinearMap) -> TrialityTriple:
    """Certify that g1, g2 and g3 are invertible and that
    g_j(xy) = (g_{j+1}x)(g_{j+2}y) on all basis pairs for all j.  The maps
    must be maps of `a`, which is checked first."""
    maps = (g1, g2, g3)
    if any(g.algebra is not a for g in maps):
        raise AlgebraError("maps belong to different algebras")
    for g in maps:
        g.require_invertible()
    w = triality_law_failure(a, maps)
    if w is not None:
        j, i, k = w
        raise RelationFails(f"g{j}(e{i} e{k}) != (g{j + 1 if j < 3 else 1}...)", witness=w)
    return TrialityTriple(a, maps)


def _cyclic_law_failure(a: Algebra, maps: Sequence[LinearMap], local: bool) -> Optional[tuple]:
    """(j, i, k) of the first of the three cyclic product laws of `maps`
    (`product_law_failure`, with `local` for a local triple) and its first
    failing basis pair, or None.  Laws 2 and 3 are not scanned once law 1
    holds and both guards do (see the module docstring): guard (a) adds to
    `_is_symcomp` the nonzero form that the spanning argument needs, and
    guard (b) reads the isometry verdicts of the first two maps, or with
    `local` their skew verdicts."""
    law = skew_failure if local else isometry_failure
    for j in range(3):
        if (j == 1 and _is_symcomp(a) and not a.form_map().is_zero()
                and law(maps[0]) is None and law(maps[1]) is None):
            return None
        w = product_law_failure(a, maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3], local=local)
        if w is not None:
            return (j + 1, *w)
    return None


def triality_law_failure(a: Algebra, maps: Sequence[LinearMap]) -> Optional[tuple]:
    """(j, i, k) of the first j and basis pair (i, k) where
    g_j(xy) != (g_{j+1}x)(g_{j+2}y), or None."""
    return _cyclic_law_failure(a, maps, False)


def scaled_identity_triple(a: Algebra, s1: int, s2: int, s3: int) -> TrialityTriple:
    """Sign triple (s1 Id, s2 Id, s3 Id); valid in Trig iff s1 = s2 s3 etc."""
    if s1 * s2 * s3 != 1 or any(s not in (1, -1) for s in (s1, s2, s3)):
        raise ValueError("signs must be +-1 with product 1")
    ident = a.identity_map()
    return TrialityTriple(a, (s1 * ident, s2 * ident, s3 * ident))


def klein_triples(a: Algebra) -> List[TrialityTriple]:
    """The Klein four-group of sign triples inside Trig(A)."""
    return [
        scaled_identity_triple(a, 1, 1, 1),
        scaled_identity_triple(a, 1, -1, -1),
        scaled_identity_triple(a, -1, 1, -1),
        scaled_identity_triple(a, -1, -1, 1),
    ]


def trig_mul(g: TrialityTriple, h: TrialityTriple) -> TrialityTriple:
    return TrialityTriple(g.algebra, tuple(gm @ hm for gm, hm in zip(g.maps, h.maps)))


def s4_act(word: Sequence[str], g: TrialityTriple) -> TrialityTriple:
    """Apply a word of outer symmetries to a triple, leftmost letter first.

    phi cycles components, tau_mu flips the signs of the two components other
    than mu, and theta swaps the first two components and conjugates all three
    by the involution.  With this application order the standard word
    identities hold: phi tau_mu phi_inv = tau_{mu+1} and theta tau1 theta = tau2.
    """
    a = g.algebra
    maps = list(g.maps)
    for letter in word:
        if letter == "phi":
            maps = [maps[1], maps[2], maps[0]]
        elif letter in ("phi_inv", "phi2"):
            maps = [maps[2], maps[0], maps[1]]
        elif letter in ("tau1", "tau2", "tau3"):
            mu = int(letter[-1]) - 1
            maps = [m if i == mu else -m for i, m in enumerate(maps)]
        elif letter in ("theta", "theta_inv"):
            j = a.involution_map()
            maps = [j @ maps[1] @ j, j @ maps[0] @ j, j @ maps[2] @ j]
        else:
            raise ValueError(f"unknown generator: {letter}")
    return TrialityTriple(a, tuple(maps))


def verify_local(a: Algebra, t1: LinearMap, t2: LinearMap, t3: LinearMap) -> LocalTriple:
    """Certify t_j(xy) = (t_{j+1}x)y + x(t_{j+2}y) on all basis pairs; on a
    symmetric composition algebra each component must also be skew for the form."""
    maps = (t1, t2, t3)
    w = _cyclic_law_failure(a, maps, True)
    if w is not None:
        raise RelationFails(f"local law fails at j={w[0]}, basis pair ({w[1]},{w[2]})",
                            witness=w)
    if _is_symcomp(a):
        for j, t in enumerate(maps, 1):
            w = skew_failure(t)
            if w is not None:
                raise RelationFails(f"component {j} is not skew for the form", witness=(j, *w))
    return LocalTriple(a, maps)


def alpha_shift(t: LocalTriple, alphas: Sequence[FieldElement]) -> LocalTriple:
    """New local triple t'_j = sum_k alpha_{j-k} t_k (alpha indices mod 3)."""
    if len(alphas) != 3:
        raise ValueError("three shift coefficients required")

    def alpha(m: int) -> FieldElement:
        return alphas[(m - 1) % 3]

    a = t.algebra
    new = []
    for j in range(1, 4):
        acc = alpha(j - 1) * t.comp(1)
        for k in range(2, 4):
            acc = acc + alpha(j - k) * t.comp(k)
        new.append(acc)
    return verify_local(a, *new)


def commutator_closure(t: LocalTriple, u: LocalTriple) -> LocalTriple:
    """Componentwise commutator of two local triples, recertified."""
    a = t.algebra
    maps = [tm.commutator(um) for tm, um in zip(t.maps, u.maps)]
    return verify_local(a, *maps)


@dataclass
class DerivationPair:
    algebra: Algebra
    x: Element
    y: Element
    d1: LinearMap
    d2: LinearMap
    d3: LinearMap

    def comp(self, j: int) -> LinearMap:
        return (self.d1, self.d2, self.d3)[(j - 1) % 3]

    def maps(self) -> Tuple[LinearMap, LinearMap, LinearMap]:
        return (self.d1, self.d2, self.d3)


def _outer(a: Algebra, u: Element, w: Element) -> LinearMap:
    """The rank-one map z -> <w|z> u: the column u times the row <w|.>,
    the form's map applied to w, on the numerators."""
    bw = a.form_map()(w)
    column = _sparse_lines([[x] for x in u._n0], u._n1 and [[x] for x in u._n1])
    row = _sparse_lines([bw._n0], bw._n1 and [bw._n1])
    return _int_map(a, u._q * bw._q, *_int_matmul(a.field.d, column, row, a.dim))


def _wedge(a: Algebra, u: Element, w: Element) -> LinearMap:
    """The rank-two map z -> <w|z> u - <u|z> w."""
    return _outer(a, u, w) - _outer(a, w, u)


def derivation_pair(a: Algebra, x: Element, y: Element) -> DerivationPair:
    """(d1, d2, d3)(x, y) as in the triality Lie algebra of a symmetric
    composition algebra: d1(x,y) = R_y L_x - R_x L_y,
    d2(x,y) = L_y R_x - L_x R_y and d3(x,y) z = 4(<x|z> y - <y|z> x), the
    wedge of 4y and x."""
    lx, ly, rx, ry = a.left_op(x), a.left_op(y), a.right_op(x), a.right_op(y)
    return DerivationPair(a, x, y, ry @ lx - rx @ ly, ly @ rx - lx @ ry,
                          _wedge(a, a.field.from_int(4) * y, x))


def classify_regularity(a: Algebra) -> str:
    """Classify the derivation system: 'normal', 'pre-normal' or 'none'.

    Regular: (d1, d2, d3)(x, y) is a local triple for all x, y.
    Pre-normal adds the cyclic sum d3(x,y)z + d3(y,z)x + d3(z,x)y = 0.
    Normal adds Q(x,y,z) = d1(z,xy) + d2(y,zx) + d3(x,yz) = 0 as operators.

    Only the local law and Q are scanned; the rest holds by construction.
    Each d_j(x, y) is bilinear, and d_j(x, x) = 0 and d_j(y, x) = -d_j(x, y)
    hold entry by entry: d1(x, x) and d2(x, x) are a product minus itself,
    and d3(x, y)z = 4(<z|x> y - <z|y> x) is alternating in (x, y).  The
    local law is linear in the triple, so on the basis pairs i < j it proves
    the law for all x, y.  Q is trilinear, so once the local law holds
    Q(e_i, e_j, e_k) is read off those n(n-1)/2 derivation pairs and the
    structure constants, d1(e_k, e_i e_j) = sum_m c_ij^m d1(e_k, e_m) and
    likewise for d2 and d3: all n^3 of them are one block product
    (`linalg._int_matmul`), and no map of a product is built.  The cyclic
    sum is 4(<z|x>y - <z|y>x + <x|y>z - <x|z>y + <y|z>x - <y|x>z), which is
    zero because `Algebra.__init__` rejects a form that is not symmetric;
    so every regular system is pre-normal, and 'regular' is never returned.
    """
    n = a.dim
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            pairs[i, j] = derivation_pair(a, a.basis(i), a.basis(j)).maps()
            try:
                verify_local(a, *pairs[i, j])
            except RelationFails:
                return "none"
    # d_t(e_u, e_m) for every u and m, alternating in (u, m), each as one
    # row of numerators over the common denominator q; the zero map is read
    # off the form's map, which raises, as d3 does, when there is no form
    # (also at n = 1, where there is no pair)
    zero = 0 * a.form_map()
    maps = [pairs[u, m][t] if u < m else -pairs[m, u][t] if u > m else zero
            for t in range(3) for u in range(n) for m in range(n)]
    q = lcm(*[f._q for f in maps])
    stacked = [_scaled(q // f._q, _sparse_lines([f._n0], f._n1 and [f._n1]))[0] for f in maps]
    # Q is trilinear: d1(e_k, e_i e_j) = sum_m c_ij^m d1(e_k, e_m), d2 reads
    # c_ki and d3 reads c_jk, so Q(e_i, e_j, e_k) times int_den q is one row
    # of structure constants times the stacked maps
    rows = [[((t * n + u) * n + m, c0, c1)
             for t, u, (v, w) in ((0, k, (i, j)), (1, j, (k, i)), (2, i, (j, k)))
             for m, c0, c1 in a.int_terms[v][w]]
            for i in range(n) for j in range(n) for k in range(n)]
    q0, q1 = _int_matmul(a.field.d, rows, stacked, n * n)
    zeros = [0] * len(q0)
    normal = _first_difference(a.field.p, q0, q1, zeros, q1 and zeros) is None
    return "normal" if normal else "pre-normal"


def commutator_covariance(a: Algebra, t: LocalTriple, x: Element, y: Element) -> None:
    """[t_j, d_k(x,y)] = d_k(t_{j-k}x, y) + d_k(x, t_{j-k}y) for all j, k."""
    d = derivation_pair(a, x, y)
    # the right-hand side depends on j - k only (mod 3)
    moved = [(derivation_pair(a, t.comp(s)(x), y),
              derivation_pair(a, x, t.comp(s)(y))) for s in range(3)]
    for j in range(1, 4):
        for k in range(1, 4):
            left, right = moved[(j - k) % 3]
            if t.comp(j).commutator(d.comp(k)) != left.comp(k) + right.comp(k):
                raise RelationFails(f"commutator covariance fails at j={j}, k={k}",
                                    witness=(j, k))


def conjugation_covariance(a: Algebra, g: TrialityTriple, x: Element, y: Element) -> None:
    """g_j d_k(x,y) g_j^{-1} = d_k(g_{j-k}x, g_{j-k}y) for all j, k."""
    d = derivation_pair(a, x, y)
    # the right-hand side depends on j - k only (mod 3)
    moved = [derivation_pair(a, g.comp(s)(x), g.comp(s)(y)) for s in range(3)]
    for j in range(1, 4):
        gj = g.comp(j)
        gj_inv = gj.inverse()
        for k in range(1, 4):
            if gj @ d.comp(k) @ gj_inv != moved[(j - k) % 3].comp(k):
                raise RelationFails(f"conjugation covariance fails at j={j}, k={k}",
                                    witness=(j, k))


# ---------------------------------------------------------------------------
# Float bridge from local to global triples
# ---------------------------------------------------------------------------

@dataclass
class ExpReport:
    terms: int
    tolerance: float
    residual: float
    matrices: List[List[List[float]]]

    @property
    def ok(self) -> bool:
        return self.residual < self.tolerance


def _to_float_matrix(m: LinearMap) -> "object":
    import numpy as np

    return np.array([[c.to_float() for c in row] for row in m.rows], dtype=float)


def exp_bridge(t: LocalTriple, terms: int = 30, tolerance: float = 1e-9) -> ExpReport:
    """Truncated exponentials of a local triple, checked as an approximate
    global triple against the float structure tensor.

    Raises FieldNotEmbeddable over finite fields.
    """
    import numpy as np

    a = t.algebra
    if a.field.characteristic != 0:
        raise FieldNotEmbeddable("exponentials need a characteristic-zero field")
    n = a.dim
    c = np.array(
        [[[a.structure[i][j][k].to_float() for k in range(n)] for j in range(n)] for i in range(n)],
        dtype=float,
    )
    exps = []
    for m in t.maps:
        fm = _to_float_matrix(m)
        acc = np.eye(n)
        term = np.eye(n)
        for s in range(1, terms + 1):
            term = term @ fm / s
            acc = acc + term
        exps.append(acc)
    residual = 0.0
    for j in range(3):
        gj, gj1, gj2 = exps[j], exps[(j + 1) % 3], exps[(j + 2) % 3]
        for i in range(n):
            for k in range(n):
                lhs = gj @ c[i, k, :]
                # (g_{j+1} e_i)(g_{j+2} e_k) via the structure tensor
                u = gj1[:, i]
                v = gj2[:, k]
                rhs = np.einsum("a,b,abk->k", u, v, c)
                residual = max(residual, float(np.max(np.abs(lhs - rhs))))
    return ExpReport(terms=terms, tolerance=tolerance, residual=residual,
                     matrices=[e.tolist() for e in exps])


def exp_closed_form(pair: DerivationPair, j: int, lam: float):
    """Closed form of exp(lam * d_j) for j in {1, 2}, where d_j^2 = Delta Id
    with Delta = 4(<x|y>^2 - <x|x><y|y>)."""
    import numpy as np

    if j not in (1, 2):
        raise ValueError("closed form applies to the first two components")
    a = pair.algebra
    x, y = pair.x, pair.y
    delta = a.field.from_int(4) * (
        a.form_eval(x, y) * a.form_eval(x, y) - a.form_eval(x, x) * a.form_eval(y, y)
    )
    dval = delta.to_float()
    d = _to_float_matrix(pair.comp(j))
    n = a.dim
    eye = np.eye(n)
    d2 = d @ d
    if dval == 0.0:
        return eye + lam * d + (lam * lam / 2.0) * d2
    if dval > 0:
        r = dval ** 0.5
        s = np.sinh(lam * r) / r
        c = (np.cosh(lam * r) - 1.0) / dval
    else:
        r = (-dval) ** 0.5
        s = np.sin(lam * r) / r
        c = (np.cos(lam * r) - 1.0) / dval
    return eye + s * d + c * d2
