"""The finite-field enumerations on int residues, checked against the
FieldElement code they replaced (kept here as references)."""

import hashlib
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trialkit import cli, symcomp
from trialkit.algebra import Algebra, AlgebraError, LinearMap
from trialkit.constructors import named_algebra
from trialkit.fields import FieldDescriptor, PRIME
from trialkit.triality import (RelationFails, TrialityTriple, klein_triples,
                               product_law_failure, trig_mul)

CLOSURE_MESSAGES = ("group is not closed under inverses",
                    "group is not closed under products",
                    "Klein subgroup is missing")


def Fp(p):
    return FieldDescriptor(PRIME, p=p)


@lru_cache(maxsize=None)
def group(p):
    a = named_algebra("para2", Fp(p))
    g = symcomp.enumerate_trig_small(a)
    return a, g.elements, [symcomp._residue_triple(t) for t in g.elements]


# -- references: the FieldElement code the residue path replaced ----------

def ref_key(g):
    return tuple(tuple(str(v) for v in row) for m in g.maps for row in m.rows)


def ref_group_checks(a, elements):
    """The inverse, closure and Klein checks of the FieldElement enumeration;
    the message of the first failure, or None."""
    seen = {ref_key(g) for g in elements}
    for g in elements:
        if ref_key(TrialityTriple(a, tuple(m.inverse() for m in g.maps))) not in seen:
            return "group is not closed under inverses"
    for g in elements:
        for h in elements:
            if ref_key(trig_mul(g, h)) not in seen:
                return "group is not closed under products"
    for k in klein_triples(a):
        if ref_key(k) not in seen:
            return "Klein subgroup is missing"
    return None


def ref_group_hash(elements):
    keys = sorted(range(len(elements)), key=lambda i: ref_key(elements[i]))
    index = {ref_key(elements[i]): pos for pos, i in enumerate(keys)}
    lines = [f"{pos},{qos},{index[ref_key(trig_mul(elements[i], elements[j]))]}"
             for pos, i in enumerate(keys) for qos, j in enumerate(keys)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def ref_enumerate_sigma(a):
    one = a.field.one()
    vectors = [a.element([a.field.from_int(c) for c in coords])
               for coords in product(range(a.field.p), repeat=a.dim)]
    unit_sphere = [x for x in vectors if a.form_eval(x, x) == one]
    found = []
    for x in unit_sphere:
        for y in unit_sphere:
            z = x * y
            if y * z == x and z * x == y and a.form_eval(z, z) == one:
                found.append(tuple(tuple(str(c) for c in v.coords) for v in (x, y, z)))
    return sorted(found)


def to_triple(a, member):
    f = a.field
    return TrialityTriple(a, tuple(LinearMap(a, [[f.from_int(v) for v in row] for row in m])
                                   for m in member))


def table_outcome(members, p):
    try:
        symcomp._group_table(members, p)
    except RelationFails as exc:
        return str(exc)
    return None


# -- residue arithmetic against Algebra.multiply and form_eval ------------

RESIDUE_ALGEBRAS = [(name, p) for name in ("para2", "para:4", "para:8", "parazorn:1:1")
                    for p in (3, 5, 7, 13)]
# okubo needs sqrt(3): it exists over F3 and F13, not over F5 or F7
RESIDUE_ALGEBRAS += [("okubo", 3), ("okubo", 13)]


@lru_cache(maxsize=None)
def residue_pair(name, p):
    a = named_algebra(name, Fp(p))
    return a, symcomp.residue_arithmetic(a)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RESIDUE_ALGEBRAS), st.data())
def test_residue_product_and_form_match_field_elements(case, data):
    a, (multiply, form_eval) = residue_pair(*case)
    p, n = case[1], a.dim
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    ex, ey = a.element(list(x)), a.element(list(y))
    assert multiply(x, y) == tuple(c.a for c in a.multiply(ex, ey).coords)
    assert form_eval(x, y) == a.form_eval(ex, ey).a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.data())
def test_cayley_table_matches_trig_mul(p, data):
    a, elements, members = group(p)
    table = symcomp._group_table(members, p)
    i = data.draw(st.integers(0, len(members) - 1))
    j = data.draw(st.integers(0, len(members) - 1))
    product = symcomp._residue_triple(trig_mul(elements[i], elements[j]))
    assert tuple(symcomp._mat_mul_mod(x, y, p) for x, y in zip(members[i], members[j])) == product
    assert members[table[i][j]] == product


@pytest.mark.parametrize("p", [3, 5, 7])
def test_table_hash_matches_the_field_element_hash(p):
    _, elements, _ = group(p)
    assert symcomp.enumerate_trig_small(named_algebra("para2", Fp(p))).table_hash \
        == ref_group_hash(elements)


# -- the members of Trig(A): each distinct map proven invertible once -----

def verify_all_three_laws(a, *maps):
    """verify_triality with every cyclic law scanned, none proven from
    another (see `triality`)."""
    for g in maps:
        g.require_invertible()
    for j in range(3):
        w = product_law_failure(a, maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3])
        if w is not None:
            raise RelationFails(f"g{j + 1}(e{w[0]} e{w[1]}) != (g{j + 2 if j < 2 else 1}...)",
                                witness=(j + 1, *w))
    return TrialityTriple(a, maps)


def ref_dim2_members(a):
    """_dim2_members as it was: verify_triality on every member, scanning
    all three laws."""
    multiply, form_eval = symcomp.residue_arithmetic(a)
    p = a.field.p
    scalars = [a.field.from_int(v) for v in range(p)]
    circle = [(mu, nu) for mu in range(p) for nu in range(p) if (mu * mu + nu * nu) % p == 1]
    elements, members = [], []
    for q1 in circle:
        for q2 in circle:
            w = multiply(q1, q2)
            for q3 in circle:
                if form_eval(q3, w):
                    continue
                qs = (q1, q2, q3)
                member = tuple(((-pj[0] % p, qj[0]), (-pj[1] % p, qj[1])) for pj, qj in
                               ((multiply(qs[(j + 1) % 3], qs[(j + 2) % 3]), qs[j])
                                for j in range(3)))
                maps = [LinearMap(a, [[scalars[v] for v in row] for row in m]) for m in member]
                elements.append(verify_all_three_laws(a, *maps))
                members.append(member)
    for member in members:
        x, y, z = (form_eval((1, 0), (m[0][0], m[1][0])) for m in member)
        if (2 * x * y * z - (x * x + y * y + z * z) + 1) % p:
            raise RelationFails("member violates the alpha identity")
    for m in {m for member in members for m in member}:
        cols = tuple(zip(*m))
        if any(form_eval(cols[i], cols[k]) != a.form[i][k].a for i in range(2) for k in range(2)):
            raise RelationFails("member is not an isometry")
    return elements, members


def members_outcome(fn, a):
    try:
        elements, members = fn(a)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return [[m.rows for m in g.maps] for g in elements], members


def two_dim_variants(p):
    """para2 over F_p, and copies with e f shifted by e, with the form
    doubled, with the form diag(1, 2), and with the zero product, whose
    members have g_j(e) = 0."""
    a = named_algebra("para2", Fp(p))
    f = a.field
    one, zero = f.one(), f.zero()
    structure = [[list(row) for row in plane] for plane in a.structure]
    structure[0][1][0] = structure[0][1][0] + one
    return [a, Algebra(f, structure, form=a.form),
            Algebra(f, a.structure, form=[[x + x for x in row] for row in a.form]),
            Algebra(f, a.structure, form=[[one, zero], [zero, one + one]]),
            Algebra(f, [[[zero] * 2] * 2] * 2, form=a.form)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dim2_members_match_reference(p):
    """The same members, maps and first failure as verify_triality on every
    member, on each variant; between them they fail every check."""
    seen = set()
    for a in two_dim_variants(p):
        want = members_outcome(ref_dim2_members, a)
        assert members_outcome(symcomp._dim2_members, a) == want
        seen.add(want[1] if isinstance(want[0], str) else None)
    assert len(seen) == 5 and seen >= {None, "matrix is singular", "member is not an isometry",
                                       "member violates the alpha identity"}


# -- the closure, inverse and Klein checks must still catch a bad set -----

def test_member_removed_fails_like_before():
    a, elements, members = group(5)
    table = symcomp._group_table(members, 5)
    one = members.index(symcomp._residue_triple(klein_triples(a)[0]))
    involution = next(g for g in range(len(members)) if g != one and table[g][g] == one)
    other = next(g for g in range(len(members)) if table[g][g] != one)
    for drop, message in ((other, "group is not closed under inverses"),
                          (involution, "group is not closed under products"),
                          (one, "group is not closed under products")):
        kept = members[:drop] + members[drop + 1:]
        with pytest.raises(RelationFails, match=message):
            symcomp._group_table(kept, 5)
        assert ref_group_checks(a, [to_triple(a, m) for m in kept]) == message


def test_corrupted_entry_fails_like_before():
    a, _, members = group(5)
    (m1, m2, m3) = members[3]
    bad = ((m1[0], (m1[1][0], (m1[1][1] + 1) % 5)), m2, m3)
    corrupted = members[:3] + [bad] + members[4:]
    with pytest.raises(RelationFails, match="group is not closed under inverses"):
        symcomp._group_table(corrupted, 5)
    assert ref_group_checks(a, [to_triple(a, m) for m in corrupted]) \
        == "group is not closed under inverses"


def test_subgroup_without_the_klein_group_fails():
    a, _, _ = group(5)
    ident, *signs = klein_triples(a)
    for subgroup in ([ident], *([ident, k] for k in signs)):
        members = [symcomp._residue_triple(g) for g in subgroup]
        with pytest.raises(RelationFails, match="Klein subgroup is missing"):
            symcomp._group_table(members, 5)
        assert ref_group_checks(a, subgroup) == "Klein subgroup is missing"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_checks_match_the_field_element_checks(data):
    """On drawn subsets of the F5 group, one member possibly swapped for a
    member with one component from another member, the residue table fails
    exactly when, and with the message that, the old checks failed."""
    a, _, members = group(5)
    picked = data.draw(st.lists(st.sampled_from(range(len(members))), min_size=1,
                                max_size=len(members), unique=True))
    chosen = [members[g] for g in sorted(picked)]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(chosen) - 1))
        donor = members[data.draw(st.integers(0, len(members) - 1))]
        j = data.draw(st.integers(0, 2))
        spliced = tuple(donor[j] if c == j else m for c, m in enumerate(chosen[at]))
        if spliced not in chosen:
            chosen[at] = spliced
    want = ref_group_checks(a, [to_triple(a, m) for m in chosen])
    assert table_outcome(chosen, 5) == want
    assert want is None or want in CLOSURE_MESSAGES


# -- the sigma enumeration against the FieldElement search ----------------

def joined(triples):
    """Reference triples of coordinate tuples as `_enumerate_sigma` labels."""
    return [tuple(",".join(v) for v in t) for t in triples]


# ("ground", 17) has n(p-1)^2 = 256, the first slot of two bytes; ("hurwitz:2", 17)
# needs two where n(p-1) < 256; ("para2", 11) has labels "10" that sort before "2"
@pytest.mark.parametrize("name,p", [("para2", 5), ("para2", 13), ("para:4", 3),
                                    ("hurwitz:2", 7), ("matrix:2", 3),
                                    ("parazorn:1:1", 3), ("ground", 7),
                                    ("ground", 17), ("hurwitz:2", 17), ("para2", 11)])
def test_sigma_matches_the_field_element_search(name, p):
    a = named_algebra(name, Fp(p))
    assert cli._enumerate_sigma(a) == joined(ref_enumerate_sigma(a))


def ref_residue_sigma(a):
    """_enumerate_sigma as it was: one residue product per pair of unit vectors."""
    if a.field.kind != PRIME:
        raise AlgebraError("sigma enumeration needs a finite field")
    p = a.field.p
    n = a.dim
    if p ** n > cli.SIGMA_CAP:
        raise ValueError("space too large to enumerate")
    multiply, form_eval = symcomp.residue_arithmetic(a)
    unit_sphere = [x for x in product(range(p), repeat=n) if form_eval(x, x) == 1]
    if len(unit_sphere) ** 2 > cli.SIGMA_CAP:
        raise ValueError("space too large to enumerate")
    # table[i][j]: the index of x_i x_j in the unit sphere, or -1 when the
    # product has another norm; the checks below then cost lookups only
    where = {x: i for i, x in enumerate(unit_sphere)}
    table = [[where.get(multiply(x, y), -1) for y in unit_sphere] for x in unit_sphere]
    label = [tuple(map(str, x)) for x in unit_sphere]
    found = []
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            # z = x_i x_j with <z|z> = 1, y z = x and z x = y
            if k >= 0 and table[j][k] == i and table[k][i] == j:
                found.append((label[i], label[j], label[k]))
    found.sort()
    return found


def primes_below(bound):
    sieve = bytearray([1]) * bound
    for q in range(2, int(bound ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
    return [q for q in range(3, bound) if sieve[q]]


SIGMA_DIMS = {"ground": 1, "para2": 2, "hurwitz:2": 2, "para:4": 4, "matrix:2": 4,
              "parazorn:1:1": 4, "hurwitz:4": 4}
# the odd primes whose p^n vectors and s^2 unit-vector products the cap admits;
# between them they need slots of 1, 2, 4 and 8 bytes
CAP_PRIMES = {1: primes_below(200000), 2: primes_below(444), 4: [3, 5, 7]}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SIGMA_DIMS)), st.data())
def test_sigma_matches_the_residue_table(name, data):
    a = named_algebra(name, Fp(data.draw(st.sampled_from(CAP_PRIMES[SIGMA_DIMS[name]]))))
    assert cli._enumerate_sigma(a) == joined(ref_residue_sigma(a))
