"""Command-line surface: certify algebras, enumerate small groups, and run
the floating-point exponential bridge.

Output is deterministic: fixed check ordering, no timestamps, and the same
bytes for the same inputs.  Exit status is zero iff every requested check
passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import product, repeat
from typing import Callable, List, Optional, Tuple

from . import autos, linalg, symcomp, triality, zorn
from .algebra import Algebra, AlgebraError
from .constructors import PARA_ZORN, default_field, named_algebra
from .fields import FieldDescriptor, FieldError, PRIME, QUADRATIC, RATIONALS
from .report import CertificationReport
from .specfile import load_algebra
from .triality import Certificate

SUITES = ("core", "symcomp", "triality", "autos", "zorn", "all")


def _int(text: str, message: str) -> int:
    """The integer written in `text`, or ValueError(message) when it is not
    one."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(message) from None


def parse_field(text: str) -> FieldDescriptor:
    text = text.strip()
    if text in ("Q", "q"):
        return FieldDescriptor(RATIONALS)
    low = text.lower().replace("(", "").replace(")", "")
    message = f"cannot parse field {text!r}"
    if low.startswith("qsqrt") or low.startswith("q_sqrt"):
        return FieldDescriptor(QUADRATIC, d=_int(low.split("sqrt")[-1].lstrip("_"), message))
    if low.startswith("f"):
        try:
            return FieldDescriptor(PRIME, p=int(low[1:]))
        except ValueError as exc:
            raise ValueError(message) from exc
    raise ValueError(message)


def _load(spec: str) -> Tuple[str, Algebra]:
    if os.path.exists(spec):
        return spec, load_algebra(spec)
    return spec, _named(spec)


def _named(name: str, field: Optional[FieldDescriptor] = None) -> Algebra:
    """`named_algebra`, its errors prefixed with the name."""
    try:
        return named_algebra(name, field)
    except (ValueError, FieldError) as exc:
        raise ValueError(f"unknown algebra {name!r}: {exc}") from exc


# A check returns None when it holds, or the witness text it fails at; a
# check that raises fails with `Type: message`.
Check = Tuple[str, Callable[[], Optional[str]]]


def _run_checks(checks: List[Check]) -> Certificate:
    cert = Certificate()
    for check_id, check in checks:
        try:
            witness = check()
        except Exception as exc:  # a crashed check is a failed check
            witness = f"{type(exc).__name__}: {exc}"
        cert.add(check_id, witness is None, witness)
    return cert


def _suite_core(a: Algebra) -> List[Check]:
    def form_symmetric():
        # G - G^T is antisymmetric, so its first nonzero entry column by
        # column is the first failing (i, j) row by row
        if a.form is not None:
            w = (a.form_map() - a.form_map().transpose()).first_nonzero()
            return None if w is None else repr(w)

    def form_nondegenerate():
        if a.form is not None:
            try:
                a.form_map().require_invertible()
            except linalg.NotInvertible:
                return "'form has a radical'"

    def involution_squares_to_identity():
        # Algebra.__init__ already rejects such an involution; there is no
        # witness to give, so a failure raises
        if a.involution is not None:
            if not a.involution_map().squares_to_identity():
                raise AlgebraError("involution matrix must square to the identity")

    def acts_as(e, m):
        # the first basis index i with e e_i != m e_i or e_i e != m e_i: the
        # first nonzero column of L(e) - m or R(e) - m
        ws = [w for op in (a.left_op(e), a.right_op(e)) if (w := (op - m).first_nonzero())]
        return f"basis index {min(ws)[0]}" if ws else None

    def unit_law():
        if a.unit is not None:
            return acts_as(a.unit_element(), a.identity_map())

    def para_unit_law():
        if a.para_unit is not None and a.involution is not None:
            return acts_as(a.element(a.para_unit), a.involution_map())

    return [("core:bilinear-form-symmetric", form_symmetric),
            ("core:bilinear-form-nondegenerate", form_nondegenerate),
            ("core:involution-squares-to-identity", involution_squares_to_identity),
            ("core:unit-acts-as-identity", unit_law),
            ("core:para-unit-acts-by-conjugation", para_unit_law)]


def _suite_symcomp(a: Algebra) -> List[Check]:
    def run():
        w = symcomp.is_symmetric_composition(a).witness
        return None if w is None else repr(w)

    # one combined check keeps runtime bounded; the certificate records the
    # first failing clause with its basis witness
    return [("symcomp:two-sided-norm-and-composition-laws", run)]


def _suite_triality(a: Algebra) -> List[Check]:
    def klein():
        triples = triality.klein_triples(a)
        if len(triples) != 4:
            return repr(f"{len(triples)} sign triples")

    def scaled():
        triality.scaled_identity_triple(a, -1, -1, 1)
        triality.scaled_identity_triple(a, 1, -1, -1)

    checks: List[Check] = [("triality:sign-triples-certify", klein),
                           ("triality:scaled-identity-triple-certifies", scaled)]
    if a.form is not None and a.dim >= 2:
        def local_pair():
            if triality._is_symcomp(a):
                basis = a.basis_elements()
                triality.verify_local(a, *triality.derivation_pair(a, basis[0], basis[1]).maps())

        checks.append(("triality:basis-derivation-triple-certifies", local_pair))
    return checks


def _suite_autos(a: Algebra) -> List[Check]:
    def idempotents():
        # vacuous when the algebra has no idempotent over its field
        for idem in autos.find_idempotents(a)[:3]:
            autos.order3_auto(a, idem)

    def nilpotent():
        # unipotent_bridge(d, "der_to_auto") would only repeat the search's
        # exact checks: d is a derivation (an exact nullspace) with d d = 0.
        # Where the linearized law holds, every derivation is skew for the
        # form, so on a diagonal form that is definite under sqrt d > 0 a
        # square-zero d has <dx|dx> = -<x|d d x> = 0 and is 0: the search
        # returns None without solving anything; on other diagonal forms
        # with nonzero entries it solves the skew system in n(n-1)/2
        # unknowns.  A None is still vacuous where no proof applies.
        autos.find_nilpotent_derivation(a)

    return [("autos:idempotent-squaring-maps-certify", idempotents),
            ("autos:square-zero-derivation-round-trips", nilpotent)]


def _suite_zorn(a: Algebra) -> List[Check]:
    lam = a.field.from_int(2)
    if lam.is_zero():
        lam = a.field.from_int(3)

    # each certifier raises when a law fails
    def rho():
        zorn.zorn_rho(a, lam)

    def factorization():
        zorn.zorn_operator_factorization(a, lam)

    def swap():
        _, cert = zorn.zorn_pi(a, lam)
        bad = [clause for clause, ok, _ in cert.records
               if not ok and clause != "swap-intertwines-product"]
        return repr(bad[0]) if bad else None

    def transpose_triple():
        zorn.zorn_transpose_triple(a)

    def s_triple():
        zorn.zorn_s_triple(a)

    def conj():
        zorn.conjugate_consistency(a, lam)

    return [("zorn:scaling-triples-certify", rho),
            ("zorn:diagonal-operator-factorization", factorization),
            ("zorn:slot-swap-involution-and-conjugation", swap),
            ("zorn:transpose-automorphism-triple", transpose_triple),
            ("zorn:grading-triple-certifies", s_triple),
            ("zorn:conjugate-product-transfer", conj)]


def _suites_for(a: Algebra, suite: str) -> List[str]:
    if suite != "all":
        if suite == "zorn" and a.kind != PARA_ZORN:
            raise ValueError("the zorn suite needs a vector-matrix algebra")
        return [suite]
    names = ["core", "symcomp", "triality", "autos"]
    if a.kind == PARA_ZORN:
        names = ["core", "zorn"]
    return names


def cmd_certify(args) -> int:
    algebra_id, a = _load(args.algebra)
    builders = {"core": _suite_core, "symcomp": _suite_symcomp,
                "triality": _suite_triality, "autos": _suite_autos,
                "zorn": _suite_zorn}
    checks = [check for name in _suites_for(a, args.suite) for check in builders[name](a)]
    rep = CertificationReport(algebra_id, args.suite, _run_checks(checks))
    text = rep.render(args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if rep.checks.ok else 1


# Most entries `_enumerate_sigma` scans (p^n vectors) or tabulates (the s^2
# products of the s unit vectors, one packed integer product per row).
SIGMA_CAP = 200000


def _enumerate_sigma(a: Algebra) -> List[Tuple[str, str, str]]:
    """All product-closed unit-norm triples (a1, a2, a1 a2) over a finite
    field, found by brute force over unit-norm pairs, as sorted triples of
    labels "c1,...,cn".

    The pairs are read off one table of the products of the s unit vectors,
    one row per unit vector x, each row one integer product (Kronecker
    substitution).  Y_j packs coordinate j of every unit vector, vector t in
    block t of n slots of W bytes; C_j packs column j of L(x), the residues
    of x e_j (`symcomp.residue_arithmetic`).  Slot k of block t of
    sum_j C_j Y_j is then (x y_t)_k before its reduction mod p: n products
    of residues < p, at most n(p-1)^2.  W is the least of 1, 2, 4, 8 bytes
    with n(p-1)^2 < 256^W, so no slot carries into the next, and the row is
    exact on integers."""
    if a.field.kind != PRIME:
        raise AlgebraError("sigma enumeration needs a finite field")
    p, n = a.field.p, a.dim
    if p ** n > SIGMA_CAP:
        raise ValueError("space too large to enumerate")
    multiply, form_eval = symcomp.residue_arithmetic(a)
    # in the order of the decimal labels, so the scan below emits sorted triples
    unit_sphere = sorted((x for x in product(range(p), repeat=n) if form_eval(x, x) == 1),
                         key=lambda x: [str(c) for c in x])
    s = len(unit_sphere)
    if s ** 2 > SIGMA_CAP:
        raise ValueError("space too large to enumerate")
    width = next(w for w in (1, 2, 4, 8) if n * (p - 1) ** 2 < 256 ** w)
    block, fmt = n * width, {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
    ys = [int.from_bytes(b"".join(y[j].to_bytes(block, "little") for y in unit_sphere), "little")
          for j in range(n)]
    basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    where = {x: i for i, x in enumerate(unit_sphere)}
    # table[i][j]: the index of x_i x_j in the unit sphere, or -1 when the
    # product has another norm; the checks below then cost lookups only
    table = []
    for x in unit_sphere:
        row = sum(int.from_bytes(b"".join(c.to_bytes(width, "little") for c in multiply(x, e)),
                                 "little") * y for e, y in zip(basis, ys))
        slots = memoryview(row.to_bytes(s * block, sys.byteorder)).cast(fmt)
        table.append(list(map(where.get, zip(*[map(p.__rmod__, slots)] * n), repeat(-1))))
    label = [",".join(map(str, x)) for x in unit_sphere]
    # z = x_i x_j with <z|z> = 1, y z = x and z x = y
    return [(label[i], label[j], label[k]) for i, row in enumerate(table)
            for j, k in enumerate(row) if k >= 0 and table[j][k] == i and table[k][i] == j]


def cmd_enumerate(args) -> int:
    field = parse_field(args.field)
    out = sys.stdout
    if args.target == "trig":
        a = _named(args.algebra, field)
        group = symcomp.enumerate_trig_small(a, p_cap=args.max_p)
        out.write(f"trig group of {args.algebra} over {args.field}\n")
        out.write(f"order: {group.order}\n")
        out.write(f"table-hash: {group.table_hash}\n")
        out.write("closure: verified\n")
        return 0
    if args.target == "auto":
        group = symcomp.auto_dim2(field)
        out.write(f"automorphism group of the two-dimensional algebra "
                  f"over {args.field}\n")
        out.write(f"order: {group.order}\n")
        for i, g in enumerate(group.elements):
            flat = ",".join(str(c) for row in g.rows for c in row)
            out.write(f"  element {i}: [{flat}]\n")
        return 0
    if args.target == "sigma":
        a = _named(args.algebra, field)
        triples = _enumerate_sigma(a)
        out.write(f"product-closed unit triples of {args.algebra} "
                  f"over {args.field}\n")
        out.write(f"count: {len(triples)}\n")
        for t in triples:
            out.write("  " + " | ".join(t) + "\n")
        return 0
    raise ValueError(f"unknown target {args.target!r}")


def _parse_triple_spec(a: Algebra, spec: str):
    """Either 'd<j>:<i>,<k>' with j = 1 or 2 (derivation of two basis
    vectors, returns the local triple of that pair) or a comma list of
    scale factors for the two-dimensional rotation triple."""
    spec = spec.strip()
    if spec.startswith("d") and ":" in spec:
        head, rest = spec.split(":", 1)
        # the closed form covers d1 and d2 (`triality.exp_closed_form`)
        if head not in ("d1", "d2"):
            raise ValueError(f"component must be d1 or d2: {head}")
        j = int(head[1:])
        indices = rest.split(",")
        if len(indices) != 2:
            raise ValueError(f"expected two basis indices i,k: {rest}")
        i, k = (_int(s, f"basis indices must be integers: {rest}") for s in indices)
        if not (0 <= i < a.dim and 0 <= k < a.dim):
            raise ValueError(f"basis index out of range 0..{a.dim - 1}: {rest}")
        basis = a.basis_elements()
        pair = triality.derivation_pair(a, basis[i], basis[k])
        return pair, j
    lambdas = [a.field.from_int(_int(s, f"scale factors must be integers: {spec}"))
               for s in spec.split(",")]
    return symcomp.dim2_local(a, lambdas), None


def cmd_expcheck(args) -> int:
    _, a = _load(args.algebra)
    parsed, j = _parse_triple_spec(a, args.triple)
    triple = parsed if j is None else triality.verify_local(a, *parsed.maps())
    rep = triality.exp_bridge(triple, terms=args.terms, tolerance=args.tol)
    lines = [f"series terms: {rep.terms}", f"residual: {rep.residual:.3e}"]
    ok = rep.ok
    if j is not None:
        import numpy as np
        closed = triality.exp_closed_form(parsed, j, 1.0)
        gap = float(abs(np.array(rep.matrices[j - 1]) - closed).max())
        lines.append(f"closed-form gap: {gap:.3e}")
        ok = ok and gap < args.tol
    lines.append(f"status: {'pass' if ok else 'fail'}")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialkit",
        description="certify triality identities on composition algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run a certification suite")
    cert.add_argument("algebra", help="named algebra or spec file path")
    cert.add_argument("--suite", choices=SUITES, default="all")
    cert.add_argument("--out", default=None)
    cert.add_argument("--format", choices=("text", "json"), default="text")
    cert.set_defaults(func=cmd_certify)

    enum = sub.add_parser("enumerate", help="enumerate small groups")
    enum.add_argument("target", choices=("trig", "auto", "sigma"))
    enum.add_argument("algebra")
    enum.add_argument("field")
    enum.add_argument("--max-p", type=int, default=31)
    enum.set_defaults(func=cmd_enumerate)

    expc = sub.add_parser("expcheck", help="floating-point exponential bridge")
    expc.add_argument("algebra")
    expc.add_argument("triple")
    expc.add_argument("--terms", type=int, default=30)
    expc.add_argument("--tol", type=float, default=1e-9)
    expc.set_defaults(func=cmd_expcheck)
    return parser


# one parser for every call of `main`: argparse keeps no state between
# parse_args calls
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, FieldError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
