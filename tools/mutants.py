"""Seeded mutants against src/trialkit: a mutation gate for the test suite.

Each mutant is a textual patch (one exact `old` -> `new` replacement in one
source file) plus the tests that should catch it.  For each mutant the tool
copies src/, tests/ and pyproject.toml to a temporary directory, applies the
patch there, and runs pytest on the named tests.  A mutant is killed when
pytest reports a failure.  Mutants listed as equivalent compute the same
results as the original code, for the reason given; they are run too and
are expected to survive.

The exit status is 0 when every patch applies, the unpatched copy passes the
selected tests, every other mutant is killed and every equivalent one
survives.  The repository itself is never modified.  Not part of tier-1:
a full run of the 143 mutants takes about twenty minutes on two cores, most of
it in hypothesis shrinking the counterexamples of the slower tests.

Usage:
    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLI_PINS = "tests/test_cli.py::test_certify_output_is_pinned"
SHAPE_PINS = "tests/test_cli.py::test_certify_witness_shapes_are_pinned"
LAWS = "tests/test_laws.py::"
KERNEL_LAWS = LAWS + "test_law_kernels_match_the_fieldelement_checkers"
SQRT_D_LAW = LAWS + "test_product_law_fails_first_in_the_sqrt_d_part_alone"
KERNEL_PRODUCTS = "tests/test_linalg.py::test_integer_products_match_the_ring_loop"
PRODUCT_LOOP = "tests/test_algebra.py::test_product_loop_matches_the_fieldelement_and_residue_loops"
NULLSPACE = "tests/test_linalg.py::test_nullspace_matches_exact_rref"
RAW_ROWS = "tests/test_linalg.py::test_kernel_reads_raw_integer_rows_mod_p"
HURWITZ_SIGMA = LAWS + "test_hurwitz_sigma_matches_reference"
TUPLE_CHECKS = LAWS + "test_tuple_checks_keep_their_witnesses"
SHIFTED_RECORDS = LAWS + "test_symmetric_composition_records_match_reference_after_a_random_shift"
INT_MAPS = "tests/test_algebra.py::test_integer_maps_match_the_fieldelement_loops"
INT_ELEMENTS = "tests/test_algebra.py::test_integer_elements_match_the_fieldelement_loops"
SQUARE_TEST = "tests/test_linalg.py::test_sparse_square_test_matches_the_dense_product"
UNIT_SYSTEM = "tests/test_linalg.py::test_find_unit_matches_the_fieldelement_system"
INVERSES = ("tests/test_linalg.py::test_map_inverse_matches_exact_rref",
            "tests/test_linalg.py::test_mat_inv_matches_exact_rref")
COERCE = "tests/test_algebra.py::test_scalars_coerce_exactly_or_raise"
FIELD_EQUALITY = "tests/test_fields.py::test_equality_with_ints_and_fractions"
OKUBO_TABLE = "tests/test_constructors.py::test_okubo_matches_dense_trace_reference"
SIGMA_SEARCH = "tests/test_enumerate.py::test_sigma_matches_the_field_element_search"
CLASSIFY = (LAWS + "test_classify_regularity_matches_reference",
            LAWS + "test_classify_regularity_matches_reference_on_small_algebras",
            LAWS + "test_classify_regularity_reaches_each_verdict")
FAILED_GUARD = LAWS + "test_a_failed_guard_scans_every_law"
VERDICTS_ONCE = LAWS + "test_each_map_verdict_is_computed_once"
TRANSPORT = LAWS + "test_transport_vectors_match_reference"
HURWITZ_TRANSPORT = "tests/test_symcomp.py::test_transport_failures_on_a_hurwitz_algebra"
MAP_EQUALITY = "tests/test_algebra.py::test_maps_of_two_algebras_are_unequal"
NO_FORM = LAWS + "test_every_guard_is_false_without_a_form"
PAIR_SEARCH = ("tests/test_autos.py::test_find_nilpotent_derivation_matches_full_product_search",
               "tests/test_autos.py::test_pair_search_returns_a_square_zero_difference")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                       # relative to src/trialkit
    old: str
    new: str
    tests: Tuple[str, ...]
    equivalent: Optional[str] = None  # why it cannot be caught


MUTANTS = (
    # -- one outcome record: Certificate, the report and the CLI checks ------
    Mutant("witness string rendered without its quotes", "cli.py",
           "return \"'form has a radical'\"", "return \"form has a radical\"",
           (SHAPE_PINS,)),
    Mutant("clause name rendered without its quotes", "cli.py",
           "return repr(bad[0]) if bad else None", "return bad[0] if bad else None",
           (SHAPE_PINS,)),
    Mutant("unit witness off by one", "cli.py",
           'return f"basis index {min(ws)[0]}" if ws else None',
           'return f"basis index {min(ws)[0] + 1}" if ws else None',
           (SHAPE_PINS, TUPLE_CHECKS)),
    Mutant("a crashed check passes", "cli.py",
           "cert.add(check_id, witness is None, witness)", "cert.add(check_id, True, witness)",
           (CLI_PINS,)),
    Mutant("slot-swap check keeps the swap clause", "cli.py",
           'if not ok and clause != "swap-intertwines-product"]', "if not ok]",
           (CLI_PINS,)),
    Mutant("report counts every check as passed", "report.py",
           "passed = sum(ok for _, ok, _ in self.checks.records)", "passed = total",
           (CLI_PINS,)),
    Mutant("require drops the witness", "triality.py",
           "raise RelationFails(message, witness=self.witness)", "raise RelationFails(message)",
           (LAWS + "test_conjugate_consistency_reports_the_first_failing_tuple",)),
    Mutant("require never raises", "triality.py",
           "        if not self.ok:\n            raise RelationFails(message",
           "        if False:\n            raise RelationFails(message",
           (LAWS + "test_conjugate_consistency_reports_the_first_failing_tuple",)),
    # -- is_symmetric_composition: linearized implies the other five -------
    Mutant("skip taken when linearized fails", "symcomp.py",
           "w = failure(a, lefts, rights) if failure and linearized is not None else linearized",
           "w = None if failure and linearized is not None else linearized",
           (LAWS + "test_symmetric_composition_scans_only_the_generating_clauses",)),
    Mutant("form associativity skipped when linearized fails", "symcomp.py",
           "if failure and linearized is not None else linearized",
           "if failure not in (None, _form_associativity_failure) and linearized is not None "
           "else linearized",
           (LAWS + "test_symmetric_composition_scans_only_the_generating_clauses",)),
    Mutant("implied records out of order", "symcomp.py",
           '    for clause, failure in (("two-sided-norm-law", _two_sided_norm_failure),\n'
           '                            ("composition-law", _composition_failure),',
           '    for clause, failure in (("composition-law", _composition_failure),\n'
           '                            ("two-sided-norm-law", _two_sided_norm_failure),',
           (LAWS + "test_symmetric_composition_scans_only_the_generating_clauses",)),
    Mutant("fallback drops the linearized witness", "symcomp.py",
           "linearized is not None else linearized", "linearized is not None else None",
           (LAWS + "test_symmetric_composition_scans_only_the_generating_clauses",)),
    # -- sigma_theta_triples: one-sided inverses -----------------------------
    Mutant("sigma_j theta_j test dropped", "symcomp.py",
           "if not (sigma.comp(j) @ theta.comp(j)).is_identity():", "if False:",
           (LAWS + "test_sigma_theta_product_check_matches_reference",)),
    Mutant("theta_j sigma_j tested in place of sigma_j theta_j", "symcomp.py",
           "if not (sigma.comp(j) @ theta.comp(j)).is_identity():",
           "if not (theta.comp(j) @ sigma.comp(j)).is_identity():",
           (LAWS + "test_sigma_theta_product_check_matches_reference",),
           equivalent="a one-sided inverse of a square matrix is two-sided"),
    Mutant("theta product at j=2, message and witness j=2", "symcomp.py",
           'if not (theta.comp(1) @ theta.comp(2) @ theta.comp(3)).is_identity():\n'
           '        raise RelationFails("theta product at j=1 is not Id", witness=(1,))',
           'if not (theta.comp(2) @ theta.comp(3) @ theta.comp(1)).is_identity():\n'
           '        raise RelationFails("theta product at j=2 is not Id", witness=(2,))',
           (LAWS + "test_sigma_theta_product_check_matches_reference",)),
    Mutant("theta product at j=2 with the j=1 message", "symcomp.py",
           "if not (theta.comp(1) @ theta.comp(2) @ theta.comp(3)).is_identity():",
           "if not (theta.comp(2) @ theta.comp(3) @ theta.comp(1)).is_identity():",
           (LAWS + "test_sigma_theta_product_check_matches_reference",),
           equivalent="theta_2 theta_3 theta_1 is a conjugate of theta_1 theta_2 theta_3, "
                      "so one is Id exactly when the other is"),
    Mutant("sigma isometry check dropped", "symcomp.py",
           "        w = isometry_failure(s)\n", "        w = None\n",
           (LAWS + "test_sigma_theta_triples_match_reference",)),
    # -- one builder per construction --------------------------------------
    Mutant("order-3 certifier: inverse test dropped", "autos.py",
           "    if not (sigma @ inverse).is_identity():", "    if False:",
           (LAWS + "test_order3_auto_matches_reference", HURWITZ_SIGMA)),
    Mutant("order-3 certifier: order test dropped", "autos.py",
           "    if not (sigma @ sigma @ sigma).is_identity():", "    if False:",
           (LAWS + "test_order3_auto_matches_reference", HURWITZ_SIGMA)),
    Mutant("order-3 certifier: unit test dropped", "autos.py",
           "if fixed is not None and sigma(fixed) != fixed:", "if False:",
           (HURWITZ_SIGMA,)),
    Mutant("pattern points skip a sign run", "autos.py",
           "starts = range(len(imag) - 2)", "starts = range(1, len(imag) - 2)",
           ("tests/test_autos.py::test_sphere_patterns_match_the_reference",)),
    Mutant("mixed chain built as right", "autos.py",
           "factors = [op for x in chain for op in (h.left_op(x), h.right_op(x))]",
           "factors = [h.right_op(x) for x in chain]",
           (LAWS + "test_chain_products_match_reference",)),
    Mutant("wedge with u and w swapped", "triality.py",
           "return _outer(a, u, w) - _outer(a, w, u)", "return _outer(a, w, u) - _outer(a, u, w)",
           ("tests/test_symcomp.py::test_local_D_certifies_and_cycles",
            "tests/test_triality.py::test_derivation_pair_gives_local_triple")),
    Mutant("verify_triality's invertibility proof dropped", "triality.py",
           "    for g in maps:\n        g.require_invertible()\n", "",
           ("tests/test_enumerate.py::test_dim2_members_match_reference",)),
    # -- one sparse square test, on the integers ---------------------------
    Mutant("square test ignores its target", "linalg.py",
           "        acc0[i] -= t\n", "",
           (SQUARE_TEST, "tests/test_algebra.py")),
    Mutant("square test reads the first row only", "linalg.py",
           "for i, row in enumerate(rows):\n        acc0, acc1 = [0] * len(rows)",
           "for i, row in enumerate(rows[:1]):\n        acc0, acc1 = [0] * len(rows)",
           (SQUARE_TEST,)),
    Mutant("involution test against q Id in place of q^2 Id", "algebra.py",
           "self._lines(False), self._q * self._q)", "self._lines(False), self._q)",
           (SQUARE_TEST, "tests/test_algebra.py")),
    # -- the integer kernel -------------------------------------------------
    Mutant("pair product drops the d u1 v1 term", "linalg.py",
           "acc0[r] += y0 * v0 + dy1 * v1", "acc0[r] += y0 * v0",
           (KERNEL_LAWS,)),
    Mutant("mat_mul over the denominator of a alone", "linalg.py",
           "return _split(_wrap_vector(desc, qa * qb, *_int_matmul(",
           "return _split(_wrap_vector(desc, qa, *_int_matmul(",
           (KERNEL_PRODUCTS,)),
    Mutant("product law compared without cross-multiplying", "triality.py",
           "ocols, lcols = _scaled(ql * qr, ocols), _scaled(qo, lcols)",
           "ocols, lcols = ocols, lcols",
           (KERNEL_LAWS,)),
    Mutant("Gram map over the denominator of G f alone", "triality.py",
           "_int_map(a, g._q * gf._q,", "_int_map(a, gf._q,",
           (KERNEL_LAWS,)),
    Mutant("comparison skips the mod-p reduction", "linalg.py",
           "differs = (map(p.__rmod__, map(sub, u0, v0)) if p is not None",
           "differs = (map(sub, u0, v0) if p is not None",
           (KERNEL_LAWS,)),
    Mutant("comparison reads the sqrt d parts only where the rational parts differ", "linalg.py",
           "if p is None and u0 == v0 and u1 == v1:", "if p is None and u0 == v0:",
           (SQRT_D_LAW,)),
    Mutant("lift with max in place of lcm", "linalg.py",
           "q = 1 if desc.p is not None else lcm(*[x._q for x in xs])",
           "q = 1 if desc.p is not None else max([x._q for x in xs], default=1)",
           (INT_MAPS, INT_ELEMENTS)),
    Mutant("product law witness read as (k, i) in place of (i, k)", "triality.py",
           "return None if t is None else divmod(t // n, n)",
           "return None if t is None else divmod(t // n, n)[::-1]",
           (KERNEL_LAWS,)),
    Mutant("local law drops e_i (right e_k)", "triality.py",
           "lcols = [column + [(n + i, 1, 0)]", "lcols = [column + [(n + i, 0, 0)]",
           (KERNEL_LAWS, LAWS + "test_local_law_matches_reference")),
    Mutant("by_right built from left's columns", "triality.py",
           "by_right = [_int_matmul(d, rcols, plane, n)",
           "by_right = [_int_matmul(d, lcols, plane, n)",
           (KERNEL_LAWS,)),
    # -- one structure-constant table: Algebra.int_product -----------------
    Mutant("product loop drops d x1 y1", "algebra.py",
           "a0 * b0 + d * a1 * b1, a0 * b1 + a1 * b0", "a0 * b0, a0 * b1 + a1 * b0",
           (PRODUCT_LOOP,)),
    Mutant("wrap without int_den", "algebra.py",
           "x._q * y._q * self.int_den,", "x._q * y._q,",
           (PRODUCT_LOOP,)),
    Mutant("residue product without mod p", "symcomp.py",
           "return tuple(map(p.__rmod__, product(x, y)[0]))", "return tuple(product(x, y)[0])",
           (PRODUCT_LOOP,)),
    Mutant("left_op built as right_op", "algebra.py",
           "return self._multiplication(x, True)", "return self._multiplication(x, False)",
           (PRODUCT_LOOP,)),
    Mutant("multiplication map drops d x1 c1", "algebra.py",
           "m0[k * n + c] += a0 * c0 + da1 * c1", "m0[k * n + c] += a0 * c0",
           (PRODUCT_LOOP,)),
    Mutant("one sign flipped in the derivation rows", "autos.py",
           "(m, l * n + i, -c0, -c1)", "(m, l * n + i, c0, -c1)",
           ("tests/test_linalg.py::test_derivation_space_matches_exact_reference[Q]",)),
    # -- the derivation system at its size: skew unknowns, proof of none ----
    Mutant("skew system without the linearized precondition", "autos.py",
           "    if not _is_symcomp(a):\n        return None\n    g = a.form_map()",
           "    if a.form is None:\n        return None\n    g = a.form_map()",
           ("tests/test_linalg.py::test_derivation_space_matches_exact_reference[Q]",)),
    Mutant("skew system with a zero form entry", "autos.py",
           "if not all(g0 or g1 for g0, g1 in weights) or any(", "if any(",
           ("tests/test_linalg.py::test_zero_algebra_with_zero_form_has_every_map_as_derivation",)),
    Mutant("sign test ignores the sqrt d part", "autos.py",
           "if d is None or not s1 or s0 == s1:", "if True:",
           ("tests/test_autos.py::test_real_sign_is_exact_near_zero",)),
    Mutant("skew weight g_k in place of g_l", "autos.py",
           "place[k * n + l] = (cols, *weights[l])", "place[k * n + l] = (cols, *weights[k])",
           ("tests/test_linalg.py::test_derivation_space_matches_exact_reference[Q]",)),
    Mutant("skew kernel not re-reduced", "autos.py",
           "basis = linalg._span_kernel_basis(spans, n * n, a.field)",
           "basis = [(1, [s.get(t, 0) for t in range(n * n)], None) for s in spans]",
           ("tests/test_linalg.py::test_derivation_space_matches_exact_reference[Q]",)),
    Mutant("span basis keeps a negative pivot", "linalg.py",
           "sign = -1 if s < 0 else 1", "sign = 1",
           ("tests/test_linalg.py::test_span_kernel_basis_recovers_the_rref_kernel_basis",)),
    Mutant("proof of none on an indefinite form", "autos.py",
           "return len({_real_sign(g0, g1, d) for g0, g1 in weights}) == 1", "return True",
           PAIR_SEARCH),
    # -- one elimination for Q, Q(sqrt d) and F_p: _eliminate ----------------
    Mutant("pivot row not multiplied by the pivot's conjugate", "linalg.py",
           "            if p1:\n                dp1 = d * p1", "            if False:\n                dp1 = d * p1",
           (NULLSPACE,)),
    Mutant("earlier pivot rows not re-reduced", "linalg.py",
           "        for r in hits + [r for r in pivots.values() if c in r]:\n"
           "            if r is piv:\n                continue\n            f = r[c]",
           "        for r in hits:\n"
           "            if r is piv:\n                continue\n            f = r[c]",
           (NULLSPACE,)),
    Mutant("wrong sign on the negative-pivot read-off", "linalg.py",
           "t = -(q // s)", "t = -(q // abs(s))",
           (NULLSPACE,)),
    Mutant("gcd division dropped", "linalg.py",
           "                if g > 1:\n                    for k, x in r.items():",
           "                if False:\n                    for k, x in r.items():",
           (NULLSPACE,),
           equivalent="dividing a row by a positive integer only rescales it, which "
                      "changes neither its kernel nor any ratio row[f]/row[pc]"),
    Mutant("F_p update skips the mod-p reduction", "linalg.py",
           "x = (r.get(k, 0) - f * y) % p", "x = r.get(k, 0) - f * y",
           (RAW_ROWS,)),
    Mutant("F_p pivot row not normalized", "linalg.py",
           "if (y := x * inv % p)]", "if (y := x % p)]",
           (NULLSPACE,)),
    Mutant("integer rows without the lcm over Q", "linalg.py",
           "q = 1 if desc.p is not None else lcm(*[x._q for x in xs])",
           "q = 1",
           (NULLSPACE,)),
    Mutant("F_p pivot not tested mod p", "linalg.py",
           "if c in r and r[c] % p]", "if c in r]",
           (RAW_ROWS,)),
    # -- one integer block under Element and LinearMap ----------------------
    Mutant("canonical form skips the gcd", "algebra.py",
           "            if g != 1:\n                q, n0 = q // g",
           "            if False:\n                q, n0 = q // g",
           (INT_MAPS, INT_ELEMENTS)),
    Mutant("canonical form skips the mod-p reduction", "algebra.py",
           "n0 = [u % field.p for u in n0]", "n0 = list(n0)",
           (INT_MAPS, INT_ELEMENTS)),
    Mutant("scalar scaling drops d c1 n1", "algebra.py",
           "[c0 * u + dc1 * v for u, v in pairs]", "[c0 * u for u, v in pairs]",
           (INT_MAPS, INT_ELEMENTS)),
    Mutant("operand check removed", "algebra.py",
           "        if other.algebra is not self.algebra:\n            raise AlgebraError(",
           "        if False:\n            raise AlgebraError(",
           ("tests/test_algebra.py::test_operands_must_share_an_algebra",)),
    Mutant("scalar coercion accepts a float", "fields.py",
           "        if isinstance(x, int):\n            return self.from_int(int(x))",
           "        if isinstance(x, (int, float)):\n            return self.from_int(int(x))",
           (COERCE,)),
    Mutant("coerce reads a str or a float through Fraction()", "fields.py",
           "        if isinstance(x, Fraction):\n            return self.from_fraction(x)",
           "        if isinstance(x, (Fraction, float, str)):\n"
           "            return self.from_fraction(Fraction(x))",
           (COERCE,)),
    Mutant("element() truncates over F_p again", "fields.py",
           "        x = self.coerce(a)\n        if b is None:",
           "        x = self.coerce(a if self.p is None or isinstance(a, FieldElement) else int(a))\n"
           "        if b is None:",
           (COERCE,)),
    Mutant("lift skips the field check", "linalg.py",
           "xs = [desc.coerce(x) for x in xs]",
           "xs = [x if isinstance(x, FieldElement) else desc.coerce(x) for x in xs]",
           (COERCE,)),
    Mutant("inverse read off without the map's denominator", "linalg.py",
           "scaled = [(q * (s // t), v0, v1)", "scaled = [(s // t, v0, v1)",
           INVERSES),
    Mutant("square-zero test without the mod-p reduction", "linalg.py",
           "acc0 = [x % p for x in acc0]", "acc0 = acc0",
           (INT_MAPS, *PAIR_SEARCH)),
    Mutant("pair search with the difference flipped", "autos.py",
           "for d in (bi + bj, bi - bj):", "for d in (bi + bj, bj - bi):",
           PAIR_SEARCH),
    Mutant("map product drops d x1 y1", "linalg.py",
           "dy1 = d * y1", "dy1 = 0 * y1",
           (INT_MAPS,)),
    # -- integer-native elements ---------------------------------------------
    Mutant("form_eval with the d a1 g1 term negated", "algebra.py",
           "c0, c1 = a0 * g0 + d * a1 * g1, a0 * g1 + a1 * g0",
           "c0, c1 = a0 * g0 - d * a1 * g1, a0 * g1 + a1 * g0",
           (INT_ELEMENTS,)),
    Mutant("first-order factorization without the eps part", "symcomp.py",
           "if re != ident or ep != ds[j - 1]:", "if re != ident:",
           (LAWS + "test_first_order_factorization_matches_reference",)),
    # -- earlier cuts: certify each identity once ---------------------------
    Mutant("inverse accepts when the y blocks only have a unit diagonal", "linalg.py",
           "if any(v0[n:] != [t * (k == j) for k in range(n)] or (v1 and any(v1[n:]))",
           "if any(v0[n + j] != t",
           ("tests/test_linalg.py",),
           equivalent="an RREF kernel vector is zero past its free column, so a "
                      "singular matrix always leaves a 0 on that diagonal"),
    Mutant("find_unit accepts an inconsistent system", "constructors.py",
           "if not basis or not basis[-1][1][n]:", "if not basis:",
           (UNIT_SYSTEM,)),
    Mutant("first-order factorization with theta factors swapped", "symcomp.py",
           "(a2, p2), (a1, p1) = left[(j + 1) % 3], left[j % 3]",
           "(a2, p2), (a1, p1) = left[j % 3], left[(j + 1) % 3]",
           (LAWS + "test_first_order_factorization_matches_reference",)),
    # -- one derivation-pair rule: classify_regularity, covector, parse_scalar
    Mutant("normality sum without its d3 term", "triality.py",
           "(1, j, (k, i)), (2, i, (j, k)))", "(1, j, (k, i)))",
           CLASSIFY),
    Mutant("local-law failure ignored", "triality.py",
           "            except RelationFails:\n                return \"none\"",
           "            except RelationFails:\n                pass",
           CLASSIFY),
    Mutant("covector assumes the identity form", "algebra.py",
           "return self.form_map()(w).coords", "return list(w.coords)",
           ("tests/test_algebra.py::test_covector_matches_the_form_eval_comprehension",)),
    Mutant("parse_scalar ignores the radicand", "fields.py",
           "    if int(d) != desc.d:\n", "    if False:\n",
           ("tests/test_cli.py::test_spec_with_a_foreign_radicand_is_rejected_with_exit_2",)),
    Mutant("parse_scalar drops the sign before b", "fields.py",
           '-bn * ad if sign == "-" else bn * ad', "bn * ad",
           ("tests/test_specfile.py::test_quadratic_scalar_spellings",)),
    Mutant("commutator covariance shifted by j + k", "triality.py",
           "left, right = moved[(j - k) % 3]", "left, right = moved[(j + k) % 3]",
           (LAWS + "test_covariance_checks_match_reference",)),
    Mutant("conjugate product without the involution", "constructors.py",
           "structure = [[a.involute(x * y).coords for y in basis] for x in basis]",
           "structure = [[(x * y).coords for y in basis] for x in basis]",
           ("tests/test_constructors.py",)),
    Mutant("der_to_auto without the d d = 0 test", "autos.py",
           "if not m.squares_to_zero():",
           "if False:",
           (LAWS + "test_unipotent_bridge_matches_reference",)),
    Mutant("auto_to_der returns m + Id", "autos.py",
           "        return m - ident\n", "        return m + ident\n",
           (LAWS + "test_unipotent_bridge_matches_reference",)),
    # -- hand-seeded mutants of the basis scans and the F_p group table ------
    Mutant("basis tuples scanned column-major", "triality.py",
           "    for t in product(*map(range, sizes)):",
           "    for t in sorted(product(*map(range, sizes)), key=lambda t: t[::-1]):",
           (SHAPE_PINS, TUPLE_CHECKS)),
    Mutant("Klein check reads -1 as +1", "symcomp.py",
           "minus = tuple(tuple((p - 1) * v for v in row) for row in ident)", "minus = ident",
           ("tests/test_enumerate.py::test_subgroup_without_the_klein_group_fails",)),
    Mutant("Cayley table with its operands swapped", "symcomp.py",
           "comps.get(_mat_mul_mod(x, y, p), -1)", "comps.get(_mat_mul_mod(y, x, p), -1)",
           ("tests/test_enumerate.py::test_cayley_table_matches_trig_mul",)),
    # -- identities of maps as maps: Gram maps, _outer, one read-off ---------
    Mutant("Gram map without its transpose", "triality.py",
           "g._lines(True), gf._lines(False)", "g._lines(False), gf._lines(False)",
           (KERNEL_LAWS,)),
    Mutant("first_nonzero scans rows before columns", "algebra.py",
           "        for c in range(n):\n            for r in range(n):\n                if n0[",
           "        for r in range(n):\n            for c in range(n):\n                if n0[",
           ("tests/test_algebra.py::test_linear_map_operations", KERNEL_LAWS)),
    Mutant("_outer with u and w swapped", "triality.py",
           "    bw = a.form_map()(w)\n", "    u, w = w, u\n    bw = a.form_map()(w)\n",
           ("tests/test_symcomp.py::test_sigma_theta_triples_on_three_instances",
            "tests/test_triality.py::test_derivation_pair_gives_local_triple")),
    Mutant("theta closed form dropped", "symcomp.py",
           '("theta closed form fails", wt and wt[0])', '("theta closed form fails", None)',
           (LAWS + "test_sigma_theta_closed_forms_fail_at_the_first_basis_index",)),
    # -- the last basis-tuple identities as identities of maps --------------
    Mutant("form-associativity adjointness with L and R swapped", "symcomp.py",
           "form_law_failure(a, ry, None, None, ly)", "form_law_failure(a, ly, None, None, ry)",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    Mutant("polarized with one Gram map", "symcomp.py",
           "m = m + m.transpose()", "m = 2 * m",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    Mutant("polarized skips z = x", "symcomp.py",
           "for k in range(i, a.dim):", "for k in range(i + 1, a.dim):",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    Mutant("transpose reads the rows in place of the columns", "algebra.py",
           "[x for c in range(n) for x in v[c::n]]",
           "[x for c in range(n) for x in v[c * n:c * n + n]]",
           (INT_MAPS, "tests/test_algebra.py::test_asymmetric_form_is_rejected")),
    Mutant("product exchange without <y|y>R(x)", "symcomp.py",
           "\n                 + a.form_eval(y, y) * rx).first_nonzero()", ").first_nonzero()",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    Mutant("conjugate transfer with its components unshifted", "triality.py",
           "product_law_failure(a, maps[j], maps[(j + 1) % 3], maps[(j + 2) % 3], local=local)",
           "product_law_failure(a, maps[j], maps[j], maps[j], local=local)",
           (LAWS + "test_conjugate_transfer_matches_the_conjugate_algebra",)),
    Mutant("para-associativity without J", "assoc.py",
           "a.right_op(x * y) @ jmap", "a.right_op(x * y)",
           (TUPLE_CHECKS,)),
    Mutant("exchange identity 3 without its 2 outer(fg, e) term", "autos.py",
           "(lefts[i] @ rights[j], fg_e + r_g - g_f - r_fg)",
           "(lefts[i] @ rights[j], r_g - g_f - r_fg)",
           (TUPLE_CHECKS,)),
    Mutant("FieldElement == raises on a scalar with no value in the field", "fields.py",
           "            try:\n                other = self._coerce(other)\n"
           "            except DivisionByZero:\n                return False\n",
           "            other = self._coerce(other)\n",
           (FIELD_EQUALITY,)),
    Mutant("FieldElement hashed as its integer triple", "fields.py",
           "return hash(Fraction(self._n0, self._q))", "return hash((self._n0, self._n1, self._q))",
           (FIELD_EQUALITY,)),
    # -- the pseudo-octonion table read off M(3, Q(i)) ----------------------
    Mutant("odd power of the scaled l_8 leaves f undivided", "constructors.py",
           "s * f / 3) if odd", "s * f) if odd",
           (OKUBO_TABLE,)),
    Mutant("sign applied to d in place of f", "constructors.py",
           "(j, k, l, d, s * f / 3) if odd else (j, k, l, s * f, d)",
           "(j, k, l, s * d, f / 3) if odd else (j, k, l, f, s * d)",
           (OKUBO_TABLE,)),
    Mutant("sqrt3 scaling undone on d alone", "constructors.py",
           "d, f = t.a / q, t.b / q", "d, f = t.a / 2, t.b / q",
           (OKUBO_TABLE,)),
    Mutant("matrix algebra with the identity as involution", "constructors.py",
           "invol[n * c + r][n * r + c] = one", "invol[n * r + c][n * r + c] = one",
           ("tests/test_constructors.py::test_matrix_algebra_matches_nested_list_matrices",)),
    # -- the sigma table: one packed integer product per unit vector ---------
    Mutant("slot width admits n(p-1)^2 = 256^W", "cli.py",
           "if n * (p - 1) ** 2 < 256 ** w)", "if n * (p - 1) ** 2 <= 256 ** w)",
           (SIGMA_SEARCH,)),
    Mutant("slot bound n(p-1) in place of n(p-1)^2", "cli.py",
           "if n * (p - 1) ** 2 < 256 ** w)", "if n * (p - 1) < 256 ** w)",
           (SIGMA_SEARCH,)),
    Mutant("unit sphere left in numeric order", "cli.py",
           "key=lambda x: [str(c) for c in x])", "key=None)",
           (SIGMA_SEARCH,)),
    Mutant("closure check without y z = x", "cli.py",
           "table[j][k] == i and table[k][i] == j", "table[k][i] == j",
           (SIGMA_SEARCH,)),
    Mutant("closure check without z x = y", "cli.py",
           "table[j][k] == i and table[k][i] == j", "table[j][k] == i",
           (SIGMA_SEARCH,)),
    # -- one builder per construction; the unit off the integer kernel -------
    Mutant("find_unit's right-hand side with the wrong sign", "constructors.py",
           "-a.int_den if d is None else (-a.int_den, 0)",
           "a.int_den if d is None else (a.int_den, 0)",
           ("tests/test_constructors.py::test_conjugate_of_para_recovers_original",)),
    Mutant("make_zorn without the alpha/beta swap", "constructors.py",
           "structure = [[[s[-1], *s[1:-1], s[0]] for s in row] for row in structure]",
           "structure = [[list(s) for s in row] for row in structure]",
           ("tests/test_constructors.py::test_zorn_is_unital_diag_swap_of_para_zorn",)),
    Mutant("the map builder ignores cols", "zorn.py",
           "for x, c in zip(entries, cols)]", "for x, c in zip(entries, range(a.dim))]",
           ("tests/test_zorn.py::test_slot_swap_conjugates_scalings_but_is_not_an_automorphism",
            "tests/test_zorn.py::test_scaling_triple_certifies_over_all_coefficient_spaces")),
    # -- each leftover scan read off the law it specializes -----------------
    Mutant("the unit law reads only R(e)", "cli.py",
           "for op in (a.left_op(e), a.right_op(e))", "for op in (a.right_op(e),)",
           (TUPLE_CHECKS,)),
    Mutant("the para-unit law compares with Id in place of J", "cli.py",
           "acts_as(a.element(a.para_unit), a.involution_map())",
           "acts_as(a.element(a.para_unit), a.identity_map())",
           (TUPLE_CHECKS,)),
    Mutant("form symmetry compares G with itself", "cli.py",
           "(a.form_map() - a.form_map().transpose())", "(a.form_map() - a.form_map())",
           (TUPLE_CHECKS,)),
    Mutant("two-sided norm reads the linearized test at (i, j, j)", "symcomp.py",
           "law(i, j, i)", "law(i, j, j)",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    Mutant("Q drops its d2 term", "triality.py",
           "((0, k, (i, j)), (1, j, (k, i)), (2, i, (j, k)))", "((0, k, (i, j)), (2, i, (j, k)))",
           CLASSIFY),
    Mutant("Q reads c_ij for its d3 term", "triality.py",
           "(2, i, (j, k)))", "(2, i, (i, j)))",
           CLASSIFY),
    # -- laws 2 and 3 proven from law 1; the half-scan of linearized --------
    Mutant("isometry guard without g1", "triality.py",
           "and law(maps[0]) is None and", "and (not local or law(maps[0]) is None) and",
           (FAILED_GUARD,)),
    Mutant("isometry guard without g2", "triality.py",
           "and law(maps[1]) is None):", "and (not local or law(maps[1]) is None)):",
           (FAILED_GUARD,)),
    Mutant("skew guard without t1", "triality.py",
           "and law(maps[0]) is None and", "and (local or law(maps[0]) is None) and",
           (FAILED_GUARD,)),
    Mutant("skew guard without t2", "triality.py",
           "and law(maps[1]) is None):", "and (local or law(maps[1]) is None)):",
           (FAILED_GUARD,)),
    Mutant("guard (b) reads maps[1:3]", "triality.py",
           "law(maps[0]) is None and law(maps[1]) is None",
           "law(maps[1]) is None and law(maps[2]) is None",
           (VERDICTS_ONCE,)),
    Mutant("triality guard without the linearized law", "triality.py",
           "if (j == 1 and _is_symcomp(a) and", "if (j == 1 and a.form is not None and",
           (FAILED_GUARD,)),
    Mutant("triality guard without the nonzero form", "triality.py",
           "_is_symcomp(a) and not a.form_map().is_zero()", "_is_symcomp(a)",
           (FAILED_GUARD,)),
    Mutant("laws 2 and 3 never proven", "triality.py",
           "if (j == 1 and _is_symcomp(a)", "if (j == 4 and _is_symcomp(a)",
           (LAWS + "test_proven_laws_match_the_full_scan_on_the_catalogue",)),
    Mutant("the verdict memo ignores which law it holds", "algebra.py",
           "    if law not in self._verdicts:\n"
           "        self._verdicts[law] = check()\n"
           "    return self._verdicts[law]\n",
           "    if not self._verdicts:\n"
           "        self._verdicts[law] = check()\n"
           "    return next(iter(self._verdicts.values()))\n",
           (VERDICTS_ONCE, "tests/test_enumerate.py::test_dim2_members_match_reference")),
    Mutant("the product law's operand check dropped", "triality.py",
           "    if any(m.algebra is not a for m in (outer, left, right)):\n"
           "        raise AlgebraError(\"maps belong to different algebras\")\n", "",
           ("tests/test_algebra.py::test_operands_must_share_an_algebra",)),
    Mutant("linearized half-scan keeps only k > i", "triality.py",
           "lambda i, j, k: k < i or law(i, j, k)", "lambda i, j, k: k <= i or law(i, j, k)",
           (SHIFTED_RECORDS, TUPLE_CHECKS)),
    # -- transport relations proven from p3 = a1 p2 + p1 a2 ------------------
    Mutant("transport guard without the linearized law", "symcomp.py",
           "for x in a.elems) and _is_symcomp(alg)", "for x in a.elems) and alg.form is not None",
           (TRANSPORT, HURWITZ_TRANSPORT)),
    Mutant("transport guard without a1 a2 = a3", "symcomp.py",
           " and a1 * a2 == a3)", ")",
           (TRANSPORT,)),
    Mutant("transport guard without <a1|a1> = 1", "symcomp.py",
           "and alg.form_eval(a1, a1) == one and", "and",
           (TRANSPORT,)),
    Mutant("transport guard without <a2|a2> = 1", "symcomp.py",
           "and alg.form_eval(a2, a2) == one and", "and",
           (TRANSPORT,)),
    Mutant("transport check without <p1|a1> = 0", "symcomp.py",
           "and alg.form_eval(p1, a1) == zero and", "and",
           (TRANSPORT,)),
    Mutant("transport check without <p2|a2> = 0", "symcomp.py",
           " and alg.form_eval(p2, a2) == zero)", ")",
           (TRANSPORT,)),
    Mutant("a supplied p3 not compared", "symcomp.py",
           "(p3 is None or p3 == derived)", "True",
           (TRANSPORT,)),
    Mutant("proven companions q1 and q2 swapped", "symcomp.py",
           "(a2 * derived, a3 * p1, q3)", "(a3 * p1, a2 * derived, q3)",
           (TRANSPORT,)),
    # -- one symmetric-composition guard, read by every proof shortcut ------
    Mutant("the predicate drops the linearized law", "triality.py",
           "return a.form is not None and linearized_failure(a) is None",
           "return a.form is not None",
           (FAILED_GUARD, HURWITZ_TRANSPORT)),
    Mutant("the predicate drops the form test", "triality.py",
           "return a.form is not None and linearized_failure(a) is None",
           "return linearized_failure(a) is None",
           (NO_FORM,)),
    # -- maps of two algebras ------------------------------------------------
    Mutant("map equality compares the field, not the algebra", "algebra.py",
           "isinstance(other, LinearMap) and other.algebra is self.algebra",
           "isinstance(other, LinearMap) and other.algebra.field == self.algebra.field",
           (MAP_EQUALITY,)),
    Mutant("verify_triality proves invertibility before the operand check", "triality.py",
           "    if any(g.algebra is not a for g in maps):\n"
           "        raise AlgebraError(\"maps belong to different algebras\")\n", "",
           (MAP_EQUALITY,)),
    Mutant("sandwich maps compared before rebinding", "assoc.py",
           "    sig = [_rebind(conj_alg, m) for m in sig]\n", "",
           ("tests/test_assoc.py::test_sandwich_triples_are_triality_triples",)),
)


def _copy_tree(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(workdir: str, tests) -> Tuple[int, str]:
    """Exit code and last output line of pytest on `tests` in `workdir`;
    hypothesis runs with a fixed seed, so a verdict is reproducible."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--hypothesis-seed=0", *tests],
                          cwd=workdir, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()[-200:]


def _patched(source: str, m: Mutant) -> str:
    count = source.count(m.old)
    if count != 1:
        raise SystemExit(f"stale mutant {m.name!r}: its text occurs {count} times in {m.path}")
    return source.replace(m.old, m.new)


def run(mutants) -> int:
    selected = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="trialkit-mutants-") as tmp:
        _copy_tree(tmp)
        for m in mutants:  # every patch must apply before anything runs
            with open(os.path.join(tmp, "src", "trialkit", m.path)) as fh:
                _patched(fh.read(), m)
        code, last = _pytest(tmp, selected)
        if code != 0:
            print(f"the unpatched copy fails the selected tests: {last}")
            return 1
        bad = 0
        killed = 0
        for m in mutants:
            path = os.path.join(tmp, "src", "trialkit", m.path)
            with open(path) as fh:
                original = fh.read()
            with open(path, "w") as fh:
                fh.write(_patched(original, m))
            start = time.perf_counter()
            try:
                code, last = _pytest(tmp, m.tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            if code not in (0, 1, 2):
                print(f"ERROR     {m.name}: pytest exit {code}: {last}")
                bad += 1
                continue
            died = code != 0
            killed += died and m.equivalent is None
            if m.equivalent is None:
                verdict, reason = ("killed" if died else "SURVIVED"), ""
                bad += not died
            else:
                verdict = "KILLED (listed as equivalent)" if died else "equivalent"
                reason = f": {m.equivalent}"
                bad += died
            print(f"{verdict:<12}{m.name}{reason}  [{time.perf_counter() - start:.1f} s]")
    equivalent = sum(m.equivalent is not None for m in mutants)
    print(f"{killed} of {len(mutants) - equivalent} mutants killed; "
          f"{equivalent} equivalent mutants listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
