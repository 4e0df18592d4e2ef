"""The three benchmark workloads: their operation lists and oracle checks.

``build(name, seed, workdir)`` imports trialkit, builds the inputs (algebras,
spec files, product triples) and returns the list of ops.  Each
:class:`Op` has ``run`` (the timed call into trialkit), ``record`` (turns the
result into plain data, outside the timing) and ``check`` (compares recorded
data with the independent oracle in ``oracles.py``).  The seed fixes every
input and the order of the list; the make-up of the list is the same for
every seed, so every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("certify-catalogue", "local-triples", "enumerate-fp")

# certify-catalogue: the ROADMAP's end-to-end commands by name, then spec
# files covering para:N, the split forms, both pseudo-octonion signs and
# para-Zorn algebras over Q, Q(sqrt 3), Q(sqrt 2), F_7, F_11 and F_13.
# `zorn` is left out: it is routed to the para-Zorn suite and fails there.
CERTIFY_NAMED = ("okubo", "para:8", "parazorn:3:1")
CERTIFY_SPECS = (
    ("para:1", "Q"), ("para:2", "F7"), ("para:2:split", "Q"),
    ("para:4", "Qsqrt2"), ("para:4:split", "F13"), ("para:4", "F11"),
    ("para:8", "F11"), ("para:8:split", "Qsqrt3"),
    ("okubo", "F13"), ("okubo:-", "Qsqrt3"),
    ("parazorn:1:1", "Q"), ("parazorn:2:1", "F7"), ("parazorn:3:2", "Qsqrt2"),
    ("parazorn:1:3", "F13"), ("parazorn:3:1", "Qsqrt3"),
)
# negative controls: structure-constant entry `index` set to `value`
CERTIFY_PERTURBED = (("okubo", "Qsqrt3", 0, "2"), ("para:4", "F7", 0, "2"))

LOCAL_ALGEBRAS = (("para:4", "Q"), ("okubo", "Qsqrt3"), ("para:8", "F13"))
LOCAL_TRIPLES = 2      # product triples per algebra, one sigma/theta op each
LOCAL_TRANSPORT = 2    # transport-vector ops per algebra
LOCAL_PAIRS = 4        # random dense (x, y) ops per algebra

ENUMERATE_OPS = (
    ("trig", "ground", "F5"), ("trig", "ground", "F7"),
    ("trig", "ground", "F11"), ("trig", "ground", "F13"),
    ("trig", "para2", "F5"), ("trig", "para2", "F7"),
    ("sigma", "para:4", "F3"), ("sigma", "para:4", "F5"),
    ("auto", "para2", "F7"), ("auto", "para2", "F11"), ("auto", "para2", "F13"),
)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    record: Callable[[object], object]
    check: Callable[[object], object]


def build(name: str, seed: int, workdir: str) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "certify-catalogue":
        ops = _certify_ops(workdir)
    elif name == "local-triples":
        ops = _local_ops(rng)
    elif name == "enumerate-fp":
        ops = _enumerate_ops()
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


def _call_cli(argv: list):
    from trialkit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _field(text: str):
    from trialkit.cli import parse_field
    return parse_field(text)


def _spec(algebra_name: str, field_text=None) -> dict:
    from trialkit.constructors import named_algebra
    from trialkit.specfile import algebra_to_dict
    field = None if field_text is None else _field(field_text)
    return algebra_to_dict(named_algebra(algebra_name, field))


# ---------------------------------------------------------------------------
# certify-catalogue
# ---------------------------------------------------------------------------

def _certify_op(label: str, argv: list, spec: dict, fmt: str, negative: bool) -> Op:
    def check(recorded):
        rc, text = recorded
        return oracles.check_certify(oracles.SpecAlgebra(spec), fmt, rc, text, negative)

    return Op(label, lambda: _call_cli(argv), lambda r: r, check)


def _write_spec(workdir: str, stem: str, spec: dict) -> str:
    path = os.path.join(workdir, stem.replace(":", "-") + ".json")
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=1)
    return path


def _certify_ops(workdir: str) -> list:
    ops = []
    for name in CERTIFY_NAMED:
        ops.append(_certify_op(f"certify {name}", ["certify", name],
                               _spec(name), "text", False))
    for name, field in CERTIFY_SPECS:
        spec = _spec(name, field)
        path = _write_spec(workdir, f"{name}_{field}", spec)
        ops.append(_certify_op(f"certify {name} {field}",
                               ["certify", path, "--format", "json"],
                               spec, "json", False))
    for name, field, index, value in CERTIFY_PERTURBED:
        spec = _spec(name, field)
        i, j, k, _ = spec["structure"][index]
        spec["structure"][index] = [i, j, k, value]
        path = _write_spec(workdir, f"perturbed_{name}_{field}", spec)
        ops.append(_certify_op(f"certify perturbed {name} {field}",
                               ["certify", path], spec, "text", True))
    return ops


# ---------------------------------------------------------------------------
# local-triples
# ---------------------------------------------------------------------------

def _dense_unit(a, rng) -> object:
    """A norm-one vector with no zero coordinate (the forms are the identity):
    (+-1, +-1, +-1, +-1)/2 in dimension 4, and (+-1, ..., +-1, +-3)/4 in
    dimension 8, signs and the place of the 3 drawn from `rng`."""
    n = a.dim
    if n == 4:
        nums, den = [1, 1, 1, 1], 2
    else:
        nums, den = [1] * 7 + [3], 4
        rng.shuffle(nums)
    return a.element([a.field.from_fraction(Fraction(rng.choice((-1, 1)) * c, den))
                      for c in nums])


def _dense_random(a, rng) -> object:
    """A vector with random nonzero coordinates: small integers over Q,
    a + b sqrt(3) with a, b nonzero over Q(sqrt 3), residues over F_p."""
    f = a.field
    coords = []
    for _ in range(a.dim):
        if f.p is not None:
            coords.append(f.from_int(rng.randrange(1, f.p)))
        elif f.d is not None:
            coords.append(f.element(rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))))
        else:
            coords.append(f.from_int(rng.choice((-3, -2, -1, 1, 2, 3))))
    return a.element(coords)


def _local_ops(rng) -> list:
    from trialkit import symcomp
    from trialkit.constructors import named_algebra
    from trialkit.specfile import algebra_to_dict

    ops = []
    for name, field in LOCAL_ALGEBRAS:
        a = named_algebra(name, _field(field))
        spec = algebra_to_dict(a)
        F = oracles.field_from_json(spec["field"])
        n = a.dim

        def vec(x, F=F):
            return [F.of(c) for c in x.coords]

        def mats(maps, F=F):
            return [[[F.of(c) for c in row] for row in m.rows] for m in maps]

        triples = [symcomp.sigma_from_pair(a, _dense_unit(a, rng), _dense_unit(a, rng))
                   for _ in range(LOCAL_TRIPLES)]
        for t in triples:
            ops.append(Op(
                f"sigma_theta_triples {name}",
                lambda t=t: symcomp.sigma_theta_triples(t),
                lambda r, mats=mats: [mats(r[0].maps), mats(r[1].maps)],
                lambda rec, spec=spec: _first_error(
                    oracles.check_triality_triple(oracles.SpecAlgebra(spec), m)
                    for m in rec)))
        for m in range(LOCAL_TRANSPORT):
            t = triples[m % LOCAL_TRIPLES]
            k = rng.randrange(2 * n - 2)
            ops.append(Op(
                f"transport {name}",
                lambda t=t, k=k: _transport(t, k),
                lambda r, vec=vec, mats=mats: (
                    [vec(x) for x in r[0]],
                    [[vec(p) for p in lv.ps] for lv in r[1]],
                    mats(r[2].maps)),
                lambda rec, spec=spec: _check_transport(spec, rec)))
        for _ in range(LOCAL_PAIRS):
            x, y = _dense_random(a, rng), _dense_random(a, rng)
            ops.append(Op(
                f"derivation_pair {name}",
                lambda a=a, x=x, y=y: _derivation(a, x, y),
                lambda r, vec=vec, mats=mats, F=F: (
                    vec(r[0]), vec(r[1]), mats(r[2].maps()), mats(r[3].maps),
                    {"delta": F.of(r[4].delta), "cubic": r[4].cubic,
                     "square": r[4].square,
                     "scaled_third_cubic": r[4].scaled_third_cubic}),
                lambda rec, spec=spec: _check_derivation(spec, rec)))
    return ops


def _transport(t, k: int):
    from trialkit import symcomp
    space = symcomp.lambda_space(t)
    d = symcomp.local_D(t, space[k])
    symcomp.first_order_factorization(space[k])
    return t.elems, space, d


def _derivation(a, x, y):
    from trialkit import symcomp, triality
    pair = triality.derivation_pair(a, x, y)
    local = triality.verify_local(a, *pair.maps())
    report = symcomp.cubic_identity(a, x, y)
    return x, y, pair, local, report


def _check_transport(spec: dict, rec):
    alg = oracles.SpecAlgebra(spec)
    base, ps, d_mats = rec
    return (oracles.check_lambda_space(alg, base, ps)
            or oracles.check_local_triple(alg, d_mats))


def _check_derivation(spec: dict, rec):
    alg = oracles.SpecAlgebra(spec)
    x, y, pair_mats, local_mats, report = rec
    if local_mats != pair_mats:
        return "verify_local returned other maps than it was given"
    return oracles.check_cubic(alg, x, y, pair_mats, report)


def _first_error(errors):
    return next((e for e in errors if e), None)


# ---------------------------------------------------------------------------
# enumerate-fp
# ---------------------------------------------------------------------------

ENUMERATE_CHECKS = {"trig": oracles.check_trig, "sigma": oracles.check_sigma,
                    "auto": oracles.check_auto}


def _enumerate_ops() -> list:
    ops = []
    for target, algebra, field in ENUMERATE_OPS:
        argv = ["enumerate", target, algebra, field]
        spec = _spec(algebra, field)
        check = ENUMERATE_CHECKS[target]
        ops.append(Op(" ".join(argv), lambda argv=argv: _call_cli(argv), lambda r: r,
                      lambda rec, spec=spec, check=check:
                      check(oracles.SpecAlgebra(spec), *rec)))
    return ops
