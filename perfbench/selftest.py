"""Oracle self-test: feed each oracle real trialkit output and a deliberately
wrong variant of it; the first must be accepted and the second rejected.

    python3 perfbench/run.py --self-test

Wrong variants: a flipped structure constant under a PASS report, a witness
that is no counterexample, wrong group orders, a wrong sigma count, one
altered local-triple entry, an altered or missing transport vector and
a wrong cubic_identity delta.  Exit status 0
iff every case comes out as expected.
"""

from __future__ import annotations

import random
import sys
import tempfile

import oracles
import workloads


def _cases():
    from trialkit import symcomp
    from trialkit.constructors import named_algebra
    from trialkit.specfile import algebra_to_dict

    # certify: a valid report checked against a spec with one flipped constant
    spec = workloads._spec("para:4", "F7")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = workloads._write_spec(tmp, "para4", spec)
        rc, text = workloads._call_cli(["certify", path])
        flipped = dict(spec, structure=[list(e) for e in spec["structure"]])
        i, j, k, v = flipped["structure"][3]
        flipped["structure"][3] = [i, j, k, str((int(v) + 1) % 7)]
        yield ("certify PASS report", oracles.check_certify(
            oracles.SpecAlgebra(spec), "text", rc, text, False), False)
        yield ("certify PASS on a flipped structure constant", oracles.check_certify(
            oracles.SpecAlgebra(flipped), "text", rc, text, False), True)

        # negative control: the real witness, then a tuple that satisfies the law
        path = workloads._write_spec(tmp, "flipped", flipped)
        rc, text = workloads._call_cli(["certify", path])
        yield ("perturbed spec with its real witness", oracles.check_certify(
            oracles.SpecAlgebra(flipped), "text", rc, text, True), False)
        alg = oracles.SpecAlgebra(flipped)
        clean = next((a, b) for a in range(4) for b in range(4)
                     if not oracles.clause_fails(alg, "two-sided-norm-law", (a, b)))
        bad = "\n".join(
            line.split("  witness: ")[0] + f"  witness: ('two-sided-norm-law', {clean})"
            if "witness: " in line else line for line in text.splitlines())
        yield ("perturbed spec with a false witness", oracles.check_certify(
            alg, "text", rc, bad, True), True)

    # enumerate: wrong group orders and a wrong count
    for argv, key, check in ((["enumerate", "trig", "para2", "F5"], "order", oracles.check_trig),
                             (["enumerate", "auto", "para2", "F13"], "order", oracles.check_auto),
                             (["enumerate", "sigma", "para:4", "F3"], "count", oracles.check_sigma)):
        alg = oracles.SpecAlgebra(workloads._spec(argv[2], argv[3]))
        rc, text = workloads._call_cli(argv)
        yield (" ".join(argv), check(alg, rc, text), False)
        value = oracles.header_value(text, key)
        wrong = text.replace(f"{key}: {value}\n", f"{key}: {value - 1}\n")
        yield (" ".join(argv) + f" with {key} {value - 1}", check(alg, rc, wrong), True)

    # local triples: one altered entry of a certified local triple
    a = named_algebra("para:4")
    spec = algebra_to_dict(a)
    alg = oracles.SpecAlgebra(spec)
    F = alg.F
    rng = random.Random(0)
    t = symcomp.sigma_from_pair(a, workloads._dense_unit(a, rng), workloads._dense_unit(a, rng))
    space = symcomp.lambda_space(t)
    d = symcomp.local_D(t, space[0])
    mats = [[[F.of(c) for c in row] for row in m.rows] for m in d.maps]
    yield ("local_D triple", oracles.check_local_triple(alg, mats), False)
    mats[1][2][3] = F.add(mats[1][2][3], F.one)
    yield ("local_D triple with one altered entry", oracles.check_local_triple(alg, mats), True)
    base = [[F.of(c) for c in x.coords] for x in t.elems]
    ps = [[[F.of(c) for c in p.coords] for p in lv.ps] for lv in space]
    yield ("lambda_space", oracles.check_lambda_space(alg, base, ps), False)
    yield ("lambda_space missing a vector", oracles.check_lambda_space(alg, base, ps[1:]), True)
    ps[0][1][0] = F.add(ps[0][1][0], F.one)
    yield ("lambda_space with one altered entry", oracles.check_lambda_space(alg, base, ps), True)

    # derivation pair of a dense random pair: a wrong delta
    x, y, pair, _, report = workloads._derivation(
        a, workloads._dense_random(a, rng), workloads._dense_random(a, rng))
    vec = [[F.of(c) for c in v.coords] for v in (x, y)]
    mats = [[[F.of(c) for c in row] for row in m.rows] for m in pair.maps()]
    flags = {"delta": F.of(report.delta), "cubic": report.cubic, "square": report.square,
             "scaled_third_cubic": report.scaled_third_cubic}
    yield ("cubic_identity report", oracles.check_cubic(alg, *vec, mats, flags), False)
    flags["delta"] = F.add(flags["delta"], F.one)
    yield ("cubic_identity with a wrong delta", oracles.check_cubic(alg, *vec, mats, flags), True)


def main() -> int:
    ok = True
    for label, err, should_reject in _cases():
        rejected = err is not None
        good = rejected == should_reject
        ok &= good
        verdict = "rejected" if rejected else "accepted"
        print(f"{'ok ' if good else 'BAD'} {verdict:8s} {label}" + (f"  ({err})" if err else ""))
    print("oracle self-test:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
