"""Layer microbenchmarks for the traced run: one scalar op per field, one
matrix product, one algebra product.  Inputs come from a fixed seed so the
figures compare across runs; each figure is the median of several samples."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

SAMPLES = 9


def _median_time(fn, per_sample: int) -> float:
    """Median seconds per call of `fn(i)` over SAMPLES samples."""
    clock = time.perf_counter
    out = []
    for _ in range(SAMPLES):
        t0 = clock()
        for i in range(per_sample):
            fn(i)
        out.append((clock() - t0) / per_sample)
    return statistics.median(out)


def _scalar(f, rng):
    if f.p is not None:
        return f.from_int(rng.randrange(1, f.p))
    a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))
    if f.d is not None:
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))
        return f.element(a, b)
    return f.element(a)


def run() -> dict:
    from trialkit import linalg
    from trialkit.cli import parse_field
    from trialkit.constructors import named_algebra

    rng = random.Random(0)
    fields = {"Q": parse_field("Q"), "Qsqrt3": parse_field("Qsqrt3"),
              "F13": parse_field("F13"), "F7": parse_field("F7")}
    out = {}
    for label in ("Q", "Qsqrt3", "F13"):
        f = fields[label]
        xs = [_scalar(f, rng) for _ in range(512)]
        ys = [_scalar(f, rng) for _ in range(512)]
        out[f"fields.mul_ns.{label}"] = _median_time(lambda i: xs[i] * ys[i], 512) * 1e9
        out[f"fields.add_ns.{label}"] = _median_time(lambda i: xs[i] + ys[i], 512) * 1e9
    for label, n, key, reps in (("8x8.Q", 8, "Q", 8), ("8x8.Qsqrt3", 8, "Qsqrt3", 8),
                                ("2x2.F7", 2, "F7", 400)):
        f = fields[key]
        pairs = [([[_scalar(f, rng) for _ in range(n)] for _ in range(n)],
                  [[_scalar(f, rng) for _ in range(n)] for _ in range(n)])
                 for _ in range(reps)]
        out[f"linalg.mat_mul_us.{label}"] = _median_time(
            lambda i: linalg.mat_mul(*pairs[i]), reps) * 1e6
    a = named_algebra("okubo")
    basis = a.basis_elements()
    basis_pairs = [(x, y) for x in basis for y in basis]
    dense = [(a.element([_scalar(a.field, rng) for _ in range(8)]),
              a.element([_scalar(a.field, rng) for _ in range(8)])) for _ in range(16)]
    out["algebra.multiply_us.okubo.basis"] = _median_time(
        lambda i: a.multiply(*basis_pairs[i]), len(basis_pairs)) * 1e6
    out["algebra.multiply_us.okubo.dense"] = _median_time(
        lambda i: a.multiply(*dense[i]), len(dense)) * 1e6
    return out
