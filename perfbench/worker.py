"""Run one workload in this fresh interpreter and print one JSON result line.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Phases:

1. set-up: import trialkit and build the workload's inputs, then note the
   monotonic clock as ``ready_at`` (``--probe`` stops here);
2. timed phase: whole rounds of the operation list until ``--seconds`` have
   passed; every op is timed on its own and ``ops_per_s`` is the op count
   over the sum of the per-op medians of the calibrated times (below);
3. with ``--trace 1``: the layer microbenchmarks, then the inputs are built
   again and one round runs with every layer wrapped in timing spans;
4. every distinct output is checked against the independent oracles.

Calibration: the host's speed drifts by tens of percent over seconds to
minutes (shared cores), which moves every pure-Python timing alike.  During
set-up and the timed phase, a SIGALRM handler times a fixed loop of exact
fraction arithmetic that shares no code with trialkit (``calibrate``) every
``SAMPLE_PERIOD_S`` of wall time, also in the middle of a long call.  The
time spent in those samples is taken out of the call's time, and the rest is
scaled by ``CAL_REF_S`` over the mean loop time of the samples from one
period before the call to one period after it.  The reported times are thus
seconds at the host speed at which the loop takes ``CAL_REF_S``; the raw
figures are reported beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from math import gcd

CAL_SIZE, CAL_REPEATS = 8, 10
SAMPLE_PERIOD_S = 0.25
# seconds `calibrate()` takes on the reference 2-core box at its usual speed
CAL_REF_S = 0.007


class _Ratio:
    """A reduced fraction as two ints: the same mix of dunder calls, small
    allocations and gcds as exact scalar arithmetic, without trialkit."""

    __slots__ = ("n", "q")

    def __init__(self, n: int, q: int):
        self.n, self.q = n, q

    def __mul__(self, o):
        n, q = self.n * o.n, self.q * o.q
        g = gcd(n, q)
        return _Ratio(n // g, q // g)

    def __add__(self, o):
        n, q = self.n * o.q + o.n * self.q, self.q * o.q
        g = gcd(n, q)
        return _Ratio(n // g, q // g)


_CAL_MATRIX = [[_Ratio((7 * i + 3 * j) % 19 - 9, (i + 2 * j) % 8 + 1)
                for j in range(CAL_SIZE)] for i in range(CAL_SIZE)]


def calibrate() -> float:
    """Seconds that a fixed loop takes right now: exact 8x8 matrix products
    whose entries are also keyed by their text in a dict, the mix of
    arithmetic, allocation, formatting and hashing that trialkit runs."""
    m = _CAL_MATRIX
    t0 = time.perf_counter()
    for _ in range(CAL_REPEATS):
        seen = {}
        for i in range(CAL_SIZE):
            for j in range(CAL_SIZE):
                acc = m[i][0] * m[0][j]
                for k in range(1, CAL_SIZE):
                    acc = acc + m[i][k] * m[k][j]
                key = f"{acc.n}/{acc.q}"
                seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Samples of the host's speed, taken by a SIGALRM handler every
    SAMPLE_PERIOD_S of wall time while the context is active."""

    def __init__(self):
        self.ends: list = []
        self.took: list = []

    def _sample(self, signum, frame) -> None:
        took = calibrate()
        self.ends.append(time.perf_counter())
        self.took.append(took)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated(self, t0: float, t1: float) -> tuple:
        """(raw seconds, calibrated seconds) of the interval [t0, t1],
        without the samples taken inside it."""
        inside = sum(d for e, d in zip(self.ends, self.took) if t0 < e <= t1)
        near = [d for e, d in zip(self.ends, self.took)
                if t0 - SAMPLE_PERIOD_S <= e <= t1 + SAMPLE_PERIOD_S]
        if not near:
            near = [min(zip(self.ends, self.took), key=lambda s: abs(s[0] - t1))[1]]
        raw = t1 - t0 - inside
        return raw, raw * CAL_REF_S / statistics.mean(near)


class Ledger:
    """Outputs of every attempted op, kept once per distinct value."""

    def __init__(self):
        self.attempted = 0
        self.raised = []                 # (op name, error text)
        self.outputs = {}                # op index -> {repr: [record, count]}
        self.checks = {}                 # op index -> (name, check)

    def run(self, index: int, op) -> tuple:
        """Run one op; the clock readings around the call."""
        self.attempted += 1
        self.checks.setdefault(index, (op.name, op.check))
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising op is a failed op; keep measuring
            t1 = time.perf_counter()
            self.raised.append((op.name, traceback.format_exc(limit=3)))
            return t0, t1
        t1 = time.perf_counter()
        try:
            record = op.record(result)
        except Exception:  # an output the oracle cannot read is a failure
            self.raised.append((op.name, traceback.format_exc(limit=3)))
            return t0, t1
        slot = self.outputs.setdefault(index, {}).setdefault(repr(record), [record, 0])
        slot[1] += 1
        return t0, t1

    def verify(self) -> tuple:
        """(failed attempts, attempts with a wrong output, error lines)."""
        errors = [f"{name}: raised {text.strip().splitlines()[-1]}"
                  for name, text in self.raised]
        failed = len(self.raised)
        wrong = 0
        for index, seen in self.outputs.items():
            name, check = self.checks[index]
            for record, count in seen.values():
                try:
                    err = check(record)
                except Exception:
                    err = "oracle could not read the output: " + \
                        traceback.format_exc(limit=2).strip().splitlines()[-1]
                if err:
                    errors.append(f"{name}: {err}")
                    failed += count
                    wrong += count
        return failed, wrong, errors


def timed_rounds(ops, ledger: Ledger, seconds: float) -> list:
    """Run whole rounds until `seconds` have passed; per op, the clock
    readings around each attempt."""
    spans = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            spans[i].append(ledger.run(i, op))
        if time.perf_counter() - start >= seconds:
            return spans


def traced_round(args, workdir: str, ledger: Ledger, import_s: float,
                 untraced_round_s: float) -> dict:
    import micro
    import workloads
    from tracing import Tracer

    metrics = micro.run()
    tracer = Tracer()
    tracer.install()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        before = calibrate()
        traced_s = sum(t1 - t0 for t0, t1 in (ledger.run(i, op) for i, op in enumerate(ops)))
        traced_s *= 2 * CAL_REF_S / (before + calibrate())
    finally:
        tracer.uninstall()
    metrics.update(tracer.layer_metrics())
    metrics["constructors.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_s - untraced_round_s
    os.makedirs(".bench_out", exist_ok=True)
    tracer.write(os.path.join(".bench_out", f"trace-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "traced_round_s": traced_s, "untraced_round_s": untraced_round_s})
    return metrics


def run(args, workdir: str) -> dict:
    speed = HostSpeed()
    with speed:
        t_start = time.perf_counter()
        import trialkit.algebra  # noqa: F401  (fields, linalg)
        t0 = time.perf_counter()
        import trialkit.constructors  # noqa: F401
        import_s = time.perf_counter() - t0
        import trialkit.cli  # noqa: F401
        import workloads

        ops = workloads.build(args.workload, args.seed, workdir)
        ready_at, t_ready = time.monotonic(), time.perf_counter()
        if args.probe:
            time.sleep(2 * SAMPLE_PERIOD_S)  # a sample after the set-up
        else:
            ledger = Ledger()
            spans = timed_rounds(ops, ledger, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_setup, cal_setup = speed.calibrated(t_start, t_ready)
    # the parent times from the spawn; it subtracts the samples' time
    setup = {"ready_at": ready_at - (t_ready - t_start - raw_setup),
             "setup_scale": cal_setup / raw_setup}
    if args.probe:
        return setup

    times = [[speed.calibrated(t0, t1) for t0, t1 in op_spans] for op_spans in spans]
    raw = [statistics.median(r for r, _ in t) for t in times]
    medians = [statistics.median(c for _, c in t) for t in times]
    round_s = sum(medians)
    metrics = {"ops_per_s": len(ops) / round_s, "peak_rss_mb": peak_rss_mb,
               "raw_ops_per_s": len(ops) / sum(raw)}
    if args.trace:
        metrics = traced_round(args, workdir, ledger, import_s, round_s)
    failed, wrong, errors = ledger.verify()
    for line in errors[:20]:
        print(f"oracle: {line}", file=sys.stderr)
    return dict(
        setup,
        correct=wrong == 0,
        attempted=ledger.attempted,
        failed=failed,
        rounds=len(times[0]),
        op_median_ms={f"{op.name} #{i}": m * 1e3 for i, (op, m) in
                      enumerate(zip(ops, medians))},
        metrics=metrics,
    )



def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="stop once the inputs are ready")
    args = p.parse_args(argv)
    workdir = os.path.join(".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
