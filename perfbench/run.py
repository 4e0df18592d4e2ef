"""trialkit benchmark: certify, local-triple and finite-field enumeration
workloads.

    python3 perfbench/run.py --workload certify-catalogue --seed 1 --seconds 15
    python3 perfbench/run.py --workload local-triples --trace 1
    python3 perfbench/run.py                 # every workload in turn
    python3 perfbench/run.py --self-test     # show the oracles reject bad output

Each workload runs in fresh single-threaded interpreters (``worker.py``),
with trialkit imported from ``src/`` of the checkout.  Untraced runs report
the end-to-end metrics of BENCHMARK.json: ``setup_s`` is the median over
four fresh interpreters of the time from start to ready inputs.  Times are
calibrated against the host's drifting speed (see ``worker.py``); the
uncalibrated figures are printed beside them.  ``--trace 1`` reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(argv: list, deadline: float) -> tuple:
    """Run worker.py once; (seconds from spawn to ready inputs, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["TRIALKIT_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} overran the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    raw = result["ready_at"] - spawned
    return (raw, raw * result["setup_scale"]), result


def run_workload(name: str, seed: int, seconds: float, trace: int, bench: dict,
                 deadline: float) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(argv + ["--probe"], deadline)[0])
    setup, result = _worker(argv, deadline)
    setups.append(setup)
    measured = dict(result["metrics"], setup_s=statistics.median(s for _, s in setups))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    for op, ms in result["op_median_ms"].items():
        print(f"  {op:48s} {ms:10.2f} ms")
    print(f"{name}: {result['rounds']} rounds, {result['attempted']} ops attempted, "
          f"{result['failed']} failed")
    if not trace:
        print(f"{name}: uncalibrated setup_s={statistics.median(r for r, _ in setups):.4f} s "
              f"ops_per_s={measured['raw_ops_per_s']:.4f} ops/s")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="trialkit benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed-phase length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="feed each oracle a wrong result and show it is rejected")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "trialkit")):
        print("error: trialkit sources not found under src/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.self_test:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                              cwd=ROOT, env=env).returncode
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, seconds, args.trace, bench,
                                         deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, res in results.items():
            shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in res["metrics"].items())
            print(f"{name}: attempted={res['attempted']} failed={res['failed']} {shown}")
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
