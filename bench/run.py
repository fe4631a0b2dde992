"""conekit benchmark: one workload per call, measured in fresh processes.

    python3 bench/run.py --workload exact_checks --seed 1 --seconds 30 --trace 0

The parent process checks the benchmark itself (``selfcheck``), then starts
worker processes from the checkout's ``src``.  Each worker draws the
workload's inputs from the seed and builds its objects (the set-up), prints
READY, and, unless it only measures set-up, runs the workload as a closed
loop: one client, one thread, the next operation sent when the previous one
returns, whole rounds until ``--seconds`` have passed.  Every output is
checked; operations that a known program fault makes fail are counted in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced for half the time, then one traced pass over the round
pool, and reports the per-layer metrics with the tracing overhead; its
spans go to ``.bench_build/traces``.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

WORKLOADS = ("exact_checks", "exact_decisions", "extended_norm")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # every worker of one run must end by then
# The tail percentile of each workload: the highest that keeps at least ten
# samples beyond it in the faster half of a 36 s run (README has the counts).
TAIL_PERCENTILE = {"exact_checks": 99.8, "exact_decisions": 99.0, "extended_norm": 98.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _use_checkout_conekit() -> None:
    """Import conekit from this checkout's src, never from elsewhere."""
    sys.path[:0] = [SRC, HERE]
    try:
        import conekit
    except ImportError as e:
        raise SystemExit(f"cannot import conekit from {SRC}: {e}") from e

    if not os.path.abspath(conekit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"conekit was imported from {conekit.__file__}, not from {SRC}")


# ------------------------------------------------------------------ worker


def _run_rounds(rounds, seconds=None, passes=None, tracer=None) -> dict:
    """Closed loop over whole rounds: until `seconds` pass, or `passes` pool passes."""
    per_round, bad, faults = [], [], {}
    attempted = failed = 0
    stop = time.perf_counter() + seconds if seconds is not None else None
    total_rounds = passes * len(rounds) if passes is not None else None
    r = 0
    while True:
        latencies = []
        for op in rounds[r % len(rounds)]:
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.op_span():
                        out = op.run()
                why = None
            except Exception as e:  # a failed operation is counted, not fatal
                why = f"{type(e).__name__}: {e}"
            latencies.append(time.perf_counter_ns() - t0)
            if why is None:
                try:
                    why = op.check(out)
                except Exception as e:
                    why = f"check raised {type(e).__name__}: {e}"
            attempted += 1
            if why is not None:
                failed += 1
                if op.fault is None:
                    bad.append(f"{op.kind}: {why}")
                else:
                    faults[op.fault] = faults.get(op.fault, 0) + 1
        per_round.append(latencies)
        r += 1
        if total_rounds is not None and r >= total_rounds:
            break
        if stop is not None and time.perf_counter() >= stop:
            break
    return {
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "faults": faults,
        "unexpected": bad[:20],
        "unexpected_count": len(bad),
        "per_round_ns": per_round,
    }


def _summary(run, tail_pct, pool) -> dict:
    """Timings over the faster half of the runs of each pool round.

    The host's speed drifts between states for tens of seconds at a time
    (see README), so a run's slower rounds mostly measure the host.  Taking
    the faster half of each pool round's runs drops those spells while every
    round's operations stay equally represented.  ops_per_s is operations
    per second of operation time.
    """
    runs_of = {}
    for r, lat in enumerate(run.pop("per_round_ns")):
        runs_of.setdefault(r % pool, []).append(lat)
    kept = [lat for runs in runs_of.values() for lat in sorted(runs, key=sum)[: math.ceil(len(runs) / 2)]]
    lat = sorted(x for r in kept for x in r)
    n = len(lat)
    rank = max(1, math.ceil(tail_pct / 100.0 * n))  # nearest rank, 1-based
    return {
        "ops_per_s": n / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": lat[rank - 1] / 1e6,
        "tail_percentile": tail_pct,
        "samples": n,
        "beyond_tail": n - rank,
    }


def _pass_rate(run) -> float:
    """Operations per second of operation time over a whole run."""
    return run["attempted"] / (sum(sum(r) for r in run.pop("per_round_ns")) / 1e9)


def _worker(args) -> int:
    _use_checkout_conekit()
    import workloads

    rounds = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    tail = TAIL_PERCENTILE[args.workload]
    if not args.trace:
        run = _run_rounds(rounds, seconds=args.seconds)
        result = _summary(run, tail, len(rounds))
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        # Untraced passes over the whole pool for half the time, then one
        # traced pass; the overhead compares the same operations.
        untraced, stop = [], time.perf_counter() + args.seconds / 2
        while not untraced or time.perf_counter() < stop:
            untraced.append(_run_rounds(rounds, passes=1))
        tracer = tracing.Tracer()
        tracer.install(tracing.conekit_modules())
        run = _run_rounds(rounds, passes=1, tracer=tracer)
        plain = statistics.median(_pass_rate(u) for u in untraced)
        traced = _pass_rate(run)
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.tsv")
        tracer.write(path)
        result = {
            "layers": tracer.layer_metrics(),
            "untraced_ops_per_s": plain,
            "traced_ops_per_s": traced,
            "spans": len(tracer.name),
            "span_file": os.path.relpath(path, ROOT),
        }
        for u in untraced:
            for key in ("rounds", "attempted", "failed", "unexpected_count"):
                run[key] += u[key]
            run["unexpected"] += u["unexpected"]
            for fault, count in u["faults"].items():
                run["faults"][fault] = run["faults"].get(fault, 0) + count
    result.update(run)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# ------------------------------------------------------------------ parent


def _spawn(args, setup_only: bool, deadline: float):
    """Start a worker; return (seconds from start to READY, its RESULT or None)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker for {args.workload} failed (exit code {code})")
    results = [line[len("RESULT "):] for line in rest.splitlines() if line.startswith("RESULT ")]
    return setup_s, (json.loads(results[-1]) if results else None)


def _report(args, result, metrics) -> dict:
    unexpected = result["unexpected_count"]
    for line in result["unexpected"]:
        print(f"UNEXPECTED FAILURE {line}")
    print(
        f"workload {args.workload} seed {args.seed}: attempted {result['attempted']}, "
        f"failed {result['failed']} (known faults {json.dumps(result['faults'], sort_keys=True)}, "
        f"unexpected {unexpected}), rounds {result['rounds']}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": unexpected == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        return _worker(args)
    _use_checkout_conekit()
    import selfcheck

    selfcheck.run()
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = _spawn(args, False, deadline)
    setups.append(setup_s)
    if args.trace:
        metrics = result["layers"]
        plain, traced = result["untraced_ops_per_s"], result["traced_ops_per_s"]
        print(
            f"tracing overhead on {args.workload}: traced {traced:.2f} ops/s vs untraced "
            f"{plain:.2f} ops/s (ratio {traced / plain:.3f}); {result['spans']} spans in {result['span_file']}"
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_tail_ms": result["op_tail_ms"],
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            f"  op_tail_ms is p{result['tail_percentile']:g} of {result['samples']} samples "
            f"({result['beyond_tail']} beyond); setup samples {[round(s, 4) for s in setups]}"
        )
    out = _report(args, result, metrics)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
