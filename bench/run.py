"""Benchmark of the slocc3 library, one workload per run.

Run from the root of the repository:

    python3 bench/run.py --workload range-criterion --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

The library is imported from ``src/`` of the tree that holds this file; no
install step is needed.  Numpy's BLAS threads are capped at ``nproc``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
over fresh interpreters of importing ``slocc3`` and ``slocc3.cli``, making
the inputs and running one warm-up op.  Then one caller runs the workload's
cases in a closed loop (the next op starts when the previous one returns)
for ``--seconds``, and every answer is checked after the loop.  Op times are
scaled by the machine-speed gauge (``gauge.py``).  ``ops_per_s`` is the
median over the loop's cycles, each the same mix of kinds, of ops per
second; ``op_tail_ms`` is a fixed percentile per workload, the highest that
stays steady across seeds, with at least ten samples beyond it.

``--trace 1`` runs a fixed list of the workload's ops twice each, untraced
and traced in alternating order, then one fixed probe call per traced layer
and the kernel probes.  It reports the per-layer metrics from the spans and
the tracing overhead; spans go to ``bench/out/``.

Every run first checks that the output checks reject planted wrong answers.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failed fraction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# the workloads BENCHMARK.json lists, which ``--workload all`` runs;
# detpoly-equiv completes too few ops in a run to be steady across seeds,
# so it is left out of them but stays runnable by name
BENCHMARKED = ("range-criterion", "rank-interval", "classify-cli")
WORKLOAD_NAMES = BENCHMARKED + ("detpoly-equiv",)
# fresh interpreters timed for setup_s; the median is reported
SETUP_REPS = 5
# fewest samples above the reported tail percentile
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ok_frac": "ratio", "resolved_frac": "ratio", "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> int:
    """Point imports at this tree's ``src`` and cap BLAS threads; returns the cap."""
    src = ROOT / "src"
    if not (src / "slocc3" / "__init__.py").is_file():
        raise SystemExit(f"error: no slocc3 package under {src}; run from a full checkout")
    cap = nproc()
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= cap):
            os.environ[var] = str(cap)
    sys.path[:0] = [str(src), str(BENCH)]
    return int(os.environ[BLAS_VARS[0]])


def import_library():
    import slocc3
    import slocc3.cli  # noqa: F401  (the CLI workload's entry point)

    if Path(slocc3.__file__).resolve().parent != ROOT / "src" / "slocc3":
        raise SystemExit(f"error: imported slocc3 from {slocc3.__file__}, not from {ROOT / 'src'}")


# --- set-up -------------------------------------------------------------------


def setup_probe(name: str, seed: int):
    """Body of one fresh interpreter: import, make inputs, one warm-up op."""
    t0 = time.perf_counter()
    import_library()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.cases(seed)
    t2 = time.perf_counter()
    case = workload.probe_cases()[0]
    ok = workload.check(case, workload.run(case))[0]
    t3 = time.perf_counter()
    from gauge import factor_now

    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
                      "factor": factor_now(), "ok": ok}))


def measure_setup(name: str, seed: int) -> list:
    reps = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        reps.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return reps


# --- measurement ----------------------------------------------------------------


def run_op(workload, case):
    """(seconds, answer, error) of one op; an exception is a failed op."""
    t0 = time.perf_counter()
    try:
        out, err = workload.run(case), None
    except Exception as exc:  # the loop must go on; the failure is counted
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def timed_loop(workload, cases, seconds: float):
    """Closed loop over the cases, cycling, until ``seconds`` have passed.

    Returns the raw op times, the gauge's scale for each op, and the
    (case, answer, error) of each op."""
    from gauge import Gauge

    gauge = Gauge()
    raw, scale, results = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        case = cases[i % len(cases)]
        scale.append(gauge.factor())
        dt, out, err = run_op(workload, case)
        raw.append(dt)
        results.append((case, out, err))
        i += 1
        if time.perf_counter() >= deadline:
            return raw, scale, results


def check_all(workload, results):
    """(failed, resolved, eligible, notes) over the answers of a run."""
    failed = resolved = eligible = 0
    notes = {}
    for case, out, err in results:
        if err is None:
            try:
                ok, res, note = workload.check(case, out)
            except Exception as exc:  # a malformed answer fails its check
                ok, res, note = False, False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, res, note = False, False, err
        failed += not ok
        if not ok:
            notes[note] = notes.get(note, 0) + 1
        if case.eligible:
            eligible += 1
            resolved += ok and res
    return failed, resolved, eligible, notes


def tail(times: list, pct: float):
    """Nearest-rank percentile ``pct`` of the times, lowered until at least
    TAIL_BEYOND samples lie above it; returns (value, percentile, beyond)."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0, 0
    pct = min(pct, 100.0 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct * n / 100.0)
    return sorted(times)[rank - 1], pct, n - rank


def cycles_of(times: list, size: int) -> list:
    """The op times of each complete cycle; a run shorter than one cycle
    counts as one."""
    chunks = [times[i:i + size] for i in range(0, len(times) - size + 1, size)]
    return chunks or [times]


def end_to_end(workload, seed: int, seconds: float, setup: list):
    cases = workload.cases(seed)
    case = workload.probe_cases()[0]
    workload.run(case)  # warm-up, as in set-up
    raw, scale, results = timed_loop(workload, cases, seconds)
    times = [t * f for t, f in zip(raw, scale)]
    failed, resolved, eligible, notes = check_all(workload, results)
    n = len(times)
    tail_s, pct, beyond = tail(times, workload.tail_pct)
    # a median over cycles, each the same mix of kinds, so that one slow
    # cycle moves it less than a pooled rate
    cycles = cycles_of(times, len(cases) // workload.cycles)
    metrics = {
        "setup_s": statistics.median(
            (r["import_s"] + r["inputs_s"] + r["warmup_s"]) * r["factor"] for r in setup),
        "ops_per_s": statistics.median(len(c) / sum(c) for c in cycles),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ok_frac": (n - failed) / n,
        "resolved_frac": resolved / eligible if eligible else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops": n, "raw_ops_per_s": n / sum(raw), "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "gauge_scale_median": statistics.median(scale), "failed": failed, "failed_frac": failed / n,
        "failures": notes, "resolved": resolved, "eligible": eligible,
        "cycles": len(cycles), "p50_samples": n, "tail_percentile": pct, "tail_samples_beyond": beyond,
        "ops_by_kind": Counter(c.kind for c, _, _ in results),
        "op_ms": [[c.kind, round(t * 1e3, 4), round(f, 4)]
                  for t, f, (c, _, _) in zip(raw, scale, results)],
    }
    return metrics, details


def traced(workload, seed: int, setup: list):
    from gauge import Gauge
    from probes import kernel_probes
    from spans import LAYER_METRICS, Tracer, unit_of
    from workloads import WORKLOADS

    cases = workload.cases(seed)
    cases = [cases[i % len(cases)] for i in range(workload.trace_ops)]
    case = workload.probe_cases()[0]
    workload.run(case)
    tracer = Tracer()
    tracer.install()
    gauge = Gauge()
    untraced_s = traced_s = 0.0
    results, scales = [], []
    try:
        for i, case in enumerate(cases):
            scales.append(gauge.factor())
            # alternate which copy runs first, so neither gains from the other
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if with_spans:
                    with tracer.root("op:" + case.kind):
                        dt, out, err = run_op(workload, case)
                    traced_s += dt
                else:
                    dt, out, err = run_op(workload, case)
                    untraced_s += dt
                results.append((case, out, err))
        # every layer runs at least once, so no layer reads a constant zero;
        # an untraced first call fills lazy caches such as the 2 x M x N table
        for other in WORKLOADS.values():
            probe_workload = other()
            for case in probe_workload.probe_cases():
                probe_workload.run(case)
                with tracer.root("probe:" + case.kind):
                    probe_workload.run(case)
    finally:
        tracer.uninstall()
    failed, _, _, notes = check_all(workload, results)
    scale = statistics.median(scales)
    probes, probe_calls = kernel_probes()
    measured = {
        **{name: value * scale if unit_of(name) in ("s", "us") else value
           for name, value in {**tracer.layer_metrics(), **probes}.items()},
        "setup.import_s": statistics.median(r["import_s"] * r["factor"] for r in setup),
        "setup.inputs_s": statistics.median(r["inputs_s"] * r["factor"] for r in setup),
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
    }
    metrics = {name: measured[name] for name in LAYER_METRICS}
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    tracer.write(spans_path)
    details = {
        "ops": len(results), "traced_ops": len(cases), "untraced_s": untraced_s,
        "traced_s": traced_s, "gauge_scale_median": scale, "failed": failed,
        "failed_frac": failed / len(results), "failures": notes, "spans": len(tracer.spans), "probe_calls": probe_calls,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def environment(blas_cap: int, args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc(), "blas_threads": blas_cap,
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "setup_reps": SETUP_REPS,
    }


def run_one(args, blas_cap: int) -> dict:
    from selfcheck import planted_failures
    from spans import unit_of
    from workloads import WORKLOADS

    accepted = planted_failures()
    if accepted:
        raise SystemExit("error: output checks accepted planted wrong answers: "
                         + "; ".join(accepted))
    setup = measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        metrics, details = traced(workload, args.seed, setup)
        units = {m: unit_of(m) for m in metrics}
    else:
        metrics, details = end_to_end(workload, args.seed, args.seconds, setup)
        units = END_TO_END_UNITS
    warm_ok = all(r["ok"] for r in setup)
    details["setup_reps"] = setup
    result = {
        "correct": warm_ok and details["failed"] == 0,
        "attempted": details["ops"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = environment(blas_cap, args)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "details": details, **result}, indent=1))

    print(f"# {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{details['ops']} ops, {details['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':36s} {details['failed_frac']:14.6g} ratio")
        print(f"# op_tail_ms is p{details['tail_percentile']:g} of {details['ops']} ops, "
              f"{details['tail_samples_beyond']} beyond; resolved "
              f"{details['resolved']} of {details['eligible']} eligible")
    for note, count in details["failures"].items():
        print(f"# FAILED x{count}: {note}")
    print("# env " + json.dumps(env))
    return result


def run_all(args) -> dict:
    """Every benchmarked workload in its own interpreter; metrics prefixed
    by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BENCHMARKED:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    blas_cap = prepare_environment()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        import_library()
        result = run_one(args, blas_cap)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
