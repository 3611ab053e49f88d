"""One workload run in a fresh process; prints one JSON result line.

Started by ``run.py`` with the BLAS thread variables already set, so numpy
sees them at import.  The run executes one ungated warm-up pass at smoke
size (it pays lazy imports such as ``scipy.stats``), then timed passes of
the workload back to back until the next pass would end after
``--seconds``, with at least ``MIN_PASSES`` passes.  Every pass uses the
same inputs, so its output digest must repeat exactly.

Usage: python3 perfbench/child.py --workload W --seed N --seconds S
       --out DIR [--trace] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

MIN_PASSES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def digest(out: Path) -> str:
    """Hash of a pass's outputs: CSV bytes and JSON with wall times removed."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        if path.suffix == ".json":
            h.update(json.dumps(_strip_wall(json.loads(path.read_text())),
                                sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def _strip_wall(x):
    if isinstance(x, dict):
        return {k: _strip_wall(v) for k, v in x.items() if k != "wall_time_s"}
    if isinstance(x, list):
        return [_strip_wall(v) for v in x]
    return x


def run_pass(plan: workloads.Plan, out: Path, gated: bool = True) -> dict:
    """Run every op of the plan once, timing each, then gate the outputs.

    Each op and each gate counts as one attempted operation; when an op
    fails the gates are not evaluated.
    """
    shutil.rmtree(out, ignore_errors=True)
    latencies, failures = [], []
    for i, op in enumerate(plan.ops):
        op_out = out / f"op{i}"
        op_out.mkdir(parents=True)
        t0 = perf_counter()
        try:
            op.fn(op_out)
        except Exception:
            failures.append(f"op{i} {op.label}: {traceback.format_exc(limit=3)}")
        latencies.append(perf_counter() - t0)
    attempted = len(plan.ops)
    gates, records = {}, {}
    ops_ok = not failures
    if gated and ops_ok:
        try:
            gates = plan.gate(out)
            records = plan.records(out)
            attempted += len(gates)
            failures += [f"gate {k} failed" for k, ok in gates.items() if not ok]
        except Exception:
            attempted += 1
            failures.append(f"gate: {traceback.format_exc(limit=3)}")
    return {
        "wall_s": sum(latencies),
        "latencies": latencies,
        "draws": sum(op.draws for op in plan.ops),
        "attempted": attempted,
        "failures": failures,
        "gates": gates,
        "records": records,
        "digest": digest(out) if gated and ops_ok else None,
    }


def environment(threads: int) -> dict:
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": nproc(),
        "threads_flag": threads,
        "cpu_model": cpu or platform.processor() or None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    missing = [v for v in BLAS_VARS if os.environ.get(v) != "1"]
    if missing:
        print(f"child: BLAS thread variables not set to 1: {missing}", file=sys.stderr)
        return 2

    threads = nproc()
    root = Path(args.out)
    build = workloads.WORKLOADS[args.workload]
    warm = build(args.seed, threads, True, root / "cfg-warm")
    warm_pass = run_pass(warm, root / "warm", gated=False)
    plan = warm if args.smoke else build(args.seed, threads, False, root / "cfg")

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)

    passes = []
    t_start = perf_counter()
    while True:
        passes.append(run_pass(plan, root / "pass"))
        elapsed = perf_counter() - t_start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break

    digests = {p["digest"] for p in passes}
    repeat_ok = len(digests) == 1 and None not in digests
    failures = warm_pass["failures"] + [f for p in passes for f in p["failures"]]
    if not repeat_ok:
        failures.append(f"digest_repeat: {sorted(map(str, digests))}")
    attempted = warm_pass["attempted"] + sum(p["attempted"] for p in passes) + 1
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "latencies": [x for p in passes for x in p["latencies"]],
        "draws": sum(p["draws"] for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "gates": passes[-1]["gates"],
        "records": passes[-1]["records"],
        "digest": passes[-1]["digest"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(threads),
    }
    if rec is not None:
        stats = spans.aggregate(rec.spans)
        result["spans"] = {name: vars(st) for name, st in sorted(stats.items())}
        result["parallel_util"] = spans.parallel_util(rec.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
