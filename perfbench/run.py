"""spikelab benchmark: one workload run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spike_mc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off.  ``--trace 1`` measures the per-layer metrics instead: it runs the
workload untraced for half the time and traced for the other half, each in a
fresh process, and reports the difference of their pass times as the
tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it show
each metric with its unit, the gates and the environment.

Thread policy: every workload process gets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS = 1 before numpy is imported, and
commands that take ``--threads`` get the number of CPUs this process may
run on.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 4   # fresh imports before and again after the workload
CHILD_TIMEOUT_S = 160
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spikelab.cli; "
                "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, env, root, timeout) -> str:
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def import_times(env, root) -> list[float]:
    """Times of ``import spikelab.cli``, each in a fresh process."""
    return [float(_run([sys.executable, "-c", IMPORT_PROBE], env, root, 60).split()[-1])
            for _ in range(SETUP_SAMPLES)]


def run_child(args, env, root, seconds, trace, deadline) -> dict:
    out = root / ".perfbench" / f"{args.workload}-{os.getpid()}-{int(trace)}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    try:
        stdout = _run(cmd, env, root, max(deadline - perf_counter(), 1.0))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    reports beyond it.  Below 110 reports that percentile would lie under
    p90, so the maximum is reported instead."""
    v = sorted(latencies)
    k = len(v) - 11 if len(v) >= 110 else len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v)


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies"]
    value, _pct = tail(lat)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(res["pass_wall_s"]),
        "draws_per_s": res["draws"] / sum(res["pass_wall_s"]),
        "report_s_p50": statistics.median(lat),
        "report_s_tail": value,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(names, traced: dict, base: dict) -> dict:
    """Per-pass values of the declared per-layer metrics from the spans."""
    passes = traced["passes"]
    spans = traced["spans"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(traced["pass_wall_s"])
                         - statistics.median(base["pass_wall_s"]))
        elif name == "verification.skipped_seeds":
            out[name] = traced["records"].get("skipped_seeds", 0)
        elif name == "ensemble.parallel_map.util":
            out[name] = traced["parallel_util"]
        else:
            span, stat = name.rsplit(".", 1)
            st = spans.get(span, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            if stat == "ok_frac":
                out[name] = 1.0 - st["errors"] / st["calls"] if st["calls"] else 1.0
            elif stat in st:
                out[name] = st[stat] / passes
            else:
                raise BenchError(f"no rule for per-layer metric {name}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and two passes (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spikelab" / "cli.py").is_file():
        print("error: run from the root of a spikelab checkout (src/spikelab missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = perf_counter() + CHILD_TIMEOUT_S
    env = child_env(root)
    try:
        if args.trace:
            declared = spec["per_layer"]
            base = run_child(args, env, root, args.seconds / 2, False, deadline)
            traced = run_child(args, env, root, args.seconds / 2, True, deadline)
            values = per_layer([m["name"] for m in declared], traced, base)
            runs = (base, traced)
        else:
            declared = spec["end_to_end"]
            setup = import_times(env, root)
            res = run_child(args, env, root, args.seconds, False, deadline)
            setup += import_times(env, root)
            values = end_to_end(res, statistics.median(setup))
            runs = (res,)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    last = runs[-1]
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        _value, pct = tail(last["latencies"])
        print(f"report_s_tail is p{pct:.1f} of {len(last['latencies'])} reports; "
              f"{last['passes']} passes")
    else:
        print(json.dumps({"spans": traced["spans"]}, sort_keys=True))
    print(json.dumps({"gates": last["gates"], "records": last["records"],
                      "digest": last["digest"], "failures": last["failures"]}))
    print(json.dumps({"env": last["env"]}, sort_keys=True))
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
