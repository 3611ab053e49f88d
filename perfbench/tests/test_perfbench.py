"""Tests of the benchmark itself: metric names, span coverage, self time.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that must be nonzero on a workload (the layer does work
# there) and metrics that must stay zero (the workload bypasses the layer).
FIRES = {
    "spike_mc": [
        "ensemble.top_eigs.calls", "ensemble.stream.calls", "ensemble.parallel_map.util",
        "ensemble.NoiseLaw.sample.gaussian.self_s",
        "ensemble.NoiseLaw.sample.three-point.self_s",
        "ensemble.NoiseLaw.sample.four-point.self_s",
        "ensemble.run_spike_mc.total_s", "ensemble.SpikeSamples.to_csv.self_s",
        "spectra.make_covariance.self_s", "spectra.CovarianceModel.sqrt_matmat.self_s",
        "spikes.deform.self_s", "cli.main.simulate.total_s",
        "cli.main.nonuniversality.total_s", "cli.load_config.self_s",
    ],
    "detection": [
        "ensemble.top_eigs.calls", "ensemble.stream.calls", "ensemble.parallel_map.util",
        "ensemble.NoiseLaw.sample.gaussian.self_s",
        "ensemble.NoiseLaw.sample.uniform-sym.self_s",
        "spectra.haar_orthogonal.calls", "hetero.calibrate.total_s", "hetero.detect.calls",
        "hetero.ds_rs_stats.self_s", "hetero.run_size_experiment.total_s",
        "hetero.run_power_experiment.total_s", "cli.main.reproduce.total_s",
    ],
    "locallaw_verify": [
        "locallaw.build_resolvent.calls", "locallaw.build_resolvent.self_s",
        "locallaw.green_rep_residual.total_s", "locallaw.master_matrix_suite.total_s",
        "locallaw.isotropic_residual.self_s", "locallaw.g_squared_residual.self_s",
        "locallaw.two_resolvent_residuals.self_s", "verification.run_verification.total_s",
        "stieltjes.find_w_plus.calls", "stieltjes.solve_m.calls", "stieltjes.f_eval.calls",
        "ensemble.parallel_map.util", "ensemble.NoiseLaw.sample.gaussian.self_s",
    ],
    "theory_sweep": [
        "spectra.make_covariance.self_s", "spectra.CovarianceModel.sqrt_matmat.self_s",
        "stieltjes.find_w_plus.calls", "stieltjes.f_eval.calls", "spikes.deform.self_s",
        "spikes.asymptotic_quantities.self_s", "cli.main.theory.total_s",
        "cli.load_config.self_s",
    ],
}
BYPASSED = {
    "spike_mc": ["locallaw.build_resolvent.calls", "hetero.detect.calls",
                 "spectra.haar_orthogonal.calls"],
    "detection": ["locallaw.build_resolvent.calls", "ensemble.run_spike_mc.total_s"],
    "locallaw_verify": ["ensemble.top_eigs.calls", "hetero.detect.calls",
                        "ensemble.NoiseLaw.sample.three-point.self_s"],
    "theory_sweep": ["ensemble.top_eigs.calls", "ensemble.stream.calls",
                     "locallaw.build_resolvent.calls", "ensemble.parallel_map.util"],
}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = run_bench(workload, 1)
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_declared_end_to_end_metrics(workload):
    res = run_bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_emits_declared_per_layer_metrics(workload, traced):
    res = traced(workload)
    assert res["correct"] and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_where_the_layer_works(workload, traced):
    metrics = traced(workload)["metrics"]
    silent = [name for name in FIRES[workload] if not metrics[name]["value"] > 0]
    assert not silent, f"spans never fired on {workload}: {silent}"
    leaked = [name for name in BYPASSED[workload] if metrics[name]["value"] != 0]
    assert not leaked, f"bypassed layers did work on {workload}: {leaked}"


def test_fire_table_names_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    named = {n for table in (FIRES, BYPASSED) for names in table.values() for n in names}
    assert named <= declared


def test_self_time_of_nested_cross_thread_spans():
    S = spans.Span
    synthetic = [
        S(1, None, "outer", 0.0, 10.0),
        S(2, 1, "item", 1.0, 4.0),        # pool thread A
        S(3, 1, "item", 3.0, 6.0),        # pool thread B, overlaps A
        S(4, 1, "inner", 8.0, 9.0),       # caller thread
        S(5, 2, "leaf", 2.0, 3.5),        # grandchild inside item 2
        S(6, 1, "late", 9.5, 12.0),       # child running past its parent's end
        S(7, None, "outer", 20.0, 21.0),  # a second, childless call
    ]
    stats = spans.aggregate(synthetic)
    # outer: 10 - |[1,6] u [8,9] u [9.5,10]| = 10 - 6.5, plus 1 for the second call
    assert stats["outer"].calls == 2
    assert stats["outer"].total_s == pytest.approx(11.0)
    assert stats["outer"].self_s == pytest.approx(3.5 + 1.0)
    assert stats["item"].self_s == pytest.approx((3.0 - 1.5) + 3.0)
    assert stats["item"].total_s == pytest.approx(6.0)
    assert stats["leaf"].self_s == pytest.approx(1.5)
    assert stats["late"].self_s == pytest.approx(2.5)


def test_parallel_util_and_errors():
    S = spans.Span
    synthetic = [
        S(1, None, spans.PARALLEL_MAP, 0.0, 4.0, workers=2),
        S(2, 1, spans.PARALLEL_ITEM, 0.0, 4.0),
        S(3, 1, spans.PARALLEL_ITEM, 0.0, 2.0, error=True),
    ]
    assert spans.parallel_util(synthetic) == pytest.approx(6.0 / 8.0)
    assert spans.aggregate(synthetic)[spans.PARALLEL_ITEM].errors == 1


def test_recorder_is_thread_safe():
    rec = spans.Recorder()
    n_threads, n_calls = 8, 300

    def leaf():
        return None

    def work():
        for _ in range(n_calls):
            rec.call("outer", rec.call, ("inner", leaf))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(rec.spans) == 2 * n_threads * n_calls
    assert len({s.sid for s in rec.spans}) == len(rec.spans)
    by_id = {s.sid: s for s in rec.spans}
    for s in rec.spans:
        if s.name == "inner":
            assert by_id[s.parent].name == "outer"
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
        else:
            assert s.parent is None


def test_tail_percentile():
    lat = [float(i) for i in range(1, 201)]
    assert tail(lat) == (190.0, 95.0)        # ten reports beyond the 95th
    assert tail(lat[:109]) == (109.0, 100.0)  # below p90: the maximum
