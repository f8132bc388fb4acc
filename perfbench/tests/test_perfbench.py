"""Self-tests of the benchmark: determinism, seed sensitivity, tracing
and metric names.

Run from the repository root with ``python -m pytest perfbench/tests``.
The engine jobs are shrunk copies of the benchmark's workloads.
"""
import json
import math
import re
import subprocess
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import estimators  # noqa: E402
import workloads  # noqa: E402
from tracer import TASKLET_KINDS, Tracer, instrument  # noqa: E402

SMALL = {
    "q5_fine_slide": replace(workloads.WORKLOADS["q5_fine_slide"], duration_s=0.1),
    "q8_xo_crash": replace(workloads.WORKLOADS["q8_xo_crash"], duration_s=1.0),
}
COUNTS = [
    "engine.slices",
    "engine.snapshots_completed",
    "imdg.entries_end",
    *[f"tasklet.{k}.items" for k in TASKLET_KINDS],
]


def traced_iteration(spec, seed):
    tr = Tracer()
    with instrument(tr):
        it = workloads.engine_iteration(spec, seed, tr, True)
    return it, tr


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_same_latencies_rows_and_counts(name):
    (a, _), (b, _) = traced_iteration(SMALL[name], 5), traced_iteration(SMALL[name], 5)
    assert a.ok and b.ok, (a.detail, b.detail)
    assert a.latencies and a.latencies == b.latencies
    assert estimators.latency_summary(a.latencies) == estimators.latency_summary(b.latencies)
    assert a.fingerprint == b.fingerprint  # output rows and item counts too
    assert {k: a.layers[k] for k in COUNTS} == {k: b.layers[k] for k in COUNTS}


def test_tracing_leaves_the_run_unchanged():
    spec = SMALL["q8_xo_crash"]
    plain = workloads.engine_iteration(spec, 5, Tracer(), False)
    traced, _ = traced_iteration(spec, 5)
    assert plain.fingerprint == traced.fingerprint


def test_instrument_restores_every_method():
    from repro.core.engine import JetEngine, Worker
    from repro.core.tasklet import Tasklet

    before = (Worker.run_slice, Tasklet.run, JetEngine.fail_node)
    with instrument(Tracer()):
        assert Tasklet.run is not before[1]
    assert (Worker.run_slice, Tasklet.run, JetEngine.fail_node) == before


def test_different_seed_changes_inputs():
    for spec in SMALL.values():
        a = workloads._engine_job(spec, 1, Tracer())[1]
        b = workloads._engine_job(spec, 2, Tracer())[1]
        assert a != b


def test_crash_workload_recovers_and_snapshots():
    it, _ = traced_iteration(SMALL["q8_xo_crash"], 3)
    assert it.ok, it.detail
    assert it.layers["engine.recovery_s"] > 0
    assert it.layers["engine.snapshots_completed"] > 0
    assert it.layers["imdg.maps_end"] > 0 and it.layers["imdg.entries_end"] > 0
    assert 0 < it.layers["engine.idle_slice_frac"] < 1


def test_self_times_add_up_to_the_engine_run():
    it, tr = traced_iteration(SMALL["q5_fine_slide"], 2)
    summary = tr.summary()
    inside = sum(
        d["self_s"] for name, d in summary.items()
        if name.startswith(("engine.", "worker.", "tasklet.", "processors.", "imdg.", "sink."))
        and name != "engine.build"
    )
    assert math.isclose(inside, it.layers["engine.run_s"], rel_tol=1e-6)
    assert it.layers["processors.combine.on_watermark_calls"] > 0


def test_metric_names_and_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == workloads.END_TO_END_UNITS
    assert layers == workloads.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert name_re.fullmatch(name), name
        assert unit, name


def test_traced_run_reports_only_known_metrics():
    it, _ = traced_iteration(SMALL["q5_fine_slide"], 1)
    assert set(it.layers) == set(workloads.PER_LAYER_UNITS) - {"trace.overhead_ratio"}


def test_harrell_davis_estimator():
    assert estimators.hd_quantile([7.0] * 5, 0.5) == pytest.approx(7.0)
    assert estimators.hd_quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3.0)
    xs = [1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0, 9.0]
    qs = [estimators.hd_quantile(xs, p) for p in (0.1, 0.5, 0.9)]
    assert min(xs) <= qs[0] <= qs[1] <= qs[2] <= max(xs)
    for a, b, x in [(2.0, 3.0, 0.3), (40.5, 60.5, 0.7)]:
        assert estimators.betainc(a, b, x) + estimators.betainc(b, a, 1 - x) == pytest.approx(1.0)
    assert estimators.betainc(1.0, 1.0, 0.25) == pytest.approx(0.25)


def test_latency_tail_rule():
    small = estimators.latency_summary(list(range(20)))
    assert small["tail"] == 19 and small["tail_pct"] == 100.0
    big = estimators.latency_summary(list(range(200)))
    assert big["tail_pct"] == pytest.approx(95.0)
    assert 185 < big["tail"] < 195


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q5_fine_slide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
