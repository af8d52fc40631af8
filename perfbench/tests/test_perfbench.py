"""Tests of the benchmark itself: tiny smoke runs of every workload, the
self-time arithmetic, wrapper removal, and failure accounting.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import WORKLOADS, OpCheck  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path, *args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seed", "3",
           "--seconds", "1", "--tiny", "--out", str(tmp_path), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert ([(w["name"], w["why"]) for w in SPEC["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()])
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
            == list(harness.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in SPEC["per_layer"]]
            == list(tracing.PER_LAYER))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_untraced_run(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list((tmp_path / "work").iterdir())


def test_tiny_traced_run(tmp_path):
    proc = bench(tmp_path, "--workload", "recover_overcomplete",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["recovery.nullspace_basis.calls"]["value"] == 2.0
    assert metrics["linalg.svd.calls"]["value"] >= 2.0
    assert metrics["curve_model.contour.vertices"]["value"] > 0
    assert metrics["linalg.eigh.calls"]["value"] == 0.0
    spans = (tmp_path / "results"
             / "recover_overcomplete-seed3-trace1-spans.jsonl")
    assert spans.read_text().count("\n") > 0


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "segment",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and a grandchild [2, 3] inside the first child
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0),
             Span("a.x", 2.0, 3.0, parent=1),
             Span("late", 9.0, 12.0, parent=0)]  # clipped to the parent
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0,
                                                       3.0])


def test_layer_metrics_are_per_op():
    spans = [Span("cli.main", 0.0, 1.0, op=0),
             Span("linalg.svd", 0.2, 0.5, parent=0, op=0),
             Span("io.save_points", 0.6, 0.7, parent=0, op=0),
             Span("cli.main", 1.0, 2.0, op=1),
             Span("linalg.svd", 1.2, 1.3, parent=3, op=1, error=True)]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["linalg.svd.calls"] == 1.0
    assert m["linalg.svd.ms"] == pytest.approx(200.0)
    assert m["io.ms"] == pytest.approx(50.0)
    assert m["cli.main.self_ms"] == pytest.approx(1e3 * (0.6 + 0.9) / 2)
    assert m["linalg.eigh.ms"] == 0.0


def test_uninstall_removes_every_wrapper():
    import curveband.cli
    import curveband.recovery
    import numpy.linalg

    original = curveband.recovery.nullspace_basis
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.installed_wrappers()
        assert "curveband.recovery.nullspace_basis" in wrapped
        assert "curveband.cli.nullspace_basis" in wrapped
        assert "numpy.linalg.svd" in wrapped
        assert "SumOfSquares.__init__" in wrapped
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert curveband.cli.nullspace_basis is original
    assert not hasattr(numpy.linalg.svd, "perfbench_original")
    n_spans = len(tracer.spans)
    curveband.recovery.rank_bound(*(curveband.FrequencySupport(k, k)
                                    for k in (5, 3)))
    assert len(tracer.spans) == n_spans


def test_failing_op_counts_as_failed(tmp_path):
    ops = [{"argv": ["recover", str(tmp_path / "missing.csv")]},
           {"argv": ["synth", "--support", "3x3", "--grid-res", "64"]}]
    records, wall = harness.run_passes(ops, tmp_path, seconds=0)
    assert [r.code for r in records] == [3, 0]
    assert "data error" in records[0].error

    class Stub:
        quality_name, quality_unit, quality_better = "q", "x", "higher"

        def check(self, op, out):
            return OpCheck(True, True, 1.0)

        def quality(self, values):
            return sum(values)

    checks = harness.check_records(Stub(), ops, records)
    assert [c.ok for c in checks] == [False, True]
    assert harness.extra_metrics(Stub(), ops, records,
                                 checks)["fail_frac"][0] == 0.5
    assert harness.end_to_end(records, checks, wall, 1.0)["ok_frac"] == 0.5
