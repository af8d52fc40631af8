"""Every committed BENCH_*.json (written by tools/bench_file.py) carries each
metric that BENCHMARK.json declares, for each workload, and one environment
block."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT = ("nproc", "blas", "blas_threads", "omp_threads", "python",
               "numpy", "scipy", "git_rev")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_every_metric_and_the_environment(path):
    bench = json.loads(path.read_text())
    assert set(ENVIRONMENT) <= set(bench["environment"])
    assert bench["environment"]["blas_threads"] is not None
    assert len(bench["seeds"]) >= 3 and not bench["tiny"]
    assert list(bench["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload in bench["workloads"].values():
        for key in ("end_to_end", "per_layer"):
            assert list(workload[key]) == [m["name"] for m in SPEC[key]]
            for m in SPEC[key]:
                got = workload[key][m["name"]]
                assert got["unit"] == m["unit"]
                assert len(got["runs"]) == len(bench["seeds"])
                assert got["q1"] <= got["median"] <= got["q3"]
