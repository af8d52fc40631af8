#!/usr/bin/env python3
"""One BENCH file from the benchmark harness, over several seeds.

    python3 tools/bench_file.py BENCH_<n>.json --seeds 1 2 3 --seconds 20
    python3 tools/bench_file.py "$RUNNER_TEMP/bench.json" --seeds 1 --tiny

Runs `perfbench/run.py --workload all` once per seed, each workload
untraced and then traced in its own process, into a temporary directory.
Writes one JSON object: the run settings, one environment block (nproc,
BLAS and its pinned threads, Python/numpy/scipy versions, git revision),
and per workload the median and quartiles of each end-to-end metric over
the seeds (`end_to_end`) and of each traced per-layer metric
(`per_layer`), each with its unit and its value per seed. Metric names
and order are those of BENCHMARK.json. Exits 1, writing nothing, when a
run fails or reads incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
# Keys of the harness's environment record that name one run, not the box.
RUN_KEYS = ("workload", "seed", "trace")


def summary(values: list[float], unit: str) -> dict:
    """Median and quartiles (inclusive method) of one metric's values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "runs": values}


def collect(results: Path, seeds: list[int]) -> dict:
    """The BENCH object from the harness's per-run result files,
    `<workload>-seed<S>-trace<t>.json` under `results`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env, workloads = None, {}
    for w in spec["workloads"]:
        entry = {}
        for key, trace, names in (("end_to_end", 0, spec["end_to_end"]),
                                  ("per_layer", 1, spec["per_layer"])):
            runs = [json.loads((results / f"{w['name']}-seed{s}-trace{trace}"
                                ".json").read_text()) for s in seeds]
            for r in runs:
                box = {k: v for k, v in r["env"].items() if k not in RUN_KEYS}
                if env not in (None, box):
                    raise ValueError(f"environment changed between runs: "
                                     f"{env} against {box}")
                env = box
            entry[key] = {m["name"]: summary(
                [r["metrics"][m["name"]]["value"] for r in runs], m["unit"])
                for m in names}
        workloads[w["name"]] = entry
    return {"environment": env, "workloads": workloads}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path, help="the BENCH file to write")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--seconds", type=int, default=20,
                   help="seconds per run, as perfbench/run.py takes them")
    p.add_argument("--tiny", action="store_true",
                   help="the harness's small inputs, to test this script")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", "all",
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--out", tmp] + (["--tiny"] if args.tiny else [])
            if subprocess.run(cmd).returncode:
                print(f"bench_file: seed {seed} failed", file=sys.stderr)
                return 1
        bench = collect(Path(tmp) / "results", args.seeds)
    bench = {"seeds": args.seeds, "seconds": args.seconds,
             "tiny": args.tiny, **bench}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"bench_file: {len(args.seeds)} seeds -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
