#!/usr/bin/env python3
"""Benchmark of the curveband CLI.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload denoise --seed 1 --seconds 20 --trace 0

All four workloads, each untraced and then traced, in fresh processes:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Detailed results, the
environment record and the spans of traced runs go to `.perfbench/results/`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("phase_sweep", "recover_overcomplete", "denoise", "segment")
SETUP_REPEATS = 3
# Set before numpy is first imported; threadpoolctl is not available.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                   help="directory for results and scratch files")
    p.add_argument("--setup-into", type=Path, default=None,
                   help=argparse.SUPPRESS)  # set-up child process
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_curveband():
    """Import curveband from this checkout's src/ and nowhere else."""
    if not (SRC / "curveband" / "__init__.py").is_file():
        sys.exit(f"perfbench: no curveband sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import curveband
    if Path(curveband.__file__).resolve().parent != SRC / "curveband":
        sys.exit(f"perfbench: imported curveband from {curveband.__file__}")


def setup_child(args) -> None:
    """Set-up as a user pays it: a fresh process imports curveband and
    writes the workload's inputs."""
    t0 = time.perf_counter()
    import_curveband()
    t1 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.tiny).write_inputs(
        args.seed, args.setup_into)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def run_setups(args, work: Path) -> tuple[list[Path], list[float], list[dict]]:
    dirs, walls, reports = [], [], []
    for i in range(SETUP_REPEATS):
        dest = work / f"inputs{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-into", str(dest)] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up of {args.workload} failed")
        dirs.append(dest)
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return dirs, walls, reports


def same_inputs(a: Path, b: Path) -> bool:
    """Two set-ups wrote the same files, paths to their own directory aside."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if files != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return False
    return all((b / f).read_bytes().replace(str(b).encode(), str(a).encode())
               == (a / f).read_bytes() for f in files)


def run_workload(args) -> int:
    import_curveband()
    import harness
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = args.out / "work" / f"{stem}-{os.getpid()}"
    try:
        dirs, walls, setup_reports = run_setups(args, work)
        ops = workloads.load_ops(dirs[0])
        inputs_repeat = all(same_inputs(dirs[0], d) for d in dirs[1:])
        out_root = work / "out"
        harness.run_op(ops[0]["argv"], out_root / "warmup")  # not counted
        if args.trace == 0:
            records, wall = harness.run_passes(ops, out_root, args.seconds)
            checks = harness.check_records(workload, ops, records)
            metrics = harness.end_to_end(records, checks, wall,
                                         statistics.median(walls))
            units = {name: unit for name, unit, _ in harness.END_TO_END}
            extra = harness.extra_metrics(workload, ops, records, checks)
        else:
            tracer = tracing.Tracer()
            plain, plain_wall, traced, traced_wall = harness.run_alternating(
                ops, out_root, args.seconds, tracer)
            records = plain + traced
            checks = harness.check_records(workload, ops, records)
            metrics = tracing.layer_metrics(tracer.spans, len(traced))
            metrics["setup.import_s"] = statistics.median(
                r["import_s"] for r in setup_reports)
            metrics["setup.inputs_s"] = statistics.median(
                r["inputs_s"] for r in setup_reports)
            metrics["trace.overhead_frac"] = (
                (traced_wall / len(traced)) / (plain_wall / len(plain)) - 1.0)
            units = dict(tracing.PER_LAYER)
            extra = {"spans": (len(tracer.spans), "count", "all traced ops")}
            tracer.write(results / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: metrics[name] for name in units}  # BENCHMARK.json order
    failed = [r for r in records if r.failed]
    correct = inputs_repeat and all(c.valid for c in checks)
    env = harness.environment(args.workload, args.seed, args.trace, ROOT)
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{len(records)} ops, {len(failed)} failed, correct {correct}")
    print("env " + json.dumps(env))
    for rec in failed[:5]:
        print(f"  failed op {rec.index}: {rec.error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:12.6g} {units[name]}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:42s} {value:12.6g} {unit} ({note}; not gated)")
    result = {"correct": correct, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    detail = dict(result, env=env, extra={k: v[0] for k, v in extra.items()},
                  ops=[{"index": r.index, "seconds": r.seconds, "code": r.code,
                        "error": r.error, "valid": c.valid, "ok": c.ok,
                        "quality": c.quality}
                       for r, c in zip(records, checks)])
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(args.out)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= not result["correct"]
            summary.setdefault(name, {})[f"trace{trace}"] = result
    out = args.out / "results" / f"all-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"perfbench: per-workload results in {out}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_THREADS)
    if args.setup_into is not None:
        if args.workload == "all":
            sys.exit("perfbench: set-up needs one workload")
        setup_child(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
