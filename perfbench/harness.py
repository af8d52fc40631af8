"""Closed-loop op runner, output checks and end-to-end metrics.

One op is one in-process call to `curveband.cli.main(argv)` with its own
output directory; the next op starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import curveband.cli
import tracing
from workloads import OpCheck

# name, unit, better; the end-to-end metrics of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class OpRecord:
    index: int      # position in the workload's op list
    out: Path
    seconds: float
    code: int | None   # exit code; None when the call raised
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.code != 0


def run_op(argv: list[str], out: Path, index: int = 0) -> OpRecord:
    """Run one CLI command line; its stdout and stderr are discarded."""
    sink = io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = curveband.cli.main(argv + ["--threads", "1",
                                              "--out-dir", str(out)])
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0 and not error:
        lines = sink.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    return OpRecord(index, out, seconds, code, error)


def run_passes(ops: list[dict], out_root: Path, seconds: float,
               tracer: tracing.Tracer | None = None,
               first_id: int = 0) -> tuple[list[OpRecord], float]:
    """Run whole passes over `ops` until another pass would end after
    `seconds`; at least one pass. Returns the records and the wall time.

    Without a tracer, no trace wrapper may be bound anywhere."""
    if tracer is None and tracing.installed_wrappers():
        raise RuntimeError("trace wrappers installed before an untraced pass")
    records = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            op_id = first_id + len(records)
            if tracer is not None:
                tracer.op = op_id
            records.append(run_op(op["argv"], out_root / f"op{op_id}", i))
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            return records, now - t_start


def run_alternating(ops: list[dict], out_root: Path, seconds: float,
                    tracer: tracing.Tracer):
    """Alternate one untraced and one traced pass until another pair would
    end after `seconds`; at least one pair. Alternating makes drifts in
    machine speed hit both sides alike. Returns the untraced records and
    wall time, then the traced ones."""
    plain, traced, walls = [], [], [0.0, 0.0]
    t_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        for side, sink in enumerate((plain, traced)):
            active = tracer if side else None
            if active:
                active.install()
            try:
                recs, wall = run_passes(ops, out_root, 0, active,
                                        first_id=len(plain) + len(traced))
            finally:
                tracer.uninstall()
            sink += recs
            walls[side] += wall
        now = time.perf_counter()
        if (now - t_start) + (now - t_pair) > seconds:
            return plain, walls[0], traced, walls[1]


def check_records(workload, ops: list[dict], records: list[OpRecord]
                  ) -> list:
    """OpCheck per record; a failed op is neither valid nor ok."""
    checks = []
    for rec in records:
        if rec.failed:
            checks.append(OpCheck(False, False))
            continue
        try:
            checks.append(workload.check(ops[rec.index], rec.out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            print(f"check of op {rec.out.name} could not read its outputs: "
                  f"{exc}", file=sys.stderr)
            checks.append(OpCheck(False, False))
    return checks


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


def end_to_end(records: list[OpRecord], checks: list, wall: float,
               setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(records) / wall,
        "ok_frac": sum(c.ok for c in checks) / len(records),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def extra_metrics(workload, ops, records, checks) -> dict[str, tuple]:
    """Figures printed next to the end-to-end metrics but not gated:
    name -> (value, unit, note)."""
    n = len(records)
    times = [r.seconds for r in records]
    extra = {"fail_frac": (sum(r.failed for r in records) / n, "frac",
                           f"{n} ops"),
             "op_p50_ms": (percentile_ms(times, 50), "ms", f"{n} ops")}
    # p90 only where at least 10 ops lie beyond it
    if n >= 100:
        extra["op_p90_ms"] = (percentile_ms(times, 90), "ms", f"{n} ops")
    # quality over the first pass: deterministic given the seed
    first = [c.quality for c in checks[:len(ops)] if c.quality is not None]
    if first:
        extra[workload.quality_name] = (
            workload.quality(first), workload.quality_unit,
            f"{workload.quality_better} is better, {len(first)} ops")
    return extra


def environment(workload: str, seed: int, trace: int, root: Path) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(root),
    }


def _git_rev(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"
