#!/usr/bin/env python3
"""sha256 of every file the benchmark workloads' ops write.

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py SEED > digests.txt

Writes the inputs of each workload in perfbench/ for SEED into a temporary
directory and runs every op once, as the benchmark harness runs it: in
process, with `--threads 1` and a fresh `--out-dir`. For each op it prints
`<workload>/<i> exit <code>`, then `<workload>/<i>/<file> <sha256>` for each
file the op wrote. Two checkouts whose CLI outputs are byte-identical print
the same lines, so `diff` of two runs is the whole comparison. Exits 1,
after printing every line, when any op exited non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  perfbench/run.py; imports no numpy


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seed", type=int, help="workload seed")
    args = p.parse_args(argv)
    os.environ.update(run.PINNED_THREADS)  # before numpy is first imported
    run.import_curveband()
    import harness
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in run.WORKLOAD_NAMES:
            inputs = Path(tmp) / name / "inputs"
            workloads.WORKLOADS[name]().write_inputs(args.seed, inputs)
            for i, op in enumerate(workloads.load_ops(inputs)):
                out = Path(tmp) / name / f"op{i}"
                code = harness.run_op(op["argv"], out).code
                failed += code != 0
                print(f"{name}/{i} exit {code}")
                files = sorted(f for f in out.rglob("*") if f.is_file())
                for f in files:
                    digest = hashlib.sha256(f.read_bytes()).hexdigest()
                    print(f"{name}/{i}/{f.relative_to(out)} {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
