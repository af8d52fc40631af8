#!/usr/bin/env python3
"""sha256 of every file the benchmark workloads' ops write.

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py SEED > digests.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py SEED --against REV

Writes the inputs of each workload in perfbench/ for SEED into a temporary
directory and runs every op once, as the benchmark harness runs it: in
process, with `--threads 1` and a fresh `--out-dir`. For each op it prints
`<workload>/<i> exit <code>`, then `<workload>/<i>/<file> <sha256>` for each
file the op wrote. Two checkouts whose CLI outputs are byte-identical print
the same lines, so `diff` of two runs is the whole comparison. Exits 1,
after printing every line, when any op exited non-zero.

With `--against REV` it makes that comparison itself: it checks REV out
into a detached git worktree in a temporary directory, runs that
checkout's own script and this one's for SEED, each in a fresh
interpreter, prints the unified diff of their lines (REV first) and exits 1
when they differ, 2 when REV cannot be checked out. The worktree is removed
on every exit path.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  perfbench/run.py; imports no numpy


def digest_lines(checkout: Path, seed: int) -> list[str]:
    """The lines this script prints for `seed` in `checkout`, run there."""
    script = checkout / "tools" / "output_digests.py"
    proc = subprocess.run([sys.executable, str(script), str(seed)],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    return proc.stdout.splitlines()


def against(rev: str, seed: int) -> int:
    """Print the unified diff of the digests of `rev` and of this checkout;
    1 when they differ, 2 when git cannot check `rev` out."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add",
                           "--quiet", "--detach", str(tree), rev]).returncode:
            return 2  # git has printed why
        try:
            base = digest_lines(tree, seed)
            head = digest_lines(ROOT, seed)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], check=True)
    diff = list(difflib.unified_diff(base, head, rev, "this checkout",
                                     lineterm=""))
    for line in diff:
        print(line)
    return 1 if diff else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seed", type=int, help="workload seed")
    p.add_argument("--against", metavar="REV",
                   help="diff the digests of git revision REV against these")
    args = p.parse_args(argv)
    if args.against:
        return against(args.against, args.seed)
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
