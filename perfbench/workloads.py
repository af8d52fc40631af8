"""The four benchmark workloads: input generation, op command lines, checks.

Each workload writes its inputs (point CSVs, PGMs, truth curves) into a
directory during set-up, together with `ops.json`, the list of ops. An op is
one `curveband` command line plus the parameters its check needs. The timed
loop reads only that manifest, so the program under test receives files.

Inputs depend only on the workload seed. Every op's check reads the files
the CLI wrote and returns an `OpCheck`:

* `valid`: every expected output file exists and parses, with finite values;
* `ok`: the outputs pass the workload's acceptance check;
* `quality`: the op's contribution to the workload's quality figure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from curveband import FrequencySupport, PointSet, sample_curve
from curveband import io as cio
from curveband.experiments import (child_seed, curve_with_zero_set,
                                   disk_phantom, multi_disk_phantom,
                                   union_curve)
from curveband.segmentation import GrayImage

MANIFEST = "ops.json"


@dataclass
class OpCheck:
    valid: bool
    ok: bool
    quality: float | None = None


class Workload:
    """Base class: `make_ops` writes the inputs and returns the op list."""

    name = ""
    why = ""
    quality_name = ""
    quality_unit = ""
    quality_better = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def make_ops(self, seed: int, dest: Path) -> list[dict]:
        raise NotImplementedError

    def check(self, op: dict, out: Path) -> OpCheck:
        raise NotImplementedError

    def quality(self, values: list[float]) -> float:
        return float(np.mean(values))

    def write_inputs(self, seed: int, dest: Path) -> None:
        dest.mkdir(parents=True, exist_ok=True)
        ops = self.make_ops(seed, dest)
        (dest / MANIFEST).write_text(json.dumps(ops, indent=1) + "\n")


def load_ops(dest: Path) -> list[dict]:
    return json.loads((dest / MANIFEST).read_text())


def _chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-neighbour distance between two vertex sets on
    the unit torus (coordinates in [0, 1))."""
    da = cKDTree(b, boxsize=1.0).query(a % 1.0)[0]
    db = cKDTree(a, boxsize=1.0).query(b % 1.0)[0]
    return 0.5 * (float(da.mean()) + float(db.mean()))


def _read_csv_table(path: Path) -> dict[str, str]:
    """Two-row CSV (header, values) or `metric,value` rows, as a dict."""
    lines = path.read_text().strip().splitlines()
    if lines[0].startswith("metric,value"):
        return dict(line.split(",", 1) for line in lines[1:])
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _polyline_vertices(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.size == 0:
        return np.empty((0, 2))
    return rows[:, 1:3]


_SVG_NUMBER_PAIR = re.compile(r"(-?\d+\.?\d*) (-?\d+\.?\d*)")


def _svg_path_vertices(path: Path) -> np.ndarray:
    """Vertices of every <path d="M x y L x y ..."> in a polyline SVG."""
    pts = []
    for d in re.findall(r'<path d="([^"]*)"', path.read_text()):
        pts += [(float(a), float(b)) for a, b in _SVG_NUMBER_PAIR.findall(d)]
    return np.array(pts).reshape(-1, 2)


# ---------------------------------------------------------------------------


class PhaseSweep(Workload):
    name = "phase_sweep"
    why = ("the paper's phase-transition figure: many small 256^2 grids, so "
           "marching squares dominates and the SVDs are tiny")
    quality_name = "success_frac"
    quality_unit = "frac"
    quality_better = "higher"

    # sample counts as multiples of the (2k)^2 sampling bound
    N_FACTORS = (0.25, 0.5, 0.75, 1.25, 1.5, 2.0)

    def make_ops(self, seed, dest):
        ks, rounds, trials = ((3,), 1, 1) if self.tiny else ((3, 5, 7), 2, 4)
        ops = []
        for r in range(rounds):
            for k in ks:
                bound = (2 * k) ** 2
                n_values = [round(f * bound) for f in self.N_FACTORS]
                ops.append({
                    "argv": ["phase-transition", "--k-range", str(k),
                             "--n-range", ",".join(map(str, n_values)),
                             "--trials", str(trials), "--grid-res", "256",
                             "--seed", str(1000 * seed + 10 * r + k)],
                    "k": k, "n_values": n_values, "trials": trials})
        return ops

    def check(self, op, out):
        rows = (out / "phase_transition.csv").read_text().split()[1:]
        cells = {}
        for row in rows:
            k, n, freq = row.split(",")
            cells[(int(k), int(n))] = float(freq)
        k = op["k"]
        freqs = np.array([cells.get((k, n), np.nan) for n in op["n_values"]])
        valid = (len(cells) == len(op["n_values"])
                 and bool(np.all((freqs >= 0) & (freqs <= 1))))
        if not valid:
            return OpCheck(False, False)
        hard = [f for n, f in zip(op["n_values"], freqs) if n > (2 * k) ** 2]
        return OpCheck(True, all(f == 1.0 for f in hard), float(freqs.mean()))


class RecoverOvercomplete(Workload):
    name = "recover_overcomplete"
    why = ("over-estimated 11x11 support on 5x5 union curves (criterion-3 "
           "curves): null-space SVD, sum-of-squares and one 512^2 contour")
    quality_name = "chamfer_px"
    quality_unit = "px"
    quality_better = "lower"

    GRID = 512
    RANK_BOUND = 72  # |11x11| - (11-5+1)^2 shifts

    def make_ops(self, seed, dest):
        # The criterion-3 inputs, whatever the seed: on other sample draws
        # the marginal rank decision flips on further curves, which would
        # make ok_frac differ from seed to seed.
        ops = []
        for curve_seed in range(2 if self.tiny else 10):
            _, truth, _, _ = union_curve(curve_seed, self.GRID)
            pts = sample_curve(truth, 220, seed=child_seed(curve_seed, 1))
            pts_path = dest / f"union{curve_seed}.csv"
            truth_path = dest / f"union{curve_seed}_truth.csv"
            cio.save_points(pts, pts_path)
            cio.save_polyline_csv(truth, truth_path)
            ops.append({
                "argv": ["recover", str(pts_path), "--gamma", "11x11",
                         "--inner", "5x5", "--grid-res", str(self.GRID)],
                "truth": str(truth_path)})
        return ops

    def check(self, op, out):
        report = _read_csv_table(out / "rank_report.csv")
        rec = _polyline_vertices(out / "recovered.csv")
        if rec.shape[0] == 0 or not np.all(np.isfinite(rec)):
            return OpCheck(False, False)
        truth = _polyline_vertices(Path(op["truth"]))
        chamfer_px = _chamfer(rec, truth) * self.GRID
        ok = (int(report["measured_rank"]) == int(report["bound"])
              == self.RANK_BOUND and chamfer_px <= 3.0)
        return OpCheck(True, ok, chamfer_px)

    def quality(self, values):
        return float(np.median(values))


class Denoise(Workload):
    name = "denoise"
    why = ("kernel low-rank IRLS to convergence at N=600: O(N^3) eigh and "
           "kernel matrices dominate; the kernel's numerical rank is << N")
    quality_name = "snr_gain_db"
    quality_unit = "dB"
    quality_better = "higher"

    STDS = (0.005, 0.01, 0.02)

    def make_ops(self, seed, dest):
        # Curve i is fixed; the seed draws its samples and noise. Iteration
        # counts to convergence vary far more between curves than between
        # draws, so fixed curves keep time to solution comparable by seed.
        n, count = (200, 3) if self.tiny else (600, 6)
        ops = []
        for i in range(count):
            std = self.STDS[i % len(self.STDS)]
            _, curve = curve_with_zero_set(FrequencySupport(3, 3),
                                           child_seed(i, 5))
            clean = sample_curve(curve, n, seed=child_seed(i, 6, seed))
            rng = np.random.default_rng(child_seed(i, 7, seed))
            noisy = PointSet(2, clean.points
                             + std * rng.standard_normal(clean.points.shape))
            clean_path = dest / f"clean{i}.csv"
            noisy_path = dest / f"noisy{i}.csv"
            cio.save_points(clean, clean_path)
            cio.save_points(noisy, noisy_path)
            ops.append({"argv": ["denoise", str(noisy_path),
                                 "--truth", str(clean_path)],
                        "n": n, "std": std})
        return ops

    def check(self, op, out):
        report = _read_csv_table(out / "snr_report.csv")
        pts = np.loadtxt(out / "denoised.csv", delimiter=",", ndmin=2)
        snr_in = float(report["snr_in_db"])
        snr_out = float(report["snr_out_db"])
        valid = (pts.shape == (op["n"], 2) and bool(np.all(np.isfinite(pts)))
                 and np.isfinite(snr_in) and np.isfinite(snr_out))
        if not valid:
            return OpCheck(False, False)
        return OpCheck(True, snr_out > snr_in, snr_out - snr_in)


class Segment(Workload):
    name = "segment"
    why = ("the criterion-9 commands at 64 px with a 9x9 filter: dense SVD of "
           "the materialized lift, the sparse solve and the edge map")
    quality_name = "edge_err_px"
    quality_unit = "px"
    quality_better = "lower"

    def make_ops(self, seed, dest):
        rng = np.random.default_rng(child_seed(seed, 9))
        size, filt = (32, "7x7") if self.tiny else (64, "9x9")
        # disk centre jittered by up to 1.5 px; the multi-disk image rolled
        center = tuple(0.5 + rng.uniform(-1.5, 1.5, size=2) / size)
        disk_path = dest / "disk.pgm"
        cio.save_pgm(disk_phantom(size, center=center, radius=0.3), disk_path)
        roll = rng.integers(0, size, size=2)
        multi = np.roll(multi_disk_phantom(size).pixels, roll, axis=(0, 1))
        multi_path = dest / "multi_disk.pgm"
        cio.save_pgm(GrayImage(multi), multi_path)

        def op(image, rank, lam, iters, disk):
            return {"argv": ["segment", str(image), "--rank", str(rank),
                             "--lambda", lam, "--filter", filt,
                             "--max-iters", str(iters)],
                    "size": size, "disk": list(center) if disk else None}

        if self.tiny:
            return [op(disk_path, 20, "1e-5", 3, True)]
        return ([op(disk_path, 30, lam, 8, True) for lam in ("1e-5", "1e-2")]
                + [op(multi_path, r, "1e-3", 6, False) for r in (15, 30, 45)])

    def check(self, op, out):
        size = op["size"]
        for name in ("fstar.pgm", "edges.pgm"):
            img = cio.load_pgm(out / name)
            if img.pixels.shape != (size, size):
                return OpCheck(False, False)
        edges = _svg_path_vertices(out / "edges.svg")
        if edges.shape[0] == 0:
            return OpCheck(True, False)
        if op["disk"] is None:
            return OpCheck(True, True)
        t = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        cy, cx = op["disk"]
        circle = np.stack([cy + 0.3 * np.sin(t), cx + 0.3 * np.cos(t)], axis=1)
        err_px = _chamfer(edges, circle % 1.0) * size
        return OpCheck(True, err_px <= 2.0, err_px)


WORKLOADS = {w.name: w for w in (PhaseSweep, RecoverOvercomplete, Denoise,
                                 Segment)}
