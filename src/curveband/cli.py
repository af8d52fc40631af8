"""Command-line experiment harness.

    curveband <synth|recover|phase-transition|denoise|segment|eval> [flags]

Every command is deterministic given its flags and --seed. Exit codes:
0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, io
from .curve_model import (FrequencySupport, extract_zero_level_set,
                          random_curve, sample_curve)
from .denoise import IrlsConfig, klr_denoise, point_cloud_mse, point_cloud_snr
from .errors import (AmbiguousSupport, ContractViolation, DataError,
                     NoSamplesAvailable, NumericalFailure)
from .recovery import (chamfer_distance, nullspace_basis, rank_bound,
                       rasterized_rank_tol, recover_curve)
from .segmentation import build_lift, segment

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _parse_support(text: str) -> FrequencySupport:
    try:
        k1, k2 = (int(part) for part in text.lower().split("x"))
        return FrequencySupport(k1, k2)
    except (ValueError, ContractViolation):
        raise ContractViolation(f"bad support spec {text!r}, expected K1xK2")


def _parse_int_list(text: str) -> list[int]:
    """Integers `a,b,c`, or the inclusive range `start:stop[:step]`."""
    try:
        if ":" not in text:
            return [int(p) for p in text.split(",") if p.strip()]
        start, stop, step = ([int(p) for p in text.split(":")] + [1])[:3]
    except ValueError:
        raise ContractViolation(f"bad integer list {text!r}")
    if step <= 0 or text.count(":") > 2:
        raise ContractViolation(
            f"bad range {text!r}, expected start:stop[:step] with step > 0")
    return list(range(start, stop + 1, step))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    out = _out_dir(args)
    support = _parse_support(args.support)
    poly = random_curve(support, args.seed)
    curve = extract_zero_level_set(poly, args.grid_res)
    io.save_coefficients(poly, out / "coeffs.json")
    io.save_polyline_svg(curve, out / "curve.svg")
    io.save_polyline_csv(curve, out / "curve.csv")
    print(f"synth: support {support.shape}, seed {args.seed}, "
          f"{curve.num_vertices()} contour vertices -> {out}")
    return 0


def cmd_recover(args) -> int:
    out = _out_dir(args)
    pts = io.load_points(args.points, dim=2)
    outer = _parse_support(args.gamma)
    tol = args.rank_tol
    if tol is None:
        tol = rasterized_rank_tol(args.grid_res)
    elif not 0 < tol < np.inf:
        raise ContractViolation(f"--rank-tol must be positive and finite, got {tol}")
    t0 = time.perf_counter()
    basis = nullspace_basis(pts, outer, tol)
    curve = recover_curve(pts, outer, args.grid_res, tol)
    elapsed = time.perf_counter() - t0
    io.save_polyline_svg(curve, out / "recovered.svg", points=pts)
    io.save_polyline_csv(curve, out / "recovered.csv")
    row = {"gamma": f"{outer.k1}x{outer.k2}", "N": pts.n_points,
           "measured_rank": basis.rank}
    if args.inner:
        inner = _parse_support(args.inner)
        row["lambda"] = f"{inner.k1}x{inner.k2}"
        row["bound"] = rank_bound(outer, inner)
    io.save_rank_report([row], out / "rank_report.csv")
    print(f"recover: N={pts.n_points}, rank={basis.rank}, "
          f"null_dim={basis.q}, {elapsed:.2f}s -> {out}")
    return 0


def cmd_phase_transition(args) -> int:
    out = _out_dir(args)
    k_values = _parse_int_list(args.k_range)
    n_values = _parse_int_list(args.n_range)
    freq = experiments.phase_transition(
        k_values, n_values, args.trials, args.seed,
        grid_res=args.grid_res, threads=args.threads)
    io.save_phase_csv(freq, k_values, n_values, out / "phase_transition.csv")
    io.save_heatmap_svg(freq, k_values, n_values, out / "phase_transition.svg")
    print(f"phase-transition: {len(k_values)}x{len(n_values)} cells, "
          f"{args.trials} trials each -> {out}")
    return 0


def cmd_denoise(args) -> int:
    out = _out_dir(args)
    noisy = io.load_points(args.points)
    cfg = io.load_irls_config(args.config) if args.config else IrlsConfig()
    denoised, trace = klr_denoise(noisy, cfg)
    io.save_points(denoised, out / "denoised.csv")
    io.save_trace_csv(trace, out / "trace.csv")
    lines = ["metric,value", f"iterations,{trace.iterations[-1]}"]
    if args.truth:
        truth = io.load_points(args.truth, dim=noisy.dim)
        snr_in = point_cloud_snr(truth, noisy)
        snr_out = point_cloud_snr(truth, denoised)
        lines += [f"snr_in_db,{snr_in:.17g}", f"snr_out_db,{snr_out:.17g}",
                  f"mse_in,{point_cloud_mse(truth, noisy):.17g}",
                  f"mse_out,{point_cloud_mse(truth, denoised):.17g}"]
        print(f"denoise: SNR {snr_in:.2f} dB -> {snr_out:.2f} dB "
              f"({trace.iterations[-1]} iterations)")
    else:
        print(f"denoise: {trace.iterations[-1]} iterations")
    (out / "snr_report.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_segment(args) -> int:
    out = _out_dir(args)
    image = io.load_pgm(args.image)
    support = _parse_support(args.filter)
    result = segment(image, args.rank, args.lam, support,
                     max_iters=args.max_iters)
    io.save_pgm(result.f_star, out / "fstar.pgm")
    io.save_pgm(result.edge_map, out / "edges.pgm")
    contours = experiments.edge_contours(result.edge_map)
    io.save_polyline_svg(contours, out / "edges.svg")
    flag = "" if result.converged else " (warning: not converged)"
    print(f"segment: {result.iterations} iterations, objective "
          f"{result.objective_history[-1]:.4g}{flag} -> {out}")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    if args.kind == "curves":
        a = io.load_polyline_csv(args.file_a)
        b = io.load_polyline_csv(args.file_b)
        value = chamfer_distance(a, b)
        lines = ["metric,value", f"chamfer,{value:.17g}"]
        print(f"eval: chamfer distance {value:.6g}")
    else:
        a = io.load_points(args.file_a)
        b = io.load_points(args.file_b)
        mse = point_cloud_mse(a, b)
        snr = point_cloud_snr(a, b)
        lines = ["metric,value", f"mse,{mse:.17g}", f"snr_db,{snr:.17g}"]
        print(f"eval: MSE {mse:.6g}, SNR {snr:.4g} dB")
    (out / "eval.csv").write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveband",
        description="Band-limited level-set curve experiments")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    common.add_argument(
        "--threads", type=int, default=1,
        help="trial worker threads (>= 1); only phase-transition uses it, the "
             "other commands accept it because the benchmark harness passes "
             "it to every op")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="random curve -> coefficients + contour files")
    p.add_argument("--support", default="3x3")
    p.add_argument("--grid-res", type=int, default=512)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("recover", parents=[common],
                       help="recover a curve from sampled points")
    p.add_argument("points", help="point CSV, one x1,x2 pair per line")
    p.add_argument("--gamma", default="11x11",
                   help="assumed frequency support, K1xK2")
    p.add_argument("--inner", default=None,
                   help="true support (if known) for the rank-bound column")
    p.add_argument("--grid-res", type=int, default=512)
    p.add_argument("--rank-tol", type=float, default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("phase-transition", parents=[common],
                       help="success-frequency sweep over support and samples")
    p.add_argument("--k-range", default="3,5,7")
    p.add_argument("--n-range", default="5:230:15")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--grid-res", type=int, default=256)
    p.set_defaults(func=cmd_phase_transition)

    p = sub.add_parser("denoise", parents=[common],
                       help="kernel low-rank IRLS point-cloud denoising")
    p.add_argument("points")
    p.add_argument("--config", default=None,
                   help="key = value file mirroring the IRLS config fields")
    p.add_argument("--truth", default=None,
                   help="clean points for the SNR report")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("segment", parents=[common],
                       help="structured low-rank image segmentation")
    p.add_argument("image", help="binary PGM (P5)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=5e9)
    p.add_argument("--filter", default="7x7")
    p.add_argument("--max-iters", type=int, default=15)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", parents=[common],
                       help="compare two curve or point files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--kind", choices=["curves", "points"], default="curves")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ContractViolation(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ContractViolation as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, NoSamplesAvailable) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, AmbiguousSupport, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
