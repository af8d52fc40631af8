"""Command-line experiment harness.

    curveband <synth|recover|phase-transition|denoise|segment|eval> [flags]

Every command is deterministic given its flags (synth and phase-transition
draw from --seed). The README's table lists the exit codes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, io
from .curve_model import FrequencySupport, extract_zero_level_set, random_curve
from .denoise import IrlsConfig, klr_denoise, point_cloud_mse, point_cloud_snr
from .errors import ContractViolation, DataError, NumericalFailure
from .recovery import (chamfer_distance, nullspace_basis, rank_bound,
                       recover_curve)
from .segmentation import segment

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _parse_support(text: str) -> FrequencySupport:
    try:
        k1, k2 = (int(part) for part in text.lower().split("x"))
        return FrequencySupport(k1, k2)
    except (ValueError, ContractViolation):
        raise ContractViolation(f"bad support spec {text!r}, expected K1xK2")


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Integers `a,b,c`, or the inclusive range `start:stop[:step]`; at
    least one."""
    try:
        if ":" not in text:
            values = [int(p) for p in text.split(",") if p.strip()]
        else:
            start, stop, step = ([int(p) for p in text.split(":")] + [1])[:3]
            values = list(range(start, stop + 1, step)) if step > 0 else None
    except ValueError:
        raise ContractViolation(f"bad integer list {flag} {text!r}")
    if values is None or text.count(":") > 2:
        raise ContractViolation(f"bad range {flag} {text!r}, expected "
                                "start:stop[:step] with step > 0")
    if not values:
        raise ContractViolation(f"{flag} {text!r} gives no values; phase "
                                "transition needs non-empty ranges")
    return values


def _out_dir(args) -> Path:
    """Create the output directory; called after every check and input read."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    support = _parse_support(args.support)
    poly = random_curve(support, args.seed)
    curve = extract_zero_level_set(poly, args.grid_res)
    if curve.is_empty:
        raise NumericalFailure(f"the zero set of the {support.k1}x{support.k2}"
                               f" curve is empty at grid {args.grid_res}")
    out = _out_dir(args)
    io.save_coefficients(poly, out / "coeffs.json")
    io.save_polyline_svg(curve, out / "curve.svg")
    io.save_polyline_csv(curve, out / "curve.csv")
    print(f"synth: support {support.shape}, seed {args.seed}, "
          f"{curve.num_vertices()} contour vertices -> {out}")
    return 0


def cmd_recover(args) -> int:
    outer = _parse_support(args.gamma)
    bound_cols = {}
    if args.inner:
        inner = _parse_support(args.inner)
        bound_cols = {"lambda": f"{inner.k1}x{inner.k2}",
                      "bound": rank_bound(outer, inner)}
    pts = io.load_points(args.points, dim=2)
    t0 = time.perf_counter()
    basis = nullspace_basis(pts, outer, args.grid_res)
    curve = recover_curve(pts, outer, args.grid_res)
    elapsed = time.perf_counter() - t0
    out = _out_dir(args)
    io.save_polyline_svg(curve, out / "recovered.svg", points=pts)
    io.save_polyline_csv(curve, out / "recovered.csv")
    row = {"gamma": f"{outer.k1}x{outer.k2}", "N": pts.n_points,
           "measured_rank": basis.rank, **bound_cols}
    io.save_rank_report([row], out / "rank_report.csv")
    print(f"recover: N={pts.n_points}, rank={basis.rank}, "
          f"null_dim={basis.q}, {elapsed:.2f}s -> {out}")
    return 0


def cmd_phase_transition(args) -> int:
    k_values = _parse_int_list(args.k_range, "--k-range")
    n_values = _parse_int_list(args.n_range, "--n-range")
    if np.any(np.diff(n_values) <= 0):
        # the heatmap places its k^2 and (2k)^2 guides by interpolating N
        raise ContractViolation(f"--n-range {args.n_range!r} must increase")
    freq = experiments.phase_transition(
        k_values, n_values, args.trials, args.seed,
        grid_res=args.grid_res, threads=args.threads)
    out = _out_dir(args)
    io.save_phase_csv(freq, k_values, n_values, out / "phase_transition.csv")
    io.save_heatmap_svg(freq, k_values, n_values, out / "phase_transition.svg")
    print(f"phase-transition: {len(k_values)}x{len(n_values)} cells, "
          f"{args.trials} trials each -> {out}")
    return 0


def cmd_denoise(args) -> int:
    noisy = io.load_points(args.points)
    if noisy.n_points < 2:
        raise DataError(f"point file {args.points} holds one point; "
                        "denoising needs at least 2")
    cfg = io.load_irls_config(args.config) if args.config else IrlsConfig()
    truth = io.load_points(args.truth, dim=noisy.dim) if args.truth else None
    denoised, trace = klr_denoise(noisy, cfg)
    out = _out_dir(args)
    io.save_points(denoised, out / "denoised.csv")
    io.save_trace_csv(trace, out / "trace.csv")
    metrics = {"iterations": trace.iterations[-1]}
    if truth is not None:
        snr_in = point_cloud_snr(truth, noisy)
        snr_out = point_cloud_snr(truth, denoised)
        metrics.update(snr_in_db=snr_in, snr_out_db=snr_out,
                       mse_in=point_cloud_mse(truth, noisy),
                       mse_out=point_cloud_mse(truth, denoised))
        print(f"denoise: SNR {snr_in:.2f} dB -> {snr_out:.2f} dB "
              f"({trace.iterations[-1]} iterations)")
    else:
        print(f"denoise: {trace.iterations[-1]} iterations")
    io.save_metrics(metrics, out / "snr_report.csv")
    return 0


def cmd_segment(args) -> int:
    image = io.load_pgm(args.image)
    support = _parse_support(args.filter)
    result = segment(image, args.rank, args.lam, support,
                     max_iters=args.max_iters)
    out = _out_dir(args)
    io.save_pgm(result.f_star, out / "fstar.pgm")
    io.save_pgm(result.edge_map, out / "edges.pgm")
    contours = experiments.edge_contours(result.edge_map)
    io.save_polyline_svg(contours, out / "edges.svg")
    flag = "" if result.converged else " (warning: not converged)"
    print(f"segment: {result.iterations} iterations, objective "
          f"{result.objective_history[-1]:.4g}{flag} -> {out}")
    return 0


def cmd_eval(args) -> int:
    if args.kind == "curves":
        a = io.load_polyline_csv(args.file_a)
        b = io.load_polyline_csv(args.file_b)
        value = chamfer_distance(a, b)
        metrics = {"chamfer": value}
        print(f"eval: chamfer distance {value:.6g}")
    else:
        a = io.load_points(args.file_a)
        b = io.load_points(args.file_b, dim=a.dim)
        mse = point_cloud_mse(a, b)
        snr = point_cloud_snr(a, b)
        metrics = {"mse": mse, "snr_db": snr}
        print(f"eval: MSE {mse:.6g}, SNR {snr:.4g} dB")
    io.save_metrics(metrics, _out_dir(args) / "eval.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curveband",
        description="Band-limited level-set curve experiments")
    common = argparse.ArgumentParser(add_help=False)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("phase-transition", parents=[common],
                       help="success-frequency sweep over support and samples")
    p.add_argument("--k-range", default="3,5,7")
    p.add_argument("--n-range", default="5:230:15")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--filter", default="7x7")
    p.add_argument("--max-iters", type=int, default=15,
                   help="cap on image updates; a run that stops at it is "
                        "flagged not converged, and its outputs depend on it")
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
        if getattr(args, "seed", 0) < 0:
            raise ContractViolation(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ContractViolation as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
