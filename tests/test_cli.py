import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curveband
from curveband import io as cio
from curveband import FrequencySupport, sample_curve, segment
from curveband.cli import build_parser, main
from curveband.experiments import (child_seed, disk_phantom,
                                   noisy_curve_samples, union_curve)


def run(args):
    return main([str(a) for a in args])


def run_process(args, cwd):
    """The CLI in a fresh interpreter, so its warnings reach stderr."""
    src = str(Path(curveband.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "curveband.cli", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})


@pytest.fixture
def sample_points(tmp_path):
    clean, noisy = noisy_curve_samples(2, 120, 0.01)
    clean_path = tmp_path / "clean.csv"
    noisy_path = tmp_path / "noisy.csv"
    cio.save_points(clean, clean_path)
    cio.save_points(noisy, noisy_path)
    return clean_path, noisy_path


class TestSynth:
    def test_outputs_and_roundtrip(self, tmp_path):
        out = tmp_path / "s"
        assert run(["synth", "--support", "3x3", "--seed", 7,
                    "--out-dir", out]) == 0
        poly = cio.load_coefficients(out / "coeffs.json")
        assert poly.hermitian
        assert (out / "curve.svg").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--support", "5x5", "--seed", 3,
                        "--out-dir", out]) == 0
        assert (a / "coeffs.json").read_bytes() == (b / "coeffs.json").read_bytes()
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert run(["synth", "--seed", -1, "--out-dir", tmp_path]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "coeffs.json").exists()

    def test_empty_zero_set_exits_4(self, tmp_path, capsys):
        # a 1x1 polynomial is a nonzero constant: no curve to write
        out = tmp_path / "s"
        assert run(["synth", "--support", "1x1", "--out-dir", out]) == 4
        assert "zero set of the 1x1 curve is empty at grid 512" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestRecover:
    def test_pipeline_reports_rank(self, tmp_path):
        out_s = tmp_path / "synth"
        run(["synth", "--support", "3x3", "--seed", 11, "--out-dir", out_s])
        from curveband import extract_zero_level_set, sample_curve
        poly = cio.load_coefficients(out_s / "coeffs.json")
        curve = extract_zero_level_set(poly, 512)
        pts = sample_curve(curve, 150, seed=0)
        pts_path = tmp_path / "pts.csv"
        cio.save_points(pts, pts_path)
        out_r = tmp_path / "rec"
        assert run(["recover", pts_path, "--gamma", "7x7", "--inner", "3x3",
                    "--grid-res", 512, "--out-dir", out_r]) == 0
        report = (out_r / "rank_report.csv").read_text().strip().splitlines()
        header, row = report
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["measured_rank"] == cells["bound"] == "24"
        assert (out_r / "recovered.svg").exists()

    def test_missing_input_exits_3_and_names_path(self, tmp_path, capsys):
        code = run(["recover", tmp_path / "nope.csv", "--gamma", "5x5"])
        assert code == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_non_finite_point_exits_3(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("0.1,0.2\nnan,0.5\n0.3,0.4\n")
        code = run(["recover", pts_path, "--gamma", "3x3",
                    "--out-dir", tmp_path / "rec"])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_unparsable_point_row_exits_3(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("0.1,0.2\na,b\n0.3,0.4\n")
        out = tmp_path / "rec"
        assert run(["recover", pts_path, "--gamma", "3x3",
                    "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert "malformed point file" in err and str(pts_path) in err
        assert not out.exists()

    def test_support_without_null_vector_exits_4(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("0.25,0.1\n0.75,0.4\n0.25,0.7\n")
        out = tmp_path / "rec"
        assert run(["recover", pts_path, "--gamma", "1x1",
                    "--out-dir", out]) == 4
        assert "no null-space vector" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_below_16_exits_2(self, tmp_path, capsys, monkeypatch):
        # criterion-3 samples: over-estimated support, sum-of-squares path;
        # every grid under 16 is rejected before the feature-matrix SVD
        _, truth, _, _ = union_curve(0, 512)
        pts_path = tmp_path / "union0.csv"
        cio.save_points(sample_curve(truth, 220, seed=child_seed(0, 1)),
                        pts_path)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD ran before the grid was checked")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for grid in (8, 0, -5):
            capsys.readouterr()
            assert run(["recover", pts_path, "--gamma", "11x11",
                        "--grid-res", grid, "--out-dir", tmp_path / "rec"]
                       ) == 2, grid
            assert "grid_res" in capsys.readouterr().err, grid

    def test_ill_conditioned_union_curve_reports_rank_72(self, tmp_path):
        # criterion-3 curve 6: the 11x11 spectrum alone reads rank 68 here
        _, truth, _, _ = union_curve(6, 512)
        pts_path = tmp_path / "union6.csv"
        cio.save_points(sample_curve(truth, 220, seed=child_seed(6, 1)),
                        pts_path)
        out = tmp_path / "rec"
        assert run(["recover", pts_path, "--gamma", "11x11", "--inner", "5x5",
                    "--grid-res", 512, "--out-dir", out]) == 0
        header, row = (out / "rank_report.csv").read_text().split()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["measured_rank"] == cells["bound"] == "72"

    @pytest.mark.parametrize("inner", ["bogus", "7x7"])
    def test_bad_inner_exits_2_before_any_output(self, tmp_path, capsys,
                                                 inner):
        # "bogus" does not parse; 7x7 does not fit inside --gamma 5x5
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("0.25,0.1\n0.75,0.4\n0.25,0.7\n")
        out = tmp_path / "rec"
        assert run(["recover", pts_path, "--gamma", "5x5", "--inner", inner,
                    "--grid-res", 64, "--out-dir", out]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


class TestPhaseTransition:
    def test_csv_deterministic_and_gated_cells(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["phase-transition", "--k-range", "3",
                        "--n-range", "30,40", "--trials", 3, "--seed", 5,
                        "--out-dir", out]) == 0
            outs.append((out / "phase_transition.csv").read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        freq_40 = [line for line in text.splitlines() if line.startswith("3,40")]
        assert freq_40 == ["3,40,1"]

    def test_threads_do_not_change_results(self, tmp_path):
        results = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            assert run(["phase-transition", "--k-range", "3",
                        "--n-range", "20,40", "--trials", 2, "--seed", 9,
                        "--threads", threads, "--out-dir", out]) == 0
            results.append((out / "phase_transition.csv").read_bytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("flag,value", [("--k-range", "3,x"),
                                            ("--n-range", "5:20:0"),
                                            ("--n-range", "5:")])
    def test_bad_integer_list_exits_2(self, tmp_path, flag, value):
        assert run(["phase-transition", flag, value, "--trials", 1,
                    "--out-dir", tmp_path]) == 2
        assert not (tmp_path / "phase_transition.csv").exists()

    @pytest.mark.parametrize("flags", [["--n-range", "40", "--seed", "-1"],
                                       ["--n-range=-5"],
                                       ["--n-range", "40", "--threads", "0"]])
    def test_negative_seed_or_count_and_zero_threads_exit_2(self, tmp_path,
                                                             flags):
        assert run(["phase-transition", "--k-range", "3", "--trials", 1,
                    *flags, "--out-dir", tmp_path]) == 2
        assert not (tmp_path / "phase_transition.csv").exists()

    def test_empty_range_exits_2(self, tmp_path, capsys):
        assert run(["phase-transition", "--k-range", "3", "--n-range", "20:5",
                    "--trials", 1, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "non-empty ranges" in err and "--n-range '20:5'" in err
        assert not (tmp_path / "phase_transition.csv").exists()

    def test_range_with_step_includes_stop(self, tmp_path):
        assert run(["phase-transition", "--k-range", "3",
                    "--n-range", "10:40:15", "--trials", 1,
                    "--out-dir", tmp_path]) == 0
        lines = (tmp_path / "phase_transition.csv").read_text().splitlines()
        assert lines[0] == "k,N,frequency"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["3", "10"], ["3", "25"], ["3", "40"]]

    def test_zero_trials_exits_2(self, tmp_path):
        assert run(["phase-transition", "--k-range", "3", "--n-range", "40",
                    "--trials", 0, "--out-dir", tmp_path]) == 2
        assert not (tmp_path / "phase_transition.csv").exists()


class TestDenoise:
    def test_outputs_and_snr_report(self, tmp_path, sample_points):
        clean_path, noisy_path = sample_points
        out = tmp_path / "dn"
        assert run(["denoise", noisy_path, "--truth", clean_path,
                    "--out-dir", out]) == 0
        assert (out / "denoised.csv").exists()
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iter,cost,gamma,rel_change"
        assert len(trace) - 1 <= 100
        report = dict(line.split(",") for line in
                      (out / "snr_report.csv").read_text().strip().splitlines()[1:])
        assert float(report["snr_out_db"]) > float(report["snr_in_db"])

    def test_config_parse_error_reports_line(self, tmp_path, sample_points,
                                             capsys):
        _, noisy_path = sample_points
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambda = 0.01\nwhat even is this\n")
        code = run(["denoise", noisy_path, "--config", cfg])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_custom_config_respected(self, tmp_path, sample_points):
        _, noisy_path = sample_points
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("max_iters = 4\nrel_tol = 0\n")
        out = tmp_path / "dn2"
        assert run(["denoise", noisy_path, "--config", cfg,
                    "--out-dir", out]) == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) - 1 == 4

    def test_one_point_file_exits_3(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("0.25,0.5\n")
        out = tmp_path / "dn"
        assert run(["denoise", one, "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(one) in err
        assert not out.exists()

    def test_config_value_of_wrong_type_reports_line(self, tmp_path,
                                                     sample_points, capsys):
        _, noisy_path = sample_points
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = abc\n")
        assert run(["denoise", noisy_path, "--config", cfg,
                    "--out-dir", tmp_path / "dn"]) == 3
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 1" in err and "sigma" in err
        assert not (tmp_path / "dn").exists()

    @pytest.mark.parametrize("line", ["gamma0 = inf", "eta = 1",
                                      "max_iters = 0"],
                             ids=["gamma0-inf", "eta-1", "max_iters-0"])
    def test_out_of_range_config_exits_3(self, tmp_path, sample_points,
                                         capsys, line):
        # a config file is data: a value IrlsConfig rejects is a data error
        _, noisy_path = sample_points
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["denoise", noisy_path, "--config", cfg,
                    "--out-dir", tmp_path]) == 3
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "denoised.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        # gamma falls to 1e-302 in one pass, so the update loses its unit
        # shift before gamma reaches 0; at lambda 0 every update is the
        # identity, and 1e-2 / 1e300 / 1e300 rounds to 0 before pass 3
        (["eta = 1e300", "rel_tol = 0", "max_iters = 5"],
         "working precision"),
        (["lambda = 0", "eta = 1e300", "rel_tol = 0", "max_iters = 5"],
         "gamma underflowed to 0 at iteration 3"),
        # I + lam L rounds to the singular lam L
        (["lambda = 1e300"], "working precision"),
        (["sigma = 1e-200"], "non-finite iterate"),
    ], ids=["eta-1e300", "eta-1e300-lambda-0", "lambda-1e300",
            "sigma-1e-200"])
    def test_accepted_config_that_breaks_the_update_exits_4(
            self, tmp_path, capsys, lines, message):
        _, noisy = noisy_curve_samples(5, 100, 0.01)
        noisy_path = tmp_path / "noisy.csv"
        cio.save_points(noisy, noisy_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dn"
        assert run(["denoise", noisy_path, "--config", cfg,
                    "--out-dir", out]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and message in err
        assert not out.exists()

    # sigma^2 underflows to 0 (divide by zero) or to a subnormal (overflow):
    # the run stops at the first such operation, with no numpy warning
    @pytest.mark.parametrize("sigma", ["1e-200", "1e-155"])
    def test_tiny_sigma_writes_one_stderr_line(self, tmp_path, sigma):
        _, noisy = noisy_curve_samples(5, 100, 0.01)
        cio.save_points(noisy, tmp_path / "noisy.csv")
        (tmp_path / "run.cfg").write_text(f"sigma = {sigma}\n")
        proc = run_process(["denoise", "noisy.csv", "--config", "run.cfg",
                            "--out-dir", "dn"], tmp_path)
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert not (tmp_path / "dn").exists()


class TestSegment:
    def test_outputs(self, tmp_path):
        img_path = tmp_path / "disk.pgm"
        cio.save_pgm(disk_phantom(32, radius=0.28), img_path)
        out = tmp_path / "seg"
        assert run(["segment", img_path, "--rank", 20, "--lambda", 1e-4,
                    "--filter", "5x5", "--max-iters", 4,
                    "--out-dir", out]) == 0
        for name in ("fstar.pgm", "edges.pgm", "edges.svg"):
            assert (out / name).exists()

    def test_prints_the_objective_of_the_returned_iterate(self, tmp_path,
                                                          capsys):
        img_path = tmp_path / "disk.pgm"
        cio.save_pgm(disk_phantom(32, radius=0.25), img_path)
        history = segment(cio.load_pgm(img_path), 12, 1e-3,
                          FrequencySupport(5, 5), 8).objective_history
        # segment returns its last iterate; the first one scores otherwise
        assert f"{history[0]:.4g}" != f"{history[-1]:.4g}"
        assert run(["segment", img_path, "--rank", 12, "--lambda", 1e-3,
                    "--filter", "5x5", "--max-iters", 8,
                    "--out-dir", tmp_path / "seg"]) == 0
        assert f"objective {history[-1]:.4g} " in capsys.readouterr().out

    # the lam 1e-4 input of the pinned segment record converges in 3 updates
    # and is still moving after 1
    @pytest.mark.parametrize("max_iters, flagged", [(1, True), (3, False)])
    def test_unconverged_run_is_flagged(self, tmp_path, capsys, max_iters,
                                        flagged):
        img_path = tmp_path / "disk.pgm"
        cio.save_pgm(disk_phantom(32, radius=0.3), img_path)
        assert run(["segment", img_path, "--rank", 20, "--lambda", 1e-4,
                    "--filter", "7x7", "--max-iters", max_iters,
                    "--out-dir", tmp_path / "seg"]) == 0
        out = capsys.readouterr().out
        assert ("(warning: not converged)" in out) is flagged

    def test_non_finite_objective_writes_outputs(self, tmp_path):
        # with no update, the only objective overflows to inf, silently
        cio.save_pgm(disk_phantom(64, radius=0.3), tmp_path / "disk64.pgm")
        proc = run_process(
            ["segment", "disk64.pgm", "--rank", 30, "--lambda", "1e308",
             "--filter", "9x9", "--max-iters", 0, "--out-dir", "seg"],
            tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        for name in ("fstar.pgm", "edges.pgm", "edges.svg"):
            assert (tmp_path / "seg" / name).exists()

    @pytest.mark.parametrize("lam", ["1e304", "1e308"])
    def test_overflowing_update_exits_4(self, tmp_path, lam):
        # lam * 64 * 64 is finite at 1e304, but the weighted stencil is not
        cio.save_pgm(disk_phantom(64, radius=0.3), tmp_path / "disk64.pgm")
        proc = run_process(
            ["segment", "disk64.pgm", "--rank", 30, "--lambda", lam,
             "--filter", "9x9", "--max-iters", 2, "--out-dir", "seg"],
            tmp_path)
        assert proc.returncode == 4
        assert "--lambda" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "seg").exists()

    def test_missing_lambda_exits_2(self, tmp_path, capsys):
        cio.save_pgm(disk_phantom(64, radius=0.3), tmp_path / "disk64.pgm")
        out = tmp_path / "seg"
        with pytest.raises(SystemExit) as info:
            run(["segment", tmp_path / "disk64.pgm", "--rank", 30,
                 "--out-dir", out])
        assert info.value.code == 2
        assert "--lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_larger_than_image_exits_2(self, tmp_path, capsys):
        cio.save_pgm(disk_phantom(64, radius=0.3), tmp_path / "disk64.pgm")
        out = tmp_path / "seg"
        assert run(["segment", tmp_path / "disk64.pgm", "--rank", 5,
                    "--lambda", 1e-3, "--filter", "65x65",
                    "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "filter support 65x65" in err and "64x64 image" in err
        assert not out.exists()

    def test_negative_pgm_size_exits_3(self, tmp_path, capsys):
        bogus = tmp_path / "n.pgm"
        bogus.write_bytes(b"P5\n-16 -16\n255\n" + bytes([128]) * 256)
        out = tmp_path / "seg"
        assert run(["segment", bogus, "--rank", 5, "--lambda", 1e-3,
                    "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert "PGM header" in err and str(bogus) in err
        assert not out.exists()

    def test_non_pgm_input_exits_3(self, tmp_path):
        bogus = tmp_path / "x.pgm"
        bogus.write_bytes(b"not an image")
        assert run(["segment", bogus, "--rank", 5, "--lambda", 1e-3]) == 3

    def test_unterminated_header_comment_exits_3(self, tmp_path):
        bogus = tmp_path / "u.pgm"
        bogus.write_bytes(b"P5\n# x")
        assert run(["segment", bogus, "--rank", 5, "--lambda", 1e-3]) == 3

    @pytest.mark.parametrize("header, pixel, message", [
        pytest.param(b"P5\n10 10\n255\n", 0, "at least 16", id="10x10"),
        pytest.param(b"P5\n20 20\n100\n", 200, "[0, 1]",
                     id="above-maxval"),
    ])
    def test_image_rejected_by_grayimage_exits_3(self, tmp_path, capsys,
                                                 header, pixel, message):
        bogus = tmp_path / "r.pgm"
        n = int(header.split()[1])
        bogus.write_bytes(header + bytes([pixel]) * (n * n))
        assert run(["segment", bogus, "--rank", 5, "--lambda", 1e-3]) == 3
        err = capsys.readouterr().err
        assert message in err and "r.pgm" in err


class TestEval:
    def test_curves_metric(self, tmp_path):
        out_s = tmp_path / "synth"
        run(["synth", "--support", "3x3", "--seed", 2, "--out-dir", out_s])
        out = tmp_path / "ev"
        assert run(["eval", out_s / "curve.csv", out_s / "curve.csv",
                    "--kind", "curves", "--out-dir", out]) == 0
        text = (out / "eval.csv").read_text()
        assert "chamfer,0" in text

    def test_points_metric(self, tmp_path, sample_points):
        clean_path, noisy_path = sample_points
        out = tmp_path / "ev"
        assert run(["eval", clean_path, noisy_path, "--kind", "points",
                    "--out-dir", out]) == 0
        report = dict(line.split(",") for line in
                      (out / "eval.csv").read_text().strip().splitlines()[1:])
        assert float(report["mse"]) > 0

    def test_polyline_comments_are_skipped(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("0,0.1,0.2\n0,0.3,0.4\n1,0.2,0.6\n")
        commented = tmp_path / "commented.csv"
        commented.write_text(
            "# c\n0,0.1,0.2\n0,0.3,0.4  # vertex\n1,0.2,0.6\n")
        a = cio.load_polyline_csv(plain)
        b = cio.load_polyline_csv(commented)
        assert len(a.components) == len(b.components) == 2
        assert all(np.array_equal(u, v)
                   for u, v in zip(a.components, b.components))
        out = tmp_path / "ev"
        assert run(["eval", commented, plain, "--kind", "curves",
                    "--out-dir", out]) == 0
        assert "chamfer,0" in (out / "eval.csv").read_text()

    def test_non_finite_polyline_exits_3(self, tmp_path, capsys):
        good = tmp_path / "a.csv"
        good.write_text("0,0.1,0.2\n0,0.3,0.4\n0,0.2,0.6\n")
        bad = tmp_path / "b.csv"
        bad.write_text("0,0.1,0.2\n0,nan,0.4\n0,0.2,0.6\n")
        assert run(["eval", good, bad, "--kind", "curves",
                    "--out-dir", tmp_path / "ev"]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_points_of_different_dimension_exit_3(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("0.1,0.2\n0.3,0.4\n")
        deep = tmp_path / "deep.csv"
        deep.write_text("0.1,0.2,0.5\n0.3,0.4,0.6\n")
        assert run(["eval", flat, deep, "--kind", "points",
                    "--out-dir", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err
        assert "deep.csv" in err and "dimension 3" in err
        assert not (tmp_path / "ev").exists()

    def test_usage_error_exit_code(self, tmp_path):
        assert run(["synth", "--support", "nonsense",
                    "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize("argv", [
    ["recover", "pts.csv", "--rank-tol", "1e-3"],
    ["recover", "pts.csv", "--seed", "1"],
    ["denoise", "pts.csv", "--seed", "1"],
    ["segment", "img.pgm", "--rank", "3", "--lambda", "1e-3", "--seed", "1"],
    ["eval", "a.csv", "b.csv", "--seed", "1"],
], ids=["recover-rank-tol", "recover-seed", "denoise-seed", "segment-seed",
        "eval-seed"])
def test_option_the_command_does_not_take_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as info:
        run(argv + ["--out-dir", tmp_path])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


class TestUnusableOutDir:
    def test_synth_out_dir_is_a_file_exits_3(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert run(["synth", "--out-dir", target]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(target) in err

    def test_eval_out_dir_under_a_file_exits_3(self, tmp_path, capsys):
        curve = tmp_path / "a.csv"
        curve.write_text("0,0.1,0.2\n0,0.3,0.4\n0,0.2,0.6\n")
        target = tmp_path / "taken" / "sub"
        target.parent.write_text("not a directory\n")
        assert run(["eval", curve, curve, "--out-dir", target]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(target) in err


@pytest.mark.parametrize("command", [
    ["recover"], ["denoise"], ["eval", "--kind", "points"],
    ["eval", "--kind", "curves"],
], ids=["recover", "denoise", "eval-points", "eval-curves"])
def test_empty_input_exits_3(tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    files = [empty, empty] if command[0] == "eval" else [empty]
    out = tmp_path / "out"
    assert run([*command, *files, "--out-dir", out]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(empty) in err
    assert not out.exists() or list(out.iterdir()) == []


def subcommands():
    """The CLI's subparsers by command name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def file_arguments():
    """(command, dest, extra argv) for every input file argument of the CLI:
    each positional, plus --config and --truth; one case per choice of an
    option with choices (eval --kind)."""
    cases = []
    for command, parser in subcommands().items():
        variants = [[]]
        for action in parser._actions:
            if action.choices and action.option_strings:
                variants = [[action.option_strings[0], c]
                            for c in action.choices]
        for action in parser._actions:
            if (not action.option_strings
                    or {"--config", "--truth"} & set(action.option_strings)):
                cases += [pytest.param(command, action.dest, extra,
                                       id="-".join([command, action.dest,
                                                    *extra[1:]]))
                          for extra in variants]
    return cases


class TestUnreadableInputs:
    # a valid input for the file arguments not under test, and the required
    # options, per command
    REQUIRED = {"segment": ["--rank", "3", "--lambda", "1e-3"]}

    @staticmethod
    def valid_input(command, tmp_path):
        path = tmp_path / f"valid-{command}"
        if command == "segment":
            cio.save_pgm(disk_phantom(16, radius=0.3), path)
        elif command == "eval":
            path.write_text("0,0.1,0.2\n0,0.3,0.4\n0,0.2,0.6\n")
        else:
            cio.save_points(noisy_curve_samples(0, 30, 0.01)[1], path)
        return path

    @pytest.mark.parametrize("bad_kind", ["directory", "non-utf8"])
    @pytest.mark.parametrize("command,dest,extra", file_arguments())
    def test_unreadable_file_exits_3(self, tmp_path, capsys, command, dest,
                                     extra, bad_kind):
        bad = tmp_path / "bad-input"
        if bad_kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe\x00\x80 0,1\n")
        parser = subcommands()[command]
        argv = [command, *extra, *self.REQUIRED.get(command, []),
                "--out-dir", tmp_path / "out"]
        for action in parser._actions:
            if not action.option_strings:
                argv.append(bad if action.dest == dest
                            else self.valid_input(command, tmp_path))
            elif action.dest == dest:
                argv += [action.option_strings[0], bad]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and str(bad) in err


# A command line each command rejects after parsing: a bad option value for
# the commands without an input file, a missing input file for the others.
REJECTED = {"synth": (["--support", "nonsense"], 2),
            "phase-transition": (["--k-range", "x"], 2)}


@pytest.mark.parametrize("command", sorted(subcommands()))
def test_rejected_command_leaves_no_out_dir(tmp_path, command):
    parser = subcommands()[command]
    inputs = [a for a in parser._actions if not a.option_strings]
    if inputs:
        argv = ([tmp_path / "missing" for _ in inputs]
                + TestUnreadableInputs.REQUIRED.get(command, []))
        expected = 3
    else:
        argv, expected = REJECTED[command]
    out = tmp_path / "out"
    assert run([command, *argv, "--out-dir", out]) == expected
    assert not out.exists()


def readme_exit_codes():
    """{class name: (exit code, stderr prefix)} from the README table."""
    table = {}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            for name in cells[2].split(","):
                table[name.strip(" `").rsplit(".", 1)[-1]] = (
                    int(cells[0]), cells[1].strip("`"))
    return table


@pytest.mark.parametrize("exc_type", [
    *(c for c in vars(curveband.errors).values()
      if isinstance(c, type) and c.__module__ == "curveband.errors"),
    OSError, np.linalg.LinAlgError], ids=lambda c: c.__name__)
def test_every_error_class_maps_to_its_readme_exit_code(
        tmp_path, capsys, monkeypatch, exc_type):
    def fail(*args):
        raise exc_type("injected")

    monkeypatch.setattr(curveband.cli, "random_curve", fail)
    code, prefix = readme_exit_codes()[exc_type.__name__]
    out = tmp_path / "out"
    assert run(["synth", "--out-dir", out]) == code
    err = capsys.readouterr().err
    assert err == f"{prefix} injected\n"
    assert not out.exists()
