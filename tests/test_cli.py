import numpy as np
import pytest

from curveband import io as cio
from curveband import sample_curve
from curveband.cli import main
from curveband.experiments import (child_seed, disk_phantom,
                                   noisy_curve_samples, union_curve)


def run(args):
    return main([str(a) for a in args])


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

    def test_grid_below_16_exits_2(self, tmp_path):
        # criterion-3 samples: over-estimated support, sum-of-squares path
        _, truth, _, _ = union_curve(0, 512)
        pts_path = tmp_path / "union0.csv"
        cio.save_points(sample_curve(truth, 220, seed=child_seed(0, 1)),
                        pts_path)
        assert run(["recover", pts_path, "--gamma", "11x11", "--grid-res", 8,
                    "--out-dir", tmp_path / "rec"]) == 2

    def test_non_positive_rank_tol_exits_2(self, tmp_path, capsys):
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("0.25,0.1\n0.75,0.4\n0.25,0.7\n")
        assert run(["recover", pts_path, "--gamma", "3x3", "--rank-tol", 0,
                    "--grid-res", 64, "--out-dir", tmp_path / "rec"]) == 2
        assert "--rank-tol" in capsys.readouterr().err
        assert not (tmp_path / "rec" / "rank_report.csv").exists()


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

    def test_non_finite_config_exits_2(self, tmp_path, sample_points):
        _, noisy_path = sample_points
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("gamma0 = inf\n")
        assert run(["denoise", noisy_path, "--config", cfg,
                    "--out-dir", tmp_path]) == 2
        assert not (tmp_path / "denoised.csv").exists()


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

    def test_non_pgm_input_exits_3(self, tmp_path):
        bogus = tmp_path / "x.pgm"
        bogus.write_bytes(b"not an image")
        assert run(["segment", bogus, "--rank", 5]) == 3

    def test_unterminated_header_comment_exits_3(self, tmp_path):
        bogus = tmp_path / "u.pgm"
        bogus.write_bytes(b"P5\n# x")
        assert run(["segment", bogus, "--rank", 5]) == 3


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

    def test_non_finite_polyline_exits_3(self, tmp_path, capsys):
        good = tmp_path / "a.csv"
        good.write_text("0,0.1,0.2\n0,0.3,0.4\n0,0.2,0.6\n")
        bad = tmp_path / "b.csv"
        bad.write_text("0,0.1,0.2\n0,nan,0.4\n0,0.2,0.6\n")
        assert run(["eval", good, bad, "--kind", "curves",
                    "--out-dir", tmp_path / "ev"]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        assert run(["synth", "--support", "nonsense",
                    "--out-dir", tmp_path]) == 2
