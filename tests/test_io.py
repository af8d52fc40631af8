import numpy as np
import pytest

from curveband import DataError, FrequencySupport, GrayImage, PointSet, random_curve
from curveband import io as cio
from curveband.denoise import DenoiseTrace, IrlsConfig
from curveband.experiments import curve_with_zero_set, disk_phantom


class TestCoefficientJson:
    def test_roundtrip(self, tmp_path):
        poly = random_curve(FrequencySupport(5, 3), 4)
        path = tmp_path / "c.json"
        cio.save_coefficients(poly, path)
        back = cio.load_coefficients(path)
        assert back.support.shape == (5, 3)
        assert back.hermitian
        assert np.array_equal(back.coeffs, poly.coeffs)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cio.load_coefficients(tmp_path / "absent.json")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k1": 3}')
        with pytest.raises(DataError):
            cio.load_coefficients(path)


class TestPointsCsv:
    def test_roundtrip(self, tmp_path):
        pts = PointSet(3, np.random.default_rng(0).uniform(0, 1, (3, 17)))
        path = tmp_path / "p.csv"
        cio.save_points(pts, path)
        back = cio.load_points(path)
        assert back.dim == 3
        assert np.abs(back.points - pts.points).max() <= 1e-15

    def test_dim_check(self, tmp_path):
        pts = PointSet(2, np.zeros((2, 4)))
        path = tmp_path / "p.csv"
        cio.save_points(pts, path)
        with pytest.raises(DataError):
            cio.load_points(path, dim=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cio.load_points(tmp_path / "absent.csv")


class TestPolylineFiles:
    def test_csv_roundtrip(self, tmp_path):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 5, 128)
        path = tmp_path / "c.csv"
        cio.save_polyline_csv(curve, path)
        back = cio.load_polyline_csv(path)
        assert len(back.components) == len(curve.components)
        assert np.abs(back.vertex_array() - curve.vertex_array()).max() <= 1e-12

    def test_svg_structure(self, tmp_path):
        _, curve = curve_with_zero_set(FrequencySupport(3, 3), 5, 128)
        path = tmp_path / "c.svg"
        cio.save_polyline_svg(curve, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 1 1"' in text
        assert "<path" in text

    def test_malformed_csv_line_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.1,0.2\n0,oops,0.3\n")
        with pytest.raises(DataError, match="line 2"):
            cio.load_polyline_csv(path)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = GrayImage(0.8 * disk_phantom(32, radius=0.25).pixels)
        path = tmp_path / "d.pgm"
        cio.save_pgm(img, path)
        back = cio.load_pgm(path)
        assert back.pixels.shape == (32, 32)
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 255 + 1e-12

    def test_header_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        data = bytes(range(256)) * 1
        header = b"P5\n# a comment\n16 16\n255\n"
        path.write_bytes(header + data)
        img = cio.load_pgm(path)
        assert img.pixels.shape == (16, 16)
        assert abs(img.pixels[15, 15] - 1.0) <= 1e-12

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n16 16\n255\n" + b"0" * 512)
        with pytest.raises(DataError):
            cio.load_pgm(path)

    def test_rejects_unterminated_comment(self, tmp_path):
        path = tmp_path / "u.pgm"
        path.write_bytes(b"P5\n# x")
        with pytest.raises(DataError, match="comment"):
            cio.load_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + b"\x00" * 100)
        with pytest.raises(DataError):
            cio.load_pgm(path)


class TestIrlsConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = IrlsConfig(lam=0.25, sigma=0.08, gamma0=0.5, eta=2.0,
                         max_iters=12, rel_tol=1e-4)
        path = tmp_path / "cfg.txt"
        cio.save_irls_config(cfg, path)
        back = cio.load_irls_config(path)
        assert back == cfg

    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lambda = 0.5\n# comment line\n\nmax_iters = 3\n")
        cfg = cio.load_irls_config(path)
        assert cfg.lam == 0.5
        assert cfg.max_iters == 3
        assert cfg.sigma == IrlsConfig().sigma

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lambda = 0.5\nsigma : 0.1\n")
        with pytest.raises(DataError, match="line 2"):
            cio.load_irls_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(DataError, match="line 1"):
            cio.load_irls_config(path)


class TestReports:
    def test_trace_csv(self, tmp_path):
        trace = DenoiseTrace(iterations=[1, 2], costs=[0.5, 0.4],
                             costs_before=[0.6, 0.5], gammas=[0.01, 0.005],
                             rel_changes=[0.1, 0.01])
        path = tmp_path / "trace.csv"
        cio.save_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,gamma,rel_change"
        assert len(lines) == 3

    def test_rank_report(self, tmp_path):
        path = tmp_path / "rank.csv"
        cio.save_rank_report([{"gamma": "11x11", "lambda": "5x5", "N": 220,
                               "measured_rank": 72, "bound": 72}], path)
        text = path.read_text()
        assert "gamma,lambda,N,measured_rank,bound" in text
        assert "11x11,5x5,220,72,72" in text

    def test_heatmap_svg(self, tmp_path):
        freq = np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        path = tmp_path / "h.svg"
        cio.save_heatmap_svg(freq, [3, 5], [10, 20, 30], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 6
        assert text.count("<polyline") == 2
