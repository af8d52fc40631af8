import numpy as np
import pytest

from curveband import FrequencySupport, PointSet, random_curve
from curveband import io as cio
from curveband.curve_model import Polyline
from curveband.denoise import DenoiseTrace, IrlsConfig
from curveband.errors import DataError
from curveband.experiments import curve_with_zero_set, disk_phantom
from curveband.segmentation import GrayImage
from oracles import (save_heatmap_svg_reference, save_polyline_csv_reference,
                     save_polyline_svg_reference, svg_paths_reference)


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

    def test_coefficient_count_must_match_the_support(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"k1": 3, "k2": 3, "hermitian": false, "coeffs": '
                        + str([[1.0, 0.0]] * 8) + '}')
        with pytest.raises(DataError, match="expected 9 coefficients, got 8"):
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

    # the stated range is closed: 2^20 loads, the next float up does not
    def test_magnitude_bound_is_2_pow_20(self, tmp_path):
        path = tmp_path / "p.csv"
        bound = 2.0 ** 20
        cio.save_points(PointSet(2, np.array([[bound, 0.5], [-bound, 0.5]])),
                        path)
        assert np.array_equal(cio.load_points(path).points[:, 0],
                              [bound, -bound])
        cio.save_points(PointSet(2, np.array([[np.nextafter(bound, np.inf)],
                                              [0.5]])), path)
        with pytest.raises(DataError, match="2\\^20"):
            cio.load_points(path)

    def test_ragged_line_is_named(self, tmp_path):
        # the first line sets the width; numpy would name the third data row
        # and advise `usecols`
        path = tmp_path / "p.csv"
        path.write_text("0.1,0.2\n# note\n0.3,0.4\n\n0.5,0.6,0.7\n0.8,0.9\n")
        with pytest.raises(DataError, match="line 5 is not 2 numbers$"):
            cio.load_points(path)


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


@pytest.mark.parametrize("load", [
    cio.load_points, cio.load_polyline_csv, cio.load_pgm,
    cio.load_coefficients, cio.load_irls_config,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", ["directory", "non-utf8"])
def test_unreadable_input_is_data_error_naming_file(tmp_path, load, bad):
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe\x00 0,1\n")
    with pytest.raises(DataError) as info:
        load(path)
    assert str(path) in str(info.value)


# values on the %.17g / %.6f rounding edges
EDGE_VALUES = [-0.0, 1e-300, 0.1, 1 - 2**-53, 5e-7]


def writer_polylines():
    """Polylines the block writers must format byte for byte as the
    per-vertex reference writers do."""
    _, curve = curve_with_zero_set(FrequencySupport(3, 3), 5, 128)
    single = np.array([[0.3, 0.4]])
    # crosses the seam on axis 0 (0.95 -> 0.02), then on axis 1 (0.03 -> 0.97)
    seam = np.array([[0.95, 0.5], [0.02, 0.5], [0.03, 0.03], [0.04, 0.97],
                     [0.5, 0.6], [0.97, 0.55]])
    edge = np.array([EDGE_VALUES, EDGE_VALUES[::-1]]).T
    return {
        "components": Polyline(curve.components + [single, edge]),
        "empty": Polyline([]),
        "seam": Polyline([seam]),
        "edge-values": Polyline([edge, -edge]),
    }


class TestBlockWriters:
    @pytest.mark.parametrize("name", list(writer_polylines()))
    def test_polyline_csv_matches_reference(self, tmp_path, name):
        curve = writer_polylines()[name]
        cio.save_polyline_csv(curve, tmp_path / "new.csv")
        save_polyline_csv_reference(curve, tmp_path / "ref.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("name", list(writer_polylines()))
    @pytest.mark.parametrize("points", [
        None,
        PointSet(2, np.zeros((2, 0))),
        PointSet(2, np.array([EDGE_VALUES, EDGE_VALUES[::-1]])),
        PointSet(2, np.random.default_rng(3).uniform(0, 1, (2, 40))),
    ], ids=["no-points", "empty-points", "edge-points", "random-points"])
    def test_polyline_svg_matches_reference(self, tmp_path, name, points):
        curve = writer_polylines()[name]
        assert cio._svg_paths(curve) == svg_paths_reference(curve)
        cio.save_polyline_svg(curve, tmp_path / "new.svg", points=points)
        save_polyline_svg_reference(curve, tmp_path / "ref.svg",
                                    points=points)
        assert ((tmp_path / "new.svg").read_bytes()
                == (tmp_path / "ref.svg").read_bytes())

    def test_seam_splits_runs_on_both_axes(self):
        # two drawn runs; the lone first vertex before the axis-0 crossing
        # is dropped
        paths = cio._svg_paths(writer_polylines()["seam"])
        assert paths == ["M 0.020000 0.500000 L 0.030000 0.030000",
                         "M 0.040000 0.970000 L 0.500000 0.600000 "
                         "L 0.970000 0.550000 L 0.950000 0.500000"]

    @pytest.mark.parametrize("pts", [
        PointSet(2, np.random.default_rng(0).uniform(-1, 1, (2, 25))),
        PointSet(3, np.random.default_rng(1).uniform(-1, 1, (3, 25))),
        PointSet(2, np.array([EDGE_VALUES, EDGE_VALUES[::-1]])),
        PointSet(2, np.zeros((2, 0))),
        PointSet(3, np.zeros((3, 0))),
    ], ids=["dim2", "dim3", "edge-values", "empty-dim2", "empty-dim3"])
    def test_points_match_savetxt(self, tmp_path, pts):
        cio.save_points(pts, tmp_path / "new.csv")
        np.savetxt(tmp_path / "ref.csv", pts.points.T, fmt="%.17g",
                   delimiter=",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_roundtrip_bit_identical(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        values = rng.standard_normal((dim, 30)) * 10.0 ** rng.integers(
            -300, 300, (dim, 30))
        values[:, :len(EDGE_VALUES)] = EDGE_VALUES
        cio.save_points(PointSet(dim, values), tmp_path / "p.csv")
        # load_points takes magnitudes up to 2^20 only, so the whole range
        # of exponents is read back by the parser it uses
        back = np.loadtxt(tmp_path / "p.csv", delimiter=",", ndmin=2).T
        assert back.tobytes() == values.tobytes()
        in_range = values[:, np.abs(values).max(axis=0) <= 2.0 ** 20]
        assert in_range.shape[1] > len(EDGE_VALUES)
        cio.save_points(PointSet(dim, in_range), tmp_path / "q.csv")
        back = cio.load_points(tmp_path / "q.csv", dim=dim)
        assert back.points.tobytes() == in_range.tobytes()

    def test_polyline_roundtrip_bit_identical(self, tmp_path):
        curve = writer_polylines()["components"]
        edge = writer_polylines()["edge-values"]
        curve = Polyline(curve.components + edge.components)
        cio.save_polyline_csv(curve, tmp_path / "c.csv")
        back = cio.load_polyline_csv(tmp_path / "c.csv")
        assert len(back.components) == len(curve.components)
        for a, b in zip(back.components, curve.components):
            assert a.tobytes() == b.tobytes()


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = GrayImage(0.8 * disk_phantom(32, radius=0.25).pixels)
        path = tmp_path / "d.pgm"
        cio.save_pgm(img, path)
        back = cio.load_pgm(path)
        assert back.pixels.shape == (32, 32)
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 255 + 1e-12

    def test_pixels_within_rounding_of_the_range_write_0_and_255(self,
                                                                  tmp_path):
        # GrayImage clips what it accepts to [0, 1], so save_pgm needs no clip
        pixels = np.full((16, 16), 0.5)
        pixels[0, :2] = -1e-10, 1 + 1e-10
        cio.save_pgm(GrayImage(pixels), tmp_path / "e.pgm")
        data = (tmp_path / "e.pgm").read_bytes()[-256:]
        assert (data[0], data[1], data[2]) == (0, 255, 128)

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

    # a well-formed file whose image GrayImage rejects is a data error too
    @pytest.mark.parametrize("header, pixel, match", [
        pytest.param(b"P5\n10 10\n255\n", 0, "at least 16", id="10x10"),
        pytest.param(b"P5\n20 20\n100\n", 200, r"\[0, 1\]",
                     id="above-maxval"),
    ])
    def test_rejected_image_is_data_error(self, tmp_path, header, pixel,
                                          match):
        path = tmp_path / "r.pgm"
        n = int(header.split()[1])
        path.write_bytes(header + bytes([pixel]) * (n * n))
        with pytest.raises(DataError, match=match) as info:
            cio.load_pgm(path)
        assert "r.pgm" in str(info.value)


    # each header is followed by 16 * 16 pixels of value 128
    @pytest.mark.parametrize("header", [
        pytest.param(b"P5\n16 16\n255\n", id="plain"),
        pytest.param(b"# made by hand\n P5\n16 16\n255\n",
                     id="leading-comment"),
        pytest.param(b"P5 16#c\n16 255\n", id="comment-after-field"),
        pytest.param(b"P5#c\n16\n# c\n\n16\n255\n", id="comment-lines"),
        pytest.param(b"P5\t0016\r16\x0b255\x0c", id="other-whitespace"),
    ])
    def test_accepted_header(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes([128]) * 256)
        img = cio.load_pgm(path)
        assert img.pixels.shape == (16, 16)
        assert np.all(img.pixels == 128 / 255)

    @pytest.mark.parametrize("header, match", [
        pytest.param(b"P5\n-16 -16\n255\n", "header", id="negative-size"),
        pytest.param(b"P5\n+16 16\n255\n", "header", id="plus-sign"),
        pytest.param(b"P5\n1_6 16\n255\n", "header", id="underscore"),
        pytest.param(b"P5\n16 16\n0\n", "maxval 0", id="maxval-0"),
        pytest.param(b"P5\n16 16\n256\n", "maxval 256", id="maxval-256"),
        pytest.param(b"P5\n16 16\n255", "header", id="no-byte-after-maxval"),
        pytest.param(b"P5\n16 16\n255#c\n", "header",
                     id="comment-after-maxval"),
        pytest.param(b"P516 16 255\n", "header", id="no-space-after-p5"),
    ])
    def test_rejected_header_names_file(self, tmp_path, header, match):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes([128]) * 256)
        with pytest.raises(DataError, match=match) as info:
            cio.load_pgm(path)
        assert str(path) in str(info.value)


class TestIrlsConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = IrlsConfig(lam=0.25, sigma=0.08, gamma0=0.5, eta=2.0,
                         max_iters=12, rel_tol=1e-4)
        path = tmp_path / "cfg.txt"
        path.write_text("lambda = 0.25\nsigma = 0.08\ngamma0 = 0.5\n"
                        "eta = 2\nmax_iters = 12\nrel_tol = 0.0001\n")
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

    def test_metrics(self, tmp_path):
        path = tmp_path / "m.csv"
        cio.save_metrics({"iterations": 4, "snr_db": float("inf"),
                          "mse": 0.1, "note": "x"}, path)
        assert path.read_text() == ("metric,value\niterations,4\n"
                                    "snr_db,inf\nmse,0.10000000000000001\n"
                                    "note,x\n")

    def test_trace_csv_edge_values(self, tmp_path):
        m = len(EDGE_VALUES)
        trace = DenoiseTrace(iterations=list(range(1, m + 1)),
                             costs=EDGE_VALUES, costs_before=[0.0] * m,
                             gammas=EDGE_VALUES[::-1],
                             rel_changes=[float("inf")] * m)
        cio.save_trace_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == "".join(
            ["iter,cost,gamma,rel_change\n"] + [
                f"{it},{c:.17g},{g:.17g},inf\n"
                for it, c, g in zip(trace.iterations, EDGE_VALUES,
                                    EDGE_VALUES[::-1])])

    def test_rank_report_without_inner(self, tmp_path):
        path = tmp_path / "rank.csv"
        cio.save_rank_report([{"gamma": "7x7", "N": 150,
                               "measured_rank": np.int64(24)}], path)
        assert path.read_text() == ("gamma,lambda,N,measured_rank,bound\n"
                                    "7x7,,150,24,\n")

    def test_heatmap_svg(self, tmp_path):
        freq = np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 1.0]])
        path = tmp_path / "h.svg"
        cio.save_heatmap_svg(freq, [3, 5], [10, 20, 30], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 6
        assert text.count("<polyline") == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_heatmap_svg_matches_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        k_values = sorted(rng.choice(np.arange(2, 20), 1 + seed % 4,
                                     replace=False).tolist())
        n_values = sorted(rng.choice(np.arange(1, 400), 2 + seed,
                                     replace=False).tolist())
        shape = (len(k_values), len(n_values))
        # half-odd multiples of 1/255 land on round()'s ties
        freq = (rng.uniform(0, 1, shape) if seed % 2
                else rng.integers(0, 255, shape) / 255 + 0.5 / 255)
        cio.save_heatmap_svg(freq, k_values, n_values, tmp_path / "new.svg")
        save_heatmap_svg_reference(freq, k_values, n_values,
                                   tmp_path / "ref.svg")
        assert ((tmp_path / "new.svg").read_bytes()
                == (tmp_path / "ref.svg").read_bytes())


@pytest.mark.parametrize("load, text", [
    pytest.param(cio.load_points, "", id="points-empty"),
    pytest.param(cio.load_points, "# comment only\n", id="points-comment"),
    pytest.param(cio.load_polyline_csv, "", id="polyline-empty"),
    pytest.param(cio.load_polyline_csv, "\n  \n", id="polyline-blank"),
])
def test_input_without_data_is_data_error_naming_file(tmp_path, load, text):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load(path)
    assert str(path) in str(info.value)


# The three text readers share one data-line rule: `#` starts a comment and
# blank lines are skipped, while line numbers count every line of the file.
TEXT_READERS = {
    "points": (cio.load_points, ["0.25,0.5", "0.75,0.125"],
               lambda pts: pts.points.tolist()),
    "polyline": (cio.load_polyline_csv,
                 ["0,0.25,0.5", "0,0.75,0.125", "1,0.5,0.5"],
                 lambda curve: [c.tolist() for c in curve.components]),
    "config": (cio.load_irls_config, ["lambda = 0.5", "max_iters = 3"],
               lambda cfg: cfg),
}


@pytest.mark.parametrize("name", TEXT_READERS)
def test_comments_and_blank_lines_read_as_the_plain_file(tmp_path, name):
    load, lines, value = TEXT_READERS[name]
    plain, commented = tmp_path / "plain", tmp_path / "commented"
    plain.write_text("\n".join(lines) + "\n")
    commented.write_text("# leading comment\n   \n"
                         + "".join(f"{line}  # note {i}\n"
                                   for i, line in enumerate(lines)))
    assert value(load(commented)) == value(load(plain))


@pytest.mark.parametrize("load, bad", [
    (cio.load_polyline_csv, "0,oops,0.3"),
    (cio.load_irls_config, "bogus = 1"),
    (cio.load_points, "0.3,oops"),
], ids=["polyline", "config", "points"])
def test_error_line_counts_comment_and_blank_lines(tmp_path, load, bad):
    path = tmp_path / "input"
    path.write_text(f"# header\n\n   \n{bad}\n")
    with pytest.raises(DataError, match="line 4"):
        load(path)
