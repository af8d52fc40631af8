"""File formats: coefficient JSON, point CSV, polyline CSV/SVG, binary PGM,
IRLS config files, and the CSV reports emitted by the CLI."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from .curve_model import FrequencySupport, PointSet, Polyline, TrigPolynomial
from .denoise import DenoiseTrace, IrlsConfig
from .errors import ContractViolation, DataError
from .segmentation import GrayImage


def _read(path, kind: str, binary: bool = False):
    """The text (or bytes) of an input file; any failure to read or decode it
    is a DataError that names the file."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"{kind} file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}")


def _data_lines(path, kind: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of a text input that holds
    data: `#` starts a comment, and blank lines are skipped."""
    lines = enumerate(_read(path, kind).splitlines(), start=1)
    return [(ln, text) for ln, line in lines
            if (text := line.split("#", 1)[0].strip())]


def _format_rows(row_fmt: str, table: np.ndarray) -> str:
    """Every row of a 2-D table through one %-format, in one C-level call."""
    return (row_fmt * len(table)) % tuple(table.ravel().tolist())


# ---------------------------------------------------------------------------
# coefficient JSON


def save_coefficients(poly: TrigPolynomial, path) -> None:
    payload = {
        "k1": poly.support.k1,
        "k2": poly.support.k2,
        "hermitian": bool(poly.hermitian),
        "coeffs": [[float(c.real), float(c.imag)] for c in poly.coeffs],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_coefficients(path) -> TrigPolynomial:
    text = _read(path, "coefficient")
    try:
        payload = json.loads(text)
        support = FrequencySupport(int(payload["k1"]), int(payload["k2"]))
        coeffs = np.array([complex(re, im) for re, im in payload["coeffs"]])
        return TrigPolynomial(support, coeffs,
                              hermitian=bool(payload["hermitian"]))
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed coefficient file {path}: {exc}")


# ---------------------------------------------------------------------------
# point CSV: one point per line, no header


def save_points(pts: PointSet, path) -> None:
    row_fmt = ",".join(["%.17g"] * pts.dim) + "\n"
    Path(path).write_text(_format_rows(row_fmt, pts.points.T))


def load_points(path, dim: int | None = None) -> PointSet:
    lines = _data_lines(path, "point")
    if not lines:
        raise DataError(f"point file {path} holds no points")
    try:
        rows = np.loadtxt([text for _, text in lines], delimiter=",", ndmin=2)
    except ValueError as exc:
        for ln, text in lines:  # numpy counts data rows, not file lines
            try:  # each line must parse, and to as many values as the first
                np.loadtxt([lines[0][1], text], delimiter=",")
            except ValueError:
                exc = f"line {ln} is not {lines[0][1].count(',') + 1} numbers"
                break
        raise DataError(f"malformed point file {path}: {exc}")
    if dim is not None and rows.shape[1] != dim:
        raise DataError(
            f"point file {path} has dimension {rows.shape[1]}, expected {dim}")
    if not np.all(np.abs(rows) <= 2.0 ** 20):  # nan fails too
        raise DataError(f"point file {path} holds non-finite coordinates "
                        f"or ones of magnitude over 2^20")
    return PointSet(rows.shape[1], rows.T)


# ---------------------------------------------------------------------------
# polyline CSV (component id, x1, x2) and SVG (1x1 viewBox)


def save_polyline_csv(curve: Polyline, path) -> None:
    Path(path).write_text("".join(
        _format_rows(f"{cid},%.17g,%.17g\n", comp)
        for cid, comp in enumerate(curve.components)))


def load_polyline_csv(path) -> Polyline:
    groups: dict[int, list] = {}
    for ln, line in _data_lines(path, "polyline"):
        try:
            cid, x1, x2 = line.split(",")
            vertex = (float(x1), float(x2))
            if not np.all(np.isfinite(vertex)):
                raise ValueError("non-finite coordinates")
            groups.setdefault(int(cid), []).append(vertex)
        except ValueError as exc:
            raise DataError(f"malformed polyline file {path}, line {ln}: {exc}")
    if not groups:
        raise DataError(f"polyline file {path} holds no vertices")
    return Polyline([np.array(groups[cid]) for cid in sorted(groups)])


def _svg_paths(curve: Polyline) -> list[str]:
    """Path strings; components are split where they cross the domain seam."""
    paths = []
    for v in curve.components:
        if v.shape[0] >= 2:
            v = np.vstack([v, v[:1]])
        seam = np.any(np.abs(np.diff(v, axis=0)) > 0.5, axis=1)  # seam crossing
        for run in np.split(v, np.flatnonzero(seam) + 1):
            if len(run) < 2:
                continue
            paths.append("M " + _format_rows("%.6f %.6f L ", run)[:-len(" L ")])
    return paths


def save_polyline_svg(curve: Polyline, path,
                      points: PointSet | None = None) -> None:
    rows = [f'<path d="{d}" fill="none" stroke="#c22" '
            'stroke-width="0.003"/>\n' for d in _svg_paths(curve)]
    if points is not None:
        rows.append(_format_rows(
            '<circle cx="%.6f" cy="%.6f" r="0.005" fill="#26c"/>\n',
            points.points.T))
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">\n'
           + ("".join(rows) or "\n") + "</svg>\n")  # empty: one blank line
    Path(path).write_text(svg)


# ---------------------------------------------------------------------------
# binary PGM (P5, 8 bit)


def save_pgm(img: GrayImage, path) -> None:
    data = np.round(img.pixels * 255.0).astype(np.uint8)  # pixels in [0, 1]
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


# `P5`, then width, height and maxval as unsigned decimals, each after
# whitespace or `#` comments that run to the end of the line, then one
# whitespace byte; whitespace and comments may also precede `P5`
_PGM_SEP = rb"(?:\s|#[^\n]*\n)"
_PGM_HEADER = re.compile(
    _PGM_SEP + rb"*P5" + (_PGM_SEP + rb"+(\d+)") * 3 + rb"\s")


def load_pgm(path) -> GrayImage:
    raw = _read(path, "image", binary=True)
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise DataError(
            f"malformed PGM header in {path}: expected P5, then width, height "
            "and maxval as unsigned decimals separated by whitespace or "
            "# comments ended by a newline, then one whitespace byte")
    width, height, maxval = (int(f) for f in header.groups())
    pos = header.end()
    if not 0 < maxval <= 255:
        raise DataError(f"unsupported PGM maxval {maxval} in {path}")
    data = np.frombuffer(raw[pos:pos + width * height], dtype=np.uint8)
    if data.size != width * height:
        raise DataError(f"truncated PGM pixel data in {path}")
    try:
        return GrayImage(data.reshape(height, width).astype(float) / maxval)
    except ContractViolation as exc:
        raise DataError(f"image {path}: {exc}")


# ---------------------------------------------------------------------------
# IRLS config: one `key = value` per line, (#) comments allowed. The keys
# are the IrlsConfig fields, each parsed by the type of its default, and
# `lambda` for `lam`.


def load_irls_config(path) -> IrlsConfig:
    parsers = {f.name: type(f.default) for f in dataclasses.fields(IrlsConfig)}
    kwargs = {}
    for ln, stripped in _data_lines(path, "config"):
        if "=" not in stripped:
            raise DataError(f"config {path}, line {ln}: expected `key = value`")
        key, value = (part.strip() for part in stripped.split("=", 1))
        name = "lam" if key == "lambda" else key
        if name not in parsers:
            raise DataError(f"config {path}, line {ln}: unknown key `{key}`")
        try:
            kwargs[name] = parsers[name](value)
        except ValueError:
            raise DataError(
                f"config {path}, line {ln}: bad value `{value}` for `{key}`")
    try:
        return IrlsConfig(**kwargs)
    except ContractViolation as exc:
        raise DataError(f"config {path}: {exc}")


# ---------------------------------------------------------------------------
# CSV reports


def _save_report(path, header: str, rows) -> None:
    """The header line, then one line per row: numbers as %.17g, strings as
    they are."""
    lines = [header] + [",".join(c if isinstance(c, str) else "%.17g" % c
                                 for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def save_metrics(metrics: dict, path) -> None:
    """`metric,value` rows in the dict's order."""
    _save_report(path, "metric,value", metrics.items())


def save_trace_csv(trace: DenoiseTrace, path) -> None:
    _save_report(path, "iter,cost,gamma,rel_change",
                 zip(trace.iterations, trace.costs, trace.gammas,
                     trace.rel_changes))


def save_rank_report(rows: list[dict], path) -> None:
    cols = ("gamma", "lambda", "N", "measured_rank", "bound")
    _save_report(path, ",".join(cols),
                 ([r.get(c, "") for c in cols] for r in rows))


def save_phase_csv(freq: np.ndarray, k_values, n_values, path) -> None:
    _save_report(path, "k,N,frequency",
                 ((k, n, freq[i, j]) for i, k in enumerate(k_values)
                  for j, n in enumerate(n_values)))


def save_heatmap_svg(freq: np.ndarray, k_values, n_values, path) -> None:
    """Grayscale success-frequency grid with the two guide curves overlaid:
    sample counts k*k (degrees of freedom, blue) and (2k)^2 (worst-case
    bound, red). A guide point outside [n_values[0], n_values[-1]] has no
    column and is left out."""
    cell = 10.0
    width = len(n_values) * cell
    height = len(k_values) * cell
    rows, cols = np.indices(freq.shape)
    shade = np.rint(255 * freq)
    cells = np.stack([cols * cell, rows * cell, shade, shade, shade], axis=-1)
    rects = _format_rows(
        f'<rect x="%.1f" y="%.1f" width="{cell:.1f}" height="{cell:.1f}" '
        'fill="rgb(%d,%d,%d)"/>\n', cells.reshape(-1, 5))
    n_arr = np.asarray(n_values, dtype=float)

    def guide(values, color):
        j = np.interp(values, n_arr, np.arange(len(n_arr)),
                      left=np.nan, right=np.nan)
        xy = (np.column_stack([j, np.arange(len(values))]) + 0.5) * cell
        xy = xy[~np.isnan(j)]
        return (f'<polyline points="{_format_rows("%.2f,%.2f ", xy)[:-1]}" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>\n')

    ks = np.asarray(k_values, dtype=float)
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
           + rects + guide(ks * ks, "#26c") + guide((2 * ks) ** 2, "#c22")
           + "</svg>\n")
    Path(path).write_text(svg)
