"""File formats: coefficient JSON, point CSV, polyline CSV/SVG, binary PGM,
IRLS config files, and the CSV reports emitted by the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .curve_model import FrequencySupport, PointSet, Polyline, TrigPolynomial
from .denoise import DenoiseTrace, IrlsConfig
from .errors import DataError
from .segmentation import GrayImage

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
    try:
        payload = json.loads(Path(path).read_text())
        support = FrequencySupport(int(payload["k1"]), int(payload["k2"]))
        coeffs = np.array([complex(re, im) for re, im in payload["coeffs"]])
        return TrigPolynomial(support, coeffs,
                              hermitian=bool(payload["hermitian"]))
    except FileNotFoundError:
        raise DataError(f"coefficient file not found: {path}")
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed coefficient file {path}: {exc}")


# ---------------------------------------------------------------------------
# point CSV: one point per line, no header


def save_points(pts: PointSet, path) -> None:
    np.savetxt(path, pts.points.T, delimiter=",", fmt="%.17g")


def load_points(path, dim: int | None = None) -> PointSet:
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise DataError(f"point file not found: {path}")
    except ValueError as exc:
        raise DataError(f"malformed point file {path}: {exc}")
    if rows.size == 0:
        return PointSet.empty(dim or 2)
    if dim is not None and rows.shape[1] != dim:
        raise DataError(
            f"point file {path} has dimension {rows.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(rows)):
        raise DataError(f"point file {path} holds non-finite coordinates")
    return PointSet(rows.shape[1], rows.T)


# ---------------------------------------------------------------------------
# polyline CSV (component id, x1, x2) and SVG (1x1 viewBox)


def save_polyline_csv(curve: Polyline, path) -> None:
    lines = []
    for cid, comp in enumerate(curve.components):
        for v in comp:
            lines.append(f"{cid},{v[0]:.17g},{v[1]:.17g}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_polyline_csv(path) -> Polyline:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"polyline file not found: {path}")
    groups: dict[int, list] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            cid, x1, x2 = line.split(",")
            vertex = (float(x1), float(x2))
            if not np.all(np.isfinite(vertex)):
                raise ValueError("non-finite coordinates")
            groups.setdefault(int(cid), []).append(vertex)
        except ValueError as exc:
            raise DataError(f"malformed polyline file {path}, line {ln}: {exc}")
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
            d = "M " + " L ".join(f"{p[0]:.6f} {p[1]:.6f}" for p in run)
            paths.append(d)
    return paths


def save_polyline_svg(curve: Polyline, path,
                      points: PointSet | None = None) -> None:
    body = [f'<path d="{d}" fill="none" stroke="#c22" '
            'stroke-width="0.003"/>' for d in _svg_paths(curve)]
    if points is not None:
        body += [f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.005" fill="#26c"/>'
                 for x, y in points.points.T]
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">\n'
           + "\n".join(body) + "\n</svg>\n")
    Path(path).write_text(svg)


# ---------------------------------------------------------------------------
# binary PGM (P5, 8 bit)


def save_pgm(img: GrayImage, path) -> None:
    data = np.clip(np.round(img.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def load_pgm(path) -> GrayImage:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"image file not found: {path}")
    fields = []
    pos = 0
    while len(fields) < 4:
        if pos >= len(raw):
            raise DataError(f"truncated PGM header in {path}")
        if raw[pos:pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1
            if pos == 0:
                raise DataError(f"unterminated PGM header comment in {path}")
            continue
        if raw[pos:pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        fields.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise DataError(f"{path} is not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise DataError(f"malformed PGM header in {path}")
    if maxval <= 0 or maxval > 255:
        raise DataError(f"unsupported PGM maxval {maxval} in {path}")
    data = np.frombuffer(raw[pos:pos + width * height], dtype=np.uint8)
    if data.size != width * height:
        raise DataError(f"truncated PGM pixel data in {path}")
    return GrayImage(data.reshape(height, width).astype(float) / maxval)


# ---------------------------------------------------------------------------
# IRLS config: one `key = value` per line, (#) comments allowed

_CONFIG_KEYS = {
    "lambda": "lam",
    "lam": "lam",
    "sigma": "sigma",
    "gamma0": "gamma0",
    "eta": "eta",
    "max_iters": "max_iters",
    "rel_tol": "rel_tol",
}


def load_irls_config(path) -> IrlsConfig:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    kwargs = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"config {path}, line {ln}: expected `key = value`")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DataError(f"config {path}, line {ln}: unknown key `{key}`")
        field = _CONFIG_KEYS[key]
        try:
            kwargs[field] = int(value) if field == "max_iters" else float(value)
        except ValueError:
            raise DataError(
                f"config {path}, line {ln}: bad value `{value}` for `{key}`")
    return IrlsConfig(**kwargs)


def save_irls_config(cfg: IrlsConfig, path) -> None:
    Path(path).write_text(
        f"lambda = {cfg.lam:g}\nsigma = {cfg.sigma:g}\n"
        f"gamma0 = {cfg.gamma0:g}\neta = {cfg.eta:g}\n"
        f"max_iters = {cfg.max_iters}\nrel_tol = {cfg.rel_tol:g}\n")


# ---------------------------------------------------------------------------
# CSV reports


def save_trace_csv(trace: DenoiseTrace, path) -> None:
    lines = ["iter,cost,gamma,rel_change"]
    for it, cost, gamma, rel in zip(trace.iterations, trace.costs,
                                    trace.gammas, trace.rel_changes):
        lines.append(f"{it},{cost:.17g},{gamma:.17g},{rel:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_rank_report(rows: list[dict], path) -> None:
    lines = ["gamma,lambda,N,measured_rank,bound"]
    for r in rows:
        lines.append(f"{r['gamma']},{r.get('lambda', '')},{r['N']},"
                     f"{r['measured_rank']},{r.get('bound', '')}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_phase_csv(freq: np.ndarray, k_values, n_values, path) -> None:
    lines = ["k,N,frequency"]
    for i, k in enumerate(k_values):
        for j, n in enumerate(n_values):
            lines.append(f"{k},{n},{freq[i, j]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_heatmap_svg(freq: np.ndarray, k_values, n_values, path) -> None:
    """Grayscale success-frequency grid with the two guide curves overlaid:
    sample counts k*k (degrees of freedom, blue) and (2k)^2 (worst-case
    bound, red)."""
    cell = 10.0
    width = len(n_values) * cell
    height = len(k_values) * cell
    body = []
    for i in range(len(k_values)):
        for j in range(len(n_values)):
            shade = int(round(255 * freq[i, j]))
            body.append(
                f'<rect x="{j * cell:.1f}" y="{i * cell:.1f}" '
                f'width="{cell:.1f}" height="{cell:.1f}" '
                f'fill="rgb({shade},{shade},{shade})"/>')
    n_arr = np.asarray(n_values, dtype=float)

    def guide(values, color):
        pts = []
        for i, v in enumerate(values):
            j = float(np.interp(v, n_arr, np.arange(len(n_arr))))
            pts.append(f"{(j + 0.5) * cell:.2f},{(i + 0.5) * cell:.2f}")
        return (f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>')

    ks = np.asarray(k_values, dtype=float)
    body.append(guide(ks * ks, "#26c"))
    body.append(guide((2 * ks) ** 2, "#c22"))
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {width:.1f} {height:.1f}">\n'
           + "\n".join(body) + "\n</svg>\n")
    Path(path).write_text(svg)
