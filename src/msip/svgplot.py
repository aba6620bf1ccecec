"""Deterministic SVG scatter plots of weighted 2-D configurations.

The target density is rasterized on a 200 x 200 grid into a grayscale PNG
embedded as a data URI; particles are drawn as circles colored on a
diverging blue-white-red scale centered at weight 0 so negative weights
are visibly distinct. All coordinates use fixed decimal formatting, so a
seeded run reproduces the file byte for byte.
"""

import base64
import struct
import zlib

import numpy as np

from .errors import UnsupportedDimensionError
from .metrics import normalize_weights

GRID = 200

_PLOT = {"x0": 50.0, "y0": 20.0, "size": 460.0}
_WIDTH = 640
_HEIGHT = 520

# Diverging endpoints (blue for negative, red for positive weights).
_BLUE = (33, 102, 172)
_WHITE = (247, 247, 247)
_RED = (178, 24, 43)


def _lerp(a, b, u):
    return tuple(round(x + (y - x) * u) for x, y in zip(a, b))


def _weight_color(u):
    """u in [-1, 1] -> diverging RGB centered at 0."""
    if u >= 0:
        return _lerp(_WHITE, _RED, min(u, 1.0))
    return _lerp(_WHITE, _BLUE, min(-u, 1.0))


def _rgb(c):
    return f"rgb({c[0]},{c[1]},{c[2]})"


def _png_gray(img):
    """Encode a (H, W) uint8 array as a grayscale PNG byte string."""

    def chunk(tag, data):
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    h, w = img.shape
    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )


def _density_png(t, lo, hi):
    """Rasterize exp(log-density) over [lo_x, hi_x] x [lo_y, hi_y]."""
    xs = np.linspace(lo[0], hi[0], GRID)
    ys = np.linspace(lo[1], hi[1], GRID)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    logp = t.log_density(pts).reshape(GRID, GRID)
    finite = np.isfinite(logp)
    if finite.any():
        dens = np.exp(logp - logp[finite].max())
        dens[~finite] = 0.0
    else:
        dens = np.zeros_like(logp)
    # row 0 must be the top of the image (largest y)
    gray = np.round(255.0 - 170.0 * dens[::-1]).astype(np.uint8)
    return _png_gray(gray)


def _data_bounds(Y):
    lo = Y.min(axis=0)
    hi = Y.max(axis=0)
    center = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0 * 1.2, 1.0)
    return center - half, center + half


def emit_scatter_svg(pc, t, path):
    """Write an SVG of the configuration over the target density.

    The plot shows the particles' bounding box scaled by 1.2. Only 2-D
    targets are supported (no projection heuristics).
    """
    Y = np.asarray(pc.Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != 2:
        raise UnsupportedDimensionError(
            f"scatter plots need d == 2 configurations, got shape {Y.shape}"
        )
    lo, hi = _data_bounds(Y)
    wn = normalize_weights(pc.w)
    wmax = float(np.abs(wn).max()) or 1.0

    x0, y0, size = _PLOT["x0"], _PLOT["y0"], _PLOT["size"]

    def sx(v):
        return x0 + (v - lo[0]) / (hi[0] - lo[0]) * size

    def sy(v):
        return y0 + (hi[1] - v) / (hi[1] - lo[1]) * size

    png = base64.b64encode(_density_png(t, lo, hi)).decode("ascii")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<image x="{x0:.2f}" y="{y0:.2f}" width="{size:.2f}" '
        f'height="{size:.2f}" preserveAspectRatio="none" '
        f'xlink:href="data:image/png;base64,{png}" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink"/>',
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{size:.2f}" '
        f'height="{size:.2f}" fill="none" stroke="black" '
        f'stroke-width="1"/>',
    ]
    for i in range(Y.shape[0]):
        px, py = sx(Y[i, 0]), sy(Y[i, 1])
        if not (np.isfinite(px) and np.isfinite(py)):
            continue
        color = _rgb(_weight_color(wn[i] / wmax))
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}" '
            f'stroke="black" stroke-width="0.5"/>'
        )
    # legend: diverging swatches at -max, 0, +max normalized weight
    lx = x0 + size + 16.0
    parts.append(
        f'<text x="{lx:.2f}" y="{y0 + 12:.2f}" font-size="12" '
        f'font-family="sans-serif">weight</text>'
    )
    for row, (u, label) in enumerate(
        [(1.0, f"{wmax:.3g}"), (0.0, "0"), (-1.0, f"{-wmax:.3g}")]
    ):
        cy = y0 + 34.0 + 22.0 * row
        parts.append(
            f'<circle cx="{lx + 6:.2f}" cy="{cy:.2f}" r="6" '
            f'fill="{_rgb(_weight_color(u))}" stroke="black" '
            f'stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{lx + 18:.2f}" y="{cy + 4:.2f}" font-size="11" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(data)
    return path
