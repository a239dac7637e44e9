"""Deterministic binary PPM rasterization of point sets.

Pixels are addressed nearest-cell: a point at fractional position u along an
axis of W pixels lands in column floor(u * W), clamped to the edge.  The
vertical axis is flipped so the ambient box's largest y is row 0.  Points
from a one-dimensional ambient render on row 0.
"""

from __future__ import annotations

from ._lazy import np
from ._record import Record, record
from .errors import UsageError, check_int
from .geometry import AmbientBox

_BLACK = (0, 0, 0)
_WHITE = (255, 255, 255)


def _check_rgb(name: str, rgb) -> tuple[int, int, int]:
    vals = tuple(check_int(f"{name} channel", v) for v in rgb)
    if len(vals) != 3 or any(not (0 <= v <= 255) for v in vals):
        raise UsageError(f"{name} must be three channel values in 0..255")
    return vals


@record
class RenderSpec(Record):
    """Canvas size in pixels (whole numbers, at least 1x1) and the RGB
    triples, each channel 0..255, of painted and empty pixels.  A raster
    certifies nothing."""

    width: int
    height: int
    foreground: tuple[int, int, int] = _BLACK
    background: tuple[int, int, int] = _WHITE

    def __post_init__(self) -> None:
        if min(check_int("width", self.width),
               check_int("height", self.height)) < 1:
            raise UsageError("render resolution must be at least 1x1")
        object.__setattr__(self, "foreground",
                           _check_rgb("foreground", self.foreground))
        object.__setattr__(self, "background",
                           _check_rgb("background", self.background))


def render_ppm(points, spec: RenderSpec, ambient: AmbientBox) -> bytes:
    """Rasterize points over the ambient box into P6 bytes.

    The header is exactly "P6\\n<w> <h>\\n255\\n"; the payload is row-major
    RGB, so identical inputs give identical bytes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise UsageError("nothing to render")
    return bytes(_paint_ppm((pts,), spec, ambient))


def _paint_ppm(chunks, spec: RenderSpec,
               ambient: AmbientBox) -> bytearray:
    """render_ppm of the points of every chunk, painted one chunk at a time
    onto one canvas, as the bytearray that holds the header and the
    canvas: the canvas is a view of that buffer, so one canvas-sized copy
    is alive."""
    w, h = spec.width, spec.height
    lo = np.asarray(ambient.lo)
    hi = np.asarray(ambient.hi)
    span = hi - lo
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    ppm = bytearray(len(header) + h * w * 3)
    ppm[:len(header)] = header
    image = np.frombuffer(ppm, dtype=np.uint8,
                          offset=len(header)).reshape(h, w, 3)
    image[:, :] = spec.background
    for pts in chunks:
        if pts.shape[1] != ambient.dim:
            raise UsageError("points do not match the ambient dimension")
        if not np.isfinite(pts).all():
            raise UsageError("render points must be finite")
        u = (pts[:, 0] - lo[0]) / span[0]
        cols = np.clip(np.floor(u * w).astype(np.int64), 0, w - 1)
        if ambient.dim == 2:
            v = (hi[1] - pts[:, 1]) / span[1]
            rows = np.clip(np.floor(v * h).astype(np.int64), 0, h - 1)
        else:
            rows = np.zeros(pts.shape[0], dtype=np.int64)
        image[rows, cols] = spec.foreground
    return ppm
