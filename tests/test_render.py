import numpy as np
import pytest

from rifslab import (AmbientBox, RenderSpec, UsageError, render_ppm,
                     unit_box)
from rifslab.render import _paint_ppm


def header_of(data: bytes) -> bytes:
    return data[:data.index(b"255\n") + 4]


def pixels_of(data: bytes, spec: RenderSpec) -> np.ndarray:
    body = data[data.index(b"255\n") + 4:]
    return np.frombuffer(body, dtype=np.uint8).reshape(
        spec.height, spec.width, 3)


def test_spec_validation():
    with pytest.raises(UsageError):
        RenderSpec(0, 4)
    with pytest.raises(UsageError):
        RenderSpec(4, 4, foreground=(0, 0))
    with pytest.raises(UsageError):
        RenderSpec(4, 4, background=(0, 0, 256))
    spec = RenderSpec(4, 2)
    assert spec.foreground == (0, 0, 0)
    assert spec.background == (255, 255, 255)


@pytest.mark.parametrize("args", [
    (1, 1, (254.7, 0, 0)), (1, 1, (0, 0, 0), (255.0, 255, 255)),
    (1, 1, (True, False, 0)), (1, 1, ("12", 0, 0)),
    (2.5, 1), (1, 2.0), (True, 1), ("4", 4),
])
def test_spec_rejects_non_integer_sizes_and_channels(args):
    # int() truncated or parsed these channels and bool passed as an int;
    # a str size raised TypeError on the size compare
    with pytest.raises(UsageError):
        RenderSpec(*args)


def test_spec_takes_numpy_integers():
    spec = RenderSpec(np.int64(3), np.uint8(2), (np.int32(7), 0, 255))
    assert (spec.width, spec.height, spec.foreground) == (3, 2, (7, 0, 255))
    assert type(spec.foreground[0]) is int


def test_single_center_point():
    spec = RenderSpec(3, 3)
    data = render_ppm(np.array([[0.5, 0.5]]), spec, unit_box(2))
    assert header_of(data) == b"P6\n3 3\n255\n"
    img = pixels_of(data, spec)
    dark = np.argwhere((img == 0).all(axis=2))
    assert dark.tolist() == [[1, 1]]


def test_vertical_axis_points_up():
    # larger y lands on an earlier (higher) pixel row
    spec = RenderSpec(1, 4)
    img = pixels_of(render_ppm(np.array([[0.5, 0.99]]), spec, unit_box(2)),
                    spec)
    assert (img[0, 0] == 0).all()
    img = pixels_of(render_ppm(np.array([[0.5, 0.01]]), spec, unit_box(2)),
                    spec)
    assert (img[3, 0] == 0).all()


def test_one_dimensional_points_use_row_zero():
    spec = RenderSpec(8, 3)
    img = pixels_of(render_ppm(np.array([[0.0], [0.99]]), spec, unit_box(1)),
                    spec)
    fg_rows = sorted(set(np.argwhere((img == 0).all(axis=2))[:, 0]))
    assert fg_rows == [0]
    assert (img[0, 0] == 0).all() and (img[0, 7] == 0).all()


def test_custom_colors_and_determinism():
    spec = RenderSpec(5, 5, foreground=(10, 20, 30),
                      background=(200, 100, 0))
    pts = np.array([[0.1, 0.1], [0.9, 0.9]])
    a = render_ppm(pts, spec, unit_box(2))
    b = render_ppm(pts, spec, unit_box(2))
    assert a == b
    img = pixels_of(a, spec)
    vals = {tuple(px) for px in img.reshape(-1, 3)}
    assert vals == {(10, 20, 30), (200, 100, 0)}


def test_points_clamped_to_edge_pixels():
    spec = RenderSpec(4, 4)
    box = AmbientBox((0.0, 0.0), (1.0, 1.0))
    img = pixels_of(render_ppm(np.array([[1.0, 0.0]]), spec, box), spec)
    assert (img[3, 3] == 0).all()


def test_render_input_checks():
    spec = RenderSpec(4, 4)
    with pytest.raises(UsageError, match="nothing to render"):
        render_ppm(np.zeros((0, 2)), spec, unit_box(2))
    with pytest.raises(UsageError):
        render_ppm(np.zeros((3, 1)), spec, unit_box(2))


def test_render_rejects_non_finite_points():
    # NaN and inf used to land on edge pixels through the int64 cast
    spec = RenderSpec(4, 4)
    bad = np.array([[np.nan, 0.5], [np.inf, 0.2]])
    with pytest.raises(UsageError, match="finite"):
        render_ppm(bad, spec, unit_box(2))


def test_streamed_painter_checks_every_chunk():
    spec = RenderSpec(4, 4)
    good = np.array([[0.5, 0.5]])
    bad = np.array([[0.2, 0.2], [np.inf, 0.2]])
    with pytest.raises(UsageError, match="finite"):
        _paint_ppm(iter((good, bad)), spec, unit_box(2))
    assert _paint_ppm(iter((good, good[:0])), spec, unit_box(2)) == \
        render_ppm(good, spec, unit_box(2))


def test_painter_holds_at_most_two_canvas_copies(traced_peak):
    # the canvas, its tobytes() copy and the header concatenation were
    # three copies at once; painting into the header's buffer leaves that
    # buffer and the bytes returned
    spec = RenderSpec(1000, 1000)
    canvas = 3 * spec.width * spec.height
    pts = np.array([[0.25, 0.75], [0.5, 0.5]])
    data, peak = traced_peak(lambda: render_ppm(pts, spec, unit_box(2)))
    assert len(data) == len(header_of(data)) + canvas
    assert isinstance(data, bytes)
    assert peak < 2.5 * canvas
