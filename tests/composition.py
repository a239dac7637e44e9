"""Explicit map compositions with product Lipschitz bounds: a test oracle.

Covers never build these; the tests check cylinder boxes, points and ratio
products against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rifslab import ContractionMap, UsageError


@dataclass(frozen=True)
class MapComposition:
    """Ordered composition; factors apply right to left, as written."""

    factors: tuple[ContractionMap, ...]
    lip_lo_bound: float
    lip_hi_bound: float

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        for m in reversed(self.factors):
            pts = m.apply_array(pts)
        return pts

    def image_box_array(self, boxes: np.ndarray) -> np.ndarray:
        for m in reversed(self.factors):
            boxes = m.image_box_array(boxes)
        return boxes


def compose(maps) -> MapComposition:
    """Compose maps left-to-right-outermost, multiplying the Lip bounds.

    Lip+ is submultiplicative and Lip- is supermultiplicative, so the products
    bound the composite from the correct sides.
    """
    maps = tuple(maps)
    if not maps:
        raise UsageError("cannot compose an empty list of maps")
    dims = {m.dim for m in maps}
    if len(dims) != 1:
        raise UsageError("cannot compose maps of different dimensions")
    lo = 1.0
    hi = 1.0
    for m in maps:
        lo *= m.lip_lo
        hi *= m.lip_hi
    return MapComposition(maps, lo, hi)
