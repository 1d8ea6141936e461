"""Point-to-box distance and norm for materialized (plain numpy) scoring.

Boxes are closed: boundary points count as inside.  The distance between a
point and a box is computed coordinate-wise with a piecewise rule that is
continuous across the boundary, bounded by 0.5 inside the box, and growing
linearly (slope ``w``) outside it:

    inside:   |p - c| / w
    outside:  |p - c| * w - kappa,    kappa = 0.5 * (w - 1) * (w - 1 / w)

where ``c = (lower + upper) / 2`` is the box center and ``w = upper - lower
+ 1`` is the box width (a degenerate box still has width 1, for which the
two branches coincide with plain ``|p - c|``).
"""

from __future__ import annotations

import numpy as np

VALID_NORM_ORDERS = (1, 2)


def check_norm_order(order: int) -> int:
    if order not in VALID_NORM_ORDERS:
        raise ValueError(f"norm order must be 1 or 2, got {order!r}")
    return int(order)


def piecewise_distance(points, lower, upper) -> np.ndarray:
    """Coordinate-wise point-to-box distance; broadcasts over leading axes."""
    points = np.asarray(points, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    center = 0.5 * (lower + upper)
    width = upper - lower + 1.0
    offset = np.abs(points - center)
    inside = (points >= lower) & (points <= upper)
    kappa = 0.5 * (width - 1.0) * (width - 1.0 / width)
    return np.where(inside, offset / width, offset * width - kappa)


def lx_norm(values: np.ndarray, order: int, axis: int = -1) -> np.ndarray:
    check_norm_order(order)
    values = np.asarray(values, dtype=np.float64)
    if order == 1:
        return np.sum(np.abs(values), axis=axis)
    return np.sqrt(np.sum(values * values, axis=axis))
