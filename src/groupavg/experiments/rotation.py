"""Planar rotation-averaging demo on a fixed anisotropic scalar field.

Averages an analytic field over random subsets of a finite rotation
group and reports how close each subset average is to the full-group
average on a regular grid.  Rotated evaluations are analytic (the field
is queried at rotated points), so no interpolation error enters.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError, check_bytes

FIELD_DESCRIPTION = "exp(-((x-0.6)^2 + (y-0.1)^2)/0.08) + 0.4*x"
# A demo peaks near grid**2 * (72 + 8 * subsets) bytes: 72 for the full
# average and the rotated-field temporaries, 8 for each subset's average.
# Peak RSS growth over grid**2 read 74.5 with one subset and 122.8 with
# eight at grid 1600 (tracemalloc: 64.3 and 120.3).
_WORK_BYTES_PER_CELL = 72


def scalar_field(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fixed smooth anisotropic test field on the plane."""
    return np.exp(-((x - 0.6) ** 2 + (y - 0.1) ** 2) / 0.08) + 0.4 * x


@dataclass
class RotationDemoConfig:
    n_rotations: int = 100
    grid: int = 200  # resolution per axis on [-1, 1]^2
    subset_sizes: tuple[int, ...] = (1, 5, 100)
    seed: int = 0

    def __post_init__(self):
        if self.grid < 2:
            raise UsageError("grid resolution must be >= 2")
        if self.n_rotations < 1:
            raise UsageError("need at least one rotation")
        if any(m < 1 or m > self.n_rotations for m in self.subset_sizes):
            raise UsageError("subset sizes must lie in 1..n_rotations")
        if len(set(self.subset_sizes)) != len(self.subset_sizes):
            raise UsageError(f"subset sizes must be distinct, got {list(self.subset_sizes)}")
        per_cell = _WORK_BYTES_PER_CELL + 8 * len(self.subset_sizes)
        check_bytes(self.grid**2 * per_cell,
                    f"grid {self.grid:,} with {len(self.subset_sizes)} subsets needs", f"grid**2 * {per_cell}")


@dataclass
class RotationDemoResult:
    config: RotationDemoConfig
    xs: np.ndarray
    ys: np.ndarray
    grids: dict[int, np.ndarray]          # subset size -> averaged field
    full_average: np.ndarray
    rel_l2_to_full: dict[int, float]
    subset_angles: dict[int, np.ndarray] = field(default_factory=dict)


def averaged_field(xs: np.ndarray, ys: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Pointwise mean of the field over inverse rotations by the angles."""
    out = np.zeros((ys.size, xs.size))
    gx, gy = np.meshgrid(xs, ys)
    for theta in angles:
        c, s = np.cos(theta), np.sin(theta)
        # inverse rotation of the query point
        rx = c * gx + s * gy
        ry = -s * gx + c * gy
        out += scalar_field(rx, ry)
    return out / angles.size


def rotation_averaging_demo(cfg: RotationDemoConfig) -> RotationDemoResult:
    """Run the demo; subset draws are without replacement and sorted.

    Sorting makes the full-size draw ``arange(n)``, whose average is the
    full-group average bit for bit, so that subset reuses it; the draw is
    still made, to keep the random stream of later sizes.  Sorting also
    keeps per-seed output deterministic.
    """
    n = cfg.n_rotations
    all_angles = 2.0 * np.pi * np.arange(n) / n
    xs = np.linspace(-1.0, 1.0, cfg.grid)
    ys = np.linspace(-1.0, 1.0, cfg.grid)
    full = averaged_field(xs, ys, all_angles)
    full_norm = float(np.linalg.norm(full))
    rng = np.random.default_rng(cfg.seed)
    grids: dict[int, np.ndarray] = {}
    rel: dict[int, float] = {}
    chosen: dict[int, np.ndarray] = {}
    for m in cfg.subset_sizes:
        picks = np.sort(rng.choice(n, size=m, replace=False))
        angles = all_angles[picks]
        avg = full if m == n else averaged_field(xs, ys, angles)
        grids[m] = avg
        chosen[m] = angles
        rel[m] = float(np.linalg.norm(avg - full) / full_norm)
    return RotationDemoResult(
        config=cfg,
        xs=xs,
        ys=ys,
        grids=grids,
        full_average=full,
        rel_l2_to_full=rel,
        subset_angles=chosen,
    )


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """x,y,value rows in row-major grid order (y outer, x inner): the
    header, then one chunk per grid row.

    ``values[iy, ix]`` is the value at ``(xs[ix], ys[iy])``.  Every number
    is written with ``.17g``; each coordinate is formatted once, and each
    row is read through its own ``tolist``.
    """
    x_text = [f"{x:.17g}" for x in xs.tolist()]
    yield "x,y,value\n"
    for y, row in zip(ys.tolist(), values):
        y_text = f"{y:.17g}"
        yield "".join([f"{x},{y_text},{v:.17g}\n" for x, v in zip(x_text, row.tolist())])


def summary_json(result: RotationDemoResult) -> dict:
    return {
        "field": FIELD_DESCRIPTION,
        "n_rotations": result.config.n_rotations,
        "grid": result.config.grid,
        "seed": result.config.seed,
        "subset_sizes": [int(m) for m in result.config.subset_sizes],
        "rel_l2_to_full": {str(m): result.rel_l2_to_full[m] for m in result.config.subset_sizes},
    }
