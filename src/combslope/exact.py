"""Closed-form harmonic-measure oracles and a finite-difference Laplace oracle.

The strip and disk-arc values are exact; the grid oracle is an independent
brute-force check (5-point stencil, red-black successive over-relaxation,
Dirichlet data 1 on cells labeled one and 0 on cells labeled zero).  The
grid solver allocates private working memory per call, so concurrent use is
unrestricted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .geometry import BoundaryArc, mobius_to_zero

__all__ = [
    "GridProblem",
    "INTERIOR",
    "ONE",
    "ZERO",
    "EXTERIOR",
    "disk_arc_measure",
    "disk_problem",
    "grid_laplace_measure",
    "grid_problem_to_text",
    "load_grid_problem",
    "rectangle_problem",
    "solve_grid",
    "square_problem",
    "strip_problem",
    "strip_upper_measure",
]

_TWO_PI = 2.0 * math.pi

INTERIOR, ONE, ZERO, EXTERIOR = 0, 1, 2, 3
_CHAR_FOR = {INTERIOR: ".", ONE: "1", ZERO: "0", EXTERIOR: " "}
_LABEL_FOR = {v: k for k, v in _CHAR_FOR.items()}


def strip_upper_measure(dist_up: float, dist_down: float) -> float:
    """Harmonic measure of the upper strip edge at a point between the edges.

    For a horizontal strip and an interior point at distance ``dist_up``
    below the upper edge and ``dist_down`` above the lower edge the value is
    exactly ``dist_down / (dist_up + dist_down)``.
    """
    if not (dist_up > 0.0 and dist_down > 0.0):
        raise DomainError(f"strip distances must be positive, got {dist_up}, {dist_down}")
    return dist_down / (dist_up + dist_down)


def disk_arc_measure(z: complex, arc: BoundaryArc) -> float:
    """Harmonic measure of a boundary arc of the unit disk at ``z``.

    Computed by pulling ``z`` to the origin with a disk automorphism, where
    the measure is normalized arc length.
    """
    if abs(z) >= 1.0:
        raise DomainError(f"evaluation point must satisfy |z| < 1, got {abs(z)}")
    image = mobius_to_zero(z).apply_arc(arc)
    return image.central_angle / _TWO_PI


@dataclass(frozen=True)
class GridProblem:
    """Discrete Dirichlet problem on a cell grid.

    ``labels[i, j]`` classifies the cell with center ``origin + j*spacing +
    i*spacing*1j`` (row index grows upward) as interior unknown, boundary
    value one, boundary value zero, or exterior.  Every interior cell must
    have its four neighbors on the grid and not exterior; the evaluation
    point must fall in an interior cell.
    """

    labels: np.ndarray
    spacing: float
    eval_point: complex
    origin: complex = 0j

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int8)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 2:
            raise GridError("labels must be a 2-d array")
        if not self.spacing > 0.0:
            raise GridError(f"spacing must be positive, got {self.spacing}")
        interior = labels == INTERIOR
        if not interior.any():
            raise GridError("grid has no interior cells")
        padded = np.pad(labels, 1, constant_values=EXTERIOR)
        for di, dj in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
            bad = interior & (nb == EXTERIOR)
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise GridError(f"interior cell ({i}, {j}) touches an unlabeled boundary")
        ci, cj = self._cell_of(self.eval_point)
        if not (0 <= ci < labels.shape[0] and 0 <= cj < labels.shape[1]):
            raise GridError(f"evaluation point {self.eval_point} is off the grid")
        if labels[ci, cj] != INTERIOR:
            raise GridError(f"evaluation point {self.eval_point} is not strictly interior")

    def _cell_of(self, p: complex) -> tuple[int, int]:
        i = int(round((p.imag - self.origin.imag) / self.spacing))
        j = int(round((p.real - self.origin.real) / self.spacing))
        return i, j

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def cell_center(self, i: int, j: int) -> complex:
        return self.origin + complex(j * self.spacing, i * self.spacing)

    def value_at(self, field_values: np.ndarray, p: complex) -> float:
        """Bilinear interpolation of a solved field at an arbitrary point."""
        fi = (p.imag - self.origin.imag) / self.spacing
        fj = (p.real - self.origin.real) / self.spacing
        i0 = min(max(int(math.floor(fi)), 0), self.labels.shape[0] - 2)
        j0 = min(max(int(math.floor(fj)), 0), self.labels.shape[1] - 2)
        ti, tj = fi - i0, fj - j0
        corners = self.labels[i0 : i0 + 2, j0 : j0 + 2]
        if (corners == EXTERIOR).any():
            raise GridError(f"point {p} interpolates across exterior cells")
        v = field_values[i0 : i0 + 2, j0 : j0 + 2]
        return float(
            (1 - ti) * (1 - tj) * v[0, 0]
            + (1 - ti) * tj * v[0, 1]
            + ti * (1 - tj) * v[1, 0]
            + ti * tj * v[1, 1]
        )


_SOR_MAX_ITERATIONS = 500_000


def solve_grid(problem: GridProblem, tol: float = 1e-10) -> np.ndarray:
    """Solve the discrete Laplace problem; returns the full value field.

    Red-black SOR on the 5-point stencil with the optimal relaxation factor
    for the grid's shorter side, iterated until the maximum residual
    ``|mean(neighbors) - u|`` over interior cells drops below ``tol``.
    Deterministic for a given grid and tolerance.
    """
    labels = problem.labels
    u = np.zeros(labels.shape, dtype=np.float64)
    u[labels == ONE] = 1.0
    interior = labels == INTERIOR
    iy, ix = np.nonzero(interior)
    n = max(3, min(labels.shape))
    omega = 2.0 / (1.0 + math.sin(math.pi / n))
    parity = (iy + ix) % 2 == 0
    sweeps = [(iy[parity], ix[parity]), (iy[~parity], ix[~parity])]
    check_every = 32
    for it in range(_SOR_MAX_ITERATIONS):
        for sy, sx in sweeps:
            nb = 0.25 * (u[sy - 1, sx] + u[sy + 1, sx] + u[sy, sx - 1] + u[sy, sx + 1])
            u[sy, sx] += omega * (nb - u[sy, sx])
        if it % check_every == 0 or it == _SOR_MAX_ITERATIONS - 1:
            nb = 0.25 * (u[iy - 1, ix] + u[iy + 1, ix] + u[iy, ix - 1] + u[iy, ix + 1])
            if np.max(np.abs(nb - u[iy, ix])) < tol:
                return u
    raise ConvergenceError(
        f"SOR did not reach residual {tol} within {_SOR_MAX_ITERATIONS} iterations"
    )


def grid_laplace_measure(problem: GridProblem, tol: float = 1e-10) -> float:
    """Discrete harmonic interpolant at the evaluation point (in [0, 1])."""
    u = solve_grid(problem, tol=tol)
    return problem.value_at(u, problem.eval_point)


# ---------------------------------------------------------------------------
# builders


def strip_problem(
    dist_up: float,
    dist_down: float,
    rows: int = 100,
    cols: int | None = None,
    aspect: float = 40.0,
    eval_x: float = 0.0,
) -> GridProblem:
    """Truncated horizontal strip with the top edge labeled one.

    The walls sit on the outer cell-center rows, ``dist_up + dist_down``
    apart; the evaluation point sits ``dist_down`` above the bottom wall at
    abscissa ``eval_x`` (0 = horizontal center).  The truncated ends are
    labeled zero; with ``aspect`` >= 40 their influence at the center is
    below 1e-6 because harmonic measure decays exponentially along a strip.
    """
    if not (dist_up > 0.0 and dist_down > 0.0):
        raise DomainError("strip distances must be positive")
    height = dist_up + dist_down
    h = height / (rows - 1)
    if cols is None:
        cols = int(math.ceil(aspect * height / h)) + 1
    labels = np.full((rows, cols), INTERIOR, dtype=np.int8)
    labels[:, 0] = ZERO
    labels[:, -1] = ZERO
    labels[0, :] = ZERO
    labels[-1, :] = ONE
    origin = complex(-(cols - 1) / 2.0 * h, 0.0)
    return GridProblem(labels, h, complex(eval_x, dist_down), origin)


def square_problem(n: int, eval_point: complex, one_side: str = "top") -> GridProblem:
    """Unit square with exactly one side labeled one.

    Corner ownership is rotation-symmetric (each side owns one corner), so
    the four one-side problems sum to boundary data 1 everywhere.  Walls lie
    on the outer cell-center rows and columns; side length 1.
    """
    if n < 3:
        raise GridError("square grid needs n >= 3")
    labels = np.full((n, n), INTERIOR, dtype=np.int8)
    sides = {
        "top": [(n - 1, j) for j in range(1, n)],
        "left": [(i, 0) for i in range(1, n)],
        "bottom": [(0, j) for j in range(0, n - 1)],
        "right": [(i, n - 1) for i in range(0, n - 1)],
    }
    if one_side not in sides:
        raise GridError(f"unknown side {one_side!r}")
    for name, cells in sides.items():
        lbl = ONE if name == one_side else ZERO
        for i, j in cells:
            labels[i, j] = lbl
    h = 1.0 / (n - 1)
    return GridProblem(labels, h, eval_point, 0j)


def rectangle_problem(
    width: float,
    height: float,
    rows: int,
    eval_point: complex,
    one_side: str = "top",
    origin: complex = 0j,
) -> GridProblem:
    """Rectangle with one side labeled one; corners go to the top/bottom rows."""
    h = height / (rows - 1)
    cols = int(round(width / h)) + 1
    labels = np.full((rows, cols), INTERIOR, dtype=np.int8)
    for name, sl in (("left", (slice(None), 0)), ("right", (slice(None), -1))):
        labels[sl] = ONE if one_side == name else ZERO
    for name, sl in (("bottom", (0, slice(None))), ("top", (-1, slice(None)))):
        labels[sl] = ONE if one_side == name else ZERO
    return GridProblem(labels, h, eval_point, origin)


def disk_problem(n: int, eval_point: complex, pad: float = 1.1) -> GridProblem:
    """Unit disk with the upper semicircle labeled one, lower labeled zero.

    Cells with centers outside the open disk carry the Dirichlet data; ``n``
    should be even so no cell center sits exactly on the real axis.
    """
    if n % 2 != 0:
        raise GridError("disk grid needs an even cell count for a symmetric axis split")
    h = 2.0 * pad / n
    coords = -pad + h * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(coords, coords)
    labels = np.full((n, n), INTERIOR, dtype=np.int8)
    outside = X * X + Y * Y >= 1.0
    labels[outside & (Y > 0)] = ONE
    labels[outside & (Y < 0)] = ZERO
    origin = complex(coords[0], coords[0])
    return GridProblem(labels, h, eval_point, origin)


# ---------------------------------------------------------------------------
# plain-text grid files


def load_grid_problem(
    source: str | Path,
    spacing: float | None = None,
    eval_point: complex | None = None,
    origin: complex | None = None,
) -> GridProblem:
    """Load a grid problem from its plain-text form.

    The map is row-major with the first data line as the top row; cells are
    ``.`` interior, ``1`` boundary-one, ``0`` boundary-zero, and space for
    exterior padding.  Optional ``# key value...`` header lines carry
    ``spacing``, ``origin`` and ``eval`` (two floats); explicit arguments
    override headers.
    """
    text = source if isinstance(source, str) and "\n" in source else Path(source).read_text()
    meta: dict[str, object] = {}
    rows: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            parts = line[1:].split()
            if not parts:
                continue
            key, vals = parts[0], parts[1:]
            if key == "spacing":
                meta["spacing"] = float(vals[0])
            elif key == "origin":
                meta["origin"] = complex(float(vals[0]), float(vals[1]))
            elif key == "eval":
                meta["eval"] = complex(float(vals[0]), float(vals[1]))
            continue
        if line.strip() == "" and not rows:
            continue
        rows.append(line)
    while rows and rows[-1].strip() == "":
        rows.pop()
    if not rows:
        raise GridError("grid file has no map rows")
    width = max(len(r) for r in rows)
    grid = np.full((len(rows), width), EXTERIOR, dtype=np.int8)
    for i, row in enumerate(reversed(rows)):
        for j, ch in enumerate(row):
            if ch not in _LABEL_FOR:
                raise GridError(f"unknown grid character {ch!r}")
            grid[i, j] = _LABEL_FOR[ch]
    spacing = spacing if spacing is not None else float(meta.get("spacing", 1.0))
    if origin is None:
        origin = complex(meta.get("origin", 0j))
    ev = eval_point if eval_point is not None else meta.get("eval")
    if ev is None:
        raise GridError("grid file needs an evaluation point (header '# eval x y' or argument)")
    return GridProblem(grid, spacing, complex(ev), origin)


def grid_problem_to_text(problem: GridProblem) -> str:
    """Inverse of :func:`load_grid_problem`, headers included."""
    lines = [
        f"# spacing {problem.spacing!r}",
        f"# origin {problem.origin.real!r} {problem.origin.imag!r}",
        f"# eval {problem.eval_point.real!r} {problem.eval_point.imag!r}",
    ]
    for i in range(problem.labels.shape[0] - 1, -1, -1):
        lines.append("".join(_CHAR_FOR[int(c)] for c in problem.labels[i]))
    return "\n".join(lines) + "\n"
