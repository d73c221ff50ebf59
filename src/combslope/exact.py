"""Closed-form harmonic-measure oracles and a finite-difference Laplace oracle.

The strip, two-tooth and disk-arc values are exact; the grid oracle is an
independent brute-force check (5-point stencil, Dirichlet data 1 on cells
labeled one and 0 on cells labeled zero).  Grid problems are built from a
labels array, directly or by the strip, square and rectangle builders below.

The grid oracle solves box problems only: every inner cell (all but the
outer ring) interior and every ring cell labeled one or zero.  There the
5-point system is separable, and a discrete sine transform (DST-I) along
both axes diagonalises it, so it is solved directly (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970).  Each DST-I is the real FFT of the
odd extension of a line, taken in batches of lines with a small scratch
buffer, so the solve works in place on the field.  It allocates private
working memory per call, so concurrent use is unrestricted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GridError
from .geometry import BoundaryArc, mobius_to_zero, require_finite

__all__ = [
    "GridProblem",
    "INTERIOR",
    "ONE",
    "ZERO",
    "disk_arc_measure",
    "grid_laplace_measure",
    "pseudo_strip_upper_measure",
    "rectangle_problem",
    "solve_grid",
    "square_problem",
    "strip_problem",
    "strip_upper_measure",
]

_TWO_PI = 2.0 * math.pi

INTERIOR, ONE, ZERO = 0, 1, 2


def strip_upper_measure(dist_up: float, dist_down: float) -> float:
    """Harmonic measure of the upper strip edge at a point between the edges.

    For a horizontal strip and an interior point at distance ``dist_up``
    below the upper edge and ``dist_down`` above the lower edge the value is
    exactly ``dist_down / (dist_up + dist_down)``.
    """
    if not (dist_up > 0.0 and dist_down > 0.0):
        raise DomainError(f"strip distances must be positive, got {dist_up}, {dist_down}")
    return dist_down / (dist_up + dist_down)


_NEWTON_STEPS = 50


def pseudo_strip_upper_measure(
    dist_up: float, dist_down: float, width: float, z: complex
) -> float:
    """Harmonic measure of the upper tooth of ``pseudo_strip(up, down, width)`` at ``z``.

    The Schwarz-Christoffel map ``f(w) = -(H/pi)(w^2/2 - log w)``, with
    ``H = up + down``, sends the upper half-plane onto the plane minus two
    leftward half-lines at heights 0 and H with tips at ``Re = -H/(2 pi)``;
    the negative real axis goes onto the upper one.  So the measure is
    ``arg f^-1(z') / pi`` with ``z' = z - width/2 - H/(2 pi) + i down``.
    Newton's method inverts ``f`` from the channel asymptote
    ``w0 = exp(pi z' / H)`` (Driscoll & Trefethen, *Schwarz-Christoffel
    Mapping*, 2002).  It stops when the step falls below 1e-15 of ``|w|``
    or the residual ``|f(w) - z'|`` within 4 ulps of ``max(|z'|, H/pi)``,
    whichever comes first.
    """
    if not (dist_up > 0.0 and dist_down > 0.0 and width > 0.0):
        raise DomainError(
            f"pseudo-strip needs positive distances and width, got {dist_up}, {dist_down}, {width}"
        )
    require_finite(z)
    h = dist_up + dist_down
    target = z - width / 2.0 - h / _TWO_PI + 1j * dist_down
    c = -h / math.pi
    w = cmath.exp(math.pi * target / h)
    # |f(w) - target| cannot fall much below the rounding of its terms, so
    # the residual test stops where a small w keeps the step test from it
    attainable = 4.0 * math.ulp(1.0) * max(abs(target), abs(c))
    for _ in range(_NEWTON_STEPS):
        residual = c * (w * w / 2.0 - cmath.log(w)) - target
        if abs(residual) <= attainable:
            break
        step = residual / (c * (w - 1.0 / w))
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    else:
        raise ConvergenceError(f"Newton did not invert the two-tooth map at {z}")
    if not w.imag > 0.0:
        raise DomainError(f"{z} is not interior to pseudo_strip({dist_up}, {dist_down}, {width})")
    return cmath.phase(w) / math.pi


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
    """Discrete Dirichlet problem on a box of cells.

    ``labels[i, j]`` classifies the cell with center ``origin + j*spacing +
    i*spacing*1j`` (row index grows upward) as interior unknown, boundary
    value one or boundary value zero.  Every inner cell must be interior
    and every cell of the outer ring one or zero; the evaluation point must
    fall in an interior cell.
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
        rows, cols = labels.shape
        if rows < 3 or cols < 3:
            raise GridError(f"a {rows}x{cols} grid has no interior cells")
        masked = labels[1:-1, 1:-1] != INTERIOR
        if masked.any():
            i, j = np.argwhere(masked)[0] + 1
            raise GridError(f"inner cell ({i}, {j}) is not interior: only box grids are solved")
        ring = np.concatenate((labels[0], labels[-1], labels[1:-1, 0], labels[1:-1, -1]))
        if not ((ring == ONE) | (ring == ZERO)).all():
            raise GridError("every cell of the outer ring must be labeled one or zero")
        ci = int(round((self.eval_point.imag - self.origin.imag) / self.spacing))
        cj = int(round((self.eval_point.real - self.origin.real) / self.spacing))
        if not (0 <= ci < rows and 0 <= cj < cols):
            raise GridError(f"evaluation point {self.eval_point} is off the grid")
        if labels[ci, cj] != INTERIOR:
            raise GridError(f"evaluation point {self.eval_point} is not strictly interior")

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def value_at(self, field_values: np.ndarray, p: complex) -> float:
        """Bilinear interpolation of a solved field inside the rectangle of cell centers."""
        fi = (p.imag - self.origin.imag) / self.spacing
        fj = (p.real - self.origin.real) / self.spacing
        rows, cols = self.labels.shape
        if not (0.0 <= fi <= rows - 1 and 0.0 <= fj <= cols - 1):
            raise GridError(f"point {p} lies outside the rectangle of cell centers")
        i0, j0 = min(int(fi), rows - 2), min(int(fj), cols - 2)
        ti, tj = fi - i0, fj - j0
        v = field_values[i0 : i0 + 2, j0 : j0 + 2]
        return float(
            (1 - ti) * (1 - tj) * v[0, 0]
            + (1 - ti) * tj * v[0, 1]
            + ti * (1 - tj) * v[1, 0]
            + ti * tj * v[1, 1]
        )


# scratch per batch of lines in the box solve; on the 100x1000 strip the
# solve's traced peak is 1.13 fields with 32 KiB batches and 1.5 with
# 128 KiB, which save about a fifth of the time
_BATCH_BYTES = 32 * 1024


def _lines_per_batch(line_bytes: int) -> int:
    return max(1, _BATCH_BYTES // line_bytes)


def _dst1_rows(a: np.ndarray) -> None:
    """DST-I in place along every row of the 2-d view ``a``.

    Row ``x_1 .. x_n`` becomes ``X_k = sum_l x_l sin(pi k l / (n + 1))``.
    A batch of rows is odd-extended to ``(0, x, 0, -reversed x)``, whose
    real FFT has imaginary part ``-2 X_k`` at ``k = 1 .. n``.
    """
    rows, n = a.shape
    step = _lines_per_batch(16 * (n + 1))
    ext = np.zeros((min(step, rows), 2 * (n + 1)))
    for r in range(0, rows, step):
        lines = a[r : r + step]
        e = ext[: lines.shape[0]]
        e[:, 1 : n + 1] = lines
        np.negative(lines[:, ::-1], out=e[:, n + 2 :])
        np.multiply(np.fft.rfft(e).imag[:, 1 : n + 1], -0.5, out=lines)


def _solve_box(rhs: np.ndarray) -> np.ndarray:
    """Solve ``4 x_ij - (x at the four neighbors in the box) = rhs_ij`` in place.

    ``rhs`` is an ``M x N`` view; neighbors outside it count as 0.  The
    system matrix is ``T_M (x) I + I (x) T_N`` with ``T = tridiag(-1, 2, -1)``,
    whose eigenvectors are sine modes: DST-I along rows and then along
    columns, division by ``lambda_i + lambda_j`` with
    ``lambda_k = 2 - 2 cos(pi k / (K + 1))``, the same two transforms back,
    and the scale ``4 / ((M + 1) (N + 1))`` of the inverse transforms.
    Returns ``rhs``, which then holds the solution.
    """
    m, n = rhs.shape
    _dst1_rows(rhs)
    _dst1_rows(rhs.T)
    lam_m, lam_n = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (k + 1)) for k in (m, n))
    scale = 4.0 / ((m + 1) * (n + 1))
    step = _lines_per_batch(8 * n)
    for r in range(0, m, step):
        rhs[r : r + step] *= scale / (lam_m[r : r + step, None] + lam_n)
    _dst1_rows(rhs)
    _dst1_rows(rhs.T)
    return rhs


def _max_residual(u: np.ndarray) -> float:
    """Maximum ``|mean(neighbors) - u|`` over the inner cells of ``u``, a few rows at a time."""
    rows, cols = u.shape
    step = _lines_per_batch(8 * (cols - 2))
    scratch = np.empty((min(step, rows - 2), cols - 2))
    worst = 0.0
    for r in range(1, rows - 1, step):
        stop = min(r + step, rows - 1)
        out = scratch[: stop - r]
        np.add(u[r - 1 : stop - 1, 1:-1], u[r + 1 : stop + 1, 1:-1], out=out)
        out += u[r:stop, :-2]
        out += u[r:stop, 2:]
        out *= 0.25
        out -= u[r:stop, 1:-1]
        worst = max(worst, float(np.max(np.abs(out, out=out))))
    return worst


# the direct solve leaves a residual of about 1e-15; the check after it
# raises only on a solve gone wrong
_RESIDUAL_TOL = 1e-10


def solve_grid(problem: GridProblem) -> np.ndarray:
    """Solve the discrete Laplace problem; returns the full value field.

    The boundary neighbors of the inner cells move onto the right-hand side
    in place, which ``_solve_box``, the direct sine-transform solve, then
    solves.  The field's maximum residual ``|mean(neighbors) - u|`` over the
    inner cells, checked once after the solve, must be below
    ``_RESIDUAL_TOL``, else :class:`ConvergenceError` is raised.

    Deterministic for a given grid.
    """
    labels = problem.labels
    u = (labels == ONE).astype(np.float64)
    inner = u[1:-1, 1:-1]  # the unknowns, which start as the right-hand side
    inner[0] += u[0, 1:-1]
    inner[-1] += u[-1, 1:-1]
    inner[:, 0] += u[1:-1, 0]
    inner[:, -1] += u[1:-1, -1]
    _solve_box(inner)
    residual = _max_residual(u)
    if not residual < _RESIDUAL_TOL:
        raise ConvergenceError(
            f"the direct box solve reached residual {residual}, not below {_RESIDUAL_TOL}"
        )
    return u


def grid_laplace_measure(problem: GridProblem) -> float:
    """Discrete harmonic interpolant at the evaluation point (in [0, 1])."""
    u = solve_grid(problem)
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
    if rows < 3:
        raise GridError(f"strip grid needs rows >= 3, got {rows}")
    if not math.isfinite(aspect):
        raise GridError(f"strip aspect must be finite, got {aspect}")
    height = dist_up + dist_down
    h = height / (rows - 1)
    if cols is None:
        cols = int(math.ceil(aspect * height / h)) + 1
    if cols < 3:
        raise GridError(f"strip grid needs cols >= 3, got {cols}")
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
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise GridError(
            f"rectangle needs positive finite width and height, got {width}, {height}"
        )
    if one_side not in ("left", "right", "bottom", "top"):
        raise GridError(f"unknown side {one_side!r}")
    if rows < 3:
        raise GridError(f"rectangle grid needs rows >= 3, got {rows}")
    h = height / (rows - 1)
    cols = int(round(width / h)) + 1
    labels = np.full((rows, cols), INTERIOR, dtype=np.int8)
    for name, sl in (("left", (slice(None), 0)), ("right", (slice(None), -1))):
        labels[sl] = ONE if one_side == name else ZERO
    for name, sl in (("bottom", (0, slice(None))), ("top", (-1, slice(None)))):
        labels[sl] = ONE if one_side == name else ZERO
    return GridProblem(labels, h, eval_point, origin)

