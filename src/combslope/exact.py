"""Closed-form harmonic-measure oracles and a finite-difference Laplace oracle.

The strip, two-tooth and disk-arc values are exact; the grid oracle is an
independent brute-force check (5-point stencil, red-black successive
over-relaxation, Dirichlet data 1 on cells labeled one and 0 on cells
labeled zero).  Grid problems are built from a labels array, directly or
by the builders below.  The relaxation factor is Young's optimum for the
grid's bounding box, ``2 / (1 + sqrt(1 - mu**2))`` with the box's Jacobi
spectral radius ``mu = (cos(pi / (R - 1)) + cos(pi / (C - 1))) / 2``
(Young 1954); a masked domain inside the box has a smaller radius, so
there the factor errs on the over-relaxed side, which SOR tolerates.
The solver keeps the field parity-blocked: cell ``(2k + p, 2l + q)`` lives at
``lat[k, p, q, l]``, so each parity sublattice and its four neighbor slices
are 2-d views with contiguous rows.  Each SOR color sweeps two sublattices;
a sublattice whose cells are all interior is written back with
``where=True`` instead of a mask.  The solver allocates private working
memory per call, so concurrent use is unrestricted.
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
    "EXTERIOR",
    "disk_arc_measure",
    "disk_problem",
    "grid_laplace_measure",
    "pseudo_strip_upper_measure",
    "rectangle_problem",
    "solve_grid",
    "square_problem",
    "strip_problem",
    "strip_upper_measure",
]

_TWO_PI = 2.0 * math.pi

INTERIOR, ONE, ZERO, EXTERIOR = 0, 1, 2, 3


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
    Mapping*, 2002).
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
    for _ in range(_NEWTON_STEPS):
        step = (c * (w * w / 2.0 - cmath.log(w)) - target) / (c * (w - 1.0 / w))
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
        ci = int(round((self.eval_point.imag - self.origin.imag) / self.spacing))
        cj = int(round((self.eval_point.real - self.origin.real) / self.spacing))
        if not (0 <= ci < labels.shape[0] and 0 <= cj < labels.shape[1]):
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


def _mean_minus_center(center, below, above, left, right, out):
    """``mean(neighbors) - center`` into ``out``, summed below, above, left, right."""
    np.add(below, above, out=out)
    out += left
    out += right
    out *= 0.25
    out -= center
    return out


def _shifted(s: slice, by: int) -> slice:
    return slice(s.start + by, s.stop + by)


def solve_grid(problem: GridProblem, tol: float = 1e-10) -> np.ndarray:
    """Solve the discrete Laplace problem; returns the full value field.

    Red-black SOR on the 5-point stencil with Young's optimal relaxation
    factor for the ``R x C`` bounding box (see the module docstring),
    iterated until the maximum residual ``|mean(neighbors) - u|`` over
    interior cells drops below ``tol``, a positive finite number (checked
    every 32 sweeps).  The field is held parity-blocked in one buffer of
    shape ``(ceil(R/2), 2, 2, ceil(C/2))``, cell ``(2k + p, 2l + q)`` at
    ``[k, p, q, l]``.  Each color is two parity
    sublattices of the inner cells; a sublattice and its four neighbors are
    views with contiguous rows, swept through one scratch buffer and written
    back where the cells are interior (``where=True`` when all of them are).
    At convergence each row is un-shuffled in place, so for an odd side the
    returned field is a view of the padded buffer.
    Deterministic for a given grid and tolerance.
    """
    if not 0.0 < tol < math.inf:
        raise GridError(f"tolerance must be positive and finite, got {tol}")
    labels = problem.labels
    rows, cols = labels.shape
    rh, ch = -(-rows // 2), -(-cols // 2)
    lat = np.zeros((rh, 2, 2, ch))
    for p in (0, 1):
        for q in (0, 1):
            ones = labels[p::2, q::2] == ONE
            lat[: ones.shape[0], p, q, : ones.shape[1]] = ones
    mu = 0.5 * (math.cos(math.pi / max(2, rows - 1)) + math.cos(math.pi / max(2, cols - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - mu * mu))
    # GridProblem keeps every interior cell off the outer ring, so the inner
    # cells 1 <= 2k + p <= rows - 2, 1 <= 2l + q <= cols - 2 hold every
    # unknown and their neighbors stay on the grid.
    scratch = np.empty((rows - 1) // 2 * ((cols - 1) // 2))  # sublattice (1, 1) is the largest
    subs = []  # (center, stencil, mask, out) per sublattice, first color first
    for p, q in ((1, 1), (0, 0), (1, 0), (0, 1)):
        k, l = slice(1 - p, (rows - p) // 2), slice(1 - q, (cols - q) // 2)
        center = lat[k, p, q, l]
        stencil = (
            lat[_shifted(k, p - 1), 1 - p, q, l],
            lat[_shifted(k, p), 1 - p, q, l],
            lat[k, p, 1 - q, _shifted(l, q - 1)],
            lat[k, p, 1 - q, _shifted(l, q)],
        )
        mask = labels[p::2, q::2][k, l] == INTERIOR
        out = scratch[: center.size].reshape(center.shape)  # contiguous
        subs.append((center, stencil, True if mask.all() else mask, out))
    for it in range(_SOR_MAX_ITERATIONS):
        for center, stencil, mask, out in subs:
            _mean_minus_center(center, *stencil, out)
            out *= omega
            np.add(center, out, out=center, where=mask)
        if it % 32 == 0 or it == _SOR_MAX_ITERATIONS - 1:
            if max(
                np.max(np.abs(_mean_minus_center(c, *s, out), out=out), where=m, initial=0.0)
                for c, s, m, out in subs
            ) < tol:
                # row 2k + p holds its cell 2l + q at [q, l]
                for row in lat.reshape(2 * rh, 2, ch):
                    row.reshape(-1)[:] = row.T.ravel()
                return lat.reshape(2 * rh, 2 * ch)[:rows, :cols]
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
