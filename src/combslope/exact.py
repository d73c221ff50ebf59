"""Closed-form harmonic-measure oracles and a finite-difference Laplace oracle.

The strip, two-tooth and disk-arc values are exact; the grid oracle is an
independent brute-force check (5-point stencil, Dirichlet data 1 on cells
labeled one and 0 on cells labeled zero).  Grid problems are built from a
labels array, directly or by the builders below.

A grid whose inner cells (all but the outer ring) are all interior is a box
problem: the strip, square and rectangle builders make one.  There the
5-point system is separable, and a discrete sine transform (DST-I) along
both axes diagonalises it, so it is solved directly (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 1970).  Each DST-I is the real FFT of the
odd extension of a line, taken in batches of lines with a small scratch
buffer, so the solve works in place on the field.

A masked grid (exterior cells or boundary labels inside the ring, as in
the disk and the comb rasters) is solved by conjugate gradients over its
interior cells, preconditioned by the same box solve: the residual is
zero-extended to the inner box, solved there and restricted to the
interior cells again, an operator that is symmetric positive definite
(Concus & Golub, SIAM J. Numer. Anal. 10, 1973).

Both paths allocate private working memory per call, so concurrent use
is unrestricted.
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


# disk120 converges in 26 iterations, a 161x761 comb raster at tol 1e-8 in
# 76; the cap stops only a solve that cannot meet its tolerance
_CG_MAX_ITERATIONS = 1000


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
        s = slice(r, min(r + step, rows - 1))
        out = scratch[: s.stop - s.start]
        _mean_minus_center(
            u[s, 1:-1], u[_shifted(s, -1), 1:-1], u[_shifted(s, 1), 1:-1], u[s, :-2], u[s, 2:], out
        )
        worst = max(worst, float(np.max(np.abs(out, out=out))))
    return worst


def solve_grid(problem: GridProblem, tol: float = 1e-10) -> np.ndarray:
    """Solve the discrete Laplace problem; returns the full value field.

    ``tol``, a positive finite number, bounds the maximum residual
    ``|mean(neighbors) - u|`` over interior cells of the returned field;
    where the solver cannot meet it, :class:`ConvergenceError` is raised.

    A box problem (every inner cell interior, see the module docstring)
    moves the boundary neighbors of the inner cells onto the right-hand
    side in place and solves there with ``_solve_box``, the direct
    sine-transform solve; its residual, checked once after the solve, is
    about 1e-15, so only a ``tol`` below that raises.

    A masked problem solves ``(I - N/4) x = b/4`` over the interior cells
    (``N`` sums a cell's interior neighbors, ``b`` its known neighbors'
    values) by conjugate gradients preconditioned with ``_solve_box`` on
    the inner box.  The residual ``mean(neighbors) - u`` lives on the inner
    box, 0 off the interior cells, and the search direction on a full field
    with a zero ring, so both come from stencils of views.  Once the updated
    residual is below ``tol / 2`` the field's own residual is checked
    against ``tol``; ``_CG_MAX_ITERATIONS`` bounds the iterations.

    Deterministic for a given grid and tolerance.
    """
    if not 0.0 < tol < math.inf:
        raise GridError(f"tolerance must be positive and finite, got {tol}")
    labels = problem.labels
    if (labels[1:-1, 1:-1] == INTERIOR).all():
        u = (labels == ONE).astype(np.float64)
        inner = u[1:-1, 1:-1]  # the unknowns, which start as the right-hand side
        inner[0] += u[0, 1:-1]
        inner[-1] += u[-1, 1:-1]
        inner[:, 0] += u[1:-1, 0]
        inner[:, -1] += u[1:-1, -1]
        _solve_box(inner)
        residual = _max_residual(u)
        if not residual < tol:
            raise ConvergenceError(
                f"the direct box solve reached residual {residual}, not below {tol}"
            )
        return u
    # GridProblem keeps every interior cell off the outer ring, so the inner
    # view holds every unknown and its four neighbors stay on the grid
    interior = labels[1:-1, 1:-1] == INTERIOR

    def residual(f, out):
        """``mean(neighbors) - f`` on the interior cells, 0 elsewhere."""
        _mean_minus_center(
            f[1:-1, 1:-1], f[:-2, 1:-1], f[2:, 1:-1], f[1:-1, :-2], f[1:-1, 2:], out
        )
        return np.multiply(out, interior, out=out)

    u = (labels == ONE).astype(np.float64)
    p = np.zeros(labels.shape)
    u_in, p_in = u[1:-1, 1:-1], p[1:-1, 1:-1]
    r, z, q = (np.empty(interior.shape) for _ in range(3))
    residual(u, r)
    rz = math.inf  # so that the first direction is z itself
    for it in range(_CG_MAX_ITERATIONS + 1):
        if max(r.max(), -r.min()) < tol / 2:
            if np.max(np.abs(residual(u, q), out=q)) < tol:
                return u
        if it == _CG_MAX_ITERATIONS:
            break
        np.copyto(z, r)
        _solve_box(z)
        z *= interior
        # einsum, not a BLAS dot: on 2 cores a threaded vdot took about 7 ms
        # a call on disk120, several times the box solve
        rz_old, rz = rz, np.einsum("ij,ij->", r, z)
        p_in *= rz / rz_old
        p_in += z
        residual(p, q)  # -A p, as p is 0 off the interior cells
        alpha = -rz / np.einsum("ij,ij->", p_in, q)
        u_in += np.multiply(p_in, alpha, out=z)
        q *= alpha
        r += q
    raise ConvergenceError(
        f"conjugate gradients (CG) did not reach residual {tol} "
        f"within {_CG_MAX_ITERATIONS} iterations"
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
