import cmath
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combslope import exact
from combslope.errors import ConvergenceError, DomainError, GridError
from combslope.exact import (
    EXTERIOR,
    INTERIOR,
    ONE,
    ZERO,
    GridProblem,
    disk_arc_measure,
    disk_problem,
    grid_laplace_measure,
    pseudo_strip_upper_measure,
    rectangle_problem,
    solve_grid,
    square_problem,
    strip_problem,
    strip_upper_measure,
)
from combslope.geometry import BoundaryArc, level_set_arc, mobius_to_zero

angles = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


class TestStripMeasure:
    def test_symmetric(self):
        assert strip_upper_measure(3, 3) == 0.5

    def test_one_three(self):
        assert strip_upper_measure(1, 3) == 0.75

    def test_first_pair_ratio(self):
        assert strip_upper_measure(6, 18) == 0.75

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            strip_upper_measure(0, 1)
        with pytest.raises(DomainError):
            strip_upper_measure(1, -2)


class TestPseudoStripMeasure:
    @pytest.mark.parametrize(
        "width, want",
        [(1.0, 0.724334), (2.0, 0.737933), (4.0, 0.747471), (8.0, 0.749891), (16.0, 0.750000)],
    )
    def test_origin_of_one_three_pair(self, width, want):
        assert pseudo_strip_upper_measure(1.0, 3.0, width, 0j) == pytest.approx(want, abs=5e-7)

    def test_deep_in_the_channel_is_the_strip_value(self):
        assert pseudo_strip_upper_measure(2.0, 1.0, 4.0, -40 + 0.5j) == pytest.approx(
            strip_upper_measure(1.5, 1.5), abs=1e-12
        )

    def test_boundary_values_near_each_tooth(self):
        assert pseudo_strip_upper_measure(1.0, 3.0, 8.0, -10 + 0.999999j) > 0.999
        assert pseudo_strip_upper_measure(1.0, 3.0, 8.0, -10 - 2.999999j) < 0.001

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            pseudo_strip_upper_measure(0.0, 3.0, 8.0, 0j)
        with pytest.raises(DomainError):
            pseudo_strip_upper_measure(1.0, 3.0, 8.0, complex(math.nan, 0.0))


class TestDiskArcMeasure:
    def test_center_upper_half(self):
        assert disk_arc_measure(0, BoundaryArc(-1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_center_quarter(self):
        assert disk_arc_measure(0, BoundaryArc(1j, 1)) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_boundary_point(self):
        with pytest.raises(DomainError):
            disk_arc_measure(1 + 0j, BoundaryArc(-1, 1))

    @given(
        st.floats(min_value=0, max_value=0.9),
        angles,
        angles,
        angles,
    )
    @settings(max_examples=300)
    def test_complementarity(self, r, phi, a, b):
        if abs(cmath.exp(1j * a) - cmath.exp(1j * b)) < 1e-6:
            return
        z = r * cmath.exp(1j * phi)
        arc = BoundaryArc(cmath.exp(1j * a), cmath.exp(1j * b))
        total = disk_arc_measure(z, arc) + disk_arc_measure(z, arc.complement())
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=0, max_value=0.85),
        angles,
        st.floats(min_value=0, max_value=0.85),
        angles,
        angles,
        angles,
    )
    @settings(max_examples=300)
    def test_conformal_invariance(self, r, phi, ra, pa, a, b):
        if abs(cmath.exp(1j * a) - cmath.exp(1j * b)) < 1e-6:
            return
        z = r * cmath.exp(1j * phi)
        arc = BoundaryArc(cmath.exp(1j * a), cmath.exp(1j * b))
        t = mobius_to_zero(ra * cmath.exp(1j * pa))
        assert disk_arc_measure(z, arc) == pytest.approx(
            disk_arc_measure(t(z), t.apply_arc(arc)), abs=1e-12
        )

    def test_level_set_consistency(self):
        for level in (0.2, 0.5, 0.8):
            for arc in (BoundaryArc(-1, 1), BoundaryArc(cmath.exp(2.1j), cmath.exp(0.3j))):
                la = level_set_arc(level, arc)
                for s in (0.15, 0.5, 0.85):
                    assert disk_arc_measure(la.point_at(s), arc) == pytest.approx(
                        level, abs=1e-9
                    )


def _l_shaped_problem() -> GridProblem:
    # 21x21 box at spacing 0.05 with its upper-right quarter [11:, 11:]
    # exterior, walled off by zero cells on row and column 10; the top row of
    # the left arm is labeled one
    labels = np.full((21, 21), INTERIOR, dtype=np.int8)
    labels[11:, 11:] = EXTERIOR
    labels[0, :] = ZERO
    labels[:, 0] = ZERO
    labels[:11, -1] = ZERO
    labels[10, 10:] = ZERO
    labels[10:, 10] = ZERO
    labels[-1, :10] = ONE
    return GridProblem(labels, 0.05, 0.25 + 0.25j)


def _one_cell_problem() -> GridProblem:
    # a single interior cell: three of the four parity sublattices of the
    # inner view are empty
    labels = np.array(
        [
            [ZERO, ONE, ZERO],
            [ZERO, INTERIOR, ONE],
            [ZERO, ZERO, ZERO],
        ],
        dtype=np.int8,
    )
    return GridProblem(labels, 1.0, 1 + 1j)


def _one_row_problem() -> GridProblem:
    # 3x9 box with a single interior row: the inner view has one row
    labels = np.full((3, 9), INTERIOR, dtype=np.int8)
    labels[:, 0] = ZERO
    labels[:, 8] = ZERO
    labels[0, :] = ZERO
    labels[2, :] = ONE
    return GridProblem(labels, 1.0, 4 + 1j)


def _assert_field_pinned(problem: GridProblem, digest: str, value: str, parent: str) -> None:
    """The solved field has sha256 ``digest``, solves the discrete problem
    to the default ``tol``, and its measure reads ``value``, within 1e-8 of
    ``parent``, the value pinned from the square-side relaxation factor."""
    u = solve_grid(problem)
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest
    measure = problem.value_at(u, problem.eval_point)
    assert repr(measure) == value
    assert abs(measure - float(parent)) < 1e-8
    # interior cells never touch the outer ring, so the inner view holds them
    inner = u[1:-1, 1:-1]
    mean = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]) / 4.0
    interior = problem.labels[1:-1, 1:-1] == INTERIOR
    assert np.max(np.abs(mean - inner)[interior]) < 1e-10


class TestGridOracle:
    # fields pinned bit for bit from the red-black SOR with Young's
    # relaxation factor for the grid's bounding box; the last string is the
    # measure pinned from the square-side factor it replaced
    def test_square_field_is_pinned(self):
        _assert_field_pinned(
            square_problem(61, 0.5 + 0.5j),
            "6f842fe63ca9abdd813273070aa88448f02aaf64929a2c5ae862fe5b695967d4",
            "0.24999999939185666",
            "0.25000000015934026",
        )

    def test_l_shaped_field_with_exterior_is_pinned(self):
        _assert_field_pinned(
            _l_shaped_problem(),
            "420df5042d86aa614e27919caf41bf9c57db3dea9a8d762770412cfbe618a0e2",
            "0.013482247548832585",
            "0.013482247548782694",
        )

    # an even inner view, a mixed-parity one, inner views with empty
    # sublattices, and even rows by odd columns
    @pytest.mark.parametrize(
        "make, digest, value, parent",
        [
            (
                lambda: disk_problem(120, 0j),
                "84d8b09a98942bf2064a1e200882c538f42ae76491133c933b484af466e8ecf7",
                "0.49999999994576194",
                "0.49999999996020417",
            ),
            (
                lambda: rectangle_problem(3.0, 1.7, 31, 0.5 + 0.5j),
                "351ff4497873bcf0cb01161e00336ba6b23d221213c4c86f5f8a05039e8b9522",
                "0.1307177078383318",
                "0.13071770754261372",
            ),
            (
                _one_cell_problem,
                "f1f061445f41cfdc887b11561703f1cbe75363d2b6021b7ae71ac50f050bcf71",
                "0.5",
                "0.5",
            ),
            (
                _one_row_problem,
                "83539a8c457cb58bf39f3ff476ff8858e7758c6bb2120ef4b446b4756b255fe5",
                "0.4948453608247423",
                "0.4948453608247423",
            ),
            (
                lambda: strip_problem(1.0, 3.0, rows=20, cols=201),
                "d94be280d58eff0a2830dbb178c0b7b4da2008f5a7449dafe8b63eb673226a12",
                "0.7499999386653193",
                "0.7499999377431819",
            ),
        ],
        ids=["disk120", "rectangle31x54", "one_cell", "one_row", "strip20x201"],
    )
    def test_field_is_pinned(self, make, digest, value, parent):
        _assert_field_pinned(make(), digest, value, parent)

    def test_solve_grid_holds_one_field(self):
        # the solver's working memory is one field plus a quarter-field
        # scratch buffer; a second field-sized copy would read above 2x
        p = strip_problem(1, 3, rows=100, cols=1000)
        field_bytes = p.labels.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            solve_grid(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field_bytes

    def test_iteration_budget_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_SOR_MAX_ITERATIONS", 5)
        with pytest.raises(ConvergenceError):
            solve_grid(square_problem(11, 0.5 + 0.5j), tol=1e-300)

    def test_sweep_budget_on_the_strip(self, monkeypatch):
        # Young's factor for the 100x1000 box meets tol after 496 sweeps and
        # the check after sweep 513 sees it; the square-side factor needed
        # 960 sweeps, so it raised within this budget
        monkeypatch.setattr(exact, "_SOR_MAX_ITERATIONS", 545)
        solve_grid(strip_problem(1, 3, rows=100, cols=1000))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, monkeypatch, tol):
        # a bad tolerance is rejected up front; with no iteration budget a
        # solver that only meets it in the loop fails fast with the wrong error
        monkeypatch.setattr(exact, "_SOR_MAX_ITERATIONS", 0)
        p = square_problem(11, 0.5 + 0.5j)
        with pytest.raises(GridError):
            solve_grid(p, tol=tol)
        with pytest.raises(GridError):
            grid_laplace_measure(p, tol=tol)

    def test_two_by_two_interior_exact_value(self):
        labels = np.array(
            [
                [ZERO, ZERO, ZERO, ZERO],
                [ZERO, INTERIOR, INTERIOR, ZERO],
                [ZERO, INTERIOR, INTERIOR, ZERO],
                [ONE, ONE, ONE, ONE],
            ],
            dtype=np.int8,
        )
        p = GridProblem(labels, 0.5, 0.5 + 0.5j)
        assert p.shape == (4, 4)
        # 2x2 interior, top row one: by symmetry u_low = a, u_high = c with
        # 4a = c + a and 3c = 1 + a, so the bottom-center value is exactly 1/8
        assert grid_laplace_measure(p) == pytest.approx(0.125, abs=1e-8)

    def test_exterior_must_not_touch_interior(self):
        labels = np.array(
            [
                [ZERO, ZERO, ZERO],
                [ZERO, INTERIOR, EXTERIOR],
                [ONE, ONE, ONE],
            ],
            dtype=np.int8,
        )
        with pytest.raises(GridError):
            GridProblem(labels, 1.0, 1.0 + 1.0j)

    def test_square_center_quarter(self):
        p = square_problem(61, 0.5 + 0.5j)
        assert grid_laplace_measure(p) == pytest.approx(0.25, abs=1e-6)

    def test_strip_matches_exact_value(self):
        p = strip_problem(1.0, 3.0, rows=50, aspect=40.0)
        assert grid_laplace_measure(p) == pytest.approx(0.75, abs=2e-3)

    def test_disk_matches_arc_measure(self):
        p = disk_problem(120, 0j)
        exact = disk_arc_measure(0, BoundaryArc(-1, 1))
        assert grid_laplace_measure(p) == pytest.approx(exact, abs=2e-3)

    def test_discretization_error_is_second_order(self):
        # independent series oracle for the unit square with the top side at 1;
        # sinh ratio evaluated in exp form to dodge overflow
        def series(x, y, terms=400):
            total = 0.0
            for m in range(1, terms, 2):
                a = m * math.pi
                ratio = math.exp(a * (y - 1.0)) * (1.0 - math.exp(-2 * a * y)) / (
                    1.0 - math.exp(-2 * a)
                )
                total += 4.0 / a * math.sin(a * x) * ratio
            return total

        pt = 0.3 + 0.6j
        exact = series(pt.real, pt.imag)
        errs = []
        for n in (31, 61):
            p = square_problem(n, pt)
            errs.append(abs(grid_laplace_measure(p) - exact))
        order = math.log2(errs[0] / errs[1])
        assert 1.5 < order < 2.8

    def test_domain_monotonicity_nested_rectangles(self):
        # shrinking the domain while keeping the one-labeled top fixed can
        # only lower the measure
        rng = np.random.default_rng(7)
        for _ in range(5):
            height2 = rng.uniform(1.5, 2.5)
            height1 = rng.uniform(1.0, height2 - 0.3)
            width = rng.uniform(2.0, 4.0)
            ev = complex(0.0, height1 * 0.5)
            rows1 = 30
            h = height1 / (rows1 - 1)
            rows2 = int(round(height2 / h)) + 1
            big = rectangle_problem(width, rows2 * h - h, rows2, ev, one_side="top",
                                    origin=complex(-width / 2, height1 - (rows2 - 1) * h))
            small = rectangle_problem(width, height1, rows1, ev, one_side="top",
                                      origin=complex(-width / 2, 0.0))
            assert grid_laplace_measure(small) <= grid_laplace_measure(big) + 1e-8

    def test_unlabeled_boundary_rejected(self):
        labels = np.zeros((4, 4), dtype=np.int8)  # all interior
        with pytest.raises(GridError):
            GridProblem(labels, 1.0, complex(1.5, 1.5))

    def test_value_at_does_not_extrapolate(self):
        p = square_problem(11, 0.5 + 0.5j)
        u = solve_grid(p)
        # the corners of the rectangle of cell centres stay legal
        assert p.value_at(u, 1 + 1j) == 1.0
        assert p.value_at(u, 0j) == 0.0
        for off_grid in (1.5 + 0.5j, 0.5 + 3j, -0.01 + 0.5j, 0.5 - 0.01j):
            with pytest.raises(GridError):
                p.value_at(u, off_grid)

    def test_eval_point_must_be_interior(self):
        p = square_problem(11, 0.5 + 0.5j)
        with pytest.raises(GridError):
            GridProblem(p.labels, p.spacing, 0j, p.origin)  # corner cell
        with pytest.raises(GridError):
            GridProblem(p.labels, p.spacing, complex(50, 50), p.origin)
