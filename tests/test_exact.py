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
    INTERIOR,
    ONE,
    ZERO,
    GridProblem,
    disk_arc_measure,
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

    def test_newton_stops_on_its_residual(self):
        # the first Newton step lands on the root; a step test alone then
        # alternates between two neighboring floats until the budget runs out
        assert pseudo_strip_upper_measure(1.0, 3.0, 4.0, -40 + 0.5j) == pytest.approx(
            strip_upper_measure(0.5, 3.5), abs=1e-12
        )

    @pytest.mark.parametrize(
        "up, down, width", [(1.0, 3.0, 4.0), (1.0, 3.0, 1.0), (6.0, 18.0, 432.0)]
    )
    def test_converges_along_the_axis(self, up, down, width):
        # x = -0.25 k H for k < 400; from k = 40 on the point lies 10 H or
        # more down the channel, where the measure is the strip's to 1e-12
        h = up + down
        for k in range(400):
            value = pseudo_strip_upper_measure(up, down, width, complex(-0.25 * k * h, 0.0))
            assert 0.0 < value < 1.0
            if k >= 40:
                assert value == pytest.approx(strip_upper_measure(up, down), abs=1e-12)

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
    to residual 1e-10, and its measure reads ``value``, within 1e-8 of
    ``parent``, the value pinned from the solver the current one replaced."""
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
    # box fields are pinned bit for bit from the direct sine-transform
    # solve; the last string is the measure pinned from the red-black SOR
    # with Young's relaxation factor that solved them before
    def test_square_field_is_pinned(self):
        _assert_field_pinned(
            square_problem(61, 0.5 + 0.5j),
            "07b4491f96ef226072ab58133cb85e6b1ac034d11683ce3350cb58ef087fdd94",
            "0.24999999999998784",
            "0.24999999939185666",
        )

    # a mixed-parity inner view, a one-cell and a one-row inner view, and
    # even rows by odd columns
    @pytest.mark.parametrize(
        "make, digest, value, parent",
        [
            (
                lambda: rectangle_problem(3.0, 1.7, 31, 0.5 + 0.5j),
                "a52609f21cfb78555e04919801c069e21a4a7d6828f99c410d471c157e04483b",
                "0.13071770784743453",
                "0.1307177078383318",
            ),
            (
                _one_cell_problem,
                "ffe49d6e8beabb85d4e8a3b72159a47b9901d0b294588abb3ddccab95394a2b3",
                "0.5000000000000001",
                "0.5",
            ),
            (
                _one_row_problem,
                "a9c8261f8a1796652e6558d12155ba52cff16c0c119c239c601424a96a3a891f",
                "0.49484536082474234",
                "0.4948453608247423",
            ),
            (
                lambda: strip_problem(1.0, 3.0, rows=20, cols=201),
                "a3849f07c7f8b6b776fb5183158387f8afaff3ea12d6670b396e3222623e7131",
                "0.7499999386664742",
                "0.7499999386653193",
            ),
        ],
        ids=["rectangle31x54", "one_cell", "one_row", "strip20x201"],
    )
    def test_field_is_pinned(self, make, digest, value, parent):
        _assert_field_pinned(make(), digest, value, parent)

    def test_solve_grid_holds_one_field(self):
        # the box solve works in place on the field, with scratch of a few
        # 32 KiB batches of lines; a second field-sized copy would read
        # above 2x
        p = strip_problem(1, 3, rows=100, cols=1000)
        field_bytes = p.labels.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            solve_grid(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * field_bytes

    def test_box_residual_below_attainable_raises(self, monkeypatch):
        # the direct solve's residual is about 1e-15; the check after it
        # refuses a field that does not meet the bound
        monkeypatch.setattr(exact, "_RESIDUAL_TOL", 1e-300)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_grid(square_problem(11, 0.5 + 0.5j))

    @pytest.mark.parametrize("rows", range(3, 12))
    def test_box_solve_matches_a_dense_solve(self, rows):
        # the 5-point system over the interior cells, assembled cell by cell
        # and solved densely, on boxes of every row and column parity with
        # random boundary labels
        rng = np.random.default_rng(rows)
        known = np.array([ONE, ZERO], dtype=np.int8)
        for cols in range(3, 12):
            labels = rng.choice(known, size=(rows, cols))
            labels[1:-1, 1:-1] = INTERIOR
            u = solve_grid(GridProblem(labels, 1.0, 1 + 1j))
            cells = [tuple(c) for c in np.argwhere(labels == INTERIOR)]
            column = {c: k for k, c in enumerate(cells)}
            a, b = 4.0 * np.eye(len(cells)), np.zeros(len(cells))
            for k, (i, j) in enumerate(cells):
                for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if nb in column:
                        a[k, column[nb]] = -1.0
                    else:
                        b[k] += labels[nb] == ONE
            interior = labels == INTERIOR
            assert np.max(np.abs(u[interior] - np.linalg.solve(a, b))) < 1e-12
            assert np.array_equal(u[~interior], (labels == ONE)[~interior])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: strip_problem(1.0, 3.0, rows=1),
            lambda: strip_problem(1.0, 3.0, rows=0),
            lambda: strip_problem(1.0, 3.0, cols=0),
            lambda: rectangle_problem(3.0, 1.7, 1, 0.5 + 0.5j),
            lambda: rectangle_problem(-3.0, 1.7, 31, 0.5 + 0.5j),
            lambda: rectangle_problem(3.0, 0.0, 31, 0.5 + 0.5j),
            lambda: rectangle_problem(float("inf"), 1.7, 31, 0.5 + 0.5j),
            lambda: rectangle_problem(3.0, 1.7, 31, 0.5 + 0.5j, one_side="Top"),
            lambda: strip_problem(1.0, 3.0, rows=10, aspect=float("inf")),
            lambda: strip_problem(1.0, 3.0, rows=10, aspect=float("nan")),
        ],
        ids=["strip_rows1", "strip_rows0", "strip_cols0", "rect_rows1", "rect_width_negative",
             "rect_height_zero", "rect_width_inf", "rect_side_unknown", "strip_aspect_inf",
             "strip_aspect_nan"],
    )
    def test_degenerate_builders_fail_by_name(self, build):
        # fewer than 3 rows or columns, or an empty rectangle, leave no
        # interior cell; the builders say so before dividing by the rows.
        # An infinite size or a misspelled side fails by name too, rather
        # than overflowing the column count or labeling every side zero
        with pytest.raises(GridError):
            build()

    @pytest.mark.parametrize("dist_up, dist_down", [
        (math.inf, 3.0), (1.0, math.inf), (math.nan, 3.0), (1.0, math.nan), (0.0, 3.0)])
    def test_strip_distances_fail_by_name(self, dist_up, dist_down):
        # an infinite distance would make the column count inf / inf
        with pytest.raises(DomainError, match="positive and finite"):
            strip_problem(dist_up, dist_down, rows=10)

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

    def test_masked_labels_rejected(self):
        # only box grids are solved: a boundary label among the inner cells,
        # or a ring cell that is neither one nor zero, fails at construction
        box = square_problem(5, 0.5 + 0.5j).labels
        for cell, label in (((2, 3), ONE), ((1, 1), ZERO), ((0, 2), INTERIOR), ((4, 0), 3)):
            labels = box.copy()
            labels[cell] = label
            with pytest.raises(GridError):
                GridProblem(labels, 0.25, 0.5 + 0.5j)
        GridProblem(box, 0.25, 0.5 + 0.5j)

    def test_square_center_quarter(self):
        p = square_problem(61, 0.5 + 0.5j)
        assert grid_laplace_measure(p) == pytest.approx(0.25, abs=1e-6)

    def test_strip_matches_exact_value(self):
        p = strip_problem(1.0, 3.0, rows=50, aspect=40.0)
        assert grid_laplace_measure(p) == pytest.approx(0.75, abs=2e-3)

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
