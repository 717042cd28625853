import numpy as np
import pytest

from opstab import sampling as sp


def grf_rows(spec, xs, seeds):
    return sp.grf_block(spec, xs, seeds)[0]


class TestGrf:
    def test_fully_correlated_limit_is_constant(self):
        xs = np.linspace(0.45, 0.55, 10)
        for row in grf_rows(sp.GrfSpec(length_scale=1e6), xs, range(5)):
            assert row.max() - row.min() < 1e-6

    def test_deterministic_per_seed(self):
        xs = np.linspace(0, 1, 60)
        a, b, c = grf_rows(sp.GrfSpec(0.2), xs, [7, 7, 8])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(grf_rows(sp.GrfSpec(0.2), xs, [7])[0], a)

    def test_rows_match_the_per_draw_formula(self):
        xs = np.linspace(0, 1, 100)
        chol = np.linalg.cholesky(sp.rbf_kernel(xs, 0.2) + 1e-14 * np.eye(100))
        rows, meta = sp.grf_block(sp.GrfSpec(0.2), xs, range(3, 35))
        assert meta["jitter"] == 1e-14
        for seed, row in zip(range(3, 35), rows):
            z = np.random.default_rng(seed).standard_normal(100)
            assert np.array_equal(row, chol @ z)

    def test_monte_carlo_covariance_matches_kernel(self):
        xs = np.linspace(0, 1, 100)
        kernel = sp.rbf_kernel(xs, 0.2)
        draws = grf_rows(sp.GrfSpec(0.2), xs, range(5000))
        empirical = draws.T @ draws / len(draws)
        assert np.abs(empirical - kernel).max() < 0.1

    def test_stationary_variance_within_ten_percent(self):
        xs = np.linspace(0, 1, 40)
        draws = grf_rows(sp.GrfSpec(0.3), xs, range(5000))
        per_sensor_var = draws.var(axis=0)
        assert np.all(np.abs(per_sensor_var - 1.0) < 0.10)

    def test_rank_deficient_length_scale_escalates_jitter(self):
        xs = np.linspace(0, 1, 100)
        rows, meta = sp.grf_block(sp.GrfSpec(1.4), xs, [0])
        assert meta["jitter"] <= 1e-6
        assert np.all(np.isfinite(rows))

    def test_jitter_ladder_stops_at_exactly_its_cap(self, monkeypatch):
        kernel = sp.rbf_kernel(np.linspace(0, 1, 5), 0.2, variance=-1.0)
        tried = []

        def cholesky(a):
            tried.append(a)
            raise np.linalg.LinAlgError

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        with pytest.raises(sp.SamplingError, match=r"jitter 1e-06$"):
            sp._chol_with_escalation(kernel, 0.0)
        rungs = [0.0] + [float(f"1e{k}") for k in range(-14, -5)]
        assert len(tried) == len(rungs)
        for a, jitter in zip(tried, rungs):
            assert np.array_equal(a, kernel + jitter * np.eye(5))

    def test_unsorted_sensors_rejected(self):
        with pytest.raises(ValueError):
            sp.grf_block(sp.GrfSpec(0.2), [0.0, 0.5, 0.3], [0])

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            sp.GrfSpec(length_scale=0.0)
        with pytest.raises(ValueError):
            sp.GrfSpec(length_scale=1.0, jitter=-1e-3)

    @pytest.mark.parametrize("variance", (0.0, -1.0))
    def test_nonpositive_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="variance"):
            sp.GrfSpec(length_scale=0.2, variance=variance)


class TestPolynomial:
    def test_zero_coefficient_range(self):
        xs = np.linspace(0, 1, 20)
        values, _ = sp.poly3_block((0.0, 0.0), xs, [3])
        assert np.array_equal(values, np.zeros((1, 20)))

    def test_pure_cubic(self):
        xs = np.linspace(0, 1, 20)
        values, _ = sp.poly3_block((1.0, 1.0), xs, [0])
        # all coefficients forced to 1: f = 1 + x + x^2 + x^3
        assert np.allclose(values[0], 1 + xs + xs ** 2 + xs ** 3,
                           rtol=0, atol=1e-15)

    def test_deterministic(self):
        xs = np.linspace(0, 1, 20)
        values, meta = sp.poly3_block((-1, 1), xs, [4, 4])
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(meta["coeffs"][0], meta["coeffs"][1])


class TestBitrig:
    def test_single_forced_mode_center_value(self):
        grid = np.array([[0.5, 0.5]])
        values = sp.bitrig_values(np.ones((1, 1, 1)), grid)
        assert values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_on_square_boundary(self):
        rng = np.random.default_rng(0)
        edge = rng.uniform(0, 1, 100)
        pts = np.concatenate([
            np.column_stack([np.zeros(100), edge]),
            np.column_stack([np.ones(100), edge]),
            np.column_stack([edge, np.zeros(100)]),
            np.column_stack([edge, np.ones(100)]),
        ])
        values, _ = sp.bitrig_block(10, pts, [1])
        assert np.abs(values).max() < 1e-12

    def test_deterministic(self):
        grid = sp.hammersley_interior(16, 2)
        values, meta = sp.bitrig_block(4, grid, [9, 9])
        assert np.array_equal(meta["coeffs"][0], meta["coeffs"][1])
        assert np.array_equal(values[0], values[1])

    def test_mode_count_validated(self):
        with pytest.raises(ValueError):
            sp.bitrig_block(0, np.zeros((1, 2)), [0])


class TestRescale:
    def test_basic_map(self):
        out = sp.rescale_rows([[0.0, 1.0, 2.0]], 1.0, 5.0)
        assert np.allclose(out, [[1.0, 3.0, 5.0]], rtol=0, atol=0)

    def test_constant_maps_to_midpoint(self):
        out = sp.rescale_rows([[2.0, 2.0, 2.0]], 1.0, 5.0)
        assert np.array_equal(out, [[3.0, 3.0, 3.0]])

    def test_block_maps_each_row_alone(self):
        rows = np.array([[0.3, -1.0, 4.0], [2.0, 2.0, 2.0], [5.0, 1.0, 3.0]])
        out = sp.rescale_rows(rows, 1.0, 5.0)
        row = rows[0]
        want = 1.0 + (row - row.min()) * 4.0 / (row.max() - row.min())
        assert np.array_equal(out[0], want)
        assert np.array_equal(out[1], [3.0, 3.0, 3.0])
        assert np.array_equal(out[2], [5.0, 1.0, 3.0])

    def test_idempotent(self):
        once = sp.rescale_rows([[0.3, -1.0, 4.0]], 1.0, 5.0)
        twice = sp.rescale_rows(once, 1.0, 5.0)
        assert np.allclose(once, twice, rtol=0, atol=1e-15)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            sp.rescale_rows([[0.0, 1.0]], 2.0, 2.0)


def star_discrepancy_2d(points: np.ndarray) -> float:
    """Star discrepancy of a 2-d point set over corner-anchored boxes.

    Evaluates the local discrepancy at every box [0,u)x[0,v) with corners
    drawn from the point coordinates and 1, using both open and closed
    counts to bracket the supremum. Exact enough to compare set sizes.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    us = np.unique(np.concatenate([pts[:, 0], [1.0]]))
    vs = np.unique(np.concatenate([pts[:, 1], [1.0]]))
    worst = 0.0
    for u in us:
        in_x_open = pts[:, 0] < u
        in_x_closed = pts[:, 0] <= u
        for v in vs:
            vol = u * v
            open_count = np.count_nonzero(in_x_open & (pts[:, 1] < v))
            closed_count = np.count_nonzero(in_x_closed & (pts[:, 1] <= v))
            worst = max(worst, abs(open_count / n - vol),
                        abs(closed_count / n - vol))
    return worst


class TestHammersley:
    def test_reference_set_n4(self):
        # the 4-point Hammersley set without its corner point (0, 0)
        expected = np.array([[0.25, 0.5], [0.5, 0.25], [0.75, 0.75]])
        assert np.array_equal(sp.hammersley_interior(3, 2), expected)

    def test_dim1_n2(self):
        assert np.array_equal(sp.hammersley_interior(2, 1).ravel(),
                              [1 / 3, 2 / 3])

    def test_all_points_in_half_open_box(self):
        # the first coordinate is i/(n+1), the second a radical inverse,
        # a dyadic rational in [0, 1)
        pts = sp.hammersley_interior(200, 2)
        assert np.array_equal(pts[:, 0], np.arange(1, 201) / 201)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            sp.hammersley_interior(4, 3)

    def test_star_discrepancy_decreases(self):
        d64 = star_discrepancy_2d(sp.hammersley_interior(64, 2))
        d256 = star_discrepancy_2d(sp.hammersley_interior(256, 2))
        assert d256 < d64

    @pytest.mark.parametrize("n", [1, 2, 201, 4097])
    def test_radical_inverse_matches_digit_loop(self, n):
        want = np.empty(n)
        for i in range(n):
            q, weight, k = 0.0, 0.5, i
            while k > 0:
                q += (k % 2) * weight
                k //= 2
                weight *= 0.5
            want[i] = q
        assert np.array_equal(sp.van_der_corput_base2(n), want)

    def test_interior_variant_strictly_inside(self):
        for dim in (1, 2):
            pts = sp.hammersley_interior(150, dim)
            assert pts.shape == (150, dim)
            assert pts.min() > 0.0 and pts.max() < 1.0


class TestFunctionSample:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sp.FunctionSample(np.linspace(0, 1, 4), np.zeros(5))

    def test_sensors_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            sp.FunctionSample(np.array([-0.1, 0.5]), np.zeros(2))
