import numpy as np
import pytest

from opstab import sampling as sp


class TestGrf:
    def test_fully_correlated_limit_is_constant(self):
        xs = np.linspace(0.45, 0.55, 10)
        for seed in range(5):
            s = sp.sample_grf(sp.GrfSpec(length_scale=1e6), xs, seed)
            assert s.values.max() - s.values.min() < 1e-6

    def test_deterministic_per_seed(self):
        xs = np.linspace(0, 1, 60)
        a = sp.sample_grf(sp.GrfSpec(0.2), xs, 7)
        b = sp.sample_grf(sp.GrfSpec(0.2), xs, 7)
        assert np.array_equal(a.values, b.values)
        c = sp.sample_grf(sp.GrfSpec(0.2), xs, 8)
        assert not np.array_equal(a.values, c.values)

    def test_monte_carlo_covariance_matches_kernel(self):
        xs = np.linspace(0, 1, 100)
        kernel = sp.rbf_kernel(xs, 0.2)
        draws = np.stack([sp.sample_grf(sp.GrfSpec(0.2), xs, s).values
                          for s in range(5000)])
        empirical = draws.T @ draws / len(draws)
        assert np.abs(empirical - kernel).max() < 0.1

    def test_stationary_variance_within_ten_percent(self):
        xs = np.linspace(0, 1, 40)
        draws = np.stack([sp.sample_grf(sp.GrfSpec(0.3), xs, s).values
                          for s in range(5000)])
        per_sensor_var = draws.var(axis=0)
        assert np.all(np.abs(per_sensor_var - 1.0) < 0.10)

    def test_rank_deficient_length_scale_escalates_jitter(self):
        xs = np.linspace(0, 1, 100)
        s = sp.sample_grf(sp.GrfSpec(1.4), xs, 0)
        assert s.meta["jitter"] <= 1e-6
        assert np.all(np.isfinite(s.values))

    def test_unsorted_sensors_rejected(self):
        with pytest.raises(ValueError):
            sp.sample_grf(sp.GrfSpec(0.2), [0.0, 0.5, 0.3], 0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            sp.GrfSpec(length_scale=0.0)
        with pytest.raises(ValueError):
            sp.GrfSpec(length_scale=1.0, jitter=-1e-3)


class TestPolynomial:
    def test_zero_coefficient_range(self):
        xs = np.linspace(0, 1, 20)
        s = sp.sample_polynomial_deg3((0.0, 0.0), xs, 3)
        assert np.array_equal(s.values, np.zeros(20))

    def test_pure_cubic(self):
        xs = np.linspace(0, 1, 20)
        s = sp.sample_polynomial_deg3((1.0, 1.0), xs, 0)
        # all coefficients forced to 1: f = 1 + x + x^2 + x^3
        assert np.allclose(s.values, 1 + xs + xs ** 2 + xs ** 3,
                           rtol=0, atol=1e-15)

    def test_deterministic(self):
        xs = np.linspace(0, 1, 20)
        a = sp.sample_polynomial_deg3((-1, 1), xs, 4)
        b = sp.sample_polynomial_deg3((-1, 1), xs, 4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.meta["coeffs"], b.meta["coeffs"])


class TestBitrig:
    def test_single_forced_mode_center_value(self):
        grid = np.array([[0.5, 0.5]])
        coeffs, _ = sp.sample_bitrig(1, 1, grid, 0)
        values = sp.bitrig_values(np.ones((1, 1)), grid)
        assert values[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_on_square_boundary(self):
        rng = np.random.default_rng(0)
        edge = rng.uniform(0, 1, 100)
        pts = np.concatenate([
            np.column_stack([np.zeros(100), edge]),
            np.column_stack([np.ones(100), edge]),
            np.column_stack([edge, np.zeros(100)]),
            np.column_stack([edge, np.ones(100)]),
        ])
        coeffs, sample = sp.sample_bitrig(10, 10, pts, 1)
        assert np.abs(sample.values).max() < 1e-12

    def test_deterministic(self):
        grid = sp.hammersley(16, 2)
        c1, s1 = sp.sample_bitrig(4, 4, grid, 9)
        c2, s2 = sp.sample_bitrig(4, 4, grid, 9)
        assert np.array_equal(c1, c2)
        assert np.array_equal(s1.values, s2.values)

    def test_mode_count_validated(self):
        with pytest.raises(ValueError):
            sp.sample_bitrig(0, 3, np.zeros((1, 2)), 0)


class TestRescale:
    def _sample(self, values):
        return sp.FunctionSample(np.linspace(0, 1, len(values)), values)

    def test_basic_map(self):
        out = sp.rescale_to_range(self._sample([0.0, 1.0, 2.0]), 1.0, 5.0)
        assert np.allclose(out.values, [1.0, 3.0, 5.0], rtol=0, atol=0)

    def test_constant_maps_to_midpoint(self):
        out = sp.rescale_to_range(self._sample([2.0, 2.0, 2.0]), 1.0, 5.0)
        assert np.array_equal(out.values, [3.0, 3.0, 3.0])

    def test_idempotent(self):
        once = sp.rescale_to_range(self._sample([0.3, -1.0, 4.0]), 1.0, 5.0)
        twice = sp.rescale_to_range(once, 1.0, 5.0)
        assert np.allclose(once.values, twice.values, rtol=0, atol=1e-15)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            sp.rescale_to_range(self._sample([0.0, 1.0]), 2.0, 2.0)


class TestHammersley:
    def test_reference_set_n4(self):
        expected = np.array([[0.0, 0.0], [0.25, 0.5], [0.5, 0.25],
                             [0.75, 0.75]])
        assert np.array_equal(sp.hammersley(4, 2), expected)

    def test_dim1_n2(self):
        assert np.array_equal(sp.hammersley(2, 1).ravel(), [0.0, 0.5])

    def test_all_points_in_half_open_box(self):
        pts = sp.hammersley(200, 2)
        assert pts.min() >= 0.0 and pts.max() < 1.0

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            sp.hammersley(4, 3)

    def test_star_discrepancy_decreases(self):
        d64 = sp.star_discrepancy_2d(sp.hammersley(64, 2))
        d256 = sp.star_discrepancy_2d(sp.hammersley(256, 2))
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
