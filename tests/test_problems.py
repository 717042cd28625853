import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import deeponet as dn
from opstab import problems as pb
from opstab.deeponet import _coord_row
from opstab.sampling import FunctionSample


def zeroed(params):
    return dn.with_param_values(
        params, [np.zeros_like(a) for _, a in dn.param_items(params)])


def sensor_subset(problem, count, seed=0):
    """Random points drawn from the sensor grid, where interpolation of the
    source is exact."""
    xs = pb.sensor_grid(problem)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(xs), size=count, replace=False)
    return xs[np.sort(idx)]


class TestResidualOperators:
    def test_antiderivative_exact_pair(self):
        prob = pb.default_problem("antiderivative")
        xs = pb.sensor_grid(prob)
        res = pb.physics_residual(prob, lambda y: ad.square(y), 2 * xs,
                                  np.linspace(0.05, 0.95, 100))
        # f = 2y is linear so interpolation is exact everywhere
        assert np.abs(res).max() < 1e-12

    def test_poisson1d_trigonometric_pair(self):
        prob = pb.default_problem("poisson1d")
        xs = pb.sensor_grid(prob)
        pts = sensor_subset(prob, 100)
        res = pb.physics_residual(prob, lambda y: ad.sin(ad.mul(np.pi, y)),
                                  np.pi ** 2 * np.sin(np.pi * xs), pts)
        assert np.abs(res).max() < 1e-8

    def test_poisson2d_bitrig_pair(self):
        prob = pb.default_problem("poisson2d")
        sensors = pb.sensor_grid(prob)
        f_vals = np.sin(np.pi * sensors[:, 0]) * np.sin(np.pi * sensors[:, 1])
        rng = np.random.default_rng(1)
        pts = sensors[rng.choice(len(sensors), 100, replace=False)]

        def u(yx):
            x = _coord_row(yx, 0)
            y = _coord_row(yx, 1)
            scale = 1.0 / (2 * np.pi ** 2)
            return ad.mul(scale, ad.mul(ad.sin(ad.mul(np.pi, x)),
                                        ad.sin(ad.mul(np.pi, y))))

        res = pb.physics_residual(prob, u, f_vals, pts)
        assert np.abs(res).max() < 1e-8

    def test_helmholtz_pair(self):
        prob = pb.default_problem("helmholtz_neumann")
        xs = pb.sensor_grid(prob)
        pts = sensor_subset(prob, 100, seed=3)
        res = pb.physics_residual(
            prob, lambda y: ad.sin(ad.mul(np.pi, y)),
            (2 + np.pi ** 2) * np.sin(np.pi * xs), pts)
        assert np.abs(res).max() < 1e-8

    def test_heat_source_steady_pair(self):
        prob = pb.default_problem("heat_source")
        xs = pb.sensor_grid(prob)
        alpha = prob.constants["alpha"]
        rng = np.random.default_rng(4)
        pts = np.column_stack([
            xs[rng.choice(len(xs), 100, replace=False)],
            rng.uniform(0, 1, 100),
        ])

        def u(yt):  # time-independent steady state of u_t = a u_xx + f
            return ad.sin(ad.mul(np.pi, _coord_row(yt, 0)))

        res = pb.physics_residual(prob, u,
                                  alpha * np.pi ** 2 * np.sin(np.pi * xs), pts)
        assert np.abs(res).max() < 1e-8

    def test_heat_ic_residual_matches_finite_differences(self):
        prob = pb.default_problem("heat_ic")
        arch = pb.default_arch(prob, width=16)
        params = dn.glorot_init(arch, 5)
        sample = pb.sample_input(prob, 0)
        pt = np.array([[0.43, 0.57]])
        res = pb.physics_residual(prob, params, sample, pt)[0]

        h = 1e-4
        alpha = prob.constants["alpha"]

        def u(x, t):
            return float(dn.forward(params, sample.values,
                                    np.array([[x, t]]))[0])

        ut = (u(0.43, 0.57 + h) - u(0.43, 0.57 - h)) / (2 * h)
        uxx = (u(0.43 + h, 0.57) - 2 * u(0.43, 0.57)
               + u(0.43 - h, 0.57)) / h ** 2
        assert abs(res - (ut - alpha * uxx)) < 1e-4

    def test_diffrec_source_signs_as_stated(self):
        # u known, f chosen so the residual u_t - D u_xx - k u^2 - f is zero
        prob = pb.default_problem("diffrec_source")
        d = prob.constants["diffusion"]
        k = prob.constants["reaction"]
        xs = pb.sensor_grid(prob)
        rng = np.random.default_rng(6)
        pts = np.column_stack([xs[rng.choice(len(xs), 50, replace=False)],
                               rng.uniform(0, 1, 50)])

        def u(yt):  # u(x, t) = sin(pi x), time-independent
            return ad.sin(ad.mul(np.pi, _coord_row(yt, 0)))

        s = np.sin(np.pi * xs)
        f_vals = d * np.pi ** 2 * s - k * s ** 2
        res = pb.physics_residual(prob, u, f_vals, pts)
        assert np.abs(res).max() < 1e-8

    def test_diffrec_coeff_signs_as_stated(self):
        # residual u_t - D u_xx + k(x) u^2 - sin(pi x) with u = sin(pi x)
        # constant in t; expected value recomputed via numpy.interp
        prob = pb.default_problem("diffrec_coeff")
        d = prob.constants["diffusion"]
        xs = pb.sensor_grid(prob)
        k_vals = 2.0 + xs  # any smooth coefficient profile
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])

        def u(yt):
            return ad.sin(ad.mul(np.pi, _coord_row(yt, 0)))

        res = pb.physics_residual(prob, u, k_vals, pts)
        s = np.sin(np.pi * pts[:, 0])
        k_interp = np.interp(pts[:, 0], xs, k_vals)
        expected = d * np.pi ** 2 * s + k_interp * s ** 2 - s
        assert np.abs(res - expected).max() < 1e-12

    def test_point_outside_domain_rejected(self):
        prob = pb.default_problem("poisson1d")
        arch = pb.default_arch(prob, width=8)
        params = dn.glorot_init(arch, 0)
        sample = pb.sample_input(prob, 0)
        with pytest.raises(pb.ProblemError):
            pb.physics_residual(prob, params, sample, np.array([1.5]))


class TestAssembleLoss:
    def test_zero_network_zero_source(self):
        prob = pb.default_problem("poisson1d")
        params = zeroed(dn.glorot_init(pb.default_arch(prob, width=8), 0))
        colloc = pb.make_collocation(prob)
        f = FunctionSample(pb.sensor_grid(prob), np.zeros(100))
        lb = pb.assemble_loss(prob, params, [(f, colloc)])
        assert lb == pb.LossBreakdown(0.0, 0.0, 0.0, 0.0)

    def test_duplicated_batch_mean_semantics(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 1)
        colloc = pb.make_collocation(prob)
        f = pb.sample_input(prob, 5)
        once = pb.assemble_loss(prob, params, [(f, colloc)])
        thrice = pb.assemble_loss(prob, params, [(f, colloc)] * 3)
        # identical in exact arithmetic; float summation order costs ulps
        assert once.total == pytest.approx(thrice.total, rel=1e-12)
        assert once.physics == pytest.approx(thrice.physics, rel=1e-12)
        assert once.bc == pytest.approx(thrice.bc, rel=1e-12, abs=1e-300)

    def test_total_additivity_bit_exact(self):
        prob = pb.default_problem("heat_ic")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 2)
        colloc = pb.make_collocation(prob)
        batch = [(pb.sample_input(prob, s), colloc) for s in range(3)]
        lb = pb.assemble_loss(prob, params, batch)
        assert lb.total == lb.physics + lb.bc + lb.ic
        assert lb.physics >= 0 and lb.bc >= 0 and lb.ic >= 0

    def test_batch_permutation_invariance(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 3)
        colloc = pb.make_collocation(prob)
        batch = [(pb.sample_input(prob, s), colloc) for s in range(4)]
        fwd = pb.assemble_loss(prob, params, batch)
        rev = pb.assemble_loss(prob, params, batch[::-1])
        assert fwd.total == pytest.approx(rev.total, rel=1e-12)

    def test_straight_line_oracle_poisson(self):
        """Independent recomputation from raw forward calls and plain means."""
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 0)
        colloc = pb.make_collocation(prob)
        batch = [(pb.sample_input(prob, s), colloc) for s in range(2)]
        lb = pb.assemble_loss(prob, params, batch)

        xs = pb.sensor_grid(prob)
        pts = colloc.interior[:, 0]
        h = 1e-4
        sq_res, sq_bc = [], []
        for sample, _ in batch:
            f_at = np.interp(pts, xs, sample.values)
            up = dn.forward(params, sample.values, pts + h)
            um = dn.forward(params, sample.values, pts - h)
            u0 = dn.forward(params, sample.values, pts)
            uyy = (up - 2 * u0 + um) / h ** 2
            sq_res.append((-uyy - f_at) ** 2)
            ub = dn.forward(params, sample.values, np.array([0.0, 1.0]))
            sq_bc.append(ub ** 2)
        assert lb.physics == pytest.approx(np.mean(sq_res), rel=1e-5)
        assert lb.bc == pytest.approx(np.mean(sq_bc), rel=1e-12)

    def test_transform_omits_enforced_components(self):
        prob = pb.default_problem("poisson2d",
                                  collocation_counts=(64, 0, 0))
        arch = pb.default_arch(prob, width=8,
                               transform="dirichlet_2d_space")
        params = dn.glorot_init(arch, 0)
        colloc = pb.make_collocation(prob)
        f = pb.sample_input(prob, 0)
        lb = pb.assemble_loss(prob, params, [(f, colloc)])
        assert lb.bc == 0.0 and lb.ic == 0.0
        assert lb.physics > 0.0

    def test_mixed_collocation_rejected(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=8), 0)
        c1 = pb.make_collocation(prob)
        c2 = pb.CollocationSet(c1.interior * 0.5, c1.boundary, c1.initial)
        f = pb.sample_input(prob, 0)
        with pytest.raises(pb.ProblemError):
            pb.assemble_loss(prob, params, [(f, c1), (f, c2)])

    def test_empty_batch_rejected(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=8), 0)
        with pytest.raises(pb.ProblemError):
            pb.assemble_loss(prob, params, [])


class TestCollocation:
    @pytest.mark.parametrize("kind,counts", [
        ("antiderivative", (20, 0, 1)),
        ("poisson1d", (100, 2, 0)),
        ("helmholtz_neumann", (100, 2, 0)),
        ("heat_ic", (200, 40, 20)),
        ("heat_source", (200, 40, 20)),
        ("diffrec_source", (200, 40, 20)),
        ("diffrec_coeff", (200, 40, 20)),
        ("poisson2d", (10000, 0, 0)),
    ])
    def test_counts_match_defaults(self, kind, counts):
        prob = pb.default_problem(kind)
        assert prob.collocation_counts == counts
        colloc = pb.make_collocation(prob)
        assert len(colloc.interior) == counts[0]
        assert len(colloc.boundary) == counts[1]
        assert len(colloc.initial) == counts[2]

    def test_interior_strictly_inside(self):
        for kind in pb.KINDS:
            colloc = pb.make_collocation(pb.default_problem(kind))
            assert colloc.interior.min() > 0.0
            assert colloc.interior.max() < 1.0

    def test_deterministic(self):
        prob = pb.default_problem("heat_ic")
        a = pb.make_collocation(prob)
        b = pb.make_collocation(prob)
        assert np.array_equal(a.interior, b.interior)
        assert np.array_equal(a.boundary, b.boundary)
        assert np.array_equal(a.initial, b.initial)


class TestSamplers:
    def test_sample_batch_uses_offset_seeds(self):
        prob = pb.default_problem("poisson1d")
        batch = pb.sample_batch(prob, 100, 3)
        singles = [pb.sample_input(prob, 100 + i) for i in range(3)]
        for a, b in zip(batch, singles):
            assert np.array_equal(a.values, b.values)

    def test_problem_sampler_kinds(self):
        assert pb.default_problem("poisson1d").sampler.kind == "poly3"
        assert pb.default_problem("antiderivative").sampler.kind == "grf"
        assert pb.default_problem("poisson2d").sampler.kind == "bitrig"
        coeff = pb.default_problem("diffrec_coeff")
        assert coeff.sampler.length_scale == 1.4
        assert coeff.sampler.rescale == (1.0, 5.0)

    def test_diffrec_coeff_values_in_band(self):
        prob = pb.default_problem("diffrec_coeff")
        s = pb.sample_input(prob, 11)
        assert s.values.min() >= 1.0 - 1e-12
        assert s.values.max() <= 5.0 + 1e-12

    def test_required_constants_enforced(self):
        with pytest.raises(pb.ProblemError):
            pb.ProblemSpec("heat_ic", 100, (200, 40, 20), constants={})

    def test_transform_validation(self):
        prob = pb.default_problem("helmholtz_neumann")
        with pytest.raises(pb.ProblemError):
            pb.default_arch(prob, transform="dirichlet_1d")


class TestInterpolation:
    def test_1d_weights_exact_at_knots(self):
        xs = np.linspace(0, 1, 11)
        mat = pb.interp_matrix_1d(xs, xs.copy())
        vals = np.random.default_rng(0).standard_normal(11)
        assert np.abs(mat @ vals - vals).max() < 1e-15

    def test_1d_matches_numpy_interp(self):
        xs = np.linspace(0, 1, 17)
        pts = np.random.default_rng(1).uniform(0, 1, 40)
        vals = np.random.default_rng(2).standard_normal(17)
        mat = pb.interp_matrix_1d(xs, pts)
        assert np.allclose(mat @ vals, np.interp(pts, xs, vals),
                           rtol=0, atol=1e-14)

    def test_2d_exact_for_bilinear_functions(self):
        prob = pb.default_problem("poisson2d")
        sensors = pb.sensor_grid(prob)
        vals = 2 * sensors[:, 0] + 3 * sensors[:, 1]
        lo, hi = sensors.min(), sensors.max()
        pts = np.random.default_rng(3).uniform(lo, hi, size=(30, 2))
        mat = pb.interp_matrix_2d(sensors, pts)
        assert np.allclose(mat @ vals, 2 * pts[:, 0] + 3 * pts[:, 1],
                           rtol=0, atol=1e-13)
