import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import deeponet as dn
from opstab import problems as pb
from opstab.sampling import FunctionSample

from conftest import physics_residual, rel_err, unfolded_jet


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


def analytic(u, first=None, lap=None):
    """A known solution as physics_residual takes it: points -> dn.Jet,
    from closed-form functions of the (n, d) points; first maps an axis
    to the derivative along it, and lap is the Laplacian over the axes
    the kind's residual reads."""
    return lambda pts: dn.Jet(
        u(pts), {a: d(pts) for a, d in (first or {}).items()},
        None if lap is None else lap(pts))


def sin_x(pts):
    return np.sin(np.pi * pts[:, 0])


# u = sin(pi x), constant in t where there is a t
SINE_X = analytic(sin_x, first={1: lambda pts: np.zeros(len(pts))},
                  lap=lambda pts: -np.pi ** 2 * sin_x(pts))


class TestResidualOperators:
    def test_antiderivative_exact_pair(self):
        prob = pb.default_problem("antiderivative")
        xs = pb.sensor_grid(prob)
        u = analytic(lambda pts: pts[:, 0] ** 2,
                     first={0: lambda pts: 2 * pts[:, 0]})
        res = physics_residual(prob, u, 2 * xs, np.linspace(0.05, 0.95, 100))
        # f = 2y is linear so interpolation is exact everywhere
        assert np.abs(res).max() < 1e-12

    def test_poisson1d_trigonometric_pair(self):
        prob = pb.default_problem("poisson1d")
        xs = pb.sensor_grid(prob)
        pts = sensor_subset(prob, 100)
        res = physics_residual(prob, SINE_X,
                               np.pi ** 2 * np.sin(np.pi * xs), pts)
        assert np.abs(res).max() < 1e-8

    def test_poisson2d_bitrig_pair(self):
        prob = pb.default_problem("poisson2d")
        sensors = pb.sensor_grid(prob)
        f_vals = np.sin(np.pi * sensors[:, 0]) * np.sin(np.pi * sensors[:, 1])
        rng = np.random.default_rng(1)
        pts = sensors[rng.choice(len(sensors), 100, replace=False)]

        def u(pts):
            scale = 1.0 / (2 * np.pi ** 2)
            return scale * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

        res = physics_residual(
            prob, analytic(u, lap=lambda pts: -2 * np.pi ** 2 * u(pts)),
            f_vals, pts)
        assert np.abs(res).max() < 1e-8

    def test_helmholtz_pair(self):
        prob = pb.default_problem("helmholtz_neumann")
        xs = pb.sensor_grid(prob)
        pts = sensor_subset(prob, 100, seed=3)
        res = physics_residual(
            prob, SINE_X, (2 + np.pi ** 2) * np.sin(np.pi * xs), pts)
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
        # time-independent steady state of u_t = a u_xx + f
        res = physics_residual(prob, SINE_X,
                               alpha * np.pi ** 2 * np.sin(np.pi * xs), pts)
        assert np.abs(res).max() < 1e-8

    def test_heat_ic_residual_matches_finite_differences(self):
        prob = pb.default_problem("heat_ic")
        arch = pb.default_arch(prob, width=16)
        params = dn.glorot_init(arch, 5)
        sample = pb.sample_input(prob, 0)
        pt = np.array([[0.43, 0.57]])
        res = physics_residual(prob, params, sample, pt)[0]

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
        # u = sin(pi x) known, f chosen so the residual u_t - D u_xx - k u^2 - f
        # is zero
        prob = pb.default_problem("diffrec_source")
        d = prob.constants["diffusion"]
        k = prob.constants["reaction"]
        xs = pb.sensor_grid(prob)
        rng = np.random.default_rng(6)
        pts = np.column_stack([xs[rng.choice(len(xs), 50, replace=False)],
                               rng.uniform(0, 1, 50)])

        s = np.sin(np.pi * xs)
        f_vals = d * np.pi ** 2 * s - k * s ** 2
        res = physics_residual(prob, SINE_X, f_vals, pts)
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

        res = physics_residual(prob, SINE_X, k_vals, pts)
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
            physics_residual(prob, params, sample, np.array([1.5]))


def fd_jet(params, rows):
    """(points, Laplacian axes) -> dn.Jet of the network by central
    differences of dn.forward, a predictor independent of the
    closed-form jets."""
    def jet(points, laplacian):
        def u(shift):
            return dn.forward(params, rows, points + shift)
        eye = np.eye(points.shape[1])
        first = {a: (u(1e-5 * e) - u(-1e-5 * e)) / 2e-5
                 for a, e in enumerate(eye)}
        lap = sum((u(2e-4 * eye[a]) - 2 * u(0.0) + u(-2e-4 * eye[a])) / 4e-8
                  for a in laplacian)
        return dn.Jet(u(0.0), first, lap)
    return jet


def small_problem(kind):
    if kind == "poisson2d":
        return pb.default_problem(kind, collocation_counts=(64, 0, 0))
    return pb.default_problem(kind)


def perturbed_params(prob, seed, depth=3, transform=None):
    """A width-8 net with every block (biases too) away from zero."""
    params = dn.glorot_init(pb.default_arch(prob, width=8, depth=depth,
                                            transform=transform), seed)
    rng = np.random.default_rng(seed)
    return dn.with_param_values(params, [
        a + 0.1 * rng.standard_normal(a.shape)
        for _, a in dn.param_items(params)])


class TestLossesAgainstFiniteDifferences:
    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_loss_terms(self, kind):
        prob = small_problem(kind)
        params = perturbed_params(prob, 1)
        colloc = pb.make_collocation(prob)
        rows = pb.sample_batch(prob, 3, 2)
        got = pb.loss_graph(prob, params, rows, colloc)[:3]
        entry, jet = prob.entry, fd_jet(params, rows)
        for term, rule, pts in zip(
                got, (entry.residual, entry.boundary, entry.initial),
                (colloc.interior, colloc.boundary, colloc.initial)):
            if not len(pts):
                assert term == 0.0
                continue
            source = rows @ pb.source_matrix(prob, pts).T
            block = rule.fn(jet(pts, rule.laplacian), source, prob.constants,
                            pts)
            assert float(term) == pytest.approx(np.mean(block ** 2), rel=1e-5)

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_weight_gradients(self, kind):
        prob = small_problem(kind)
        params = perturbed_params(prob, 2)
        colloc = pb.make_collocation(prob)
        rows = pb.sample_batch(prob, 4, 2)
        arrays = [a for _, a in dn.param_items(params)]
        rng = np.random.default_rng(3)
        direction = [rng.standard_normal(a.shape) for a in arrays]

        def terms_at(step):
            moved = dn.with_param_values(
                params, [a + step * d for a, d in zip(arrays, direction)])
            return [float(t) for t in pb.loss_graph(prob, moved, rows, colloc)]

        tape = ad.Tape()
        lifted, leaves = dn.lift_params(tape, params)
        terms = pb.loss_graph(prob, lifted, tape.constant(rows), colloc)
        h = 1e-6
        fd = (np.array(terms_at(h)) - np.array(terms_at(-h))) / (2 * h)
        for term, want in zip(terms, fd):
            if not isinstance(term, ad.Var):
                assert term == 0.0
                continue
            grads = ad.grad(term, leaves)
            got = sum(np.sum(grads[leaf] * d)
                      for leaf, d in zip(leaves, direction))
            assert got == pytest.approx(want, rel=1e-6)


KIND_TRANSFORMS = [(kind, t) for kind in pb.KINDS
                   for t in pb.REGISTRY[kind].transforms]


def unfolded_total(prob, params, rows, colloc):
    """The loss total with every block's jet from the unfolded formula."""
    total = 0.0
    for _, rule, model, points, mat in pb.LossBlocks(prob, params,
                                                     colloc).blocks:
        jet = unfolded_jet(params, rows, model.cols, rule.first,
                           rule.laplacian)
        block = rule.fn(jet, ad.matmul(rows, mat.T), prob.constants, points)
        total = ad.add(total, ad.mean(ad.square(block)))
    return total


class TestLossBlocks:
    def test_folds_once_per_call(self, monkeypatch):
        prob = pb.default_problem("heat_source")
        params = dn.glorot_init(pb.default_arch(prob, width=8), 0)
        blocks = pb.LossBlocks(prob, params, pb.make_collocation(prob))
        calls = []
        fold = dn.fold
        monkeypatch.setattr(dn, "fold",
                            lambda *args: calls.append(args) or fold(*args))
        rows = pb.sample_batch(prob, 0, 2)
        assert set(blocks(rows)) == {"physics", "bc", "ic"}
        assert len(calls) == 1

    @pytest.mark.parametrize("depth", (1, 3))
    @pytest.mark.parametrize("kind,transform", KIND_TRANSFORMS)
    def test_loss_and_gradients_match_unfolded(self, kind, transform, depth):
        prob = small_problem(kind)
        params = perturbed_params(prob, 5, depth, transform)
        colloc = pb.make_collocation(prob)
        rows = pb.sample_batch(prob, 6, 3)
        grads = []
        for loss in (lambda p: pb.loss_graph(prob, p, rows, colloc)[3],
                     lambda p: unfolded_total(prob, p, rows, colloc)):
            tape = ad.Tape()
            lifted, leaves = dn.lift_params(tape, params)
            total = loss(lifted)
            grads.append([total.value] + list(ad.grad(total, leaves).values()))
        for got, want in zip(*grads):
            assert rel_err(got, want) <= 1e-12


    def test_poisson2d_tape_nodes(self):
        # u, two first streams and one Laplacian through the trunk; each
        # further stream would add nodes
        prob = small_problem("poisson2d")
        params = perturbed_params(prob, 0)
        rows = pb.sample_batch(prob, 0, 2)
        tape = ad.Tape()
        lifted, _ = dn.lift_params(tape, params)
        pb.loss_graph(prob, lifted, tape.constant(rows),
                      pb.make_collocation(prob))
        assert len(tape) == 93


def loss_terms(prob, params, samples, colloc):
    """loss_graph's (physics, bc, ic, total) on a batch of samples, as
    floats."""
    rows = np.stack([s.values for s in samples])
    return tuple(float(t) for t in pb.loss_graph(prob, params, rows, colloc))


class TestAssembleLoss:
    """loss_graph's terms on plain input rows."""

    def test_zero_network_zero_source(self):
        prob = pb.default_problem("poisson1d")
        params = zeroed(dn.glorot_init(pb.default_arch(prob, width=8), 0))
        colloc = pb.make_collocation(prob)
        f = FunctionSample(pb.sensor_grid(prob), np.zeros(100))
        assert loss_terms(prob, params, [f], colloc) == (0.0, 0.0, 0.0, 0.0)

    def test_duplicated_batch_mean_semantics(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 1)
        colloc = pb.make_collocation(prob)
        f = pb.sample_input(prob, 5)
        once = loss_terms(prob, params, [f], colloc)
        thrice = loss_terms(prob, params, [f] * 3, colloc)
        # identical in exact arithmetic; float summation order costs ulps
        assert once[3] == pytest.approx(thrice[3], rel=1e-12)
        assert once[0] == pytest.approx(thrice[0], rel=1e-12)
        assert once[1] == pytest.approx(thrice[1], rel=1e-12, abs=1e-300)

    def test_total_additivity_bit_exact(self):
        prob = pb.default_problem("heat_ic")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 2)
        colloc = pb.make_collocation(prob)
        samples = [pb.sample_input(prob, s) for s in range(3)]
        physics, bc, ic, total = loss_terms(prob, params, samples, colloc)
        assert total == physics + bc + ic
        assert physics >= 0 and bc >= 0 and ic >= 0

    def test_batch_permutation_invariance(self):
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 3)
        colloc = pb.make_collocation(prob)
        samples = [pb.sample_input(prob, s) for s in range(4)]
        fwd = loss_terms(prob, params, samples, colloc)
        rev = loss_terms(prob, params, samples[::-1], colloc)
        assert fwd[3] == pytest.approx(rev[3], rel=1e-12)

    def test_straight_line_oracle_poisson(self):
        """Independent recomputation from raw forward calls and plain means."""
        prob = pb.default_problem("poisson1d")
        params = dn.glorot_init(pb.default_arch(prob, width=16), 0)
        colloc = pb.make_collocation(prob)
        samples = [pb.sample_input(prob, s) for s in range(2)]
        physics, bc, _, _ = loss_terms(prob, params, samples, colloc)

        xs = pb.sensor_grid(prob)
        pts = colloc.interior[:, 0]
        h = 1e-4
        sq_res, sq_bc = [], []
        for sample in samples:
            f_at = np.interp(pts, xs, sample.values)
            up = dn.forward(params, sample.values, pts + h)
            um = dn.forward(params, sample.values, pts - h)
            u0 = dn.forward(params, sample.values, pts)
            uyy = (up - 2 * u0 + um) / h ** 2
            sq_res.append((-uyy - f_at) ** 2)
            ub = dn.forward(params, sample.values, np.array([0.0, 1.0]))
            sq_bc.append(ub ** 2)
        assert physics == pytest.approx(np.mean(sq_res), rel=1e-5)
        assert bc == pytest.approx(np.mean(sq_bc), rel=1e-12)

    def test_transform_omits_enforced_components(self):
        prob = pb.default_problem("poisson2d",
                                  collocation_counts=(64, 0, 0))
        arch = pb.default_arch(prob, width=8,
                               transform="dirichlet_2d_space")
        params = dn.glorot_init(arch, 0)
        colloc = pb.make_collocation(prob)
        f = pb.sample_input(prob, 0)
        physics, bc, ic, _ = loss_terms(prob, params, [f], colloc)
        assert bc == 0.0 and ic == 0.0
        assert physics > 0.0


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
    @pytest.mark.parametrize("n", (1, 32))
    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_sample_batch_uses_offset_seeds(self, kind, n):
        prob = pb.default_problem(kind)
        batch = pb.sample_batch(prob, 100, n)
        assert batch.shape == (n, prob.sensor_count)
        assert batch.dtype == np.float64
        for i, row in enumerate(batch):
            assert np.array_equal(row, pb.sample_input(prob, 100 + i).values)

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_sample_input_meta(self, kind):
        prob = pb.default_problem(kind)
        spec = prob.sampler
        meta = pb.sample_input(prob, 9).meta
        assert (meta["kind"], meta["seed"]) == (spec.kind, 9)
        if spec.kind == "grf":
            assert meta["length_scale"] == spec.length_scale
            assert meta["jitter"] == 1e-14
            assert meta.get("rescaled_to") == spec.rescale
        elif spec.kind == "poly3":
            assert meta["coeffs"].shape == (4,)
        else:
            want = np.random.default_rng(9).standard_normal(
                (spec.modes, spec.modes))
            assert np.array_equal(meta["coeffs"], want)

    def test_grf_batch_factors_the_kernel_once(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda a: calls.append(a) or cholesky(a))
        pb.sample_batch(pb.default_problem("heat_source"), 0, 32)
        # one factor: the jitter-0 attempt and the 1e-14 rung
        assert len(calls) <= 2

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
