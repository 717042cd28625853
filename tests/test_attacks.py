import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstab import attacks as atk
from opstab import autodiff as ad
from opstab import deeponet as dn
from opstab import problems as pb


def tiny_model(seed=0, m=12, transform="none"):
    arch = dn.ArchSpec((m, 16, 16), (1, 16, 16), transform=transform)
    return dn.glorot_init(arch, seed)


def attack_row(params, prob, f, colloc, cfg, seed=0):
    """The training attack on one input row: (f_tilde, loss per iteration)."""
    out, losses = atk.attack_physics_loss_batch(params, prob, f[None, :],
                                                colloc, [cfg], [seed])
    return out[0], losses[:, 0]


class TestConfig:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackConfig(epsilon=-0.1)

    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackConfig(epsilon=0.1, norm="l1")

    def test_nonpositive_alpha_rejected_when_attacking(self):
        with pytest.raises(ValueError):
            atk.AttackConfig(epsilon=0.1, step_alpha=0.0, n_iter=5)

    def test_resolve_relative(self):
        cfg = atk.AttackConfig(epsilon=0.1, relative=True)
        resolved = cfg.resolve_for(np.array([0.5, -2.0, 1.0]))
        assert resolved.epsilon == pytest.approx(0.2)
        assert resolved.step_alpha == pytest.approx(0.05)
        assert resolved.relative is False

    def test_resolve_absolute_default_alpha(self):
        cfg = atk.AttackConfig(epsilon=0.4)
        resolved = cfg.resolve_for(np.zeros(3))
        assert resolved.epsilon == 0.4
        assert resolved.step_alpha == 0.1


class TestProject:
    def test_inside_ball_unchanged(self):
        cfg = atk.AttackConfig(epsilon=1.0, n_iter=0)
        f = np.zeros(4)
        f_tilde = np.array([0.5, -0.2, 0.0, 0.9])
        assert np.array_equal(atk.project(f_tilde, f, cfg), f_tilde)

    def test_linf_clip_example(self):
        cfg = atk.AttackConfig(epsilon=0.1, n_iter=0)
        out = atk.project(np.array([0.5, -0.05]), np.zeros(2), cfg)
        assert np.array_equal(out, [0.1, -0.05])

    def test_l2_rescale_example(self):
        cfg = atk.AttackConfig(epsilon=1.0, norm="l2", n_iter=0)
        out = atk.project(np.array([3.0, 4.0]), np.zeros(2), cfg)
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_idempotent(self, norm):
        cfg = atk.AttackConfig(epsilon=0.3, norm=norm, n_iter=0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(10)
        once = atk.project(f + rng.standard_normal(10), f, cfg)
        twice = atk.project(once, f, cfg)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    @pytest.mark.parametrize("seed", range(20))
    def test_non_expansive(self, norm, seed):
        cfg = atk.AttackConfig(epsilon=0.5, norm=norm, n_iter=0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(8)
        a = f + rng.standard_normal(8)
        b = f + rng.standard_normal(8)
        pa, pb_ = atk.project(a, f, cfg), atk.project(b, f, cfg)
        if norm == "linf":
            assert np.abs(pa - pb_).max() <= np.abs(a - b).max() + 1e-12
        else:
            assert np.linalg.norm(pa - pb_) <= np.linalg.norm(a - b) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["linf", "l2"]), st.floats(0.0, 2.0),
           st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_idempotent_and_non_expansive_property(self, norm, eps, m, seed):
        cfg = atk.AttackConfig(epsilon=eps, norm=norm, n_iter=0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(m)
        a = f + 3.0 * rng.standard_normal(m)
        b = f + 3.0 * rng.standard_normal(m)
        pa, pb_ = atk.project(a, f, cfg), atk.project(b, f, cfg)
        assert np.array_equal(atk.project(pa, f, cfg), pa)
        # f + delta rounds relative to |f|, so the ball holds to that
        rounding = 8 * np.finfo(np.float64).eps * np.linalg.norm(f)
        assert (atk.perturbation_norm(pa, f, cfg)
                <= eps * (1 + 1e-12) + rounding)
        gap = atk.perturbation_norm(pa, pb_, cfg)
        assert gap <= atk.perturbation_norm(a, b, cfg) * (1 + 1e-12) + rounding

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_batched_linf_loop_equals_rowwise_project(self, batch, m, seed):
        # _pgd_loop clips a linf block at once; per row that is project
        rng = np.random.default_rng(seed)
        f = 3.0 * rng.standard_normal((batch, m))
        configs = [atk.AttackConfig(epsilon=e, step_alpha=a, n_iter=3)
                   for e, a in rng.uniform(0.0, 1.0, (batch, 2))]
        grads = rng.standard_normal((3, batch, m))
        steps = iter(grads)

        def loss_and_grad(rows):
            return np.zeros(len(rows)), next(steps)

        got, _ = atk._pgd_loop(loss_and_grad, f, configs, f.copy())
        want = f.copy()
        for g in grads:
            for i, cfg in enumerate(configs):
                want[i] = atk.project(want[i] + cfg.step_alpha * np.sign(g[i]),
                                      f[i], cfg)
        assert np.array_equal(got, want)


class TestFgsm:
    """FGSM is the PGD config n_iter = 1, step_alpha = epsilon,
    warm_start = false: one sign step of the physics-loss gradient."""

    def _setup(self):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        params = tiny_model(m=12)
        colloc = pb.make_collocation(prob)
        f = np.random.default_rng(1).standard_normal(12)
        return prob, params, colloc, f

    @staticmethod
    def fgsm(params, prob, f, colloc, eps):
        cfg = atk.AttackConfig(epsilon=eps, step_alpha=eps, n_iter=1,
                               warm_start=False)
        return attack_row(params, prob, f, colloc, cfg)[0]

    def test_zero_epsilon_identity(self):
        prob, params, colloc, f = self._setup()
        assert np.array_equal(self.fgsm(params, prob, f, colloc, 0.0), f)

    def test_linf_bound_holds(self):
        prob, params, colloc, f = self._setup()
        out = self.fgsm(params, prob, f, colloc, 0.25)
        assert np.abs(out - f).max() <= 0.25 + 1e-15

    def test_equals_single_step_pgd_without_warm_start(self):
        prob, params, colloc, f = self._setup()
        eps = 0.2
        tape = ad.Tape()
        f_var = tape.leaf(f[None, :])
        total = pb.loss_graph(prob, params, f_var, colloc)[3]
        sign_step = f + eps * np.sign(ad.grad(total, [f_var])[f_var][0])
        assert np.allclose(self.fgsm(params, prob, f, colloc, eps), sign_step,
                           rtol=0, atol=1e-15)


class TestPhysicsAttack:
    def _setup(self):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        params = tiny_model(m=12)
        colloc = pb.make_collocation(prob)
        f = np.random.default_rng(2).standard_normal(12)
        return prob, params, colloc, f

    def test_zero_epsilon_returns_input_bit_exactly(self):
        prob, params, colloc, f = self._setup()
        cfg = atk.AttackConfig(epsilon=0.0, n_iter=20)
        out, _ = attack_row(params, prob, f, colloc, cfg)
        assert np.array_equal(out, f)
        assert atk.perturbation_norm(out, f, cfg) == 0.0

    def test_zero_iterations_without_warm_start(self):
        prob, params, colloc, f = self._setup()
        cfg = atk.AttackConfig(epsilon=0.3, n_iter=0, warm_start=False)
        out, losses = attack_row(params, prob, f, colloc, cfg)
        assert np.array_equal(out, f)
        assert len(losses) == 0

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_ball_constraint_within_tolerance(self, norm):
        prob, params, colloc, f = self._setup()
        cfg = atk.AttackConfig(epsilon=0.2, n_iter=8, norm=norm)
        out, _ = attack_row(params, prob, f, colloc, cfg, seed=3)
        assert atk.perturbation_norm(out, f, cfg) <= 0.2 + 1e-12

    def test_trace_length_matches_iterations(self):
        prob, params, colloc, f = self._setup()
        cfg = atk.AttackConfig(epsilon=0.2, n_iter=7)
        _, losses = attack_row(params, prob, f, colloc, cfg)
        assert len(losses) == 7

    def test_deterministic_given_seed(self):
        prob, params, colloc, f = self._setup()
        cfg = atk.AttackConfig(epsilon=0.2, n_iter=5)
        a, _ = attack_row(params, prob, f, colloc, cfg, seed=9)
        b, _ = attack_row(params, prob, f, colloc, cfg, seed=9)
        c, _ = attack_row(params, prob, f, colloc, cfg, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batched_matches_per_sample_linf(self):
        # samples decouple: joint ascent equals row-by-row attacks
        prob, params, colloc, _ = self._setup()
        rows = np.random.default_rng(5).standard_normal((3, 12))
        cfg = atk.AttackConfig(epsilon=0.15, n_iter=6, warm_start=True)
        batched, _ = atk.attack_physics_loss_batch(
            params, prob, rows, colloc, [cfg], seeds=[11, 12, 13])
        for i in range(3):
            solo, _ = attack_row(params, prob, rows[i], colloc, cfg,
                                 seed=11 + i)
            assert np.allclose(batched[i], solo, rtol=0, atol=1e-12)


class TestSolutionErrorAttack:
    def test_zero_epsilon_identity(self):
        params = tiny_model()
        f = np.random.default_rng(0).standard_normal(12)
        grid = np.linspace(0, 1, 9)
        u_true = dn.forward(params, f, grid)
        cfg = atk.AttackConfig(epsilon=0.0, n_iter=5)
        out, _ = atk.attack_solution_error(params, f, u_true, grid, cfg)
        assert np.array_equal(out, f)

    def test_perfect_model_stays_at_zero_loss(self):
        # zero trunk weights: the output is the constant b0 whatever f is,
        # and equal to the reference
        params = tiny_model(seed=1, m=8)
        params = dn.DeepONetParams(
            params.arch, params.branch_layers,
            [(np.zeros_like(w), np.zeros_like(b))
             for w, b in params.trunk_layers], np.array(0.7))
        grid = np.linspace(0, 1, 6)
        u_true = np.full(6, 0.7)

        f = np.random.default_rng(1).standard_normal(8)
        cfg = atk.AttackConfig(epsilon=0.5, n_iter=6)
        out, trace = atk.attack_solution_error(params, f, u_true, grid, cfg)
        assert trace.loss_per_iter[0] == 0.0
        assert trace.loss_per_iter[-1] == trace.loss_per_iter[0]

    def test_no_warm_start_first_loss_is_clean_loss(self):
        params = tiny_model(seed=4)
        f = np.random.default_rng(2).standard_normal(12)
        grid = np.linspace(0, 1, 9)
        u_true = np.cos(grid)
        cfg = atk.AttackConfig(epsilon=0.3, n_iter=4, warm_start=True)
        _, trace = atk.attack_solution_error(params, f, u_true, grid, cfg)
        clean = float(np.sum((dn.forward(params, f, grid) - u_true) ** 2))
        assert trace.loss_per_iter[0] == pytest.approx(clean, rel=1e-12)

    def test_ball_constraint(self):
        params = tiny_model(seed=5)
        f = np.random.default_rng(3).standard_normal(12)
        grid = np.linspace(0, 1, 9)
        u_true = np.cos(grid)
        cfg = atk.AttackConfig(epsilon=0.1, n_iter=10)
        out, _ = atk.attack_solution_error(params, f, u_true, grid, cfg)
        assert np.abs(out - f).max() <= 0.1 + 1e-12


class TestAscentOnTrainedModel:
    def test_physics_attack_raises_loss_on_most_samples(
            self, trained_poisson_baseline):
        prob, params = trained_poisson_baseline
        colloc = pb.make_collocation(prob)
        cfg = atk.AttackConfig(epsilon=0.1, relative=True, n_iter=20)
        wins = 0
        n = 40
        for i in range(n):
            f = pb.sample_input(prob, 5_000_000 + i)
            _, losses = attack_row(params, prob, f.values, colloc, cfg,
                                   seed=i)
            final = losses[-1]
            first = losses[0]
            if final >= first:
                wins += 1
        assert wins >= 0.9 * n
