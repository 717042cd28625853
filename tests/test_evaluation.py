import csv

import numpy as np
import pytest

from opstab import deeponet as dn
from opstab import evaluation as ev
from opstab import problems as pb
from opstab import solvers as sv
from opstab.attacks import AttackConfig


def tiny_model(seed=0, m=12, latent=16):
    arch = dn.ArchSpec((m, latent, latent), (1, latent, latent))
    return dn.glorot_init(arch, seed)


class TestRelativeL2:
    def test_exact_prediction(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert ev.relative_l2(truth, truth) == 0.0

    def test_double_prediction(self):
        truth = np.array([1.0, -2.0, 0.5])
        assert ev.relative_l2(2 * truth, truth) == pytest.approx(1.0, rel=1e-15)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        pred, truth = rng.standard_normal(9), rng.standard_normal(9)
        base = ev.relative_l2(pred, truth)
        for c in (2.0, -0.3, 1e6):
            assert ev.relative_l2(c * pred, c * truth) == pytest.approx(
                base, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ev.DegenerateReferenceError):
            ev.relative_l2(np.ones(3), np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.relative_l2(np.ones(3), np.ones(4))


class TestJacobian:
    def test_hand_diagonal_linear_model(self):
        # G(f)(y_k) = d_k f_k via one latent per output is overkill; use the
        # callable escape hatch of power iteration's building blocks instead:
        # a 2-layer linear net with known weights gives J = W2 @ W1.
        arch = dn.ArchSpec((2, 2), (1, 2))
        params = dn.glorot_init(arch, 0)
        branch_w = np.array([[3.0, 0.0], [0.0, 1.0]])  # features = f @ W
        trunk_w = np.zeros((2, 1))
        trunk_b = np.array([[1.0], [0.0]])  # t = (1, 0) at every y
        params = dn.DeepONetParams(arch, [(branch_w, np.zeros((1, 2)))],
                                   [(trunk_w, trunk_b)], np.zeros(()))
        # u(y) = 3 f_0 for every y: J over one output point = [3, 0]
        est = ev.jacobian_spectral_norm(params, np.zeros(2), np.array([0.4]),
                                        tol=1e-12, max_iter=100)
        assert est.spectral_norm == pytest.approx(3.0, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_power_iteration_matches_dense_svd(self, seed):
        params = tiny_model(seed=seed, m=7, latent=9)
        f = np.random.default_rng(seed).standard_normal(7)
        grid = np.linspace(0, 1, 5)
        dense = ev.jacobian_dense(params, f, grid)
        svd_top = np.linalg.svd(dense, compute_uv=False)[0]
        est = ev.jacobian_spectral_norm(params, f, grid, tol=1e-10,
                                        max_iter=2000)
        assert abs(est.spectral_norm - svd_top) < 1e-8

    def test_power_estimate_bounded_by_dense(self):
        params = tiny_model(seed=9)
        f = np.random.default_rng(9).standard_normal(12)
        grid = np.linspace(0, 1, 6)
        tol = 1e-6
        est = ev.jacobian_spectral_norm(params, f, grid, tol=tol)
        dense = np.linalg.svd(ev.jacobian_dense(params, f, grid),
                              compute_uv=False)[0]
        assert est.spectral_norm <= dense + tol
        assert est.residual < tol

    def test_probe_lower_bound_witness(self):
        params = tiny_model(seed=10)
        f = np.random.default_rng(10).standard_normal(12)
        grid = np.linspace(0, 1, 6)
        est = ev.jacobian_spectral_norm(params, f, grid, tol=1e-9,
                                        max_iter=2000)
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.standard_normal(12)
            ratio = np.linalg.norm(dn.GridModel(params, grid).jvp(
                f[None], v[None])) / np.linalg.norm(v)
            assert est.spectral_norm >= ratio - 1e-8

    def test_dense_matches_column_by_column_jvp(self):
        # one batched jvp sums in another order than m single columns
        params = tiny_model(seed=3, m=7, latent=9)
        f = np.random.default_rng(3).standard_normal(7)
        grid = np.linspace(0, 1, 5)
        model = dn.GridModel(params, grid)
        cols = np.column_stack([model.jvp(f[None], e[None])[0]
                                for e in np.eye(7)])
        dense = ev.jacobian_dense(params, f, grid)
        assert np.abs(dense - cols).max() <= 1e-14 * np.abs(cols).max()

    def test_dense_guard(self):
        params = tiny_model()
        with pytest.raises(ValueError):
            ev.jacobian_dense(params, np.zeros(12), np.linspace(0, 1, 5),
                              max_entries=10)


class TestDatasets:
    def _problem_and_model(self):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        params = tiny_model(m=12)
        return prob, params

    def test_zero_epsilon_duplicates_base(self):
        prob, params = self._problem_and_model()
        ds = ev.build_eval_datasets(prob, params, 3,
                                    AttackConfig(epsilon=0.0, n_iter=0),
                                    seed=50, eval_points=20)
        for b, r in zip(ds.base, ds.robustness):
            assert np.array_equal(b.sample.values, r.sample.values)
            assert np.array_equal(b.u_true, r.u_true)

    def test_ball_constraint_on_every_sample(self):
        prob, params = self._problem_and_model()
        attack = AttackConfig(epsilon=0.1, relative=True, n_iter=5)
        ds = ev.build_eval_datasets(prob, params, 4, attack, seed=60,
                                    eval_points=20)
        for b, r in zip(ds.base, ds.robustness):
            eps = 0.1 * np.abs(b.sample.values).max()
            assert np.abs(r.sample.values - b.sample.values).max() <= eps + 1e-12

    def test_linear_operator_bound_on_resolved_truths(self):
        """||u_tilde - u|| <= sigma_max(solve map) * ||f_tilde - f||."""
        prob, params = self._problem_and_model()
        attack = AttackConfig(epsilon=0.3, n_iter=5)
        ds = ev.build_eval_datasets(prob, params, 3, attack, seed=70,
                                    eval_points=25)
        # brute-force operator matrix: sensor values -> solution on grid
        xs = prob.sensors
        grid = ds.y_grid
        columns = []
        for j in range(len(xs)):
            e = np.zeros(len(xs))
            e[j] = 1.0
            from opstab.sampling import FunctionSample
            columns.append(ev.reference_solution(
                prob, FunctionSample(xs, e), grid))
        op = np.column_stack(columns)
        sigma = np.linalg.svd(op, compute_uv=False)[0]
        for b, r in zip(ds.base, ds.robustness):
            lhs = np.linalg.norm(r.u_true - b.u_true)
            rhs = sigma * np.linalg.norm(r.sample.values - b.sample.values)
            assert lhs <= rhs * (1 + 1e-9)

    def test_alignment_under_permutation(self):
        prob, params = self._problem_and_model()
        attack = AttackConfig(epsilon=0.2, n_iter=3)
        ds = ev.build_eval_datasets(prob, params, 4, attack, seed=80,
                                    eval_points=15)
        order = [2, 0, 3, 1]
        permuted = ev.EvalDatasets(ds.problem, ds.y_grid,
                                   [ds.base[i] for i in order],
                                   [ds.robustness[i] for i in order])
        rep_a = ev.stability_report({"m": params}, ds, spectral_functions=0)
        rep_b = ev.stability_report({"m": params}, permuted,
                                    spectral_functions=0)
        errs_a = sorted(rep_a.rel_l2[("m", "base")])
        errs_b = sorted(rep_b.rel_l2[("m", "base")])
        assert errs_a == errs_b


class TestStabilityReport:
    def test_perfect_model_stub_zero_errors(self):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        grid = pb.eval_grid(prob, 10)
        from opstab.sampling import FunctionSample
        xs = prob.sensors
        f = FunctionSample(xs, np.sin(np.pi * xs))
        truth = np.linspace(0, 1, 10)

        class Stub:
            arch = pb.default_arch(prob, width=4)

        pairs = [ev.EvalPair(f, truth)]
        ds = ev.EvalDatasets(prob, grid, pairs, pairs)

        # a model stub that always returns the truth
        stub = tiny_model(m=12, latent=4)
        real_forward = dn.forward
        try:
            dn.forward = lambda p, fv, y: truth.copy()
            rep = ev.stability_report({"perfect": stub}, ds,
                                      spectral_functions=0)
        finally:
            dn.forward = real_forward
        assert all(v == 0.0 for errs in rep.rel_l2.values() for v in errs)
        for row in rep.summary_rows:
            assert row["mean_rel_l2"] == 0.0

    def test_no_perturbation_gives_nan_ratio(self):
        # with epsilon = 0 no pair has a perturbation to divide by: the
        # ratio is missing, not that of a perfectly stable model
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        params = tiny_model(5)
        ds = ev.build_eval_datasets(prob, params, 2,
                                    AttackConfig(epsilon=0.0, n_iter=2),
                                    seed=95, eval_points=12)
        rep = ev.stability_report({"m": params}, ds, spectral_functions=1)
        for row in rep.summary_rows:
            assert np.isnan(row["c_emp_p50"]) and np.isnan(row["c_emp_p95"])
            assert np.isfinite(row["mean_spectral_norm"])

    def test_model_order_only_permutes_rows(self):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        a, b = tiny_model(1), tiny_model(2)
        ds = ev.build_eval_datasets(prob, a, 2,
                                    AttackConfig(epsilon=0.1, n_iter=2),
                                    seed=90, eval_points=12)
        rep_ab = ev.stability_report({"a": a, "b": b}, ds,
                                     spectral_functions=1)
        rep_ba = ev.stability_report({"b": b, "a": a}, ds,
                                     spectral_functions=1)
        key = lambda row: (row["model"], row["dataset"])
        assert sorted(rep_ab.summary_rows, key=key) \
            == sorted(rep_ba.summary_rows, key=key)

    def test_csv_headers_and_shapes(self, tmp_path):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        baseline, stable = tiny_model(3), tiny_model(4)
        ds = ev.build_eval_datasets(prob, baseline, 3,
                                    AttackConfig(epsilon=0.1, n_iter=2),
                                    seed=95, eval_points=12)
        rep = ev.stability_report({"baseline": baseline, "stable": stable},
                                  ds, spectral_functions=1, plot_samples=1)
        summary = tmp_path / "summary.csv"
        errors = tmp_path / "errors.csv"
        ev.write_summary_csv(summary, rep)
        ev.write_errors_csv(errors, rep)
        with open(summary) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ev.SUMMARY_CSV_HEADER
        assert len(rows) == 1 + 4  # two models x two datasets
        with open(errors) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ev.ERRORS_CSV_HEADER
        assert len(rows) == 1 + 3 * 4

        paths = ev.write_plot_data(tmp_path, rep)
        assert len(paths) == 2
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ev.PLOTDATA_CSV_HEADER
        assert len(rows) == 1 + len(ds.y_grid)

    def test_keeps_only_the_plotted_predictions(self, tmp_path):
        prob = pb.default_problem("poisson1d", sensor_count=12,
                                  collocation_counts=(10, 2, 0))
        models = {"baseline": tiny_model(3), "stable": tiny_model(4)}
        ds = ev.build_eval_datasets(prob, models["baseline"], 4,
                                    AttackConfig(epsilon=0.1, n_iter=2),
                                    seed=96, eval_points=12)
        full = ev.stability_report(models, ds, spectral_functions=1,
                                   plot_samples=4)
        for k in (0, 2, 5):
            rep = ev.stability_report(models, ds, spectral_functions=1,
                                      plot_samples=k)
            assert rep.summary_rows == full.summary_rows
            assert rep.rel_l2 == full.rel_l2
            assert set(rep.predictions) == set(full.predictions)
            for key, preds in rep.predictions.items():
                assert len(rep.rel_l2[key]) == 4
                assert len(preds) == min(k, 4)
                for pred, want in zip(preds, full.predictions[key]):
                    assert np.array_equal(pred, want)
            out = tmp_path / str(k)
            out.mkdir()
            assert len(ev.write_plot_data(out, rep)) == 2 * min(k, 4)


# each kind's oracle called directly, with its constants
ORACLES = {
    "antiderivative": lambda c, s, grid, n:
        sv.solve_antiderivative(s, grid).values,
    "poisson1d": lambda c, s, grid, n:
        sv.solve_poisson_1d_fd(s, n).eval_at(grid),
    "poisson2d": lambda c, s, grid, n:
        sv.solve_poisson_2d_analytic(s.meta["coeffs"], grid).values,
    "helmholtz_neumann": lambda c, s, grid, n:
        sv.solve_helmholtz_neumann_fd(s, n, shift=c["shift"]).eval_at(grid),
    "heat_ic": lambda c, s, grid, n:
        sv.solve_heat_fd("heat_ic", s, c["alpha"], n, n).eval_at(grid),
    "heat_source": lambda c, s, grid, n:
        sv.solve_heat_fd("heat_source", s, c["alpha"], n, n).eval_at(grid),
    "diffrec_source": lambda c, s, grid, n: sv.solve_diffusion_reaction(
        s, "source", c["diffusion"], c["reaction"], n, n).eval_at(grid),
    "diffrec_coeff": lambda c, s, grid, n: sv.solve_diffusion_reaction(
        s, "coefficient", c["diffusion"], 0.0, n, n).eval_at(grid),
}


class TestReferenceSolutions:
    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_each_kind_calls_its_oracle(self, kind):
        # non-default constants, so a default wired in place of the
        # problem's own value shows
        defaults = pb.default_problem(kind).constants
        constants = {name: 1.5 * value for name, value in defaults.items()}
        prob = pb.default_problem(kind, constants=constants)
        sample = pb.sample_input(prob, 4)
        grid = pb.eval_grid(prob, 7)
        got = ev.reference_solution(prob, sample, grid, resolution=21)
        assert np.array_equal(got, ORACLES[kind](constants, sample, grid, 21))

    def test_poisson2d_recovers_coefficients_from_sensors(self):
        prob = pb.default_problem("poisson2d")
        sample = pb.sample_input(prob, 5)
        grid = pb.eval_grid(prob, 20)
        direct = ev.reference_solution(prob, sample, grid)
        stripped = type(sample)(sample.sensor_xs, sample.values,
                                {"kind": "bitrig"})
        recovered = ev.reference_solution(prob, stripped, grid)
        assert np.abs(direct - recovered).max() < 1e-9

    def test_antiderivative_reference_is_integral(self):
        prob = pb.default_problem("antiderivative")
        from opstab.sampling import FunctionSample
        xs = prob.sensors
        sample = FunctionSample(xs, np.cos(np.pi * xs))
        grid = pb.eval_grid(prob)
        u = ev.reference_solution(prob, sample, grid)
        # limited by linear interpolation between the 50 sensors
        assert np.abs(u - np.sin(np.pi * grid) / np.pi).max() < 2e-4
