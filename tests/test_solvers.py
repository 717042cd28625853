import ast
import re
from pathlib import Path

import numpy as np
import pytest

from opstab import problems as pb
from opstab import solvers as sv


def slope(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


def interpolant(xs, values):
    return lambda x: np.interp(x, xs, values)


def constant(c):
    return lambda x: np.full_like(x, c)


class TestAntiderivative:
    def test_linear_forcing_exact(self):
        xs = np.linspace(0, 1, 50)
        grid = np.linspace(0, 1, 37)
        sol = sv.solve_antiderivative(xs, 2 * xs, grid)
        assert np.abs(sol.values - grid ** 2).max() < 1e-14

    def test_one_sensor_spike(self):
        xs = np.linspace(0, 1, 50)
        spike = np.zeros(50)
        spike[25] = 1.0
        grid = np.linspace(0, 1, 50)
        sol = sv.solve_antiderivative(xs, spike, grid)
        # the hat between sensors 24 and 26 has area 1/49
        assert sol.values.max() == pytest.approx(1 / 49, rel=1e-14)
        assert np.all(np.diff(sol.values) >= 0)

    def test_matches_fine_step_integration(self):
        from scipy.integrate import solve_ivp

        xs = np.linspace(0, 1, 50)
        values = np.random.default_rng(0).standard_normal(50)
        grid = np.linspace(0, 1, 23)
        ivp = solve_ivp(lambda t, y: [np.interp(t, xs, values)],
                        (0.0, 1.0), [0.0], t_eval=grid, atol=1e-12,
                        rtol=1e-12, max_step=0.25 / 49)
        sol = sv.solve_antiderivative(xs, values, grid)
        assert np.abs(sol.values - ivp.y[0]).max() < 1e-9


class TestPoisson1d:
    def test_sine_source_error_bound(self):
        sol = sv.solve_poisson_1d_fd(lambda x: np.pi ** 2 * np.sin(np.pi * x),
                                     1001)
        exact = np.sin(np.pi * np.linspace(0, 1, 1001))
        assert np.abs(sol.values - exact).max() <= 1e-5

    def test_zero_source(self):
        sol = sv.solve_poisson_1d_fd(lambda x: np.zeros_like(x), 101)
        assert np.abs(sol.values).max() == 0.0

    def test_superposition(self):
        xs = np.linspace(0, 1, 80)
        rng = np.random.default_rng(1)
        v1, v2 = rng.standard_normal(80), rng.standard_normal(80)
        s1 = sv.solve_poisson_1d_fd(interpolant(xs, v1), 201).values
        s2 = sv.solve_poisson_1d_fd(interpolant(xs, v2), 201).values
        s12 = sv.solve_poisson_1d_fd(interpolant(xs, v1 + v2), 201).values
        assert np.abs(s12 - (s1 + s2)).max() < 1e-12

    def test_second_order_convergence(self):
        exact_fn = lambda x: np.sin(np.pi * x)
        errs, hs = [], []
        for n in (51, 101, 201):
            sol = sv.solve_poisson_1d_fd(
                lambda x: np.pi ** 2 * np.sin(np.pi * x), n)
            errs.append(np.abs(sol.values - exact_fn(np.linspace(0, 1, n))).max())
            hs.append(1 / (n - 1))
        assert abs(slope(np.array(hs), np.array(errs)) - 2.0) < 0.3

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            sv.solve_poisson_1d_fd(lambda x: x, 2)


class TestHelmholtzNeumann:
    def test_constant_solution(self):
        sol = sv.solve_helmholtz_neumann_fd(lambda x: 2 * np.ones_like(x),
                                            101, 2.0)
        assert np.abs(sol.values - 1.0).max() < 1e-12

    def test_cosine_solution(self):
        sol = sv.solve_helmholtz_neumann_fd(
            lambda x: (2 + np.pi ** 2) * np.cos(np.pi * x), 1001, 2.0)
        exact = np.cos(np.pi * np.linspace(0, 1, 1001))
        assert np.abs(sol.values - exact).max() <= 1e-4

    def test_linearity(self):
        xs = np.linspace(0, 1, 70)
        rng = np.random.default_rng(2)
        v1, v2 = rng.standard_normal(70), rng.standard_normal(70)
        s12 = sv.solve_helmholtz_neumann_fd(interpolant(xs, v1 + v2), 201,
                                            2.0).values
        s1 = sv.solve_helmholtz_neumann_fd(interpolant(xs, v1), 201, 2.0).values
        s2 = sv.solve_helmholtz_neumann_fd(interpolant(xs, v2), 201, 2.0).values
        assert np.abs(s12 - (s1 + s2)).max() < 1e-12

    def test_second_order_convergence(self):
        errs, hs = [], []
        for n in (51, 101, 201):
            sol = sv.solve_helmholtz_neumann_fd(
                lambda x: (2 + np.pi ** 2) * np.cos(np.pi * x), n, 2.0)
            exact = np.cos(np.pi * np.linspace(0, 1, n))
            errs.append(np.abs(sol.values - exact).max())
            hs.append(1 / (n - 1))
        assert abs(slope(np.array(hs), np.array(errs)) - 2.0) < 0.3


class TestPoisson2dAnalytic:
    def test_single_mode_center_value(self):
        sol = sv.solve_poisson_2d_analytic(np.ones((1, 1)),
                                           np.array([[0.5, 0.5]]))
        assert sol.values[0] == pytest.approx(1.0 / (2 * np.pi ** 2), rel=1e-14)

    def test_boundary_values_zero(self):
        edge = np.linspace(0, 1, 50)
        pts = np.column_stack([np.zeros(50), edge])
        coeffs = np.random.default_rng(0).standard_normal((5, 5))
        sol = sv.solve_poisson_2d_analytic(coeffs, pts)
        assert np.abs(sol.values).max() < 1e-12

    def test_five_point_stencil_recovers_source(self):
        n = 401
        axis = np.linspace(0, 1, n)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        coeffs = np.random.default_rng(3).standard_normal((3, 3))
        u = sv.solve_poisson_2d_analytic(coeffs, pts).values.reshape(n, n)
        h = axis[1] - axis[0]
        lap = (u[1:-1, :-2] + u[1:-1, 2:] + u[:-2, 1:-1] + u[2:, 1:-1]
               - 4 * u[1:-1, 1:-1]) / h ** 2
        from opstab.sampling import bitrig_values
        f = bitrig_values(coeffs[None], pts).reshape(n, n)
        assert np.abs(-lap - f[1:-1, 1:-1]).max() < 1e-3


class TestHeat:
    def test_ic_mode_matches_separated_solution(self):
        sol = sv.solve_heat_fd(lambda x: np.sin(np.pi * x), np.zeros_like,
                               0.01, 401, 401)
        x, t = np.meshgrid(np.linspace(0, 1, 401), np.linspace(0, 1, 401))
        exact = np.exp(-0.01 * np.pi ** 2 * t) * np.sin(np.pi * x)
        assert np.abs(sol.values - exact).max() <= 1e-4

    def test_source_mode_zero_forcing(self):
        sol = sv.solve_heat_fd(np.zeros_like, np.zeros_like, 0.01, 101, 101)
        assert np.abs(sol.values).max() == 0.0

    def test_long_time_reaches_elliptic_steady_state(self):
        f = lambda x: 0.01 * np.sin(np.pi * x)
        sol = sv.solve_heat_fd(np.zeros_like, f, 0.01, 201, 2001, t_final=50.0)
        steady = sv.solve_poisson_1d_fd(lambda x: f(x) / 0.01, 201)
        assert np.abs(sol.values[-1] - steady.values).max() < 1e-3

    def test_second_order_convergence(self):
        errs, hs = [], []
        for n in (51, 101, 201):
            sol = sv.solve_heat_fd(lambda x: np.sin(np.pi * x), np.zeros_like,
                                   0.01, n, n)
            x, t = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
            exact = np.exp(-0.01 * np.pi ** 2 * t) * np.sin(np.pi * x)
            errs.append(np.abs(sol.values - exact).max())
            hs.append(1 / (n - 1))
        assert abs(slope(np.array(hs), np.array(errs)) - 2.0) < 0.3


def dense_tridiagonal(off, diag, n):
    return (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, off), 1)
            + np.diag(np.full(n - 1, off), -1))


def dense_crank_nicolson(u0, src, r, dt, nt):
    """Reference march: one dense np.linalg.solve per time step."""
    a = dense_tridiagonal(-0.5 * r, 1.0 + r, len(u0) - 2)
    out = np.zeros((nt, len(u0)))
    out[0, 1:-1] = u0[1:-1]
    for n in range(1, nt):
        u = out[n - 1]
        rhs = u[1:-1] + 0.5 * r * (u[:-2] - 2.0 * u[1:-1] + u[2:]) + dt * src[1:-1]
        out[n, 1:-1] = np.linalg.solve(a, rhs)
    return out


def dense_picard(forcing, reaction, diffusion, dt, nt, h, tol=1e-10):
    """Reference march: implicit Euler plus Picard, dense solves."""
    nx = len(forcing)
    s = diffusion * dt / (h * h)
    a = dense_tridiagonal(-s, 1.0 + 2.0 * s, nx - 2)
    out = np.zeros((nt, nx))
    for n in range(1, nt):
        u = out[n - 1, 1:-1]
        prev = u
        for _ in range(50):
            rhs = u + dt * (reaction[1:-1] * prev * prev + forcing[1:-1])
            inner = np.linalg.solve(a, rhs)
            done = np.max(np.abs(inner - prev)) < tol
            prev = inner
            if done:
                break
        out[n, 1:-1] = prev
    return out


def bump(x):
    return np.sin(np.pi * x) + 0.5 * x


def ramp(x):
    return 1.0 + 4.0 * x


class TestBandedMarches:
    """The LAPACK tridiagonal marches against dense solves at nx = 21."""

    nx = 21
    x = np.linspace(0.0, 1.0, nx)

    @pytest.mark.parametrize("initial,source", [(bump, np.zeros_like),
                                                (np.zeros_like, bump)],
                             ids=["heat_ic", "heat_source"])
    def test_crank_nicolson(self, initial, source):
        alpha, nt = 0.05, 31
        sol = sv.solve_heat_fd(initial, source, alpha, self.nx, nt)
        dt, h = 1.0 / (nt - 1), 1.0 / (self.nx - 1)
        want = dense_crank_nicolson(initial(self.x), source(self.x),
                                    alpha * dt / h ** 2, dt, nt)
        assert np.abs(sol.values - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "forcing,reaction",
        [(ramp, constant(0.5)),
         (lambda x: np.sin(np.pi * x), lambda x: -ramp(x))],
        ids=["source", "coefficient"])
    def test_implicit_euler_picard(self, forcing, reaction):
        nt = 31
        sol = sv.solve_diffusion_reaction(forcing, reaction, 0.02, self.nx, nt)
        want = dense_picard(forcing(self.x), reaction(self.x), 0.02,
                            1.0 / (nt - 1), nt, 1.0 / (self.nx - 1))
        assert np.abs(sol.values - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["poisson1d", "helmholtz_neumann"])
    def test_elliptic(self, kind):
        f = lambda x: np.cos(3.0 * x) + x
        inv_h2 = (self.nx - 1) ** 2
        lap = (np.diag(np.full(self.nx, 2.0 * inv_h2))
               - np.diag(np.full(self.nx - 1, inv_h2), 1)
               - np.diag(np.full(self.nx - 1, inv_h2), -1))
        if kind == "poisson1d":
            got = sv.solve_poisson_1d_fd(f, self.nx).values[1:-1]
            want = np.linalg.solve(lap[1:-1, 1:-1], f(self.x[1:-1]))
        else:
            got = sv.solve_helmholtz_neumann_fd(f, self.nx, 2.0).values
            lap[0, 1] = lap[-1, -2] = -2.0 * inv_h2  # ghost-point closure
            want = np.linalg.solve(lap + 2.0 * np.eye(self.nx), f(self.x))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_picard_error_names_the_failed_step(self):
        with pytest.raises(sv.PicardError, match="time step 1$") as err:
            sv.solve_diffusion_reaction(lambda x: np.sin(np.pi * x),
                                        constant(0.01), 0.01, self.nx, 11,
                                        max_picard=1)
        assert err.value.step == 1


class TestDiffusionReaction:
    def test_zero_forcing_source_mode(self):
        sol = sv.solve_diffusion_reaction(np.zeros_like, constant(0.01),
                                          0.01, 101, 101)
        assert np.abs(sol.values).max() == 0.0

    def test_reaction_free_matches_heat_in_the_time_limit(self):
        # identical spatial operator, so the difference is pure time
        # discretization: first-order implicit Euler vs Crank-Nicolson
        f = lambda x: np.sin(np.pi * x)
        nx, nt = 101, 200_001
        a = sv.solve_diffusion_reaction(f, np.zeros_like, 0.01, nx, nt)
        b = sv.solve_heat_fd(np.zeros_like, f, 0.01, nx, nt)
        assert np.abs(a.values[-1] - b.values[-1]).max() < 1e-6

    def test_self_convergence_rate(self):
        f = lambda x: np.sin(np.pi * x)
        k = constant(0.01)
        fine = sv.solve_diffusion_reaction(f, k, 0.01, 321, 321)
        coarse = sv.solve_diffusion_reaction(f, k, 0.01, 81, 81)
        halved = sv.solve_diffusion_reaction(f, k, 0.01, 161, 161)
        pts = np.column_stack([np.linspace(0.1, 0.9, 30), np.full(30, 1.0)])
        e_coarse = np.abs(coarse.eval_at(pts) - fine.eval_at(pts)).max()
        e_halved = np.abs(halved.eval_at(pts) - fine.eval_at(pts)).max()
        assert e_coarse / e_halved >= 1.8

    def test_coefficient_mode_runs_and_is_bounded(self):
        # a negative reaction -k(x), k in [1, 5], driven by sin(pi x)
        sol = sv.solve_diffusion_reaction(lambda x: np.sin(np.pi * x),
                                          lambda x: -ramp(x), 0.01, 101, 101)
        assert np.all(np.isfinite(sol.values))
        assert sol.values.max() > 0

    def test_determinism(self):
        f = lambda x: np.sin(2 * np.pi * x)
        a = sv.solve_diffusion_reaction(f, constant(0.01), 0.01, 81, 81)
        b = sv.solve_diffusion_reaction(f, constant(0.01), 0.01, 81, 81)
        assert np.array_equal(a.values, b.values)


class TestGridSolution:
    def test_1d_interpolation(self):
        sol = sv.GridSolution(np.linspace(0, 1, 11), np.linspace(0, 2, 11))
        assert sol.eval_at([0.25]) == pytest.approx(0.5, abs=1e-15)

    def test_bilinear_interpolation(self):
        x_axis = np.linspace(0, 1, 5)
        t_axis = np.linspace(0, 1, 3)
        xg, tg = np.meshgrid(x_axis, t_axis)
        values = 2 * xg + 3 * tg
        sol = sv.GridSolution((x_axis, t_axis), values)
        pts = np.array([[0.3, 0.4], [0.9, 0.1]])
        assert np.allclose(sol.eval_at(pts), 2 * pts[:, 0] + 3 * pts[:, 1],
                           rtol=0, atol=1e-14)


def test_solvers_know_no_problem_kind():
    """solvers.py names no kind in a string and takes no kind or mode
    argument: each registry entry hands its oracle the profiles."""
    tree = ast.parse(Path(sv.__file__).read_text())
    named = {word for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str)
             for word in re.findall(r"\w+", node.value)}
    assert named & set(pb.KINDS) == set()
    params = {arg.arg for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              for arg in node.args.args + node.args.kwonlyargs}
    assert params & {"problem_kind", "mode", "k_const"} == set()
