"""Classical reference solvers used as evaluation oracles.

Each solver solves one family of equations for the profiles it is
handed (callables of x): the exact integral of a piecewise-linear input,
second-order finite differences for the elliptic equations,
Crank-Nicolson for the linear heat equation, and implicit Euler with
Picard iteration for the quadratic diffusion-reaction equation. None
knows a problem kind; each problems.REGISTRY entry hands its oracle the
profiles of its own equation. All are deterministic in their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .sampling import bitrig_values


class SolverError(RuntimeError):
    """Reference solver failed to produce a solution."""


class PicardError(SolverError):
    """Picard iteration failed to converge."""

    def __init__(self, step: int):
        super().__init__(f"Picard iteration did not converge at time step {step}")
        self.step = step


@dataclass
class GridSolution:
    """A solution on a grid.

    grid is a (n,) coordinate vector for 1-d problems, or an
    (x_axis, t_axis) pair for space-time problems (values then has shape
    (nt, nx)).
    """

    grid: Union[np.ndarray, tuple]
    values: np.ndarray

    def eval_at(self, points) -> np.ndarray:
        """Piecewise-(bi)linear interpolation onto arbitrary points."""
        pts = np.asarray(points, dtype=np.float64)
        if isinstance(self.grid, tuple):
            x_axis, t_axis = self.grid
            return _bilinear(x_axis, t_axis, self.values, pts)
        if pts.ndim == 2:
            pts = pts[:, 0]
        return np.interp(pts, np.asarray(self.grid), self.values)


def _bilinear(x_axis, t_axis, values, pts):
    """values (nt, nx) sampled at (x_axis, t_axis); pts (n, 2) as (x, t)."""
    x = np.clip(pts[:, 0], x_axis[0], x_axis[-1])
    t = np.clip(pts[:, 1], t_axis[0], t_axis[-1])
    ix = np.clip(np.searchsorted(x_axis, x) - 1, 0, len(x_axis) - 2)
    it = np.clip(np.searchsorted(t_axis, t) - 1, 0, len(t_axis) - 2)
    wx = (x - x_axis[ix]) / (x_axis[ix + 1] - x_axis[ix])
    wt = (t - t_axis[it]) / (t_axis[it + 1] - t_axis[it])
    v00 = values[it, ix]
    v01 = values[it, ix + 1]
    v10 = values[it + 1, ix]
    v11 = values[it + 1, ix + 1]
    return ((1 - wt) * ((1 - wx) * v00 + wx * v01)
            + wt * ((1 - wx) * v10 + wx * v11))


# --------------------------------------------------------------------------
# individual solvers
# --------------------------------------------------------------------------

def solve_antiderivative(xs, values, points) -> GridSolution:
    """u' = f, u(0) = 0, at points in [0, 1], for f the piecewise-linear
    interpolant of values on sensors xs spanning [0, 1]; exact: the
    trapezoids up to each point's sensor interval, plus the part of that
    interval below the point."""
    x = np.asarray(points, dtype=np.float64)
    cum = np.concatenate(
        [[0.0], np.cumsum(np.diff(xs) * (values[:-1] + values[1:]) / 2)])
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    dx = x - xs[i]
    slope = (values[i + 1] - values[i]) / (xs[i + 1] - xs[i])
    return GridSolution(x, cum[i] + dx * (values[i] + 0.5 * slope * dx))


def _tridiagonal_solver(lower, diag, upper) -> Callable:
    """LU-factor the tridiagonal matrix with sub-diagonal `lower` (n-1,),
    main diagonal `diag` (n,) and super-diagonal `upper` (n-1,) once; the
    returned function solves it for one right-hand side with LAPACK
    (gttrf/gttrs, partial pivoting)."""
    # imported here so that importing opstab does not load scipy
    from scipy.linalg.lapack import dgttrf, dgttrs

    dl, d, du, du2, ipiv, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise SolverError(f"singular tridiagonal matrix (LAPACK info {info})")

    def solve(rhs):
        return dgttrs(dl, d, du, du2, ipiv, rhs)[0]

    return solve


def solve_poisson_1d_fd(f, n_grid: int) -> GridSolution:
    """-u'' = f on [0, 1], u(0) = u(1) = 0; second-order central stencil."""
    if n_grid < 3:
        raise ValueError("need n_grid >= 3")
    x = np.linspace(0.0, 1.0, n_grid)
    h = x[1] - x[0]
    rhs = f(x[1:-1]) * h * h
    off = np.full(n_grid - 3, -1.0)
    u = np.zeros(n_grid)
    u[1:-1] = _tridiagonal_solver(off, np.full(n_grid - 2, 2.0), off)(rhs)
    return GridSolution(x, u)


def solve_helmholtz_neumann_fd(f, n_grid: int, shift: float) -> GridSolution:
    """-u'' + shift*u = f on [0, 1] with u'(0) = u'(1) = 0.

    Second-order interior stencil with ghost-point closure of the Neumann
    ends (u_{-1} = u_1), which keeps the scheme second order throughout.
    """
    if n_grid < 3:
        raise ValueError("need n_grid >= 3")
    x = np.linspace(0.0, 1.0, n_grid)
    h = x[1] - x[0]
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n_grid, 2.0 * inv_h2 + shift)
    lower = np.full(n_grid - 1, -inv_h2)
    upper = np.full(n_grid - 1, -inv_h2)
    upper[0] = -2.0 * inv_h2
    lower[-1] = -2.0 * inv_h2
    return GridSolution(x, _tridiagonal_solver(lower, diag, upper)(f(x)))


def solve_poisson_2d_analytic(coeffs, grid) -> GridSolution:
    """Eigenfunction inversion of -Laplace for bi-trigonometric sources.

    u(x, y) = sum c_rs sin(r pi x) sin(s pi y) / ((r^2 + s^2) pi^2),
    evaluated exactly on the supplied (n, 2) point set.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    r_modes, s_modes = coeffs.shape
    r = np.arange(1, r_modes + 1)[:, None]
    s = np.arange(1, s_modes + 1)[None, :]
    scaled = coeffs / ((r ** 2 + s ** 2) * np.pi ** 2)
    pts = np.asarray(grid, dtype=np.float64)
    return GridSolution(pts, bitrig_values(scaled[None], pts)[0])


def solve_heat_fd(initial, source, alpha: float, nx: int, nt: int,
                  t_final: float = 1.0) -> GridSolution:
    """u_t = alpha u_xx + source(x) on [0,1] x [0,t_final], u = initial(x)
    at t = 0, zero Dirichlet BC.

    Crank-Nicolson stepping, second order in space and time.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.linspace(0.0, 1.0, nx)
    t = np.linspace(0.0, t_final, nt)
    h = x[1] - x[0]
    dt = t[1] - t[0]
    src = source(x)
    r = alpha * dt / (h * h)
    off = np.full(nx - 3, -0.5 * r)
    solve = _tridiagonal_solver(off, np.full(nx - 2, 1.0 + r), off)
    values = np.zeros((nt, nx))
    values[0, 1:-1] = initial(x)[1:-1]
    for n in range(1, nt):
        u = values[n - 1]
        values[n, 1:-1] = solve(u[1:-1] + 0.5 * r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
                                + dt * src[1:-1])
    return GridSolution((x, t), values)


def solve_diffusion_reaction(forcing, reaction, diffusion: float, nx: int,
                             nt: int, picard_tol: float = 1e-10,
                             max_picard: int = 50) -> GridSolution:
    """u_t = D u_xx + reaction(x) u^2 + forcing(x) on [0,1] x [0,1], zero
    IC and BC, D = diffusion.

    Implicit Euler in time with the quadratic term frozen at the previous
    Picard iterate each step; a step's iteration stops once the max-norm
    change of the iterate drops below picard_tol, and PicardError names
    the first step that needed more than max_picard iterations.
    """
    x = np.linspace(0.0, 1.0, nx)
    t = np.linspace(0.0, 1.0, nt)
    h = x[1] - x[0]
    dt = t[1] - t[0]
    s = diffusion * dt / (h * h)
    off = np.full(nx - 3, -s)
    solve = _tridiagonal_solver(off, np.full(nx - 2, 1.0 + 2.0 * s), off)
    react, forced = reaction(x)[1:-1], forcing(x)[1:-1]
    values = np.zeros((nt, nx))
    for n in range(1, nt):
        u = prev = values[n - 1, 1:-1]
        for _ in range(max_picard):
            inner = solve(u + dt * (react * prev * prev + forced))
            delta = np.max(np.abs(inner - prev))
            prev = inner
            if delta < picard_tol:
                break
        else:
            raise PicardError(n)
        values[n, 1:-1] = prev
    return GridSolution((x, t), values)
