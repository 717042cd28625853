"""Problem definitions: residual operators, collocation layouts, losses.

One entry per experiment family. Each problem knows its residual operator
(built from exact network derivatives), its boundary/initial penalty
terms, its collocation layout, and which input-function sampler feeds it.
The loss builders run identically on plain numpy arrays (fast evaluation,
attacks) and on tape variables (training), so the same code path is
exercised everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from .sampling import (FunctionSample, GrfSpec, hammersley_interior,
                       rescale_to_range, sample_bitrig, sample_grf,
                       sample_polynomial_deg3)

KINDS = (
    "antiderivative",
    "poisson1d",
    "poisson2d",
    "helmholtz_neumann",
    "heat_ic",
    "heat_source",
    "diffrec_source",
    "diffrec_coeff",
)

_TIME_DEPENDENT = ("heat_ic", "heat_source", "diffrec_source", "diffrec_coeff")

# transforms that are mathematically valid per problem (the first entry is
# the default); a transform may only be configured if the constraint it
# hard-codes matches the problem's actual boundary/initial conditions
ALLOWED_TRANSFORMS = {
    "antiderivative": ("none",),
    "poisson1d": ("none", "dirichlet_1d"),
    "poisson2d": ("dirichlet_2d_space", "none"),
    "helmholtz_neumann": ("none",),
    "heat_ic": ("none",),
    "heat_source": ("none", "zero_ic_dirichlet_bc"),
    "diffrec_source": ("none", "zero_ic_dirichlet_bc"),
    "diffrec_coeff": ("none", "zero_ic_dirichlet_bc"),
}


class ProblemError(ValueError):
    """Invalid problem description or out-of-contract query."""


@dataclass(frozen=True)
class SamplerSpec:
    """Which input-function distribution feeds a problem."""

    kind: str  # grf | poly3 | bitrig
    length_scale: float = 0.2
    variance: float = 1.0
    coeff_range: tuple = (-1.0, 1.0)
    modes: int = 10
    rescale: Optional[tuple] = None


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    sensor_count: int
    collocation_counts: tuple  # (interior, boundary, initial)
    constants: dict = field(default_factory=dict)
    sampler: SamplerSpec = SamplerSpec("grf")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ProblemError(f"unknown problem kind {self.kind!r}")
        for name in _REQUIRED_CONSTANTS[self.kind]:
            if name not in self.constants:
                raise ProblemError(f"{self.kind} requires constant {name!r}")
        if self.kind == "poisson2d":
            g = int(round(np.sqrt(self.sensor_count)))
            if g * g != self.sensor_count:
                raise ProblemError("poisson2d sensor_count must be a square")

    @property
    def coord_dim(self):
        return 2 if self.kind in _TIME_DEPENDENT or self.kind == "poisson2d" else 1


_REQUIRED_CONSTANTS = {
    "antiderivative": (),
    "poisson1d": (),
    "poisson2d": (),
    "helmholtz_neumann": ("shift",),
    "heat_ic": ("alpha",),
    "heat_source": ("alpha",),
    "diffrec_source": ("diffusion", "reaction"),
    "diffrec_coeff": ("diffusion",),
}

_DEFAULTS = {
    "antiderivative": dict(sensor_count=50, collocation_counts=(20, 0, 1),
                           constants={}, sampler=SamplerSpec("grf", length_scale=0.2)),
    "poisson1d": dict(sensor_count=100, collocation_counts=(100, 2, 0),
                      constants={}, sampler=SamplerSpec("poly3")),
    "poisson2d": dict(sensor_count=100, collocation_counts=(10000, 0, 0),
                      constants={}, sampler=SamplerSpec("bitrig", modes=10)),
    "helmholtz_neumann": dict(sensor_count=100, collocation_counts=(100, 2, 0),
                              constants={"shift": 2.0},
                              sampler=SamplerSpec("grf", length_scale=0.2)),
    "heat_ic": dict(sensor_count=100, collocation_counts=(200, 40, 20),
                    constants={"alpha": 0.01},
                    sampler=SamplerSpec("grf", length_scale=1.0)),
    "heat_source": dict(sensor_count=100, collocation_counts=(200, 40, 20),
                        constants={"alpha": 0.01},
                        sampler=SamplerSpec("grf", length_scale=0.2)),
    "diffrec_source": dict(sensor_count=100, collocation_counts=(200, 40, 20),
                           constants={"diffusion": 0.01, "reaction": 0.01},
                           sampler=SamplerSpec("grf", length_scale=0.2)),
    "diffrec_coeff": dict(sensor_count=100, collocation_counts=(200, 40, 20),
                          constants={"diffusion": 0.01},
                          sampler=SamplerSpec("grf", length_scale=1.4,
                                              rescale=(1.0, 5.0))),
}


def default_problem(kind: str, **overrides) -> ProblemSpec:
    if kind not in _DEFAULTS:
        raise ProblemError(f"unknown problem kind {kind!r}")
    cfg = dict(_DEFAULTS[kind])
    cfg.update(overrides)
    return ProblemSpec(kind=kind, **cfg)


def default_arch(problem: ProblemSpec, width: int = 128, depth: int = 3,
                 transform: Optional[str] = None) -> dn.ArchSpec:
    if transform is None:
        transform = ALLOWED_TRANSFORMS[problem.kind][0]
    elif transform not in ALLOWED_TRANSFORMS[problem.kind]:
        raise ProblemError(
            f"transform {transform!r} is invalid for {problem.kind}")
    return dn.ArchSpec(
        branch_widths=(problem.sensor_count,) + (width,) * depth,
        trunk_widths=(problem.coord_dim,) + (width,) * depth,
        transform=transform,
    )


# --------------------------------------------------------------------------
# grids and collocation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CollocationSet:
    """Interior, boundary, and initial-time points for one problem."""

    interior: np.ndarray  # (n_int, d)
    boundary: np.ndarray  # (n_bc, d)
    initial: np.ndarray   # (n_ic, d)


_SENSOR_GRID_CACHE = {}


def sensor_grid(problem: ProblemSpec) -> np.ndarray:
    """(m,) uniform sensors, or an (m, 2) uniform grid for poisson2d."""
    key = (problem.kind, problem.sensor_count)
    grid = _SENSOR_GRID_CACHE.get(key)
    if grid is None:
        if problem.kind == "poisson2d":
            # interior tensor grid: the sine basis is invertible there, so
            # perturbed sensor values still determine an exact solution
            g = int(round(np.sqrt(problem.sensor_count)))
            axis = np.arange(1, g + 1) / (g + 1)
            gx, gy = np.meshgrid(axis, axis)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
        else:
            grid = np.linspace(0.0, 1.0, problem.sensor_count)
        grid.setflags(write=False)
        _SENSOR_GRID_CACHE[key] = grid
    return grid


def eval_grid(problem: ProblemSpec, n: Optional[int] = None) -> np.ndarray:
    """Uniform evaluation grid: (n,) in 1-d, flattened (n*n, 2) in 2-d."""
    if problem.coord_dim == 1:
        n = n or (50 if problem.kind == "antiderivative" else 100)
        return np.linspace(0.0, 1.0, n)
    n = n or 100
    axis = np.linspace(0.0, 1.0, n)
    ga, gb = np.meshgrid(axis, axis)
    return np.column_stack([ga.ravel(), gb.ravel()])


def make_collocation(problem: ProblemSpec, seed: int = 0) -> CollocationSet:
    """Deterministic layout: low-discrepancy interior, uniform edges.

    The seed parameter is accepted for interface stability; the layouts
    are fully deterministic.
    """
    n_int, n_bc, n_ic = problem.collocation_counts
    dim = problem.coord_dim
    interior = hammersley_interior(n_int, dim)
    if dim == 1:
        boundary = np.array([[0.0], [1.0]])[:max(0, n_bc)][:n_bc]
        if n_bc not in (0, 2):
            raise ProblemError("1-d problems use 0 or 2 boundary points")
        initial = np.zeros((n_ic, 1))
    else:
        if n_bc % 2:
            raise ProblemError("boundary point count must be even in 2-d")
        if n_bc:
            edge = np.linspace(0.0, 1.0, n_bc // 2)
            boundary = np.concatenate([
                np.column_stack([np.zeros(n_bc // 2), edge]),
                np.column_stack([np.ones(n_bc // 2), edge]),
            ])
        else:
            boundary = np.zeros((0, 2))
        if n_ic:
            initial = np.column_stack([np.linspace(0.0, 1.0, n_ic),
                                       np.zeros(n_ic)])
        else:
            initial = np.zeros((0, 2))
    return CollocationSet(interior, boundary, initial)


def sample_input(problem: ProblemSpec, seed: int) -> FunctionSample:
    """One draw from the problem's input-function distribution."""
    spec = problem.sampler
    xs = sensor_grid(problem)
    if spec.kind == "grf":
        sample = sample_grf(GrfSpec(spec.length_scale, spec.variance), xs, seed)
        if spec.rescale is not None:
            sample = rescale_to_range(sample, *spec.rescale)
        return sample
    if spec.kind == "poly3":
        return sample_polynomial_deg3(spec.coeff_range, xs, seed)
    if spec.kind == "bitrig":
        coeffs, sample = sample_bitrig(spec.modes, spec.modes, xs, seed)
        sample.meta["coeffs"] = coeffs
        return sample
    raise ProblemError(f"unknown sampler kind {spec.kind!r}")


def sample_batch(problem: ProblemSpec, base_seed: int, n: int):
    """Per-sample seeds are base_seed + index."""
    return [sample_input(problem, base_seed + i) for i in range(n)]


# --------------------------------------------------------------------------
# source interpolation
# --------------------------------------------------------------------------

def interp_matrix_1d(sensor_xs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows of piecewise-linear interpolation weights, shape (n, m)."""
    xs = np.asarray(sensor_xs, dtype=np.float64)
    pts = np.clip(np.asarray(points, dtype=np.float64), xs[0], xs[-1])
    idx = np.clip(np.searchsorted(xs, pts) - 1, 0, len(xs) - 2)
    w = (pts - xs[idx]) / (xs[idx + 1] - xs[idx])
    mat = np.zeros((len(pts), len(xs)))
    rows = np.arange(len(pts))
    mat[rows, idx] = 1.0 - w
    mat[rows, idx + 1] = w
    return mat


def interp_matrix_2d(sensor_grid_pts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Bilinear weights from a flattened g x g tensor sensor grid."""
    m = len(sensor_grid_pts)
    g = int(round(np.sqrt(m)))
    axis = np.unique(sensor_grid_pts[:, 0])
    pts = np.asarray(points, dtype=np.float64)
    pts = np.clip(pts, axis[0], axis[-1])
    ix = np.clip(np.searchsorted(axis, pts[:, 0]) - 1, 0, g - 2)
    iy = np.clip(np.searchsorted(axis, pts[:, 1]) - 1, 0, g - 2)
    wx = np.clip((pts[:, 0] - axis[ix]) / (axis[ix + 1] - axis[ix]), 0.0, 1.0)
    wy = np.clip((pts[:, 1] - axis[iy]) / (axis[iy + 1] - axis[iy]), 0.0, 1.0)
    mat = np.zeros((len(pts), m))
    rows = np.arange(len(pts))
    # sensors flattened with x varying fastest: index = iy * g + ix
    mat[rows, iy * g + ix] = (1 - wx) * (1 - wy)
    mat[rows, iy * g + ix + 1] = wx * (1 - wy)
    mat[rows, (iy + 1) * g + ix] = (1 - wx) * wy
    mat[rows, (iy + 1) * g + ix + 1] = wx * wy
    return mat


# keyed by point-set identity; holding the array reference keeps ids stable
_SOURCE_MATRIX_CACHE = {}


def _source_matrix(problem: ProblemSpec, points: np.ndarray) -> np.ndarray:
    """source_matrix, cached for long-lived point sets (collocation)."""
    key = (problem.kind, problem.sensor_count, id(points))
    hit = _SOURCE_MATRIX_CACHE.get(key)
    if hit is not None and hit[0] is points:
        return hit[1]
    mat = source_matrix(problem, points)
    _SOURCE_MATRIX_CACHE[key] = (points, mat)
    return mat


def source_matrix(problem: ProblemSpec, points: np.ndarray) -> np.ndarray:
    """Interpolation matrix A with f(points) = f_sensor_values @ A.T."""
    xs = sensor_grid(problem)
    if problem.kind == "poisson2d":
        return interp_matrix_2d(xs, points)
    if problem.coord_dim == 2:
        # sources depend on x only
        return interp_matrix_1d(xs, points[:, 0])
    return interp_matrix_1d(xs, points[:, 0] if points.ndim == 2 else points)


# --------------------------------------------------------------------------
# loss assembly
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LossBreakdown:
    physics: float
    bc: float
    ic: float
    total: float

    @classmethod
    def from_terms(cls, physics, bc, ic):
        physics, bc, ic = float(physics), float(bc), float(ic)
        return cls(physics, bc, ic, physics + bc + ic)


def _check_domain(points: np.ndarray):
    if points.size and (points.min() < -1e-12 or points.max() > 1.0 + 1e-12):
        raise ProblemError("collocation points outside the unit domain")


def _as_cols(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return np.ascontiguousarray(pts.T)


class _NetPredictor:
    """Jets of a DeepONet's output with respect to its coordinates.

    When trunk_cache (a per-call dict) is supplied and the parameters are
    plain arrays, trunk features and masks are computed once per point
    set and reused; attacks exploit this since only the branch input
    changes between PGD iterations.
    """

    def __init__(self, params, f_rows, trunk_cache=None):
        self.params = params
        self.branch_out = dn.branch_apply(params, f_rows)
        self.cache = trunk_cache

    def _trunk_and_mask(self, points, axis, order):
        key = (id(points), axis, order)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None and hit[0] is points:
                return hit[1], hit[2]
        cols = _as_cols(points)
        if order:
            direction = np.zeros_like(cols)
            direction[axis, :] = 1.0
            cols = ad.jet2(cols, direction) if order == 2 else ad.jet1(cols, direction)
        trunk_out = dn.trunk_apply(self.params, cols)
        mask = dn.transform_mask(self.params.arch.transform, cols)
        if self.cache is not None:
            self.cache[key] = (points, trunk_out, mask)
        return trunk_out, mask

    def _merge(self, trunk_out, mask):
        u = ad.add(ad.matmul(self.branch_out, trunk_out),
                   self.params.output_bias)
        if mask is not None:
            u = ad.mul(u, mask)
        return u

    def jet(self, points, axis, order):
        trunk_out, mask = self._trunk_and_mask(points, axis, order)
        u = self._merge(trunk_out, mask)
        return ad.primal_of(u), ad.tangent_of(u), ad.second_of(u)

    def plain(self, points):
        trunk_out, mask = self._trunk_and_mask(points, 0, 0)
        return self._merge(trunk_out, mask)


class _GraphPredictor:
    """Jets of an arbitrary coordinate graph u_fn((dim, n) block) -> values.

    Lets analytic solutions stand in for the network when checking the
    residual operators.
    """

    def __init__(self, u_fn):
        self.u_fn = u_fn

    def jet(self, points, axis, order):
        cols = _as_cols(points)
        direction = np.zeros_like(cols)
        direction[axis, :] = 1.0
        jet = ad.jet2(cols, direction) if order == 2 else ad.jet1(cols, direction)
        u = self.u_fn(jet)
        return ad.primal_of(u), ad.tangent_of(u), ad.second_of(u)

    def plain(self, points):
        return self.u_fn(_as_cols(points))


def _interior_residual(problem: ProblemSpec, pred, f_rows, points: np.ndarray):
    """Residual block (batch, n_points); differentiable in params and f."""
    kind = problem.kind
    const = problem.constants
    if kind == "antiderivative":
        _, du, _ = pred.jet(points, 0, 1)
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        return ad.sub(du, src)
    if kind == "poisson1d":
        _, _, d2u = pred.jet(points, 0, 2)
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        return ad.sub(ad.neg(d2u), src)
    if kind == "poisson2d":
        _, _, uxx = pred.jet(points, 0, 2)
        _, _, uyy = pred.jet(points, 1, 2)
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        return ad.sub(ad.neg(ad.add(uxx, uyy)), src)
    if kind == "helmholtz_neumann":
        u, _, d2u = pred.jet(points, 0, 2)
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        return ad.sub(ad.add(ad.neg(d2u), ad.mul(const["shift"], u)), src)
    if kind in ("heat_ic", "heat_source"):
        u, _, uxx = pred.jet(points, 0, 2)
        _, ut, _ = pred.jet(points, 1, 1)
        diffused = ad.sub(ut, ad.mul(const["alpha"], uxx))
        if kind == "heat_ic":
            return diffused
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        return ad.sub(diffused, src)
    if kind == "diffrec_source":
        u, _, uxx = pred.jet(points, 0, 2)
        _, ut, _ = pred.jet(points, 1, 1)
        src = ad.matmul(f_rows, _source_matrix(problem, points).T)
        react = ad.mul(const["reaction"], ad.square(u))
        return ad.sub(ad.sub(ad.sub(ut, ad.mul(const["diffusion"], uxx)), react), src)
    if kind == "diffrec_coeff":
        u, _, uxx = pred.jet(points, 0, 2)
        _, ut, _ = pred.jet(points, 1, 1)
        kprof = ad.matmul(f_rows, _source_matrix(problem, points).T)
        react = ad.mul(kprof, ad.square(u))
        fixed_src = np.sin(np.pi * points[:, 0])
        return ad.sub(ad.add(ad.sub(ut, ad.mul(const["diffusion"], uxx)), react),
                      fixed_src)
    raise ProblemError(f"unknown problem kind {kind!r}")


def _transform_enforces(transform: str):
    """Loss components a hard-constraint transform already satisfies."""
    return {
        "none": (),
        "dirichlet_1d": ("bc",),
        "dirichlet_2d_space": ("bc",),
        "zero_ic_dirichlet_bc": ("bc", "ic"),
    }[transform]


def loss_blocks(problem: ProblemSpec, params, f_rows, colloc: CollocationSet,
                trunk_cache=None):
    """Raw mismatch blocks keyed "physics"/"bc"/"ic", each (batch, n).

    Components a hard-constraint transform already enforces are omitted.
    params may hold numpy arrays or tape Vars; f_rows is the (batch, m)
    stack of input-function sensor values, numpy or Var. trunk_cache (a
    dict) may be supplied to reuse trunk features across calls when the
    parameters are fixed arrays.
    """
    enforced = _transform_enforces(params.arch.transform)
    pred = _NetPredictor(params, f_rows, trunk_cache=trunk_cache)
    blocks = {"physics": _interior_residual(problem, pred, f_rows,
                                            colloc.interior)}
    if len(colloc.boundary) and "bc" not in enforced:
        if problem.kind == "helmholtz_neumann":
            _, du, _ = pred.jet(colloc.boundary, 0, 1)
            blocks["bc"] = du
        else:
            blocks["bc"] = pred.plain(colloc.boundary)
    if len(colloc.initial) and "ic" not in enforced:
        u_ic = pred.plain(colloc.initial)
        if problem.kind == "heat_ic":
            target = ad.matmul(f_rows, _source_matrix(problem, colloc.initial).T)
            blocks["ic"] = ad.sub(u_ic, target)
        else:
            blocks["ic"] = u_ic
    return blocks


def loss_graph(problem: ProblemSpec, params, f_rows, colloc: CollocationSet):
    """(physics, bc, ic, total) terms; each is a Var when inputs are.

    All penalty terms are plain means of squared mismatches; omitted
    components are exactly 0.0.
    """
    blocks = loss_blocks(problem, params, f_rows, colloc)
    physics = ad.mean(ad.square(blocks["physics"]))
    bc = ad.mean(ad.square(blocks["bc"])) if "bc" in blocks else 0.0
    ic = ad.mean(ad.square(blocks["ic"])) if "ic" in blocks else 0.0
    total = ad.add(ad.add(physics, bc), ic)
    return physics, bc, ic, total


def _stack_batch(problem: ProblemSpec, batch):
    """Validate a batch of (FunctionSample, CollocationSet) pairs."""
    if not batch:
        raise ProblemError("batch must be nonempty")
    colloc = batch[0][1]
    for _, c in batch[1:]:
        if (not np.array_equal(c.interior, colloc.interior)
                or not np.array_equal(c.boundary, colloc.boundary)
                or not np.array_equal(c.initial, colloc.initial)):
            raise ProblemError("all samples in a batch share one collocation set")
    rows = np.stack([np.asarray(s.values, dtype=np.float64) for s, _ in batch])
    if rows.shape[1] != problem.sensor_count:
        raise ProblemError(
            f"expected {problem.sensor_count} sensor values, got {rows.shape[1]}")
    return rows, colloc


def assemble_loss(problem: ProblemSpec, params, batch) -> LossBreakdown:
    """Mean-squared physics/boundary/initial losses for a batch.

    batch: sequence of (FunctionSample, CollocationSet) pairs sharing one
    collocation layout.
    """
    rows, colloc = _stack_batch(problem, batch)
    for pts in (colloc.interior, colloc.boundary, colloc.initial):
        _check_domain(pts)
    physics, bc, ic, _ = loss_graph(problem, params, rows, colloc)
    return LossBreakdown.from_terms(float(np.asarray(physics)),
                                    float(np.asarray(bc)),
                                    float(np.asarray(ic)))


def physics_residual(problem: ProblemSpec, network, f_sample, points) -> np.ndarray:
    """Residual of the governing operator at the given points (numpy).

    network is either trained DeepONetParams or a bare coordinate graph
    u_fn((dim, n) block) -> values, which lets analytic solutions be
    checked against the residual operators directly.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != problem.coord_dim:
        raise ProblemError(
            f"{problem.kind} expects {problem.coord_dim}-d points")
    _check_domain(pts)
    values = np.asarray(
        f_sample.values if isinstance(f_sample, FunctionSample) else f_sample,
        dtype=np.float64)
    rows = values[None, :]
    if isinstance(network, dn.DeepONetParams):
        pred = _NetPredictor(network, rows)
    else:
        pred = _GraphPredictor(network)
    res = _interior_residual(problem, pred, rows, pts)
    return np.asarray(res).reshape(-1) if np.ndim(res) <= 1 else np.asarray(res)[0]
