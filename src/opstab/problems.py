"""Problem definitions: residual operators, collocation layouts, losses.

Each problem kind is one Kind entry in REGISTRY: its defaults, valid
transforms, coordinate dimension, residual operator (built from exact
network derivatives), boundary/initial penalty terms, sensor layout and
reference oracle. The loss builders run identically on plain numpy
arrays (fast evaluation, attacks) and on tape variables (training), so
the same code path is exercised everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from . import solvers as sv
from .sampling import (FunctionSample, GrfSpec, hammersley_interior,
                       rescale_to_range, sample_bitrig, sample_grf,
                       sample_polynomial_deg3)


class ProblemError(ValueError):
    """Invalid problem description or out-of-contract query."""


@dataclass(frozen=True)
class SamplerSpec:
    """Which input-function distribution feeds a problem."""

    kind: str  # a key of SAMPLERS
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
        if self.kind not in REGISTRY:
            raise ProblemError(f"unknown problem kind {self.kind!r}")
        for name in self.entry.constants:
            if name not in self.constants:
                raise ProblemError(f"{self.kind} requires constant {name!r}")
        if self.sensor_count < 1:
            raise ProblemError("sensor_count must be positive")
        sensor_grid(self)  # the layout rejects counts it cannot hold

    @property
    def entry(self) -> Kind:
        return REGISTRY[self.kind]

    @property
    def coord_dim(self):
        return self.entry.coord_dim


def default_problem(kind: str, **overrides) -> ProblemSpec:
    if kind not in REGISTRY:
        raise ProblemError(f"unknown problem kind {kind!r}")
    entry = REGISTRY[kind]
    cfg = dict(sensor_count=entry.sensor_count,
               collocation_counts=entry.collocation_counts,
               constants=dict(entry.constants), sampler=entry.sampler)
    cfg.update(overrides)
    return ProblemSpec(kind=kind, **cfg)


def default_arch(problem: ProblemSpec, width: int = 128, depth: int = 3,
                 transform: Optional[str] = None) -> dn.ArchSpec:
    allowed = problem.entry.transforms
    if transform is None:
        transform = allowed[0]
    elif transform not in allowed:
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
    """The kind's sensor coordinates: (m,) in 1-d, (m, 2) on a 2-d grid."""
    key = (problem.kind, problem.sensor_count)
    grid = _SENSOR_GRID_CACHE.get(key)
    if grid is None:
        grid = problem.entry.sensors(problem.sensor_count)
        grid.setflags(write=False)
        _SENSOR_GRID_CACHE[key] = grid
    return grid


def _uniform_sensors(m: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, m)


def _interior_tensor_sensors(m: int) -> np.ndarray:
    """g x g interior tensor grid, x varying fastest: the sine basis is
    invertible there, so perturbed sensor values still determine an
    exact solution."""
    g = int(round(np.sqrt(m)))
    if g * g != m:
        raise ProblemError(f"sensor_count {m} is not a square; the sensors "
                           "form a g x g grid")
    axis = np.arange(1, g + 1) / (g + 1)
    gx, gy = np.meshgrid(axis, axis)
    return np.column_stack([gx.ravel(), gy.ravel()])


def eval_grid(problem: ProblemSpec, n: Optional[int] = None) -> np.ndarray:
    """Uniform evaluation grid: (n,) in 1-d, flattened (n*n, 2) in 2-d."""
    axis = np.linspace(0.0, 1.0, n or problem.entry.eval_n)
    if problem.coord_dim == 1:
        return axis
    ga, gb = np.meshgrid(axis, axis)
    return np.column_stack([ga.ravel(), gb.ravel()])


def make_collocation(problem: ProblemSpec) -> CollocationSet:
    """Deterministic layout: low-discrepancy interior, uniform edges."""
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


def _draw_grf(spec: SamplerSpec, xs, seed):
    sample = sample_grf(GrfSpec(spec.length_scale, spec.variance), xs, seed)
    if spec.rescale is not None:
        sample = rescale_to_range(sample, *spec.rescale)
    return sample


def _draw_bitrig(spec: SamplerSpec, xs, seed):
    coeffs, sample = sample_bitrig(spec.modes, spec.modes, xs, seed)
    sample.meta["coeffs"] = coeffs
    return sample


# input-function distributions, keyed by SamplerSpec.kind
SAMPLERS = {
    "grf": _draw_grf,
    "poly3": lambda spec, xs, seed: sample_polynomial_deg3(spec.coeff_range,
                                                           xs, seed),
    "bitrig": _draw_bitrig,
}


def sample_input(problem: ProblemSpec, seed: int) -> FunctionSample:
    """One draw from the problem's input-function distribution."""
    spec = problem.sampler
    if spec.kind not in SAMPLERS:
        raise ProblemError(f"unknown sampler kind {spec.kind!r}")
    return SAMPLERS[spec.kind](spec, sensor_grid(problem), seed)


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
    """Interpolation matrix A with f(points) = f_sensor_values @ A.T.

    On 1-d sensors the source depends on x (the first coordinate) only.
    """
    xs = sensor_grid(problem)
    if xs.ndim == 2:
        return interp_matrix_2d(xs, points)
    return interp_matrix_1d(xs, points[:, 0] if points.ndim == 2 else points)


# --------------------------------------------------------------------------
# coordinate jets of the predicted solution
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# residual operators, boundary/initial rules and reference oracles
# --------------------------------------------------------------------------
# Each residual records its tape nodes in a fixed order (the jets, then
# the source where it stands); keep it, because the reverse sweep adds a
# node's gradient contributions in tape order.

def _antiderivative_residual(pred, source, c, points):
    _, du, _ = pred.jet(points, 0, 1)
    return ad.sub(du, source(points))


def _poisson1d_residual(pred, source, c, points):
    _, _, d2u = pred.jet(points, 0, 2)
    src = source(points)
    return ad.sub(ad.neg(d2u), src)


def _poisson2d_residual(pred, source, c, points):
    _, _, uxx = pred.jet(points, 0, 2)
    _, _, uyy = pred.jet(points, 1, 2)
    src = source(points)
    return ad.sub(ad.neg(ad.add(uxx, uyy)), src)


def _helmholtz_residual(pred, source, c, points):
    u, _, d2u = pred.jet(points, 0, 2)
    src = source(points)
    return ad.sub(ad.add(ad.neg(d2u), ad.mul(c["shift"], u)), src)


def _heat_ic_residual(pred, source, c, points):
    _, _, uxx = pred.jet(points, 0, 2)
    _, ut, _ = pred.jet(points, 1, 1)
    return ad.sub(ut, ad.mul(c["alpha"], uxx))


def _heat_source_residual(pred, source, c, points):
    return ad.sub(_heat_ic_residual(pred, source, c, points), source(points))


def _diffrec_source_residual(pred, source, c, points):
    u, _, uxx = pred.jet(points, 0, 2)
    _, ut, _ = pred.jet(points, 1, 1)
    src = source(points)
    react = ad.mul(c["reaction"], ad.square(u))
    return ad.sub(ad.sub(ad.sub(ut, ad.mul(c["diffusion"], uxx)), react), src)


def _diffrec_coeff_residual(pred, source, c, points):
    u, _, uxx = pred.jet(points, 0, 2)
    _, ut, _ = pred.jet(points, 1, 1)
    react = ad.mul(source(points), ad.square(u))
    fixed_src = np.sin(np.pi * points[:, 0])
    return ad.sub(ad.add(ad.sub(ut, ad.mul(c["diffusion"], uxx)), react),
                  fixed_src)


def _value(pred, source, points):
    """u = 0 there."""
    return pred.plain(points)


def _neumann(pred, source, points):
    """u_x = 0 there."""
    _, du, _ = pred.jet(points, 0, 1)
    return du


def _equals_input(pred, source, points):
    """u = f there."""
    u = pred.plain(points)
    return ad.sub(u, source(points))


def _bitrig_coeffs_from_sensors(problem: ProblemSpec,
                                values: np.ndarray) -> np.ndarray:
    """Invert the sine basis on the interior sensor grid."""
    modes = problem.sampler.modes
    sensors = sensor_grid(problem)
    basis = np.column_stack([
        (np.sin((r + 1) * np.pi * sensors[:, 0])
         * np.sin((s + 1) * np.pi * sensors[:, 1]))
        for r in range(modes) for s in range(modes)
    ])
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return coeffs.reshape(modes, modes)


def _poisson2d_reference(problem, sample, points, n):
    coeffs = sample.meta.get("coeffs")
    if coeffs is None:
        coeffs = _bitrig_coeffs_from_sensors(problem, sample.values)
    return sv.solve_poisson_2d_analytic(coeffs, points).values


def _heat_reference(problem, sample, points, n):
    return sv.solve_heat_fd(problem.kind, sample, problem.constants["alpha"],
                            n, n).eval_at(points)


# --------------------------------------------------------------------------
# the registry: one entry per problem kind
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """Everything opstab knows about one problem kind.

    residual(pred, source, constants, points) is the interior residual
    block; boundary(pred, source, points) and initial(pred, source,
    points) are the boundary and initial-condition mismatches, where
    source(points) is the input function interpolated onto points.
    reference(problem, sample, points, n) is the classical oracle at
    resolution n. sensors(sensor_count) lays out the sensors.
    """

    name: str
    sensor_count: int
    collocation_counts: tuple  # (interior, boundary, initial)
    sampler: SamplerSpec
    constants: dict  # name -> default; exactly the constants the kind takes
    transforms: tuple  # valid hard-constraint transforms, default first
    coord_dim: int
    eval_n: int  # default evaluation-grid points per axis
    residual: Callable
    reference: Callable
    boundary: Callable = _value
    initial: Callable = _value
    sensors: Callable = _uniform_sensors


_SPACE_TIME = dict(sensor_count=100, collocation_counts=(200, 40, 20),
                   coord_dim=2, eval_n=100)

REGISTRY = {entry.name: entry for entry in (
    Kind("antiderivative", sensor_count=50, collocation_counts=(20, 0, 1),
         sampler=SamplerSpec("grf", length_scale=0.2), constants={},
         transforms=("none",), coord_dim=1, eval_n=50,
         residual=_antiderivative_residual,
         reference=lambda problem, sample, points, n:
             sv.solve_ode_rk45(sample, points).values),
    Kind("poisson1d", sensor_count=100, collocation_counts=(100, 2, 0),
         sampler=SamplerSpec("poly3"), constants={},
         transforms=("none", "dirichlet_1d"), coord_dim=1, eval_n=100,
         residual=_poisson1d_residual,
         reference=lambda problem, sample, points, n:
             sv.solve_poisson_1d_fd(sample, n).eval_at(points)),
    Kind("poisson2d", sensor_count=100, collocation_counts=(10000, 0, 0),
         sampler=SamplerSpec("bitrig", modes=10), constants={},
         transforms=("dirichlet_2d_space", "none"), coord_dim=2, eval_n=100,
         residual=_poisson2d_residual, reference=_poisson2d_reference,
         sensors=_interior_tensor_sensors),
    Kind("helmholtz_neumann", sensor_count=100, collocation_counts=(100, 2, 0),
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"shift": 2.0}, transforms=("none",), coord_dim=1,
         eval_n=100, residual=_helmholtz_residual, boundary=_neumann,
         reference=lambda problem, sample, points, n:
             sv.solve_helmholtz_neumann_fd(
                 sample, n, shift=problem.constants["shift"]).eval_at(points)),
    Kind("heat_ic", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=1.0),
         constants={"alpha": 0.01}, transforms=("none",),
         residual=_heat_ic_residual, initial=_equals_input,
         reference=_heat_reference),
    Kind("heat_source", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"alpha": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=_heat_source_residual, reference=_heat_reference),
    Kind("diffrec_source", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"diffusion": 0.01, "reaction": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=_diffrec_source_residual,
         reference=lambda problem, sample, points, n:
             sv.solve_diffusion_reaction(
                 sample, "source", problem.constants["diffusion"],
                 problem.constants["reaction"], n, n).eval_at(points)),
    Kind("diffrec_coeff", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=1.4, rescale=(1.0, 5.0)),
         constants={"diffusion": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=_diffrec_coeff_residual,
         reference=lambda problem, sample, points, n:
             sv.solve_diffusion_reaction(
                 sample, "coefficient", problem.constants["diffusion"], 0.0,
                 n, n).eval_at(points)),
)}

KINDS = tuple(REGISTRY)


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


def _source(problem: ProblemSpec, f_rows):
    """points -> the input rows interpolated onto points, (batch, n)."""
    return lambda points: ad.matmul(f_rows, _source_matrix(problem, points).T)


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
    entry, source = problem.entry, _source(problem, f_rows)
    blocks = {"physics": entry.residual(pred, source, problem.constants,
                                        colloc.interior)}
    if len(colloc.boundary) and "bc" not in enforced:
        blocks["bc"] = entry.boundary(pred, source, colloc.boundary)
    if len(colloc.initial) and "ic" not in enforced:
        blocks["ic"] = entry.initial(pred, source, colloc.initial)
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
    res = problem.entry.residual(pred, _source(problem, rows),
                                 problem.constants, pts)
    return np.asarray(res).reshape(-1) if np.ndim(res) <= 1 else np.asarray(res)[0]
