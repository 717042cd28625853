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
from .sampling import (FunctionSample, GrfSpec, bitrig_block, grf_block,
                       hammersley_interior, poly3_block, rescale_rows)


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

    def __post_init__(self):
        if not self.length_scale > 0:
            raise ProblemError(
                f"length_scale must be positive, got {self.length_scale}")
        if not self.variance > 0:
            raise ProblemError(f"variance must be positive, got {self.variance}")
        if self.modes < 1:
            raise ProblemError(f"modes must be at least 1, got {self.modes}")
        if not self.coeff_range[0] <= self.coeff_range[1]:
            raise ProblemError(f"coeff_lo must not exceed coeff_hi, got "
                               f"{self.coeff_range}")
        if self.rescale is not None and not self.rescale[0] < self.rescale[1]:
            raise ProblemError(f"rescale_lo must be below rescale_hi, got "
                               f"{self.rescale}")


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    sensor_count: int
    collocation_counts: tuple  # (interior, boundary, initial)
    constants: dict = field(default_factory=dict)
    sampler: SamplerSpec = SamplerSpec("grf")
    # the kind's read-only sensor coordinates: (m,) in 1-d, (m, 2) on a
    # 2-d grid; laid out from kind and sensor_count when the spec is built
    sensors: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in REGISTRY:
            raise ProblemError(f"unknown problem kind {self.kind!r}")
        for name in self.entry.constants:
            if name not in self.constants:
                raise ProblemError(f"{self.kind} requires constant {name!r}")
        if self.sensor_count < 1:
            raise ProblemError("sensor_count must be positive")
        grid = self.entry.sensors(self.sensor_count)  # rejects bad counts
        grid.setflags(write=False)
        object.__setattr__(self, "sensors", grid)
        sampler = self.sampler.kind
        if sampler not in SAMPLERS:
            raise ProblemError(f"sampler: unknown {sampler!r}")
        if (sampler == "bitrig") != (grid.ndim == 2):
            raise ProblemError(f"sampler {sampler!r} does not fit the "
                               f"{grid.ndim}-d sensors of {self.kind}")
        n_int, n_bc, n_ic = self.collocation_counts
        if n_int < 1:
            raise ProblemError(f"interior_points must be at least 1, got {n_int}")
        for name, n in (("boundary_points", n_bc), ("initial_points", n_ic)):
            if n < 0:
                raise ProblemError(f"{name} must be nonnegative, got {n}")
        if self.coord_dim == 1 and n_bc not in (0, 2):
            raise ProblemError(
                f"boundary_points must be 0 or 2 in 1-d, got {n_bc}")
        if n_bc % 2:
            raise ProblemError(
                f"boundary_points must be even in 2-d, got {n_bc}")

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
    """Interior, boundary, and initial-time points for one problem, with
    the source_matrix onto each block, keyed by block name."""

    interior: np.ndarray  # (n_int, d)
    boundary: np.ndarray  # (n_bc, d)
    initial: np.ndarray   # (n_ic, d)
    sources: dict         # "interior"/"boundary"/"initial" -> (n, m)


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
        boundary = np.array([[0.0], [1.0]])[:n_bc]
        initial = np.zeros((n_ic, 1))
    else:
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
    blocks = dict(interior=interior, boundary=boundary, initial=initial)
    return CollocationSet(**blocks, sources={
        name: source_matrix(problem, points) for name, points in blocks.items()})


def _draw_grf(spec: SamplerSpec, xs, seeds):
    values, meta = grf_block(GrfSpec(spec.length_scale, spec.variance), xs,
                             seeds)
    if spec.rescale is not None:
        values = rescale_rows(values, *spec.rescale)
        meta["rescaled_to"] = spec.rescale
    return values, meta


# input-function distributions, keyed by SamplerSpec.kind; each maps
# (spec, sensors, seeds) to (an (n, m) block, its meta), where a meta
# "coeffs" entry holds one coefficient set per row
SAMPLERS = {
    "grf": _draw_grf,
    "poly3": lambda spec, xs, seeds: poly3_block(spec.coeff_range, xs, seeds),
    "bitrig": lambda spec, xs, seeds: bitrig_block(spec.modes, xs, seeds),
}


def sample_input(problem: ProblemSpec, seed: int) -> FunctionSample:
    """One draw from the problem's input-function distribution: the
    one-seed case of sample_batch, with its provenance."""
    spec, xs = problem.sampler, problem.sensors
    values, meta = SAMPLERS[spec.kind](spec, xs, [seed])
    meta = {"kind": spec.kind, "seed": seed, **meta}
    if "coeffs" in meta:
        meta["coeffs"] = meta["coeffs"][0]
    return FunctionSample(xs, values[0], meta)


def sample_batch(problem: ProblemSpec, base_seed: int, n: int) -> np.ndarray:
    """The (n, m) block of n draws; row i is drawn at seed base_seed + i
    and equals sample_input(problem, base_seed + i).values."""
    spec = problem.sampler
    seeds = range(base_seed, base_seed + n)
    return SAMPLERS[spec.kind](spec, problem.sensors, seeds)[0]


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


def source_matrix(problem: ProblemSpec, points: np.ndarray) -> np.ndarray:
    """Interpolation matrix A with f(points) = f_sensor_values @ A.T.

    On 1-d sensors the source depends on x (the first coordinate) only.
    """
    xs = problem.sensors
    if xs.ndim == 2:
        return interp_matrix_2d(xs, points)
    return interp_matrix_1d(xs, points[:, 0] if points.ndim == 2 else points)


# --------------------------------------------------------------------------
# residual operators, boundary/initial rules and reference oracles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One mismatch block: fn(jet, source, constants, points) -> (batch, n).

    jet is the prediction's dn.Jet on points, carrying first derivatives
    along the axes in first and the Laplacian over the axes in laplacian;
    source is the input function interpolated onto points.
    """

    fn: Callable
    first: tuple = ()
    laplacian: tuple = ()


def _antiderivative_residual(jet, source, c, points):
    return ad.sub(jet.first[0], source)


def _poisson_residual(jet, source, c, points):
    return ad.sub(ad.neg(jet.lap), source)


def _helmholtz_residual(jet, source, c, points):
    return ad.sub(ad.add(ad.neg(jet.lap), ad.mul(c["shift"], jet.u)),
                  source)


def _heat_ic_residual(jet, source, c, points):
    return ad.sub(jet.first[1], ad.mul(c["alpha"], jet.lap))


def _heat_source_residual(jet, source, c, points):
    return ad.sub(_heat_ic_residual(jet, source, c, points), source)


def _diffrec_source_residual(jet, source, c, points):
    diffusion = ad.sub(jet.first[1], ad.mul(c["diffusion"], jet.lap))
    react = ad.mul(c["reaction"], ad.square(jet.u))
    return ad.sub(ad.sub(diffusion, react), source)


def _diffrec_coeff_residual(jet, source, c, points):
    diffusion = ad.sub(jet.first[1], ad.mul(c["diffusion"], jet.lap))
    react = ad.mul(source, ad.square(jet.u))
    return ad.sub(ad.add(diffusion, react), np.sin(np.pi * points[:, 0]))


# u = 0 there
_VALUE = Rule(lambda jet, source, c, points: jet.u)
# u_x = 0 there
_NEUMANN = Rule(lambda jet, source, c, points: jet.first[0], first=(0,))
# u = f there
_EQUALS_INPUT = Rule(lambda jet, source, c, points: ad.sub(jet.u, source))


def _bitrig_coeffs_from_sensors(problem: ProblemSpec,
                                values: np.ndarray) -> np.ndarray:
    """Invert the sine basis on the interior sensor grid."""
    modes = problem.sampler.modes
    sensors = problem.sensors
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

    residual, boundary and initial are the Rules of the interior
    residual and the boundary and initial-condition mismatches.
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
    residual: Rule
    reference: Callable
    boundary: Rule = _VALUE
    initial: Rule = _VALUE
    sensors: Callable = _uniform_sensors


_SPACE_TIME = dict(sensor_count=100, collocation_counts=(200, 40, 20),
                   coord_dim=2, eval_n=100)

REGISTRY = {entry.name: entry for entry in (
    Kind("antiderivative", sensor_count=50, collocation_counts=(20, 0, 1),
         sampler=SamplerSpec("grf", length_scale=0.2), constants={},
         transforms=("none",), coord_dim=1, eval_n=50,
         residual=Rule(_antiderivative_residual, first=(0,)),
         reference=lambda problem, sample, points, n:
             sv.solve_antiderivative(sample, points).values),
    Kind("poisson1d", sensor_count=100, collocation_counts=(100, 2, 0),
         sampler=SamplerSpec("poly3"), constants={},
         transforms=("none", "dirichlet_1d"), coord_dim=1, eval_n=100,
         residual=Rule(_poisson_residual, laplacian=(0,)),
         reference=lambda problem, sample, points, n:
             sv.solve_poisson_1d_fd(sample, n).eval_at(points)),
    Kind("poisson2d", sensor_count=100, collocation_counts=(10000, 0, 0),
         sampler=SamplerSpec("bitrig", modes=10), constants={},
         transforms=("dirichlet_2d_space", "none"), coord_dim=2, eval_n=100,
         residual=Rule(_poisson_residual, laplacian=(0, 1)),
         reference=_poisson2d_reference,
         sensors=_interior_tensor_sensors),
    Kind("helmholtz_neumann", sensor_count=100, collocation_counts=(100, 2, 0),
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"shift": 2.0}, transforms=("none",), coord_dim=1,
         eval_n=100, residual=Rule(_helmholtz_residual, laplacian=(0,)),
         boundary=_NEUMANN,
         reference=lambda problem, sample, points, n:
             sv.solve_helmholtz_neumann_fd(
                 sample, n, shift=problem.constants["shift"]).eval_at(points)),
    Kind("heat_ic", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=1.0),
         constants={"alpha": 0.01}, transforms=("none",),
         residual=Rule(_heat_ic_residual, first=(1,), laplacian=(0,)),
         initial=_EQUALS_INPUT,
         reference=_heat_reference),
    Kind("heat_source", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"alpha": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=Rule(_heat_source_residual, first=(1,), laplacian=(0,)),
         reference=_heat_reference),
    Kind("diffrec_source", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=0.2),
         constants={"diffusion": 0.01, "reaction": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=Rule(_diffrec_source_residual, first=(1,), laplacian=(0,)),
         reference=lambda problem, sample, points, n:
             sv.solve_diffusion_reaction(
                 sample, "source", problem.constants["diffusion"],
                 problem.constants["reaction"], n, n).eval_at(points)),
    Kind("diffrec_coeff", **_SPACE_TIME,
         sampler=SamplerSpec("grf", length_scale=1.4, rescale=(1.0, 5.0)),
         constants={"diffusion": 0.01},
         transforms=("none", "zero_ic_dirichlet_bc"),
         residual=Rule(_diffrec_coeff_residual, first=(1,), laplacian=(0,)),
         reference=lambda problem, sample, points, n:
             sv.solve_diffusion_reaction(
                 sample, "coefficient", problem.constants["diffusion"], 0.0,
                 n, n).eval_at(points)),
)}

KINDS = tuple(REGISTRY)


# --------------------------------------------------------------------------
# loss assembly
# --------------------------------------------------------------------------

class LossBlocks:
    """The loss blocks of one model on one collocation set.

    Each block's hidden trunk jet and mask depend only on the weights
    and the points, so they are computed once, when the object is built:
    as tape Vars when params hold Vars (training), as plain arrays
    otherwise (an attack reuses them for every iterate). Calling the
    object on the (batch, m) input rows (numpy or Var) folds the branch
    features with the trunk's last layer once (dn.fold), shares the fold
    across the blocks, and returns the raw mismatch blocks keyed
    "physics"/"bc"/"ic", each (batch, n). Components a hard-constraint
    transform already enforces are omitted.
    """

    def __init__(self, problem: ProblemSpec, params, colloc: CollocationSet):
        # a "q" mask factor vanishes on the boundary, a "t" one at t = 0
        enforced = {{"q": "bc", "t": "ic"}[factor] for factor in
                    dn.MASK_FACTORS[params.arch.transform].values()}
        entry = problem.entry
        self.problem = problem
        self.params = params
        self.blocks = []
        for name, rule, block in (("physics", entry.residual, "interior"),
                                  ("bc", entry.boundary, "boundary"),
                                  ("ic", entry.initial, "initial")):
            points = getattr(colloc, block)
            if name != "physics" and (not len(points) or name in enforced):
                continue
            model = dn.GridModel(params, points, rule.first, rule.laplacian)
            self.blocks.append((name, rule, model, points,
                                colloc.sources[block]))

    def __call__(self, f_rows) -> dict:
        folded = dn.fold(self.params, f_rows)
        return {name: rule.fn(model.jet(folded), ad.matmul(f_rows, mat.T),
                              self.problem.constants, points)
                for name, rule, model, points, mat in self.blocks}


def loss_graph(problem: ProblemSpec, params, f_rows, colloc: CollocationSet):
    """(physics, bc, ic, total) terms; each is a Var when inputs are.

    All penalty terms are plain means of squared mismatches; omitted
    components are exactly 0.0.
    """
    blocks = LossBlocks(problem, params, colloc)(f_rows)
    physics = ad.mean(ad.square(blocks["physics"]))
    bc = ad.mean(ad.square(blocks["bc"])) if "bc" in blocks else 0.0
    ic = ad.mean(ad.square(blocks["ic"])) if "ic" in blocks else 0.0
    total = ad.add(ad.add(physics, bc), ic)
    return physics, bc, ic, total

