"""Branch/trunk operator network with hard-constraint output transforms.

The branch net encodes the input function sampled at m sensors, the trunk
net encodes evaluation coordinates, and the two are merged by an inner
product plus a learned scalar bias:

    u(y) = sum_k b_k(f) t_k(y) + b0

Orientation convention (keeps transposes out of the differentiation
primitives): branch data flows as rows, (batch, features) @ W(in, out);
trunk data flows as columns, W(out, in) @ (features, points). The merge
is then a single (batch, p) @ (p, points) product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad

TRANSFORMS = ("none", "dirichlet_1d", "dirichlet_2d_space", "zero_ic_dirichlet_bc")
ACTIVATIONS = ("tanh",)


class ArchError(ValueError):
    """Invalid architecture description."""


@dataclass(frozen=True)
class ArchSpec:
    """Layer widths and output transform.

    branch_widths / trunk_widths list every layer width including the
    input (sensor count / coordinate dimension) and the shared latent
    output width p. The transform multiplies the merged output by a smooth
    mask that vanishes exactly on the constrained part of the domain.
    """

    branch_widths: tuple
    trunk_widths: tuple
    activation: str = "tanh"
    transform: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "branch_widths", tuple(int(w) for w in self.branch_widths))
        object.__setattr__(self, "trunk_widths", tuple(int(w) for w in self.trunk_widths))
        if len(self.branch_widths) < 2 or len(self.trunk_widths) < 2:
            raise ArchError("branch and trunk need at least input and output widths")
        for w in self.branch_widths + self.trunk_widths:
            if w <= 0:
                raise ArchError(f"layer widths must be positive, got {w}")
        if self.branch_widths[-1] != self.trunk_widths[-1]:
            raise ArchError("branch output width must equal trunk output width")
        if self.activation not in ACTIVATIONS:
            raise ArchError(f"unsupported activation {self.activation!r}")
        if self.transform not in TRANSFORMS:
            raise ArchError(f"unsupported transform {self.transform!r}")

    @property
    def latent_dim(self):
        return self.branch_widths[-1]

    @property
    def sensor_count(self):
        return self.branch_widths[0]

    @property
    def coord_dim(self):
        return self.trunk_widths[0]


@dataclass
class DeepONetParams:
    """All weights: branch layers, trunk layers, and the output bias b0.

    branch_layers[i] = (W (in, out), b (1, out)); trunk_layers[i] =
    (W (out, in), b (out, 1)); output_bias is a 0-d array.
    """

    arch: ArchSpec
    branch_layers: list
    trunk_layers: list
    output_bias: np.ndarray

    @property
    def latent_dim(self):
        return self.arch.latent_dim


def glorot_init(arch: ArchSpec, seed: int) -> DeepONetParams:
    """Glorot-normal weights (variance 2/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    branch = []
    for fan_in, fan_out in zip(arch.branch_widths[:-1], arch.branch_widths[1:]):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.normal(0.0, std, size=(fan_in, fan_out))
        branch.append((w, np.zeros((1, fan_out))))
    trunk = []
    for fan_in, fan_out in zip(arch.trunk_widths[:-1], arch.trunk_widths[1:]):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        w = rng.normal(0.0, std, size=(fan_out, fan_in))
        trunk.append((w, np.zeros((fan_out, 1))))
    return DeepONetParams(arch, branch, trunk, np.zeros(()))


# --------------------------------------------------------------------------
# evaluation (works on numpy arrays, tape Vars, and duals alike)
# --------------------------------------------------------------------------

def _coord_row(coords, k):
    """Row k of a (dim, npts) coordinate block that may carry duals."""
    if isinstance(coords, ad.Dual):
        return ad.Dual(_coord_row(coords.primal, k),
                       None if coords.tangent is None else _coord_row(coords.tangent, k))
    return np.asarray(coords, dtype=np.float64)[k]


def transform_mask(transform: str, coords):
    """Smooth mask enforcing the transform's constraint set exactly."""
    if transform == "none":
        return None
    if transform == "dirichlet_1d":
        y = _coord_row(coords, 0)
        return ad.mul(y, ad.sub(1.0, y))
    if transform == "dirichlet_2d_space":
        x = _coord_row(coords, 0)
        y = _coord_row(coords, 1)
        return ad.mul(ad.mul(x, ad.sub(1.0, x)), ad.mul(y, ad.sub(1.0, y)))
    if transform == "zero_ic_dirichlet_bc":
        x = _coord_row(coords, 0)
        t = _coord_row(coords, 1)
        return ad.mul(t, ad.mul(x, ad.sub(1.0, x)))
    raise ArchError(f"unsupported transform {transform!r}")


def branch_apply(params: DeepONetParams, f_rows):
    """Branch net on (batch, m) rows -> (batch, p) features."""
    h = f_rows
    last = len(params.branch_layers) - 1
    for i, (w, b) in enumerate(params.branch_layers):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.tanh(h)
    return h


def trunk_apply(params: DeepONetParams, coords_cols):
    """Trunk net on (dim, npts) columns -> (p, npts) features."""
    h = coords_cols
    last = len(params.trunk_layers) - 1
    for i, (w, b) in enumerate(params.trunk_layers):
        h = ad.add(ad.matmul(w, h), b)
        if i < last:
            h = ad.tanh(h)
    return h


def merge(params: DeepONetParams, branch_out, trunk_out, coords_cols):
    """Inner-product merge plus bias, then the configured transform."""
    u = ad.add(ad.matmul(branch_out, trunk_out), params.output_bias)
    mask = transform_mask(params.arch.transform, coords_cols)
    if mask is not None:
        u = ad.mul(u, mask)
    return u


def apply_net(params: DeepONetParams, f_rows, coords_cols):
    """Full network on (batch, m) rows and (dim, npts) coordinate columns."""
    return merge(params, branch_apply(params, f_rows),
                 trunk_apply(params, coords_cols), coords_cols)


def _as_coord_cols(coords):
    c = np.asarray(coords, dtype=np.float64)
    if c.ndim == 1:
        c = c[:, None]
    return np.ascontiguousarray(c.T)


class GridModel:
    """A model bound to one fixed coordinate set.

    The trunk features and the transform mask depend only on the weights
    and the coordinates, never on the input function, so they are
    computed once here and shared by every evaluation on the grid.
    Calling the object on (batch, m) rows (numpy, tape Vars or duals)
    gives exactly what apply_net gives on the same coordinates.
    """

    def __init__(self, params: DeepONetParams, coords):
        cols = _as_coord_cols(coords)
        if cols.shape[0] != params.arch.coord_dim:
            raise ArchError(
                f"expected {params.arch.coord_dim}-dimensional coordinates, "
                f"got {cols.shape[0]}")
        self.params = params
        self.cols = cols
        self.trunk = trunk_apply(params, cols)
        self.mask = transform_mask(params.arch.transform, cols)

    def __call__(self, f_rows):
        u = ad.add(ad.matmul(branch_apply(self.params, f_rows), self.trunk),
                   self.params.output_bias)
        return u if self.mask is None else ad.mul(u, self.mask)


def on_grid(model, coords) -> GridModel:
    """model evaluated on coords: DeepONetParams get a new GridModel, a
    GridModel is reused after checking it was built for these coords."""
    if not isinstance(model, GridModel):
        return GridModel(model, coords)
    if not np.array_equal(model.cols, _as_coord_cols(coords)):
        raise ArchError("grid model was built for other coordinates")
    return model


def forward(model, f_samples, coords) -> np.ndarray:
    """Evaluate the operator.

    model: DeepONetParams, or a GridModel built for coords. f_samples:
    (m,) sensor values or a (batch, m) stack; coords: (npts,) for 1-d
    problems or (npts, dim). Returns (npts,) or (batch, npts).
    """
    f = np.asarray(f_samples, dtype=np.float64)
    single = f.ndim == 1
    rows = f[None, :] if single else f
    grid = on_grid(model, coords)
    if rows.shape[1] != grid.params.arch.sensor_count:
        raise ArchError(f"expected {grid.params.arch.sensor_count} sensor "
                        f"values, got {rows.shape[1]}")
    u = grid(rows)
    return u[0] if single else u


def forward_grad_f(params: DeepONetParams, f_samples, coords,
                   functional: Callable = None) -> np.ndarray:
    """Gradient of a scalar functional of the outputs w.r.t. f_samples.

    functional maps the (1, npts) output block to a recorded scalar;
    defaults to the sum of all outputs.
    """
    f = np.asarray(f_samples, dtype=np.float64).reshape(1, -1)
    tape = ad.Tape()
    f_var = tape.leaf(f)
    out = GridModel(params, coords)(f_var)
    scalar = ad.total(out) if functional is None else functional(out)
    return ad.grad(scalar, [f_var])[f_var].reshape(-1)


# --------------------------------------------------------------------------
# parameter flattening (for the optimizer) and tape lifting (for training)
# --------------------------------------------------------------------------

def param_items(params: DeepONetParams):
    """Stable (name, array) listing of every trainable block."""
    items = []
    for i, (w, b) in enumerate(params.branch_layers):
        items.append((f"branch.{i}.w", w))
        items.append((f"branch.{i}.b", b))
    for i, (w, b) in enumerate(params.trunk_layers):
        items.append((f"trunk.{i}.w", w))
        items.append((f"trunk.{i}.b", b))
    items.append(("output_bias", params.output_bias))
    return items


def with_param_values(params: DeepONetParams, values: Sequence) -> DeepONetParams:
    """Rebuild a params object from a flat list in param_items order."""
    values = list(values)
    nb = len(params.branch_layers)
    nt = len(params.trunk_layers)
    branch = [(values[2 * i], values[2 * i + 1]) for i in range(nb)]
    off = 2 * nb
    trunk = [(values[off + 2 * i], values[off + 2 * i + 1]) for i in range(nt)]
    return DeepONetParams(params.arch, branch, trunk, values[off + 2 * nt])


def lift_params(tape: ad.Tape, params: DeepONetParams):
    """Record every parameter block as a tape leaf.

    Returns (params-of-Vars usable by apply_net, list of leaf Vars in
    param_items order).
    """
    leaves = [tape.leaf(a) for _, a in param_items(params)]
    return with_param_values(params, leaves), leaves


# --------------------------------------------------------------------------
# checkpoint persistence (bit-exact round trip)
# --------------------------------------------------------------------------

def save_checkpoint(path, params: DeepONetParams, seed: int, step: int) -> None:
    meta = {
        "format": "opstab-checkpoint-v1",
        "branch_widths": list(params.arch.branch_widths),
        "trunk_widths": list(params.arch.trunk_widths),
        "activation": params.arch.activation,
        "transform": params.arch.transform,
        "seed": int(seed),
        "step": int(step),
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for name, arr in param_items(params):
        arrays[name.replace(".", "_")] = arr
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (params, seed, step)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != "opstab-checkpoint-v1":
            raise ValueError(f"unrecognized checkpoint format in {path}")
        arch = ArchSpec(tuple(meta["branch_widths"]), tuple(meta["trunk_widths"]),
                        meta["activation"], meta["transform"])
        template = DeepONetParams(
            arch,
            [(None, None)] * (len(arch.branch_widths) - 1),
            [(None, None)] * (len(arch.trunk_widths) - 1),
            np.zeros(()),
        )
        values = [data[name.replace(".", "_")] for name, _ in param_items(template)]
        params = with_param_values(template, values)
    return params, meta["seed"], meta["step"]
