"""Branch/trunk operator network with hard-constraint output transforms.

The branch net encodes the input function sampled at m sensors, the trunk
net encodes evaluation coordinates, and the two are merged by an inner
product plus a learned scalar bias:

    u(y) = sum_k b_k(f) t_k(y) + b0

The trunk's last layer is linear, t = W_L h + b_L on the hidden features
h, so the merge is evaluated as

    u = (b W_L) h + (b b_L + b0)

with the last layer folded onto the branch side once per input block
(fold): the per-point work then skips the (p, q) layer entirely. A
depth-1 trunk folds onto the raw coordinates.

Orientation convention (keeps transposes out of the differentiation
primitives): branch data flows as rows, (batch, features) @ W(in, out);
trunk data flows as columns, W(out, in) @ (features, points). The merge
is then a single (batch, q) @ (q, points) product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence

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
# evaluation (works on numpy arrays and tape Vars alike)
# --------------------------------------------------------------------------

class Jet(NamedTuple):
    """A value with its exact coordinate derivatives: first[a] = d/dy_a,
    and lap = the sum of d^2/dy_a^2 over the Laplacian's axes, or None."""

    u: object
    first: dict
    lap: object


def branch_apply(params: DeepONetParams, f_rows):
    """Branch net on (batch, m) rows -> (batch, p) features."""
    h = f_rows
    last = len(params.branch_layers) - 1
    for i, (w, b) in enumerate(params.branch_layers):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.tanh(h)
    return h


def hidden_jet(layers, coords_cols, first=(), laplacian=()) -> Jet:
    """tanh(W h + b) through every layer in layers, on (dim, npts)
    coordinate columns, with first derivatives along every axis in first
    or laplacian and the Laplacian over the axes in laplacian, all in
    one pass. No layers give the coordinates themselves, with unit
    first derivatives and zero Laplacian.

    Closed-form Taylor rules (the forward Laplacian): the coordinates
    have h_a = e_a; a layer maps z_a = W h_a and z_lap = W h_lap, and its
    tanh maps h = tanh z, s = 1 - h^2, h_a = z_a s and
    h_lap = (z_lap - 2 h sum_a z_a^2) s. Written with ad primitives, so
    it records on the tape when the weights are Vars.
    """
    dim = coords_cols.shape[0]
    axes = sorted(set(first) | set(laplacian))
    if any(not 0 <= a < dim for a in axes):
        raise ArchError(f"derivative axes {axes} out of range for {dim} "
                        "coordinates")
    h, d1, lap = coords_cols, {a: np.eye(dim)[:, a:a + 1] for a in axes}, None
    for w, b in layers:
        d1 = {a: ad.matmul(w, t) for a, t in d1.items()}
        lap = None if lap is None else ad.matmul(w, lap)
        h = ad.tanh(ad.add(ad.matmul(w, h), b))
        if not axes:
            continue
        s = ad.sub(1.0, ad.square(h))
        if laplacian:
            minus_2h = ad.mul(-2.0, h)
            curv = ad.mul(minus_2h, reduce(
                ad.add, (ad.square(d1[a]) for a in laplacian)))
            lap = ad.mul(curv if lap is None else ad.add(lap, curv), s)
        d1 = {a: ad.mul(t, s) for a, t in d1.items()}
    if laplacian and lap is None:  # the coordinates have no curvature
        lap = np.zeros((h.shape[0], 1))
    return Jet(h, d1, lap)


# Each mask is a product of one polynomial factor per constrained axis:
# "q" is y (1 - y), zero at both ends, and "t" is y, zero at y = 0.
_MASK_FACTORS = {
    "none": {},
    "dirichlet_1d": {0: "q"},
    "dirichlet_2d_space": {0: "q", 1: "q"},
    "zero_ic_dirichlet_bc": {0: "q", 1: "t"},
}


def _mask_factor(kind, y, order):
    """The factor's value, first or second derivative at y."""
    if kind == "q":
        return (y * (1.0 - y), 1.0 - 2.0 * y, np.full_like(y, -2.0))[order]
    return (y, np.ones_like(y), np.zeros_like(y))[order]


def mask_jet(transform: str, coords_cols, first=(), laplacian=()):
    """The transform's smooth mask on (dim, npts) columns with its
    closed-form first derivatives along the axes in first or laplacian
    and its Laplacian over the axes in laplacian (a Jet of arrays), or
    None when the transform constrains nothing."""
    factors = _MASK_FACTORS[transform]
    if not factors:
        return None

    def derivative(axis=None, order=0):
        if axis is not None and axis not in factors:
            return np.zeros(coords_cols.shape[1])
        out = None
        for k, kind in factors.items():
            f = _mask_factor(kind, coords_cols[k], order if k == axis else 0)
            out = f if out is None else out * f
        return out

    axes = sorted(set(first) | set(laplacian))
    lap = sum(derivative(a, 2) for a in laplacian) if laplacian else None
    return Jet(derivative(), {a: derivative(a, 1) for a in axes}, lap)


class Folded(NamedTuple):
    """The branch features b of an input block folded with the trunk's
    last layer (W_L, b_L): weights = b W_L, (batch, q), and bias =
    b b_L + b0, (batch, 1), so u = weights @ h + bias on the trunk's
    hidden features h, before the mask."""

    weights: object
    bias: object


def fold(params: DeepONetParams, f_rows) -> Folded:
    """Branch net on (batch, m) rows, folded with the trunk's last layer."""
    b = branch_apply(params, f_rows)
    w, bias = params.trunk_layers[-1]
    return Folded(ad.matmul(b, w),
                  ad.add(ad.matmul(b, bias), params.output_bias))


def _as_coord_cols(coords):
    c = np.asarray(coords, dtype=np.float64)
    if c.ndim == 1:
        c = c[:, None]
    return np.ascontiguousarray(c.T)


class GridModel:
    """A model bound to one fixed coordinate set.

    The trunk's hidden features and the transform mask depend only on
    the weights and the coordinates, never on the input function, so
    they are computed once here, with first derivatives along the axes
    in first and the Laplacian over those in laplacian, and shared by
    every evaluation on the grid. The trunk's last layer is folded onto
    the branch side (fold). Calling the object on (batch, m) rows (numpy
    or tape Vars) gives the network's output on the grid.
    """

    def __init__(self, params: DeepONetParams, coords, first=(),
                 laplacian=()):
        cols = _as_coord_cols(coords)
        if cols.shape[0] != params.arch.coord_dim:
            raise ArchError(
                f"expected {params.arch.coord_dim}-dimensional coordinates, "
                f"got {cols.shape[0]}")
        self.params = params
        self.cols = cols
        self.first = tuple(first)
        self.laplacian = tuple(laplacian)
        self.hidden = hidden_jet(params.trunk_layers[:-1], cols, first,
                                 laplacian)
        self.mask = mask_jet(params.arch.transform, cols, first, laplacian)

    def __call__(self, f_rows):
        return self.jet(fold(self.params, f_rows)).u

    def jet(self, folded: Folded) -> Jet:
        """u on the grid with its first derivatives and Laplacian, from the
        folded branch features of the input rows. A mask's product rule
        lap(v m) = lap(v) m + 2 sum_a v_a m_a + v lap(m) also reads v's
        first derivatives along the Laplacian's axes."""
        hidden, mask = self.hidden, self.mask
        c = folded.weights
        v = ad.add(ad.matmul(c, hidden.u), folded.bias)
        v1 = {a: ad.matmul(c, hidden.first[a])
              for a in (self.first if mask is None else hidden.first)}
        v_lap = None if hidden.lap is None else ad.matmul(c, hidden.lap)
        if mask is None:
            return Jet(v, v1, v_lap)
        m, m1, m_lap = mask
        u = ad.mul(v, m)
        first = {a: ad.add(ad.mul(v1[a], m), ad.mul(v, m1[a]))
                 for a in self.first}
        return Jet(u, first, None if v_lap is None else reduce(ad.add, (
            [ad.mul(v_lap, m)]
            + [ad.mul(v1[a], 2.0 * m1[a]) for a in self.laplacian]
            + [ad.mul(v, m_lap)])))

    def jvp(self, f_rows, tangent_rows):
        """J @ tangent of rows -> outputs (plain arrays), in closed form:
        t <- (t W)(1 - h^2) through the branch, then folded,
        ((t W_L) @ hidden + t b_L) mask."""
        h, t = f_rows, tangent_rows
        last = len(self.params.branch_layers) - 1
        for i, (w, b) in enumerate(self.params.branch_layers):
            h = h @ w + b
            t = t @ w
            if i < last:
                h = np.tanh(h)
                t = t * (1.0 - h * h)
        w_last, b_last = self.params.trunk_layers[-1]
        t = (t @ w_last) @ self.hidden.u + t @ b_last
        return t if self.mask is None else t * self.mask.u

    def vjp(self, f_rows, cotangent_rows):
        """J^T @ cotangent of rows -> rows (plain arrays), in closed form:
        g = cotangent mask, folded back to g_b = (g @ hidden^T) W_L^T +
        (sum of g over the points) b_L^T, then g <- (g (1 - h^2)) W^T back
        through the branch, in the order a reverse sweep takes."""
        h, hidden = f_rows, []
        layers = self.params.branch_layers
        for w, b in layers[:-1]:
            h = np.tanh(h @ w + b)
            hidden.append(h)
        g = cotangent_rows
        if self.mask is not None:
            g = g * self.mask.u
        w_last, b_last = self.params.trunk_layers[-1]
        g = (g.sum(axis=1, keepdims=True) @ b_last.T
             + (g @ self.hidden.u.T) @ w_last.T)
        for (w, _), h in zip(layers[:0:-1], hidden[::-1]):
            g = (g @ w.T) * (1.0 - h * h)
        return g @ layers[0][0].T


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

    Returns (params-of-Vars usable by fold and GridModel, list of leaf
    Vars in param_items order).
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
        bw, tw = arch.branch_widths, arch.trunk_widths
        template = DeepONetParams(
            arch,
            [(np.zeros((i, o)), np.zeros((1, o))) for i, o in zip(bw, bw[1:])],
            [(np.zeros((o, i)), np.zeros((o, 1))) for i, o in zip(tw, tw[1:])],
            np.zeros(()),
        )
        values = []
        for name, want in param_items(template):
            block = data[name.replace(".", "_")]
            if block.shape != want.shape:
                raise ArchError(f"checkpoint {path}: block {name} has shape "
                                f"{block.shape}, the architecture needs "
                                f"{want.shape}")
            values.append(block)
        params = with_param_values(template, values)
    return params, meta["seed"], meta["step"]
