from dataclasses import replace

import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import deeponet as dn
from opstab import problems as pb
from opstab import training as tr
from opstab.attacks import AttackConfig
from opstab.config import RunConfig
from opstab.sampling import FunctionSample


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a - b) / denom


def total(x):
    """Sum of all entries of an array or tape Var: the mean times the
    size, whose reverse sweep hands every entry a cotangent of exactly 1."""
    size = x.value.size if isinstance(x, ad.Var) else np.size(x)
    return ad.mul(ad.mean(x), float(size))


def central_diff(fn, x, h):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for j in range(xf.size):
        xp, xm = xf.copy(), xf.copy()
        xp[j] += h
        xm[j] -= h
        flat[j] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2 * h)
    return g


def trunk_jet(layers, coords_cols, first=(), laplacian=()):
    """Features of the trunk layers on (dim, npts) columns, with their
    derivatives as in dn.hidden_jet: the hidden jet of all but the last
    layer, then the last, linear layer applied to each stream. The
    model's merge folds that last layer instead (dn.fold, dn.GridModel),
    which never forms these (p, npts) features."""
    hidden = dn.hidden_jet(layers[:-1], coords_cols, first, laplacian)
    w, b = layers[-1]
    return dn.Jet(ad.add(ad.matmul(w, hidden.u), b),
                  {a: ad.matmul(w, t) for a, t in hidden.first.items()},
                  None if hidden.lap is None else ad.matmul(w, hidden.lap))


def unfolded_jet(params, f_rows, cols, first=(), laplacian=()):
    """The network's jet by the unfolded formula u = b (W_L h + b_L) + b0:
    the trunk's (p, npts) features formed by trunk_jet, merged with the
    branch features b, then times the mask by the product rule. The
    reference for the folded merge; runs on numpy rows and tape Vars."""
    trunk = trunk_jet(params.trunk_layers, cols, first, laplacian)
    mask = dn.mask_jet(params.arch.transform, cols, first, laplacian)
    b = dn.branch_apply(params, f_rows)
    v = ad.add(ad.matmul(b, trunk.u), params.output_bias)
    v1 = {a: ad.matmul(b, t) for a, t in trunk.first.items()}
    v_lap = None if trunk.lap is None else ad.matmul(b, trunk.lap)
    if mask is None:
        return dn.Jet(v, v1, v_lap)
    m, m1, m_lap = mask
    lap = None
    if v_lap is not None:
        lap = ad.add(ad.mul(v_lap, m), ad.mul(v, m_lap))
        for a in laplacian:
            lap = ad.add(lap, ad.mul(v1[a], 2.0 * m1[a]))
    return dn.Jet(ad.mul(v, m),
                  {a: ad.add(ad.mul(v1[a], m), ad.mul(v, m1[a])) for a in v1},
                  lap)


def _check_domain(points: np.ndarray):
    if points.size and (points.min() < -1e-12 or points.max() > 1.0 + 1e-12):
        raise pb.ProblemError("collocation points outside the unit domain")


def physics_residual(problem, network, f_sample, points) -> np.ndarray:
    """Residual of the kind's governing operator at the given points
    (numpy), an oracle for the residual Rules.

    network is either DeepONetParams or a function points -> dn.Jet
    giving the exact value and derivatives of a known solution, which
    lets analytic solutions be checked against the residual operators
    directly.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != problem.coord_dim:
        raise pb.ProblemError(
            f"{problem.kind} expects {problem.coord_dim}-d points")
    _check_domain(pts)
    values = np.asarray(
        f_sample.values if isinstance(f_sample, FunctionSample) else f_sample,
        dtype=np.float64)
    rows = values[None, :]
    rule = problem.entry.residual
    if isinstance(network, dn.DeepONetParams):
        jet = dn.GridModel(network, pts, rule.first, rule.laplacian).jet(
            dn.fold(network, rows))
    else:
        jet = network(pts)
    res = rule.fn(jet, rows @ pb.source_matrix(problem, pts).T,
                  problem.constants, pts)
    return np.asarray(res).reshape(-1) if np.ndim(res) <= 1 else np.asarray(res)[0]


FLAGSHIP = {
    "poisson1d": dict(steps=20000, learning_rate=5e-4),
    "antiderivative": dict(steps=12000, learning_rate=5e-4),
}


def flagship_config(kind, seed):
    prob = pb.default_problem(kind)
    return RunConfig(
        problem=prob, arch=pb.default_arch(prob), batch_size=32, seed=seed,
        attack=AttackConfig(epsilon=0.1, relative=True, n_iter=20),
        **FLAGSHIP[kind])


@pytest.fixture(scope="session")
def trained_poisson_baseline():
    """Shared desk-scale baseline model for the 1-d elliptic problem.

    Used by the attack-effectiveness and training-quality tests and by
    the acceptance module (same configuration, so one training run
    serves all of them).
    """
    cfg = flagship_config("poisson1d", seed=0)
    result = tr.train(replace(cfg, mode="baseline"))
    return cfg.problem, result.params
