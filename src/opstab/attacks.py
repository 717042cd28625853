"""Gradient attacks on input functions.

Two PGD variants share one ascent loop: the training-time attack climbs
the physics-informed loss (cheap surrogate, no reference solve needed),
and the evaluation attack climbs the squared error against a fixed
reference solution. Both project every iterate back onto the epsilon
ball around the clean input. FGSM is the config n_iter = 1, step_alpha
= epsilon, warm_start = false.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from . import problems as pb

logger = logging.getLogger(__name__)


class AttackError(RuntimeError):
    """Attack failed mid-run (non-finite loss)."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation budget and ascent schedule.

    epsilon and step_alpha are in input-function units. When `relative`
    is set they are instead multiples of max|f| of the sample under
    attack and must be resolved via `resolve_for` before use. step_alpha
    None means epsilon / 4. For norm "l2" the budget is the Euclidean
    norm over the sensor vector.
    """

    epsilon: float
    step_alpha: Optional[float] = None
    n_iter: int = 20
    norm: str = "linf"
    warm_start: bool = True
    relative: bool = False

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"norm must be linf or l2, got {self.norm!r}")
        if self.n_iter < 0:
            raise ValueError("n_iter must be nonnegative")
        if (self.step_alpha is not None and self.n_iter > 0
                and self.epsilon > 0 and self.step_alpha <= 0):
            raise ValueError("step_alpha must be positive when attacking")

    def resolve_for(self, f_values) -> "AttackConfig":
        """Materialize absolute epsilon/alpha for one sample."""
        scale = float(np.max(np.abs(f_values))) if self.relative else 1.0
        eps = self.epsilon * scale
        alpha = eps / 4.0 if self.step_alpha is None else self.step_alpha * scale
        return replace(self, epsilon=eps, step_alpha=alpha, relative=False)


@dataclass
class AttackTrace:
    """Loss at the start of each iteration, plus the final budget use."""

    loss_per_iter: np.ndarray
    final_perturbation_norm: float


def project(f_tilde, f, config: AttackConfig) -> np.ndarray:
    """Project f_tilde onto the epsilon ball around f (componentwise clip
    for linf; radial rescale for l2). Idempotent and non-expansive."""
    f_tilde = np.asarray(f_tilde, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if f_tilde.shape != f.shape:
        raise ValueError("f_tilde and f must have the same shape")
    eps = config.epsilon
    if config.norm == "linf":
        return np.clip(f_tilde, f - eps, f + eps)
    delta = f_tilde - f
    norm = np.linalg.norm(delta)
    # slack for the rounding of a previous radial rescale: relative to eps
    # for the scale factor and relative to |f| for f + delta, so the
    # projection is exactly idempotent also when eps << |f|
    slack = 1e-12 * eps + 4.0 * np.finfo(np.float64).eps * np.linalg.norm(f)
    if norm <= eps + slack or norm == 0.0:
        return f_tilde.copy()
    return f + delta * (eps / norm)


def perturbation_norm(f_tilde, f, config: AttackConfig) -> float:
    delta = np.asarray(f_tilde) - np.asarray(f)
    if config.norm == "linf":
        return float(np.max(np.abs(delta))) if delta.size else 0.0
    return float(np.linalg.norm(delta))


def _pgd_loop(loss_and_grad: Callable, f_rows: np.ndarray,
              configs: Sequence[AttackConfig], init_rows: np.ndarray):
    """Shared PGD ascent over a (batch, m) block; per-row budgets.

    loss_and_grad maps the current rows to (per-row losses, gradient
    rows). Every iterate is projected back onto its own epsilon ball:
    under linf by one clip of the block against per-row bounds, which is
    the row-wise project exactly. NaN gradient entries step nowhere
    (logged); a non-finite loss aborts with the iteration index.
    """
    norm = configs[0].norm
    n_iter = configs[0].n_iter
    alphas = np.array([c.step_alpha for c in configs])[:, None]
    eps = np.array([c.epsilon for c in configs])[:, None]
    lower, upper = f_rows - eps, f_rows + eps
    current = init_rows.copy()
    losses = np.zeros((n_iter, len(f_rows)))
    for it in range(n_iter):
        loss_rows, grad_rows = loss_and_grad(current)
        if not np.all(np.isfinite(loss_rows)):
            raise AttackError(it, "non-finite attack loss")
        losses[it] = loss_rows
        g = np.asarray(grad_rows, dtype=np.float64)
        if np.isnan(g).any():
            logger.warning("NaN gradient entries in attack step %d; zeroed", it)
            g = np.nan_to_num(g, nan=0.0)
        if norm == "linf":
            current = np.clip(current + alphas * np.sign(g), lower, upper)
        else:
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            direction = np.divide(g, norms, out=np.zeros_like(g),
                                  where=norms > 0)
            current = current + alphas * direction
            for i, cfg in enumerate(configs):
                current[i] = project(current[i], f_rows[i], cfg)
    return current, losses


def _batch_loss_and_grad(problem, params, colloc):
    """Per-sample physics-informed totals plus the batched input gradient.

    One tape serves the whole block. Samples are decoupled in every loss
    term, so the batched gradient rows equal the per-sample gradients up
    to the 1/batch factor, which the dual-norm ascent directions ignore.
    Per-sample totals come from row means of the recorded block values.
    The weights are fixed, so the blocks' trunk jets are computed once,
    as plain arrays, and every iterate runs only the branch.
    """
    loss_blocks = pb.LossBlocks(problem, params, colloc)

    def fn(rows):
        tape = ad.Tape()
        f_var = tape.leaf(rows)
        blocks = loss_blocks(f_var)
        terms = [ad.mean(ad.square(b)) for b in blocks.values()]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        g = ad.grad(total, [f_var])[f_var]
        per_sample = np.zeros(len(rows))
        for block in blocks.values():
            per_sample += np.mean(block.value ** 2, axis=1)
        return per_sample, g
    return fn


def attack_physics_loss_batch(params, problem, f_rows, collocation,
                              configs, seeds):
    """Batched variant used inside training; rows are attacked jointly.

    configs is one AttackConfig shared by the batch or one per row; each
    row's budget is resolved against its own values.
    """
    f_rows = np.asarray(f_rows, dtype=np.float64)
    if len(configs) == 1:
        configs = list(configs) * len(f_rows)
    if len(configs) != len(f_rows):
        raise ValueError("need one config, or one per batch row")
    resolved = [cfg.resolve_for(f_rows[i]) for i, cfg in enumerate(configs)]
    init = f_rows.copy()
    for i, cfg in enumerate(resolved):
        if cfg.warm_start and cfg.epsilon > 0:
            noise = np.random.default_rng(seeds[i]).uniform(
                -cfg.epsilon, cfg.epsilon, size=f_rows.shape[1])
            init[i] = project(f_rows[i] + noise, f_rows[i], cfg)
    if resolved[0].n_iter == 0 or all(c.epsilon == 0 for c in resolved):
        final = np.stack([project(init[i], f_rows[i], c)
                          for i, c in enumerate(resolved)])
        return final, np.zeros((resolved[0].n_iter, len(f_rows)))
    return _pgd_loop(_batch_loss_and_grad(problem, params, collocation),
                     f_rows, resolved, init)


def attack_solution_error(model, f, u_true_on_grid, y_grid,
                          config: AttackConfig):
    """PGD ascent on ||G(f_tilde)(y) - u_true(y)||^2 (the evaluation attack).

    Starts from the clean input (no warm start) and maximizes deviation
    from the fixed reference solution. model is DeepONetParams or a
    dn.GridModel built for y_grid; the input gradient is the closed-form
    GridModel.vjp of 2 (G(f_tilde) - u_true). Returns (f_tilde,
    AttackTrace).
    """
    values = np.asarray(f, dtype=np.float64)
    u_true = np.asarray(u_true_on_grid, dtype=np.float64)
    cfg = config.resolve_for(values)
    model = dn.on_grid(model, y_grid)

    def loss_and_grad(rows):
        err = model(rows) - u_true
        return np.array([np.sum(err * err)]), model.vjp(rows, 2.0 * err)

    tilde, losses = _pgd_loop(loss_and_grad, values[None, :], [cfg],
                              values[None, :].copy())
    return tilde[0], AttackTrace(losses[:, 0],
                                 perturbation_norm(tilde[0], values, cfg))
