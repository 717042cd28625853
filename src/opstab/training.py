"""Adam optimization and the alternating adversarial training loop.

Every step draws a fresh batch of input functions from the problem's
sampler. After a warmup stretch of plain training, steps whose index is
divisible by the cadence M replace the batch with PGD-perturbed
counterparts before the gradient step, realizing the min-max objective:
the attack maximizes the physics-informed loss, the optimizer minimizes
it. The baseline model is the same loop with the attack disabled, so
comparisons isolate the min-max component.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from . import problems as pb
from .attacks import AttackConfig, attack_physics_loss_batch

logger = logging.getLogger(__name__)

STEP_LOG_HEADER = "step,phase,physics,bc,ic,total"


class TrainingError(RuntimeError):
    pass


class NonFiniteGradError(TrainingError):
    def __init__(self, step: int, block: str):
        super().__init__(f"non-finite gradient in block {block!r} at step {step}")
        self.step = step
        self.block = block


class NonFiniteLossError(TrainingError):
    def __init__(self, step: int, last_params):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.last_params = last_params


@dataclass(frozen=True)
class TrainConfig:
    problem: pb.ProblemSpec
    arch: dn.ArchSpec
    steps: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    adam_betas: tuple = (0.9, 0.999)
    adam_eps: float = 1e-8
    warmup_fraction: float = 0.2
    adversarial_cadence: int = 2
    attack: AttackConfig = AttackConfig(epsilon=0.1, relative=True)
    seed: int = 0

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.adversarial_cadence < 1:
            raise ValueError("adversarial_cadence must be >= 1")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1]")


@dataclass
class AdamState:
    """First/second moment estimates per parameter block, step counter."""

    first_moment: list
    second_moment: list
    t: int = 0

    @classmethod
    def init_like(cls, arrays):
        return cls([np.zeros_like(a) for a in arrays],
                   [np.zeros_like(a) for a in arrays], 0)


def adam_step(params_list, grads_list, state: AdamState, learning_rate,
              beta1, beta2, eps, block_names=None):
    """One bias-corrected Adam update; pure, returns (new_params, new_state)."""
    if len(params_list) != len(grads_list):
        raise ValueError("params and grads length mismatch")
    for i, g in enumerate(grads_list):
        if not np.all(np.isfinite(g)):
            name = block_names[i] if block_names else f"block {i}"
            raise NonFiniteGradError(state.t + 1, name)
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params_list, grads_list, state.first_moment,
                          state.second_moment):
        m2 = beta1 * m + (1.0 - beta1) * g
        v2 = beta2 * v + (1.0 - beta2) * g * g
        mhat = m2 / (1.0 - beta1 ** t)
        vhat = v2 / (1.0 - beta2 ** t)
        new_params.append(np.asarray(p, dtype=np.float64)
                          - learning_rate * mhat / (np.sqrt(vhat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(new_m, new_v, t)


@dataclass
class StepLog:
    step: int
    phase: str  # warmup | normal | adversarial
    physics: float
    bc: float
    ic: float
    total: float


@dataclass
class TrainResult:
    params: dn.DeepONetParams
    log: List[StepLog]


def _phase_for(step: int, config: TrainConfig) -> str:
    if step <= config.warmup_fraction * config.steps:
        return "warmup"
    if step % config.adversarial_cadence == 0:
        return "adversarial"
    return "normal"


def write_step_log(path, log) -> None:
    with open(path, "w") as fh:
        fh.write(STEP_LOG_HEADER + "\n")
        for entry in log:
            fh.write(f"{entry.step},{entry.phase},{entry.physics!r},"
                     f"{entry.bc!r},{entry.ic!r},{entry.total!r}\n")


def train(config: TrainConfig, progress_sink: Optional[Callable] = None
          ) -> TrainResult:
    """Run the full loop; deterministic in (config, seed).

    progress_sink, when given, is called with every StepLog right after
    the corresponding update (useful for periodic checkpointing).
    """
    problem = config.problem
    if config.arch.sensor_count != problem.sensor_count:
        raise ValueError("architecture sensor width != problem sensor count")
    params = dn.glorot_init(config.arch, config.seed)
    names = [n for n, _ in dn.param_items(params)]
    arrays = [a for _, a in dn.param_items(params)]
    state = AdamState.init_like(arrays)
    colloc = pb.make_collocation(problem)
    beta1, beta2 = config.adam_betas
    log: List[StepLog] = []

    for step in range(1, config.steps + 1):
        phase = _phase_for(step, config)
        batch_seed = config.seed ^ step
        batch = pb.sample_batch(problem, batch_seed, config.batch_size)
        rows = np.stack([s.values for s in batch])

        if phase == "adversarial":
            # warm-start stream kept disjoint from the batch-sampling stream
            mixed = (config.seed ^ step) * 0x9E3779B1
            attack_seeds = [(mixed + i) % (2 ** 63) for i in range(len(rows))]
            rows, _ = attack_physics_loss_batch(
                params, problem, rows, colloc, [config.attack], attack_seeds)

        tape = ad.Tape()
        f_const = tape.constant(rows)
        lifted, leaves = dn.lift_params(tape, params)
        physics, bc, ic, total = pb.loss_graph(problem, lifted, f_const, colloc)
        total_value = float(np.asarray(total.value if isinstance(total, ad.Var)
                                       else total))
        if not np.isfinite(total_value):
            raise NonFiniteLossError(step, params)
        grads = ad.grad(total, leaves)
        grad_list = [grads[leaf] for leaf in leaves]
        arrays, state = adam_step(arrays, grad_list, state,
                                  config.learning_rate, beta1, beta2,
                                  config.adam_eps, block_names=names)
        params = dn.with_param_values(params, arrays)

        entry = StepLog(step, phase,
                        float(np.asarray(physics.value if isinstance(physics, ad.Var) else physics)),
                        float(np.asarray(bc.value if isinstance(bc, ad.Var) else bc)),
                        float(np.asarray(ic.value if isinstance(ic, ad.Var) else ic)),
                        total_value)
        log.append(entry)
        if progress_sink is not None:
            progress_sink(entry, params)

    return TrainResult(params, log)


def train_baseline(config: TrainConfig,
                   progress_sink: Optional[Callable] = None) -> TrainResult:
    """Plain physics-informed training: the loop with attacks disabled."""
    return train(replace(config, warmup_fraction=1.0), progress_sink)
