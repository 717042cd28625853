"""Adam optimization and the alternating adversarial training loop.

Step s draws its batch of input functions at seeds (seed ^ s) + i, so
nearby steps reuse most inputs (at seed 0 all but one). After a warmup
stretch of plain training, steps whose index is divisible by the
cadence M replace the batch with PGD-perturbed counterparts before the
gradient step, realizing the min-max objective: the attack maximizes
the physics-informed loss, the optimizer minimizes it. The baseline
model (`[run] mode = "baseline"`) is the same loop with the attack
switched off: every step is a warmup step, so comparisons isolate the
min-max component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from . import problems as pb
from .attacks import attack_physics_loss_batch
from .config import RunConfig

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


def _phase_for(step: int, config: RunConfig) -> str:
    if (config.mode == "baseline"
            or step <= config.warmup_fraction * config.steps):
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


def train(config: RunConfig, progress_sink: Optional[Callable] = None
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
    log: List[StepLog] = []

    for step in range(1, config.steps + 1):
        phase = _phase_for(step, config)
        batch_seed = config.seed ^ step
        rows = pb.sample_batch(problem, batch_seed, config.batch_size)

        if phase == "adversarial":
            # warm-start stream kept disjoint from the batch-sampling stream
            mixed = (config.seed ^ step) * 0x9E3779B1
            attack_seeds = [(mixed + i) % (2 ** 63) for i in range(len(rows))]
            rows, _ = attack_physics_loss_batch(
                params, problem, rows, colloc, [config.attack], attack_seeds)

        tape = ad.Tape()
        lifted, leaves = dn.lift_params(tape, params)
        terms = pb.loss_graph(problem, lifted, rows, colloc)
        physics, bc, ic, total = (
            float(np.asarray(t.value if isinstance(t, ad.Var) else t))
            for t in terms)
        if not np.isfinite(total):
            raise NonFiniteLossError(step, params)
        grads = ad.grad(terms[3], leaves)
        grad_list = [grads[leaf] for leaf in leaves]
        # drop this step's tape before the next one is recorded
        del tape, lifted, leaves, terms, grads
        arrays, state = adam_step(arrays, grad_list, state,
                                  config.learning_rate, config.adam_beta1,
                                  config.adam_beta2, config.adam_eps,
                                  block_names=names)
        params = dn.with_param_values(params, arrays)

        entry = StepLog(step, phase, physics, bc, ic, total)
        log.append(entry)
        if progress_sink is not None:
            progress_sink(entry, params)

    return TrainResult(params, log)
