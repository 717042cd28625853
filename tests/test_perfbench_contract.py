"""perfbench's contract with the program.

The benchmark wraps named module attributes (tracing.sites), computes
span attributes from their arguments and results, chains a progress
sink onto training.train (workloads.StepClock) and re-checks captured
evaluation calls (EvalWorkload.oracle_check). A tiny train and evaluate
through cli.main under all of that fails here, in Tier-1, when a site
is deleted or renamed or a signature moves under it.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from opstab import cli, evaluation
from opstab.attacks import perturbation_norm

PERFBENCH = str(Path(__file__).parents[1] / "perfbench")

CONFIG = """
[run]
output_dir = {out}
mode = stable

[problem]
kind = heat_source
sensor_count = 12
interior_points = 20
boundary_points = 4
initial_points = 4

[arch]
width = 8
depth = 2

[train]
steps = 6
batch_size = 2

[attack]
n_iter = 2

[eval]
n_samples = 2
eval_points = 6
spectral_functions = 2
power_tol = 1e-12
plot_samples = 0
"""


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_train_and_evaluate_keep_perfbench_working(perfbench,
                                                          tmp_path):
    tracing, workloads = perfbench
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    tracer, clock = tracing.Tracer(), workloads.StepClock()
    norms, datasets = [], []

    def capture(fn, sink):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((args, result))
            return result
        return captured

    with tracing.patched(clock.sites()), \
            tracing.patched(tracing.sites(tracer)), \
            tracing.patched([
                (evaluation, "jacobian_spectral_norm",
                 capture(evaluation.jacobian_spectral_norm, norms)),
                (evaluation, "build_eval_datasets",
                 capture(evaluation.build_eval_datasets, datasets))]):
        assert cli.main(["train", "--config", str(path)]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint_stable.npz")
        assert cli.main(["evaluate", "--config", str(path),
                         "--baseline", ckpt, "--stable", ckpt]) == 0

    names = {span.name for span in tracer.spans}
    assert {"training.train", "training.adam_step", "attacks.pgd_train",
            "attacks.pgd_eval", "evaluation.jacobian_norm",
            "solvers.reference_solution"} <= names
    attacks = [s for s in tracer.spans if s.name == "attacks.pgd_train"]
    for span in attacks:
        assert set(span.attrs) == {"loss_gain", "budget_use"}
        assert all(math.isfinite(v) for v in span.attrs.values())
    (_, steps), = clock.calls
    assert [phase for phase, _ in steps] == [
        "warmup", "adversarial", "normal", "adversarial", "normal",
        "adversarial"]
    assert len(attacks) == 3

    # what EvalWorkload.oracle_check reads off the captured calls
    assert norms and datasets
    for args, estimate in norms:
        assert workloads.close(estimate.spectral_norm,
                               workloads.dense_spectral_norm(*args[:3]))
    for args, result in datasets:
        for base, attacked in zip(result.base, result.robustness):
            budget = args[3].resolve_for(base.sample.values)
            assert (perturbation_norm(attacked.sample.values,
                                      base.sample.values, budget)
                    <= budget.epsilon * (1 + 1e-12))
            assert not np.array_equal(attacked.sample.values,
                                      base.sample.values)
