"""Evaluation pipeline: datasets, error tables, Jacobian diagnostics.

Builds the two test datasets (clean pairs and attacked pairs with
re-solved references), computes relative-L2 error tables for any set of
models, estimates Jacobian spectral norms by power iteration on
matrix-free products, and summarizes the empirical perturbation ratio
||G(f_tilde) - G(f)|| / ||f_tilde - f|| that quantifies stability.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import deeponet as dn
from . import problems as pb
from .attacks import AttackConfig, attack_solution_error, perturbation_norm
from .sampling import FunctionSample

ERRORS_CSV_HEADER = ["experiment", "model", "dataset", "sample_id", "relative_l2"]
SUMMARY_CSV_HEADER = ["experiment", "model", "dataset", "mean_rel_l2",
                      "mean_spectral_norm", "c_emp_p50", "c_emp_p95"]
PLOTDATA_CSV_HEADER = ["x_grid", "f", "f_tilde", "u_true",
                       "pred_baseline", "pred_stable"]

# reference-solver resolution: error ~1e-4, an order below typical model error
DEFAULT_REFERENCE_N = 201


class DegenerateReferenceError(ValueError):
    """relative error against a zero-norm reference is undefined."""


class PowerIterationError(RuntimeError):
    def __init__(self, last_estimate: float, max_iter: int):
        super().__init__(
            f"power iteration did not converge in {max_iter} iterations "
            f"(last estimate {last_estimate:.6g})")
        self.last_estimate = last_estimate


def relative_l2(pred, truth) -> float:
    """||pred - truth||_2 / ||truth||_2 over the evaluation grid."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have equal length")
    denom = np.linalg.norm(truth)
    if denom == 0.0:
        raise DegenerateReferenceError("reference solution has zero norm")
    return float(np.linalg.norm(pred - truth) / denom)


# --------------------------------------------------------------------------
# reference solutions per problem
# --------------------------------------------------------------------------

def reference_solution(problem: pb.ProblemSpec, sample: FunctionSample,
                       eval_points: np.ndarray,
                       resolution: Optional[int] = None) -> np.ndarray:
    """u_true on the evaluation grid from the problem's classical solver."""
    return problem.entry.reference(problem, sample, eval_points,
                                   resolution or DEFAULT_REFERENCE_N)


# --------------------------------------------------------------------------
# dataset generation (three stages)
# --------------------------------------------------------------------------

@dataclass
class EvalPair:
    """One input function with its trusted solution on the grid."""

    sample: FunctionSample
    u_true: np.ndarray


@dataclass
class EvalDatasets:
    problem: pb.ProblemSpec
    y_grid: np.ndarray
    base: List[EvalPair]
    robustness: List[EvalPair]
    generation_meta: dict = field(default_factory=dict)


def build_eval_datasets(problem: pb.ProblemSpec, params: dn.DeepONetParams,
                        n_samples: int, attack: AttackConfig, seed: int,
                        eval_points: Optional[int] = None,
                        resolution: Optional[int] = None) -> EvalDatasets:
    """Stage 1 clean pairs, stage 2 evaluation attack, stage 3 re-solve.

    The attack climbs the squared error of `params` against the clean
    reference; the perturbed inputs then get their own re-solved
    references so the robustness numbers compare against the truth of
    what the model was actually fed.
    """
    y_grid = pb.eval_grid(problem, eval_points)
    model = dn.on_grid(params, y_grid)
    base, robustness = [], []
    for i in range(n_samples):
        sample = pb.sample_input(problem, seed + i)
        u_true = reference_solution(problem, sample, y_grid, resolution)
        base.append(EvalPair(sample, u_true))

        f_tilde, _ = attack_solution_error(model, sample.values, u_true,
                                           y_grid, attack)
        resolved = attack.resolve_for(sample.values)
        violation = perturbation_norm(f_tilde, sample.values, resolved) \
            - resolved.epsilon
        if violation > 1e-12:
            raise RuntimeError(
                f"sample {i}: attack violated its budget by {violation:g}")
        tilde_sample = FunctionSample(sample.sensor_xs, f_tilde,
                                      dict(sample.meta, attacked=True,
                                           coeffs=None))
        u_tilde = reference_solution(problem, tilde_sample, y_grid, resolution)
        robustness.append(EvalPair(tilde_sample, u_tilde))
    return EvalDatasets(problem, y_grid, base, robustness, {
        "n_samples": n_samples, "seed": seed,
        "attack": attack, "resolution": resolution,
    })


# --------------------------------------------------------------------------
# Jacobian spectral norm (matrix-free power iteration + dense cross-check)
# --------------------------------------------------------------------------

@dataclass
class JacobianEstimate:
    spectral_norm: float
    iterations_used: int
    residual: float


def model_jvp(model, f: np.ndarray, y_grid, direction: np.ndarray) -> np.ndarray:
    """J @ direction of f -> u(y_grid); model is DeepONetParams or a
    dn.GridModel built for y_grid."""
    out = dn.on_grid(model, y_grid)(
        ad.Dual(np.asarray(f, dtype=np.float64)[None, :],
                np.asarray(direction, dtype=np.float64)[None, :]))
    tangent = ad.tangent_of(out)
    return np.asarray(ad.primal_of(tangent)).ravel()


def model_vjp(model, f: np.ndarray, y_grid, covector: np.ndarray) -> np.ndarray:
    """J^T @ covector of f -> u(y_grid); model as in model_jvp."""
    tape = ad.Tape()
    f_var = tape.leaf(np.asarray(f, dtype=np.float64)[None, :])
    out = dn.on_grid(model, y_grid)(f_var)
    scalar = ad.total(ad.mul(out, np.asarray(covector, dtype=np.float64)[None, :]))
    return ad.grad(scalar, [f_var])[f_var].ravel()


def jacobian_dense(model, f: np.ndarray, y_grid,
                   max_entries: int = 1_000_000) -> np.ndarray:
    """Column-by-column Jacobian of f -> u(y_grid); cross-check path."""
    f = np.asarray(f, dtype=np.float64)
    y = np.asarray(y_grid)
    n_out = len(y) if y.ndim else 1
    if n_out * f.size > max_entries:
        raise ValueError("dense Jacobian too large; use power iteration")
    model = dn.on_grid(model, y_grid)
    cols = []
    for j in range(f.size):
        e = np.zeros(f.size)
        e[j] = 1.0
        cols.append(model_jvp(model, f, y_grid, e))
    return np.column_stack(cols)


def jacobian_spectral_norm(params: dn.DeepONetParams, f, y_grid,
                           tol: float = 1e-6, max_iter: int = 500,
                           seed: int = 0,
                           model: Optional[dn.GridModel] = None) -> JacobianEstimate:
    """Power iteration on J^T J using only jvp/vjp products.

    model, when given, is params on y_grid (dn.on_grid); callers that
    take several norms of one model pass it to compute the trunk once.
    """
    f = np.asarray(f, dtype=np.float64)
    model = dn.on_grid(params if model is None else model, y_grid)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(f.size)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = model_jvp(model, f, y_grid, v)
        sigma = float(np.linalg.norm(w))
        residual = abs(sigma - estimate)
        if residual < tol:
            return JacobianEstimate(sigma, it, residual)
        estimate = sigma
        back = model_vjp(model, f, y_grid, w)
        norm = np.linalg.norm(back)
        if norm == 0.0:  # zero Jacobian
            return JacobianEstimate(0.0, it, 0.0)
        v = back / norm
    raise PowerIterationError(estimate, max_iter)


# --------------------------------------------------------------------------
# stability report
# --------------------------------------------------------------------------

@dataclass
class EvalRecord:
    """Everything about one evaluation sample, for tables and plot data."""

    sample_id: int
    f: np.ndarray
    f_tilde: np.ndarray
    u_true: np.ndarray
    u_true_tilde: np.ndarray
    predictions: dict  # (model, dataset) -> array
    rel_l2: dict       # (model, dataset) -> float


@dataclass
class StabilityReport:
    experiment: str
    summary_rows: List[dict]
    records: List[EvalRecord]


def stability_report(models: Dict[str, dn.DeepONetParams],
                     datasets: EvalDatasets,
                     spectral_functions: int = 10,
                     power_tol: float = 1e-6,
                     power_max_iter: int = 500) -> StabilityReport:
    """Model x dataset error table plus stability diagnostics.

    For every model: mean relative-L2 on both datasets, mean Jacobian
    spectral norm over the first `spectral_functions` inputs of each
    dataset, and quantiles of the empirical perturbation ratio
    ||G(f_tilde) - G(f)||_2 / ||f_tilde - f||_2 across the sample pairs.
    """
    problem = datasets.problem
    y_grid = datasets.y_grid
    records = [
        EvalRecord(i, b.sample.values, r.sample.values, b.u_true, r.u_true,
                   {}, {})
        for i, (b, r) in enumerate(zip(datasets.base, datasets.robustness))
    ]
    summary = []
    for name, params in models.items():
        model = dn.on_grid(params, y_grid)
        ratios = []
        for rec in records:
            pred_base = dn.forward(model, rec.f, y_grid)
            pred_rob = dn.forward(model, rec.f_tilde, y_grid)
            rec.predictions[(name, "base")] = pred_base
            rec.predictions[(name, "robustness")] = pred_rob
            rec.rel_l2[(name, "base")] = relative_l2(pred_base, rec.u_true)
            rec.rel_l2[(name, "robustness")] = relative_l2(pred_rob,
                                                           rec.u_true_tilde)
            delta_in = np.linalg.norm(rec.f_tilde - rec.f)
            if delta_in > 0:
                ratios.append(np.linalg.norm(pred_rob - pred_base) / delta_in)
        c_p50 = float(np.median(ratios)) if ratios else 0.0
        c_p95 = float(np.percentile(ratios, 95)) if ratios else 0.0
        for dataset_name, pairs in (("base", datasets.base),
                                    ("robustness", datasets.robustness)):
            errors = [rec.rel_l2[(name, dataset_name)] for rec in records]
            norms = [jacobian_spectral_norm(params, pair.sample.values, y_grid,
                                            tol=power_tol,
                                            max_iter=power_max_iter,
                                            model=model).spectral_norm
                     for pair in pairs[:spectral_functions]]
            summary.append({
                "experiment": problem.kind,
                "model": name,
                "dataset": dataset_name,
                "mean_rel_l2": float(np.mean(errors)) if errors else 0.0,
                "mean_spectral_norm": float(np.mean(norms)) if norms else 0.0,
                "c_emp_p50": c_p50,
                "c_emp_p95": c_p95,
            })
        del model  # free this trunk before the next model's is built
    return StabilityReport(problem.kind, summary, records)


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def write_summary_csv(path, report: StabilityReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_CSV_HEADER)
        writer.writeheader()
        for row in report.summary_rows:
            writer.writerow({k: row[k] for k in SUMMARY_CSV_HEADER})


def write_errors_csv(path, report: StabilityReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ERRORS_CSV_HEADER)
        for rec in report.records:
            for (model, dataset), err in sorted(rec.rel_l2.items()):
                writer.writerow([report.experiment, model, dataset,
                                 rec.sample_id, repr(err)])


def write_plot_data(out_dir, problem: pb.ProblemSpec, report: StabilityReport,
                    y_grid: np.ndarray, sample_ids: Sequence[int] = (0, 1, 2),
                    baseline: str = "baseline", stable: str = "stable") -> list:
    """One CSV per (sample, dataset): source panel plus both predictions.

    Rows follow the evaluation grid; for the base files f_tilde equals f
    and predictions are on clean inputs, for the robustness files they
    are on the attacked inputs against the re-solved truth.
    """
    paths = []
    grid_col = y_grid if y_grid.ndim == 1 else y_grid[:, 0]
    # input functions interpolated onto the evaluation grid; built per
    # call, because the grid is a fresh array on every evaluate call
    to_grid = pb.source_matrix(problem, y_grid)
    for rec in report.records:
        if rec.sample_id not in sample_ids:
            continue
        f_on_grid = to_grid @ rec.f
        ftilde_on_grid = to_grid @ rec.f_tilde
        for dataset, f_col, ft_col, truth in (
                ("base", f_on_grid, f_on_grid, rec.u_true),
                ("robustness", f_on_grid, ftilde_on_grid, rec.u_true_tilde)):
            path = os.path.join(
                out_dir, f"plot_{problem.kind}_{rec.sample_id}_{dataset}.csv")
            cols = (grid_col, f_col, ft_col, truth,
                    rec.predictions[(baseline, dataset)],
                    rec.predictions[(stable, dataset)])
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(PLOTDATA_CSV_HEADER)
                writer.writerows(zip(*(c.tolist() for c in cols)))
            paths.append(path)
    return paths
