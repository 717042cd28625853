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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import deeponet as dn
from . import problems as pb
from .attacks import (AttackConfig, AttackTrace, attack_solution_error,
                      perturbation_norm)
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
    """One input function with its trusted solution on the grid; an
    attacked pair also keeps the trace of the attack that made it."""

    sample: FunctionSample
    u_true: np.ndarray
    trace: Optional[AttackTrace] = None


@dataclass
class EvalDatasets:
    problem: pb.ProblemSpec
    y_grid: np.ndarray
    base: List[EvalPair]
    robustness: List[EvalPair]


def build_eval_datasets(problem: pb.ProblemSpec, params: dn.DeepONetParams,
                        n_samples: int, attack: AttackConfig, seed: int,
                        eval_points: Optional[int] = None) -> EvalDatasets:
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
        u_true = reference_solution(problem, sample, y_grid)
        base.append(EvalPair(sample, u_true))

        f_tilde, trace = attack_solution_error(model, sample.values, u_true,
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
        u_tilde = reference_solution(problem, tilde_sample, y_grid)
        robustness.append(EvalPair(tilde_sample, u_tilde, trace))
    return EvalDatasets(problem, y_grid, base, robustness)


# --------------------------------------------------------------------------
# Jacobian spectral norm (matrix-free power iteration + dense cross-check)
# --------------------------------------------------------------------------

@dataclass
class JacobianEstimate:
    spectral_norm: float
    iterations_used: int
    residual: float


def jacobian_dense(model, f: np.ndarray, y_grid,
                   max_entries: int = 1_000_000) -> np.ndarray:
    """Dense Jacobian of f -> u(y_grid), one jvp with identity tangents;
    cross-check path."""
    f = np.asarray(f, dtype=np.float64)
    y = np.asarray(y_grid)
    n_out = len(y) if y.ndim else 1
    if n_out * f.size > max_entries:
        raise ValueError("dense Jacobian too large; use power iteration")
    return dn.on_grid(model, y_grid).jvp(f[None, :], np.eye(f.size)).T


def jacobian_spectral_norm(params: dn.DeepONetParams, f, y_grid,
                           tol: float = 1e-6, max_iter: int = 500,
                           model: Optional[dn.GridModel] = None) -> JacobianEstimate:
    """Power iteration on J^T J using only jvp/vjp products.

    model, when given, is params on y_grid (dn.on_grid); callers that
    take several norms of one model pass it to compute the trunk once.
    """
    f = np.asarray(f, dtype=np.float64)[None, :]
    model = dn.on_grid(params if model is None else model, y_grid)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(f.size)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = model.jvp(f, v[None, :])[0]
        sigma = float(np.linalg.norm(w))
        residual = abs(sigma - estimate)
        if residual < tol:
            return JacobianEstimate(sigma, it, residual)
        estimate = sigma
        back = model.vjp(f, w[None, :])[0]
        norm = np.linalg.norm(back)
        if norm == 0.0:  # zero Jacobian
            return JacobianEstimate(0.0, it, 0.0)
        v = back / norm
    raise PowerIterationError(estimate, max_iter)


# --------------------------------------------------------------------------
# stability report
# --------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """summary_rows, plus per (model, dataset) the relative-L2 error of
    every sample and the predictions of the first plot_samples samples,
    in the datasets' sample order."""

    experiment: str
    summary_rows: List[dict]
    datasets: EvalDatasets
    predictions: Dict[tuple, List[np.ndarray]]
    rel_l2: Dict[tuple, List[float]]


def stability_report(models: Dict[str, dn.DeepONetParams],
                     datasets: EvalDatasets,
                     spectral_functions: int = 10,
                     power_tol: float = 1e-6,
                     power_max_iter: int = 500,
                     plot_samples: int = 3) -> StabilityReport:
    """Model x dataset error table plus stability diagnostics.

    For every model: mean relative-L2 on both datasets, mean Jacobian
    spectral norm over the first `spectral_functions` inputs of each
    dataset (nan when that is none), and quantiles of the empirical
    perturbation ratio ||G(f_tilde) - G(f)||_2 / ||f_tilde - f||_2 across
    the sample pairs. Each (base, robustness) pair is scored in one pass;
    only the first `plot_samples` pairs' predictions are kept.
    """
    problem = datasets.problem
    y_grid = datasets.y_grid
    pairs = {"base": datasets.base, "robustness": datasets.robustness}
    predictions, rel_l2, summary = {}, {}, []
    for name, params in models.items():
        model = dn.on_grid(params, y_grid)
        keys = [(name, dataset_name) for dataset_name in pairs]
        for key in keys:
            predictions[key], rel_l2[key] = [], []
        ratios = []
        for i, (b, r) in enumerate(zip(datasets.base, datasets.robustness)):
            preds = [dn.forward(model, p.sample.values, y_grid) for p in (b, r)]
            for key, pred, p in zip(keys, preds, (b, r)):
                rel_l2[key].append(relative_l2(pred, p.u_true))
                if i < plot_samples:
                    predictions[key].append(pred)
            delta_in = np.linalg.norm(r.sample.values - b.sample.values)
            if delta_in > 0:
                ratios.append(np.linalg.norm(preds[1] - preds[0]) / delta_in)
        # no perturbed pair: the ratio is missing, not a perfectly stable one
        c_p50 = float(np.median(ratios)) if ratios else float("nan")
        c_p95 = float(np.percentile(ratios, 95)) if ratios else float("nan")
        for dataset_name, dataset in pairs.items():
            errors = rel_l2[(name, dataset_name)]
            norms = [jacobian_spectral_norm(params, pair.sample.values, y_grid,
                                            tol=power_tol,
                                            max_iter=power_max_iter,
                                            model=model).spectral_norm
                     for pair in dataset[:spectral_functions]]
            summary.append({
                "experiment": problem.kind,
                "model": name,
                "dataset": dataset_name,
                "mean_rel_l2": float(np.mean(errors)) if errors else 0.0,
                # no norm taken is missing, not a perfectly flat model
                "mean_spectral_norm": (float(np.mean(norms)) if norms
                                       else float("nan")),
                "c_emp_p50": c_p50,
                "c_emp_p95": c_p95,
            })
        del model  # free this trunk before the next model's is built
    return StabilityReport(problem.kind, summary, datasets, predictions, rel_l2)


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def write_csv(path, header: Sequence[str], rows) -> None:
    """header, then rows; cells are Python scalars (ndarray.tolist()),
    never numpy scalars, whose repr is not a number."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(path, report: StabilityReport) -> None:
    write_csv(path, SUMMARY_CSV_HEADER,
              ([row[k] for k in SUMMARY_CSV_HEADER]
               for row in report.summary_rows))


def write_errors_csv(path, report: StabilityReport) -> None:
    keys = sorted(report.rel_l2)
    write_csv(path, ERRORS_CSV_HEADER,
              ([report.experiment, model, dataset, i,
                report.rel_l2[(model, dataset)][i]]
               for i in range(len(report.datasets.base))
               for model, dataset in keys))


def write_plot_data(out_dir, report: StabilityReport) -> list:
    """One CSV per (sample, dataset) for every sample whose predictions
    the report kept: source panel plus both predictions.

    Rows follow the evaluation grid; for the base files f_tilde equals f
    and predictions are on clean inputs, for the robustness files they
    are on the attacked inputs against the re-solved truth.
    """
    ds = report.datasets
    paths = []
    grid_col = ds.y_grid if ds.y_grid.ndim == 1 else ds.y_grid[:, 0]
    # input functions interpolated onto the evaluation grid; built per
    # call, because the grid is a fresh array on every evaluate call
    to_grid = pb.source_matrix(ds.problem, ds.y_grid)
    kept = len(report.predictions[("baseline", "base")])
    for i, (b, r) in enumerate(zip(ds.base[:kept], ds.robustness)):
        f_on_grid = to_grid @ b.sample.values
        for dataset, ft_col, truth in (
                ("base", f_on_grid, b.u_true),
                ("robustness", to_grid @ r.sample.values, r.u_true)):
            path = os.path.join(
                out_dir, f"plot_{ds.problem.kind}_{i}_{dataset}.csv")
            cols = (grid_col, f_on_grid, ft_col, truth,
                    report.predictions[("baseline", dataset)][i],
                    report.predictions[("stable", dataset)][i])
            write_csv(path, PLOTDATA_CSV_HEADER,
                      zip(*(c.tolist() for c in cols)))
            paths.append(path)
    return paths
