"""Command-line entry point.

Subcommands: train, evaluate, attack, jacobian, selftest, generate-data.
Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import deeponet as dn
from . import evaluation as ev
from . import problems as pb
from . import sampling as sp
from . import solvers as sv
from . import training as tr
from .attacks import AttackConfig, project
from .config import RunConfig, ValidationError, parse_config, write_config


# evaluate, attack, jacobian and generate-data draw sample i from
# [run] seed + EVAL_SEED_OFFSET + i, so all four score the same inputs
EVAL_SEED_OFFSET = 1_000_000

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_freed_memory():
    """Keep freed blocks up to 32 MiB in glibc's heap for reuse. By
    default each ~10 MB step intermediate is a fresh mmap, unmapped on
    free, so every step faults its pages in anew; now RSS stays at its
    peak between steps. Process-wide, so it runs once, from the commands
    that train or evaluate, never at import; a no-op without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


def _load_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    return parse_config(path)


def _ensure_outdir(rc: RunConfig) -> str:
    os.makedirs(rc.output_dir, exist_ok=True)
    return rc.output_dir


def _load_model(path, rc: RunConfig):
    params, seed, step = dn.load_checkpoint(path)
    if params.arch != rc.arch:
        raise ValidationError(
            f"checkpoint {path} architecture {params.arch} does not match "
            f"the configured architecture {rc.arch}")
    return params


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_train(args) -> int:
    keep_freed_memory()
    rc = _load_config(args.config)
    if args.mode:
        rc = dataclasses.replace(rc, mode=args.mode)
    out = _ensure_outdir(rc)
    write_config(os.path.join(out, "resolved_config.ini"), rc)

    sink_state = {"last": time.time()}

    def sink(entry, params):
        if rc.checkpoint_every and entry.step % rc.checkpoint_every == 0:
            dn.save_checkpoint(
                os.path.join(out, f"checkpoint_{rc.mode}_step{entry.step}.npz"),
                params, rc.seed, entry.step)
        if args.verbose and (entry.step % 200 == 0
                             or time.time() - sink_state["last"] > 10):
            sink_state["last"] = time.time()
            print(f"step {entry.step} [{entry.phase}] total={entry.total:.3e}",
                  flush=True)

    result = tr.train(rc, progress_sink=sink)
    ckpt = os.path.join(out, f"checkpoint_{rc.mode}.npz")
    dn.save_checkpoint(ckpt, result.params, rc.seed, rc.steps)
    tr.write_step_log(os.path.join(out, f"step_log_{rc.mode}.csv"), result.log)
    print(f"trained {rc.mode} model -> {ckpt}")
    return 0


def _eval_datasets(rc: RunConfig, params, n_samples: int) -> ev.EvalDatasets:
    """The clean and attacked pairs evaluate, attack and generate-data
    score: sample i drawn at seed + EVAL_SEED_OFFSET + i."""
    return ev.build_eval_datasets(rc.problem, params, n_samples, rc.attack,
                                  rc.seed + EVAL_SEED_OFFSET,
                                  eval_points=rc.eval_options.eval_points)


def cmd_evaluate(args) -> int:
    keep_freed_memory()
    rc = _load_config(args.config)
    out = _ensure_outdir(rc)
    models = {
        "baseline": _load_model(args.baseline, rc),
        "stable": _load_model(args.stable, rc),
    }
    opts = rc.eval_options
    datasets = _eval_datasets(rc, models[opts.attack_model], opts.n_samples)
    report = ev.stability_report(models, datasets,
                                 spectral_functions=opts.spectral_functions,
                                 power_tol=opts.power_tol,
                                 power_max_iter=opts.power_max_iter,
                                 plot_samples=opts.plot_samples)
    ev.write_summary_csv(os.path.join(out, "summary.csv"), report)
    ev.write_errors_csv(os.path.join(out, "errors.csv"), report)
    ev.write_plot_data(out, report)
    for row in report.summary_rows:
        print(f"{row['experiment']:>16} {row['model']:>9} {row['dataset']:>10} "
              f"rel_l2={row['mean_rel_l2']:.4f} "
              f"spec_norm={row['mean_spectral_norm']:.4f}")
    print(f"wrote summary.csv, errors.csv, plot data -> {out}")
    return 0


def cmd_attack(args) -> int:
    if args.n_samples is not None and args.n_samples < 1:
        raise ValidationError(
            f"--n-samples must be at least 1, got {args.n_samples}")
    rc = _load_config(args.config)
    out = _ensure_outdir(rc)
    n = args.n_samples or min(rc.eval_options.n_samples, 20)
    datasets = _eval_datasets(rc, _load_model(args.checkpoint, rc), n)
    trace_path = os.path.join(out, "attack_traces.csv")
    inputs_path = os.path.join(out, "attacked_inputs.csv")
    ev.write_csv(trace_path, ["sample_id", "iteration", "loss"],
                 ([i, it, loss] for i, pair in enumerate(datasets.robustness)
                  for it, loss in enumerate(pair.trace.loss_per_iter.tolist())))
    xs = rc.problem.sensors
    x_col = (xs if xs.ndim == 1 else xs[:, 0]).tolist()
    ev.write_csv(inputs_path, ["sample_id", "sensor_index", "x", "f", "f_tilde"],
                 ([i, j, *cells] for i, (b, r) in enumerate(
                     zip(datasets.base, datasets.robustness))
                  for j, cells in enumerate(zip(
                      x_col, b.sample.values.tolist(),
                      r.sample.values.tolist()))))
    print(f"wrote {trace_path} and {inputs_path}")
    return 0


def cmd_jacobian(args) -> int:
    rc = _load_config(args.config)
    opts = rc.eval_options
    if opts.spectral_functions < 1:
        raise ValidationError("[eval] spectral_functions must be at least 1 "
                              f"for jacobian, got {opts.spectral_functions}")
    out = _ensure_outdir(rc)
    params = _load_model(args.checkpoint, rc)
    y_grid = pb.eval_grid(rc.problem, opts.eval_points)
    model = dn.on_grid(params, y_grid)
    inputs = pb.sample_batch(rc.problem, rc.seed + EVAL_SEED_OFFSET,
                             opts.spectral_functions)
    estimates = [ev.jacobian_spectral_norm(params, f, y_grid,
                                           tol=opts.power_tol,
                                           max_iter=opts.power_max_iter,
                                           model=model)
                 for f in inputs]
    path = os.path.join(out, "jacobian_norms.csv")
    ev.write_csv(path, ["sample_id", "spectral_norm", "iterations_used",
                        "residual"],
                 ([i, est.spectral_norm, est.iterations_used, est.residual]
                  for i, est in enumerate(estimates)))
    mean = np.mean([est.spectral_norm for est in estimates])
    print(f"mean spectral norm over {len(estimates)} inputs: {mean:.6g}")
    print(f"wrote {path}")
    return 0


def cmd_generate_data(args) -> int:
    rc = _load_config(args.config)
    out = _ensure_outdir(rc)
    datasets = _eval_datasets(rc, _load_model(args.checkpoint, rc),
                              rc.eval_options.n_samples)
    m = rc.problem.sensor_count
    for name, pairs in (("base", datasets.base),
                        ("robustness", datasets.robustness)):
        ev.write_csv(os.path.join(out, f"inputs_{name}.csv"),
                     [f"f{j}" for j in range(m)]
                     + ["kind", "seed", "length_scale"],
                     (p.sample.values.tolist()
                      + [p.sample.meta.get(key, "")
                         for key in ("kind", "seed", "length_scale")]
                      for p in pairs))
        ev.write_csv(os.path.join(out, f"solutions_{name}.csv"),
                     [f"u{j}" for j in range(len(datasets.y_grid))],
                     (p.u_true.tolist() for p in pairs))
    ev.write_csv(os.path.join(out, "eval_grid.csv"), rc.problem.entry.axes,
                 datasets.y_grid.reshape(len(datasets.y_grid), -1).tolist())
    print(f"wrote datasets for {len(datasets.base)} samples -> {out}")
    return 0


# --------------------------------------------------------------------------
# selftest: fast oracle suite
# --------------------------------------------------------------------------

def _selftest_checks():
    rng = np.random.default_rng(0)

    def gradient_check():
        arch = dn.ArchSpec((10, 12, 12), (1, 12, 12))
        params = dn.glorot_init(arch, 0)
        f = rng.standard_normal(10)
        coords = np.array([0.3, 0.7])
        g = dn.GridModel(params, coords).vjp(f[None], np.ones((1, 2)))[0]
        h = 1e-5
        worst = 0.0
        for j in range(10):
            fp, fm = f.copy(), f.copy()
            fp[j] += h
            fm[j] -= h
            fd = (dn.forward(params, fp, coords).sum()
                  - dn.forward(params, fm, coords).sum()) / (2 * h)
            worst = max(worst, abs(fd - g[j]) / max(abs(fd), 1e-12))
        return worst < 1e-5

    def laplacian_check():
        arch = dn.ArchSpec((6, 10, 10), (2, 10, 10, 10),
                           transform="dirichlet_2d_space")
        params = dn.glorot_init(arch, 3)
        f = rng.standard_normal(6)
        point = np.array([[0.3, 0.6]])
        jet = dn.GridModel(params, point, first=(1,), laplacian=(0, 1)).jet(
            dn.fold(params, f[None]))
        h = 1e-4
        u = lambda dx, dy: dn.forward(params, f, point + [[dx, dy]])[0]
        uy = (u(0, h) - u(0, -h)) / (2 * h)
        lap = (u(h, 0) + u(-h, 0) + u(0, h) + u(0, -h) - 4 * u(0, 0)) / h ** 2
        return (abs(jet.first[1][0, 0] - uy) < 1e-6 * max(abs(uy), 1.0)
                and abs(jet.lap[0, 0] - lap) < 1e-5 * max(abs(lap), 1.0))

    def folded_merge_check():
        # the model's fold against u = (b (W_L h + b_L) + b0) mask
        arch = dn.ArchSpec((6, 10, 10, 10), (2, 10, 10, 10),
                           transform="zero_ic_dirichlet_bc")
        base = dn.glorot_init(arch, 4)
        params = dn.with_param_values(base, [  # nonzero biases too
            a + 0.1 * rng.standard_normal(a.shape)
            for _, a in dn.param_items(base)])
        rows = rng.standard_normal((3, 6))
        cols = rng.uniform(0, 1, (2, 8))
        w_last, b_last = params.trunk_layers[-1]
        hidden = dn.hidden_jet(params.trunk_layers[:-1], cols).u
        want = ((dn.branch_apply(params, rows) @ (w_last @ hidden + b_last)
                 + params.output_bias) * dn.mask_jet(arch.transform, cols).u)
        got = dn.forward(params, rows, cols.T)
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def poisson_solver_check():
        sol = sv.solve_poisson_1d_fd(lambda x: np.pi ** 2 * np.sin(np.pi * x),
                                     1001)
        exact = np.sin(np.pi * np.linspace(0, 1, 1001))
        return np.abs(sol.values - exact).max() < 1e-5

    def helmholtz_solver_check():
        sol = sv.solve_helmholtz_neumann_fd(
            lambda x: (2 + np.pi ** 2) * np.cos(np.pi * x), 1001, 2.0)
        exact = np.cos(np.pi * np.linspace(0, 1, 1001))
        return np.abs(sol.values - exact).max() < 1e-4

    def heat_solver_check():
        sol = sv.solve_heat_fd(lambda x: np.sin(np.pi * x), np.zeros_like,
                               0.01, 201, 201)
        x, t = np.meshgrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201))
        exact = np.exp(-0.01 * np.pi ** 2 * t) * np.sin(np.pi * x)
        return np.abs(sol.values - exact).max() < 1e-4

    def antiderivative_check():
        grid = np.linspace(0, 1, 50)
        sol = sv.solve_antiderivative(grid, 2 * grid, grid)
        return np.abs(sol.values - grid ** 2).max() < 1e-14

    def projection_check():
        cfg_inf = AttackConfig(epsilon=0.1, norm="linf", n_iter=0)
        cfg_l2 = AttackConfig(epsilon=1.0, norm="l2", n_iter=0)
        a = rng.standard_normal(20)
        b = a + rng.standard_normal(20)
        p1 = project(b, a, cfg_inf)
        ok = np.array_equal(project(p1, a, cfg_inf), p1)
        ok &= np.max(np.abs(p1 - a)) <= 0.1 + 1e-12
        p2 = project(b, a, cfg_l2)
        ok &= np.linalg.norm(p2 - a) <= 1.0 + 1e-12
        return bool(ok)

    def jvp_vjp_check():
        arch = dn.ArchSpec((8, 10, 10), (1, 10, 10))
        params = dn.glorot_init(arch, 1)
        f = rng.standard_normal(8)
        grid = np.linspace(0, 1, 7)
        v = rng.standard_normal((1, 8))
        w = rng.standard_normal((1, 7))
        model = dn.GridModel(params, grid)
        lhs = np.sum(w * model.jvp(f[None], v))
        rhs = np.sum(model.vjp(f[None], w) * v)
        return abs(lhs - rhs) < 1e-10

    def power_iteration_check():
        arch = dn.ArchSpec((7, 9, 9), (1, 9, 9))
        params = dn.glorot_init(arch, 2)
        f = rng.standard_normal(7)
        grid = np.linspace(0, 1, 5)
        dense = np.linalg.svd(ev.jacobian_dense(params, f, grid),
                              compute_uv=False)[0]
        est = ev.jacobian_spectral_norm(params, f, grid, tol=1e-10,
                                        max_iter=2000)
        return abs(dense - est.spectral_norm) < 1e-6

    def hammersley_check():
        expected = np.array([[0.25, 0.5], [0.5, 0.25], [0.75, 0.75]])
        return np.array_equal(sp.hammersley_interior(3, 2), expected)

    return [
        ("gradient_vs_finite_difference", gradient_check),
        ("laplacian_vs_finite_difference", laplacian_check),
        ("folded_merge_vs_unfolded", folded_merge_check),
        ("poisson1d_solver_vs_analytic", poisson_solver_check),
        ("helmholtz_solver_vs_analytic", helmholtz_solver_check),
        ("heat_solver_vs_analytic", heat_solver_check),
        ("antiderivative_vs_analytic", antiderivative_check),
        ("projection_properties", projection_check),
        ("jvp_vjp_consistency", jvp_vjp_check),
        ("power_iteration_vs_svd", power_iteration_check),
        ("hammersley_reference_set", hammersley_check),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        start = time.time()
        try:
            ok = check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            ok = False
            print(f"{name}\tERROR\t{exc}")
            failures += 1
            continue
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{name}\t{status}\t{time.time() - start:.2f}s")
    print(f"selftest: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 2


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opstab",
        description="Train, attack, and evaluate stability-hardened "
                    "physics-informed operator networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model from a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--mode", choices=["baseline", "stable"],
                         help="override [run] mode")
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate",
                            help="build datasets and the error table")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--baseline", required=True,
                        help="baseline checkpoint path")
    p_eval.add_argument("--stable", required=True,
                        help="adversarially trained checkpoint path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_attack = sub.add_parser("attack",
                              help="standalone evaluation attack run")
    p_attack.add_argument("--config", required=True)
    p_attack.add_argument("--checkpoint", required=True)
    p_attack.add_argument("--n-samples", type=int, default=None)
    p_attack.set_defaults(func=cmd_attack)

    p_jac = sub.add_parser("jacobian",
                           help="Jacobian spectral norms of a checkpoint")
    p_jac.add_argument("--config", required=True)
    p_jac.add_argument("--checkpoint", required=True)
    p_jac.set_defaults(func=cmd_jacobian)

    p_self = sub.add_parser("selftest", help="fast oracle suite")
    p_self.set_defaults(func=cmd_selftest)

    p_gen = sub.add_parser("generate-data",
                           help="emit the clean and attacked datasets as CSV")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.set_defaults(func=cmd_generate_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure -> exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
