"""The three workloads: set-up, one operation, and its output checks.

An operation is one training step or one evaluation sample. One call of
the workload (an `opstab train` or an `opstab evaluate` through the CLI's
own parser and command functions) runs many operations; the benchmark
issues calls one after another from a single caller.
"""

import contextlib
import csv
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from opstab import cli, config, deeponet, evaluation, problems, training
from opstab.attacks import perturbation_norm

from tracing import patched

# relative tolerance of the reference-call checks: far above the last-ulp
# changes that reordered arithmetic brings, far below any change of method
GOLDEN_RTOL = 1e-6
# how far a seed's logged losses or summary values may lie outside the
# band recorded over the reference seeds (a factor on either side)
ENVELOPE_FACTOR = 4.0
# the fixed [run] seed of the reference call each run repeats and checks
GOLDEN_RUN_SEED = 0


def run_seed(seed, rep):
    """[run] seed of the rep-th call of a run; disjoint streams per seed."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def close(a, b, rtol=GOLDEN_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def dense_spectral_norm(params, f, y_grid):
    """Largest singular value of the central-difference Jacobian of
    f -> deeponet.forward(params, f, y_grid)."""
    f = np.asarray(f, dtype=np.float64)
    h = 1e-6 * max(1.0, float(np.max(np.abs(f))))
    steps = np.eye(f.size) * h
    out = deeponet.forward(params, np.vstack([f + steps, f - steps]), y_grid)
    jac = (out[:f.size] - out[f.size:]).T / (2 * h)
    return float(np.linalg.svd(jac, compute_uv=False)[0])


def report_error(what, exc):
    print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}",
          file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """One workload call: what ran, how long it took, what failed."""

    ops: int                 # operations attempted
    failed: int = 0
    wall_s: float = 0.0      # wall time of the training or evaluate call
    samples: int = 0         # input functions pushed through
    op_ms: list = field(default_factory=list)
    phases: list = field(default_factory=list)   # per step (training)
    out_dir: str = ""
    call_s: float = 0.0      # wall time of the whole command


class StepClock:
    """Per-step times from a progress_sink chained onto training.train.

    Step 1 starts when training's set-up (weights, collocation points)
    is done, so it measures a step like every later one.
    """

    def __init__(self):
        self.calls = []      # (wall seconds, [(phase, seconds), ...])
        self._last = 0.0

    def sites(self):
        train, make_collocation = training.train, problems.make_collocation

        def marked_collocation(*args, **kwargs):
            result = make_collocation(*args, **kwargs)
            self._last = time.perf_counter()
            return result

        def timed_train(cfg, progress_sink=None):
            steps = []
            start = self._last = time.perf_counter()

            def sink(entry, params):
                if progress_sink is not None:
                    progress_sink(entry, params)
                now = time.perf_counter()
                steps.append((entry.phase, now - self._last))
                self._last = now

            result = train(cfg, sink)
            self.calls.append((time.perf_counter() - start, steps))
            return result

        return [(training, "train", timed_train),
                (problems, "make_collocation", marked_collocation)]


def _run_command(argv):
    """One CLI command, parsed by the CLI's own parser; its prints are
    dropped so the benchmark's last line stays its result."""
    args = cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()):
        return args.func(args)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------

class TrainWorkload:
    """`opstab train` on one problem kind, config defaults otherwise."""

    command = "train"

    def __init__(self, name, kind, mode, steps):
        self.name, self.kind, self.mode, self.steps = name, kind, mode, steps
        self.batch = 32

    def config_text(self, out_dir, seed):
        return (f"[run]\noutput_dir = {out_dir}\nseed = {seed}\n"
                f"mode = {self.mode}\n\n[problem]\nkind = {self.kind}\n\n"
                f"[train]\nsteps = {self.steps}\nbatch_size = {self.batch}\n\n"
                "[attack]\nepsilon = 0.1\nrelative = true\nn_iter = 20\n")

    def setup(self, work_dir):
        """Write and parse the config; returns its seconds."""
        start = time.perf_counter()
        os.makedirs(work_dir)
        path = os.path.join(work_dir, "setup.ini")
        with open(path, "w") as fh:
            fh.write(self.config_text(work_dir, GOLDEN_RUN_SEED))
        config.parse_config(path)
        return time.perf_counter() - start

    def run(self, out_dir, seed, clock):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "run.ini")
        with open(path, "w") as fh:
            fh.write(self.config_text(out_dir, seed))
        before = len(clock.calls)
        outcome = Outcome(ops=self.steps, out_dir=out_dir)
        try:
            _run_command(["train", "--config", path])
        except Exception as exc:  # a failed call is counted, not fatal
            report_error(f"{self.name} seed {seed}", exc)
        if len(clock.calls) > before:
            outcome.wall_s, steps = clock.calls[-1]
            outcome.phases = [phase for phase, _ in steps]
            outcome.op_ms = [s * 1e3 for _, s in steps]
        done = len(outcome.op_ms)
        outcome.samples = done * self.batch
        outcome.failed = self.steps - done
        return outcome

    def logged_losses(self, out_dir):
        rows = _read_rows(os.path.join(out_dir, f"step_log_{self.mode}.csv"))
        return [[float(r[k]) for k in ("physics", "bc", "ic", "total")]
                for r in rows]

    def check(self, outcome, reference):
        """Steps whose logged losses are not finite or leave the band
        recorded over the reference seeds."""
        if outcome.failed:
            return outcome.failed
        try:
            losses = self.logged_losses(outcome.out_dir)
        except (OSError, ValueError, KeyError) as exc:
            report_error(f"{self.name} step log", exc)
            return outcome.ops
        band = reference["envelope"]
        bad = self.steps - len(losses)
        for row, lo, hi in zip(losses, band["lo"], band["hi"]):
            total = row[3]
            if not (all(math.isfinite(v) for v in row)
                    and lo / ENVELOPE_FACTOR <= total <= hi * ENVELOPE_FACTOR):
                bad += 1
        return bad

    def golden(self, out_dir, clock, reference):
        """The reference call; a step fails when a logged loss differs
        from the recorded one by more than GOLDEN_RTOL."""
        outcome = self.run(out_dir, GOLDEN_RUN_SEED, clock)
        if outcome.failed:
            return outcome
        losses = self.logged_losses(out_dir)
        golden = reference["golden"]
        bad = abs(len(losses) - len(golden))
        for row, want in zip(losses, golden):
            if not all(close(a, b) for a, b in zip(row, want)):
                bad += 1
        if bad:
            print(f"perfbench: {self.name}: {bad} steps differ from the "
                  "recorded reference", file=sys.stderr)
        outcome.failed = bad
        return outcome

    def oracle_check(self, golden):
        """Training has no oracle beyond the recorded reference."""
        return 0

    def outputs(self, out_dir):
        """What a traced and an untraced call must agree on exactly."""
        with open(os.path.join(out_dir, f"step_log_{self.mode}.csv"), "rb") as fh:
            log = fh.read()
        params, _, _ = deeponet.load_checkpoint(
            os.path.join(out_dir, f"checkpoint_{self.mode}.npz"))
        return log, [a.tobytes() for _, a in deeponet.param_items(params)]


# --------------------------------------------------------------------------

SUMMARY_FIELDS = ("mean_rel_l2", "mean_spectral_norm", "c_emp_p50", "c_emp_p95")


class EvalWorkload:
    """`opstab evaluate` on two fixed-seed untrained checkpoints."""

    command = "evaluate"
    MODEL_SEEDS = {"baseline": 11, "stable": 22}

    def __init__(self, name, kind, n_samples):
        self.name, self.kind, self.n_samples = name, kind, n_samples
        self.checkpoints = {}
        self._captured = ([], [])   # reference-call (args, result) pairs

    def config_text(self, out_dir, seed):
        return (f"[run]\noutput_dir = {out_dir}\nseed = {seed}\n\n"
                f"[problem]\nkind = {self.kind}\n\n"
                "[attack]\nepsilon = 0.1\nrelative = true\nn_iter = 20\n\n"
                f"[eval]\nn_samples = {self.n_samples}\n"
                f"spectral_functions = {self.n_samples}\n")

    def setup(self, work_dir):
        """Write and parse the config, create, save and load both
        checkpoints; returns its seconds."""
        start = time.perf_counter()
        os.makedirs(work_dir)
        path = os.path.join(work_dir, "setup.ini")
        with open(path, "w") as fh:
            fh.write(self.config_text(work_dir, GOLDEN_RUN_SEED))
        rc = config.parse_config(path)
        for model, seed in self.MODEL_SEEDS.items():
            ckpt = os.path.join(work_dir, f"checkpoint_{model}.npz")
            deeponet.save_checkpoint(ckpt, deeponet.glorot_init(rc.arch, seed),
                                     seed, 0)
            deeponet.load_checkpoint(ckpt)
            self.checkpoints[model] = ckpt
        return time.perf_counter() - start

    def run(self, out_dir, seed, clock):
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "run.ini")
        with open(path, "w") as fh:
            fh.write(self.config_text(out_dir, seed))
        outcome = Outcome(ops=self.n_samples, out_dir=out_dir)
        start = time.perf_counter()
        try:
            _run_command(["evaluate", "--config", path,
                          "--baseline", self.checkpoints["baseline"],
                          "--stable", self.checkpoints["stable"]])
        except Exception as exc:  # a failed call is counted, not fatal
            report_error(f"{self.name} seed {seed}", exc)
            outcome.failed = self.n_samples
            return outcome
        outcome.wall_s = time.perf_counter() - start
        outcome.samples = self.n_samples
        outcome.op_ms = [outcome.wall_s * 1e3 / self.n_samples]
        return outcome

    def summary(self, out_dir):
        return {(r["model"], r["dataset"]): {k: float(r[k]) for k in SUMMARY_FIELDS}
                for r in _read_rows(os.path.join(out_dir, "summary.csv"))}

    def _consistent(self, out_dir, summary):
        """errors.csv averages to the summary's mean_rel_l2."""
        errors = {}
        for r in _read_rows(os.path.join(out_dir, "errors.csv")):
            errors.setdefault((r["model"], r["dataset"]), []).append(
                float(r["relative_l2"]))
        return (set(errors) == set(summary) and all(
            close(float(np.mean(errors[key])), row["mean_rel_l2"], 1e-12)
            for key, row in summary.items()))

    def check(self, outcome, reference):
        """All samples of the call fail when a summary value is not
        finite, leaves the recorded band, or disagrees with errors.csv."""
        if outcome.failed:
            return outcome.failed
        try:
            summary = self.summary(outcome.out_dir)
            ok = self._consistent(outcome.out_dir, summary)
        except (OSError, ValueError, KeyError) as exc:
            report_error(f"{self.name} summary", exc)
            return outcome.ops
        band = reference["envelope"]
        ok &= len(summary) == len(band)
        for key, row in summary.items():
            limits = band.get(f"{key[0]}/{key[1]}", {})
            for name, value in row.items():
                lo, hi = limits.get(name, (math.nan, math.nan))
                ok &= (math.isfinite(value)
                       and lo / ENVELOPE_FACTOR <= value <= hi * ENVELOPE_FACTOR)
        return 0 if ok else outcome.ops

    def golden(self, out_dir, clock, reference):
        """The reference call; all its samples fail when its summary rows
        differ from the recorded ones by more than GOLDEN_RTOL. It keeps
        what oracle_check needs."""
        norms, datasets = self._captured = ([], [])

        def capture(fn, sink):
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.append((args, result))
                return result
            return captured

        with patched([
                (evaluation, "jacobian_spectral_norm",
                 capture(evaluation.jacobian_spectral_norm, norms)),
                (evaluation, "build_eval_datasets",
                 capture(evaluation.build_eval_datasets, datasets))]):
            outcome = self.run(out_dir, GOLDEN_RUN_SEED, clock)
        if outcome.failed:
            return outcome
        summary = self.summary(out_dir)
        golden = reference["golden"]
        ok = len(summary) == len(golden)
        for key, row in summary.items():
            want = golden.get(f"{key[0]}/{key[1]}", {})
            ok &= all(close(row[k], want.get(k, math.nan)) for k in SUMMARY_FIELDS)
        if not ok:
            print(f"perfbench: {self.name}: the reference call differs from "
                  "the recorded reference", file=sys.stderr)
            outcome.failed = outcome.ops
        return outcome

    def oracle_check(self, golden):
        """The reference call's samples fail unless every Jacobian norm
        matches the largest singular value of a central-difference
        Jacobian and every attacked input stays within its budget. Run
        apart from the call, so the peak memory of the call is read
        before the oracle's."""
        if golden.failed:
            return 0
        norms, datasets = self._captured
        self._captured = ([], [])
        ok = True
        for args, estimate in norms:
            ok &= close(estimate.spectral_norm, dense_spectral_norm(*args[:3]))
        for args, result in datasets:
            for base, attacked in zip(result.base, result.robustness):
                budget = args[3].resolve_for(base.sample.values)
                ok &= (perturbation_norm(attacked.sample.values,
                                         base.sample.values, budget)
                       <= budget.epsilon * (1 + 1e-12))
        if not ok:
            print(f"perfbench: {self.name}: the reference call failed its "
                  "oracle checks", file=sys.stderr)
            return golden.ops
        return 0

    def outputs(self, out_dir):
        found = []
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    found.append((name, fh.read()))
        return found


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-heat", "heat_source", "stable", steps=100),
        TrainWorkload("train-poisson2d", "poisson2d", "baseline", steps=16),
        EvalWorkload("eval-diffrec", "diffrec_source", n_samples=4),
    )
}
