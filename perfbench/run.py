"""opstab pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-heat --seed 1 --seconds 30 --trace 0

Run from the root of an opstab checkout; the program is imported from
its `src/`. With --trace 0 the run issues workload calls one after
another for --seconds and reports the end-to-end metrics. With --trace 1
it issues pairs of calls on the same inputs, one plain and one with
spans around the program's layers, and reports per-layer metrics and the
tracing overhead. Before timing, both kinds of run make a reference call
and check it against perfbench/reference.json. The last line of standard
output is the result as one JSON object; see perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# imports happen once per process, so further fresh interpreters time them
IMPORT_REPEATS = 6
BLAS_THREAD_CAP = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """At most BLAS_THREAD_CAP threads, never more than the cores this
    process may use; must run before numpy is imported."""
    threads = max(1, min(BLAS_THREAD_CAP, len(os.sched_getaffinity(0))))
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


# --------------------------------------------------------------------------
# host record
# --------------------------------------------------------------------------

def _blas_threads_in_use():
    """Ask the loaded OpenBLAS itself, when there is one."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def host_record(threads):
    import numpy
    import scipy
    from opstab import __version__, _accel
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "numba_enabled": _accel.NUMBA_ENABLED,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "opstab": __version__,
        "git_sha": _git_sha(),
        "src_opstab_lines": sum(
            len(p.read_text().splitlines())
            for p in (ROOT / "src" / "opstab").glob("*.py")),
    }


def import_seconds(repeats):
    """Seconds a fresh interpreter takes to import what a run imports,
    once per repeat; interpreter start itself is left out."""
    code = ("import sys, time; start = time.perf_counter(); "
            "sys.path[:0] = sys.argv[1:]; import tracing, workloads; "
            "print(time.perf_counter() - start)")
    return [float(subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        check=True, capture_output=True, text=True).stdout)
        for _ in range(repeats)]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(setup_s, outcomes, rss_mb):
    op_ms = [ms for o in outcomes for ms in o.op_ms]
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (statistics.median(o.samples / o.wall_s
                                            for o in outcomes), "1/s"),
        "op_ms_p50": (percentile(op_ms, 50), "ms"),
        "op_ms_p90": (percentile(op_ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


LAYERS = ("cli", "config", "training", "sampling", "problems", "autodiff",
          "attacks", "solvers", "evaluation", "deeponet")


def per_layer(tracer, traced, plain, first_call):
    """Per-layer metrics from the spans of the traced calls.

    traced and plain: Outcomes of the paired calls, in order. first_call:
    (start, end) span indices of the first traced call; counts come from
    that call alone, so they depend only on the seed.
    """
    import numpy as np
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    calls = len(traced)
    ops = sum(o.ops for o in traced)

    def ms(name, q=50):
        return percentile([s.seconds * 1e3 for s in by_name.get(name, [])], q)

    def attr_mean(name, key, within=None):
        pool = by_name.get(name, []) if within is None else within
        found = [s.attrs[key] for s in pool if s.name == name]
        return float(np.mean(found)) if found else 0.0

    def train_grads(pool):
        return [g for g in pool if g.name == "autodiff.grad"
                and tracer.parent_name(g) == "training.train"]

    attack_grads = [g for g in by_name.get("autodiff.grad", [])
                    if tracer.parent_name(g).startswith("attacks.")]
    first = spans[first_call[0]:first_call[1]]
    # PGD iterations actually run: one input gradient per iteration
    first_iters = [n for i, n in tracer.child_counts(
        "attacks.pgd_train", "autodiff.grad").items()
        if first_call[0] <= i < first_call[1]]
    step_s = sum(s.seconds for s in by_name.get("training.train", []))
    sample_s = sum(s.seconds for s in by_name.get("sampling.sample_batch", []))
    csv_s = sum(s.seconds for s in by_name.get("evaluation.csv", []))

    plain_steps = [t for o in traced for ph, t in zip(o.phases, o.op_ms)
                   if ph != "adversarial"]
    adv_steps = [t for o in traced for ph, t in zip(o.phases, o.op_ms)
                 if ph == "adversarial"]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(spans, tracer.self_seconds()):
        layer = s.name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + own
    traced_wall = sum(o.call_s for o in traced)
    plain_wall = sum(o.call_s for o in plain)

    metrics = {
        "sampling.sample_batch.ms_p50": (ms("sampling.sample_batch"), "ms"),
        "sampling.sample_batch.share": (sample_s / step_s if step_s else 0.0,
                                        "ratio"),
        "problems.loss_graph.ms_p50": (ms("problems.loss_graph"), "ms"),
        "autodiff.grad.train.ms_p50": (
            percentile([g.seconds * 1e3 for g in train_grads(spans)], 50),
            "ms"),
        "autodiff.grad.attack.ms_total": (
            sum(g.seconds for g in attack_grads) * 1e3 / calls, "ms"),
        "autodiff.tape_nodes.train": (
            attr_mean("autodiff.grad", "tape_nodes", train_grads(first)),
            "count"),
        "training.adam_step.ms_p50": (ms("training.adam_step"), "ms"),
        "training.normal_step.ms_p50": (percentile(plain_steps, 50), "ms"),
        "training.normal_step.ms_p90": (percentile(plain_steps, 90), "ms"),
        "training.adv_step.ms_p50": (percentile(adv_steps, 50), "ms"),
        "training.adv_step.ms_p90": (percentile(adv_steps, 90), "ms"),
        "attacks.pgd_train.ms_p50": (ms("attacks.pgd_train"), "ms"),
        "attacks.pgd_train.iters": (
            float(np.mean(first_iters)) if first_iters else 0.0, "count"),
        "attacks.pgd_train.loss_gain": (
            attr_mean("attacks.pgd_train", "loss_gain"), "ratio"),
        "attacks.pgd_train.budget_use": (
            attr_mean("attacks.pgd_train", "budget_use"), "ratio"),
        "attacks.pgd_eval.ms_p50": (ms("attacks.pgd_eval"), "ms"),
        "attacks.pgd_eval.loss_gain": (
            attr_mean("attacks.pgd_eval", "loss_gain"), "ratio"),
        "solvers.reference_solution.ms_p50": (
            ms("solvers.reference_solution"), "ms"),
        "solvers.reference_solution.calls": (
            float(sum(s.name == "solvers.reference_solution" for s in first)),
            "count"),
        "evaluation.jacobian_norm.ms_p50": (ms("evaluation.jacobian_norm"),
                                            "ms"),
        "evaluation.power_iters.mean": (
            attr_mean("evaluation.jacobian_norm", "iters", first), "count"),
        "evaluation.build_eval_datasets.s": (
            percentile([s.seconds for s in
                        by_name.get("evaluation.build_eval_datasets", [])], 50),
            "s"),
        "evaluation.stability_report.s": (
            percentile([s.seconds for s in
                        by_name.get("evaluation.stability_report", [])], 50),
            "s"),
        "evaluation.csv.ms": (csv_s * 1e3 / calls, "ms"),
        "deeponet.forward.ms_p50": (ms("deeponet.forward"), "ms"),
        "deeponet.checkpoint_io.ms": (ms("deeponet.checkpoint_io"), "ms"),
        "config.parse_config.ms": (ms("config.parse_config"), "ms"),
        "trace.overhead_share": ((traced_wall - plain_wall) / plain_wall,
                                 "ratio"),
        "trace.overhead_ms_per_op": ((traced_wall - plain_wall) * 1e3 / ops,
                                     "ms"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}.ms_per_op"] = (self_s[layer] * 1e3 / ops, "ms")
    return metrics


def exact_counts(tracer):
    """Counts that must be the same on every call of the run."""
    tapes = {s.attrs["tape_nodes"] for s in tracer.spans
             if s.name == "autodiff.grad"
             and tracer.parent_name(s) == "training.train"}
    iters = set(tracer.child_counts("attacks.pgd_train",
                                    "autodiff.grad").values())
    return len(tapes) <= 1 and len(iters) <= 1


COUNT_METRICS = ("autodiff.tape_nodes.train", "attacks.pgd_train.iters",
                 "solvers.reference_solution.calls",
                 "evaluation.power_iters.mean")


def counts_repeat(workload, seed, metrics):
    """The counts agree with those an earlier run of this seed on this
    source recorded in the checkout; the first such run records them."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "opstab").glob("*.py")):
        digest.update(path.read_bytes())
    state = ROOT / ".perfbench_state"
    state.mkdir(exist_ok=True)
    path = state / f"counts-{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    counts = {name: metrics[name][0] for name in COUNT_METRICS}
    if path.is_file():
        return json.loads(path.read_text()) == counts
    path.write_text(json.dumps(counts))
    return True


# --------------------------------------------------------------------------

def timed_call(workload, out_dir, seed, clock):
    start = time.perf_counter()
    outcome = workload.run(out_dir, seed, clock)
    outcome.call_s = time.perf_counter() - start
    return outcome


def run(args, work_dir):
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return None
    workload = wl.WORKLOADS[args.workload]
    import_s = statistics.median(
        [time.perf_counter() - START] + import_seconds(IMPORT_REPEATS))

    # every call writes into a fresh directory: rewriting a file in place
    # makes some file systems flush it at once, which would time the disk
    setup_s = import_s + statistics.median(
        workload.setup(os.path.join(work_dir, f"setup-{i}"))
        for i in range(SETUP_REPEATS))
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    clock = wl.StepClock()
    plain, traced = [], []
    tracer = tracing.Tracer()
    first_call = None
    with tracing.patched(clock.sites()):
        # the reference call also warms the allocator and the program's
        # caches, which a long user run pays for once
        golden = workload.golden(os.path.join(work_dir, "golden"), clock,
                                 reference)
        attempted, failed = golden.ops, golden.failed
        deadline = time.perf_counter() + args.seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            seed = wl.run_seed(args.seed, rep)
            rep_dir = os.path.join(work_dir, f"rep-{rep}")
            if not args.trace:
                plain.append(timed_call(workload, os.path.join(rep_dir, "plain"),
                                        seed, clock))
                attempted += plain[-1].ops
                failed += workload.check(plain[-1], reference)
            else:
                # a pair on the same inputs, alternating which goes first
                for label in ("plain", "traced")[::1 if rep % 2 == 0 else -1]:
                    out_dir = os.path.join(rep_dir, label)
                    if label == "plain":
                        plain.append(timed_call(workload, out_dir, seed, clock))
                        continue
                    begin = len(tracer.spans)
                    with tracing.patched(tracing.sites(tracer)), \
                            tracer.span(f"cli.{workload.command}"):
                        traced.append(timed_call(workload, out_dir, seed, clock))
                    if first_call is None:
                        first_call = (begin, len(tracer.spans))
                pair = (plain[-1], traced[-1])
                for outcome in pair:
                    attempted += outcome.ops
                    failed += workload.check(outcome, reference)
                if not any(o.failed for o in pair) and (
                        workload.outputs(pair[0].out_dir)
                        != workload.outputs(pair[1].out_dir)):
                    print("perfbench: traced and plain calls disagree",
                          file=sys.stderr)
                    failed += pair[1].ops
            shutil.rmtree(rep_dir, ignore_errors=True)
            if rep == 0:
                # eval-diffrec grows by ~8 MB per call (one cached source
                # matrix per evaluation grid), so the peak is read after a
                # fixed amount of work, not after as many calls as fit
                rss_mb = peak_rss_mb()
                # the benchmark's own oracles run after that reading, so
                # their memory is not counted as the program's
                failed += workload.oracle_check(golden)
            rep += 1

    if args.trace:
        metrics = per_layer(tracer, traced, plain, first_call)
        if not (exact_counts(tracer)
                and counts_repeat(workload.name, args.seed, metrics)):
            print("perfbench: exact counts differ between calls or runs",
                  file=sys.stderr)
            failed += traced[0].ops
    else:
        metrics = end_to_end(setup_s, plain, rss_mb)

    metrics = {name: (float(value), unit)
               for name, (value, unit) in metrics.items()}
    print("host " + json.dumps(host_record(threads), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric fail_rate = {failed / attempted!r} ({failed} of "
          f"{attempted} operations failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "opstab" / "__init__.py").is_file():
        print(f"perfbench: no opstab source at {ROOT / 'src' / 'opstab'}; "
              "run from the root of an opstab checkout", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("perfbench: perfbench/reference.json is missing; "
              "make it with perfbench/record.py", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_dir.parent.rmdir()
    if result is None:
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
