"""Record perfbench/reference.json from the program as it stands.

    python3 perfbench/record.py

For each workload the reference holds the logged losses (training) or
summary rows (evaluation) of the reference call, and the band each value
spans over the first calls of benchmark seeds 0 to SEEDS - 1. Record it
again only when a change to the program is meant to change its outputs,
and say why in CHANGES.md.
"""

import json
import shutil
import sys

import run

# the band the per-call checks allow is recorded over this many seeds
SEEDS = 24


def record_workload(workload, work_dir):
    import workloads as wl
    clock = wl.StepClock()
    workload.setup(work_dir)
    with wl.patched(clock.sites()):
        golden = workload.run(f"{work_dir}/golden", wl.GOLDEN_RUN_SEED, clock)
        outs = [workload.run(f"{work_dir}/seed{s}", wl.run_seed(s, 0), clock)
                for s in range(SEEDS)]
        ref = reference(workload, golden, outs)
        checked = workload.golden(f"{work_dir}/check", clock, ref)
    if checked.failed or workload.oracle_check(checked):
        raise RuntimeError(f"{workload.name}: the recorded reference fails "
                           "its own checks")
    return ref


def reference(workload, golden, outs):
    import workloads as wl
    if golden.failed or any(o.failed for o in outs):
        raise RuntimeError(f"{workload.name}: a call failed while recording")
    if isinstance(workload, wl.TrainWorkload):
        logs = [workload.logged_losses(o.out_dir) for o in outs]
        totals = list(zip(*[[row[3] for row in log] for log in logs]))
        ref = {"golden": workload.logged_losses(golden.out_dir),
               "envelope": {"lo": [min(t) for t in totals],
                            "hi": [max(t) for t in totals]}}
    else:
        rows = [workload.summary(o.out_dir) for o in outs]
        ref = {"golden": {f"{m}/{d}": v for (m, d), v in
                          workload.summary(golden.out_dir).items()},
               "envelope": {f"{m}/{d}": {k: [min(r[(m, d)][k] for r in rows),
                                             max(r[(m, d)][k] for r in rows)]
                                         for k in wl.SUMMARY_FIELDS}
                            for (m, d) in rows[0]}}
    ref["seeds"] = len(outs)
    return ref


def main():
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads as wl
    path = run.HERE / "reference.json"
    reference = {}
    work_dir = run.ROOT / ".perfbench_work" / "record"
    try:
        for name, workload in wl.WORKLOADS.items():
            reference[name] = record_workload(workload, str(work_dir / name))
            print(f"recorded {name}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
