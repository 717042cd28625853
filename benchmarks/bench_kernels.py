"""Benchmark the JIT-compiled kernels against the pure-Python path.

Runs each kernel workload twice in subprocesses: once with numba enabled
(default) and once with OPSTAB_NO_NUMBA=1, then prints a speedup table.

    python3 benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys
import time

WORKLOADS = ["thomas", "corput", "adam"]


def run_workload(name, repeat):
    import numpy as np

    from opstab import kernels

    rng = np.random.default_rng(0)
    if name == "thomas":
        n = 2001
        lower = -np.ones(n - 1)
        upper = -np.ones(n - 1)
        diag = np.full(n, 4.0)
        rhs = rng.standard_normal(n)
        kernels.thomas_solve(lower, diag, upper, rhs)  # compile
        start = time.perf_counter()
        for _ in range(repeat * 200):
            kernels.thomas_solve(lower, diag, upper, rhs)
        return time.perf_counter() - start
    if name == "corput":
        kernels.van_der_corput_base2(8)
        start = time.perf_counter()
        for _ in range(repeat):
            kernels.van_der_corput_base2(100_000)
        return time.perf_counter() - start
    if name == "adam":
        p = rng.standard_normal((128, 128))
        g = rng.standard_normal((128, 128))
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        kernels.adam_update(p, g, m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
        start = time.perf_counter()
        for _ in range(repeat * 50):
            kernels.adam_update(p, g, m, v, 7, 1e-3, 0.9, 0.999, 1e-8)
        return time.perf_counter() - start
    raise SystemExit(f"unknown workload {name}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--inner":
        name, repeat = sys.argv[2], int(sys.argv[3])
        print(json.dumps({"name": name, "seconds": run_workload(name, repeat)}))
        return

    print(f"{'kernel':>10} {'numba':>12} {'fallback':>12} {'speedup':>9}")
    for name in WORKLOADS:
        times = {}
        for label, env_flag in (("numba", ""), ("fallback", "1")):
            env = dict(os.environ, OPSTAB_NO_NUMBA=env_flag)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--inner", name, "5"],
                env=env, capture_output=True, text=True, check=True)
            times[label] = json.loads(out.stdout.strip().splitlines()[-1])["seconds"]
        speedup = times["fallback"] / times["numba"]
        print(f"{name:>10} {times['numba']:>10.4f}s {times['fallback']:>10.4f}s "
              f"{speedup:>8.1f}x")


if __name__ == "__main__":
    main()
