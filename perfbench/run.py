#!/usr/bin/env python3
"""Run one benchmark workload from the root of a refq checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark and the `refq` binary from source with dune, writes
the seeded inputs (a separate process, so generation never counts towards
the measured one), then measures. Everything the benchmark writes stays
in the checkout (_build/ and .perfbench_tmp/). The last line of standard
output is the JSON result; every other line starts with '#'.

On a shared host, each CPU this process may use is slowed by other
tenants by different amounts at different times, and a lone busy
process stays on the CPU it started on. So the measuring process (and
the server it starts) is pinned to the CPU on which a fixed loop runs
fastest just before it starts.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("lubm-reform", "graph-cyclic", "serve-mixed")
BUILD_TIMEOUT_S = 800
PREPARE_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


PROBE_ROUNDS = 3
PROBE_S = 0.1


def spin(seconds):
    """Iterations of a fixed loop completed in the given time."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < seconds:
        s = 0
        for i in range(1000):
            s += i * i
        n += 1
    return n


def quietest_cpu():
    """The CPU, of those this process may use, on which a fixed loop ran
    fastest over a few interleaved rounds; None when there is only one."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    rate = dict.fromkeys(cpus, 0)
    try:
        for _ in range(PROBE_ROUNDS):
            for c in cpus:
                os.sched_setaffinity(0, {c})
                rate[c] += spin(PROBE_S)
    finally:
        os.sched_setaffinity(0, cpus)
    best = max(cpus, key=rate.get)
    print(f"# pinned to cpu {best}; probe loops per cpu: {rate}")
    return best


def run(cmd, timeout, env, capture=False, cpu=None):
    """Run cmd in its own process group, on [cpu] alone if given; on
    timeout kill the whole group (the measure step starts a server) and
    wait for it."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        text=True,
        preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd[:2])} exited with {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: no {needed} here: run from the root of a refq checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    run(["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/refq.exe"],
        BUILD_TIMEOUT_S, env)
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    refq = os.path.join("_build", "default", "bin", "refq.exe")

    out = run([exe, "prepare", "--workload", args.workload, "--seed", str(args.seed)],
              PREPARE_TIMEOUT_S, env, capture=True)
    sys.stdout.write(out)
    cpu = quietest_cpu()
    out = run([exe, "measure", "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", args.trace, "--refq", refq],
              MEASURE_TIMEOUT_S, env, capture=True, cpu=cpu)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
