"""hybridlab benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certified_suite --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, round time with
every operation at its fastest repetition, peak resident memory).
``--trace 1`` alternates untraced rounds, run as with ``--trace 0``, and
traced rounds, run in this process under the tracer, and prints the
per-layer metrics of the traced ones.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
a summary of each run goes to standard error.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# one BLAS thread per process: the program's matrices are small, and on a
# shared 2-core host extra BLAS threads only add noise to the timings
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(wl, runner, seconds, tracer=None):
    """Whole rounds until the next one would end after ``seconds``.

    Without a tracer every round is measured.  With one, rounds alternate
    untraced and traced, starting untraced, and at least one of each is run.
    Returns (untraced round times, traced round times)."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    longest = 0.0
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        start = time.perf_counter()
        if use_trace:
            tracer.install()
        try:
            wall = wl.run_round(runner)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(wall)
        longest = max(longest, time.perf_counter() - start)
        done = tracer is None or traced
        if done and time.perf_counter() + longest > deadline:
            return plain, traced


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hybridlab", "__init__.py")):
        print(f"no hybridlab sources under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import workloads
    from perfbench.tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work_root = os.path.join(root, "perfbench", "_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    runner = workloads.Runner(root, tracer=tracer)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        setup_s = wl.setup(runner)
        wl.check_setup()
        plain, traced = run_rounds(wl, runner, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(plain) + len(traced)
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = tracer.metrics(len(traced), overhead)
        os.makedirs(work_root, exist_ok=True)
        tracer.write(os.path.join(work_root, f"trace-{args.workload}-{args.seed}.json"))
    else:
        who = resource.RUSAGE_SELF if isinstance(wl, workloads.BlWorkload) \
            else resource.RUSAGE_CHILDREN
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # other work on a shared host only adds time, so each operation's
            # fastest repetition is the run's least disturbed measurement of it
            "wall_s": {"value": sum(min(t) for t in wl.op_seconds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        }
    summary = {"workload": args.workload, "seed": args.seed, "rounds_untraced": plain,
               "rounds_traced": traced, "problems": wl.problems[:20],
               "failures": wl.failures[:20], **wl.summary()}
    if tracer is not None and tracer.absent:
        summary["absent"] = tracer.absent
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": not wl.problems, "attempted": rounds * wl.ops_per_round,
                      "failed": len(wl.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
