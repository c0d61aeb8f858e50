"""Workloads, output checks and metrics of the schubert_galois benchmark.

Every instance goes through the public API the way `schubert-galois`
does: count_solutions -> random_instance -> solve_master, and for the
verdict also accumulate; then every output is checked.

The host this was built on changes speed by up to a factor of two
within seconds, so a time read off the clock says more about the host
than about the program.  Every timed job therefore runs twice on the
same input: once by the program (./src) and once by `reference`, a
frozen copy of the package taken when the benchmark was defined.  The
two run at once on two threads of a process pinned to one CPU, so both
see the same host.  A time metric is the median over the run of the
program's CPU time over the reference's, times the reference's own CPU
time on that workload (REFERENCE_S): it reads in seconds at the speed
the reference had when the benchmark was defined.

A run first takes the acceptance tests' instance (seed 7) to its
verdict, which gives galois_s and loop_s, and then solves instances
drawn from its seed, which with the verdict's solve give solve_s.  The
verdict is read on one fixed instance because the number of loops an
instance needs before its group certifies swings from 2 to 9.  A traced
run (see tracer.py) times the program alone over a fixed panel and
reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import schubert_galois as sg
import tracer

HERE = Path(__file__).resolve().parent
ACCEPTANCE_SEED = 7  # the seed of test_desk_scale_runs_certify_full_symmetric
STRATEGY = "short"
MAX_LOOPS = 15
SETUP_PAIRS = 5
TRACE_DRAWN = 3  # drawn instances in a traced run, after the verdict one
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM, REFERENCE = 0, 1


# (k, n) of all-simple problems (lambda = mu = empty).  The two are dual:
# the same count d = 5 and the same 6 unknowns, so only k, the number of
# cofactor rows on each 5 x 5 stack, differs.  BENCHMARK.json gives the
# reasons.
WORKLOADS = {
    "galois-g25": (2, 5),
    "galois-g35": (3, 5),
}

# CPU seconds of the reference on each workload, paired with the program
# as in a run: the median over the first runs of the benchmark (four on
# galois-g25, six on galois-g35) on a 2-vCPU x86-64 host with Python
# 3.11, numpy 2.4 and scipy-openblas pinned to one thread.  The time
# metrics are these times the program's CPU time over the reference's.
REFERENCE_S = {
    "galois-g25": {"setup_s": 0.257, "solve_s": 1.05, "loop_s": 0.763, "galois_s": 4.17},
    "galois-g35": {"setup_s": 0.243, "solve_s": 1.27, "loop_s": 1.21, "galois_s": 10.7},
}


def problem_of(workload: str, pkg=sg):
    return pkg.SimpleSchubertProblem(*WORKLOADS[workload], (), ())


def drawn_seed(seed: int, i: int) -> int:
    """Seed of the run's i-th drawn instance, independent for every
    (seed, i), so runs with nearby seeds share no instance."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def setup(workload: str, pkg=sg):
    """Everything before the first solve_master call."""
    problem = problem_of(workload, pkg)
    d = pkg.count_solutions(problem)
    return problem, d, pkg.random_instance(problem, ACCEPTANCE_SEED)


@dataclass
class Outcome:
    issues: list[str]
    solve_s: float = 0.0
    accumulate_s: float = 0.0
    loops: int = 0


def check(d: int, master, result, pkg=sg) -> list[str]:
    issues = []
    if len(master.solutions) != d:
        issues.append(f"{len(master.solutions)} solutions, count_solutions says {d}")
    report = pkg.verify_master(master)
    if not report.ok:
        issues.extend(report.issues)
    if result is not None:
        if result.status != "FullSymmetric":
            issues.append(f"status {result.status}")
        for p in result.permutations:
            if sorted(int(i) for i in p) != list(range(d)):
                issues.append(f"{[int(i) for i in p]} is not a bijection of range({d})")
    return issues


def pipeline(pkg, instance, verdict: bool, clock):
    """solve_master and, for the verdict, accumulate until the group
    certifies; returns (master, result, solve time, accumulate time)."""
    t0 = clock()
    master = pkg.solve_master(instance)
    t1 = clock()
    result = (pkg.accumulate(master, strategy=STRATEGY, max_loops=MAX_LOOPS)
              if verdict else None)
    t2 = clock()
    return master, result, t1 - t0, t2 - t1


def checked(d: int, run, pkg=sg) -> Outcome:
    """Check what pipeline returned (or the exception it raised)."""
    if isinstance(run, BaseException):
        return Outcome([f"{type(run).__name__}: {run}"])
    master, result, solve_s, accumulate_s = run
    try:
        issues = check(d, master, result, pkg)
    except Exception as e:  # a failed run is counted, never skipped
        issues = [f"{type(e).__name__}: {e}"]
    return Outcome(issues, solve_s, accumulate_s,
                   len(result.permutations) if result is not None else 0)


def run_instance(d: int, instance, verdict: bool, recorder=None) -> Outcome:
    """Run the program alone on one instance and check every output.

    With a recorder the pipeline runs traced; the checks run untraced so
    their calls do not count as layer work.
    """
    try:
        with recorder.installed() if recorder else contextlib.nullcontext():
            run = pipeline(sg, instance, verdict, tracer.clock)
    except Exception as e:  # a failed run is counted, never skipped
        run = e
    return checked(d, run)


def run_together(calls):
    """Run calls[0] and calls[1] on two threads at once; return their
    results, or the exception each raised.

    With the process pinned to one CPU the interpreter hands the CPU
    from one thread to the other every few milliseconds, so both see the
    same host while they run.
    """
    results = [None, None]

    def body(side):
        try:
            results[side] = calls[side]()
        except Exception as e:
            results[side] = e

    threads = [threading.Thread(target=body, args=(side,)) for side in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


@dataclass
class Side:
    """One package set up for one workload."""
    pkg: object
    d: int
    problem: object
    acceptance: object

    @classmethod
    def of(cls, pkg, workload: str) -> Side:
        problem, d, acceptance = setup(workload, pkg)
        return cls(pkg, d, problem, acceptance)

    def drawn(self, seed: int, i: int):
        return self.pkg.random_instance(self.problem, drawn_seed(seed, i))


def run_pair(sides, instances, verdict: bool) -> list[Outcome]:
    """The program and the reference on the same input at once, each
    timed in the CPU time of its own thread."""
    runs = run_together([functools.partial(pipeline, s.pkg, inst, verdict, time.thread_time)
                         for s, inst in zip(sides, instances)])
    outcomes = [checked(s.d, run, s.pkg) for s, run in zip(sides, runs)]
    if outcomes[REFERENCE].issues:
        raise RuntimeError(f"the reference failed: {outcomes[REFERENCE].issues}")
    return outcomes


def probe_setup(workload: str) -> list[float]:
    """CPU times of two fresh interpreters run at once, the program's and
    the reference's, each from its start to its first solve_master call:
    imports, problem, count, and the instance with its rank checks."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), package,
                               *(str(x) for x in WORKLOADS[workload])],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for package in ("schubert_galois", "reference")]
    took = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            words = out.split()
            if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
                raise RuntimeError(f"setup probe exited with {proc.returncode}: "
                                   f"{out!r} {err!r}")
            took.append(float(words[1]))
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return took


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_took = [probe_setup(workload) for _ in range(SETUP_PAIRS)]

    start = time.perf_counter()
    program = Side.of(sg, workload)
    # Warm-up of the program alone; the peak memory is read before the
    # reference is loaded.
    outcomes = [run_instance(program.d, program.acceptance, verdict=False)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = Side.of(importlib.import_module("reference"), workload)
    sides = (program, reference)
    if checked(reference.d, pipeline(reference.pkg, reference.acceptance, False,
                                     time.thread_time), reference.pkg).issues:
        raise RuntimeError("the reference failed its warm-up")

    verdicts = [run_pair(sides, [s.acceptance for s in sides], True)]
    pairs = list(verdicts)
    took: list[float] = []
    while not took or time.perf_counter() - start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        i = len(took)
        pairs.append(run_pair(sides, [s.drawn(seed, i) for s in sides], False))
        took.append(time.perf_counter() - t0)

    outcomes += [p[PROGRAM] for p in pairs]
    good = [p for p in pairs if not p[PROGRAM].issues]
    good_verdicts = [p for p in verdicts if not p[PROGRAM].issues]
    if not good_verdicts:
        raise RuntimeError(f"every verdict failed: {verdicts[0][PROGRAM].issues}")
    # (program, reference) CPU seconds of each metric, one pair a sample
    timed = {
        "setup_s": setup_took,
        "solve_s": [[o.solve_s for o in p] for p in good],
        "loop_s": [[o.accumulate_s / max(o.loops, 1) for o in p] for p in good_verdicts],
        "galois_s": [[o.solve_s + o.accumulate_s for o in p] for p in good_verdicts],
    }
    metrics = {}
    for name, ts in timed.items():
        ratios = [t[PROGRAM] / t[REFERENCE] for t in ts]
        metrics[name] = (REFERENCE_S[workload][name] * statistics.median(ratios), "s")
        print(f"{name}: reference {statistics.median(t[REFERENCE] for t in ts):.4f} s "
              "this run; program over reference " + " ".join(f"{x:.4f}" for x in ratios))
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["ok_ratio"] = (sum(not o.issues for o in outcomes) / len(outcomes), "ratio")
    samples = {name: len(ts) for name, ts in timed.items()}
    return outcomes, metrics, samples


def measure_traced(workload: str, seed: int):
    """Traced run of the program alone over a fixed panel, so every count
    repeats for a seed.

    The panel is the verdict instance plus TRACE_DRAWN drawn instances,
    as in an untraced run.  It runs untraced first; the difference is the
    tracing overhead.
    """
    problem, d, acceptance = setup(workload)
    panel = [(acceptance, True)] + [
        (sg.random_instance(problem, drawn_seed(seed, i)), False) for i in range(TRACE_DRAWN)]
    plain = [run_instance(d, inst, verdict) for inst, verdict in panel]
    recorder = tracer.Recorder()
    outcomes = []
    for inst, verdict in panel:
        first = len(recorder.spans)
        o = run_instance(d, inst, verdict, recorder)
        if not o.issues:
            o.issues = tracer.check_spans(recorder.spans, problem, d, first, verdict)
        outcomes.append(o)
    metrics = tracer.layer_metrics(recorder.spans)
    overhead = sum(o.solve_s + o.accumulate_s for o in outcomes) - sum(
        o.solve_s + o.accumulate_s for o in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"instances": len(panel), "spans": len(recorder.spans)}
    return plain + outcomes, metrics, samples


def report(outcomes, metrics, samples, env) -> str:
    """Print a readable summary and return the result line."""
    print(json.dumps({"environment": env, "samples": samples}))
    for i, o in enumerate(outcomes):
        if o.issues:
            print(f"instance {i} FAILED: " + "; ".join(o.issues))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    failed = sum(1 for o in outcomes if o.issues)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in metrics.items()},
    })
