#!/usr/bin/env python3
"""Benchmark of the delaylyap package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of :data:`WORKLOADS`, or ``all`` to run each in turn. Run
it from anywhere; it finds the package in ``src/`` next to this
directory and writes scratch files only under ``.bench_out/`` there.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. Inputs come from the seed
alone (see ``inputs.py``) and are built before each operation's clock
starts. Every operation's output is checked, outside the timed region,
against a reference the timed path does not produce.

With ``--trace 0`` a run measures for ``S`` seconds and reports the
end-to-end metrics. With ``--trace 1`` it runs a fixed list of
operations twice, first untraced and then under ``tracing.Tracer``, so
that every count repeats exactly for a given seed, and reports the
per-layer metrics, each per operation, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.
"""

import os

# One BLAS thread, set before NumPy loads here or in any child. On two
# cores one thread was as fast as two at every size measured, and steadier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CONFIGS = BENCH / "configs"

# A child that runs longer than this is killed and its operation fails.
CHILD_TIMEOUT_S = 120.0
# Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _fail_without_package():
    if not (SRC / "delaylyap" / "__init__.py").is_file():
        sys.exit("bench: no package at %s; run from a checkout of the repository" % SRC)


_fail_without_package()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# Measurement helpers


def environment(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS), "seed": seed, "git_commit": commit}


def measure_setup():
    """Median time for a fresh interpreter to ``import delaylyap``."""
    code = ("import time; t = time.perf_counter(); import delaylyap; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_child(argv, log):
    """Run one child to completion; return its exit code, wall time and
    peak RSS in MB, or raise ``TimeoutError`` after killing it."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=CHILD_ENV, cwd=ROOT,
                                stdout=fh, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError("%s ran over %gs" % (argv[-1], CHILD_TIMEOUT_S))
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def end_to_end(res, op_times, setup_s, peak_rss_mb):
    """Set the end-to-end metrics, and note the 99th percentile and the
    throughput. Those two are not metrics: with one client in a closed
    loop the throughput is the inverse of the mean operation time, and
    most workloads complete 1 to 5 operations a run, where the percentile
    is the maximum of a few samples."""
    ms = np.asarray(op_times) * 1e3
    p99 = np.percentile(ms, 99)
    res.metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (float(np.median(ms)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    res.notes.append("op_ms.p99 %.6g (%d operations, %d above it), ops_per_s %.6g"
                     % (p99, len(ms), int(np.sum(ms > p99)), len(ms) / float(np.sum(op_times))))


class Outcome:
    """Operations attempted, failures with reasons, and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.notes = []

    def record(self, op, problems):
        self.attempted += 1
        if problems:
            self.failures.append("op %s: %s" % (op, "; ".join(problems)))


# ---------------------------------------------------------------------------
# Fresh-process CLI workloads


def paper_steps():
    config = str(CONFIGS / "example1.json")
    return [("solve", ["solve", "--config", config], 0, checks.solve_problems),
            ("validate", ["validate", "--config", config], 0, checks.validate_problems)]


def reject_steps():
    return [
        ("validate-growing", ["validate", "--config", str(CONFIGS / "growing_scalar.json")],
         4, None),
        ("solve-mirrored", ["solve", "--config", str(CONFIGS / "mirrored_roots.json")],
         1, None),
        ("check-zero-root", ["check", "--config",
                             str(CONFIGS / "degenerate_zero_root.json")], 1, None),
    ]


def cli_pass(steps, work, op, spans_dir=None):
    """One pass over the steps, each a fresh process. Returns the summed
    wall time, the per-step times, the largest child RSS and problems."""
    total, per_step, rss, problems = 0.0, {}, 0.0, []
    for name, args, expected, check in steps:
        out = work / name
        out.mkdir(parents=True, exist_ok=True)
        cli_args = args + ["--out", str(out), "--quiet"]
        if spans_dir is None:
            argv = [sys.executable, "-m", "delaylyap"] + cli_args
        else:
            spans = spans_dir / ("op%d-%s.json" % (op, name))
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), str(op)] + cli_args
        try:
            rc, wall, child_rss = run_child(argv, out / "log.txt")
        except TimeoutError as exc:
            problems.append(str(exc))
            continue
        total += wall
        per_step[name] = wall
        rss = max(rss, child_rss)
        if rc != expected:
            problems.append("%s exited %d, expected %d" % (name, rc, expected))
        elif check is not None:
            problems.extend("%s: %s" % (name, p) for p in check(out))
    return total, per_step, rss, problems


def run_cli(steps, name, seed, seconds, trace, work):
    """Closed loop of passes over ``steps``, or one untraced and one traced
    pass."""
    res = Outcome()
    if trace:
        base, _, _, problems = cli_pass(steps, work, 0)
        res.record(0, problems)
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced, _, _, problems = cli_pass(steps, work, 1, spans_dir)
        res.record(1, problems)
        spans, counters = tracing.load(sorted(spans_dir.glob("*.json")))
        tracing.dump(spans, counters, OUT / ("trace-%s.json" % name))
        res.metrics = _layer_metrics(spans, counters, 1, traced - base)
        return res
    setup_s = measure_setup()
    times, rss, per_step = [], 0.0, {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        total, steps_s, child_rss, problems = cli_pass(steps, work, res.attempted)
        res.record(res.attempted, problems)
        times.append(total)
        rss = max(rss, child_rss)
        for step, wall in steps_s.items():
            per_step.setdefault(step, []).append(wall)
    end_to_end(res, times, setup_s, rss)
    res.notes += ["%s_s (median of %d) %.4f" % (step, len(v), statistics.median(v))
                  for step, v in per_step.items()]
    return res


def _layer_metrics(spans, counters, ops, overhead_s):
    metrics = {k: (v, _layer_unit(k)) for k, v in
               tracing.summarize(spans, counters, ops).items()}
    metrics["trace.overhead_ms"] = (overhead_s * 1e3 / ops, "ms")
    return metrics


def _layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


# ---------------------------------------------------------------------------
# In-process workloads


def run_inprocess(make, cost_samples, trace_ops, name, seed, seconds, trace, work):
    """Closed loop of in-process operations, or ``trace_ops`` of them untraced
    and then traced. ``cost_samples`` stable operations, picked by the seed,
    are also checked against the simulated cost."""
    res = Outcome()
    records = []
    if trace:
        cases = [make(seed, i) for i in range(trace_ops)]
        base = []
        for i, (case, args) in enumerate(cases):
            t0 = time.perf_counter()
            out, err = ops.run_op(args)
            base.append(time.perf_counter() - t0)
            records.append((i, case, out, err))
        tracer = tracing.Tracer()
        tracer.install()
        traced, mismatched = [], []
        try:
            for i in range(trace_ops):
                _, args = make(seed, i)
                t0 = time.perf_counter()
                with tracer.operation(i):
                    out, _ = ops.run_op(args)
                traced.append(time.perf_counter() - t0)
                if not ops.same_result(out, records[i][2]):
                    mismatched.append(i)
        finally:
            tracer.uninstall()
        for i in range(trace_ops):
            res.record(trace_ops + i, ["traced result differs"] if i in mismatched else [])
        tracing.dump(tracer.spans, tracer.counters,
                     OUT / ("trace-%s.json" % name))
        res.metrics = _layer_metrics(tracer.spans, tracer.counters, trace_ops,
                                     sum(traced) - sum(base))
    else:
        setup_s = measure_setup()
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            case, args = make(seed, len(times))
            t0 = time.perf_counter()
            out, err = ops.run_op(args)
            times.append(time.perf_counter() - t0)
            records.append((len(times) - 1, case, out, err))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        end_to_end(res, times, setup_s, peak)

    stable = [r for r in records if r[3] is None and r[1]["family"] == inputs.STABLE]
    pick = np.random.default_rng([seed, 1 << 32])
    sampled = set(pick.choice(len(stable), size=min(cost_samples, len(stable)),
                              replace=False).tolist()) if stable else set()
    sampled = {stable[k][0] for k in sampled}
    for i, case, out, err in records:
        problems = [err] if err else checks.case_problems(case, out)
        if not problems and i in sampled:
            problems = checks.cost_problems(case, out)
        res.record(i, problems)
    res.notes.append("degenerate share %d/%d, cost cross-checks %d"
                     % (sum(r[1]["family"] != inputs.STABLE for r in records), len(records),
                        len(sampled)))
    return res


# ---------------------------------------------------------------------------
# Workloads

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "paper-cli": partial(run_cli, paper_steps()),
    "weight-sweep": partial(run_inprocess, ops.make_inputs(inputs.sweep_case), 2, 400),
    "dense-n12": partial(run_inprocess, ops.make_inputs(inputs.dense_case), 1, 2),
    "reject": partial(run_cli, reject_steps()),
}


def run_workload(name, seed, seconds, trace):
    work = OUT / ("%s-seed%d-pid%d" % (name, seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        return WORKLOADS[name](name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name, res):
    failed = len(res.failures)
    print("workload %s: %d attempted, %d failed (failed_frac %.4g)"
          % (name, res.attempted, failed, failed / max(res.attempted, 1)))
    for key, (value, unit) in res.metrics.items():
        print("  %-32s %.6g %s" % (key, value, unit))
    for line in res.notes:
        print("  " + line)
    for line in res.failures[:20]:
        print("  FAIL " + line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = res = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, res)
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else name + "."
        for key, (value, unit) in res.metrics.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(len(r.failures) for r in results.values())
    print("env " + json.dumps(environment(args.seed)))
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
