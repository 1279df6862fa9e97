"""Benchmark of the polysphere toolkit: end-to-end jobs and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A workload is ``certify``, ``build`` or ``isometry`` (see README.md); ``all``
runs the three one after another, each in its own fresh process, and
prints one table. One client runs jobs in a closed loop, one job at a
time, for ``--seconds`` seconds and at least 100 jobs, finishing the
round it is in. The oracle checks every result outside the timed
interval.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass, whose spans are also written to
``perfbench/out/``. The program is the Python source under ``src/``; there
is nothing to build.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("certify", "build", "isometry")

# The p90 needs at least ten jobs beyond it.
MIN_JOBS = 100
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 15

# The machine's speed drifts by tens of percent over seconds when other
# work shares its cores. Every job time is scaled by the speed of a
# fixed piece of exact arithmetic timed just before and just after it:
# CAL_REF_S over the median of the CAL_WINDOW calibrations on each side.
# Times then read as seconds on a machine where the calibration takes
# CAL_REF_S, about an idle core of the 2-core machine of the baseline.
CAL_STEPS = 1000
CAL_REF_S = 0.002
CAL_WINDOW = 2
# Set-up is mostly starting an interpreter and importing, which the drift
# slows differently from arithmetic. A set-up probe is scaled by the time a
# bare interpreter (`python3 -c pass`) takes to start and exit, just before
# and just after it: START_REF_S over the mean of the two.
START_REF_S = 0.05

END_TO_END = (
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.tableau_cells", "count"),
    ("lp.infeasible_share", "ratio"),
    ("properties.distance_to_hull.calls", "count"),
    ("properties.in_convex_hull.calls", "count"),
    ("properties.check_t_property.self_s", "s"),
    ("properties.lps_per_record", "ratio"),
    ("space.enumerate_ball_vertices.calls", "count"),
    ("space.enumerate_ball_vertices.self_s", "s"),
    ("space.enumerate_ball_vertices.rows_in", "count"),
    ("space.enumerate_ball_vertices.vertices_out", "count"),
    ("space.PolyhedralSpace.init.self_s", "s"),
    ("space.PolyhedralSpace.norm.calls", "count"),
    ("space.PolyhedralSpace.norm.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.rows", "count"),
    ("linalg.self_s", "s"),
    ("isometry.verify_isometry.self_s", "s"),
    ("isometry.SphereMap.apply.calls", "count"),
    ("isometry.extend.self_s", "s"),
    ("formats.parse_space_text.self_s", "s"),
    ("formats.parse_map_text.self_s", "s"),
    ("catalog.resolve.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Layers whose calls must be non-zero on a workload, and those that must be
# zero; the README says which end-to-end metric each should move.
PREDICT_NONZERO = {
    "certify": (
        "lp.solve_lp", "properties.distance_to_hull", "properties.in_convex_hull",
        "properties.check_t_property", "space.enumerate_ball_vertices",
        "space.PolyhedralSpace.init", "space.PolyhedralSpace.norm", "linalg.rank",
        "formats.parse_space_text",
    ),
    "build": (
        "space.enumerate_ball_vertices", "space.PolyhedralSpace.init", "linalg.rank",
        "formats.parse_space_text", "catalog.resolve",
    ),
    "isometry": (
        "lp.solve_lp", "space.PolyhedralSpace.norm", "space.PolyhedralSpace.init",
        "linalg.rank", "isometry.verify_isometry", "isometry.extend",
        "isometry.SphereMap.apply", "formats.parse_map_text", "formats.parse_space_text",
        "catalog.resolve",
    ),
}
PREDICT_ZERO = {"build": ("lp.solve_lp",)}


def _calibration_once() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_STEPS):
        acc += Fraction(i % 7, i % 11 + 1)
    return time.perf_counter() - start


def _calibration() -> float:
    """The faster of two timings of a fixed run of Fraction additions."""
    return min(_calibration_once(), _calibration_once())


def _scaled(times, cals):
    """Scale each time; ``cals[i]`` was taken just before ``times[i]``, ``cals[i + 1]`` just after."""
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i + 1 - CAL_WINDOW): i + 1 + CAL_WINDOW]
        out.append(t * CAL_REF_S / statistics.median(near))
    return out


def _log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def _import_program():
    if not (SRC / "polysphere" / "__init__.py").is_file():
        _log(f"error: no program source at {SRC / 'polysphere'}; run from a checkout")
        sys.exit(2)
    sys.path[:0] = [str(HERE), str(SRC)]
    import inputs
    import jobs
    import oracle

    return inputs, jobs, oracle


def _attempt(jobs, oracle, job, runner=None):
    """Run one job; returns (seconds, reason or None). Only the job is timed."""
    start = time.perf_counter()
    try:
        result = runner(job.index, jobs.run, job) if runner else jobs.run(job)
    except Exception as err:  # a job that raises is a failed job, not a crash
        return time.perf_counter() - start, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - start
    return elapsed, oracle.check(job, result)


def _warm_up(modules, workload, seed):
    inputs, jobs, oracle = modules
    stream = inputs.JobStream(workload, seed)
    warm = stream.warmup()
    _, reason = _attempt(jobs, oracle, warm)
    if reason is not None:
        _log(f"warm-up job {warm.label} failed: {reason}")
    return stream, reason is None


def _setup_probe(workload, seed) -> int:
    """Import, make the first round of inputs and run the warm-up job."""
    modules = _import_program()
    stream, ok = _warm_up(modules, workload, seed)
    stream.round()
    return 0 if ok else 1


def _time_setup(workload, seed) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


def _bare_start() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def _report(workload, failures, reason):
    for label, why in failures[:5]:
        _log(f"{workload}: job {label} failed: {why}")
    if reason:
        _log(f"{workload}: {reason}")


def measure(workload, seed, seconds) -> dict:
    modules = _import_program()
    _, jobs, oracle = modules
    stream, warm_ok = _warm_up(modules, workload, seed)

    # The set-up probes are spread over the run, probe k once the run is
    # k / SETUP_PROBES of the way through, so that they meet the same
    # drift of machine speed as the jobs do. The loop's clock leaves them
    # out, so they do not take time from the jobs.
    times, cals, failures, setup = [], [], [], []
    start = time.perf_counter()
    probing = 0.0

    def probe_if_due(progress):
        nonlocal probing
        while len(setup) < SETUP_PROBES and len(setup) <= progress * SETUP_PROBES:
            probe_start = time.perf_counter()
            before = _bare_start()
            elapsed = _time_setup(workload, seed)
            setup.append(elapsed * START_REF_S * 2 / (before + _bare_start()))
            probing += time.perf_counter() - probe_start

    def clock():
        return time.perf_counter() - start - probing

    while clock() < seconds or len(times) < MIN_JOBS:
        for job in stream.round():
            probe_if_due(min(clock() / seconds, len(times) / MIN_JOBS))
            cals.append(_calibration())
            elapsed, reason = _attempt(jobs, oracle, job)
            times.append(elapsed)
            if reason is not None:
                failures.append((job.label, reason))
    cals.append(_calibration())
    probe_if_due(1.0)
    _log(f"{workload}: raw job p50 {statistics.median(times):.4f} s, "
         f"calibration median {statistics.median(cals) * 1000:.3f} ms")
    times = _scaled(times, cals)

    _report(workload, failures, None if warm_ok else "warm-up failed")
    completed = len(times) - len(failures)
    metrics = {
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
        "jobs_per_s": completed / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "correct": warm_ok and not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def _pass_seconds(jobs, oracle, pass_jobs, runner=None) -> float:
    """Scaled seconds for one pass over the jobs."""
    times, cals = [], [_calibration()]
    for job in pass_jobs:
        times.append(_attempt(jobs, oracle, job, runner)[0])
        cals.append(_calibration())
    return sum(_scaled(times, cals))


def _per_layer(tracer, overhead) -> dict:
    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    lp_calls = calls["lp.solve_lp"]
    records = counts["properties.condition_iii_records"]
    values = {
        "lp.tableau_cells": counts["lp.tableau_cells"],
        "lp.infeasible_share": counts["lp.infeasible"] / lp_calls if lp_calls else 0.0,
        "properties.lps_per_record": (
            calls["properties.distance_to_hull"] / records if records else 0.0
        ),
        "space.enumerate_ball_vertices.rows_in": counts["space.enumerate_ball_vertices.rows_in"],
        "space.enumerate_ball_vertices.vertices_out": counts[
            "space.enumerate_ball_vertices.vertices_out"
        ],
        "linalg.rank.rows": counts["linalg.rank.rows"],
        "linalg.self_s": sum(v for k, v in self_s.items() if k.startswith("linalg.")),
        "trace.overhead_ratio": overhead,
    }
    for name, _ in PER_LAYER:
        if name not in values:
            layer, _, field = name.rpartition(".")
            values[name] = calls[layer] if field == "calls" else self_s[layer]
    return values


def traced(workload, seed, seconds) -> dict:
    modules = _import_program()
    _, jobs, oracle = modules
    from tracer import Tracer

    stream, warm_ok = _warm_up(modules, workload, seed)
    pass_jobs = stream.round()

    # The counting pass: one round, so counts repeat exactly for a seed.
    start = time.perf_counter()
    tracer = Tracer()
    failures = []
    with tracer:
        for job in pass_jobs:
            _, reason = _attempt(jobs, oracle, job, tracer.job)
            if reason is not None:
                failures.append((job.label, reason))

    # Overhead: untraced and traced passes over the same round, in pairs
    # whose order alternates, for the rest of the run (at least two pairs).
    plain = with_trace = 0.0
    pairs = 0
    while pairs < 2 or time.perf_counter() - start < seconds:
        for traced_pass in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced_pass:
                with Tracer() as again:
                    with_trace += _pass_seconds(jobs, oracle, pass_jobs, again.job)
            else:
                plain += _pass_seconds(jobs, oracle, pass_jobs)
        pairs += 1

    values = _per_layer(tracer, with_trace / plain)
    calls, _ = tracer.layer_totals()
    broken = [f"{layer} made no calls" for layer in PREDICT_NONZERO[workload] if calls[layer] == 0]
    broken += [f"{layer} made {calls[layer]} calls, predicted none"
               for layer in PREDICT_ZERO.get(workload, ()) if calls[layer] != 0]
    _report(workload, failures, "; ".join(broken) or (None if warm_ok else "warm-up failed"))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.records()}, fh)
    return {
        "correct": warm_ok and not failures and not broken,
        "attempted": len(pass_jobs),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def run_all(seed, seconds, trace) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            _log(f"{workload}: exited with {proc.returncode} and no result")
            return 1
        results[workload] = json.loads(lines[-1])

    names = PER_LAYER if trace else END_TO_END + (("error_rate", "ratio"),)
    width = max(len(n) for n, _ in names) + 2
    print("metric".ljust(width) + "unit".ljust(7) + "".join(w.rjust(14) for w in WORKLOADS))
    for name, unit in names:
        cells = []
        for workload in WORKLOADS:
            res = results[workload]
            value = (res["failed"] / res["attempted"] if name == "error_rate"
                     else res["metrics"][name]["value"])
            cells.append(f"{value:14.6g}")
        print(name.ljust(width) + unit.ljust(7) + "".join(cells))
    print("jobs".ljust(width + 7) + "".join(f"{results[w]['attempted']:14d}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    run = traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
