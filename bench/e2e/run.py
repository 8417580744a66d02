#!/usr/bin/env python3
"""End-to-end host-time benchmark of the ROIA scalability reproduction.

Builds bench/e2e in Release mode into .bench_build/e2e at the repo root, then
runs each workload in its own process, serially, single-threaded, with every
ROIA_* environment knob removed. A workload run repeats set-up (the
calibration campaign) and session; the simulated result of every session is
checked against golden.json and against every other session of the run.

  python3 bench/e2e/run.py                        all workloads, seed 42
  python3 bench/e2e/run.py --seed 1337 --traced   held-out seed, plus the trace
  python3 bench/e2e/run.py --smoke                1 short rep + 1 traced session per workload
  python3 bench/e2e/run.py --workloads zones_roam,overload_chaos
  python3 bench/e2e/run.py --selftest             mirror digest == library digest
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Without --seconds each workload runs the fixed rep count in REPS; with it,
reps go on until T seconds have passed (at least MIN_REPS). Every metric is
printed with its unit, and timed ones with the median, quartiles and count of
the reps. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json, or
with --trace 1 its per-layer ones. The exit status is 0 only when every
session was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "roia_e2e")

# Reps per workload without --seconds (the slow delta workload gets the
# fewest).
REPS = {"fig8_euclid": 5, "fig8_grid_delta": 3, "zones_roam": 5, "overload_chaos": 7}
MIN_REPS = 3
# The traced self times must add up to the traced session within this share.
COVERAGE_TOLERANCE = 0.05


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (cheap once done) and rebuilds roia_e2e; exits on any failure."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "roia_e2e", "-j", "4"]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(1)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROIA_")}
    env["ROIA_BENCH_THREADS"] = "1"
    return env


def run_workload(name, seed, reps, seconds, smoke, trace):
    """Runs one workload process; returns its parsed lines and failures."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed), "--reps", str(reps)]
    if seconds:
        cmd += ["--budget-s", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    result = {
        "reps": [d for d in lines if d["kind"] == "rep"],
        "trace": next((d for d in lines if d["kind"] == "trace"), None),
        "process": next((d for d in lines if d["kind"] == "process"), None),
        "failures": [],
    }
    if proc.returncode != 0 or result["process"] is None:
        result["failures"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return result


def trace_problems(trace):
    """What is wrong with the traced session's split into self times."""
    problems = []
    if abs(trace["trace.coverage"] - 1) > COVERAGE_TOLERANCE:
        problems.append(f"self times cover {trace['trace.coverage']:.3f} of the session")
    for name in ("rtf.tick_self_s", "sim.non_tick_s"):
        if trace[name] < 0:
            problems.append(f"{name} is negative ({trace[name]:.4g})")
    for name in ("trace.unspanned_ticks", "trace.misplaced_calls"):
        if trace[name]:
            problems.append(f"{name} = {trace[name]:g}")
    return problems


def check(name, seed, smoke, result, golden):
    """Counts sessions and the ones whose simulated result is wrong."""
    sessions = result["reps"] + ([result["trace"]] if result["trace"] else [])
    # A process that died counts the session it was running as failed.
    died = bool(result["failures"])
    expected = golden["smoke" if smoke else "full"].get(name, {}).get(str(seed))
    reference = expected or (sessions[0]["digest"] if sessions else None)
    failed = 0
    for i, session in enumerate(sessions):
        problems = []
        if session["digest"] != reference:
            source = "golden" if expected else "the first session"
            problems.append(f"digest {session['digest']} != {reference} ({source})")
        if not session["conserved"]:
            problems.append("conservation audit failed")
        if session["kind"] == "trace":
            problems += trace_problems(session)
        if problems:
            failed += 1
            label = "trace" if session["kind"] == "trace" else f"rep {i}"
            result["failures"].append(f"{label}: " + "; ".join(problems))
    return len(sessions) + died, failed + died


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values, value=None):
    """The reported value (default: the median) plus median, quartiles, n."""
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return {"value": median if value is None else value, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(result):
    # Session time reports the fastest rep: contention on a shared host only
    # ever adds time, and the best of a run's reps is far steadier from run
    # to run than their median. Set-up reports the median rep.
    reps = result["reps"]
    sessions = [r["session_s"] for r in reps]
    speeds = [r["sim_s"] / r["session_s"] for r in reps]
    return {
        "session_s": summarize(sessions, min(sessions)),
        "sim_speed_x": summarize(speeds, max(speeds)),
        "setup_s": summarize([r["setup_s"] for r in reps]),
        "peak_rss_mb": summarize([result["process"]["peak_rss_mb"]]),
    }


def per_layer(result, names):
    reps, trace = result["reps"], result["trace"]
    metrics = {name: summarize([trace[name]]) for name in names if name in trace}
    metrics["model.measure_repl_s"] = summarize([r["measure_repl_s"] for r in reps])
    metrics["model.measure_mig_s"] = summarize([r["measure_mig_s"] for r in reps])
    metrics["fit.fit_s"] = summarize([r["fit_s"] for r in reps])
    untraced = statistics.median(r["session_s"] for r in reps)
    metrics["trace_overhead"] = summarize([trace["session_s"] / untraced - 1])
    return metrics


def print_metrics(name, seed, metrics, units, attempted, failed):
    print(f"\n{name} (seed {seed}): {attempted} sessions, failed_frac "
          f"{failed / attempted:.3f} ratio")
    for metric, m in metrics.items():
        spread = (f"  [median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
                  if m["n"] > 1 else "")
        print(f"  {metric:32s} {m['value']:14.6g} {units.get(metric, '')}{spread}")


def selftest(workloads, seed):
    """Smoke-size sessions through library and mirror; digests must match."""
    ok = True
    for name in workloads:
        result = run_workload(name, seed, 1, None, True, True)
        rep, trace = (result["reps"] or [None])[0], result["trace"]
        if result["failures"] or rep is None or trace is None:
            print(f"{name}: FAILED {result['failures']}")
            ok = False
            continue
        same = rep["digest"] == trace["digest"]
        problems = trace_problems(trace)
        ok = ok and same and not problems
        overhead = trace["session_s"] / rep["session_s"] - 1
        print(f"{name}: library {rep['digest']} mirror {trace['digest']} "
              f"{'match' if same else 'MISMATCH'}; trace_overhead {overhead:+.3f}; "
              f"coverage {trace['trace.coverage']:.3f}"
              + "".join(f"; {p}" for p in problems))
    return ok


def main():
    spec = benchmark_spec()
    names = list(REPS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workloads", "--workload", default=",".join(names),
                        help="comma-separated subset of " + ", ".join(names))
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for this long instead of fixed reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced session and report per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="1 short rep per workload")
    parser.add_argument("--selftest", action="store_true",
                        help="check mirror digests against the library runners")
    parser.add_argument("--record", metavar="PATH",
                        help="also write the results and the machine to PATH (a baseline)")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in REPS]
    if unknown:
        parser.error("unknown workload(s): " + ", ".join(unknown))

    build()
    if args.selftest:
        sys.exit(0 if selftest(workloads, args.seed) else 1)

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec[kind]]

    attempted = failed = 0
    results = {}
    for name in workloads:
        reps = 1 if args.smoke else (MIN_REPS if args.seconds else REPS[name])
        # A smoke run always adds the traced session: with a single rep, the
        # mirror is the second reference where golden.json has no digest.
        traced = args.trace or args.smoke
        result = run_workload(name, args.seed, reps, args.seconds, args.smoke, traced)
        n, bad = check(name, args.seed, args.smoke, result, golden)
        attempted, failed = attempted + n, failed + bad
        for failure in result["failures"]:
            log(f"run.py: {name}: {failure}")
        if not result["reps"] or (args.trace and not result["trace"]):
            continue
        metrics = end_to_end(result)
        if args.trace:
            metrics.update(per_layer(result, wanted))
        print_metrics(name, args.seed, metrics, units, n, bad)
        results[name] = metrics

    if args.record:
        record(args, results, units)
    out = {}
    for name, metrics in results.items():
        prefix = "" if len(workloads) == 1 else name + "."
        for metric in wanted:
            if metric in metrics:
                out[prefix + metric] = {"value": metrics[metric]["value"], "unit": units[metric]}
    correct = failed == 0 and len(results) == len(workloads)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    sys.exit(0 if correct else 1)


def record(args, results, units):
    """Writes the results with the machine they came from (a baseline)."""
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "unknown")

    def entry(metric, m):  # single samples need no quartiles
        full = m if m["n"] > 1 else {"value": m["value"]}
        return dict(full, unit=units[metric])

    baseline = {
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler_version()},
        "workloads": {name: {m: entry(m, v) for m, v in metrics.items()}
                      for name, metrics in results.items()},
    }
    with open(args.record, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


def compiler_version():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(cache) as f:
        path = next((line.split("=", 1)[1].strip() for line in f
                     if line.startswith("CMAKE_CXX_COMPILER:")), "c++")
    out = subprocess.run([path, "--version"], capture_output=True, text=True).stdout
    return out.splitlines()[0] if out else path


if __name__ == "__main__":
    main()
