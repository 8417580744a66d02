#!/usr/bin/env python3
"""Perf regression report: BENCH_wallclock.json.

Collects wall-clock evidence from a built tree:

 1. micro benchmarks — runs bench/micro_benchmarks with google-benchmark's
    JSON output and embeds the per-benchmark timings. --require-aoi-speedup
    gates on the AOI micro benchmarks: the grid query must beat the
    Euclidean scan by the given factor at n = 300 (BM_AoiQuerySpread*).
 2. sweep benchmarks — runs each multi-config figure/extension harness twice,
    with ROIA_BENCH_THREADS=1 (exact legacy serial behaviour) and with
    ROIA_BENCH_THREADS=N, records both wall-clock times and the speedup, and
    asserts the two runs produced byte-identical stdout (the determinism
    contract of the sweep engine).
 3. telemetry overhead (--obs-overhead BENCH...) — runs each named harness
    with all telemetry sidecars off and then on (ROIA_TELEMETRY_DIR set),
    asserts the two runs produced byte-identical stdout (the zero-cost-
    observer contract), and records the wall-clock ratio into
    BENCH_obs_overhead.json. --max-overhead-ratio gates on it.

Harnesses gate their own claims (ext_interest_management and ext_bandwidth
exit with their count of failed `check:` lines). A harness that exits
nonzero fails the report: no report is written, and stderr names the
harness, its exit code and its failed checks.

Only the Python standard library is used. Typical CI invocations:

    python3 scripts/perf_report.py --build-dir build --threads 4 \
        --out build/BENCH_wallclock.json --require-speedup 2.0
    python3 scripts/perf_report.py --build-dir build --skip-micro --sweeps \
        --obs-overhead fig8_dynamic_session ext_overload_degradation \
        --max-overhead-ratio 1.5
"""

import argparse
import json
import os
import subprocess
import sys
import time

DEFAULT_SWEEPS = [
    "fig5_replication_scalability",
    "ext_npc_model",
    "chaos_recovery",
    "ext_zone_sharding",
    "ext_overload_degradation",
    "ext_interest_management",
    "ext_bandwidth",
]


class HarnessError(RuntimeError):
    """A harness run that must not be reported: a nonzero exit or unstable stdout."""


def run_harness(binary: str, env: dict) -> bytes:
    """Stdout of one harness run; a nonzero exit raises HarnessError."""
    proc = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        failed = [line for line in proc.stdout.decode(errors="replace").splitlines()
                  if line.startswith("check:") and " FAIL " in line]
        raise HarnessError("\n".join(
            [f"{os.path.basename(binary)} exited with code {proc.returncode}"] + failed))
    return proc.stdout


# Every environment knob bench_common.hpp's TelemetryScope reads; the "off"
# leg strips them all, the "on" leg points the sidecar directory at the
# build tree.
OBS_ENV_KNOBS = ("ROIA_TELEMETRY_DIR", "ROIA_TRACE_SAMPLE")


def run_obs_overhead(build_dir: str, bench: str, repetitions: int = 3) -> dict:
    """Telemetry-off vs telemetry-on wall clock for one harness.

    Both legs pin ROIA_BENCH_THREADS=1 so scheduling noise cannot masquerade
    as observer cost; best-of-N damps the remaining jitter. Byte-identical
    stdout across the two legs is the zero-cost-observer contract — a
    mismatch aborts the report the same way a sweep determinism break does.
    """
    binary = os.path.join(build_dir, "bench", bench)
    off_env = {k: v for k, v in os.environ.items() if k not in OBS_ENV_KNOBS}
    off_env["ROIA_BENCH_THREADS"] = "1"
    on_env = dict(off_env, ROIA_TELEMETRY_DIR=os.path.join(build_dir, f"obs_overhead_{bench}"))

    def timed(env):
        best, out = None, None
        for _ in range(repetitions):
            start = time.monotonic()
            out = run_harness(binary, env)
            elapsed = time.monotonic() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, out

    off_s, off_out = timed(off_env)
    on_s, on_out = timed(on_env)
    if off_out != on_out:
        raise HarnessError(
            f"{bench}: stdout differs with telemetry sidecars on vs off — "
            "the zero-cost-observer contract is broken")
    return {
        "bench": bench,
        "repetitions": repetitions,
        "telemetry_off_seconds": round(off_s, 3),
        "telemetry_on_seconds": round(on_s, 3),
        "overhead_ratio": round(on_s / off_s, 3) if off_s > 0 else None,
        "stdout_identical": True,
    }


def run_micro(build_dir: str) -> list:
    binary = os.path.join(build_dir, "bench", "micro_benchmarks")
    out_path = os.path.join(build_dir, "micro_benchmarks.json")
    subprocess.run(
        [binary, "--benchmark_format=json", f"--benchmark_out={out_path}",
         "--benchmark_out_format=json"],
        check=True, stdout=subprocess.DEVNULL)
    with open(out_path, encoding="utf-8") as f:
        report = json.load(f)
    return [
        {
            "name": b["name"],
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
            "iterations": b["iterations"],
        }
        for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    ]


def run_sweep(build_dir: str, bench: str, threads: int) -> dict:
    binary = os.path.join(build_dir, "bench", bench)

    def timed(thread_count: int):
        env = dict(os.environ, ROIA_BENCH_THREADS=str(thread_count))
        start = time.monotonic()
        out = run_harness(binary, env)
        return time.monotonic() - start, out

    serial_s, serial_out = timed(1)
    if threads <= 1:
        # Serial-only environment (single-core runner or --threads 1): the
        # 1-vs-N comparison degenerates, so record the serial timing only.
        # There is no speedup row in this mode; downstream consumers must
        # treat `speedup: null` as "not measured", not as a regression.
        return {
            "bench": bench,
            "threads": 1,
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": None,
            "speedup": None,
            "stdout_identical": None,
        }
    parallel_s, parallel_out = timed(threads)
    if serial_out != parallel_out:
        raise HarnessError(
            f"{bench}: stdout differs between ROIA_BENCH_THREADS=1 and "
            f"={threads} — the sweep engine broke per-config determinism")
    return {
        "bench": bench,
        "threads": threads,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
        "stdout_identical": True,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--threads", type=int, default=4,
                        help="worker count for the parallel sweep runs")
    parser.add_argument("--out", default=None,
                        help="output path (default: <build-dir>/BENCH_wallclock.json)")
    parser.add_argument("--sweeps", nargs="*", default=DEFAULT_SWEEPS,
                        help="sweep bench binaries to compare at 1 vs N threads")
    parser.add_argument("--skip-micro", action="store_true")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless at least one sweep reaches this speedup")
    parser.add_argument("--obs-overhead", nargs="*", default=[],
                        help="harnesses to time with telemetry off vs on")
    parser.add_argument("--obs-overhead-out", default=None,
                        help="overhead report path "
                             "(default: <build-dir>/BENCH_obs_overhead.json)")
    parser.add_argument("--max-overhead-ratio", type=float, default=None,
                        help="fail if any telemetry-on/off ratio exceeds this")
    parser.add_argument("--require-aoi-speedup", type=float, default=None,
                        help="fail unless the grid AOI micro benchmark beats the "
                             "Euclidean one by this factor at n=300")
    args = parser.parse_args()

    # A hostile --threads value (0, negative) means "serial only", never a
    # divide-by-zero or an empty thread pool.
    if args.threads < 1:
        print(f"NOTE: --threads {args.threads} clamped to 1 (serial-only run)",
              file=sys.stderr)
        args.threads = 1
    cpu_count = os.cpu_count() or 1
    if args.threads > 1 and cpu_count < 2:
        print(f"NOTE: only {cpu_count} CPU available; forcing serial-only run",
              file=sys.stderr)
        args.threads = 1

    # Validate every binary up front: a missing benchmark must produce a
    # clean one-line error and a nonzero exit, never a traceback or a
    # partially-written report.
    needed = [] if args.skip_micro else [os.path.join(args.build_dir, "bench", "micro_benchmarks")]
    needed += [os.path.join(args.build_dir, "bench", bench)
               for bench in list(args.sweeps) + list(args.obs_overhead)]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        for path in missing:
            print(f"ERROR: benchmark binary not found: {path}", file=sys.stderr)
        print("ERROR: build the bench targets first (cmake --build <build-dir>)",
              file=sys.stderr)
        return 1

    out_path = args.out or os.path.join(args.build_dir, "BENCH_wallclock.json")
    report = {
        "schema": "roia-bench-wallclock/1",
        "threads": args.threads,
        "cpu_count": os.cpu_count(),
        "micro": [] if args.skip_micro else run_micro(args.build_dir),
        "sweeps": [],
    }

    for bench in args.sweeps:
        try:
            result = run_sweep(args.build_dir, bench, args.threads)
        except HarnessError as err:
            # No report is written: a byte-compare or harness-check failure
            # means the numbers are untrustworthy, and a partial JSON would
            # look like success to downstream tooling.
            print(f"ERROR: {err}", file=sys.stderr)
            return 1
        report["sweeps"].append(result)
        if result["speedup"] is None:
            print(f"{bench}: serial {result['serial_seconds']}s (serial-only run)")
        else:
            print(f"{bench}: serial {result['serial_seconds']}s, "
                  f"{args.threads} threads {result['parallel_seconds']}s "
                  f"-> {result['speedup']}x (stdout identical)")

    # Atomic write: downstream tooling never observes a half-written report.
    # An overhead-only invocation (--skip-micro --sweeps) leaves any existing
    # wall-clock report untouched instead of overwriting it with an empty one.
    if not args.skip_micro or args.sweeps:
        tmp_path = out_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        os.replace(tmp_path, out_path)
        print(f"wrote {out_path} ({len(report['micro'])} micro benchmarks, "
              f"{len(report['sweeps'])} sweeps)")

    if args.obs_overhead:
        overhead_report = {
            "schema": "roia-bench-obs-overhead/1",
            "cpu_count": os.cpu_count(),
            "benches": [],
        }
        for bench in args.obs_overhead:
            try:
                result = run_obs_overhead(args.build_dir, bench)
            except HarnessError as err:
                print(f"ERROR: {err}", file=sys.stderr)
                return 1
            overhead_report["benches"].append(result)
            print(f"{bench}: telemetry off {result['telemetry_off_seconds']}s, "
                  f"on {result['telemetry_on_seconds']}s "
                  f"-> {result['overhead_ratio']}x (stdout identical)")
        overhead_path = args.obs_overhead_out or os.path.join(
            args.build_dir, "BENCH_obs_overhead.json")
        tmp_path = overhead_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(overhead_report, f, indent=2)
            f.write("\n")
        os.replace(tmp_path, overhead_path)
        print(f"wrote {overhead_path} ({len(overhead_report['benches'])} benches)")
        if args.max_overhead_ratio is not None:
            ratios = [b["overhead_ratio"] for b in overhead_report["benches"]
                      if b["overhead_ratio"] is not None]
            worst = max(ratios, default=None)
            if worst is not None and worst > args.max_overhead_ratio:
                print(f"FAIL: worst telemetry overhead {worst}x > allowed "
                      f"{args.max_overhead_ratio}x", file=sys.stderr)
                return 1
            print(f"worst telemetry overhead {worst}x <= "
                  f"{args.max_overhead_ratio}x: OK")

    if args.require_aoi_speedup is not None:
        if args.skip_micro:
            print("ERROR: --require-aoi-speedup needs the micro benchmarks "
                  "(drop --skip-micro)", file=sys.stderr)
            return 1
        # cpu_time, not real_time: the gate must survive noisy shared runners,
        # and scheduler preemption only pollutes wall clock.
        times = {b["name"]: b["cpu_time"] for b in report["micro"]}
        euclid = times.get("BM_AoiQuerySpreadEuclid/300")
        grid = times.get("BM_AoiQuerySpreadGrid/300")
        if euclid is None or grid is None or grid <= 0:
            print("ERROR: AOI spread benchmarks missing from micro run; "
                  "cannot gate on AOI speedup", file=sys.stderr)
            return 1
        ratio = euclid / grid
        if ratio < args.require_aoi_speedup:
            print(f"FAIL: grid AOI speedup {ratio:.2f}x < required "
                  f"{args.require_aoi_speedup}x at n=300", file=sys.stderr)
            return 1
        print(f"grid AOI speedup {ratio:.2f}x >= {args.require_aoi_speedup}x "
              "at n=300: OK")

    if args.require_speedup is not None:
        measured = [s["speedup"] for s in report["sweeps"] if s["speedup"] is not None]
        if not measured:
            # Serial-only run: there is no parallel row to gate on. Failing
            # here would turn "this runner has one core" into a fake perf
            # regression, so the gate is explicitly skipped.
            print("NOTE: serial-only run, no speedup rows; "
                  f"--require-speedup {args.require_speedup} gate skipped",
                  file=sys.stderr)
            return 0
        best = max(measured)
        if best < args.require_speedup:
            print(f"FAIL: best sweep speedup {best}x < required "
                  f"{args.require_speedup}x", file=sys.stderr)
            return 1
        print(f"best sweep speedup {best}x >= {args.require_speedup}x: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
