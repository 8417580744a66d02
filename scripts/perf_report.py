#!/usr/bin/env python3
"""Perf regression report: BENCH_wallclock.json.

Collects two kinds of wall-clock evidence from a built tree:

 1. micro benchmarks — runs bench/micro_benchmarks with google-benchmark's
    JSON output and embeds the per-benchmark timings.
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
 4. interest-management report (--interest) — runs ext_interest_management,
    parses the per-policy t_aoi power-law exponents, model thresholds and
    check lines into BENCH_interest.json, and fails if any check failed.
    --require-aoi-speedup additionally gates on the AOI micro benchmarks:
    the grid query must beat the Euclidean scan by the given factor at
    n = 300 (BM_AoiQuerySpread*).
 5. bandwidth report (--bandwidth) — runs ext_bandwidth under
    ROIA_REPLICATION=delta at 1 and N threads, asserts byte-identical
    stdout, and parses the codec comparison (measured egress reduction,
    per-codec n_max and bytes-per-user on the 25 Mbit/s reference link)
    into BENCH_bandwidth.json. --require-bandwidth-reduction gates on the
    measured reduction and on delta beating full's bandwidth-limited n_max.

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
import re
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
]


class DeterminismError(RuntimeError):
    """A sweep produced different stdout at different thread counts."""


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
            proc = subprocess.run([binary], check=True, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            elapsed = time.monotonic() - start
            if best is None or elapsed < best:
                best = elapsed
            out = proc.stdout
        return best, out

    off_s, off_out = timed(off_env)
    on_s, on_out = timed(on_env)
    if off_out != on_out:
        raise DeterminismError(
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


def run_interest(build_dir: str) -> dict:
    """BENCH_interest.json: per-IM-algorithm scaling facts.

    Runs ext_interest_management once and parses its tables: the aggregate
    t_aoi power-law fit (exponent/amplitude/R^2), the per-policy model
    thresholds (n_max(1), 80 % trigger, l_max) and the harness's own
    check lines. A failing check makes the harness exit nonzero, which
    fails the report too.
    """
    binary = os.path.join(build_dir, "bench", "ext_interest_management")
    env = dict(os.environ, ROIA_BENCH_THREADS="1")
    proc = subprocess.run([binary], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    out = proc.stdout.decode()

    policies = {}
    section = None
    checks = []
    for line in out.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            # Section anchors; any other comment line (e.g. the form-selection
            # table, whose rows also lead with a policy name) ends the section.
            if stripped.startswith("# algorithm") and "exponent" in stripped:
                section = "power"
            elif stripped.startswith("# algorithm") and "n_max(1)" in stripped:
                section = "thresholds"
            else:
                section = None
            continue
        if stripped.startswith("check:"):
            # "check: <description>  PASS|FAIL (<value>)"
            section = None
            body = stripped[len("check:"):].strip()
            passed = " PASS (" in body
            verdict = " PASS (" if passed else " FAIL ("
            checks.append({"check": body.split(verdict)[0].strip(), "passed": passed})
            continue
        fields = stripped.split()
        if section and len(fields) >= 4 and fields[0] in ("euclidean", "grid"):
            entry = policies.setdefault(fields[0], {})
            if section == "power":
                entry["aoi_exponent"] = float(fields[1])
                entry["aoi_amplitude"] = float(fields[2])
                entry["aoi_loglog_r2"] = float(fields[3])
            else:
                entry["n_max_1"] = int(fields[1])
                entry["trigger_80pct"] = int(fields[2])
                entry["l_max"] = int(fields[3])
    return {
        "schema": "roia-bench-interest/1",
        "exit_code": proc.returncode,
        "policies": policies,
        "checks": checks,
    }


def run_bandwidth(build_dir: str, threads: int) -> dict:
    """BENCH_bandwidth.json: delta-codec egress facts.

    Runs ext_bandwidth with ROIA_REPLICATION=delta at 1 and N worker
    threads, asserts byte-identical stdout (the delta leg rides the same
    sweep engine, so it inherits the determinism contract), and parses the
    codec-comparison section: the measured egress reduction at the top
    population and each codec's bandwidth-limited capacity on the
    25 Mbit/s reference link.
    """
    binary = os.path.join(build_dir, "bench", "ext_bandwidth")

    def run(thread_count: int) -> bytes:
        env = dict(os.environ, ROIA_BENCH_THREADS=str(thread_count),
                   ROIA_REPLICATION="delta")
        proc = subprocess.run([binary], check=True, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return proc.stdout

    serial_out = run(1)
    identical = None
    if threads > 1:
        if serial_out != run(threads):
            raise DeterminismError(
                "ext_bandwidth: stdout differs between ROIA_BENCH_THREADS=1 "
                f"and ={threads} under ROIA_REPLICATION=delta — the delta "
                "codec broke per-config determinism")
        identical = True

    reduction, top_n, nmax_gain = None, None, None
    codecs = {}
    for line in serial_out.decode().splitlines():
        stripped = line.strip()
        match = re.match(
            r"egress reduction at steady state \(n=(\d+)\): ([0-9.]+)x", stripped)
        if match:
            top_n, reduction = int(match.group(1)), float(match.group(2))
            continue
        match = re.match(r"(full|delta)\s+(\d+)\s+([0-9.]+)$", stripped)
        if match:
            codecs[match.group(1)] = {
                "n_max_25mbit": int(match.group(2)),
                "egress_bytes_per_user_at_n_max": float(match.group(3)),
            }
            continue
        match = re.match(r"delta n_max gain at 25 Mbit/s: ([0-9.]+)x", stripped)
        if match:
            nmax_gain = float(match.group(1))
    return {
        "schema": "roia-bench-bandwidth/1",
        "threads": threads,
        "stdout_identical": identical,
        "egress_reduction": reduction,
        "egress_reduction_at_n": top_n,
        "n_max_gain_25mbit": nmax_gain,
        "codecs": codecs,
    }


def run_sweep(build_dir: str, bench: str, threads: int) -> dict:
    binary = os.path.join(build_dir, "bench", bench)

    def timed(thread_count: int):
        env = dict(os.environ, ROIA_BENCH_THREADS=str(thread_count))
        start = time.monotonic()
        proc = subprocess.run([binary], check=True, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return time.monotonic() - start, proc.stdout

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
        raise DeterminismError(
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
    parser.add_argument("--interest", action="store_true",
                        help="run ext_interest_management and write the "
                             "per-IM-algorithm report")
    parser.add_argument("--interest-out", default=None,
                        help="interest report path "
                             "(default: <build-dir>/BENCH_interest.json)")
    parser.add_argument("--require-aoi-speedup", type=float, default=None,
                        help="fail unless the grid AOI micro benchmark beats the "
                             "Euclidean one by this factor at n=300")
    parser.add_argument("--bandwidth", action="store_true",
                        help="run ext_bandwidth under ROIA_REPLICATION=delta and "
                             "write the codec-comparison report")
    parser.add_argument("--bandwidth-out", default=None,
                        help="bandwidth report path "
                             "(default: <build-dir>/BENCH_bandwidth.json)")
    parser.add_argument("--require-bandwidth-reduction", type=float, default=None,
                        help="fail unless the delta codec reaches this egress "
                             "reduction and a higher n_max than full")
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
    if args.interest:
        needed.append(os.path.join(args.build_dir, "bench", "ext_interest_management"))
    if args.bandwidth:
        needed.append(os.path.join(args.build_dir, "bench", "ext_bandwidth"))
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
        except DeterminismError as err:
            # No report is written: a byte-compare failure means the numbers
            # are untrustworthy, and a partial JSON would look like success
            # to downstream tooling.
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
            except DeterminismError as err:
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

    if args.interest:
        interest_report = run_interest(args.build_dir)
        interest_path = args.interest_out or os.path.join(
            args.build_dir, "BENCH_interest.json")
        tmp_path = interest_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(interest_report, f, indent=2)
            f.write("\n")
        os.replace(tmp_path, interest_path)
        for policy, facts in sorted(interest_report["policies"].items()):
            print(f"{policy}: t_aoi ~ n^{facts.get('aoi_exponent')}, "
                  f"n_max(1) = {facts.get('n_max_1')}")
        print(f"wrote {interest_path} ({len(interest_report['policies'])} policies, "
              f"{len(interest_report['checks'])} checks)")
        failed = [c["check"] for c in interest_report["checks"] if not c["passed"]]
        if interest_report["exit_code"] != 0 or failed:
            for name in failed:
                print(f"FAIL: interest check failed: {name}", file=sys.stderr)
            print(f"FAIL: ext_interest_management exit code "
                  f"{interest_report['exit_code']}", file=sys.stderr)
            return 1

    if args.bandwidth:
        try:
            bandwidth_report = run_bandwidth(args.build_dir, args.threads)
        except DeterminismError as err:
            print(f"ERROR: {err}", file=sys.stderr)
            return 1
        bandwidth_path = args.bandwidth_out or os.path.join(
            args.build_dir, "BENCH_bandwidth.json")
        tmp_path = bandwidth_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(bandwidth_report, f, indent=2)
            f.write("\n")
        os.replace(tmp_path, bandwidth_path)
        print(f"delta egress reduction {bandwidth_report['egress_reduction']}x "
              f"at n={bandwidth_report['egress_reduction_at_n']}, "
              f"n_max gain {bandwidth_report['n_max_gain_25mbit']}x at 25 Mbit/s")
        print(f"wrote {bandwidth_path} ({len(bandwidth_report['codecs'])} codecs)")
        if args.require_bandwidth_reduction is not None:
            reduction = bandwidth_report["egress_reduction"]
            codecs = bandwidth_report["codecs"]
            if reduction is None or "full" not in codecs or "delta" not in codecs:
                print("ERROR: ext_bandwidth output missing the codec comparison "
                      "(was it built with the delta leg?)", file=sys.stderr)
                return 1
            if reduction < args.require_bandwidth_reduction:
                print(f"FAIL: delta egress reduction {reduction}x < required "
                      f"{args.require_bandwidth_reduction}x", file=sys.stderr)
                return 1
            if codecs["delta"]["n_max_25mbit"] <= codecs["full"]["n_max_25mbit"]:
                print(f"FAIL: delta n_max {codecs['delta']['n_max_25mbit']} does not "
                      f"beat full n_max {codecs['full']['n_max_25mbit']} "
                      "on the 25 Mbit/s link", file=sys.stderr)
                return 1
            print(f"delta egress reduction {reduction}x >= "
                  f"{args.require_bandwidth_reduction}x and n_max "
                  f"{codecs['delta']['n_max_25mbit']} > "
                  f"{codecs['full']['n_max_25mbit']}: OK")

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
