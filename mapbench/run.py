#!/usr/bin/env python3
"""End-to-end mapping benchmark runner.

Builds the `mapbench` binary (and the qspr library it links) from the
sources of the checkout it sits in, then runs one workload:

    python3 mapbench/run.py --workload paper_mvfb --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every map agreed with mapbench/expected_results.tsv.

Other modes:

    python3 mapbench/run.py --steady [--runs 10] [--workloads a,b] [--seconds 10]
        runs each workload once per seed 1..runs and prints, per end-to-end
        metric, the median, the quartiles and their spread against the
        bound recorded in BENCHMARK.json.
    python3 mapbench/run.py --record-expected
        re-records mapbench/expected_results.tsv from MappingEngine::map.

Run it from the repository root. Build output goes to .bench_build/, generated
inputs and span logs to .bench_out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_DIR = REPO_ROOT / ".bench_build"
OUT_DIR = REPO_ROOT / ".bench_out"
BINARY = BUILD_DIR / "mapbench"
EXPECTED = BENCH_DIR / "expected_results.tsv"
WORKLOADS = ["paper_mvfb", "batch_mixed", "serve_sessions"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"mapbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the binary up to date (a no-op when
    nothing changed). Build output goes to stderr."""
    if not (REPO_ROOT / "CMakeLists.txt").is_file() or not (REPO_ROOT / "src").is_dir():
        fail(f"no qspr sources next to {BENCH_DIR.name}/ (expected ../CMakeLists.txt and ../src)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "mapbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one measurement; returns (exit code, parsed result or None)."""
    work_dir = OUT_DIR / workload
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--expected", str(EXPECTED), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def steady(args):
    """Per workload: one run per seed, then median / quartiles / spread of
    every end-to-end metric against its BENCHMARK.json bound."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = range(args.first_seed, args.first_seed + args.runs)
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in seeds:
            code, result = run_once(workload, seed, seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                fail(f"{workload} seed {seed} failed (exit {code})")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {len(seeds)} runs x {seconds} s")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = "not in BENCHMARK.json"
            elif name == "setup_s":
                verdict = "spread not gated"
            else:
                worst = max(worst, spread / bound)
                verdict = ("ok (< bound/3)" if spread < bound / 3 else
                           "ok (< bound)" if spread <= bound else "TOO WIDE")
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.2%}{bound if bound is not None else float('nan'):>8.3g}  {verdict}")
        print(flush=True)
    print(f"widest gated spread: {worst:.2f} x its bound")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    build()
    if args.record_expected:
        code = subprocess.run([str(BINARY), "--record-expected", str(EXPECTED)]).returncode
        sys.exit(code)
    if args.steady:
        steady(args)
        return
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
