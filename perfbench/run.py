#!/usr/bin/env python3
"""Builds and runs the task-pipeline benchmark (see README.md here).

    python3 perfbench/run.py --workload tc-btc-1w --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every metric, every workload
    python3 perfbench/run.py --self-check                 # small-scale check, seconds

Run it from the repository root. It compiles the library sources and the
harness into .bench_build/ (a CMake build of perfbench/CMakeLists.txt), then
runs the harness; all files it writes stay under .bench_build/. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
OUT_DIR = BUILD / "out"
BINARY = CMAKE_DIR / "gminer_perfbench"
# A run must end within 180 s; the build before it is bounded separately.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout, env=None):
    """Runs cmd in its own process group and waits for it. On timeout the whole
    group (make, compilers, harness threads) is killed. Returns (exit code,
    captured stdout or None); exit code None means it timed out."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return None, None
    return proc.returncode, out


def build():
    """Configures and builds the harness; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target", "gminer_perfbench"]):
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_harness(args, echo=sys.stdout):
    """Runs the harness once; returns (exit code, stdout text), also echoed to `echo`."""
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    code, out = run_group([str(BINARY), "--out", str(OUT_DIR)] + args, RUN_TIMEOUT_S,
                          subprocess.PIPE, env)
    if code is None:
        return 1, ""
    echo.write(out)
    echo.flush()
    return code, out


def result_line(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_all(opts):
    """Runs every workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in load_spec()["workloads"]:
        code, out = run_harness(["--workload", w["name"], "--seed", str(opts.seed),
                                "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
        if code != 0:
            return code
        result = result_line(out)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{w['name']}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def self_check():
    """Small-scale run of every workload. Checks that each metric BENCHMARK.json
    names is printed with its unit, that every job passes the oracle check, that
    a deliberately wrong expected result is counted as failed, and that
    predictions.json covers every per-layer metric."""
    spec = load_spec()
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            log(f"SELF-CHECK FAIL: {what}")

    with open(HERE / "predictions.json") as f:
        predictions = json.load(f)
    metric_names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    expect(set(predictions["per_layer"]) == {m["name"] for m in spec["per_layer"]},
           "predictions.json and BENCHMARK.json name different per-layer metrics")
    for name, p in predictions["per_layer"].items():
        expect(set(p["moves"]) <= metric_names, f"{name}: unknown metric in {p['moves']}")
        expect(set(p["on"] + p.get("unmoved_on", [])) <= workload_names,
               f"{name}: unknown workload")

    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_harness(["--workload", w["name"], "--seed", "7", "--seconds", "0",
                                    "--trace", str(trace), "--small"], echo=sys.stderr)
            tag = f"{w['name']} --trace {trace}"
            expect(code == 0, f"{tag}: exit code {code}")
            if code != 0:
                continue
            result = result_line(out)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: correct={result['correct']} failed={result['failed']}")
            expect(set(result["metrics"]) == {m["name"] for m in wanted},
                   f"{tag}: metric names differ from BENCHMARK.json")
            report = out.strip().splitlines()[:-1]
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')}")
                pattern = rf"\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}(\s|$)"
                printed = any(re.match(pattern, line) for line in report)
                expect(printed, f"{tag}: {m['name']} not printed with unit {m['unit']}")
            if trace == 0:
                expect(any(re.match(r"\s+failed_frac\s+0\s+ratio", l) for l in report),
                       f"{tag}: failed_frac 0 not printed")
        code, out = run_harness(["--workload", w["name"], "--seed", "7", "--seconds", "0",
                                "--trace", "0", "--small", "--wrong-expected"],
                               echo=sys.stderr)
        result = result_line(out) if code == 0 else None
        expect(result is not None and not result["correct"]
               and result["failed"] == result["attempted"] >= 1,
               f"{w['name']}: a wrong expected result was not counted as failed")
        expect(result is not None and any(re.match(r"\s+failed_frac\s+1\s+ratio", l)
                                           for l in out.splitlines()),
               f"{w['name']}: failed_frac 1 not printed for a wrong expected result")

    log("self-check: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    if not opts.self_check and not opts.workload:
        parser.error("--workload or --self-check is required")

    if not build():
        return 1
    if opts.self_check:
        return self_check()
    if opts.workload == "all":
        return run_all(opts)
    code, _ = run_harness(["--workload", opts.workload, "--seed", str(opts.seed),
                          "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
