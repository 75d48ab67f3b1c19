#!/usr/bin/env python3
"""Build and run the hyperqueue runtime benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds the hq library and the perfbench binary
(CMake, Release) into .bench_build/; later calls rebuild only what changed.
A run prints the binary's report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones; a run
whose metrics do not match that list exits non-zero.

--selftest runs every workload on tiny inputs in both modes and checks that
each metric of BENCHMARK.json is printed with its unit, that no rep failed,
and that the binary refuses to time with a runtime knob (HQ_*) set.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "perfbench"
RUN_LIMIT_S = 170  # the whole call, build check included


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """{name: unit} of the metrics a run in this mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Empty list when `line` is a complete, correct result; else problems."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(res)}")
        return problems
    got = res["metrics"]
    expected = expected_metrics(trace)
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}, "
                            f"not {unit}")
    extra = set(got) - set(expected)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def run_binary(args, timeout, env=None):
    """Run the built binary; returns (exit code, stdout)."""
    proc = subprocess.run([str(EXE)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, env=env)
    return proc.returncode, proc.stdout


def bench(a, started):
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    code, out = run_binary(args, timeout=max(1.0, remaining))
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        log(f"perfbench exited with {code}")
        return 1
    problems = check_result(lines[-1], a.trace)
    if problems:
        print("\n".join(lines[:-1]))
        for p in problems:
            log(p)
        return 1
    print("\n".join(lines))
    return 0


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    runs = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            runs += 1
            code, out = run_binary(["--workload", w["name"], "--seed", "1",
                                    "--seconds", "0.5", "--trace", str(trace),
                                    "--tiny"], timeout=120)
            tag = f"{w['name']} trace={trace}"
            if code != 0:
                failures.append(f"{tag}: perfbench exited with {code}")
                continue
            last = out.rstrip("\n").split("\n")[-1]
            problems = check_result(last, trace)
            if problems:
                failures += [f"{tag}: {p}" for p in problems]
                continue
            res = json.loads(last)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append(f"{tag}: correct={res['correct']} failed="
                                f"{res['failed']} attempted={res['attempted']}")
            for name, m in res["metrics"].items():
                print(f"  {tag:28s} {name:32s} {m['value']:.6g} {m['unit']}")
    env = dict(os.environ, HQ_FAULTS="throw@stage.read:nth=1")
    code, _ = run_binary(["--workload", spec["workloads"][0]["name"], "--seed",
                          "1", "--seconds", "0.5", "--trace", "0", "--tiny"],
                         timeout=60, env=env)
    runs += 1
    if code == 0:
        failures.append("perfbench timed a run with HQ_FAULTS set")
    for f in failures:
        log(f"selftest: {f}")
    log(f"selftest: {runs} runs, {len(failures)} problems")
    return 1 if failures else 0


def main():
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    try:
        return selftest() if a.selftest else bench(a, started)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1


if __name__ == "__main__":
    sys.exit(main())
