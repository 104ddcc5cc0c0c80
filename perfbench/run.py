#!/usr/bin/env python3
"""Build and run the libtopo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds topo_perfbench from this checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build) and runs one workload; the last
line of its output is the JSON result. --smoke runs every workload of
BENCHMARK.json, and perturb-gcc, at a tiny trace scale, traced and untraced, and checks
that each metric BENCHMARK.json names is reported with its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150
# Workloads topo_perfbench runs that BENCHMARK.json does not time (see
# README.md); smoke mode still checks them.
EXTRA_WORKLOADS = ["perturb-gcc"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr only if it fails."""
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
    return done.returncode == 0


def build():
    """Configure and build topo_perfbench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no libtopo sources under {ROOT}/src; nothing to build")
        return None
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(configure, BUILD_TIMEOUT_S):
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target",
                      "topo_perfbench", "--parallel", jobs],
                     BUILD_TIMEOUT_S):
        log("build failed")
        return None
    return os.path.join(build_dir, "topo_perfbench")


def run_driver(binary, args, timeout):
    """Run the driver; return (exit code, stdout). Kills it on timeout."""
    with subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"driver exceeded {timeout} s and was stopped")
            return 3, ""
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def digest_lines(out):
    """The output lines that must not depend on tracing."""
    return [line for line in out.splitlines()
            if line.startswith(("edges:", "replay "))]


def smoke(binary):
    """Every workload, both modes, tiny scale; every named metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in workloads:
        before = len(failures)
        outputs = {}
        for trace in ("0", "1"):
            code, out = run_driver(binary, [
                "--workload", name, "--seed", "0", "--seconds", "0.2",
                "--trace", trace, "--smoke"], 170)
            outputs[trace] = out
            where = f"{name} --trace {trace}"
            try:
                result = result_of(out)
            except json.JSONDecodeError:
                result = None
            if code != 0 or result is None:
                failures.append(f"{where}: exit {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{where}: checks failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append(f"{where}: missing {missing}, extra {extra}"
                                f", wrong units {units}")
        if digest_lines(outputs["0"]) != digest_lines(outputs["1"]):
            failures.append(f"{name}: traced and untraced outputs differ")
        log(f"smoke {name}: "
            f"{'ok' if len(failures) == before else 'FAILED'}")
    for failure in failures:
        log(f"FAILED {failure}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    code, out = run_driver(binary, [
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace],
        float(args.seconds) + RUN_GRACE_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
