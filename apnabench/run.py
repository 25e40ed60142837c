#!/usr/bin/env python3
"""End-to-end benchmark of the APNA reproduction.

Builds the benchmark (CMake, Release) from the sources in this checkout into
.bench_build/apnabench, then runs one workload:

    python3 apnabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the run's JSON result
({"correct", "attempted", "failed", "metrics"}); the lines before it carry
provenance (nproc, AES tier, git sha, source digest, seed, thread split,
"loopback, not a real link") and the paper-facing metric names. With
--trace 1 the per-layer metrics are printed instead of the end-to-end ones
and the spans are written to .bench_build/traces/<workload>.jsonl.

    python3 apnabench/run.py --selftest      the benchmark's own tests
    python3 apnabench/run.py --overhead --workload <name> --seed <n> --seconds <s>
                                             untraced and traced run back to
                                             back; prints the tracing overhead

Run from the repository root. Exits non-zero, without a result line, when the
program cannot be built; exits 1 when any output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "apnabench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"apnabench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both programs; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "apnabench",
                  "apnabench_selftest"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if r.returncode != 0:
            log("build failed")
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest():
    """SHA-256 over the program's and the benchmark's sources: identifies the
    code measured even where there is no git history."""
    h = hashlib.sha256()
    for top in ("src", "cmake", "apnabench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    for name in ("CMakeLists.txt",):
        with open(os.path.join(ROOT, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(args, capture=False):
    cmd = [os.path.join(BUILD, "apnabench")] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    out = r.stdout.decode() if capture else ""
    return r.returncode, out


def workload_args(a, trace):
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(trace), "--git-sha", git_sha(), "--src-digest", src_digest()]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, f"{a.workload}.jsonl")]
    return args


def selftest():
    scratch = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(scratch, exist_ok=True)
    ok = subprocess.run([os.path.join(BUILD, "apnabench_selftest"), scratch],
                        cwd=ROOT, timeout=600).returncode == 0
    # The metric catalogs the program prints must be the ones BENCHMARK.json
    # declares.
    r = subprocess.run([os.path.join(BUILD, "apnabench"), "--list-metrics"],
                       capture_output=True, text=True, timeout=30)
    catalog = json.loads(r.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        printed = [(m["name"], m["unit"], m["better"]) for m in catalog[key]]
        if declared != printed:
            print(f"FAIL: BENCHMARK.json {key} differs from the program's catalog")
            ok = False
    # issuance runs by name but is not gated: see README.md.
    if [w["name"] for w in bench["workloads"]] != ["fwd_hot_small", "fwd_cold_large",
                                                   "shutoff_storm"]:
        print("FAIL: BENCHMARK.json workloads differ from the gated ones")
        ok = False
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def overhead(a):
    """Untraced then traced run of the same workload and seed."""
    rc0, out0 = run_binary(workload_args(a, 0), capture=True)
    rc1, out1 = run_binary(workload_args(a, 1), capture=True)
    if rc0 != 0 or rc1 != 0:
        log("a run failed")
        return 1
    e2e = json.loads(out0.strip().splitlines()[-1])["metrics"]
    layer = json.loads(out1.strip().splitlines()[-1])["metrics"]
    for name in ("ops_per_s", "p50_us"):
        base, traced = e2e[name]["value"], layer["trace." + name]["value"]
        pct = 100.0 * (traced - base) / base if base else 0.0
        print(f"{name}: untraced {base:.6g}, traced {traced:.6g} ({pct:+.1f}%)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--overhead", action="store_true")
    a = p.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.seconds is None or
                           (a.trace is None and not a.overhead)):
        p.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if a.selftest:
        return selftest()
    if a.overhead:
        return overhead(a)
    rc, _ = run_binary(workload_args(a, a.trace))
    return rc


if __name__ == "__main__":
    sys.exit(main())
