#!/usr/bin/env python3
"""End-to-end serving benchmark: build, run, repeat, compare.

Run from the root of a source checkout (see bench/e2e/README.md):

  run.py --workload W --seed N --seconds T --trace 0|1   one run; last stdout
                                                         line is the result JSON
  run.py [--workload W|all] [--seed N] [--repeat N]      N runs on seeds N..N+R-1:
         [--seconds T] [--trace 0|1] [--check]           median and quartiles
  run.py --smoke                                         every workload for 2 s:
                                                         answers + JSON schema
  run.py --selftest                                      percentile, open-loop
                                                         accounting and compare
                                                         verdict self-test
  run.py compare PARENT_BUILD CHANGE_BUILD [--workload W|all] [--seed S]
                                                         10 alternating A/B pairs

Everything is built into and written under build-bench-e2e/ of the checkout.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BUILD = os.path.join(ROOT, "build-bench-e2e")
TARGETS = ["bench_e2e", "http_server_cli", "replica_cluster"]
RUN_TIMEOUT_S = 170
COMPARE_SEED = 9001  # held out: never used while developing a change
COMPARE_PAIRS = 10


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names(benchmark, chosen):
    names = [w["name"] for w in benchmark["workloads"]]
    if chosen in (None, "all"):
        return names
    if chosen not in names:
        fail("unknown workload %r (have: %s)" % (chosen, ", ".join(names)), 2)
    return [chosen]


def build():
    """Configures (once) and builds the benchmark package; quiet unless it fails."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a dssddi source checkout "
             "(no CMakeLists.txt + src/ in %s)" % ROOT, 2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, HERE), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)
    return BUILD


def provenance_extras():
    """Source identity the binary cannot see: git sha when this is a
    repository, and a digest of every source file the build compiles."""
    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples", HERE]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "source_digest": digest.hexdigest()[:16]}


def run_once(build_dir, workload, seed, seconds, trace, smoke=False, extras=None):
    """One bench_e2e run -> (result line dict, full result dict)."""
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(build_dir, "bench_e2e"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--bin-dir", build_dir, "--out-dir", out_dir]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True,
                               env=dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp")))
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail("%s seed %s did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        fail("bench_e2e %s seed %s exited %d" % (workload, seed, process.returncode))
    line = json.loads(lines[-1])
    result_path = next(l.split(": ", 1)[1] for l in lines if l.startswith("result: "))
    with open(result_path) as f:
        result = json.load(f)
    if extras:
        result["provenance"].update(extras)
        with open(result_path, "w") as f:
            json.dump(result, f)
    return line, result


def bounds(benchmark, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in benchmark[key]}


def print_table(result, declared):
    p = result["provenance"]
    print("%s seed %s: correct=%s attempted=%d failed=%d  [%s %s, %s/%s, nproc %s, "
          "host parallelism %.2f, host speed %.2f, bundle %s, src %s]" % (
              result["workload"], result["seed"], result["correct"], result["attempted"],
              result["failed"], p.get("git_sha", "?")[:12], p["build_type"],
              p["gemm_backend"], p["quantization"], p["nproc"],
              p["host_parallelism_1t_over_4t"], result["checks"]["host_speed_p50"],
              p["bundle_checksum"], p.get("source_digest", "?")))
    print("  %-32s %14s %-8s %9s %7s" % ("metric", "value", "unit", "samples", "bound"))
    for name, metric in result["metrics"].items():
        bound = declared.get(name, {}).get("bound")
        print("  %-32s %14.6g %-8s %9d %7s" % (
            name, metric["value"], metric["unit"], metric["samples"],
            "%.0f%%" % (100 * bound) if bound is not None else "-"))
    for problem in result.get("problems", []):
        print("  CHECK FAILED: " + problem)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_schema(line, declared):
    """The result line carries exactly the declared metrics and units."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(line))
    if set(line.get("metrics", {})) != set(declared):
        problems.append("metrics %s != declared %s" % (sorted(line.get("metrics", {})),
                                                       sorted(declared)))
    for name, metric in line.get("metrics", {}).items():
        if name in declared and metric.get("unit") != declared[name]["unit"]:
            problems.append("%s unit %r != %r" % (name, metric.get("unit"),
                                                  declared[name]["unit"]))
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main_run(args):
    benchmark = load_benchmark()
    build_dir = build()
    extras = provenance_extras()
    declared = bounds(benchmark, args.trace)
    workloads = workload_names(benchmark, args.workload)
    seconds = args.seconds if args.seconds else benchmark["run_seconds"]
    repeat = max(1, args.repeat)
    lines, invalid, medians = [], [], {}
    for workload in workloads:
        values = {}
        for i in range(repeat):
            line, result = run_once(build_dir, workload, args.seed + i, seconds, args.trace,
                                    extras=extras)
            print_table(result, declared)
            lines.append(line)
            if not result["correct"] or result["failed"] or \
                    not result["checks"]["generator_lag_valid"]:
                invalid.append("%s seed %d" % (workload, args.seed + i))
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        if repeat > 1:
            print("%s over %d seeds (%d..%d):" % (workload, repeat, args.seed,
                                                  args.seed + repeat - 1))
            print("  %-32s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3",
                                                      "IQR/med", "bound"))
            for name, series in values.items():
                q1, median, q3 = quartiles(series)
                bound = declared.get(name, {}).get("bound")
                print("  %-32s %12.6g %12.6g %12.6g %7.1f%% %7s" % (
                    name, q1, median, q3, 100 * (q3 - q1) / median if median else 0.0,
                    "%.0f%%" % (100 * bound) if bound is not None else "-"))
        for name, series in values.items():
            # One workload keeps the plain names; several are told apart.
            key = name if len(workloads) == 1 else workload + "." + name
            medians[key] = {"value": statistics.median(series),
                            "unit": lines[-1]["metrics"][name]["unit"]}
    if args.check and invalid:
        print("run.py: invalid runs: " + ", ".join(invalid), file=sys.stderr)
    summary = lines[-1] if len(lines) == 1 else {
        "correct": all(l["correct"] for l in lines),
        "attempted": sum(l["attempted"] for l in lines),
        "failed": sum(l["failed"] for l in lines),
        "metrics": medians,
    }
    print(json.dumps(summary))
    return 1 if args.check and invalid else 0


def main_smoke(args):
    benchmark = load_benchmark()
    build_dir = build()
    declared = bounds(benchmark, 0)
    started = time.monotonic()
    problems = []
    for workload in workload_names(benchmark, args.workload):
        line, result = run_once(build_dir, workload, args.seed, 2, 0, smoke=True)
        faults = check_schema(line, declared)
        if not line["correct"] or line["failed"]:
            faults.append("correct=%s failed=%d %s" % (line["correct"], line["failed"],
                                                        result.get("problems")))
        print("smoke %-16s %s (%d requests)" % (workload, "ok" if not faults else "FAILED",
                                                line["attempted"]))
        problems += ["%s: %s" % (workload, fault) for fault in faults]
    elapsed = time.monotonic() - started
    print("smoke: %s in %.1f s" % ("ok" if not problems else "FAILED", elapsed))
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


def failure_ratio(lines):
    return sum(l["failed"] for l in lines) / max(1, sum(l["attempted"] for l in lines))


def answers_regressed(parent, change):
    """True when the change gave a wrong answer or failed a larger share of
    its requests than the parent. Latencies count verified answers only, so
    a change that sheds or botches its slow requests must not read as a
    gain."""
    return not all(l["correct"] for l in change) or \
        failure_ratio(change) > failure_ratio(parent)


def metric_verdict(parent, change, spec):
    """One metric over paired runs, by the choosing-metrics rule: a gain
    needs >= 9/10 pair wins and a median gap wider than the parent's IQR;
    a parent spread wider than the bound is unresolved."""
    lower = spec["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = (p_med - c_med) if lower else (c_med - p_med)
    worse = -gap / p_med if p_med else 0.0
    if wins >= 0.9 * len(parent) and gap > p_q3 - p_q1:
        return "gain", wins
    if p_med and (p_q3 - p_q1) / p_med > spec["bound"] and not all(
            (c < min(parent) if lower else c > max(parent)) for c in change):
        return "unresolved", wins
    if worse > spec["bound"]:
        return "regression", wins
    return "no regression", wins


def workload_verdicts(parent_lines, change_lines, declared):
    """{metric: (verdict, wins)} for one workload's paired result lines.
    Every metric is a regression when the change's answers regressed."""
    failed = answers_regressed(parent_lines, change_lines)
    verdicts = {}
    for name, spec in declared.items():
        parent = [l["metrics"][name]["value"] for l in parent_lines]
        change = [l["metrics"][name]["value"] for l in change_lines]
        verdict, wins = metric_verdict(parent, change, spec)
        verdicts[name] = ("regression" if failed else verdict, wins)
    return verdicts


def selftest_compare():
    """Verdicts on synthetic pairs: the change is 20% faster on every run."""
    spec = {"latency_ms": {"unit": "ms", "better": "lower", "bound": 0.25}}

    def lines(latency, failed=0, correct=True):
        return [{"correct": correct, "attempted": 1000, "failed": failed,
                 "metrics": {"latency_ms": {"value": latency + 0.01 * i, "unit": "ms"}}}
                for i in range(COMPARE_PAIRS)]

    cases = [
        ("faster, no failures", lines(1.0), lines(0.8), "gain"),
        ("same speed", lines(1.0), lines(1.0), "no regression"),
        ("slower by more than the bound", lines(1.0), lines(1.5), "regression"),
        ("faster, but rejects requests", lines(1.0), lines(0.8, failed=30), "regression"),
        ("faster, but one wrong answer", lines(1.0), lines(0.8, correct=False), "regression"),
        ("faster, fails no more than the parent", lines(1.0, failed=30),
         lines(0.8, failed=30), "gain"),
    ]
    failures = 0
    for what, parent, change, want in cases:
        got = workload_verdicts(parent, change, spec)["latency_ms"][0]
        if got != want:
            failures += 1
            print("FAIL compare verdict, %s: %s, want %s" % (what, got, want))
    print("compare selftest: %s (%d cases)" % ("ok" if not failures else "FAILED", len(cases)))
    return failures


def main_selftest(_args):
    build_dir = build()
    native = subprocess.call([os.path.join(build_dir, "bench_e2e"), "--selftest"])
    return 1 if native != 0 or selftest_compare() else 0


def main_compare(args):
    """COMPARE_PAIRS alternating parent/change pairs on one held-out seed."""
    benchmark = load_benchmark()
    declared = bounds(benchmark, 0)
    builds = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in builds.items():
        if not os.path.isfile(os.path.join(path, "bench_e2e")):
            fail("%s build %s has no bench_e2e" % (side, path), 2)
    verdicts = []
    for workload in workload_names(benchmark, args.workload):
        runs = {"parent": [], "change": []}
        for pair in range(COMPARE_PAIRS):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run_once(builds[side], workload, args.seed,
                                           benchmark["run_seconds"], 0))
        ids = {side: {(r["provenance"]["bundle_checksum"], r["provenance"]["build_type"])
                      for _, r in runs[side]} for side in runs}
        if len(ids["parent"] | ids["change"]) != 1:
            fail("refusing to compare %s: bundle checksum / build type differ: %s"
                 % (workload, ids))
        lines = {side: [line for line, _ in runs[side]] for side in runs}
        print("%s: %d pairs on seed %d; failed/attempted parent %.6f, change %.6f%s" % (
            workload, COMPARE_PAIRS, args.seed, failure_ratio(lines["parent"]),
            failure_ratio(lines["change"]),
            "" if all(l["correct"] for l in lines["change"]) else "; change answered wrongly"))
        print("  %-16s %12s %12s %12s %6s  %s" % ("metric", "parent", "change",
                                                   "parent IQR", "wins", "verdict"))
        for name, (verdict, wins) in workload_verdicts(lines["parent"], lines["change"],
                                                       declared).items():
            parent = [l["metrics"][name]["value"] for l in lines["parent"]]
            change = [l["metrics"][name]["value"] for l in lines["change"]]
            p_q1, p_med, p_q3 = quartiles(parent)
            verdicts.append(verdict)
            print("  %-16s %12.6g %12.6g %12.6g %3d/%-2d  %s" % (
                name, p_med, statistics.median(change), p_q3 - p_q1, wins, len(parent),
                verdict))
    return 1 if "regression" in verdicts else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        parser.add_argument("--workload", default="all")
        parser.add_argument("--seed", type=int, default=COMPARE_SEED)
        return main_compare(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on a wrong answer, failure or invalid run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return main_selftest(args)
    if args.smoke:
        return main_smoke(args)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
