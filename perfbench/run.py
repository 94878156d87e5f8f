#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source tree.  The first form builds
perfbench/perfbench.exe and bin/dfpd.exe with dune, runs one workload and
prints its result as the last line of standard output: a JSON object
with "correct", "attempted", "failed" and "metrics" (the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with
--trace 1).  It exits non-zero, printing no result, when the sources
are missing, the build fails, or the run does not produce a well-formed
result.

--self-check runs a few ops of every workload, twice per trace mode
with the same seed, and fails unless every metric BENCHMARK.json names
is printed with its unit, every op was verified, and the exact metrics
(cycles, instructions, allocation and call counts) agree between the
two runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SOURCES = ["dune-project", "lib", os.path.join("bin", "dfpd.ml"), "BENCH_fig7.json"]
# a run's exact metrics: fixed by the seed, whatever the host does
EXACT_UNITS = {"cycles", "instrs", "count", "Mwords"}
EXACT_NAMES = {"sim.grid_commit_ratio", "serve.fast_hit_ratio"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


child = None


def stop_child():
    """SIGTERM, then SIGKILL, then wait: the benchmark stops the server
    it spawned and removes its directory when it gets SIGTERM."""
    p = child
    if p is None or p.poll() is not None:
        return
    p.terminate()
    try:
        p.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()


def call(cmd, timeout, **kw):
    """Runs cmd to the end; returns (exit code, stdout), or (None, None)
    when it had to be stopped after timeout seconds."""
    global child
    child = subprocess.Popen(cmd, **kw)
    try:
        out, _ = child.communicate(timeout=timeout)
        return child.returncode, out
    except subprocess.TimeoutExpired:
        stop_child()
        return None, None
    finally:
        child = None


def spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not a source tree (missing %s)" % ", ".join(missing))
    # no shared dune cache: the build reads and writes only this tree
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = call(["dune", "build", "--root", ".", "--display", "quiet",
                        "./perfbench/perfbench.exe", "./bin/dfpd.exe"],
                       850, stdout=sys.stderr, env=env)
    except OSError as e:
        fail("build: %s" % e)
    if code != 0:
        fail("build failed")


def one_cpu():
    """Pins the benchmark, and dfpd with it, to one CPU.  On a shared
    virtual machine a client and server that hand each request across
    two virtual CPUs wait for the host to schedule the idle one; on one
    CPU the hand-off is a local context switch."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(workload, seed, seconds, trace, short=False):
    """Runs the benchmark executable; returns its parsed result line."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if short:
        cmd.append("--short")
    code, out = call(cmd, 160, stdout=subprocess.PIPE, text=True,
                     preexec_fn=one_cpu)
    if code is None:
        fail("%s timed out" % workload)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("%s exited %d without a result" % (workload, code))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: unreadable result line" % workload)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    return result


def check_metrics(result, expected):
    """Every expected metric present with its unit, and nothing else."""
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    errors = []
    for name, unit in want.items():
        if name not in got:
            errors.append("missing " + name)
        elif got[name].get("unit") != unit:
            errors.append("%s has unit %s, not %s" % (name, got[name].get("unit"), unit))
    errors += ["unexpected " + n for n in got if n not in want]
    return errors


def exact(metrics):
    return {n: v["value"] for n, v in metrics.items()
            if v["unit"] in EXACT_UNITS or n in EXACT_NAMES}


def self_check():
    s = spec()
    problems = []
    for w in s["workloads"]:
        name = w["name"]
        for trace, expected in ((0, s["end_to_end"]), (1, s["per_layer"])):
            runs = [run(name, 11, s["run_seconds"], trace, short=True) for _ in range(2)]
            for i, r in enumerate(runs):
                where = "%s trace=%d run %d" % (name, trace, i + 1)
                problems += ["%s: %s" % (where, e) for e in check_metrics(r, expected)]
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problems.append("%s: %d of %d ops failed (correct=%s)"
                                    % (where, r["failed"], r["attempted"], r["correct"]))
            a, b = (exact(r["metrics"]) for r in runs)
            for n in sorted(set(a) | set(b)):
                if a.get(n) != b.get(n):
                    problems.append("%s trace=%d: %s differs between runs: %s vs %s"
                                    % (name, trace, n, a.get(n), b.get(n)))
            print("self-check: %s trace=%d: %d ops, %d exact metrics compared"
                  % (name, trace, runs[0]["attempted"], len(a)), file=sys.stderr)
    for p in problems:
        print("self-check: FAIL " + p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("self-check: OK", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: (stop_child(), sys.exit(1)))
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    build()
    if a.self_check:
        self_check()
        return
    s = spec()
    if a.workload not in [w["name"] for w in s["workloads"]]:
        fail("unknown workload " + a.workload)
    result = run(a.workload, a.seed, a.seconds, a.trace)
    errors = check_metrics(result, s["per_layer"] if a.trace else s["end_to_end"])
    if errors:
        fail("%s: %s" % (a.workload, "; ".join(errors)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
