#!/usr/bin/env python3
"""Repo benchmark: cold `xtest campaign` processes, checked against an oracle.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME|all [--seed S] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --selftest

--workload all runs every workload in turn; its metrics are then named
<workload>.<metric>.

The workloads, their predictions and recorded oracle hashes live in
perfbench/workloads.json.  The first run builds the `xtest` binary and the
in-process harness (perfbench/harness.cpp) under .bench_build/.

--trace 0 (end-to-end pass): spawns one fresh `xtest campaign` process at a
time for --seconds, times each from spawn to exit, reads its wait4 rusage,
and compares its verdict lines with the oracle run's.  Interleaved fresh
harness processes give the set-up time (library + programs).

--trace 1 (traced pass): runs the workload in fresh harness processes that
record a span around each public call, alternating with untraced harness
runs; every per-defect outcome is compared with the oracle's.  The spans go
to .bench_build/traces/ as trace-event JSON.

The oracle is the same workload at --exec-tier reference --threads 1
--no-batch without workers.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
defects.  The exit code is 0 only when every output matched the oracle.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TMP = os.path.join(BUILD, "tmp")
XTEST = os.path.join(BUILD, "xtest", "tools", "xtest")
HARNESS = os.path.join(BUILD, "harness", "perfbench_harness")

CHILD_TIMEOUT_S = 45
MIN_SAMPLES = 3
SETUP_EVERY = 2      # one set-up sample after every SETUP_EVERY-th invocation
QUICK_DEFECTS = 200  # library size of --quick runs

# Lines of `xtest campaign` output that are a pure function of the
# campaign inputs (coverage and verdict breakdown, on-line outcomes).
VERDICT_LINE = re.compile(r"^(bus=|detected=|online gold:|online latency:)")


def fail(msg, code=2):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- build ------------------------------------------------------------------

def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        fail("build step failed: %s\n%s" % (" ".join(cmd), tail), 3)


def build(nproc):
    os.makedirs(TMP, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, nproc))
    xdir = os.path.join(BUILD, "xtest")
    hdir = os.path.join(BUILD, "harness")
    if not os.path.exists(os.path.join(xdir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", xdir,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    run_logged(["cmake", "--build", xdir, "--target", "xtest", "-j", jobs], log)
    if not os.path.exists(os.path.join(hdir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", hdir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DXTEST_SOURCE_DIR=" + ROOT,
                    "-DXTEST_BUILD_DIR=" + xdir], log)
    run_logged(["cmake", "--build", hdir, "-j", jobs], log)


# --- environment ------------------------------------------------------------

def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD, "xtest", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def read_first(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def arg_value(workload, flag, default):
    args = workload["args"]
    return int(args[args.index(flag) + 1]) if flag in args else default


def threads_processes(workload):
    """Threads per process and processes (a supervisor plus its workers)
    that the workload's command line asks for."""
    workers = arg_value(workload, "--workers", 0)
    return arg_value(workload, "--threads", 1), workers + 1 if workers else 1


def host_ref_s():
    """Median time of a fixed pure-Python loop: a host-speed reading that
    does not depend on the program under test."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        x = 0
        for i in range(100000):
            x = (x * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(workload):
    cpu_max = read_first("/sys/fs/cgroup/cpu.max")
    if cpu_max is None:  # cgroup v1: quota and period, -1 = no limit
        quota = read_first("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = read_first("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = ("max" if quota == "-1" else quota) + " " + period \
            if quota and period else "unavailable"
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    threads, processes = threads_processes(workload)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE") or "Release",
        "compiler": version,
        "commit": commit,
        "workload_threads": threads,
        "workload_processes": processes,
        "host_ref_s_before": host_ref_s(),
    }


# --- child processes ----------------------------------------------------------

def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


def spawn(cmd, tag):
    """Runs `cmd` to exit; returns (rc, stdout, wall_s, rusage).

    Wall time is spawn to exit.  The rusage is wait4's, which covers the
    child and every descendant it waited for."""
    out_path = os.path.join(TMP, tag + ".out")
    err_path = os.path.join(TMP, tag + ".err")
    env = dict(os.environ, TMPDIR=TMP)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env,
                             start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill_group, (p.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    kill_group(p.pid)  # stop any stray descendant
    with open(out_path) as f:
        stdout = f.read()
    return p.returncode, stdout, wall, ru


def workload_args(w, seed, defects, checkpoint):
    args = []
    for a in w["args"]:
        args.append(checkpoint if a == "{checkpoint}" else a)
    i = args.index("--defects")
    args[i + 1] = str(defects)
    return args + ["--seed", str(seed)]


def oracle_args(cfg, w, seed, defects):
    """The workload in the oracle configuration: reference tier, one thread,
    no batch screen, no workers, no checkpoint."""
    args = workload_args(w, seed, defects, "")
    out = []
    i = 0
    while i < len(args):
        if args[i] in ("--threads", "--workers", "--checkpoint"):
            i += 2
            continue
        out.append(args[i])
        i += 1
    return out + cfg["oracle_flags"]


def remove_checkpoint(base):
    stem = os.path.basename(base)
    for name in os.listdir(TMP):
        if name == stem or name.startswith(stem + "."):
            os.remove(os.path.join(TMP, name))


def verdict_lines(stdout):
    return [l for l in stdout.splitlines() if VERDICT_LINE.match(l)]


def harness_result(rc, stdout, tag):
    if rc != 0 or not stdout.strip():
        with open(os.path.join(TMP, tag + ".err")) as f:
            fail("%s: harness exited %d: %s" % (tag, rc, f.read()[-2000:]), 4)
    return json.loads(stdout.strip().splitlines()[-1])


def run_oracle(cfg, w, seed, defects, expect_hash, cli):
    """Runs the workload once in the oracle configuration: through the CLI
    when `cli` (its verdict lines), and through the harness when `cli` is
    false or an expected hash applies (per-defect dump and its hash).
    Returns (lines, dump, ok)."""
    args = oracle_args(cfg, w, seed, defects)
    lines, dump, ok = [], os.path.join(TMP, "oracle.outcomes"), True
    if cli:
        rc, out, _, _ = spawn([XTEST, "campaign"] + args, "oracle-cli")
        lines = verdict_lines(out)
        ok = rc == 0 and bool(lines) and " sim_errors=0" in out
    if not cli or expect_hash is not None:
        rc, out, _, _ = spawn([HARNESS, "--mode", "untraced", "--dump", dump]
                              + args, "oracle-harness")
        h = harness_result(rc, out, "oracle-harness")["hash"]
        with open(dump) as f:
            ok = ok and not any(l.startswith("3") for l in f)  # sim errors
        print("oracle hash %s" % h)
        if expect_hash is not None and h != expect_hash:
            print("oracle hash differs from the expected %s" % expect_hash)
            ok = False
    return lines, dump, ok


# --- passes ---------------------------------------------------------------------

def summarize(name, unit, values):
    q1, q3 = quartiles(values)
    print("%-32s %14.6g %-6s median of n=%d (q1 %.6g, q3 %.6g) samples %s"
          % (name, statistics.median(values), unit, len(values), q1, q3,
             " ".join("%.4g" % v for v in values)))


def end_to_end_pass(w, units, seconds, seed, defects, oracle_lines, oracle_ok):
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while (time.perf_counter() < deadline or i < MIN_SAMPLES):
        ckpt = os.path.join(TMP, "ckpt%d" % i)
        args = workload_args(w, seed, defects, ckpt)
        rc, out, wall, ru = spawn([XTEST, "campaign"] + args, "campaign")
        remove_checkpoint(ckpt)
        attempted += defects
        ok = oracle_ok and rc == 0 and verdict_lines(out) == oracle_lines
        if not ok:
            failed += defects
            print("invocation %d: exit %d or verdict lines differ from the oracle"
                  % (i, rc))
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(ru.ru_utime + ru.ru_stime)
        samples["peak_rss_mb"].append(ru.ru_maxrss / 1024.0)
        if i % SETUP_EVERY == 0:
            rc, out, _, _ = spawn([HARNESS, "--mode", "setup"] +
                                  workload_args(w, seed, defects, ""), "setup")
            samples["setup_s"].append(harness_result(rc, out, "setup")["setup_s"])
        i += 1
    samples["defects_per_s"] = [defects / t for t in samples["wall_s"]]
    metrics = {}
    for name, unit in units.items():
        summarize(name, unit, samples[name])
        metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    print("%-32s %14.6g %-6s over %d defects in %d invocations"
          % ("error_rate", failed / attempted, "ratio", attempted, i))
    return metrics, attempted, failed


def self_times(spans):
    out = {}
    for i, s in enumerate(spans):
        children = sum(c["end_us"] - c["start_us"] for c in spans
                       if c["parent"] == i)
        out[s["name"]] = (s["end_us"] - s["start_us"] - children) / 1e6
    return out


def traced_pass(w, units, seconds, seed, defects, oracle_dump, oracle_ok):
    """Returns (metrics, attempted, failed, trace events)."""
    traced, untraced, events, selfs = [], [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_SAMPLES:
        order = ("traced", "untraced") if i % 2 == 0 else ("untraced", "traced")
        for mode in order:
            ckpt = os.path.join(TMP, "hckpt%d" % i)
            cmd = [HARNESS, "--mode", mode, "--oracle", oracle_dump,
                   "--xtest", XTEST, "--invocation", str(i)]
            rc, out, _, _ = spawn(cmd + workload_args(w, seed, defects, ckpt),
                                  "harness")
            remove_checkpoint(ckpt)
            r = harness_result(rc, out, "harness")
            attempted += defects
            failed += defects if not oracle_ok else r["mismatches"]
            if r["mismatches"]:
                print("invocation %d (%s): %d defects differ from the oracle"
                      % (i, mode, r["mismatches"]))
            if mode == "untraced":
                untraced.append(r["total_s"])
                continue
            traced.append(r)
            for s in r["spans"]:
                events.append({"name": s["name"], "ph": "X", "pid": i, "tid": 0,
                               "ts": s["start_us"],
                               "dur": s["end_us"] - s["start_us"],
                               "args": {"parent": s["parent"],
                                        "invocation": s["invocation"]}})
            for k, v in self_times(r["spans"]).items():
                selfs.setdefault(k, []).append(v)
        i += 1
    metrics = {}
    for m, unit in units.items():
        if m == "trace.overhead_ratio":
            values = [t["total_s"] for t in traced]
            value = statistics.median(values) / statistics.median(untraced)
        else:
            value = statistics.median([t["counters"][m] for t in traced])
        metrics[m] = {"value": value, "unit": unit}
        print("%-32s %14.6g %s" % (m, value, unit))
    for k, v in selfs.items():
        summarize("self_s." + k, "s", v)
    summarize("harness_traced_s", "s", [t["total_s"] for t in traced])
    summarize("harness_untraced_s", "s", untraced)
    return metrics, attempted, failed, events


def write_trace(name, seed, events, env):
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    path = os.path.join(BUILD, "traces", "%s-seed%d.trace.json" % (name, seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": env}, f)
    print("trace written to " + os.path.relpath(path, ROOT))


# --- self-test --------------------------------------------------------------------

def selftest(cfg, declared):
    me = [sys.executable, os.path.abspath(__file__)]

    def invoke(extra):
        p = subprocess.run(me + extra, capture_output=True, text=True, cwd=ROOT)
        lines = p.stdout.strip().splitlines()
        return p.returncode, json.loads(lines[-1]) if lines else None

    for name in cfg["workloads"]:
        base = ["--workload", name, "--seconds", "1", "--quick"]
        for trace in (0, 1):
            rc, r = invoke(base + ["--trace", str(trace)])
            if rc != 0 or not r or not r["correct"] or r["failed"] != 0:
                fail("selftest: %s --trace %d: exit %d, result %s"
                     % (name, trace, rc, r), 1)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != declared[trace]:
                fail("selftest: %s --trace %d emitted %s, BENCHMARK.json "
                     "declares %s" % (name, trace, got, declared[trace]), 1)
        rc, r = invoke(base + ["--trace", "0", "--expect-hash", "0" * 16])
        if rc == 0 or not r or r["correct"] or r["failed"] == 0:
            fail("selftest: %s: a wrong expected oracle hash was not reported "
                 "(exit %d, result %s)" % (name, rc, r), 1)
        print("selftest %s: metrics and units ok, wrong hash reported" % name)
    print("selftest passed")


# --- main -------------------------------------------------------------------------

def declared_units():
    """{trace: {metric: unit}} as BENCHMARK.json declares them: the
    end_to_end metrics for --trace 0, the per_layer ones for --trace 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="run at the workload's small defect count")
    ap.add_argument("--expect-hash",
                    help="expected oracle hash (default: the recorded one)")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no xtest sources at %s: run from a source checkout" % ROOT)
    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    declared = declared_units()
    if a.selftest:
        selftest(cfg, declared)
        return 0
    names = list(cfg["workloads"]) if a.workload == "all" else [a.workload]
    if not set(names) <= set(cfg["workloads"]):
        fail("--workload must be all or one of %s" % ", ".join(cfg["workloads"]))
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        w = cfg["workloads"][name]
        threads, processes = threads_processes(w)
        need = threads * processes
        if need > nproc:
            fail("workload %s needs %d threads but nproc is %d"
                 % (name, need, nproc))

    build(nproc)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, at, fa = run_workload(cfg, name, a, declared[a.trace])
        metrics.update(m if len(names) == 1 else
                       {name + "." + k: v for k, v in m.items()})
        attempted += at
        failed += fa
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_workload(cfg, name, a, units):
    w = cfg["workloads"][name]
    seed = cfg["default_seed"] if a.seed is None else a.seed
    defects = QUICK_DEFECTS if a.quick else arg_value(w, "--defects", 0)
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    env = environment(w)
    print("env " + json.dumps(env, sort_keys=True))
    print("workload %s seed %d defects %d" % (name, seed, defects))

    expect = a.expect_hash
    if expect is None and seed == cfg["default_seed"] and not a.quick:
        expect = w.get("oracle_hash")
    lines, dump, ok = run_oracle(cfg, w, seed, defects, expect, not a.trace)
    print("oracle " + ("ok" if ok else "FAILED"))
    if a.trace:
        metrics, attempted, failed, events = traced_pass(
            w, units, a.seconds, seed, defects, dump, ok)
    else:
        metrics, attempted, failed = end_to_end_pass(
            w, units, a.seconds, seed, defects, lines, ok)
        if w.get("unresolved"):
            print("unresolved on the baseline host (see unresolved_rule in "
                  "workloads.json): " + ", ".join(w["unresolved"]))
    # A host that slowed or sped up during the pass shows as a change here.
    env["host_ref_s_after"] = host_ref_s()
    print("host_ref_s before %.6f after %.6f"
          % (env["host_ref_s_before"], env["host_ref_s_after"]))
    if a.trace:
        write_trace(name, seed, events, env)
    shutil.rmtree(TMP, ignore_errors=True)
    return metrics, attempted, attempted if not ok else failed


if __name__ == "__main__":
    sys.exit(main())
