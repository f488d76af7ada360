#!/usr/bin/env python3
"""Build and run the yoloc serving benchmark for one workload.

    python3 perfbench/run.py --workload analog_closed --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. Builds the yoloc library and yoloc_serve
(Release) into .bench_build/yoloc and the benchmark binary,
perfbench_serving, into .bench_build/perfbench, then runs it. The last
stdout line is its JSON result. Around the run this script also

  * records host noise (nproc, CPU model, load average, steal share of
    /proc/stat over the run) on stderr and in the run record, and adds
    host.steal_pct / host.loadavg_1m to the per-layer metrics;
  * checks determinism across runs: the modelled chip counts (sim.*,
    macro.ops_*, macro.macs) of a seed-independent probe, and of each
    seed's image pool, must repeat exactly across runs of one build, or
    the run fails without a result. (perfbench_serving itself checks in
    every run that the probe's counts do not depend on threading.)
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "yoloc")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def sh(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no yoloc sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", LIB_BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", LIB_BUILD, "--target", "yoloc", "yoloc_serve",
        "-j", jobs])
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BENCH_BUILD,
            "-DCMAKE_BUILD_TYPE=Release", f"-DYOLOC_BUILD_DIR={LIB_BUILD}"])
    sh(["cmake", "--build", BENCH_BUILD, "-j", jobs])


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:9]
    return [int(x) for x in fields]  # user nice system idle iowait irq softirq steal


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_id():
    digest = hashlib.sha256()
    for path in (os.path.join(LIB_BUILD, "libyoloc.a"),
                 os.path.join(LIB_BUILD, "yoloc_serve"),
                 os.path.join(BENCH_BUILD, "perfbench_serving")):
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def check_determinism(record):
    """Compare this run's exact counts with earlier runs of this build."""
    path = os.path.join(BENCH_BUILD, "determinism.json")
    state = {}
    if os.path.isfile(path):
        with open(path) as f:
            state = json.load(f)
    ident = build_id()
    if state.get("build_id") != ident:
        state = {"build_id": ident, "counts": {}}
    keys = {
        f"{record['workload']}/probe": record["probe"],
        f"{record['workload']}/seed{record['seed']}": record["pool"],
    }
    for key, counts in keys.items():
        seen = state["counts"].setdefault(key, counts)
        if seen != counts:
            diff = {k: (seen.get(k), v) for k, v in counts.items()
                    if seen.get(k) != v}
            raise RuntimeError(
                f"DETERMINISM FAILURE: {key} modelled counts changed between "
                f"runs of one build (was, now): {diff}")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def reap_group(pgid):
    """Kill whatever perfbench_serving left in its process group; wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work_dir = os.path.join(BENCH_BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    record_path = os.path.join(
        work_dir, f"{args.workload}_{args.seed}_{args.trace}.record.json")
    if os.path.exists(record_path):
        os.remove(record_path)

    load1 = os.getloadavg()[0]
    cpu0 = cpu_times()
    proc = subprocess.Popen(
        [os.path.join(BENCH_BUILD, "perfbench_serving"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--serve", os.path.join(LIB_BUILD, "yoloc_serve"),
         "--work-dir", work_dir, "--record", record_path],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"perfbench_serving exceeded {RUN_TIMEOUT_S} s")
    finally:
        reap_group(proc.pid)
    cpu1 = cpu_times()

    deltas = [b - a for a, b in zip(cpu0, cpu1)]
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m": load1,
        "steal_pct": 100.0 * deltas[7] / max(1, sum(deltas)),
    }
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # A failed output gate ends with its {"correct": false, ...} verdict.
        print(out, end="", flush=True)
        raise RuntimeError(f"perfbench_serving exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    with open(record_path) as f:
        record = json.load(f)
    record["host"] = host
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log("host " + json.dumps(host))
    log("loadgen " + json.dumps(record["loadgen"]))
    check_determinism(record)

    result = json.loads(lines[-1])
    if args.trace:
        result["metrics"]["host.steal_pct"] = {
            "value": host["steal_pct"], "unit": "%"}
        result["metrics"]["host.loadavg_1m"] = {
            "value": host["loadavg_1m"], "unit": "load"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            ValueError, KeyError) as err:
        log(f"error: {err}")
        sys.exit(1)
