#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload fig2_sweep --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Builds twbench, twserved and bench_driver from the checkout into
.bench_build/ (CMake + Ninja), runs the workload through twbench, and
prints every metric by name with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones of a separate traced run. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("fig2_sweep", "allactivity_trials", "served_sweeps")
DEFAULT_SEED = 7
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure once, then an incremental build of the three tools."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) \
            or not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no Tapeworm II sources beside perfbench/")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "twbench", "twserved", "bench_driver"],
                   check=True, stdout=sys.stderr)


def measure(workload, seed, seconds, trace):
    """Run twbench once; its raw sample document."""
    outdir = os.path.join(ROOT, ".bench_build", "runs",
                          f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    out = os.path.join(outdir, "raw.json")
    exe = os.path.join(BUILD, "twbench")
    if workload == "served_sweeps":
        cmd = [exe, "served", "--twserved",
               os.path.join(BUILD, "tw", "tools", "twserved")]
    else:
        cmd = [exe, "batch", "--workload", workload, "--driver",
               os.path.join(BUILD, "tw", "bench", "bench_driver")]
    cmd += ["--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--out", out]
    # Its own process group: if twbench dies before reaping the
    # servers it spawned, killing the group still stops them.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        sys.exit(f"perfbench: twbench {'timed out' if rc is None else f'exited {rc}'}")
    with open(out) as f:
        raw = json.load(f)
    return raw, outdir


def report(workload, seed, seconds, trace):
    raw, outdir = measure(workload, seed, seconds, trace)
    fp = raw["fingerprint"]
    print(f"# {workload} seed={seed} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in fp.items()))
    attempted, failed, failed_frac = stats.accounting(raw["accounting"])
    for note in raw["accounting"]["notes"]:
        print(f"# check failed: {note}")
    e2e, notes = stats.end_to_end(raw)
    for name, unit in stats.END_TO_END:
        beside = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {e2e[name]:.6g} {unit}{beside}")
    print(f"failed_frac {failed_frac:.6g} ratio  "
          f"({failed} of {attempted} operations)")
    if "paper_err" in raw:
        print(f"paper_err {raw['paper_err']:.6g} slowdown  "
              "(mean |Tapeworm - Figure 2| over 11 sizes, simulated)")
    print(f"# {notes['samples']}")
    if trace:
        layers = stats.per_layer(raw)
        for name, unit in stats.PER_LAYER:
            print(f"{name} {layers[name]:.6g} {unit}")
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in stats.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in stats.END_TO_END}
    shutil.rmtree(outdir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [report(w, args.seed, args.seconds, args.trace)
               for w in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{n}": m for w, r in zip(names, results)
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
