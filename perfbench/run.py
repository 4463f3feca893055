#!/usr/bin/env python3
"""Seeded host-cost benchmark for the MemSnap simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/_driver against the
checkout's lib/ tree (cached under .bench_build/), generates the
workload's operation script from the seed, lets the driver replay it for
S seconds, checks every result against the generator's model, and
prints one JSON object as the last line of stdout. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WS = os.path.join(BUILD, "ws")
EXE = os.path.join(WS, "_build", "default", "driver", "driver.exe")
# Beyond --seconds the driver runs a warm-up pass, the pass in flight
# when time runs out, and at least three measured passes.
DRIVER_MARGIN_S = 150
# About the driver's reference loop time on the 2-vCPU Xeon VM the
# benchmark was tuned on. Each pass's host times are divided by the
# pass's own loop time and multiplied by this, so they read roughly as
# that host's µs at its usual speed.
REF_NS = 2_000_000

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import workloads  # noqa: E402


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the driver build reads, as (staged path, source path)."""
    files = [("dune-project", os.path.join(ROOT, "dune-project"))]
    for staged, src in (("lib", os.path.join(ROOT, "lib")),
                        ("driver", os.path.join(HERE, "_driver"))):
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                files.append((os.path.join(staged, os.path.relpath(path, src)), path))
    return files


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    """Stage dune-project, lib/ and the driver into a private workspace
    and build it there, so the repository's own build never sees the
    driver. Rebuilds only when a staged source changed."""
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no %s here: run from the root of a MemSnap checkout" % needed)
    files = source_files()
    h = hashlib.sha256()
    for staged, src in files:
        h.update(staged.encode())
        with open(src, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    stamp_path = os.path.join(BUILD, "stamp")
    stamp = h.hexdigest()
    if os.path.exists(EXE) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    for d in ("lib", "driver"):
        shutil.rmtree(os.path.join(WS, d), ignore_errors=True)
    for staged, src in files:
        dst = os.path.join(WS, staged)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    r = subprocess.run(dune_command() + ["build", "--root", WS, "--profile", "release",
                                         "./driver/driver.exe"],
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("driver build failed")
    with open(stamp_path, "w") as f:
        f.write(stamp)


def run_driver(script_path, seconds, trace):
    """Run the driver; return its stdout lines and its peak RSS in MiB,
    measured from outside through the child's own rusage."""
    proc = subprocess.Popen([EXE, script_path, str(seconds), str(trace)],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(seconds + DRIVER_MARGIN_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        die("driver exited with %d" % proc.returncode)
    return out.splitlines(), usage.ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    script = workloads.generate(args.workload, args.seed)
    script_path = os.path.join(BUILD, "scripts", "%s-%d.txt" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(script_path), exist_ok=True)
    with open(script_path, "w") as f:
        f.write(script.text())
    lines, peak_rss_mib = run_driver(script_path, args.seconds, args.trace)

    round_ops = sum(script.round_ops)
    attempted = failed = 0
    passes, refs, layers, counts = [], [], {}, {}
    for line in lines:
        f = line.split()
        if f[0] == "pass":
            if int(f[1]) > 0:
                # Host times in units of this pass's reference loop.
                ref_ns = statistics.median(map(int, f[9:]))
                refs.append(ref_ns)
                passes.append([int(f[i]) / ref_ns for i in (2, 5, 6, 7)] + [int(f[8])])
            attempted += round_ops + script.verify_ops
            if f[3] != script.rounds_digest():
                failed += round_ops
            if f[4] != script.verify_digest:
                failed += script.verify_ops
        elif f[0] == "layer":
            layers[f[1]] = int(f[2])
        elif f[0] == "count":
            counts[f[1]] = int(f[2])
    if not passes:
        die("driver reported no measured pass")
    setups, p50s, p99s, hosts, sims = zip(*passes)
    ref_ns = statistics.median(refs)
    scale = REF_NS / ref_ns

    txns = len(passes) * len(script.round_ops)
    if args.trace == 0:
        # Medians over the passes: robust to the odd pass that a burst of
        # interference, or a stray reference timing, makes an outlier.
        med = lambda v: statistics.median(v) * REF_NS  # noqa: E731
        metrics = {
            "txn_p50_us": metric(med(p50s) / 1e3, "us"),
            "txn_p99_us": metric(med(p99s) / 1e3, "us"),
            "host_us_per_op": metric(med(hosts) / round_ops / 1e3, "us"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
            "setup_s": metric(med(setups) / 1e9, "s"),
        }
    else:
        per_txn = lambda v: v / txns  # noqa: E731
        metrics = {}
        for layer in ("app", "persist", "blockdev", "harness"):
            metrics[layer + "_self_us_per_txn"] = metric(
                per_txn(layers[layer]) * scale / 1e3, "us")
        metrics["blockdev_cmds_per_txn"] = metric(per_txn(counts["dev_cmds"]), "count")
        metrics["blockdev_write_kib_per_txn"] = metric(
            per_txn(counts["dev_write_bytes"]) / 1024, "KiB")
        metrics["persist_calls_per_txn"] = metric(per_txn(counts["persist_calls"]), "count")
        metrics["minor_words_per_txn"] = metric(per_txn(counts["minor_words"]), "words")
        metrics["major_words_per_txn"] = metric(per_txn(counts["major_words"]), "words")
        metrics["sim_us_per_txn"] = metric(per_txn(sum(sims)) / 1e3, "us")
        metrics["ref_loop_us"] = metric(ref_ns / 1e3, "us")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
