#!/usr/bin/env python3
"""The limit-study benchmark: builds perfbench/main.exe from the checkout
and runs one workload in fresh processes.

    python3 perfbench/run.py --workload campaign-fp --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It prints a report, then as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, pooled over several fresh
processes; with --trace 1 they are the per-layer ones of one traced
process. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["campaign-fp", "static-lint"]
PROCESSES = 3  # fresh processes per untraced run, each timing its set-up
DEADLINE_S = 170.0  # the measuring processes of a run end within 180 s
# main.exe's calibration kernel takes this long, in the median, on the host
# the benchmark was written on (Intel Xeon, 2 vCPUs at 2.0 GHz)
KERNEL_REF_S = 0.040


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Build main.exe under .bench_build and return its path."""
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        fail("no sources to build here; run from the root of a checkout")
    build_dir = os.path.join(root, ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=os.path.join(build_dir, "cache"))
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
           "./perfbench/main.exe"]
    try:
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def run_child(exe, root, args, deadline):
    """Run main.exe once; return (set-up seconds, its JSON result)."""
    t0 = time.time()
    proc = subprocess.Popen([exe, "run"] + args, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded its time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"main.exe exited with code {proc.returncode}")
    ready = [float(l.split()[1]) for l in lines if l.startswith("ready ")]
    return ready[0] - t0, json.loads(lines[-1])


def end_to_end(children, report):
    """Pool the samples of the untraced processes into the end-to-end metrics.

    Each process's times are scaled by KERNEL_REF_S over the median time of
    the calibration kernel it ran between its passes, so they read as
    seconds on a host running at the reference speed. On static-lint this
    cut the spread of pass_s over ten runs from 7.5% to 3.3%, and that of
    task_gmean_s from 4.6% to 1.1%."""
    passes, setups, per_target, scales = [], [], {}, []
    for setup, r in children:
        scale = KERNEL_REF_S / statistics.median(r["kernel_s"])
        scales.append(scale)
        setups.append(setup * scale)
        passes += [p * scale for p in r["pass_s"]]
        for target, s in r["task_s"]:
            per_target.setdefault(target, []).append(s * scale)
    pass_s = statistics.median(passes)
    task_s = [statistics.median(v) for v in per_target.values()]
    # every target counts: a median over targets is one target's noise
    task_gmean = math.exp(statistics.fmean(math.log(s) for s in task_s))
    first = children[0][1]
    report.append("host speed scale " + " ".join(f"{s:.3f}" for s in scales))
    report.append("pass_s samples " + " ".join(f"{p:.3f}" for p in passes))
    report.append("setup_s samples " + " ".join(f"{s:.3f}" for s in setups))
    report.append(f"task_p50_s {statistics.median(task_s):.6g} s "
                  f"(median over {len(task_s)} targets of each one's median of {len(passes)} passes)")
    if first["instructions"]:
        report.append(f"guest_instr_per_s {first['instructions'] / pass_s:.0f} 1/s "
                      f"({first['instructions']} instructions per pass)")
    else:
        report.append(f"loops_per_s {first['loops'] / pass_s:.1f} 1/s ({first['loops']} loops per pass)")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "task_gmean_s": {"value": task_gmean, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for _, r in children), "unit": "MB"},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference.tsv from this checkout")
    a = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = build(root)
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    ref = os.path.join("perfbench", "reference.tsv")
    if a.record:
        sys.exit(subprocess.run([exe, "record", "--ref", ref, "--nproc", str(nproc)], cwd=root).returncode)
    if a.workload is None:
        ap.error("--workload is required")

    def args(seed, seconds):
        return ["--workload", a.workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(a.trace), "--nproc", str(nproc), "--ref", ref]

    if a.trace:
        children = [run_child(exe, root, args(a.seed, a.seconds), deadline)]
        metrics = children[0][1]["metrics"]
    else:
        # Several fresh processes, each a set-up sample followed by its share
        # of the timed passes, so the timing spans the whole run rather than
        # one stretch of a host whose speed drifts.
        children = [run_child(exe, root, args(a.seed * PROCESSES + i, a.seconds / PROCESSES), deadline)
                    for i in range(PROCESSES)]
    attempted = sum(r["attempted"] for _, r in children)
    failed = sum(r["failed"] for _, r in children)
    report = [line for _, r in children for line in r["report"]]
    report.append(f"error_rate {failed / attempted:g} ({failed} of {attempted} operations failed)")
    if not a.trace:
        metrics = end_to_end(children, report)
    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
