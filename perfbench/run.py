"""mstdim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload box-fractal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh single-threaded
Python processes (BLAS threads pinned to 1) that import ``mstdim`` from
``src/`` and call ``mstdim.cli.main`` in process. With ``--trace 0`` the
last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. The line before it records the
machine, the inputs and every sample. Spans of a traced run are written to
``.perfbench_out/``; scratch files go to ``.perfbench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SLOTS, WORKLOADS  # noqa: E402

# separate set-up processes per untraced run, half before and half after the
# measured process (which sets up once more), so their median spans the run
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode, work_dir, deadline):
    result_path = work_dir / f"{mode}-result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--dir", str(work_dir / mode), "--result", str(result_path)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def environment(args):
    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "cache size") and key.strip() not in cpu:
                    cpu[key.strip()] = value.strip()
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append(" ".join((index / f).read_text().strip() for f in ("level", "type", "size")))
        except OSError:
            pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref_file = ROOT / ".git" / commit[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    workload = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name"),
        "cpu_cache": cpu.get("cache size"),
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "inputs": list(workload.inputs),
    }


def end_to_end(setups, main):
    """Mean times over the run's passes, and the median set-up.

    The host's speed switches between levels 1.4x to 1.8x apart in spells of
    a fraction of a second to half a minute, and the share of slow spells
    drifts over minutes. A median or a minimum over a few passes flips
    between the two levels from run to run; the mean follows the share of
    slow time smoothly, and is the run's total time per pass.
    """
    passes = main["passes"]
    metrics = {
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    for slot in SLOTS:
        metrics[slot] = (statistics.fmean(p[slot] for p in passes), "s")
    return metrics


def per_layer(main):
    units = {"calls": "count", "evals": "count", "points": "count", "centers": "count",
             "bytes_computed": "bytes", "evals_per_edge": "evals/edge",
             "useful_scale_frac": "ratio"}
    return {k: (v, units.get(k.rsplit(".", 1)[-1], "s")) for k, v in main["trace"]["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "mstdim" / "cli.py").is_file():
        print(f"error: no mstdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    probes = []
    probe_count = 0 if args.trace else SETUP_PROBES // 2
    try:
        for _ in range(probe_count):
            probes.append(run_worker(args, "setup", work_dir, deadline))
        main_result = run_worker(args, "traced" if args.trace else "untraced", work_dir, deadline)
        for _ in range(probe_count):
            probes.append(run_worker(args, "setup", work_dir, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups = [p["setup_s"] for p in probes] + [main_result["setup_s"]]

    problems = list(main_result["problems"])
    attempted = main_result["attempted"] + len(probes) * len(WORKLOADS[args.workload].setup)
    failed = main_result["failed"] + sum(p["setup_failed"] for p in probes)
    if any(p["setup_failed"] for p in probes):
        problems.append("a set-up command failed in a set-up process")
    negative = main_result["negative_test"]
    if negative["failed"] != negative["attempted"] or not negative["attempted"]:
        problems.append(f"gate passed corrupted outputs: {negative['missed']}")
    if args.trace:
        trace = main_result["trace"]
        problems += trace["problems"]
        metrics = per_layer(main_result)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(trace["spans"]))
    else:
        metrics = end_to_end(setups, main_result)

    env = environment(args)
    env["numpy"] = main_result["numpy"]
    record = {
        "environment": env,
        "setup_samples_s": setups,
        "passes": main_result["passes"],
        "negative_test": negative,
        "problems": problems,
    }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
