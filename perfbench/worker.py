"""One workload in a fresh single-threaded process; started by ``run.py``.

Modes:

* ``setup``: import ``mstdim`` and run the set-up commands, then report the
  set-up time (interpreter start to the point the first timed command would
  begin). ``run.py`` starts several of these to take a median.
* ``untraced``: set up, then run passes of the timed commands back to back
  (a closed loop with one client) while another pass of typical length still
  ends within ``--seconds``; every command's outputs are gated after each pass.
* ``traced``: pairs of an untraced pass and a traced pass of set-up plus
  timed commands, on the same rule (at least two traced passes, so exact
  counts can be compared).

The result is written as JSON to ``--result``; command stdout is captured
by the gate and never printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
T_IMPORT = time.monotonic()


def load_cli():
    import mstdim.cli

    if not Path(mstdim.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"mstdim imported from {mstdim.cli.__file__}, not from {ROOT / 'src'}")
    return mstdim.cli


def run_command(cli, argv, tracer=None):
    """Run one CLI command in process: (exit code, stdout, seconds, span)."""
    buf = io.StringIO()
    span = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                span = tracer.open("cli." + argv[0])
                try:
                    rc = cli.main(argv)
                finally:
                    tracer.close(span)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, buf.getvalue(), perf_counter() - t0, span


def read_file(path):
    with open(path) as fh:
        return fh.read()


class Runner:
    def __init__(self, cli, workload, seed, work_dir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last_outputs = []  # (command, argv, stdout) of the latest pass

    def run(self, commands, tracer=None):
        """Run commands in order; returns [(command, argv, rc, stdout, seconds, span)]."""
        done = []
        for command in commands:
            argv = command.format(self.work_dir, self.seed)
            rc, stdout, seconds, span = run_command(self.cli, argv, tracer)
            done.append((command, argv, rc, stdout, seconds, span))
        return done

    def gate(self, gate, done):
        """Count each command as attempted, and as failed when it exits
        non-zero, raises, or fails the correctness gate."""
        for command, argv, rc, stdout, _, _ in done:
            self.attempted += 1
            problems = [f"exit code {rc}"] if rc != 0 else gate.judge(command, argv, stdout, read_file)
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(argv[:3])}: {'; '.join(problems)}")
        self.last_outputs = [(c, a, out) for c, a, rc, out, _, _ in done if rc == 0]


def timed_pass(done):
    slots = {}
    for command, _, _, _, seconds, _ in done:
        if command.slot:
            slots[command.slot] = slots.get(command.slot, 0.0) + seconds
    return {"wall_s": sum(d[4] for d in done), "commands": [d[4] for d in done], **slots}


def fits(t_loop, durations, seconds):
    """Whether one more pass of typical length ends within ``seconds``."""
    return perf_counter() - t_loop + statistics.median(durations) <= seconds


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cli = load_cli()
    os.makedirs(args.dir, exist_ok=True)
    runner = Runner(cli, workload, args.seed, args.dir)
    setup = runner.run(workload.setup)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "interpreter_start_s": T_IMPORT - args.t0}
    if args.mode == "setup":
        result["setup_failed"] = sum(1 for d in setup if d[2] != 0)
        Path(args.result).write_text(json.dumps(result))
        return 0

    import numpy

    import gate as gate_module
    import tracing

    gate = gate_module.Gate(json.loads(read_file(HERE / "reference.json")), args.seed)
    runner.gate(gate, setup)

    passes, durations = [], []
    t_loop = perf_counter()
    while True:
        t_pass = perf_counter()
        done = runner.run(workload.commands)
        passes.append(timed_pass(done))
        runner.gate(gate, done)
        durations.append(perf_counter() - t_pass)
        if args.mode == "traced" or not fits(t_loop, durations, args.seconds):
            break
    result["passes"] = passes

    cases = [(c, a, out, read_file) for c, a, out in runner.last_outputs]
    result["negative_test"] = gate_module.negative_test(gate, cases)

    if args.mode == "traced":
        result["trace"] = traced_passes(runner, gate, tracing, t_loop, args.seconds, passes[0]["wall_s"])

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


def traced_passes(runner, gate, tracing, t_loop, seconds, untraced_wall, min_passes=2):
    """Traced passes of set-up plus timed commands, with the trace checks.

    Each traced pass follows an untraced pass (the first follows the run's
    untraced pass), and the tracing overhead is the median difference within
    these pairs, so a change of machine speed between passes far apart in
    time does not show as overhead.
    """
    tracer = tracing.Tracer()
    per_pass, overheads, problems, durations = [], [], [], []
    while len(per_pass) < min_passes or fits(t_loop, durations, seconds):
        t_pair = perf_counter()
        if untraced_wall is None:
            done = runner.run(runner.workload.commands)
            runner.gate(gate, done)
            untraced_wall = timed_pass(done)["wall_s"]
        tracer.run_id = f"{runner.workload.name}-s{runner.seed}-pass{len(per_pass)}"
        first = len(tracer.spans)
        tracer.install()
        try:
            done = runner.run(runner.workload.setup, tracer)
            timed = runner.run(runner.workload.commands, tracer)
        finally:
            tracer.uninstall()
        runner.gate(gate, done + timed)
        spans = tracer.spans[first:]
        measured = {d[5].id: d[4] for d in done + timed}
        problems += tracing.accounting_problems(spans, measured)
        fired = {s.name for s in spans} | ({"Lp.one_to_many"} if any(s.o2m_calls for s in spans) else set())
        missing = sorted(set(runner.workload.layers) - fired)
        if missing:
            problems.append(f"wrappers that did not fire: {missing}")
        if tracer.orphan.o2m_calls:
            problems.append("row-kernel calls outside every span")
        per_pass.append(tracing.pass_metrics(spans))
        overheads.append(timed_pass(timed)["wall_s"] - untraced_wall)
        untraced_wall = None
        durations.append(perf_counter() - t_pair)
    for key in tracing.EXACT_COUNTS:
        values = {p[key] for p in per_pass}
        if len(values) != 1:
            problems.append(f"{key} differs between traced passes: {sorted(values)}")
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {
        "metrics": metrics,
        "overhead_samples_s": overheads,
        "problems": problems,
        "spans": [s.to_dict() for s in tracer.spans],
    }


if __name__ == "__main__":
    sys.exit(main())
