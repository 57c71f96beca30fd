"""Record the gate's reference values into ``perfbench/reference.json``.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs every workload once at the default seed and stores the values each
reference entry pins. Only run it at a commit whose outputs are known to
be correct: the benchmark then holds every later commit to these values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate  # noqa: E402
from worker import ROOT, load_cli, read_file, run_command  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main():
    cli = load_cli()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    reference = {"recorded_at": commit, "default_seed": DEFAULT_SEED}
    gate = Gate(reference, DEFAULT_SEED)
    work_dir = ROOT / ".perfbench_work" / "reference"
    try:
        for workload in WORKLOADS.values():
            wdir = str(work_dir / workload.name)
            Path(wdir).mkdir(parents=True, exist_ok=True)
            for command in workload.setup + workload.commands:
                argv = command.format(wdir, DEFAULT_SEED)
                rc, stdout, seconds, _ = run_command(cli, argv)
                if rc != 0:
                    raise SystemExit(f"{argv} exited with {rc}")
                print(f"{seconds:8.3f} s  {' '.join(argv[:3])}", file=sys.stderr)
                if command.ref:
                    key = command.ref.format(seed=DEFAULT_SEED)
                    reference[key] = gate.observe(command, argv, stdout, read_file)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()]
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
