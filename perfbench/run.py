"""Benchmark of the tailshape package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gpd_grid --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
The program is the package under ``src/``, imported from source.  With
``--trace 0`` the run first times set-up (import plus building specs) in
fresh interpreters.  It then runs the workload in a child process
(perfbench/worker.py) that checks its outputs against the recorded
references.  It prints report lines and, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The exit code is 0 only when the outputs are correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
# fresh interpreters timed for setup_s; one more runs first, untimed, so the
# run that writes the bytecode cache is not among them
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, str]:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "tailshape" / "__init__.py").is_file():
        print(f"error: no tailshape package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_SAMPLES + 1):
            code, out = run_child([sys.executable, str(WORKER), "--setup", args.workload,
                                   "--seed", str(args.seed)], env, CHILD_TIMEOUT_S)
            if code != 0:
                print(f"error: set-up probe exited with {code}", file=sys.stderr)
                return 2
            setup.append(float(out.strip().splitlines()[-1]))
        code, out = run_child(
            [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)],
            env, CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: a child ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()

    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    report = lines[:-1]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup[1:]), "unit": "s"}
        report.append(f"setup_s samples = {', '.join(f'{s:.4f}' for s in setup[1:])}")
    report += [f"{name} = {m['value']!r} {m['unit']}" for name, m in result["metrics"].items()]
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
