"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs one pass of each workload on every input set and writes the outputs to
perfbench/reference/<name>.json.  Rerun it only when the outputs are meant to
change, and say by how much in the change that does so.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads


def _format(sets: dict) -> str:
    """JSON with one output row per line, so a diff shows which rows moved."""
    blocks = []
    for input_set, outputs in sets.items():
        tables = [
            f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
            for key, rows in outputs.items()
        ]
        blocks.append(f"{json.dumps(input_set)}: {{\n" + ",\n".join(tables) + "\n}")
    return '{"input_sets": {\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        sets = {}
        for input_set in range(workloads.INPUT_SETS):
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                pass_inputs = workload.prepare(input_set, Path(tmp))
                sets[str(input_set)] = workload.run_pass(*pass_inputs(0)).outputs
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(_format(sets))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
