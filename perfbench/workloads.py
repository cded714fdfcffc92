"""Workloads of the tailshape benchmark.

Each workload turns an input set into inputs for the program, runs passes
over them through the package's public API and returns, per pass, its wall
time, the time of each item (a cell or a CLI call) and the outputs that the
correctness check compares with the reference recorded for that input set.

* gpd_grid: the table1 grid (15 GPD cells, n in {50, 100, 250}, ZS, T-ZS,
  PWM and T-PWM) at reduced m: thousands of tiny fits, call overhead bound.
* pot_grid: the table7 and table8 grids (folded Student t and symmetric
  stable, n in {1000, 2500, 5000}, k = 100) at reduced m: GPD MLE bound.
* large_sample_fit: ``tailshape estimate`` run in process through
  ``cli.main`` on generated data files of 2e4 to 2e5 values: few calls over
  large arrays, file parsing and the grid x n log1p of Zhang-Stephens.

One operation is one replication on the grids and one CLI call on
large_sample_fit.  Pass p of a run with seed s runs input set
(s + p) mod INPUT_SETS and is checked against that set's reference.  On
large_sample_fit every call of every pass also reads a file of its own, so
no file path or file content is read twice in a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tailshape import cli, distributions, montecarlo

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# pass p of a run with --seed s runs the recorded input set (s + p) mod INPUT_SETS
INPUT_SETS = 8
# largest relative deviation from the reference that still counts as correct
REL_TOL = 1e-6


@dataclass
class PassResult:
    input_set: int
    wall_s: float
    # each item is one cell (m operations) or one CLI call (one operation)
    item_s: list[float]
    item_ops: list[int]
    # output rows compared with the reference, keyed by table ("calls" for the CLI)
    outputs: dict[str, list[list]]
    attempted: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)


def emit_csv(results, table: str) -> str:
    """The table document the program writes for ``results``."""
    return montecarlo.emit_table(results, table).to_csv()


class GridWorkload:
    """Benchmark tables at reduced m, one serial run_experiment call per cell."""

    def __init__(self, tables: tuple[str, ...], m: int):
        self.tables = tables
        self.m = m

    def setup(self, input_set: int) -> dict:
        return {t: montecarlo.table_specs(t, seed=input_set, m=self.m) for t in self.tables}

    def prepare(self, seed: int, tmp: Path):
        """The inputs of pass p: ``(input set, specs)``."""
        specs = [self.setup(input_set) for input_set in range(INPUT_SETS)]

        def pass_inputs(pass_index: int) -> tuple[int, dict]:
            input_set = (seed + pass_index) % INPUT_SETS
            return input_set, specs[input_set]

        return pass_inputs

    def run_pass(self, input_set: int, specs: dict) -> PassResult:
        item_s, all_results, texts = [], {}, {}
        start = time.perf_counter()
        for table, table_specs in specs.items():
            results = []
            for spec in table_specs:
                t0 = time.perf_counter()
                summaries = montecarlo.run_experiment(spec)
                item_s.append(time.perf_counter() - t0)
                results.append(montecarlo.ExperimentResult(spec, tuple(summaries)))
            texts[table] = emit_csv(results, table)
            all_results[table] = results
        wall = time.perf_counter() - start

        outputs, attempted, failed = {}, 0, 0
        for table, results in all_results.items():
            rows = []
            for cell, result in enumerate(results):
                for s in result.summaries:
                    rows.append([cell, s.estimator.value, s.mse, s.bias, s.rel_eff, s.variance,
                                 s.mc_se_mse, s.mc_se_bias, s.failures, s.m_used])
                    attempted += result.spec.m
                    failed += s.failures
            outputs[table] = rows
        digests = {t: hashlib.sha256(text.encode()).hexdigest() for t, text in texts.items()}
        item_ops = [spec.m for table_specs in specs.values() for spec in table_specs]
        return PassResult(input_set, wall, item_s, item_ops, outputs, attempted, failed, digests)


# (file label, sampler, parameters, n); k for --k runs is n // 100
DATA_FILES = (
    ("gpd_20k", "gpd", (1.0, 1.0, 0.5), 20_000),
    ("pareto_60k", "pareto", (1.0, 2.0), 60_000),
    ("gpd_200k", "gpd", (0.0, 1.0, 0.25), 200_000),
)
METHODS = ("zs", "pwm", "mle", "pareto-ml", "transformed-zs", "transformed-pwm")
# every method with and without --k on the two smaller files; on the largest,
# Zhang-Stephens' (grid x n) log1p without --k and four --k fits whose time is
# mostly parsing.
CALLS = tuple(
    (label, method, with_k)
    for label in ("gpd_20k", "pareto_60k")
    for with_k, methods in ((False, METHODS), (True, METHODS + ("hill",)))
    for method in methods
) + (("gpd_200k", "zs", False),) + tuple(
    ("gpd_200k", method, True) for method in ("pwm", "mle", "hill", "pareto-ml")
)

SIZES = {label: n for label, _, _, n in DATA_FILES}


def _data_text(input_set: int, index: int) -> bytes:
    """The text of data file ``index`` of an input set, one value per line."""
    label, sampler, params, n = DATA_FILES[index]
    rng = distributions.RngStream(input_set, index)
    if sampler == "gpd":
        x = distributions.sample_gpd(distributions.GpdParams(*params), n, rng)
    else:
        x = distributions.sample_pareto(distributions.ParetoParams(*params), n, rng)
    return ("\n".join(map(repr, x.tolist())) + "\n").encode()


class CliWorkload:
    """``tailshape estimate`` called in process on generated data files."""

    def setup(self, input_set: int) -> None:
        """Nothing beyond the import: the CLI parses its flags on every call."""

    def prepare(self, seed: int, tmp: Path):
        """The inputs of pass p: ``(input set, argvs)``, with the files written.

        The values of each data file come from the pass's input set.  Each
        call reads its own copy, rotated by a number of lines of its own and
        written to a path of its own, so neither a path nor the bytes read
        repeat within a run, while the estimates stay those of the input set
        up to rounding in sums over the unsorted values.  The files of the
        previous pass are deleted first.  The unrotated files of an input set
        are drawn when the set is first needed and kept on disk.
        """
        pass_dir = tmp / "pass"

        def unrotated(input_set: int, index: int) -> bytes:
            path = tmp / f"set{input_set}_{DATA_FILES[index][0]}.txt"
            if not path.exists():
                path.write_bytes(_data_text(input_set, index))
            return path.read_bytes()

        def pass_inputs(pass_index: int) -> tuple[int, list[list[str]]]:
            input_set = (seed + pass_index) % INPUT_SETS
            texts = {label: unrotated(input_set, index)
                     for index, (label, *_) in enumerate(DATA_FILES)}
            shutil.rmtree(pass_dir, ignore_errors=True)
            pass_dir.mkdir()
            argvs = []
            ends = {label: np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
                    for label, text in texts.items()}
            for call, (label, method, with_k) in enumerate(CALLS):
                text = texts[label]
                # the rotation in lines differs for every call of a run shorter
                # than (smallest file size) / len(CALLS) = 645 passes
                cut = ends[label][(pass_index * len(CALLS) + call) % SIZES[label]]
                path = pass_dir / f"p{pass_index}_c{call}_{label}.txt"
                path.write_bytes(text[cut:] + text[:cut])
                argv = ["estimate", "--data", str(path), "--method", method, "--json"]
                if with_k:
                    argv += ["--k", str(SIZES[label] // 100)]
                argvs.append(argv)
            return input_set, argvs

        return pass_inputs

    def run_pass(self, input_set: int, argvs: list[list[str]]) -> PassResult:
        item_s, codes, texts = [], [], []
        start = time.perf_counter()
        for argv in argvs:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            item_s.append(time.perf_counter() - t0)
            codes.append(code)
            texts.append(out.getvalue())
        wall = time.perf_counter() - start

        rows = []
        for (label, method, with_k), code, text in zip(CALLS, codes, texts):
            xi = json.loads(text)["xi_hat"] if code == 0 else math.nan
            rows.append([label, method, with_k, code, xi])
        failed = sum(code != 0 for code in codes)
        return PassResult(input_set, wall, item_s, [1] * len(argvs), {"calls": rows},
                          len(argvs), failed)


WORKLOADS = {
    "gpd_grid": GridWorkload(("table1",), m=200),
    "pot_grid": GridWorkload(("table7", "table8"), m=20),
    "large_sample_fit": CliWorkload(),
}


def load_reference(name: str, input_set: int) -> dict[str, list[list]]:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text())["input_sets"][str(input_set)]


def _rel_dev(got, ref) -> float:
    if isinstance(ref, (str, bool)):
        return 0.0 if got == ref else math.inf
    if got == ref or (math.isnan(got) and math.isnan(ref)):
        return 0.0
    if ref == 0 or math.isnan(got) or math.isnan(ref):
        return math.inf
    return abs(got - ref) / abs(ref)


def max_rel_dev(outputs: dict[str, list[list]], reference: dict[str, list[list]]) -> float:
    """Largest relative deviation of any output value from the reference.

    Labels and counts must match exactly (their deviation is 0 or inf); a
    missing or extra row or table counts as an infinite deviation.
    """
    if outputs.keys() != reference.keys():
        return math.inf
    dev = 0.0
    for key, ref_rows in reference.items():
        rows = outputs[key]
        if len(rows) != len(ref_rows):
            return math.inf
        for row, ref_row in zip(rows, ref_rows):
            if len(row) != len(ref_row):
                return math.inf
            dev = max([dev] + [_rel_dev(g, r) for g, r in zip(row, ref_row)])
    return dev
