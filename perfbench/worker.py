"""Runs one benchmark workload in its own process; started by run.py.

    worker.py --setup WORKLOAD --seed N
        prints the seconds taken to import the package and build the
        workload's specs.
    worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR
        runs W and prints report lines, then one JSON line with the checked
        outcome and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy  # noqa: F401  third-party: imported before set-up is timed

import tracing

# setup_s counts from here: importing the package (with the benchmark's
# workloads module) and building the workload's specs
IMPORT_START = time.perf_counter()

import workloads
from tailshape import cli, montecarlo, pot, transform

SRC = Path.cwd() / "src"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Phase:
    passes: list

    @property
    def best_item_s(self) -> list[float]:
        """Fastest time of each item (cell or CLI call) over the passes."""
        return [min(times) for times in zip(*(p.item_s for p in self.passes))]

    @property
    def best_pass_s(self) -> float:
        """Fastest time of each item plus the fastest rest of a pass (rendering
        the table CSV).  The machine is shared and its speed swings by up to
        two times within seconds; the fastest time of each item varies far
        less between runs than any median does."""
        rest = min(p.wall_s - sum(p.item_s) for p in self.passes)
        return sum(self.best_item_s) + rest

    @property
    def ops_per_pass(self) -> int:
        return sum(self.passes[0].item_ops)


def measure(workload, pass_inputs, seconds: float, tracer=None) -> tuple[Phase, Phase, float]:
    """Closed loop: run whole passes until ``seconds`` have elapsed (at least one).

    Pass p runs ``pass_inputs(p)``.  With a tracer, untraced and traced passes
    alternate, so that both see the same swings of the machine's speed.
    Returns the untraced and the traced passes and the CPU utilization (own
    and children CPU time over wall time).
    """
    untraced, traced = [], []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    while not untraced or time.perf_counter() - t0 < seconds:
        untraced.append(workload.run_pass(*pass_inputs(len(untraced) + len(traced))))
        if tracer is not None:
            inputs = pass_inputs(len(untraced) + len(traced))
            with tracer.installed((montecarlo, pot, transform, cli, workloads)):
                traced.append(workload.run_pass(*inputs))
    cpu_utilization = (_cpu_s() - cpu0) / (time.perf_counter() - t0)
    return Phase(untraced), Phase(traced), cpu_utilization


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(phase: Phase) -> tuple[dict, list[str]]:
    op_ms = [1e3 * s / ops for s, ops in zip(phase.best_item_s, phase.passes[0].item_ops)]
    metrics = {
        "ops_per_s": _metric(phase.ops_per_pass / phase.best_pass_s, "1/s"),
        "op_ms.p50": _metric(statistics.median(op_ms), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report = [f"passes = {len(phase.passes)}; op_ms.p50 is the median of {len(op_ms)} items"]
    return metrics, report


def layer_metrics(untraced: Phase, traced: Phase, profile: dict,
                  cpu_utilization: float) -> tuple[dict, list[str]]:
    calls, total_s, self_s = profile["calls"], profile["total_s"], profile["self_s"]
    ops = traced.ops_per_pass * len(traced.passes)

    def per_call(names, seconds=total_s, scale=1e6) -> float:
        n = sum(calls.get(name, 0) for name in names)
        return scale * sum(seconds.get(name, 0.0) for name in names) / n if n else 0.0

    def observed_mean(key: str) -> float:
        total, count = profile["observed"].get(key, (0.0, 0))
        return total / count if count else 0.0

    estimators = tracing.LAYERS["estimators"]
    metrics = {
        "distributions.rng_setup_us": _metric(per_call(["RngStream"]), "us"),
        "distributions.sample_us": _metric(per_call(tracing.LAYERS["distributions"][1:]), "us"),
        **{
            f"estimators.{name.removeprefix('estimate_')}_us": _metric(per_call([name]), "us")
            for name in estimators
        },
        "estimators.calls": _metric(sum(calls.get(n, 0) for n in estimators) / ops, "calls/op"),
        "estimators.gpd_mle_iterations_mean": _metric(observed_mean("gpd_mle_iterations"), "count"),
        "estimators.gpd_mle_converged_ratio": _metric(observed_mean("gpd_mle_converged"), "ratio"),
        "transform.transformed_us": _metric(per_call(["transformed_shape_estimate"]), "us"),
        "transform.clamp_mean": _metric(observed_mean("clamp_count"), "count"),
        "pot.self_us": _metric(per_call(["pot_estimate"], seconds=self_s), "us"),
        "pot.select_threshold_us": _metric(per_call(["select_threshold"]), "us"),
        "montecarlo.self_s": _metric(
            sum(self_s.get(n, 0.0) for n in tracing.LAYERS["montecarlo"]) / len(traced.passes), "s"
        ),
        "montecarlo.emit_csv_us": _metric(per_call(["emit_csv"]), "us"),
        "montecarlo.cpu_utilization": _metric(cpu_utilization, "ratio"),
        "cli.read_data_file_ms": _metric(per_call(["read_data_file"], scale=1e3), "ms"),
        "cli.estimate_self_ms": _metric(per_call(["main"], seconds=self_s, scale=1e3), "ms"),
        "trace.overhead_frac": _metric(traced.best_pass_s / untraced.best_pass_s - 1.0, "ratio"),
    }
    # self times of the six layers plus the unattributed remainder (the
    # benchmark's own loop) add up to the wall time of the traced passes
    wall_s = profile["wall_s"]
    attributed = 0.0
    parts = []
    for layer, names in tracing.LAYERS.items():
        layer_s = sum(self_s.get(name, 0.0) for name in names)
        attributed += layer_s
        metrics[f"{layer}.self_frac"] = _metric(layer_s / wall_s, "ratio")
        parts.append(f"{layer} {layer_s:.4f}")
    metrics["trace.unattributed_frac"] = _metric((wall_s - attributed) / wall_s, "ratio")
    parts.append(f"unattributed {wall_s - attributed:.4f}")
    report = [
        f"traced wall seconds {wall_s:.4f} = " + " + ".join(parts),
        f"traced passes = {len(traced.passes)}, untraced passes = {len(untraced.passes)}",
    ]
    return metrics, report


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    pass_inputs = workload.prepare(args.seed, Path(args.tmp))
    references = [workloads.load_reference(args.workload, input_set)
                  for input_set in range(workloads.INPUT_SETS)]

    # no warm-up pass: the metrics use each item's fastest time, which the
    # first pass's cold start never is
    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced, cpu_utilization = measure(workload, pass_inputs, args.seconds, tracer)
        traced_wall_s = sum(p.wall_s for p in traced.passes)
        metrics, report = layer_metrics(untraced, traced, tracer.summary(traced_wall_s),
                                        cpu_utilization)
        passes = untraced.passes + traced.passes
    else:
        phase, _, _ = measure(workload, pass_inputs, args.seconds)
        metrics, report = end_to_end_metrics(phase)
        passes = phase.passes

    dev = max(workloads.max_rel_dev(p.outputs, references[p.input_set]) for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = dev <= workloads.REL_TOL
    report += [
        f"input sets = (seed {args.seed} + pass) mod {workloads.INPUT_SETS}; "
        f"first pass {passes[0].input_set}",
        f"max_rel_dev = {dev!r} (tolerance {workloads.REL_TOL!r})",
        f"failed_fraction = {failed / attempted!r} ({failed} of {attempted})",
    ]
    report += [f"sha256 {table}.csv (input set {passes[0].input_set}) = {digest}"
               for table, digest in passes[0].digests.items()]
    for line in report:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup", metavar="WORKLOAD")
    mode.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp")
    args = parser.parse_args(argv)
    if args.workload and (args.seconds is None or args.tmp is None):
        parser.error("--workload needs --seconds and --tmp")

    origin = Path(montecarlo.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        print(f"error: tailshape imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    name = args.setup or args.workload
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup:
        workloads.WORKLOADS[name].setup(args.seed % workloads.INPUT_SETS)
        print(time.perf_counter() - IMPORT_START)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
