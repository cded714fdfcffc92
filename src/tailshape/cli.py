"""Command-line front door.

Three subcommands:

* ``simulate --config PATH --out PATH [--format csv|json] [--threads N]
  [--seed S]`` runs the scenarios or benchmark tables described by a config
  file and writes one summary document.
* ``estimate --data PATH --method M [--k K] [--json]`` fits a data file
  (one value per line, ``#`` comments and blank lines ignored).
* ``quantile (--mu --sigma --xi | --fit PATH) --p LIST`` prints quantiles,
  either directly from GPD parameters or through a fitted Pareto transform.

Config files are flat ``key = value`` text.  Keys before any section set
defaults (``seed``, ``m``, ``rounds``, ``estimators``); each ``[scenario]``
section describes one experiment (``source`` one of gpd, gpd-pareto,
student-t, stable, plus its parameters, ``n``, ``m``, optional ``k``); each
``[table]`` section names a built-in benchmark grid (``name = table1`` ..
``table8``).  Unknown keys are rejected with their line number.

Exit codes are stable for scripting: 0 success, 1 usage or validation
problems (flags, config), 2 data-file problems, 3 numerical estimation
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import GpdParams, gpd_quantile
from .estimators import EstimationError, EstimatorId, FitResult
from .montecarlo import (
    DEFAULT_SEED,
    ExperimentSpec,
    GpdParetoSource,
    GpdSource,
    StableSource,
    StudentTSource,
    TableDocument,
    run_experiments,
    summaries_document,
    table_specs,
)
from .pot import PotConfig, fit_all, pot_estimate
from .transform import TransformForm, TransformSpec, gpd_quantile_via_transform

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_METHODS = {
    "zs": EstimatorId.ZHANG_STEPHENS,
    "pwm": EstimatorId.PWM,
    "mle": EstimatorId.GPD_MLE,
    "hill": EstimatorId.HILL,
    "pareto-ml": EstimatorId.PARETO_ML,
    "transformed-zs": EstimatorId.TRANSFORMED_ZS,
    "transformed-pwm": EstimatorId.TRANSFORMED_PWM,
}


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_GLOBAL_KEYS = {"seed", "m", "rounds", "estimators"}
_SCENARIO_KEYS = _GLOBAL_KEYS | {"source", "mu", "sigma", "xi", "df", "index", "n", "k", "fold"}
_TABLE_KEYS = {"name", "m", "seed"}


@dataclass
class _Block:
    kind: str  # "scenario" | "table"
    line: int
    entries: dict[str, tuple[str, int]]


def _parse_blocks(text: str, path: str) -> tuple[dict[str, tuple[str, int]], list[_Block]]:
    globals_: dict[str, tuple[str, int]] = {}
    blocks: list[_Block] = []
    current: _Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            kind = line[1:-1].strip().lower()
            if kind not in ("scenario", "table"):
                raise ConfigError(f"{path}:{lineno}: unknown section [{kind}]")
            current = _Block(kind, lineno, {})
            blocks.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        target = current.entries if current is not None else globals_
        allowed = (
            _GLOBAL_KEYS
            if current is None
            else (_SCENARIO_KEYS if current.kind == "scenario" else _TABLE_KEYS)
        )
        if key not in allowed:
            where = f"[{current.kind}]" if current is not None else "global scope"
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in {where}")
        target[key] = (value, lineno)
    return globals_, blocks


def _coerce(path: str, key: str, entry: tuple[str, int], kind: type):
    value, lineno = entry
    try:
        if kind is int:
            return int(value)
        return float(value)
    except ValueError:
        raise ConfigError(
            f"{path}:{lineno}: key {key!r} needs a {kind.__name__}, got {value!r}"
        ) from None


def _parse_estimators(path: str, entry: tuple[str, int]) -> tuple[EstimatorId, ...]:
    value, lineno = entry
    out = []
    for part in value.split(","):
        name = part.strip()
        if name not in _METHODS:
            raise ConfigError(
                f"{path}:{lineno}: unknown estimator {name!r}; expected one of {sorted(_METHODS)}"
            )
        out.append(_METHODS[name])
    return tuple(out)


def _scenario_source(path: str, block: _Block):
    if "source" not in block.entries:
        raise ConfigError(f"{path}:{block.line}: [scenario] needs a 'source' key")
    value, lineno = block.entries["source"]
    kind = value.strip().lower()
    need = {
        "gpd": ("mu", "sigma", "xi"),
        "gpd-pareto": ("mu", "xi"),
        "student-t": ("df",),
        "stable": ("index",),
    }
    if kind not in need:
        raise ConfigError(f"{path}:{lineno}: unknown source {value!r}")
    params = {}
    for key in need[kind]:
        if key not in block.entries:
            raise ConfigError(f"{path}:{block.line}: source {kind!r} needs key {key!r}")
        params[key] = _coerce(path, key, block.entries[key], float)
    for key in ("mu", "sigma", "xi", "df", "index"):
        if key in block.entries and key not in need[kind]:
            raise ConfigError(
                f"{path}:{block.entries[key][1]}: key {key!r} does not apply to source {kind!r}"
            )
    try:
        if kind == "gpd":
            return GpdSource(GpdParams(params["mu"], params["sigma"], params["xi"]))
        if kind == "gpd-pareto":
            return GpdParetoSource(params["mu"], params["xi"])
        if kind == "student-t":
            return StudentTSource(params["df"])
        return StableSource(params["index"])
    except ValueError as err:
        raise ConfigError(f"{path}:{block.line}: {err}") from None


def parse_config(text: str, path: str, seed_override: int | None = None):
    """Parse a config into labelled spec groups: [(label, [ExperimentSpec])]."""
    globals_, blocks = _parse_blocks(text, path)
    if not blocks:
        raise ConfigError(f"{path}: config defines no [scenario] or [table] section")
    default_seed = seed_override if seed_override is not None else (
        _coerce(path, "seed", globals_["seed"], int) if "seed" in globals_ else DEFAULT_SEED
    )
    default_m = _coerce(path, "m", globals_["m"], int) if "m" in globals_ else 1000
    default_rounds = _coerce(path, "rounds", globals_["rounds"], int) if "rounds" in globals_ else 0
    default_estimators = (
        _parse_estimators(path, globals_["estimators"]) if "estimators" in globals_ else None
    )

    groups = []
    for index, block in enumerate(blocks):
        if block.kind == "table":
            if "name" not in block.entries:
                raise ConfigError(f"{path}:{block.line}: [table] needs a 'name' key")
            name = block.entries["name"][0].strip().lower()
            m = _coerce(path, "m", block.entries["m"], int) if "m" in block.entries else default_m
            seed = (
                _coerce(path, "seed", block.entries["seed"], int)
                if "seed" in block.entries and seed_override is None
                else default_seed
            )
            try:
                specs = table_specs(name, seed=seed, m=m)
            except ValueError as err:
                raise ConfigError(f"{path}:{block.line}: {err}") from None
            groups.append((name, specs))
            continue

        source = _scenario_source(path, block)
        entries = block.entries
        if "n" not in entries:
            raise ConfigError(f"{path}:{block.line}: [scenario] needs a sample size 'n'")
        fold = False
        if "fold" in entries:
            raw, lineno = entries["fold"]
            if raw.lower() not in ("true", "false"):
                raise ConfigError(f"{path}:{lineno}: key 'fold' needs true or false, got {raw!r}")
            fold = raw.lower() == "true"
        try:
            spec = ExperimentSpec(
                source=source,
                n=_coerce(path, "n", entries["n"], int),
                m=_coerce(path, "m", entries["m"], int) if "m" in entries else default_m,
                k=_coerce(path, "k", entries["k"], int) if "k" in entries else None,
                estimators=(
                    _parse_estimators(path, entries["estimators"])
                    if "estimators" in entries
                    else default_estimators
                ),
                seed=(
                    _coerce(path, "seed", entries["seed"], int)
                    if "seed" in entries and seed_override is None
                    else default_seed
                ),
                rounds=(
                    _coerce(path, "rounds", entries["rounds"], int)
                    if "rounds" in entries
                    else default_rounds
                ),
                fold_absolute=fold,
            )
        except ValueError as err:
            raise ConfigError(f"{path}:{block.line}: {err}") from None
        groups.append((f"scenario{index + 1}", [spec]))
    return groups


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def read_data_file(path: str) -> np.ndarray:
    """One finite numeric value per line; '#' starts a comment, blanks are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read data file {path}: {err}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: could not parse {line!r} as a number") from None
    data = np.asarray(values, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        # a single vectorized check keeps the per-line loop free of extra
        # work; the line of the first non-finite value is found only on failure
        index = int(np.argmin(finite))
        lineno = [
            n for n, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].strip()
        ][index]
        raise DataError(f"{path}:{lineno}: value {float(data[index])!r} is not finite")
    if data.size < 2:
        raise DataError(f"{path}: need at least 2 observations, found {data.size}")
    return data


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {args.config}: {err}") from None
    groups = parse_config(text, args.config, seed_override=args.seed)

    all_rows = []
    columns = None
    for label, specs in groups:
        results = run_experiments(specs, workers=args.threads)
        for cell, result in enumerate(results, start=1):
            spec, param = result.spec, result.spec.source.param_name
            for s in result.summaries:
                if 2 * s.failures > spec.m:  # most replications failed: say why
                    counts = ", ".join(f"{reason}: {count}" for reason, count in s.reasons)
                    print(
                        f"warning: {label} cell {cell} (n={spec.n}, {param}="
                        f"{spec.source.descriptor()[param]}): {s.estimator.value} failed in "
                        f"{s.failures} of {spec.m} replications ({counts})",
                        file=sys.stderr,
                    )
        doc = summaries_document(results, name=label)
        columns = doc.columns
        all_rows.extend(doc.rows)

    combined = TableDocument("simulation", columns, all_rows)
    payload = combined.to_csv() if args.format == "csv" else combined.to_json()
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as err:
        raise ConfigError(f"cannot write output file {args.out}: {err}") from None
    print(f"wrote {len(all_rows)} summary rows to {args.out}")
    return EXIT_OK


def _print_fit(fit: FitResult, n: int, extra: dict, as_json: bool) -> None:
    if as_json:
        payload = {
            "estimator": fit.estimator.value,
            "n": n,
            "xi_hat": fit.xi_hat,
            "sigma_hat": fit.sigma_hat,
            # scale-only fits inherit the support estimate so that the output
            # feeds straight into 'quantile --fit'
            "mu_hat": fit.mu_hat if fit.mu_hat is not None else extra.get("support_estimate"),
            "diagnostics": fit.diagnostics,
        }
        payload.update(extra)
        print(json.dumps(payload))
        return
    print(f"estimator = {fit.estimator.value}")
    print(f"n = {n}")
    for key, value in extra.items():
        print(f"{key} = {value!r}")
    print(f"xi_hat = {fit.xi_hat!r}")
    if fit.sigma_hat is not None:
        print(f"sigma_hat = {fit.sigma_hat!r}")
    if fit.mu_hat is not None:
        print(f"mu_hat = {fit.mu_hat!r}")
    for key in sorted(fit.diagnostics):
        print(f"{key} = {fit.diagnostics[key]!r}")


def _cmd_estimate(args) -> int:
    estimator = _METHODS[args.method]
    data = read_data_file(args.data)
    extra: dict = {}

    if args.k is not None:
        if not 1 <= args.k < data.size:
            raise UsageError(f"--k must satisfy 1 <= k < n = {data.size}")
        try:
            result = pot_estimate(data, PotConfig(args.k, (estimator,)))
        except ValueError as err:  # ties at the threshold leave < 2 exceedances
            raise DataError(str(err)) from None
        extra = {"k": args.k, "threshold": result.threshold}
        outcome = result.fits.get(estimator) or result.failures[estimator]
    elif estimator is EstimatorId.HILL:
        raise UsageError("--method hill needs an exceedance count --k")
    else:
        # excess-over-minimum recipe: fit on the strictly positive excesses,
        # Pareto ML and the transforms on the full sample
        mu_hat = float(data.min())
        z = data[data > mu_hat] - mu_hat
        if estimator is not EstimatorId.PARETO_ML:
            if z.size < 2:
                raise DataError("need at least 2 observations above the smallest one")
            extra = {"support_estimate": mu_hat}
        outcome = fit_all(data, mu_hat, z, (estimator,))[estimator]
    if isinstance(outcome, str):
        raise EstimationError(outcome)
    _print_fit(outcome, data.size, extra, args.json)
    return EXIT_OK


def _parse_probs(raw: str) -> list[float]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise UsageError("--p needs at least one probability")
    out = []
    for part in parts:
        try:
            p = float(part)
        except ValueError:
            raise UsageError(f"could not parse probability {part!r}") from None
        if not 0.0 <= p < 1.0:
            raise UsageError(f"probabilities must lie in [0, 1), got {part}")
        out.append(p)
    return out


def _load_fit_file(path: str) -> tuple[TransformSpec, float]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read fit file {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"{path}: invalid JSON: {err}") from None
    try:
        mu_hat = float(payload["mu_hat"])
        sigma_hat = float(payload["sigma_hat"])
        xi_hat = float(payload["xi_hat"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{path}: fit file needs numeric mu_hat, sigma_hat and xi_hat") from None
    alpha = payload.get("alpha_transformed")
    if alpha is None:
        if xi_hat <= 0:
            raise DataError(f"{path}: cannot derive alpha_transformed from xi_hat = {xi_hat}")
        alpha = 1.0 / xi_hat
    try:
        form = TransformForm(payload.get("form", "three_parameter"))
        spec = TransformSpec(mu_hat, sigma_hat, xi_hat, form)
    except ValueError as err:
        raise DataError(f"{path}: {err}") from None
    if xi_hat <= 0:
        raise DataError(
            f"{path}: quantile back-transformation needs a positive xi_hat, got {xi_hat}"
        )
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise DataError(f"{path}: alpha_transformed must be a number, got {alpha!r}") from None
    if not (math.isfinite(alpha) and alpha > 0):
        raise DataError(f"{path}: alpha_transformed must be a positive real, got {alpha}")
    return spec, alpha


def _cmd_quantile(args) -> int:
    probs = _parse_probs(args.p)
    direct = [v is not None for v in (args.mu, args.sigma, args.xi)]
    if args.fit is not None:
        if any(direct):
            raise UsageError("--fit and direct --mu/--sigma/--xi are mutually exclusive")
        spec, alpha = _load_fit_file(args.fit)
        values = [gpd_quantile_via_transform(spec, alpha, p) for p in probs]
    else:
        if not all(direct):
            raise UsageError("quantile needs either --fit PATH or all of --mu --sigma --xi")
        try:
            params = GpdParams(args.mu, args.sigma, args.xi)
        except ValueError as err:
            raise UsageError(str(err)) from None
        values = [float(gpd_quantile(params, p)) for p in probs]
    for p, x in zip(probs, values):
        print(f"p={p!r} x={x!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="tailshape", description="GPD tail-shape estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run experiments from a config file")
    sim.add_argument("--config", required=True, help="config file path")
    sim.add_argument("--out", required=True, help="output document path")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--threads", type=_positive_int, default=1, help="worker processes")
    sim.add_argument("--seed", type=int, default=None, help="override all config seeds")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="fit a data file")
    est.add_argument("--data", required=True, help="file with one value per line")
    est.add_argument("--method", required=True, choices=sorted(_METHODS))
    est.add_argument("--k", type=int, default=None, help="exceedance count for POT estimation")
    est.add_argument("--json", action="store_true", help="print the fit as JSON")
    est.set_defaults(func=_cmd_estimate)

    qua = sub.add_parser("quantile", help="print GPD quantiles")
    qua.add_argument("--mu", type=float, default=None)
    qua.add_argument("--sigma", type=float, default=None)
    qua.add_argument("--xi", type=float, default=None)
    qua.add_argument("--fit", default=None, help="JSON fit file from 'estimate --json'")
    qua.add_argument("--p", required=True, help="comma-separated probabilities in [0, 1)")
    qua.set_defaults(func=_cmd_quantile)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
