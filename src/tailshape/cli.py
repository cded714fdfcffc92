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
import os
import stat
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import GpdParams, gpd_quantile
from .estimators import EstimationError, EstimatorId, FitResult
from .montecarlo import (
    _SOURCES,
    DEFAULT_SEED,
    ExperimentSpec,
    TableDocument,
    _strict_json,
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
_TABLE_KEYS = {"name", "m", "seed"}
_PARAM_KEYS = tuple(dict.fromkeys(key for family in _SOURCES.values() for key in family.keys))
_SCENARIO_KEYS = _GLOBAL_KEYS | {"source", "n", "k", "fold", *_PARAM_KEYS}
_KEYS = {"global": _GLOBAL_KEYS, "scenario": _SCENARIO_KEYS, "table": _TABLE_KEYS}


@dataclass
class _Block:
    kind: str  # "global" | "scenario" | "table"
    line: int
    entries: dict[str, tuple[str, int]]


def _parse_blocks(text: str, path: str) -> tuple[_Block, list[_Block]]:
    """The keys before any section, as a "global" block, and the sections."""
    globals_ = current = _Block("global", 0, {})
    blocks: list[_Block] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            kind = line[1:-1].strip().lower()
            if kind not in ("scenario", "table"):
                raise UsageError(f"{path}:{lineno}: unknown section [{kind}]")
            current = _Block(kind, lineno, {})
            blocks.append(current)
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.split("#", 1)[0].strip()
        if not value:
            raise UsageError(f"{path}:{lineno}: empty value for key {key!r}")
        if key not in _KEYS[current.kind]:
            where = "global scope" if current is globals_ else f"[{current.kind}]"
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} in {where}")
        current.entries[key] = (value, lineno)
    return globals_, blocks


def _read(path: str, entries: dict[str, tuple[str, int]], key: str, default=None):
    """The value of ``key`` in ``entries`` read by its type, or ``default``:
    a float for source parameters, the estimator tuple, the fold flag, else
    an int."""
    if key not in entries:
        return default
    value, lineno = entries[key]
    if key == "estimators":
        names = [part.strip() for part in value.split(",")]
        for name in names:
            if name not in _METHODS:
                raise UsageError(
                    f"{path}:{lineno}: unknown estimator {name!r}; "
                    f"expected one of {sorted(_METHODS)}"
                )
        return tuple(_METHODS[name] for name in names)
    if key == "fold":
        if value.lower() not in ("true", "false"):
            raise UsageError(f"{path}:{lineno}: key 'fold' needs true or false, got {value!r}")
        return value.lower() == "true"
    kind = float if key in _PARAM_KEYS else int
    try:
        return kind(value)
    except ValueError:
        raise UsageError(
            f"{path}:{lineno}: key {key!r} needs a {kind.__name__}, got {value!r}"
        ) from None


def _scenario_source(path: str, block: _Block):
    entries = block.entries
    if "source" not in entries:
        raise UsageError(f"{path}:{block.line}: [scenario] needs a 'source' key")
    value, lineno = entries["source"]
    kind = value.lower()
    if kind not in _SOURCES:
        raise UsageError(f"{path}:{lineno}: unknown source {value!r}")
    family = _SOURCES[kind]
    params = []
    for key in family.keys:
        if key not in entries:
            raise UsageError(f"{path}:{block.line}: source {kind!r} needs key {key!r}")
        params.append(_read(path, entries, key))
    for key in _PARAM_KEYS:
        if key in entries and key not in family.keys:
            raise UsageError(
                f"{path}:{entries[key][1]}: key {key!r} does not apply to source {kind!r}"
            )
    return family.build(*params)


def _section(path: str, block: _Block, index: int, defaults: dict):
    """The label and specs of one section; a value out of its range raises
    ValueError."""
    entries = block.entries

    def read(key: str):
        return _read(path, entries, key, defaults.get(key))

    if block.kind == "table":
        if "name" not in entries:
            raise UsageError(f"{path}:{block.line}: [table] needs a 'name' key")
        name = entries["name"][0].lower()
        return name, table_specs(name, m=read("m"), seed=read("seed"))
    source = _scenario_source(path, block)
    if "n" not in entries:
        raise UsageError(f"{path}:{block.line}: [scenario] needs a sample size 'n'")
    spec = ExperimentSpec(
        source=source,
        fold_absolute=read("fold"),  # a bad fold is reported before a bad n
        n=read("n"),
        m=read("m"),
        k=read("k"),
        estimators=read("estimators"),
        seed=read("seed"),
        rounds=read("rounds"),
    )
    return f"scenario{index + 1}", [spec]


def parse_config(text: str, path: str, seed_override: int | None = None):
    """Parse a config into labelled spec groups: [(label, [ExperimentSpec])]."""
    globals_, blocks = _parse_blocks(text, path)
    if not blocks:
        raise UsageError(f"{path}: config defines no [scenario] or [table] section")
    if seed_override is not None:  # the config's seeds are left unread
        for block in (globals_, *blocks):
            block.entries.pop("seed", None)
    seed = DEFAULT_SEED if seed_override is None else seed_override
    # what a section that does not set a key gets: the global value, else this
    defaults = {"seed": seed, "m": 1000, "rounds": 0, "estimators": None, "fold": False}
    defaults = {key: _read(path, globals_.entries, key, value) for key, value in defaults.items()}
    groups = []
    for index, block in enumerate(blocks):
        try:
            groups.append(_section(path, block, index, defaults))
        except ValueError as err:
            raise UsageError(f"{path}:{block.line}: {err}") from None
    return groups


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

# suffixes numpy's loadtxt decompresses, and tries beside a path that is missing
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def read_data_file(path: str) -> np.ndarray:
    """One finite value per line, as float() reads it; '#' starts a comment, blanks are
    skipped, and any Unicode line break ends a line for the line numbers of errors.

    A regular file that is all ASCII with no '#' and no '_' is first read by
    numpy's C reader (``np.loadtxt``), which is kept only when it reads one
    column of at least 2 finite values without an error or a warning.  Every
    other file is read by the line parser, which makes every message: a file
    with comments, ``1_000``, non-ASCII digits or Unicode line breaks at once,
    as the C reader might fail on it only at the end of a long file, and a
    file with errors or non-finite values after the C reader fails.  The C
    reader gets the absolute path of a file without a compressed suffix only,
    so that nothing is decompressed and no path is taken for a URL."""
    data = None
    if os.path.isfile(path) and not path.lower().endswith(_COMPRESSED):
        try:
            with open(path, "rb") as handle:
                plain = _plain_bytes(handle.read())
            if plain:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    data = np.loadtxt(
                        os.path.abspath(path),
                        dtype=float,
                        comments=None,
                        encoding="utf-8",
                        ndmin=2,
                    )
        except Exception:  # the line parser reports every failure
            pass
        if data is not None and data.shape[1] == 1 and len(data) >= 2 and np.isfinite(data).all():
            return data[:, 0]
    return _parse_lines(path)


def _plain_bytes(raw: bytes) -> bool:
    """Whether ``raw`` has none of the bytes ('#', '_', non-ASCII) of files
    that the line parser reads and numpy's C reader does not."""
    return raw.isascii() and b"#" not in raw and b"_" not in raw


def _parse_lines(path: str) -> np.ndarray:
    """``read_data_file``'s line parser, the one that names the line at fault."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read data file {path}: {err}") from None
    lines = text.splitlines()
    # float() ignores the whitespace str.strip() removes, but for U+001F
    if "#" in text or "\x1f" in text:
        lines = [line.split("#", 1)[0].strip() for line in lines]
    try:
        data = np.fromiter(map(float, filter(str.strip, lines)), dtype=float)
    except ValueError:  # the line at fault is looked for only on failure
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            try:
                float(line or "0")
            except ValueError:
                raise DataError(f"{path}:{lineno}: could not parse {line!r} as a number") from None
        raise
    finite = np.isfinite(data)
    if not finite.all():
        index = int(np.argmin(finite))
        lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][index]
        raise DataError(f"{path}:{lineno}: value {float(data[index])!r} is not finite")
    if data.size < 2:
        raise DataError(f"{path}: need at least 2 observations, found {data.size}")
    return data


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _write(path: str, text: str | None) -> None:
    """Write ``text`` to the output ``path``; with ``text`` None, only check
    that ``path`` can be written, so that an output that cannot be written
    fails before the run.

    A new output, or a regular file of this user's with one link in a folder
    this user may write, is written to a file beside it (beside a symlink's
    target) that is renamed over it with its mode, so that it keeps an
    earlier output until the whole document is written.  Any other output (a
    device such as ``/dev/stdout``, a FIFO, a file of another user's or with
    more links) is written in place, as a rename would replace it."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    except OSError as err:
        raise UsageError(f"cannot write output file {path}: {err}") from None
    if st is not None and stat.S_ISDIR(st.st_mode):
        raise UsageError(f"cannot write output file {path}: it is a directory")
    if st is not None and not os.access(path, os.W_OK):
        raise UsageError(f"cannot write output file {path}: permission denied")
    folder, name = os.path.split(os.path.realpath(path))
    renamed = st is None or (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and st.st_uid == getattr(os, "geteuid", lambda: st.st_uid)()
        and os.access(folder, os.W_OK)
    )
    if text is None and not renamed:
        return
    temp = os.path.join(folder, f".{name}.{os.getpid()}.tmp") if renamed else path
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text or "")
        if text is None:
            os.remove(temp)
        elif renamed:
            if st is not None:
                os.chmod(temp, stat.S_IMODE(st.st_mode))
            os.replace(temp, os.path.join(folder, name))
    except OSError as err:
        if renamed and os.path.exists(temp):
            os.remove(temp)
        raise UsageError(f"cannot write output file {path}: {err}") from None


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {args.config}: {err}") from None
    groups = parse_config(text, args.config, seed_override=args.seed)
    _write(args.out, None)

    all_rows = []
    # one process pool runs every group's scenarios
    done = iter(run_experiments([spec for _, specs in groups for spec in specs], args.threads))
    for label, specs in groups:
        results = [next(done) for _ in specs]
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
        all_rows.extend(doc.rows)

    combined = TableDocument("simulation", doc.columns, all_rows)  # as in every group
    _write(args.out, combined.to_csv() if args.format == "csv" else combined.to_json())
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
        print(_strict_json(payload))
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
    if estimator is EstimatorId.HILL and args.k is None:
        raise UsageError("--method hill needs an exceedance count --k")
    data = read_data_file(args.data)
    extra: dict = {}

    if args.k is not None:
        if args.k >= data.size:
            raise UsageError(f"--k must satisfy 1 <= k < n = {data.size}")
        try:
            result = pot_estimate(data, PotConfig(args.k, (estimator,)))
        except ValueError as err:  # ties at the threshold leave < 2 exceedances
            raise DataError(str(err)) from None
        extra = {"k": args.k, "threshold": result.threshold}
        outcome = result.fits.get(estimator) or result.failures[estimator]
        base, fits_excesses = result.threshold, estimator is not EstimatorId.HILL
    else:
        # excess-over-minimum recipe: fit on the strictly positive excesses,
        # Pareto ML and the transforms on the full sample
        mu_hat = float(data.min())
        with np.errstate(over="ignore"):  # an overflow is reported below
            z = data[data > mu_hat] - mu_hat
        if estimator is not EstimatorId.PARETO_ML:
            if z.size < 2:
                raise DataError("need at least 2 observations above the smallest one")
            extra = {"support_estimate": mu_hat}
        outcome = fit_all(data, mu_hat, z, (estimator,))[estimator]
        base, fits_excesses = mu_hat, estimator is not EstimatorId.PARETO_ML
    if fits_excesses and float(data.max()) - base == math.inf:  # the largest excess
        raise EstimationError(f"the excesses over {base!r} overflow to inf")
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
        values = (gpd_quantile_via_transform(spec, alpha, p) for p in probs)
    else:
        if not all(direct):
            raise UsageError("quantile needs either --fit PATH or all of --mu --sigma --xi")
        try:
            params = GpdParams(args.mu, args.sigma, args.xi)
        except ValueError as err:
            raise UsageError(str(err)) from None
        values = (gpd_quantile(params, p) for p in probs)
    # the generators run here; a quantile that is not finite fails below
    with np.errstate(all="ignore"):
        values = [float(x) for x in values]
    for p, x in zip(probs, values):
        if not math.isfinite(x):
            raise EstimationError(f"the quantile at p={p!r} is not finite: {x!r}")
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
    est.add_argument("--k", type=_positive_int, help="exceedance count for POT estimation")
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
    except UsageError as err:
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
