"""Tests for the ``simulate`` config reader: an oracle against a copy of the
earlier parser, and the README's config and command-line documentation."""

import random
import re
from dataclasses import dataclass
from pathlib import Path

from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from tailshape import (
    DEFAULT_SEED,
    EstimatorId,
    ExperimentSpec,
    GpdParams,
    GpdParetoSource,
    GpdSource,
    StableSource,
    StudentTSource,
    table_specs,
)
from tailshape import cli
from tailshape.cli import _METHODS, UsageError, parse_config

# ---------------------------------------------------------------------------
# Reference: the parser as it was before each value was read in one place,
# with its own error class
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    pass


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


def reference_parse_config(text: str, path: str, seed_override: int | None = None):
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
# Oracle
# ---------------------------------------------------------------------------

# values of each key: ones of its type, then ones out of range or of another
# type
_VALUES = {
    "source": (["gpd", "gpd-pareto", "student-t", "stable", "GPD", "Student-T"], ["normal"]),
    "mu": (["1", "0.5", "2e0"], ["0", "-1", "nan", "inf", "one"]),
    "sigma": (["1", "2", "0.25"], ["0", "-1", "x"]),
    "xi": (["0.5", "1", "0.1"], ["0", "-0.2", "inf", "x"]),
    "df": (["3", "1.5", "5"], ["0", "-1", "nan", "x"]),
    "index": (["1.5", "2", "1"], ["2.5", "0", "x"]),
    "n": (["50", "10", "2"], ["1", "0", "5.0", "x"]),
    "m": (["3", "1", "1000"], ["0", "-2", "1e3", "x"]),
    "k": (["5", "1", "9"], ["10", "0", "x"]),
    "seed": (["0", "7", "18446744073709551615"], ["-1", "18446744073709551616", "s", "1.5"]),
    "rounds": (["0", "2", "1"], ["-1", "r"]),
    "estimators": (["zs", "zs,pwm", "mle, transformed-zs", "hill"], ["zs,,pwm", "ZS", "bogus"]),
    "fold": (["true", "false", "TRUE", "False"], ["yes"]),
    "name": (["table1", "table4", "Table8"], ["table9", "x"]),
}
_SOURCE_PARAMS = {
    "gpd": ["mu", "sigma", "xi"],
    "gpd-pareto": ["mu", "xi"],
    "student-t": ["df"],
    "stable": ["index"],
}
# each config breaks the rules of a subset of these
_FAULTS = ["values", "keys", "params", "lines", "sections"]


@st.composite
def _entry(draw, keys, faults):
    """One ``key = value`` line of a key of ``keys``, spelled in one of a few
    ways; with the faults "keys" it may be any key, with "values" a value out
    of range or of another type, with "lines" a line without '=' or value."""
    key = draw(st.sampled_from([*keys, *keys, *_VALUES, "bogus"] if "keys" in faults else keys))
    valid, invalid = _VALUES.get(key, (["1"], ["x"]))
    pool = draw(st.sampled_from([valid, invalid])) if "values" in faults else valid
    value = draw(st.sampled_from(pool))
    forms = ["{} = {}", "  {}={}  ", "{} = {}  # note"]
    if "lines" in faults:
        forms += ["{} {}", "{} = "]
    form = draw(st.sampled_from(forms))
    return form.format(key.upper() if form.startswith(" ") else key, value)


@st.composite
def _scenario(draw, faults):
    """A ``[scenario]`` block: a source with its parameters, a sample size
    and optional keys; with the fault "params" parameters of other sources,
    with "lines" a required line may be missing."""
    source = draw(st.sampled_from(list(_SOURCE_PARAMS)))
    keys = [*_SOURCE_PARAMS[source], "n"]
    lines = [f"source = {source}"]
    lines += [f"{key} = {draw(st.sampled_from(_VALUES[key][0]))}" for key in keys]
    if "lines" in faults:
        lines = [line for line in lines if draw(st.sampled_from([True, True, True, False]))]
    optional = ["m", "k", "seed", "rounds", "estimators", "fold", *_SOURCE_PARAMS[source]]
    if "params" in faults:
        optional += [key for keys in _SOURCE_PARAMS.values() for key in keys]
    lines += draw(st.lists(_entry(optional, faults), max_size=5))
    return ["[scenario]", *draw(st.permutations(lines))]


@st.composite
def _table(draw, faults):
    lines = [f"name = {draw(st.sampled_from(_VALUES['name'][0]))}"]
    lines += draw(st.lists(_entry(["m", "seed"], faults), max_size=3))
    return ["[table]", *draw(st.permutations(lines))]


@st.composite
def configs(draw):
    """Config text: global keys, then scenario and table blocks, with
    comments and blank lines; with the fault "sections" also bad or empty
    section headers."""
    faults = draw(st.sets(st.sampled_from(_FAULTS)))
    lines = draw(st.lists(_entry(["seed", "m", "rounds", "estimators"], faults), max_size=4))
    sections = st.one_of(_scenario(faults), _table(faults))
    for block in draw(st.lists(sections, min_size=1, max_size=3)):
        lines += block
    extras = ["", "# comment"]
    if "sections" in faults:
        extras += ["[Scenario]", "[bogus]", "[table]", "[scenario]", "n = 5 = 6"]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


def _outcome(parse, text, seed_override):
    try:
        return repr(parse(text, "run.cfg", seed_override))
    except (UsageError, ConfigError) as err:
        return f"error: {err}"


class TestParseConfigOracle:
    @settings(max_examples=600, deadline=None)
    @given(configs(), st.sampled_from([None, None, 0, 5, -1, 2**64 - 1]))
    # several faults in one section: the one read first is reported
    @example("[table]\nname = table1\nseed = s\nm = x\n", None)
    @example("[scenario]\nsource = student-t\ndf = 3\nindex = 1\nmu = 1\nn = 5\n", None)
    @example("[scenario]\nsource = gpd\nmu = 1\nsigma = x\nxi = y\nn = 5\n", None)
    @example("[scenario]\nsource = stable\nindex = 1\nrounds = r\nn = x\nfold = no\n", None)
    @example("seed = s\nm = x\n[scenario]\nsource = stable\nindex = 1\nn = 5\nseed = t\n", 3)
    def test_equal_to_the_reference_parser(self, text, seed_override):
        # equal spec groups, or the same message naming the same line
        want = _outcome(reference_parse_config, text, seed_override)
        assert _outcome(parse_config, text, seed_override) == want

    def test_generator_reaches_specs(self):
        # the oracle's configs are not all errors: some parse into a scenario
        # and a table
        def both_kinds(text):
            outcome = _outcome(reference_parse_config, text, None)
            return "GpdSource" in outcome and "'table" in outcome

        # a fixed seed: whether a random search reaches one is not left to chance
        find(configs(), both_kinds, settings=settings(database=None), random=random.Random(0))


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_table(header):
    """The README table under ``header``: its first column mapped to the
    backticked names of its second."""
    lines = README.splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        first, second = line.strip("|").split("|")
        rows[first.strip().strip("`")] = re.findall(r"`([^`]+)`", second)
    return rows


class TestReadmeMatchesCli:
    def test_sources(self):
        table = _readme_table("| `source` | Parameters |")
        assert table == {name: list(family.keys) for name, family in cli._SOURCES.items()}
        example = re.search(r"^source = \w+ +# (.*)$", README, re.M).group(1)
        assert example.split(" | ") == list(cli._SOURCES)

    def test_config_keys(self):
        scopes = _readme_table("| Scope | Keys |")
        params = {key for family in cli._SOURCES.values() for key in family.keys}
        assert set(scopes["global"]) == cli._GLOBAL_KEYS
        assert set(scopes["[scenario]"]) | params | cli._GLOBAL_KEYS == cli._SCENARIO_KEYS
        assert set(scopes["[table]"]) == cli._TABLE_KEYS

    def test_example_config_parses(self):
        example = re.search(r"```ini\n(.*?)```", README, re.S).group(1)
        assert [label for label, _ in parse_config(example, "README.md")] == [
            "table1", "scenario2"
        ]

    def test_methods(self):
        usage = re.search(r"--method (.*?) \[--k", README, re.S).group(1)
        assert re.sub(r"\s+", "", usage).split("|") == list(cli._METHODS)
