"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import csv
import gzip
import io
import json
import math
import os
import stat
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailshape import (
    GpdParams,
    ParetoParams,
    RngStream,
    pareto_quantile,
    sample_gpd,
    sample_pareto,
)
from tailshape.cli import _METHODS, _SOURCES, DataError, main, read_data_file


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def pareto_grid_file(tmp_path):
    # quantile grid of a unit-scale, unit-index Pareto distribution
    probs = (np.arange(1000) + 0.5) / 1000
    values = pareto_quantile(ParetoParams(1.0, 1.0), probs)
    return write(tmp_path / "pareto.dat", "\n".join(repr(float(v)) for v in values) + "\n")


@pytest.fixture()
def gpd_file(tmp_path):
    x = sample_gpd(GpdParams(1.0, 1.0, 0.5), 400, RngStream(61, 0))
    return write(
        tmp_path / "gpd.dat", "# sampled data\n" + "\n".join(repr(float(v)) for v in x) + "\n"
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def parse_kv(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


class TestEstimate:
    def test_pareto_ml_on_quantile_grid(self, capsys, pareto_grid_file):
        code, out, _ = run(capsys, "estimate", "--data", pareto_grid_file, "--method", "pareto-ml")
        assert code == 0
        values = parse_kv(out)
        assert float(values["xi_hat"]) == pytest.approx(1.0, abs=0.05)
        assert float(values["mu_hat"]) >= 1.0

    @pytest.mark.parametrize("method", ["zs", "pwm", "mle", "transformed-zs", "transformed-pwm"])
    def test_excess_methods(self, capsys, gpd_file, method):
        code, out, _ = run(capsys, "estimate", "--data", gpd_file, "--method", method)
        assert code == 0
        values = parse_kv(out)
        assert float(values["xi_hat"]) == pytest.approx(0.5, abs=0.3)
        assert "support_estimate" in values

    def test_hill_needs_k(self, capsys, gpd_file):
        code, _, err = run(capsys, "estimate", "--data", gpd_file, "--method", "hill")
        assert code == 1
        assert "--k" in err

    @pytest.mark.parametrize(
        "extra",
        [["--method", "hill"], ["--method", "zs", "--k", "0"], ["--method", "hill", "--k", "-3"]],
    )
    def test_usage_errors_before_reading(self, capsys, tmp_path, extra):
        # a missing file would be a data error (exit 2): the flags are checked first
        code, _, err = run(capsys, "estimate", "--data", str(tmp_path / "missing.dat"), *extra)
        assert code == 1
        assert "--k" in err

    def test_k_not_below_n_is_usage_error(self, capsys, gpd_file):
        code, _, err = run(capsys, "estimate", "--data", gpd_file, "--method", "zs", "--k", "400")
        assert code == 1
        assert "--k must satisfy 1 <= k < n = 400" in err

    def test_pot_path(self, capsys, gpd_file):
        code, out, _ = run(
            capsys, "estimate", "--data", gpd_file, "--method", "hill", "--k", "100"
        )
        assert code == 0
        values = parse_kv(out)
        assert "threshold" in values
        assert float(values["xi_hat"]) > 0

    def test_single_line_file_is_data_error(self, capsys, tmp_path):
        path = write(tmp_path / "one.dat", "1.25\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", "zs")
        assert code == 2
        assert "at least 2" in err

    def test_bad_line_reported_with_number(self, capsys, tmp_path):
        path = write(tmp_path / "bad.dat", "1.0\n2.0\n3.0\n4.0\n5.0\n6.0\nabc\n8.0\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", "zs")
        assert code == 2
        assert ":7:" in err and "abc" in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_line_reported_with_number(self, capsys, tmp_path, token):
        path = write(tmp_path / "nf.dat", f"1.0\n2.0\n# note\n{token}\n5.0\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", "zs")
        assert code == 2
        assert f"{path}:4:" in err and "finite" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", "--data", str(tmp_path / "nope"), "--method", "zs")
        assert code == 2

    @pytest.mark.parametrize("method", ["zs", "hill", "transformed-zs"])
    def test_too_few_exceedances_is_data_error(self, capsys, tmp_path, method):
        # ties at the threshold leave no exceedance; same exit code as without --k
        path = write(tmp_path / "ties.dat", "2\n2\n2\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", method, "--k", "2")
        assert code == 2
        assert "exceedances" in err

    def test_undecodable_data_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.dat"
        path.write_bytes(b"1.0\n\xff2.0\n3.0\n")
        code, _, err = run(capsys, "estimate", "--data", str(path), "--method", "zs")
        assert code == 2
        assert str(path) in err

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        path = write(tmp_path / "neg.dat", "-1.0\n2.0\n3.0\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", "pareto-ml")
        assert code == 3

    @pytest.mark.parametrize("method, k, message", [
        ("zs", None, "the excesses over -1.7e+308 overflow to inf"),
        ("transformed-zs", None, "the excesses over -1.7e+308 overflow to inf"),
        ("mle", "2", "the excesses over -1.7e+308 overflow to inf"),
        ("pareto-ml", None, "Pareto ML requires strictly positive observations"),
        ("hill", "2", "Hill estimator needs a positive threshold X_(n-k)"),
    ])
    def test_excesses_that_overflow(self, capsys, tmp_path, method, k, message):
        # every value is finite, but 1.7e308 - (-1.7e308) is not; stderr holds
        # the one error line and no NumPy warning
        path = write(tmp_path / "wide.dat", "1.7e308\n-1.7e308\n1.0\n")
        argv = ["estimate", "--data", path, "--method", method] + (["--k", k] if k else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert (code, out, err, caught) == (3, "", f"error: {message}\n", [])

    def test_json_output(self, capsys, gpd_file):
        code, out, _ = run(
            capsys, "estimate", "--data", gpd_file, "--method", "zs", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "zhang_stephens"
        assert payload["sigma_hat"] > 0
        assert payload["mu_hat"] == payload["support_estimate"]

    def test_json_writes_an_infinite_alpha_as_null(self, capsys, tmp_path):
        # xi_hat = 0, so 1/xi_hat is infinite
        path = write(tmp_path / "d.dat", "0.001\n2.0\n5.0\n0.001\n")
        argv = ["estimate", "--data", path, "--method", "transformed-zs", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = strict_json(out)
        assert payload["xi_hat"] == 0.0
        assert payload["diagnostics"]["alpha_transformed"] is None
        fit_path = write(tmp_path / "fit.json", out)
        code, out, _ = run(capsys, "quantile", "--fit", fit_path, "--p", "0.5")
        assert (code, out) == (2, "")

    def test_json_fit_feeds_quantile(self, capsys, gpd_file, tmp_path):
        code, out, _ = run(
            capsys, "estimate", "--data", gpd_file, "--method", "zs", "--json"
        )
        assert code == 0
        fit_path = write(tmp_path / "fit.json", out)
        code, out, _ = run(capsys, "quantile", "--fit", fit_path, "--p", "0.5,0.99")
        assert code == 0
        x50, x99 = (float(line.split("x=")[1]) for line in out.strip().splitlines())
        assert 1.0 < x50 < x99

    def test_transform_differs_from_initial(self, capsys, gpd_file):
        code, out, _ = run(
            capsys, "estimate", "--data", gpd_file, "--method", "transformed-zs"
        )
        assert code == 0
        values = parse_kv(out)
        assert float(values["xi_hat"]) != float(values["initial_xi"])


def loop_read_data_file(path):
    """The per-line loop read_data_file ran before its bulk parse: the oracle."""
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
        index = int(np.argmin(finite))
        lineno = [
            n for n, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].strip()
        ][index]
        raise DataError(f"{path}:{lineno}: value {float(data[index])!r} is not finite")
    if data.size < 2:
        raise DataError(f"{path}: need at least 2 observations, found {data.size}")
    return data


# tokens float() reads, including the forms a bulk parse could read differently
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(
        ["-0.0", "1e308", "5e-324", "2.2e-310", " +1.5e3 ", "1_000", "\u0661\u0662.\u0665"]
    ),
)
_BAD = st.sampled_from(
    ["abc", "1 2", "1e", "--1", "0x10", "1,5", "\x00", "\ufeff", "1d5", "1;2"]
)
_NON_FINITE = st.sampled_from(["nan", "inf", "-Infinity"])
_PADDING = st.sampled_from(["", " ", "\t", " \t ", "\u3000", "\xa0", "\x1f"])
_BREAKS = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
_COMMENTS = st.text(alphabet="# 1.5e-a\t", max_size=6).map(lambda body: "#" + body)
# finite values numpy's C reader reads, on lines it ends
_PLAIN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**300), 10**300).map(str),
    st.sampled_from(["-0.0", "1e308", "5e-324", "2.2e-310", "+1.5e3", ".5", "5.", "1E-5"]),
)
_PLAIN_BREAKS = st.sampled_from(["\n", "\r\n", "\r"])
_PLAIN_PADDING = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def data_texts(draw):
    """Texts of data files.  A third are plain ASCII values and blank lines,
    which numpy's C reader reads; the rest have values, blank and comment lines,
    trailing comments and, in about half of them, lines that do not parse or
    are not finite."""
    plain = draw(st.integers(0, 2)) == 0
    if plain:
        tokens = [_PLAIN, _PLAIN, _PLAIN, st.just("")]
        breaks, padding = _PLAIN_BREAKS, _PLAIN_PADDING
    else:
        tokens = [_VALUES, _VALUES, _VALUES, st.just(""), _COMMENTS]
        breaks, padding = _BREAKS, _PADDING
        if draw(st.booleans()):
            tokens += [_BAD, _NON_FINITE]
    text = ""
    for token in draw(st.lists(st.sampled_from(tokens), max_size=12)):
        line = draw(padding) + draw(token) + draw(padding)
        if not plain and draw(st.integers(0, 3)) == 0:
            line += draw(_COMMENTS)
        text += line + draw(breaks)
    return text + draw(st.sampled_from(["", "7.5"]))


class TestReadDataFile:
    # about 500 examples for the two thirds of texts that are not plain
    @settings(max_examples=750, deadline=None)
    @given(data_texts())
    @example("nan\n1\n# x\n\x1f2 \r\nabc\n")  # a later parse error wins over a non-finite value
    def test_equal_to_per_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "read_data_file.dat"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)

        def outcome(parse):
            try:
                data = parse(str(path))
            except DataError as err:
                return "error", str(err)
            return data.dtype, data.tobytes()

        assert outcome(read_data_file) == outcome(loop_read_data_file)

    @pytest.fixture()
    def loadtxt_calls(self, monkeypatch):
        """The paths np.loadtxt is called with.  A path that is not absolute
        fails before np.loadtxt could take it for a URL."""
        calls = []
        loadtxt = np.loadtxt

        def spy(path, **kwargs):
            assert os.path.isabs(path), path
            calls.append(path)
            return loadtxt(path, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.fixture()
    def numpy_only(self, monkeypatch, loadtxt_calls):
        """``loadtxt_calls``, where the line parser may not run."""

        def line_parser(path):
            raise AssertionError(f"the line parser ran on {path}")

        monkeypatch.setattr("tailshape.cli._parse_lines", line_parser)
        return loadtxt_calls

    def test_plain_file_is_read_by_numpy_alone(self, tmp_path, numpy_only):
        path = write(tmp_path / "plain.dat", "1.5\n-0.0\r\n2.2e-310\n\n \t3 \r1e308\n")
        want = loop_read_data_file(path)
        assert read_data_file(path).tobytes() == want.tobytes()
        assert numpy_only == [os.path.abspath(path)]

    @pytest.mark.parametrize(
        "last_lines",
        ["# end\n", "2.5  # note\n", "1_000\n", "2.5\u20283\n", "\u0662.5\n", "\xa02.5\n"],
        ids=["comment", "inline-comment", "underscore", "unicode-break", "arabic-digit", "nbsp"],
    )
    def test_file_the_line_parser_reads_skips_numpy(self, tmp_path, loadtxt_calls, last_lines):
        # numpy's C reader would read every value before failing on the last lines
        path = write(tmp_path / "late.dat", "1.5\n" * 100 + last_lines)
        assert read_data_file(path).tobytes() == loop_read_data_file(path).tobytes()
        assert loadtxt_calls == []

    @pytest.mark.parametrize("name", ["x.gz", "x.BZ2", "x.xz", "x.lzma"])
    def test_compressed_suffix_skips_numpy(self, tmp_path, loadtxt_calls, name):
        # numpy would try to decompress it
        path = write(tmp_path / name, "1.5\n2.5\n")
        assert read_data_file(path).tolist() == [1.5, 2.5]
        assert loadtxt_calls == []

    def test_fifo_is_read_once_by_the_line_parser(self, tmp_path, loadtxt_calls):
        path = tmp_path / "data.fifo"
        os.mkfifo(path)
        result = []
        reader = threading.Thread(target=lambda: result.append(read_data_file(str(path))))
        reader.start()
        with open(path, "w") as fifo:
            fifo.write("1.5\n2.5\n")
        reader.join(timeout=10)
        while reader.is_alive():  # a second open of the FIFO waits for a writer
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=1)
        assert [data.tolist() for data in result] == [[1.5, 2.5]]
        assert loadtxt_calls == []

    def test_url_like_relative_path_reads_the_local_file(self, tmp_path, monkeypatch, numpy_only):
        folder = tmp_path / "http:" / "host"
        folder.mkdir(parents=True)
        write(folder / "x", "1.5\n2.5\n")
        monkeypatch.chdir(tmp_path)
        assert read_data_file("http://host/x").tolist() == [1.5, 2.5]
        assert numpy_only == [str(folder / "x")]

    @pytest.mark.parametrize(
        "name, files, reason",
        [
            # numpy would decompress it; the line parser fails to decode it
            ("x.gz", {"x.gz": gzip.compress(b"1.5\n2.5\n")}, "codec can't decode"),
            # numpy would read x.gz in place of a missing x
            ("x", {"x.gz": gzip.compress(b"1.5\n2.5\n")}, "No such file or directory"),
            # numpy, with ndmin=1, would read one line of two values as two values
            ("pair.dat", {"pair.dat": b"1 2"}, "could not parse '1 2' as a number"),
            # numpy reads two columns
            ("pairs.dat", {"pairs.dat": b"1 2\n3 4\n"}, "could not parse '1 2' as a number"),
        ],
        ids=["compressed", "missing-beside-compressed", "one-line-pair", "two-columns"],
    )
    def test_same_data_error_as_the_line_parser(self, capsys, tmp_path, name, files, reason):
        for file_name, content in files.items():
            (tmp_path / file_name).write_bytes(content)
        path = str(tmp_path / name)
        with pytest.raises(DataError) as want:
            loop_read_data_file(path)
        assert reason in str(want.value)
        code, out, err = run(capsys, "estimate", "--data", path, "--method", "zs")
        assert (code, out, err) == (2, "", f"error: {want.value}\n")

    def test_messy_formatting_prints_the_same_fits(self, capsys, tmp_path):
        x = sample_gpd(GpdParams(1.0, 1.0, 0.5), 200, RngStream(61, 0))
        values = [repr(float(v)) for v in x]
        clean = write(tmp_path / "clean.dat", "\n".join(values) + "\n")
        lines = ["# a header", "#", ""]
        for i, value in enumerate(values):
            pad = ("\t", " ", "  \t ")[i % 3]
            lines.append(pad + value + pad[::-1] + ("  # trailing note" if i % 5 == 0 else ""))
            if i % 7 == 0:
                lines.append(" \t ")
        messy = tmp_path / "messy.dat"
        with open(messy, "w", encoding="utf-8", newline="") as handle:
            handle.write("\r\n".join(lines[:50]) + "\u2028" + "\r\n".join(lines[50:]) + "\r\n")
        for method in ESTIMATE_PIN_METHODS:
            for extra in ([], ["--k", "20"]):
                argv = ["estimate", "--method", method, "--json", *extra]
                want = run(capsys, *argv, "--data", clean)[:2]
                assert run(capsys, *argv, "--data", str(messy))[:2] == want
                assert want[0] == (1 if method == "hill" and not extra else 0)


class TestQuantile:
    def test_direct(self, capsys):
        code, out, _ = run(
            capsys, "quantile", "--mu", "0", "--sigma", "1", "--xi", "1", "--p", "0.5"
        )
        assert code == 0
        assert float(out.split("x=")[1]) == pytest.approx(1.0, rel=1e-12)

    def test_transform_path_identity_median(self, capsys, tmp_path):
        fit = {"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 1.0, "alpha_transformed": 1.0}
        path = write(tmp_path / "fit.json", json.dumps(fit))
        code, out, _ = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 0
        assert float(out.split("x=")[1]) == pytest.approx(2.0, rel=1e-12)

    def test_paths_agree_on_consistent_parameters(self, capsys, tmp_path):
        code, out_direct, _ = run(
            capsys, "quantile", "--mu", "1", "--sigma", "2", "--xi", "0.5", "--p", "0.9,0.99"
        )
        fit = {"mu_hat": 1.0, "sigma_hat": 2.0, "xi_hat": 0.5, "alpha_transformed": 2.0}
        path = write(tmp_path / "fit.json", json.dumps(fit))
        code2, out_fit, _ = run(capsys, "quantile", "--fit", path, "--p", "0.9,0.99")
        assert code == code2 == 0
        direct = [float(line.split("x=")[1]) for line in out_direct.strip().splitlines()]
        via = [float(line.split("x=")[1]) for line in out_fit.strip().splitlines()]
        assert direct == pytest.approx(via, rel=1e-9)

    @pytest.mark.parametrize("fit, p", [(False, "0.99"), (False, "0.5,0.99"), (True, "0.5")])
    def test_a_quantile_that_overflows_is_a_numerical_failure(self, capsys, tmp_path, fit, p):
        # at p = 0.5 the direct quantile is finite, at 0.99 it is not; nothing
        # is printed but the one error line
        params = {"mu_hat": 1e300, "sigma_hat": 1e300, "xi_hat": 5.0, "alpha_transformed": 0.2}
        if fit:
            argv = ["--fit", write(tmp_path / "fit.json", json.dumps(params))]
        else:
            argv = ["--mu=1e300", "--sigma=1e300", "--xi=5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantile", *argv, "--p", p)
        at = "0.5" if fit else "0.99"
        assert (code, out, err, caught) == (
            3, "", f"error: the quantile at p={at} is not finite: inf\n", []
        )

    def test_usage_errors(self, capsys, tmp_path):
        code, _, _ = run(capsys, "quantile", "--mu", "1", "--p", "0.5")
        assert code == 1
        code, _, _ = run(
            capsys, "quantile", "--mu", "0", "--sigma", "1", "--xi", "1", "--p", "1.5"
        )
        assert code == 1
        code, _, _ = run(
            capsys, "quantile", "--mu", "0", "--sigma", "-1", "--xi", "1", "--p", "0.5"
        )
        assert code == 1

    @pytest.mark.parametrize("probs, message", [
        (",", "--p needs at least one probability"),
        ("abc", "could not parse probability 'abc'"),
    ])
    def test_unreadable_probabilities_are_usage_errors(self, capsys, probs, message):
        code, out, err = run(
            capsys, "quantile", "--mu", "0", "--sigma", "1", "--xi", "1", "--p", probs
        )
        assert code == 1
        assert out == ""
        assert message in err

    def test_fit_with_direct_parameters_is_usage_error(self, capsys, tmp_path):
        fit = {"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 0.5}
        path = write(tmp_path / "fit.json", json.dumps(fit))
        code, _, err = run(capsys, "quantile", "--fit", path, "--mu", "1", "--p", "0.5")
        assert code == 1
        assert "--fit and direct --mu/--sigma/--xi are mutually exclusive" in err

    def test_bad_fit_file_is_data_error(self, capsys, tmp_path):
        path = write(tmp_path / "fit.json", "{not json")
        code, _, _ = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2

    def test_undecodable_fit_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "fit.json"
        path.write_bytes(b'{"mu_hat": 1\xff}')
        code, _, err = run(capsys, "quantile", "--fit", str(path), "--p", "0.5")
        assert code == 2
        assert str(path) in err

    def test_unknown_form_in_fit_file_is_data_error(self, capsys, tmp_path):
        path = write(
            tmp_path / "fit.json",
            json.dumps({"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 0.5, "form": "bogus"}),
        )
        code, _, err = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2
        assert path in err and "bogus" in err

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"alpha_transformed": -1}, "alpha_transformed"),
            ({"alpha_transformed": "x"}, "alpha_transformed"),
            ({"xi_hat": -0.5, "alpha_transformed": 2.0}, "xi_hat"),
        ],
        ids=["negative-alpha", "text-alpha", "negative-xi-with-alpha"],
    )
    def test_invalid_fit_values_are_data_errors(self, capsys, tmp_path, fields, reason):
        fit = {"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 0.5, **fields}
        path = write(tmp_path / "fit.json", json.dumps(fit))
        code, out, err = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2
        assert out == ""
        assert path in err and reason in err

    @pytest.mark.parametrize("fit, reason", [
        ({"mu_hat": 1.0, "sigma_hat": 1.0}, "fit file needs numeric mu_hat, sigma_hat and xi_hat"),
        (
            {"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 0.0},
            "cannot derive alpha_transformed from xi_hat = 0.0",
        ),
    ], ids=["no-xi", "zero-xi-without-alpha"])
    def test_fit_file_without_a_usable_shape_is_data_error(self, capsys, tmp_path, fit, reason):
        path = write(tmp_path / "fit.json", json.dumps(fit))
        code, out, err = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2
        assert out == ""
        assert f"{path}: {reason}" in err

    # every fit that succeeds should give its quantile; these fit files lack
    # a numeric mu_hat or sigma_hat (zs, mle and pwm without --k do feed it)
    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="ROADMAP item 11: quantile --fit reads few fit files",
    )
    @pytest.mark.parametrize(
        "method, k",
        [("transformed-zs", None), ("transformed-pwm", None), ("pareto-ml", None)]
        + [(m, "50") for m in ("zs", "mle", "pwm", "transformed-zs", "hill", "pareto-ml")],
    )
    def test_every_fit_file_feeds_quantile(self, capsys, tmp_path, method, k):
        x = sample_pareto(ParetoParams(1.0, 2.0), 400, RngStream(62, 0))
        data = write(tmp_path / "pareto.dat", "\n".join(repr(float(v)) for v in x) + "\n")
        argv = ["estimate", "--data", data, "--method", method, "--json"]
        code, out, _ = run(capsys, *argv, *(["--k", k] if k else []))
        assert code == 0
        fit = write(tmp_path / "fit.json", out)
        code, out, err = run(capsys, "quantile", "--fit", fit, "--p", "0.99")
        assert (code, err) == (0, "")
        (line,) = out.strip().splitlines()
        assert math.isfinite(float(line.split("x=")[1]))


SCENARIO_CONFIG = """\
# one small scenario
seed = 17

[scenario]
source = gpd
mu = 1.0
sigma = 1.0
xi = 0.5
n = 50
m = 5
"""


class TestSimulate:
    def test_scenario_run_writes_deterministic_csv(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        code1, _, _ = run(capsys, "simulate", "--config", config, "--out", out1)
        code2, _, _ = run(capsys, "simulate", "--config", config, "--out", out2)
        assert code1 == code2 == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_threads_do_not_change_output(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG.replace("m = 5", "m = 12"))
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(capsys, "simulate", "--config", config, "--out", out1, "--threads", "1")
        run(capsys, "simulate", "--config", config, "--out", out2, "--threads", "2")
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_threads_is_usage_error(self, capsys, tmp_path, threads):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = tmp_path / "a.csv"
        code, _, err = run(
            capsys, "simulate", "--config", config, "--out", str(out), "--threads", threads
        )
        assert code == 1
        assert "--threads" in err
        assert not out.exists()

    def test_json_format(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = tmp_path / "a.json"
        code, _, _ = run(
            capsys, "simulate", "--config", config, "--out", str(out), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 4

    def test_json_writes_a_cell_without_estimates_as_null(self, capsys, tmp_path):
        # a negative support bound defeats both transforms in every replication
        text = "m = 5\n[scenario]\nsource = gpd\nmu = -1\nsigma = 1\nxi = 0.5\nn = 50\n"
        config = write(tmp_path / "neg.cfg", text)
        for fmt in ("json", "csv"):
            argv = ["--config", config, "--out", str(tmp_path / f"o.{fmt}"), "--format", fmt]
            assert run(capsys, "simulate", *argv)[0] == 0
        rows = strict_json((tmp_path / "o.json").read_text())["rows"]
        failed = [row for row in rows if row["failures"] == 5]
        assert [row["estimator"] for row in failed] == ["transformed_zs", "transformed_pwm"]
        assert all(row["mse"] is None and row["bias"] is None for row in failed)
        csv_rows = list(csv.DictReader(io.StringIO((tmp_path / "o.csv").read_text())))
        assert [row["mse"] for row in csv_rows if row["failures"] == "5"] == ["nan", "nan"]

    def test_pot_scenario_with_fold(self, capsys, tmp_path):
        config = write(
            tmp_path / "run.cfg",
            "[scenario]\nsource = student-t\ndf = 3\nn = 500\nm = 3\nk = 50\nfold = true\n",
        )
        out = tmp_path / "pot.csv"
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == 0
        assert "student_t" in out.read_text()

    def test_table_block(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", "[table]\nname = table1\nm = 2\n")
        out = tmp_path / "t1.csv"
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == 0
        raw = out.read_bytes()
        assert raw.count(b"\r\n") == 61  # header plus 15 cells x 4 estimators

    def test_mostly_failing_estimator_is_named_on_stderr(self, capsys, tmp_path):
        # a negative support bound defeats both transforms in every replication
        text = "m = 50\n[scenario]\nsource = gpd\nmu = {mu}\nsigma = 1\nxi = 0.5\nn = 50\n"
        config = write(tmp_path / "neg.cfg", text.format(mu=-1))
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "o"))
        assert code == 0
        assert err.splitlines() == [
            f"warning: scenario1 cell 1 (n=50, xi=0.5): {estimator} failed in 50 of 50 "
            "replications (support_nonpositive: 50)"
            for estimator in ("transformed_zs", "transformed_pwm")
        ]
        config = write(tmp_path / "pos.cfg", text.format(mu=1))
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")

    # every source family: its config name, valid parameters and the CSV name
    # its rows carry, which the shipped tables' source column fixes
    SOURCE_NAMES = {
        "gpd": ("mu = 1\nsigma = 2\nxi = 0.5", "gpd"),
        "gpd-pareto": ("mu = 1\nxi = 0.5", "gpd_pareto"),
        "student-t": ("df = 3", "student_t"),
        "stable": ("index = 1.5", "stable"),
    }

    def test_every_source_family_is_named(self):
        assert set(_SOURCES) == set(self.SOURCE_NAMES)

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    def test_source_column_is_the_csv_name(self, capsys, tmp_path, name):
        params, csv_name = self.SOURCE_NAMES[name]
        assert _SOURCES[name].csv_name == csv_name
        text = f"[scenario]\nsource = {name}\n{params}\nn = 20\nm = 2\n"
        config = write(tmp_path / "run.cfg", text)
        out = tmp_path / "a.csv"
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows and {row["source"] for row in rows} == {csv_name}

    @pytest.mark.parametrize(
        "body,message",
        [
            ("source = weibull\n", "2: unknown source 'weibull'"),
            ("source = gpd\nmu = 1\nxi = 0.5\n", "1: source 'gpd' needs key 'sigma'"),
            (
                "source = student-t\ndf = 3\nindex = 1.5\n",
                "4: key 'index' does not apply to source 'student-t'",
            ),
        ],
        ids=["unknown-source", "missing-key", "other-sources-key"],
    )
    def test_source_errors(self, capsys, tmp_path, body, message):
        config = write(tmp_path / "bad.cfg", f"[scenario]\n{body}n = 10\nm = 2\n")
        code, out, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert (code, out, err) == (1, "", f"error: {config}:{message}\n")

    def test_invalid_shape_names_field_and_line(self, capsys, tmp_path):
        bad = SCENARIO_CONFIG.replace("xi = 0.5", "xi = -0.2")
        config = write(tmp_path / "bad.cfg", bad)
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "xi" in err

    @pytest.mark.parametrize(
        "source",
        ["student-t\ndf = -1", "stable\nindex = 3", "gpd-pareto\nmu = -1\nxi = 0.5"],
        ids=["student-t", "stable", "gpd-pareto"],
    )
    def test_invalid_source_parameter_is_config_error(self, capsys, tmp_path, source):
        # exited 3 when the first replication sampled
        config = write(tmp_path / "bad.cfg", f"[scenario]\nsource = {source}\nn = 10\nm = 2\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert f"{config}:1" in err

    def test_undecodable_config_is_config_error(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"[scenario]\xff\n")
        out = str(tmp_path / "x")
        code, _, err = run(capsys, "simulate", "--config", str(config), "--out", out)
        assert code == 1
        assert str(config) in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = write(tmp_path / "bad.cfg", SCENARIO_CONFIG + "bogus = 1\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus" in err

    def test_config_without_a_section_is_config_error(self, capsys, tmp_path):
        config = write(tmp_path / "bare.cfg", "seed = 1\nm = 5\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert f"{config}: config defines no [scenario] or [table] section" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")
        )
        assert code == 1

    def test_unwritable_output_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def run_experiments(*args, **kwargs):
            raise AssertionError("the replications ran before the output was opened")

        monkeypatch.setattr("tailshape.cli.run_experiments", run_experiments)
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = str(tmp_path / "missing" / "x.csv")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", out)
        assert code == 1
        assert f"cannot write output file {out}" in err

    def test_failed_run_leaves_earlier_output(self, capsys, tmp_path, monkeypatch):
        def run_experiments(*args, **kwargs):
            raise RuntimeError("the run failed")

        monkeypatch.setattr("tailshape.cli.run_experiments", run_experiments)
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = tmp_path / "a.csv"
        out.write_bytes(b"an earlier result\r\n")
        with pytest.raises(RuntimeError, match="the run failed"):
            run(capsys, "simulate", "--config", config, "--out", str(out))
        assert out.read_bytes() == b"an earlier result\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "run.cfg"]

    def test_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        # what NumPy raises for a [scenario] with n = 10000000000000
        def run_experiments(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                              "(1, 10000000000000) and data type float64")

        monkeypatch.setattr("tailshape.cli.run_experiments", run_experiments)
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        code, out, err = run(capsys, "simulate", "--config", config, "--out",
                             str(tmp_path / "a.csv"))
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array with " \
                      "shape (1, 10000000000000) and data type float64\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_directory_output_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def run_experiments(*args, **kwargs):
            raise AssertionError("the replications ran before the output was checked")

        monkeypatch.setattr("tailshape.cli.run_experiments", run_experiments)
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path))
        assert code == 1
        assert f"cannot write output file {tmp_path}" in err

    def test_output_under_a_file_fails_before_the_run(self, capsys, tmp_path, monkeypatch):
        def run_experiments(*args, **kwargs):
            raise AssertionError("the replications ran before the output was checked")

        monkeypatch.setattr("tailshape.cli.run_experiments", run_experiments)
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = str(tmp_path / "run.cfg" / "x.csv")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", out)
        assert code == 1
        assert f"cannot write output file {out}: " in err and "Not a directory" in err

    def test_symlinked_output_writes_its_target(self, capsys, tmp_path):
        # the link stays a link; its target is renamed over and keeps its mode
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        plain = tmp_path / "plain.csv"
        run(capsys, "simulate", "--config", config, "--out", str(plain))
        target = tmp_path / "results" / "a.csv"
        target.parent.mkdir()
        target.write_bytes(b"an earlier result\r\n")
        target.chmod(0o640)
        link = tmp_path / "a.csv"
        link.symlink_to(target)
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in target.parent.iterdir()] == ["a.csv"]

    def test_hard_linked_output_is_written_in_place(self, capsys, tmp_path):
        # a rename would leave the other name holding the earlier output
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        plain = tmp_path / "plain.csv"
        run(capsys, "simulate", "--config", config, "--out", str(plain))
        out, other = tmp_path / "a.csv", tmp_path / "b.csv"
        out.write_bytes(b"an earlier result\r\n")
        os.link(out, other)
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == other.read_bytes() == plain.read_bytes()
        assert os.path.samefile(out, other)

    def test_fifo_output_is_written_in_place(self, capsys, tmp_path):
        # not a regular file, as a device such as /dev/stdout is not: a
        # rename would put a regular file in its place, which its reader
        # never sees
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        plain = tmp_path / "plain.csv"
        run(capsys, "simulate", "--config", config, "--out", str(plain))
        fifo = tmp_path / "a.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(fifo))
        reader.join(timeout=30)
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [plain.read_bytes()]

    @pytest.mark.parametrize("case", ["other-users-file", "read-only-folder"])
    def test_output_that_cannot_be_renamed_is_written_in_place(
        self, capsys, tmp_path, monkeypatch, case
    ):
        # as root, os.access allows everything: both cases are simulated
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        plain = tmp_path / "plain.csv"
        run(capsys, "simulate", "--config", config, "--out", str(plain))
        out = tmp_path / "a.csv"
        out.write_bytes(b"an earlier result\r\n")
        inode = out.stat().st_ino
        if case == "other-users-file":
            monkeypatch.setattr(os, "geteuid", lambda: out.stat().st_uid + 1)
        else:
            access = os.access
            monkeypatch.setattr(
                os, "access", lambda path, mode: not os.path.isdir(path) and access(path, mode)
            )
        code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()
        assert out.stat().st_ino == inode
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_unknown_table_name(self, capsys, tmp_path):
        config = write(tmp_path / "bad.cfg", "[table]\nname = table19\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "table19" in err

    def test_negative_seed_override_is_config_error(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr("tailshape.cli.run_experiments", lambda *a, **kw: ran.append(a))
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out = tmp_path / "a.csv"
        code, _, err = run(
            capsys, "simulate", "--config", config, "--out", str(out), "--seed", "-1"
        )
        assert code == 1
        assert f"{config}:" in err and "seed" in err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1])
    def test_table_seed_out_of_range_is_config_error(self, capsys, tmp_path, monkeypatch, seed):
        # -1 plus the per-table offset would be a valid stream key, and the
        # offset pushes 2**64 - 1 past the range; the error names the [table]
        # line before the scenario above it runs
        ran = []
        monkeypatch.setattr("tailshape.cli.run_experiments", lambda *a, **kw: ran.append(a))
        text = SCENARIO_CONFIG + f"[table]\nname = table1\nseed = {seed}\n"
        config = write(tmp_path / "run.cfg", text)
        table_line = text.splitlines().index("[table]") + 1
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert f"{config}:{table_line}:" in err and f"got {seed}" in err
        assert ran == []

    def test_seed_override_changes_results(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--config", config, "--out", str(out1))
        run(capsys, "simulate", "--config", config, "--out", str(out2), "--seed", "99")
        assert out1.read_text() != out2.read_text()


ESTIMATE_PIN_PATH = Path(__file__).with_name("estimate_pin.json")
ESTIMATE_PIN_METHODS = ("zs", "pwm", "mle", "hill", "pareto-ml", "transformed-zs", "transformed-pwm")


def _estimate_pin_files():
    """Data files of the estimate pin, each with its --k: a clean GPD sample
    and degenerate ones."""
    clean = sample_gpd(GpdParams(1.0, 1.0, 0.5), 200, RngStream(61, 0))
    return {
        "gpd.dat": ["\n".join(repr(float(v)) for v in clean) + "\n", 20],
        "one.dat": ["1.25\n", 1],
        "tied.dat": ["1\n1\n", 1],
        "pair.dat": ["1\n2\n", 1],
        "zeros.dat": ["0\n0\n0\n", 2],
        # a negative support estimate; with k = 3 the threshold is -1
        "negative.dat": ["-3\n-2\n-1\n0.5\n1\n2\n", 3],
        "subnormal.dat": ["0\n0\n5e-324\n5e-324\n", 2],
        # 1e4 / mean(excesses) overflows
        "tiny.dat": ["0\n1e-310\n2e-310\n", 2],
    }


def _run_estimate(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        # NumPy's floating-point warnings are not part of the command's output
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


def record_estimate_pin(files):
    """Exit code, stdout and stderr of 'estimate' for each method, with and
    without --k, on each data file, written to the current directory."""
    calls = []
    for name, (text, k) in files.items():
        Path(name).write_text(text, encoding="utf-8")
        for method in ESTIMATE_PIN_METHODS:
            for extra in ([], ["--k", str(k)]):
                calls.append(_run_estimate(["estimate", "--data", name, "--method", method, *extra]))
    return calls


class TestEstimatePin:
    """'estimate' keeps its output on clean and degenerate data: exit codes,
    stderr, keys and all other text exactly, the printed numbers to a
    relative 1e-12, because NumPy picks its ``log1p``, ``exp`` and ``pow``
    code by CPU at run time and those differ in the last bits (at most
    6.4e-13 relative between its AVX-512 and baseline code on the tables).

    The pin was recorded with ``python tests/test_cli.py`` (with ``src`` on
    the path).
    """

    def test_outputs_unchanged(self, tmp_path, monkeypatch):
        pin = json.loads(ESTIMATE_PIN_PATH.read_text(encoding="utf-8"))
        monkeypatch.chdir(tmp_path)
        calls = record_estimate_pin(pin["files"])
        assert len(calls) == len(pin["calls"])
        for got, want in zip(calls, pin["calls"]):
            assert {**got, "out": None} == {**want, "out": None}
            got_lines = got["out"].splitlines(keepends=True)
            want_lines = want["out"].splitlines(keepends=True)
            assert len(got_lines) == len(want_lines), got["argv"]
            for line, expected in zip(got_lines, want_lines):
                if line != expected:
                    key, _, value = line.partition(" = ")
                    expected_key, _, expected_value = expected.partition(" = ")
                    assert key == expected_key, got["argv"]
                    assert float(value) == pytest.approx(float(expected_value), rel=1e-12, abs=0)


class TestUsage:
    def test_unknown_method_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path / "d.dat", "1.0\n2.0\n")
        code, _, _ = run(capsys, "estimate", "--data", path, "--method", "bogus")
        assert code == 1

    def test_unexpected_value_error_is_not_a_numerical_failure(self, monkeypatch, gpd_file):
        # exit 3 is for estimation failures; any other ValueError is a defect
        def broken(path):
            raise ValueError("not an estimation failure")

        monkeypatch.setattr("tailshape.cli.read_data_file", broken)
        with pytest.raises(ValueError, match="not an estimation failure"):
            main(["estimate", "--data", gpd_file, "--method", "zs"])

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1


# zeros, subnormals, 1e+-300, +-1.7e308 and ordinary reals of either sign
_EDGE = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308]
)
_REAL = st.floats(-1e3, 1e3)


@st.composite
def edge_samples(draw):
    """2-9 values from zeros, subnormals, 1e+-300, +-1.7e308 and ordinary
    reals, some of them near ties: a value a few ulps from another one."""
    values = draw(st.lists(st.one_of(_EDGE, _REAL), min_size=2, max_size=9))
    for i in draw(st.lists(st.integers(1, len(values) - 1), max_size=3)):
        values[i] = values[i - 1]
        for _ in range(draw(st.integers(0, 3))):
            values[i] = math.nextafter(values[i], draw(st.sampled_from([-math.inf, math.inf])))
    return values


def contract_outcome(argv, as_json=False):
    """Run ``main(argv)`` and check the exit-code contract: an exit code in
    {0, 1, 2, 3}; a failure writes nothing to stdout and ends stderr with its
    one ``error: ...`` line; JSON output is strict RFC 8259 JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "", argv
        assert err.getvalue().endswith("\n") and lines[-1].startswith("error: "), argv
        assert sum(line.startswith("error:") for line in lines) == 1, argv
    elif as_json:
        strict_json(out.getvalue())
    return code


def _choice(*values):
    return st.sampled_from(values)


# each config key's good values, then its bad ones; every m that parses is at
# most 3, and every section sets one, so no run starts a process pool
_CONFIG_VALUES = {
    "source": (st.sampled_from(sorted(_SOURCES)), _choice("cauchy")),
    "m": (_choice("1", "2", "3"), _choice("0", "-1", "2.5", "x")),
    "seed": (_choice("0", "17", str(2**64 - 1)), _choice("-1", str(2**64), "x")),
    "rounds": (_choice("0", "1", "3"), _choice("-1", "x")),
    "estimators": (
        st.lists(st.sampled_from(sorted(_METHODS)), min_size=1, max_size=4, unique=True)
        .map(", ".join),
        _choice("bogus", "zs, bogus", "zs,,pwm"),
    ),
    "n": (st.integers(2, 60).map(str), _choice("1", "0", "x", "5.5")),
    "k": (st.integers(1, 20).map(str), _choice("0", "x")),
    "fold": (_choice("true", "false"), _choice("maybe")),
    "mu": (_choice("1", "0.5", "-2.5"), _choice("nan", "x")),
    "sigma": (_choice("1", "0.5", "2"), _choice("0", "-1", "inf")),
    "xi": (_choice("0.1", "0.5", "1"), _choice("0", "-0.2", "nan")),
    "df": (_choice("1", "2.5", "5"), _choice("0", "nan")),
    "index": (_choice("1", "1.5", "2"), _choice("2.5", "0")),
    "name": (_choice(*(f"table{i}" for i in range(1, 9)), "TABLE2"), _choice("table9")),
}
_BAD_LINES = _choice("[other]", "colour = red", "no equals sign", "n =", "name = table1")
SIMULATE_COLUMNS = (
    "table,source,n,k,param_name,param_value,estimator,seed,"
    "mse,bias,rel_eff,variance,mc_se_mse,mc_se_bias,failures,m_used"
).split(",")


@st.composite
def simulate_configs(draw):
    """A config of one to three [scenario] and [table] sections, each with an
    m; some have one fault: a bad value, a missing key or section, or a bad
    line."""
    lines, keyed = [], []  # keyed: (line index, key) of each key's line

    def add(*keys):
        for key in keys:
            keyed.append((len(lines), key))
            lines.append(f"{key} = {draw(_CONFIG_VALUES[key][0])}")

    add(*sorted(draw(st.sets(_choice("m", "seed", "rounds", "estimators")))))
    head = len(lines)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:  # tables hold 15 cells: fewer of them
            lines.append("[table]")
            add("name", "m", *["seed"] * draw(st.booleans()))
            continue
        source = draw(_CONFIG_VALUES["source"][0])
        keyed.append((len(lines) + 1, "source"))
        lines += ["[scenario]", f"source = {source}"]
        optional = draw(st.sets(_choice("seed", "rounds", "estimators", "k", "fold")))
        add("m", *_SOURCES[source].keys, "n", *sorted(optional))
    fault = draw(_choice(None, None, "value", "key", "line", "sections"))
    if fault == "value":
        index, key = draw(st.sampled_from(keyed))
        lines[index] = f"{key} = {draw(_CONFIG_VALUES[key][1])}"
    elif fault == "key":  # any key but m, whose default is 1000
        del lines[draw(st.sampled_from([index for index, key in keyed if key != "m"]))]
    elif fault == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINES))
    elif fault == "sections":
        del lines[head:]
    return "\n".join(lines) + "\n"


class TestContract:
    """Whatever the data and flags, the CLI exits by its documented codes."""

    @settings(max_examples=400, deadline=None)
    @given(
        values=edge_samples(),
        method=st.sampled_from(sorted(_METHODS)),
        k=st.none() | st.integers(1, 9),
        as_json=st.booleans(),
    )
    @example(values=[0.001, 2.0, 5.0, 0.001], method="transformed-zs", k=None, as_json=True)
    def test_estimate(self, tmp_path_factory, values, method, k, as_json):
        path = tmp_path_factory.getbasetemp() / "contract.dat"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        argv = ["estimate", "--data", str(path), "--method", method]
        argv += ([] if k is None else ["--k", str(k)]) + (["--json"] if as_json else [])
        contract_outcome(argv, as_json)

    @settings(max_examples=200, deadline=None)
    @given(
        params=st.lists(st.one_of(_EDGE, _REAL, st.sampled_from([math.nan, math.inf])),
                        min_size=3, max_size=3),
        probs=st.lists(
            st.sampled_from(["0", "0.5", "0.99", "1", "-0.1", "5e-324", "nan", "inf", "x"]),
            min_size=1, max_size=3,
        ),
    )
    def test_quantile(self, params, probs):
        mu, sigma, xi = (f"{v!r}" for v in params)
        contract_outcome(["quantile", f"--mu={mu}", f"--sigma={sigma}", f"--xi={xi}",
                          "--p", ",".join(probs)])

    @settings(max_examples=200, deadline=None)
    @given(
        config=simulate_configs(),
        fmt=st.sampled_from(["csv", "json"]),
        threads=st.integers(1, 3),
        seed=st.none() | st.sampled_from(["0", "5", "-1"]),
        earlier=st.booleans(),
    )
    def test_simulate(self, tmp_path_factory, config, fmt, threads, seed, earlier):
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
            folder = Path(tmp)
            (folder / "run.cfg").write_text(config, encoding="utf-8")
            out = folder / f"out.{fmt}"
            if earlier:
                out.write_text("an earlier result\n", encoding="utf-8")
            argv = ["simulate", "--config", str(folder / "run.cfg"), "--out", str(out),
                    "--format", fmt, "--threads", str(threads)]
            code = contract_outcome(argv + ([] if seed is None else ["--seed", seed]))
            if code:  # the output is as it was, and nothing is left beside it
                assert sorted(p.name for p in folder.iterdir()) == sorted(
                    ["run.cfg"] + [out.name] * earlier
                )
                assert not earlier or out.read_text() == "an earlier result\n"
            elif fmt == "csv":
                assert next(csv.reader(io.StringIO(out.read_text()))) == SIMULATE_COLUMNS
            else:
                assert strict_json(out.read_text())["columns"] == SIMULATE_COLUMNS


if __name__ == "__main__":
    files = _estimate_pin_files()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pin = {"files": files, "calls": record_estimate_pin(files)}
        finally:
            os.chdir(here)
    ESTIMATE_PIN_PATH.write_text(json.dumps(pin, indent=1) + "\n", encoding="utf-8")
