"""Tests for the command-line interface and its exit-code contract."""

import json
import math

import numpy as np
import pytest

from tailshape import GpdParams, ParetoParams, RngStream, pareto_quantile, sample_gpd
from tailshape.cli import main


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

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        path = write(tmp_path / "neg.dat", "-1.0\n2.0\n3.0\n")
        code, _, err = run(capsys, "estimate", "--data", path, "--method", "pareto-ml")
        assert code == 3

    def test_json_output(self, capsys, gpd_file):
        code, out, _ = run(
            capsys, "estimate", "--data", gpd_file, "--method", "zs", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "zhang_stephens"
        assert payload["sigma_hat"] > 0
        assert payload["mu_hat"] == payload["support_estimate"]

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

    def test_bad_fit_file_is_data_error(self, capsys, tmp_path):
        path = write(tmp_path / "fit.json", "{not json")
        code, _, _ = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2

    def test_unknown_form_in_fit_file_is_data_error(self, capsys, tmp_path):
        path = write(
            tmp_path / "fit.json",
            json.dumps({"mu_hat": 1.0, "sigma_hat": 1.0, "xi_hat": 0.5, "form": "bogus"}),
        )
        code, _, err = run(capsys, "quantile", "--fit", path, "--p", "0.5")
        assert code == 2
        assert path in err and "bogus" in err


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

    def test_invalid_shape_names_field_and_line(self, capsys, tmp_path):
        bad = SCENARIO_CONFIG.replace("xi = 0.5", "xi = -0.2")
        config = write(tmp_path / "bad.cfg", bad)
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "xi" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = write(tmp_path / "bad.cfg", SCENARIO_CONFIG + "bogus = 1\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")
        )
        assert code == 1

    def test_unknown_table_name(self, capsys, tmp_path):
        config = write(tmp_path / "bad.cfg", "[table]\nname = table19\n")
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(tmp_path / "x"))
        assert code == 1
        assert "table19" in err

    def test_seed_override_changes_results(self, capsys, tmp_path):
        config = write(tmp_path / "run.cfg", SCENARIO_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--config", config, "--out", str(out1))
        run(capsys, "simulate", "--config", config, "--out", str(out2), "--seed", "99")
        assert out1.read_text() != out2.read_text()


class TestUsage:
    def test_unknown_method_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path / "d.dat", "1.0\n2.0\n")
        code, _, _ = run(capsys, "estimate", "--data", path, "--method", "bogus")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
