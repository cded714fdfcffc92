"""Tests for the replication engine, metrics and table documents."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tailshape import (
    DEFAULT_SEED,
    EstimatorId,
    ExperimentSpec,
    GpdParams,
    GpdParetoSource,
    GpdSource,
    MissingCellError,
    StableSource,
    StudentTSource,
    bias,
    emit_table,
    estimate_zhang_stephens,
    mse,
    relative_efficiency,
    run_experiment,
    run_experiments,
    sample_gpd,
    summaries_document,
    table_specs,
)
from tailshape import distributions, montecarlo
from tailshape.distributions import _StreamBlock

import sampler_oracle

SPEC = ExperimentSpec(GpdSource(GpdParams(1.0, 1.0, 0.5)), n=60, m=40, seed=123)


class TestMetrics:
    def test_mse(self):
        assert mse([0.5, 0.5], 0.5) == 0.0
        assert mse([0.4, 0.6], 0.5) == pytest.approx(0.01, abs=1e-15)
        assert mse([1.0], 0.5) == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(ValueError):
            mse([], 0.5)

    def test_bias_sign_convention(self):
        # bias is the true value minus the average estimate
        assert bias([0.5, 0.5], 0.5) == 0.0
        assert bias([0.4, 0.4], 0.5) == pytest.approx(0.1, abs=1e-15)
        assert bias([0.6], 0.5) == pytest.approx(-0.1, abs=1e-15)

    def test_bias_needs_an_estimate(self):
        with pytest.raises(ValueError, match="^bias needs at least one estimate$"):
            bias([], 0.5)

    def test_relative_efficiency(self):
        assert relative_efficiency(0.0225, 0.5, 100) == pytest.approx(1.0, rel=1e-12)
        assert relative_efficiency(0.0118, 0.1, 50) == pytest.approx(2.0508, abs=5e-4)
        benchmark = (1.0 + 0.3) ** 2 / 80
        assert relative_efficiency(benchmark, 0.3, 80) == pytest.approx(1.0, rel=1e-12)

    def test_relative_efficiency_identity(self):
        re = relative_efficiency(0.0123, 0.4, 70)
        assert re * 0.0123 * 70 == pytest.approx((1.4) ** 2, rel=1e-12)

    def test_relative_efficiency_guards(self):
        assert relative_efficiency(0.0, 0.5, 100) == math.inf
        with pytest.raises(ValueError):
            relative_efficiency(0.01, 0.5, 0)
        with pytest.raises(ValueError):
            relative_efficiency(-0.01, 0.5, 10)


class TestExperimentSpecValidation:
    def test_bounds(self):
        src = GpdSource(GpdParams(1.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            ExperimentSpec(src, n=1)
        with pytest.raises(ValueError):
            ExperimentSpec(src, n=10, m=0)
        with pytest.raises(ValueError):
            ExperimentSpec(src, n=10, k=10)
        with pytest.raises(ValueError):
            ExperimentSpec(src, n=10, rounds=-1)

    @pytest.mark.parametrize("field", ["k", "m", "seed", "rounds"])
    def test_bool_is_not_an_integer(self, field):
        # bool subclasses int, so True would pass for 1
        values = {"n": 10, "m": 5, "k": 3, "seed": 1, "rounds": 0, field: True}
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(StudentTSource(3.0), **values)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StudentTSource(-1.0),
            lambda: StudentTSource(math.nan),
            lambda: StableSource(3.0),
            lambda: StableSource(0.0),
            lambda: GpdParetoSource(-1.0, 0.5),
            lambda: GpdParetoSource(1.0, -0.5),
        ],
        ids=["t-df-negative", "t-df-nan", "stable-3", "stable-0", "pareto-mu", "pareto-xi"],
    )
    def test_sources_reject_invalid_parameters(self, make):
        # rejected when built, not when the first replication samples
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("entry", ["bogus", "pwm"])
    def test_estimators_must_be_estimator_ids(self, entry):
        # a str equal to a member's value is not a member either
        src = GpdSource(GpdParams(1.0, 1.0, 0.5))
        with pytest.raises(ValueError, match=repr(entry)):
            ExperimentSpec(src, n=50, m=5, estimators=(EstimatorId.PWM, entry))
        with pytest.raises(ValueError, match=repr(entry)):
            ExperimentSpec(src, n=50, m=5, estimators=(entry,))

    def test_empty_estimator_set_rejected(self):
        src = GpdSource(GpdParams(1.0, 1.0, 0.5))
        with pytest.raises(ValueError, match="^estimator set must not be empty$"):
            ExperimentSpec(src, n=50, m=5, estimators=())

    def test_hill_needs_k(self):
        src = GpdSource(GpdParams(1.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            ExperimentSpec(src, n=10, estimators=(EstimatorId.HILL,))

    def test_fold_needs_k(self):
        with pytest.raises(ValueError):
            ExperimentSpec(StudentTSource(3.0), n=10, fold_absolute=True)

    def test_true_xi(self):
        assert StudentTSource(4.0).true_xi == 0.25
        assert StableSource(1.6).true_xi == pytest.approx(0.625)
        assert GpdParetoSource(1.0, 0.3).true_xi == 0.3
        assert GpdParetoSource(2.0, 0.5).params.sigma == 1.0


class TestRunExperiment:
    @pytest.mark.parametrize("workers", [0, True])
    def test_workers_must_be_positive_integer(self, workers):
        with pytest.raises(ValueError) as err:
            run_experiments([SPEC], workers=workers)
        assert str(err.value) == f"workers must be a positive integer, got {workers!r}"

    def test_single_replication_identities(self):
        spec = ExperimentSpec(
            GpdSource(GpdParams(1.0, 1.0, 0.5)),
            n=80,
            m=1,
            seed=321,
            estimators=(EstimatorId.ZHANG_STEPHENS,),
        )
        # independent recomputation of the one replication
        x = sampler_oracle.sample(spec.source, 80, sampler_oracle.stream(321, 0))
        mu_hat = x.min()
        z = x[x > mu_hat] - mu_hat
        xi_hat = estimate_zhang_stephens(z).xi_hat
        (summary,) = run_experiment(spec)
        assert summary.mse == (xi_hat - 0.5) ** 2
        assert summary.bias == 0.5 - xi_hat
        assert summary.m_used == 1
        assert math.isnan(summary.mc_se_mse)

    def test_deterministic_across_runs_and_workers(self):
        a = run_experiment(SPEC)
        b = run_experiment(SPEC)
        c = run_experiment(SPEC, workers=2)
        assert a == b == c

    def test_one_pool_for_all_scenarios(self, monkeypatch):
        import concurrent.futures

        started = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        specs = [
            SPEC,
            ExperimentSpec(StudentTSource(3.0), n=300, m=9, k=30, seed=5, fold_absolute=True),
            ExperimentSpec(GpdParetoSource(1.0, 0.25), n=40, m=2, seed=6),
        ]
        parallel = run_experiments(specs, workers=2)
        assert started == [2]
        assert parallel == run_experiments(specs)

    def test_mse_decomposition_and_rel_eff_identity(self):
        for summary in run_experiment(SPEC):
            assert summary.mse == pytest.approx(
                summary.bias**2 + summary.variance, abs=1e-12
            )
            assert summary.rel_eff * summary.mse * SPEC.n == pytest.approx(
                (1.5) ** 2, rel=1e-12
            )

    def test_failures_counted_per_estimator(self):
        # Pareto ML needs positive raw data; Student's t samples break it in
        # every replication while Zhang-Stephens still runs on the excesses
        spec = ExperimentSpec(
            StudentTSource(2.0),
            n=50,
            m=10,
            seed=99,
            estimators=(EstimatorId.PARETO_ML, EstimatorId.ZHANG_STEPHENS),
        )
        by_est = {s.estimator: s for s in run_experiment(spec)}
        assert by_est[EstimatorId.PARETO_ML].failures == 10
        assert by_est[EstimatorId.PARETO_ML].m_used == 0
        assert math.isnan(by_est[EstimatorId.PARETO_ML].mse)
        assert by_est[EstimatorId.ZHANG_STEPHENS].failures == 0

    def test_pot_experiment_uses_k_for_rel_eff(self):
        spec = ExperimentSpec(StudentTSource(2.0), n=400, m=5, k=40, seed=77)
        for summary in run_experiment(spec):
            if not math.isnan(summary.mse):
                assert summary.rel_eff * summary.mse * 40 == pytest.approx(
                    (1.5) ** 2, rel=1e-12
                )

    def test_rounds_change_little(self):
        # refreshing the transform once should move the MSE by well under 10%
        base = ExperimentSpec(GpdSource(GpdParams(1.0, 1.0, 0.5)), n=100, m=1000, seed=2002)
        once = ExperimentSpec(
            GpdSource(GpdParams(1.0, 1.0, 0.5)), n=100, m=1000, seed=2002, rounds=1
        )
        mse0 = {s.estimator: s.mse for s in run_experiment(base)}
        mse1 = {s.estimator: s.mse for s in run_experiment(once)}
        for est in (EstimatorId.TRANSFORMED_ZS, EstimatorId.TRANSFORMED_PWM):
            assert abs(mse1[est] - mse0[est]) < 0.1 * mse0[est]
        assert mse1[EstimatorId.ZHANG_STEPHENS] == mse0[EstimatorId.ZHANG_STEPHENS]


SOURCES = {
    "gpd": GpdSource(GpdParams(1.0, 2.0, 0.5)),
    "gpd_pareto": GpdParetoSource(1.0, 0.25),
    "student_t_df1": StudentTSource(1.0),
    "student_t_df3": StudentTSource(3.0),
    "stable_1": StableSource(1.0),
    "stable_1.5": StableSource(1.5),
    "stable_2": StableSource(2.0),
}


class TestSampleRows:
    """A source's rows drawn from a keyed block of streams equal the oracle's
    one-row samples keyed with SeedSequence, bit for bit."""

    @pytest.mark.parametrize("n", [2, 37])
    @pytest.mark.parametrize("seed,reps", [
        (11, range(5, 12)),
        (2**40 + 1, range(2**32 - 2, 2**32 + 3)),  # ids straddling 2^32
        (2**64 - 1, range(2**64 - 1, 2**64)),  # one id
    ])
    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
    def test_equal_to_stacked_streams(self, source, seed, reps, n):
        expected = np.stack([sampler_oracle.sample(source, n, sampler_oracle.stream(seed, r))
                             for r in reps])
        block = _StreamBlock.keyed(seed, reps)
        assert source.sample_rows(n, block).tobytes() == expected.tobytes()
        # a slice draws its own rows, also after the block has drawn
        half = len(reps) // 2
        assert source.sample_rows(n, block[half:]).tobytes() == expected[half:].tobytes()

    # n = 20 and m = 25: chunks of 5 rows of n values, of 10 rows of k = 3
    # values, or, at the element budget, one chunk
    @pytest.mark.parametrize("k,budget,calls", [
        (None, None, 1), (None, 100, 5), (3, None, 1), (3, 30, 3),
    ])
    def test_keys_hashed_once_per_chunk(self, monkeypatch, k, budget, calls):
        hashed = []

        def counted(seed, ids):
            hashed.append(ids)
            return stream_keys(seed, ids)

        stream_keys = distributions._stream_keys
        monkeypatch.setattr(distributions, "_stream_keys", counted)
        if budget is not None:
            monkeypatch.setattr(montecarlo, "ELEMENT_BUDGET", budget)
        spec = ExperimentSpec(StudentTSource(3.0), n=20, m=25, k=k, seed=9)
        montecarlo._replicate_range(spec, 0, spec.m)
        assert len(hashed) == calls
        assert [r for ids in hashed for r in ids] == list(range(spec.m))

    @pytest.mark.parametrize("source,k,budget", [
        (GpdSource(GpdParams(1.0, 1.0, 0.5)), None, 100), (StudentTSource(3.0), 3, 30),
    ])
    def test_any_split_over_chunks_gives_the_same_bytes(self, monkeypatch, source, k, budget):
        monkeypatch.setattr(montecarlo, "ELEMENT_BUDGET", budget)
        spec = ExperimentSpec(source, n=20, m=25, k=k, seed=9)
        whole = montecarlo._replicate_range(spec, 0, spec.m)
        # cuts inside chunks, on a chunk boundary and one replication wide
        for bounds in ([0, 1, 7, 8, 20, 25], [0, 5, 12, 25], [0, 24, 25]):
            parts = [montecarlo._replicate_range(spec, a, b) for a, b in zip(bounds, bounds[1:])]
            for i in (0, 1):  # the slots, then the reasons
                for e in spec.estimator_set:
                    joined = np.concatenate([part[i][e] for part in parts])
                    assert joined.tobytes() == whole[i][e].tobytes()


class TestTableSpecs:
    def test_gpd_grid(self):
        specs = table_specs("table1", seed=5, m=7)
        assert len(specs) == 15
        assert {s.n for s in specs} == {50, 100, 250}
        assert all(s.m == 7 for s in specs)
        assert len({s.seed for s in specs}) == 15
        assert all(isinstance(s.source, GpdSource) for s in specs)
        assert all(s.source.params.sigma == 1.0 for s in specs)

    def test_re_view_shares_grid_and_seeds(self):
        assert table_specs("table2", seed=5) == table_specs("table1", seed=5)
        assert table_specs("table4", seed=5) == table_specs("table3", seed=5)
        assert table_specs("table6", seed=5) == table_specs("table5", seed=5)

    def test_pareto_case_grid(self):
        specs = table_specs("table5", seed=5)
        assert all(isinstance(s.source, GpdParetoSource) for s in specs)

    def test_pot_grids(self):
        t7 = table_specs("table7", seed=5, m=3)
        assert all(s.k == 100 and s.fold_absolute for s in t7)
        assert {s.source.df for s in t7} == {1.0, 2.0, 3.0, 4.0, 5.0}
        t8 = table_specs("table8", seed=5, m=3)
        assert {s.source.index for s in t8} == {1.9, 1.7, 1.5, 1.3, 1.0}

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            table_specs("table9")

    @pytest.mark.parametrize("name", ["table1", "table8"])
    def test_seed_range_covers_every_cell(self, name):
        # a cell's seed is the seed plus the table's offset and the cell index
        layout = montecarlo.TABLE_LAYOUTS[name]
        top = 2**64 - 1 - layout.seed_offset - (len(layout.cells) - 1)
        assert table_specs(name, seed=top, m=3)[-1].seed == 2**64 - 1
        for seed in (top + 1, 2**64 - 1):
            with pytest.raises(ValueError) as err:
                table_specs(name, seed=seed, m=3)
            assert f"{top}]" in str(err.value) and f"got {seed}" in str(err.value)

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="got True"):
            table_specs("table1", seed=True)


@pytest.fixture(scope="module")
def table1_results():
    return run_experiments(table_specs("table1", seed=11, m=3))


class TestTableDocuments:
    def test_emit_full_grid(self, table1_results):
        doc = emit_table(table1_results, "table1")
        assert len(doc.rows) == 15 * 4
        assert doc.columns[:2] == ["table", "source"]
        assert "mse" in doc.columns and "bias" in doc.columns
        assert "rel_eff" not in doc.columns
        re_doc = emit_table(table1_results, "table2")
        assert "rel_eff" in re_doc.columns and "mse" not in re_doc.columns

    def test_missing_cells_are_listed(self, table1_results):
        with pytest.raises(MissingCellError) as err:
            emit_table(table1_results[:1], "table1")
        assert len(err.value.missing) == 14

    def test_unknown_layout_name(self, table1_results):
        with pytest.raises(ValueError, match="^unknown table layout 'table9'$"):
            emit_table(table1_results, "table9")

    def test_wrong_source_kind_is_missing(self, table1_results):
        with pytest.raises(MissingCellError):
            emit_table(table1_results, "table3")

    def test_csv_round_trip(self, table1_results):
        doc = emit_table(table1_results, "table1")
        rows = list(csv.DictReader(io.StringIO(doc.to_csv())))
        assert len(rows) == len(doc.rows)
        summaries = {
            (r.spec.n, r.spec.source.params.xi, s.estimator.value): s
            for r in table1_results
            for s in r.summaries
        }
        for row in rows:
            s = summaries[(int(row["n"]), float(row["param_value"]), row["estimator"])]
            assert float(row["mse"]) == s.mse
            assert float(row["bias"]) == s.bias
            assert float(row["mc_se_mse"]) == s.mc_se_mse
            assert int(row["failures"]) == s.failures
            assert row["k"] == ""

    def test_json_rendering(self, table1_results):
        doc = emit_table(table1_results, "table1")
        payload = json.loads(doc.to_json())
        assert payload["table"] == "table1"
        assert len(payload["rows"]) == 60
        assert payload["rows"][0]["estimator"] == "zhang_stephens"

    def test_summaries_document_covers_all_stats(self, table1_results):
        doc = summaries_document(table1_results[:2], name="custom")
        assert {"mse", "bias", "rel_eff", "variance"} <= set(doc.columns)
        assert len(doc.rows) == 8

    def test_mc_se_scale(self):
        (summary,) = run_experiment(
            ExperimentSpec(
                GpdSource(GpdParams(1.0, 1.0, 0.5)),
                n=100,
                m=400,
                seed=17,
                estimators=(EstimatorId.ZHANG_STEPHENS,),
            )
        )
        heuristic = summary.mse * math.sqrt(2.0 / 400)
        assert 0.5 * heuristic < summary.mc_se_mse < 2.0 * heuristic


class TestFailureReasons:
    def test_support_nonpositive_is_counted(self):
        spec = ExperimentSpec(GpdSource(GpdParams(-1.0, 1.0, 0.5)), n=50, m=50)
        summaries = {s.estimator: s for s in run_experiment(spec)}
        for estimator in (EstimatorId.TRANSFORMED_ZS, EstimatorId.TRANSFORMED_PWM):
            assert summaries[estimator].failures == 50
            assert summaries[estimator].reasons == (("support_nonpositive", 50),)
        for estimator in (EstimatorId.ZHANG_STEPHENS, EstimatorId.PWM):
            assert (summaries[estimator].failures, summaries[estimator].reasons) == (0, ())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_add_up_to_failures(self, workers):
        # n = k + 1 leaves a single excess wherever the top two values tie
        specs = [
            ExperimentSpec(GpdSource(GpdParams(0.0, 1e-320, 0.5)), n=20, m=12, seed=3),
            ExperimentSpec(StudentTSource(1.0), n=6, m=12, k=5, seed=3),
        ]
        for result in run_experiments(specs, workers=workers):
            for summary in result.summaries:
                assert summary.failures == sum(count for _, count in summary.reasons)
                assert all(count > 0 and reason != "ok" for reason, count in summary.reasons)
        assert any(s.reasons for r in run_experiments(specs[:1]) for s in r.summaries)


# ---------------------------------------------------------------------------
# Registry pin: table1..table8 grids and CSVs at the default seed
# ---------------------------------------------------------------------------

TABLE_PIN_PATH = Path(__file__).with_name("table_pin.json")
TABLE_PIN_M = 4
TABLE_NAMES = tuple(f"table{i}" for i in range(1, 9))


def _spec_record(spec):
    return [spec.source.descriptor(), spec.n, spec.k, spec.seed, spec.fold_absolute]


def record_table_pin():
    """Grid and CSV of every built-in table at DEFAULT_SEED and m = TABLE_PIN_M."""
    pin = {}
    for name in TABLE_NAMES:
        specs = table_specs(name, seed=DEFAULT_SEED, m=TABLE_PIN_M)
        pin[name] = {
            "specs": [_spec_record(s) for s in specs],
            "csv": emit_table(run_experiments(specs), name).to_csv(),
        }
    return pin


def _assert_csv_close(actual: str, expected: str):
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(expected)))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        for column, a, b in zip(want[0], got_row, want_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                assert a == b, column
                continue
            if math.isnan(fb):
                assert math.isnan(fa), column
            else:
                assert math.isclose(fa, fb, rel_tol=1e-9, abs_tol=0.0), (column, a, b)


@pytest.fixture(scope="module")
def table_pin():
    return json.loads(TABLE_PIN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def table_pin_actual():
    return record_table_pin()


class TestTableRegistryPin:
    """Every built-in table keeps its grid, seeds, labels and numbers.

    The pin was recorded with ``python tests/test_montecarlo.py`` (with ``src``
    on the path); numbers are compared to a relative 1e-9 because SIMD
    ``log1p`` may differ in the last bit between CPUs.
    """

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_spec_grid(self, table_pin, name):
        specs = table_specs(name, seed=DEFAULT_SEED, m=TABLE_PIN_M)
        assert json.loads(json.dumps([_spec_record(s) for s in specs])) == table_pin[name]["specs"]

    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_emitted_csv(self, table_pin, table_pin_actual, name):
        _assert_csv_close(table_pin_actual[name]["csv"], table_pin[name]["csv"])


if __name__ == "__main__":
    TABLE_PIN_PATH.write_text(json.dumps(record_table_pin(), indent=1) + "\n", encoding="utf-8")
