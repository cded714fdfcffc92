"""Acceptance suite: reproduces the shipped reference tables end to end.

Runs every benchmark grid of ``tailshape.TABLE_LAYOUTS`` at the default seed
with m = 1000 replications and compares MSE, bias and relative efficiency
against the values of ``reference_values``, which must cover the layout's
cells, at the shipped tolerance of three Monte Carlo standard errors (as
computed by the harness), plus the cross-module property checks, determinism
and runtime budgets.  One PASS/FAIL line is printed per criterion; run with
``pytest -s`` to see them as they complete.  The full module takes a few
minutes.
"""

import functools
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

import reference_values as rv
from tailshape import (
    GpdParams,
    ParetoParams,
    RngStream,
    TABLE_LAYOUTS,
    TransformSpec,
    emit_table,
    estimate_gpd_mle,
    estimate_hill,
    estimate_pareto_ml,
    estimate_pwm,
    estimate_zhang_stephens,
    gpd_cdf_via_transform,
    gpd_pdf,
    gpd_quantile_via_transform,
    gpd_sf,
    pareto_cdf,
    run_experiments,
    sample_gpd,
    sample_pareto,
    table_specs,
    to_pareto,
)

TIMINGS: dict[str, float] = {}


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} ({name}): PASS")


@functools.cache
def results(table):
    """The table's results at the default seed and m = 1000, run and timed once."""
    start = time.perf_counter()
    out = run_experiments(table_specs(table))
    TIMINGS[table] = time.perf_counter() - start
    return out


def cells(table):
    """The table's summaries as {cell: {estimator: summary}}: ``table_specs``
    builds one spec per layout cell, in cell order."""
    return {
        cell: {s.estimator.value: s for s in result.summaries}
        for cell, result in zip(TABLE_LAYOUTS[table].cells, results(table), strict=True)
    }


def reference(table, excluded=()):
    """The paper's values of ``table`` as {cell: {estimator: value}}; they must
    cover the layout's cells but ``excluded``, and nothing else."""
    layout = TABLE_LAYOUTS[table]
    paper = getattr(rv, table.upper())
    assert set(paper) == set(layout.cells) - set(excluded), f"{table}: reference cells"
    order = [e.value for e in layout.estimators]
    return {cell: dict(zip(order, row, strict=True)) for cell, row in paper.items()}


def spot_cell(table):
    """The POT spot-check cell: the smallest n and the middle parameter."""
    layout = TABLE_LAYOUTS[table]
    return layout.ns[0], layout.values[len(layout.values) // 2]


def compare_gpd_table(table, excluded=()):
    """MSE within three Monte Carlo standard errors; bias signs for cells
    where the reference bias is larger than 0.02 in magnitude."""
    problems = []
    summaries = cells(table)
    for (n, xi), row in reference(table, excluded).items():
        for est, (ref_mse, ref_bias) in row.items():
            s = summaries[n, xi][est]
            gap = (s.mse - ref_mse) / s.mc_se_mse
            if abs(gap) > 3:
                problems.append(f"({n},{xi}) {est}: mse {s.mse:.4f} vs {ref_mse} ({gap:+.2f} se)")
            if abs(ref_bias) > 0.02 and math.copysign(1, s.bias) != math.copysign(1, ref_bias):
                problems.append(f"({n},{xi}) {est}: bias {s.bias:+.4f} sign vs {ref_bias:+}")
    return problems


def test_criterion_01_table1_reproduction():
    with criterion(1, "table 1 reproduction"):
        problems = compare_gpd_table("table1")
        assert not problems, "\n".join(problems)


def test_criterion_02_relative_efficiency_headline():
    with criterion(2, "relative-efficiency headline effect"):
        layout, summaries = TABLE_LAYOUTS["table1"], cells("table1")
        c = summaries[layout.cells[0]]  # the smallest n and the lightest tail
        assert c["transformed_pwm"].rel_eff >= 1.8, c["transformed_pwm"].rel_eff
        assert c["transformed_zs"].rel_eff >= 1.2, c["transformed_zs"].rel_eff
        for xi in (xi for xi in layout.values if xi <= 0.5):
            c = summaries[layout.ns[0], xi]
            assert c["transformed_zs"].rel_eff >= c["zhang_stephens"].rel_eff, xi
            assert c["transformed_pwm"].rel_eff >= c["pwm"].rel_eff, xi


def test_criterion_03_table3_reproduction():
    with criterion(3, "table 3/4 reproduction (sigma = 2)"):
        problems = compare_gpd_table("table3")
        assert not problems, "\n".join(problems)
        # tables 3 and 4 are views of one run; spot its smallest n and lightest tail
        n, xi = cell = TABLE_LAYOUTS["table3"].cells[0]
        spot = cells("table3")[cell]["transformed_pwm"]
        ref_mse, _ = reference("table3")[cell]["transformed_pwm"]
        assert abs(spot.mse - ref_mse) <= 3 * spot.mc_se_mse, spot.mse
        # relative-efficiency tolerance via the delta method on the MSE
        re_tol = 3 * (((1 + xi) ** 2 / n) / spot.mse**2) * spot.mc_se_mse
        ref_rel_eff = reference("table4")[cell]["transformed_pwm"]
        assert abs(spot.rel_eff - ref_rel_eff) <= re_tol, spot.rel_eff


def test_criterion_04_table5_reproduction():
    with criterion(4, "table 5/6 reproduction (sigma = xi * mu)"):
        problems = compare_gpd_table("table5", excluded=(rv.TABLE5_EXCLUDED_CELL,))
        assert not problems, "\n".join(problems)
        # supplying the true parameters makes the transform the identity map
        params = GpdParams(1.0, 0.5, 0.5)
        x = sample_gpd(params, 5000, RngStream(9090, 0))
        out = to_pareto(x, TransformSpec(1.0, 0.5, 0.5))
        assert out.clamp_count == 0
        assert np.allclose(out.z, x, rtol=1e-12, atol=0)


def test_criterion_05_pwm_collapse_at_heavy_tails():
    with criterion(5, "PWM relative-efficiency collapse at xi = 1"):
        # the largest n and the heaviest tail
        assert cells("table1")[TABLE_LAYOUTS["table1"].cells[-1]]["pwm"].rel_eff < 0.45


def test_criterion_06_table7_pot_student_t():
    with criterion(6, "table 7 POT on Student's t"):
        layout, summaries = TABLE_LAYOUTS["table7"], cells("table7")
        paper = reference("table7")
        problems = []
        for (n, df), row in paper.items():
            if df == min(layout.values):  # the Cauchy cells: bias signs only
                for est in ("zhang_stephens", "transformed_zs"):
                    if not summaries[n, df][est].bias > 0:
                        problems.append(f"({n},{df}) {est} bias sign")
                continue
            for est, target in row.items():
                if est not in ("zhang_stephens", "transformed_zs") or target is None:
                    continue
                ref_bias, ref_mse = target
                s = summaries[n, df][est]
                if abs(s.bias - ref_bias) > 3 * s.mc_se_bias:
                    problems.append(f"({n},{df}) {est} bias {s.bias:+.4f} vs {ref_bias:+}")
                if abs(s.mse - ref_mse) > 3 * s.mc_se_mse:
                    problems.append(f"({n},{df}) {est} mse {s.mse:.4f} vs {ref_mse}")
        for n in layout.ns:
            hill_bias = [summaries[n, df]["hill"].bias for df in layout.values if df >= 2]
            if not all(b < 0 for b in hill_bias):
                problems.append(f"hill bias not negative at n={n}: {hill_bias}")
            if not all(
                abs(hill_bias[i]) < abs(hill_bias[i + 1]) for i in range(len(hill_bias) - 1)
            ):
                problems.append(f"hill bias magnitude not increasing at n={n}: {hill_bias}")
        spot = summaries[spot_cell("table7")]["hill"]
        ref_bias, ref_mse = paper[spot_cell("table7")]["hill"]
        if abs(spot.bias - ref_bias) > 3 * spot.mc_se_bias:
            problems.append(f"hill spot bias {spot.bias:+.4f}")
        if abs(spot.mse - ref_mse) > 3 * spot.mc_se_mse:
            problems.append(f"hill spot mse {spot.mse:.4f}")
        assert not problems, "\n".join(problems)


def test_criterion_07_table8_pot_symmetric_stable():
    with criterion(7, "table 8 POT on symmetric stable"):
        layout, summaries = TABLE_LAYOUTS["table8"], cells("table8")
        spot = summaries[spot_cell("table8")]["hill"]
        ref_bias, ref_mse = reference("table8")[spot_cell("table8")]["hill"]
        assert abs(spot.bias - ref_bias) <= 3 * spot.mc_se_bias, spot.bias
        assert abs(spot.mse - ref_mse) <= 3 * spot.mc_se_mse, spot.mse
        # where tails are heaviest the Hill estimator has the smallest MSE
        for n in layout.ns:
            heaviest = summaries[n, min(layout.values)]
            hill_mse = heaviest["hill"].mse
            others = [s.mse for est, s in heaviest.items() if est != "hill"]
            assert all(hill_mse < m for m in others), (n, hill_mse, others)


def test_criterion_08_property_suite():
    with criterion(8, "property suite"):
        # identity transform when the scale ties to xi * mu
        x = sample_gpd(GpdParams(2.0, 2.0 * 0.25, 0.25), 2000, RngStream(8001, 0))
        out = to_pareto(x, TransformSpec(2.0, 2.0 * 0.25, 0.25))
        assert out.clamp_count == 0 and np.allclose(out.z, x, rtol=1e-12, atol=0)

        # transforming with the true parameters yields Pareto-distributed data
        params = GpdParams(1.0, 2.0, 0.5)
        target = ParetoParams(1.0, 2.0)
        crit = 1.6276 / math.sqrt(10_000)
        passes = 0
        for s in range(100):
            z = to_pareto(
                sample_gpd(params, 10_000, RngStream(8002, s)), TransformSpec(1.0, 2.0, 0.5)
            ).z
            ks = stats.kstest(z, lambda v: pareto_cdf(target, v)).statistic
            passes += ks < crit
        assert passes >= 95, passes

        # Hill equals Pareto ML on the top k over the threshold order statistic
        xs = sample_pareto(ParetoParams(1.0, 1.0), 5000, RngStream(8003, 0))
        srt = np.sort(xs)
        k = 500
        threshold = srt[xs.size - k - 1]
        oracle = float(np.mean(np.log(srt[xs.size - k :] / threshold)))
        assert abs(estimate_hill(xs, k).xi_hat - oracle) < 1e-12

        # scale equivariance of every estimator
        exc = sample_gpd(GpdParams(0.0, 1.0, 0.5), 400, RngStream(8004, 0))
        c = 5.0
        for fitter in (estimate_pwm, estimate_zhang_stephens, estimate_gpd_mle):
            a, b = fitter(exc), fitter(c * exc)
            assert abs(a.xi_hat - b.xi_hat) < 1e-9
            assert abs(b.sigma_hat - c * a.sigma_hat) < 1e-9 * c * a.sigma_hat
        pos = exc + 1.0
        assert abs(estimate_pareto_ml(c * pos).xi_hat - estimate_pareto_ml(pos).xi_hat) < 1e-9
        assert abs(estimate_hill(c * pos, 100).xi_hat - estimate_hill(pos, 100).xi_hat) < 1e-9

        # summary identity: mse equals bias squared plus variance
        for res in results("table1"):
            for s in res.summaries:
                assert abs(s.mse - (s.bias**2 + s.variance)) < 1e-12
                n_eff = res.spec.k if res.spec.k is not None else res.spec.n
                assert abs(s.rel_eff * s.mse * n_eff - (1 + res.spec.true_xi) ** 2) < 1e-12

        # quantile round trip through the probability expression
        spec = TransformSpec(1.0, 2.0, 0.5)
        probs = np.arange(0.01, 1.0, 0.01)
        x_p = gpd_quantile_via_transform(spec, 2.0, probs)
        assert np.allclose(gpd_cdf_via_transform(spec, 2.0, x_p), probs, atol=1e-12)

        # survival/density agreement by central finite differences
        p = GpdParams(1.0, 2.0, 0.5)
        grid = np.linspace(1.5, 25.0, 40)
        h = 1e-6
        fd = (gpd_sf(p, grid - h) - gpd_sf(p, grid + h)) / (2 * h)
        assert np.allclose(fd, gpd_pdf(p, grid), atol=1e-6)

        # consistency of all five estimators on large samples from their models
        big = 100_000
        z = sample_pareto(ParetoParams(1.0, 2.0), big, RngStream(8005, 0))
        assert abs(estimate_pareto_ml(z).xi_hat - 0.5) < 0.02
        assert abs(estimate_hill(z, big // 2).xi_hat - 0.5) < 0.02
        e1 = sample_gpd(GpdParams(0.0, 1.0, 0.25), big, RngStream(8006, 0))
        assert abs(estimate_pwm(e1).xi_hat - 0.25) < 0.02
        e2 = sample_gpd(GpdParams(0.0, 2.0, 0.5), big, RngStream(8007, 0))
        assert abs(estimate_zhang_stephens(e2).xi_hat - 0.5) < 0.02
        e3 = sample_gpd(GpdParams(0.0, 1.0, 0.75), big, RngStream(8008, 0))
        assert abs(estimate_gpd_mle(e3).xi_hat - 0.75) < 0.02


def test_criterion_09_determinism_across_workers():
    with criterion(9, "byte-identical reruns across worker counts"):
        serial_csv = emit_table(results("table1"), "table1").to_csv()
        parallel = run_experiments(table_specs("table1"), workers=2)
        parallel_csv = emit_table(parallel, "table1").to_csv()
        assert serial_csv.encode() == parallel_csv.encode()


def test_criterion_10_runtime_budget():
    with criterion(10, "runtime budget"):
        for table in ("table1", "table3", "table5", "table7", "table8"):
            results(table)  # runs the table if no criterion before has
        gpd_time = TIMINGS["table1"] + TIMINGS["table3"] + TIMINGS["table5"]
        pot_time = TIMINGS["table7"] + TIMINGS["table8"]
        print(f"\n  tables 1-6: {gpd_time:.1f}s, tables 7-8: {pot_time:.1f}s")
        assert gpd_time < 600, gpd_time
        assert pot_time < 1200, pot_time
