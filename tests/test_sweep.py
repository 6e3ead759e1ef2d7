import dataclasses

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, InputDomainError, TabulatedModel,
                        monotonicity_report, shooting, solve_threshold, sweep)

import oracles

DEFAULT_GRID = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]


def _strip_timing(row):
    return dataclasses.replace(row, wall_ms=0.0)


class TestSweep:
    def test_default_grid_monotone(self, vp_model):
        rows = sweep(vp_model, DEFAULT_GRID)
        assert [r.epsilon for r in rows] == DEFAULT_GRID
        assert not any(r.failed for r in rows)
        betas = [r.beta_eps for r in rows]
        ells = [r.ell_eps for r in rows]
        report = monotonicity_report(rows)
        assert report.passed
        assert all(b2 <= b1 + report.slack for b1, b2 in zip(betas, betas[1:]))
        assert all(l2 <= l1 + report.slack for l1, l2 in zip(ells, ells[1:]))

    def test_rows_satisfy_solution_invariants(self, vp_model):
        rows = sweep(vp_model, [0.0, 1.0, 5.0])
        for r in rows:
            assert r.x_eps < r.beta_eps < r.x_bar_eps
            problem = AmbiguityProblem.build(vp_model, r.epsilon)
            assert abs(r.ell_eps - problem.drift(r.beta_eps)) <= 1e-12
            assert r.iterations > 0

    def test_zero_row_matches_oracle(self, vp_model):
        row = sweep(vp_model, [0.0])[0]
        assert abs(row.beta_eps - oracles.BETA0) < 1e-6
        assert abs(row.ell_eps - oracles.ELL0) < 1e-8

    def test_small_ambiguity_continuity_calibration(self, vp_model, sol0):
        # Measured gap at 1e-3 ambiguity is 3.45e-4; assert twice that,
        # far inside the one-percent envelope.
        row = sweep(vp_model, [1e-3])[0]
        assert abs(row.beta_eps - sol0.threshold) < 7e-4
        assert abs(row.beta_eps - sol0.threshold) < 0.01 * sol0.threshold

    def test_large_ambiguity_collapse_bound(self, vp_model):
        row = sweep(vp_model, [100.0])[0]
        assert row.beta_eps <= 2.0 / 102.0
        assert row.x_bar_eps == pytest.approx(2.0 / 102.0, rel=1e-9)

    def test_rows_independent_of_order(self, vp_model):
        grid = [0.0, 1.0, 5.0]
        forward = [_strip_timing(r) for r in sweep(vp_model, grid)]
        separate = [_strip_timing(sweep(vp_model, [e])[0]) for e in grid]
        assert forward == separate

    def test_unsorted_grid_rejected(self, vp_model):
        with pytest.raises(InputDomainError, match="ascending"):
            sweep(vp_model, [1.0, 0.5])
        with pytest.raises(InputDomainError):
            sweep(vp_model, [-1.0, 0.5])

    @pytest.mark.parametrize("grid", [[float("nan")], [0.5, float("inf")]])
    def test_non_finite_level_rejected(self, vp_model, grid):
        # Caught before any row is solved, not reported as a failed row.
        with pytest.raises(InputDomainError, match="'epsilon' must be"):
            sweep(vp_model, grid)

    def test_failed_row_is_flagged_and_sweep_continues(self):
        # Decreasing noise scale violates (A1); the solve refuses, the row is
        # flagged, and later rows still solve.
        xs = np.geomspace(1e-4, 3.0, 200)
        bad = TabulatedModel(xs=xs, mu_values=1.0 - xs,
                             sigma_values=1.0 / (1.0 + xs))
        rows = sweep(bad, [0.0])
        assert rows[0].failed
        assert "Assumption" in rows[0].failure


class TestMonotonicityReport:
    def test_two_row_grid_single_pair(self, vp_model):
        rows = sweep(vp_model, [0.0, 1.0])
        report = monotonicity_report(rows)
        assert report.n_pairs == 1
        assert report.passed

    def test_repeated_level_vacuous_pass(self, vp_model):
        rows = sweep(vp_model, [1.0, 1.0])
        assert rows[0].beta_eps == rows[1].beta_eps
        report = monotonicity_report(rows)
        assert report.passed

    def test_singleton_vacuous_pass(self, vp_model):
        report = monotonicity_report(sweep(vp_model, [0.0]))
        assert report.n_pairs == 0
        assert report.passed

    def test_violation_detected(self, vp_model):
        rows = sweep(vp_model, [0.0, 1.0])
        doctored = [rows[1], dataclasses.replace(rows[0], epsilon=2.0)]
        report = monotonicity_report(doctored)
        assert not report.passed
        assert report.beta_violations and report.ell_violations
        assert any("increased" in line for line in report.lines())

    def test_yields_judged_with_their_own_slack(self, vp_model):
        # A yield rise of 4e-8 is under the threshold slack (5e-8, units of
        # x) but over the yield slack (about 3e-8, units of the drift).
        rows = sweep(vp_model, [0.0, 1.0])
        doctored = [rows[0], dataclasses.replace(
            rows[1], ell_eps=rows[0].ell_eps + 4e-8)]
        report = monotonicity_report(doctored)
        assert report.slack == pytest.approx(5e-8)
        assert report.ell_slack == pytest.approx(
            10.0 * max(r.ell_tolerance for r in rows))
        assert report.ell_slack < 4e-8
        assert not report.passed
        assert report.ell_violations and not report.beta_violations
        assert any("yield slack" in line for line in report.lines())

    def test_slack_follows_the_configured_tolerance(self, vp_model,
                                                     monkeypatch):
        # A coarse BETA_RTOL leaves adjacent thresholds 2e-5 apart on a grid
        # this fine; the module default's slack would be 3e-8.
        monkeypatch.setattr(shooting, "BETA_RTOL", 1e-4)
        rows = sweep(vp_model, [1.0, 1.0001, 1.0002, 1.0003])
        assert all(r.beta_tolerance == 1e-4 * r.x_bar_eps for r in rows)
        report = monotonicity_report(rows)
        assert report.slack == 10.0 * max(r.beta_tolerance for r in rows)
        assert report.passed
