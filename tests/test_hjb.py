import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, InputDomainError, apply_operator,
                        build_truncated, classify_boundary, minimizing_kernel,
                        solve_threshold, tail_coefficient, verify_solution,
                        violation_delta)

import oracles


def unit_slope(x):
    return np.ones_like(np.asarray(x, dtype=float))


def zero_curvature(x):
    return np.zeros_like(np.asarray(x, dtype=float))


class TestOperator:
    def test_unit_slope_recovers_adjusted_drift(self, problem1):
        for x in (0.1, 0.5, 1.2):
            assert apply_operator(problem1, unit_slope, zero_curvature, x) \
                == pytest.approx(problem1.drift(x), abs=1e-15)

    def test_risk_neutral_reduction(self, problem0):
        assert apply_operator(problem0, unit_slope, zero_curvature, 0.3) \
            == pytest.approx(0.3 * 0.7, abs=1e-15)

    def test_optimal_closed_form_is_harmonic(self, problem0):
        # The optimal slope and its analytic derivative reproduce the yield
        # exactly: the residual is pure rounding.
        c = oracles.ELL0
        xs = np.linspace(0.05, 0.79, 100)
        vals = apply_operator(problem0,
                              lambda x: oracles.optimal_vprime(x, c),
                              lambda x: oracles.optimal_vsecond(x, c), xs)
        assert np.max(np.abs(vals - c)) < 1e-8

    def test_minimizer_identity(self, problem1):
        # Substituting the pointwise minimizer into the unminimized form
        # reproduces the quadratic form to rounding.
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 0.6, 64)
        c = oracles.ELL0
        fp = oracles.optimal_vprime(xs, c)
        fpp = oracles.optimal_vsecond(xs, c)
        p = minimizing_kernel(problem1, lambda x: oracles.optimal_vprime(x, c),
                              xs)
        sig = problem1.model.sigma(xs)
        mu = problem1.model.mu(xs)
        eps = problem1.epsilon
        assert np.allclose(p, -eps * sig * fp, atol=1e-15)
        first_line = (0.5 * sig ** 2 * fpp + (xs * mu + sig * p) * fp
                      + p * p / (2.0 * eps))
        second_line = apply_operator(
            problem1, lambda x: oracles.optimal_vprime(x, c),
            lambda x: oracles.optimal_vsecond(x, c), xs)
        assert np.max(np.abs(first_line - second_line)) < 1e-10


class TestVerification:
    def test_full_reports_pass(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            report = verify_solution(sol)
            assert report.verdict, (eps, report.summary_lines())
            assert report.max_abs_residual_left <= 1e-6
            assert report.max_excess_right <= 1e-8
            assert report.min_vprime_left >= 1.0 - 1e-8
            assert report.pasting_slope_gap <= 1e-10
            assert report.pasting_curvature <= 1e-6
            assert report.fd_max_disagreement <= 1e-4

    def test_right_branch_excess_is_zero(self, problem0, sol0):
        # Past the threshold the operator value is the adjusted drift, which
        # only falls: the excess must vanish identically.
        xs = sol0.grid.grid_right_x
        lv = apply_operator(problem0, unit_slope, zero_curvature, xs)
        assert np.max(lv - sol0.long_run_yield) <= 0.0

    def test_identity_and_difference_curvatures_agree(self, sol0):
        g = sol0.grid
        fd = (g.fd_slope_plus - g.fd_slope_minus) / (2.0 * g.fd_h)
        ode = sol0.vsecond(g.fd_x)
        rel = np.abs(fd - ode) / (1.0 + np.abs(ode))
        assert np.max(rel) <= 1e-4

    def test_noise_weighted_slope_bound(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            xs = np.geomspace(sol.x_min, sol.threshold, 3000)
            hs = problem.model.sigma(xs) * sol.vprime(xs)
            assert np.max(hs) <= problem.model.sigma(sol.threshold) + 1e-8


class TestTruncatedPotential:
    def test_continuity_at_dip(self, problem1, sol1):
        tp = build_truncated(problem1, sol1.threshold * (1.0 - 2.0 ** -5),
                             sol1.long_run_yield)
        a = tp.dip_x
        assert tp.vprime(a) == pytest.approx(1.0, abs=1e-8)
        assert tp.vprime(a * (1.0 - 1e-9)) == pytest.approx(1.0, abs=1e-7)
        assert tp.vprime(a * (1.0 + 1e-9)) == pytest.approx(1.0, abs=1e-7)

    def test_dip_point_shrinks_toward_threshold(self, problem1, sol1):
        near = build_truncated(problem1, sol1.threshold * (1.0 - 1e-3),
                               sol1.long_run_yield)
        far = build_truncated(problem1, sol1.threshold * (1.0 - 1e-1),
                              sol1.long_run_yield)
        assert near.dip_x < far.dip_x

    def test_dip_slope_positive_and_linear_piece_dips(self, problem1, sol1):
        # The ODE's derivative at the unit crossing is positive throughout
        # the bracket, so the linear extension falls below one under the dip;
        # the flag records it instead of assuming the opposite sign.
        for frac in (0.9, 0.95, 0.99):
            tp = build_truncated(problem1, sol1.threshold * frac,
                                 sol1.long_run_yield)
            assert tp.slope_at_dip > 0.0
            assert tp.dips_below_one
            assert tp.vprime(tp.dip_x * 0.5) < 1.0

    def test_admissible_boundary_rejected(self, problem1, sol1):
        with pytest.raises(InputDomainError):
            build_truncated(problem1, sol1.threshold, sol1.long_run_yield)
        with pytest.raises(InputDomainError):
            build_truncated(problem1, problem1.drift_zero,
                            sol1.long_run_yield)

    def test_dip_below_the_grid_floor_is_not_called_admissible(
            self, vp_model):
        # At eps=2, 1e-4 below the threshold the tail coefficient is positive
        # (inadmissible) but the dip lies below the shooting floor, where the
        # dip-shooting verdict still reads in-set.
        problem = AmbiguityProblem.build(vp_model, 2.0)
        sol = solve_threshold(problem)
        b = sol.threshold - 1e-4
        assert tail_coefficient(problem, b) > 0.0
        assert classify_boundary(problem, b).in_set
        with pytest.raises(InputDomainError, match="below the grid floor"):
            build_truncated(problem, b, sol.long_run_yield)

    @pytest.mark.parametrize("k", [3, 5, 7, 10])
    def test_dip_matches_tight_implicit_reference(self, problem1, sol1, k):
        # Criterion 6's boundaries, against Radau at rtol 1e-13.
        b = sol1.threshold * (1.0 - 2.0 ** -k)
        tp = build_truncated(problem1, b, sol1.long_run_yield)
        ref = oracles.dip_crossing(problem1, b, 2e-8 * problem1.drift_peak)
        assert tp.dip_x == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert tp.vprime(tp.dip_x) == 1.0

    def test_ode_branch_excess_positive_and_vanishing(self, problem1, sol1):
        # On [dip, boundary] the operator value is the drift at the boundary;
        # the drift falls past the peak, so boundaries below the threshold
        # overshoot the yield from above, vanishing as they approach it.
        excesses = []
        for k in (3, 6, 9):
            b = sol1.threshold * (1.0 - 2.0 ** -k)
            excesses.append(problem1.drift(b) - sol1.long_run_yield)
        assert all(e > 0.0 for e in excesses)
        assert excesses == sorted(excesses, reverse=True)

    def test_violation_positive_decreasing_to_zero(self, problem1, sol1):
        deltas = []
        for k in range(3, 11):
            b = sol1.threshold * (1.0 - 2.0 ** -k)
            tp = build_truncated(problem1, b, sol1.long_run_yield)
            deltas.append(violation_delta(problem1, tp))
        assert all(d >= -1e-8 for d in deltas)
        for earlier, later in zip(deltas, deltas[1:]):
            assert later <= earlier + 1e-6
        assert deltas[-1] < deltas[0]
        assert deltas[-1] < 1e-3

    def test_violation_stable_under_grid_floor_refinement(
            self, problem1, sol1):
        tp = build_truncated(problem1, sol1.threshold * (1.0 - 2.0 ** -6),
                             sol1.long_run_yield)
        values = [violation_delta(problem1, tp, grid_floor=f)
                  for f in (1e-4, 1e-6, 1e-8)]
        assert max(values) - min(values) < 1e-9

    def test_curvature_constant_under_dip(self, problem1, sol1):
        tp = build_truncated(problem1, sol1.threshold * 0.95,
                             sol1.long_run_yield)
        xs = np.geomspace(tp.dip_x * 1e-3, tp.dip_x * 0.99, 50)
        assert np.allclose(tp.vsecond(problem1, xs), tp.slope_at_dip)
