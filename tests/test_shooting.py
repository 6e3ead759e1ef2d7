import gc
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ergharvest import (AmbiguityProblem, GeneralLogistic, InputDomainError,
                        MonotonicityViolationError, SingularIntegrationError,
                        TransformBreakdownError, VerhulstPearl,
                        classify_boundary, cole_hopf_slope, integrate_slope,
                        ivp, shooting, slope_above_boundary, solve_threshold,
                        tail_coefficient)
from ergharvest.shooting import BETA_RTOL

import oracles


class NanBelow(VerhulstPearl):
    """The unit logistic model with a drift that is NaN below x = 1e-3."""

    def mu(self, x):
        return math.nan if x < 1e-3 else super().mu(x)


def slopes_at(grid, xs):
    table = dict(zip(grid.xs, grid.slopes))
    return np.array([table[x] for x in xs])


class TestSlopeIntegration:
    def test_boundary_condition_exact(self, problem0):
        grid = integrate_slope(problem0, 0.9, 0.0, 0.4)
        assert grid.xs[0] == 0.9
        assert grid.slopes[0] == 1.0

    def test_unperturbed_derivative_vanishes_at_boundary(self, problem1):
        grid = integrate_slope(problem1, 0.5, 0.0, 0.3)
        assert abs(grid.slope_derivs[0]) <= 1e-6

    def test_perturbed_derivative_matches_forcing(self, problem1):
        for gamma in (1e-3, -1e-2, 0.05):
            grid = integrate_slope(problem1, 0.5, gamma, 0.3,
                                   stop_on_dip=False)
            sigma2 = problem1.model.sigma(0.5) ** 2
            assert 0.5 * sigma2 * grid.slope_derivs[0] == pytest.approx(
                gamma, rel=1e-6)

    def test_matches_linear_closed_form(self, problem0):
        # Zero ambiguity turns the slope ODE linear with a known solution.
        xs = np.linspace(0.85, 0.45, 9)
        grid = integrate_slope(problem0, 0.9, 0.0, 0.4, forced_nodes=xs)
        got = slopes_at(grid, xs)
        expected = oracles.slope_closed_form(xs, 0.9)
        assert np.max(np.abs(got - expected)) < 1e-8
        at_half = slopes_at(grid, [0.5])[0]
        assert at_half == pytest.approx(oracles.G_AT_HALF_B09, abs=1e-8)

    def test_closed_form_oracle_satisfies_ode(self):
        # Substitution audit of the oracle itself at 100 sample points.
        b = 0.9
        lam = b * (1.0 - b)
        xs = np.linspace(0.3, 1.1, 100)
        g = oracles.slope_closed_form(xs, b)
        dg = oracles.slope_closed_form_deriv(xs, b)
        residual = 0.5 * xs * xs * dg + xs * (1.0 - xs) * g - lam
        assert np.max(np.abs(residual)) < 1e-10

    def test_grid_invariants(self, problem0):
        grid = integrate_slope(problem0, 0.7, 0.0, 1e-3)
        assert grid.xs[0] == 0.7
        assert np.all(np.diff(grid.xs) < 0.0)
        assert grid.xs[-1] >= 1e-3 or grid.terminated_early
        if grid.terminated_early:
            assert grid.slope_final < 1.0 - 1e-8

    def test_input_validation(self, problem0):
        with pytest.raises(InputDomainError):
            integrate_slope(problem0, 0.9, 0.0, 0.9)   # x_min >= boundary
        with pytest.raises(InputDomainError):
            integrate_slope(problem0, 20.0, 0.0, 0.1)  # beyond x_max


class TestPerturbationScaling:
    def test_gamma_sweep_is_first_order(self, problem1):
        # sup over [0.3, 0.6] of |g_gamma - g| scales like gamma with a
        # stable constant across three decades.
        nodes = np.linspace(0.6, 0.3, 31)[1:]
        base = integrate_slope(problem1, 0.6, 0.0, 0.3, forced_nodes=nodes,
                               stop_on_dip=False)
        base_vals = slopes_at(base, nodes)
        ratios = []
        for gamma in (1e-2, 1e-3, 1e-4):
            pert = integrate_slope(problem1, 0.6, gamma, 0.3,
                                   forced_nodes=nodes, stop_on_dip=False)
            sup = np.max(np.abs(slopes_at(pert, nodes) - base_vals))
            ratios.append(sup / gamma)
        assert max(ratios) <= 1.05 * min(ratios)
        assert max(ratios) < 10.0

    def test_boundary_continuity_is_first_order(self, problem1):
        y = 0.3
        probe = np.array([y * (1.0 + 1e-12)])
        base = integrate_slope(problem1, 0.6, 0.0, y, forced_nodes=probe,
                               stop_on_dip=False).slope_final
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            moved = integrate_slope(problem1, 0.6 + delta, 0.0, y,
                                    forced_nodes=probe,
                                    stop_on_dip=False).slope_final
            ratios.append(abs(moved - base) / delta)
        assert max(ratios) <= 1.1 * min(ratios)


class TestClassification:
    def test_drift_zero_is_admissible(self, problem0):
        verdict = classify_boundary(problem0, problem0.drift_zero)
        assert verdict.in_set

    def test_near_peak_boundary_is_inadmissible(self, problem0):
        # The closed-form tail coefficient is negative at 1.01 * peak, so the
        # slope must dip; the two verdicts have to agree.
        b = problem0.drift_peak * 1.01
        assert oracles.tail_coefficient(b) < 0.0
        verdict = classify_boundary(problem0, b)
        assert not verdict.in_set
        assert verdict.dip_crossing is not None

    def test_at_or_below_peak_rejected(self, problem0):
        with pytest.raises(InputDomainError):
            classify_boundary(problem0, problem0.drift_peak)
        with pytest.raises(InputDomainError):
            classify_boundary(problem0, 0.5 * problem0.drift_peak)

    def test_verdict_agrees_with_tail_coefficient_sign(self, problem0):
        for b in (0.55, 0.65, 0.75, 0.82, 0.9, 0.99):
            expected = oracles.tail_coefficient(b) > 0.0
            assert classify_boundary(problem0, b).in_set == expected

    @settings(max_examples=20, deadline=None)
    @given(frac=st.floats(min_value=0.02, max_value=0.999))
    def test_grid_invariants_hold_for_arbitrary_boundaries(self, frac):
        problem = AmbiguityProblem.build(VerhulstPearl(), 1.0)
        b = problem.drift_peak + frac * (problem.drift_zero
                                         - problem.drift_peak)
        grid = classify_boundary(problem, b).grid
        assert grid.xs[0] == b
        assert grid.slopes[0] == 1.0
        assert np.all(np.diff(grid.xs) < 0.0)
        if grid.terminated_early:
            assert grid.slope_final < 1.0 - 1e-8


class TestThresholdSolve:
    def test_matches_transcendental_oracle(self, sol0):
        beta_ref = oracles.threshold_root(tol=1e-12)
        assert beta_ref == pytest.approx(oracles.BETA0, abs=1e-11)
        assert abs(sol0.threshold - beta_ref) < 1e-6
        assert abs(sol0.long_run_yield - beta_ref * (1.0 - beta_ref)) < 1e-8

    def test_threshold_strictly_inside_bracket(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            assert problem.drift_peak < sol.threshold < problem.drift_zero

    def test_yield_is_drift_at_threshold(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            assert sol.long_run_yield == pytest.approx(
                problem.drift(sol.threshold), abs=1e-15)

    def test_trace_is_monotone(self, sol0):
        ins = [b for b, kind in sol0.bisection_trace if kind == "in"]
        outs = [b for b, kind in sol0.bisection_trace if kind == "out"]
        assert ins and outs
        assert max(outs) < min(ins)
        assert sol0.iterations == len(sol0.bisection_trace)

    def test_inadmissible_drift_zero_raises(self, problem1, monkeypatch):
        monkeypatch.setattr(shooting, "_tail", lambda *args, **kwargs: 1.0)
        with pytest.raises(MonotonicityViolationError, match="drift zero"):
            solve_threshold(problem1)

    def test_deterministic(self, problem0, sol0):
        again = solve_threshold(problem0)
        assert again.threshold == sol0.threshold
        assert again.long_run_yield == sol0.long_run_yield
        assert np.array_equal(again.grid.nodes_slope, sol0.grid.nodes_slope)
        assert again.bisection_trace == sol0.bisection_trace



GL2 = GeneralLogistic(mu_bar=1.0, gamma_bar=1.0, sigma_bar=1.0, theta=2.0)

# Thresholds from a floor-converged reference that bisects on "the Cole-Hopf
# base function has no zero on (1e-100, b]", integrated in log x.
REFERENCE_THRESHOLDS = [
    ("vp", 0.5, 0.6559955710), ("vp", 1.0, 0.5585961507),
    ("vp", 2.0, 0.4320007666), ("gl2", 0.5, 0.7570951873),
    ("gl2", 1.0, 0.6907440141),
]


def _model(name):
    return VerhulstPearl() if name == "vp" else GL2


def _extinction_root(name, eps):
    """b* in (peak, zero) where the drift equals c* = 1/(8 eps), from the
    drift polynomial: VP b - (1 + eps/2) b^2, GL theta=2 b - eps b^2/2 - b^3."""
    c_star = 1.0 / (8.0 * eps)
    coeffs = ([-(1.0 + 0.5 * eps), 1.0, -c_star] if name == "vp"
              else [-1.0, -0.5 * eps, 1.0, -c_star])
    roots = np.roots(coeffs)
    problem = AmbiguityProblem.build(_model(name), eps)
    inside = [r.real for r in roots if abs(r.imag) < 1e-12
              and problem.drift_peak < r.real < problem.drift_zero]
    assert len(inside) == 1
    return problem, inside[0], c_star


class TestTailCoefficient:
    @pytest.mark.parametrize("name, eps, beta_ref", REFERENCE_THRESHOLDS,
                             ids=[f"{n}-eps{e:g}" for n, e, _ in
                                  REFERENCE_THRESHOLDS])
    def test_reference_thresholds(self, name, eps, beta_ref):
        sol = solve_threshold(AmbiguityProblem.build(_model(name), eps))
        assert abs(sol.threshold - beta_ref) <= 10.0 * sol.beta_tolerance
        assert sol.regime == "interior"

    def test_root_matches_closed_form_at_zero_ambiguity(self, problem0):
        root = brentq(lambda b: tail_coefficient(problem0, b),
                      problem0.drift_peak, problem0.drift_zero, xtol=1e-14)
        assert abs(root - oracles.threshold_root(tol=1e-13)) < 1e-10

    def test_threshold_converges_in_the_floor(self, monkeypatch):
        cases = [(VerhulstPearl(), e) for e in (0.0, 0.5, 1.0, 2.0)] + \
                [(GL2, e) for e in (0.0, 0.5, 1.0)]
        for model, eps in cases:
            problem = AmbiguityProblem.build(model, eps)
            base = solve_threshold(problem)
            assert base.regime == "interior"
            for floor in (1e-8, 1e-12):
                monkeypatch.setattr(shooting, "TAIL_FLOOR", floor)
                moved = solve_threshold(problem).threshold
                assert abs(moved - base.threshold) <= base.beta_tolerance, \
                    (model.family, eps, floor)
            monkeypatch.undo()

    @pytest.mark.parametrize("name, eps", [("vp", 5.0), ("vp", 20.0),
                                           ("gl2", 2.0), ("gl2", 5.0)],
                             ids=["vp-eps5", "vp-eps20", "gl2-eps2",
                                  "gl2-eps5"])
    def test_extinction_rows(self, name, eps):
        problem, b_star, c_star = _extinction_root(name, eps)
        sol = solve_threshold(problem)
        assert sol.regime == "extinction_bound"
        assert abs(sol.threshold - b_star) <= sol.beta_tolerance
        assert sol.long_run_yield == pytest.approx(c_star, rel=1e-12)
        assert sol.bisection_trace == ((sol.threshold - sol.beta_tolerance,
                                        "out"), (sol.threshold, "in"))

    def test_interior_just_above_the_extinction_root(self):
        # VP at eps=3: the drift peak exceeds c*, but b* is inadmissible,
        # so the search starts at b* and the root lies above it.
        problem, b_star, c_star = _extinction_root("vp", 3.0)
        sol = solve_threshold(problem)
        assert sol.regime == "interior"
        assert sol.threshold > b_star + 100.0 * sol.beta_tolerance
        assert sol.long_run_yield < c_star
        assert tail_coefficient(problem, 0.5 * (problem.drift_peak
                                                + b_star)) == math.inf

    @pytest.mark.parametrize("name, eps", [("vp", 0.0), ("vp", 1.0),
                                           ("vp", 2.0), ("gl2", 1.0)],
                             ids=["vp-eps0", "vp-eps1", "vp-eps2", "gl2-eps1"])
    def test_compiled_probe_matches_solve_ivp(self, name, eps):
        problem = AmbiguityProblem.build(_model(name), eps)
        sol = solve_threshold(problem)
        probed = [b for b, _ in sol.bisection_trace]
        lo, hi = min(probed), max(probed)     # the search bracket
        floor = shooting.TAIL_FLOOR * problem.drift_peak
        for b in (sol.threshold, 0.5 * (lo + hi), 0.5 * (lo + sol.threshold)):
            got = tail_coefficient(problem, b)
            ref = oracles.tail_coefficient_ivp(problem, b, floor)
            if abs(ref) > 1e-6:
                assert abs(got - ref) <= 1e-12 * abs(ref), b
            else:
                assert abs(got - ref) <= 1e-15, b

    def test_probes_retain_no_memory(self, problem1):
        # scipy's ode wrapper keeps references on every integrate() call; a
        # shared integrator keeps them pointing at the same objects.
        for _ in range(20):
            tail_coefficient(problem1, 0.6)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(200):
                tail_coefficient(problem1, 0.6)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(d.size_diff for d in after.compare_to(before,
                                                             "filename"))
        assert retained < 64 * 1024

    def test_failed_probe_raises_with_last_x(self, problem1):
        broken = AmbiguityProblem.build(NanBelow(), 1.0)
        healthy = tail_coefficient(problem1, 0.6)
        with pytest.raises(SingularIntegrationError) as err:
            tail_coefficient(broken, 0.6)
        assert 1e-3 <= err.value.last_x < 0.6
        # The shared integrator starts the next probe afresh.
        assert tail_coefficient(problem1, 0.6) == healthy

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_sign_agrees_with_classify_boundary(self, solutions_by_eps, eps):
        problem, sol = solutions_by_eps[eps]
        fracs = np.linspace(0.02, 0.98, 13)
        boundaries = problem.drift_peak + fracs * (problem.drift_zero
                                                   - problem.drift_peak)
        checked = 0
        for b in boundaries:
            if abs(b - sol.threshold) < 1e-3:
                continue
            assert (tail_coefficient(problem, b) <= 0.0) == \
                classify_boundary(problem, b).in_set, b
            checked += 1
        assert checked >= 12


class TestPotential:
    def test_anchoring_and_linear_extension(self, sol0):
        beta = sol0.threshold
        assert sol0.v(beta) == 0.0
        assert sol0.vprime(beta) == 1.0
        assert sol0.v(beta + 1.0) == pytest.approx(1.0, abs=1e-15)
        assert sol0.vprime(beta + 0.5) == 1.0

    def test_slope_matches_optimal_closed_form(self, sol0):
        ell_ref = oracles.ELL0
        xs = np.geomspace(0.05, min(oracles.BETA0, sol0.threshold), 400)
        ours = sol0.vprime(xs)
        expected = oracles.optimal_vprime(xs, ell_ref)
        assert np.max(np.abs(ours - expected) / expected) < 1e-6

    def test_value_difference_matches_quadrature(self, sol0):
        expected = -oracles.optimal_vprime_integral(0.1, 0.4, oracles.ELL0)
        got = sol0.v(0.1) - sol0.v(0.4)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(oracles.V_DIFF_01_04, abs=1e-6)

    def test_slope_never_below_unit_floor(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            assert np.min(sol.grid.nodes_slope) >= 1.0 - 1e-8
            xs = np.geomspace(sol.x_min * 2.0, sol.threshold, 2000)
            assert np.min(sol.vprime(xs)) >= 1.0 - 1e-8


class TestAboveBoundary:
    def test_slope_stays_at_least_one(self, solutions_by_eps):
        for eps, (problem, sol) in solutions_by_eps.items():
            xs, gs, _ = slope_above_boundary(problem, sol.threshold,
                                             problem.drift_zero * 1.8)
            assert np.min(gs) >= 1.0 - 1e-9

    def test_comparison_ordering(self, problem1):
        # For peak <= a < b: g_a <= g_b below a and g_a >= g_b above b.
        a, b = 0.45, 0.6
        low_nodes = np.linspace(0.42, 0.2, 23)
        ga = integrate_slope(problem1, a, 0.0, 0.19, forced_nodes=low_nodes,
                             stop_on_dip=False)
        gb = integrate_slope(problem1, b, 0.0, 0.19, forced_nodes=low_nodes,
                             stop_on_dip=False)
        ga_vals = slopes_at(ga, low_nodes)
        gb_vals = slopes_at(gb, low_nodes)
        assert np.all(ga_vals <= gb_vals + 1e-9)

        high_nodes = np.linspace(0.62, 0.66, 9)
        ga_hi = slope_above_boundary(problem1, a, 0.661,
                                     forced_nodes=high_nodes)
        gb_hi = slope_above_boundary(problem1, b, 0.661,
                                     forced_nodes=high_nodes)
        table_a = dict(zip(ga_hi[0], ga_hi[1]))
        table_b = dict(zip(gb_hi[0], gb_hi[1]))
        for x in high_nodes:
            assert table_a[x] >= table_b[x] - 1e-9

    def test_noise_weighted_slope_bounded_by_threshold_noise(
            self, problem1, sol1):
        # sigma(x) g_b(x) <= sigma(threshold) for boundaries at or below it.
        bound = problem1.model.sigma(sol1.threshold) + 1e-8
        for b in (0.45, 0.5, sol1.threshold):
            grid = integrate_slope(problem1, b, 0.0, sol1.x_min)
            hs = problem1.model.sigma(grid.xs) * grid.slopes
            assert np.max(hs) <= bound


class TestColeHopf:
    def test_boundary_condition(self, problem1):
        grid = cole_hopf_slope(problem1, 0.6, 0.2)
        assert grid.xs[0] == 0.6
        assert grid.slopes[0] == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_direct_integration(self, problem1):
        eval_xs = np.geomspace(0.6, 0.2, 120)
        ch = cole_hopf_slope(problem1, 0.6, 0.2, eval_xs=eval_xs)
        direct = integrate_slope(problem1, 0.6, 0.0, 0.2,
                                 forced_nodes=ch.xs[1:-1])
        table = dict(zip(direct.xs, direct.slopes))
        rel = max(abs(table[x] - g) / abs(table[x])
                  for x, g in zip(ch.xs, ch.slopes) if x in table)
        assert rel < 1e-7

    def test_requires_positive_ambiguity(self, problem0):
        with pytest.raises(InputDomainError):
            cole_hopf_slope(problem0, 0.9, 0.4)

    def test_breakdown_on_inadmissible_boundary(self, problem1):
        # Just above the peak the slope dives to -inf; the linear form's base
        # function crosses zero and the sign of its derivative says so.
        with pytest.raises(TransformBreakdownError) as err:
            cole_hopf_slope(problem1, problem1.drift_peak * 1.02, 1e-4)
        assert err.value.crossing_x is not None
        assert err.value.derivative_sign > 0.0

    def test_breakdown_is_located_to_a_node(self, problem1):
        # The crossing is the first node below the zero of the base
        # function, so a tenfold finer grid moves it up by less than one
        # coarse node ratio.
        b = problem1.drift_peak * 1.02
        crossings = []
        for n in (400, 4000):
            eval_xs = np.geomspace(b, 1e-4, n)
            with pytest.raises(TransformBreakdownError) as err:
                cole_hopf_slope(problem1, b, 1e-4, eval_xs=eval_xs)
            assert err.value.crossing_x in eval_xs
            assert err.value.derivative_sign > 0.0
            crossings.append(err.value.crossing_x)
        coarse, fine = crossings
        assert 0.0 <= math.log(fine / coarse) < math.log(b / 1e-4) / 399


def test_bisection_tolerance_default(sol0, problem0):
    assert sol0.beta_tolerance == pytest.approx(
        BETA_RTOL * problem0.drift_zero)


class TestLinearPotential:
    """The potential from one linear solve, against independent references."""

    def test_slope_matches_zero_ambiguity_closed_form(self, sol0):
        # At eps = 0 the slope ODE is linear with a closed-form solution; the
        # tail coefficient F(beta) ~ 0 cancels in its numerator near zero.
        b = sol0.threshold
        x = sol0.grid.grid_x
        ours = sol0.grid.nodes_slope[np.searchsorted(sol0.grid.nodes_x, x)]
        expected = oracles.slope_closed_form(x, b)
        rel = np.abs(ours - expected) / expected
        assert np.max(rel[x >= 1e-4 * b]) <= 1e-9
        assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("name, eps", [("vp", 0.5), ("vp", 1.0),
                                           ("vp", 2.0), ("gl2", 1.0)],
                             ids=["vp-eps0.5", "vp-eps1", "vp-eps2",
                                  "gl2-eps1"])
    def test_slope_agrees_with_quadratic_shooting(self, name, eps):
        problem = AmbiguityProblem.build(_model(name), eps)
        sol = solve_threshold(problem)
        grid = sol.grid
        ref = integrate_slope(problem, sol.threshold, 0.0, grid.x_min,
                              forced_nodes=grid.grid_x[-2:0:-1])
        assert not (ref.terminated_early or ref.blew_up)
        expected = slopes_at(ref, grid.grid_x)
        ours = grid.nodes_slope[np.searchsorted(grid.nodes_x, grid.grid_x)]
        assert np.max(np.abs(ours - expected) / expected) <= 1e-7

    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0])
    def test_solve_makes_no_cash_karp_call(self, vp_model, eps, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ivp.integrate called on the solve path")

        monkeypatch.setattr(ivp, "integrate", forbidden)
        sol = solve_threshold(AmbiguityProblem.build(vp_model, eps))
        assert sol.grid.nodes_slope[-1] == 1.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0])
    def test_solve_makes_no_solve_ivp_call(self, vp_model, eps, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_ivp called on the solve path")

        # A module that bound the name at import would escape the patch.
        binders = [name for name, module in sys.modules.items()
                   if name.split(".")[0] == "ergharvest"
                   and "solve_ivp" in getattr(module, "__dict__", {})]
        assert binders == []
        monkeypatch.setattr(scipy.integrate, "solve_ivp", forbidden)
        sol = solve_threshold(AmbiguityProblem.build(vp_model, eps))
        assert sol.grid.nodes_slope[-1] == 1.0

    @pytest.mark.parametrize("name, eps", [("vp", 0.0), ("vp", 0.5),
                                           ("vp", 1.0), ("vp", 2.0),
                                           ("vp", 5.0), ("vp", 20.0),
                                           ("gl2", 0.0), ("gl2", 1.0)],
                             ids=["vp-eps0", "vp-eps0.5", "vp-eps1",
                                  "vp-eps2", "vp-eps5", "vp-eps20",
                                  "gl2-eps0", "gl2-eps1"])
    def test_slope_matches_tight_reference(self, name, eps):
        problem = AmbiguityProblem.build(_model(name), eps)
        grid = solve_threshold(problem).grid
        expected = oracles.potential_slope(problem, grid.threshold,
                                           grid.nodes_x)
        rel = np.abs(grid.nodes_slope - expected) / expected
        assert np.max(rel) <= 3e-6
        assert np.max(rel[grid.nodes_x >= 1e-3 * grid.threshold]) <= 5e-11

    def test_nan_rhs_raises_with_last_x(self, sol1):
        # A NaN rhs does not stop LSODA; the rows carry it to the floor.
        broken = AmbiguityProblem.build(NanBelow(), 1.0)
        with pytest.raises(SingularIntegrationError) as err:
            shooting.build_potential(broken, sol1.threshold)
        assert 1e-3 <= err.value.last_x < 1.2e-3

    def test_refused_tolerance_raises_silently(self, problem1, sol1,
                                                monkeypatch, capfd):
        # LSODA refuses rtol 1e-15 ("illegal input") and leaves its rows
        # unset, yet they may all be finite.
        monkeypatch.setattr(shooting, "POTENTIAL_RTOL", 1e-15)
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularIntegrationError,
                               match="Illegal input") as err:
                shooting.build_potential(problem1, sol1.threshold)
        assert err.value.last_x == sol1.threshold
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("eps, boundary", [(0.0, 0.75), (1.0, 0.5)])
    def test_inadmissible_threshold_raises(self, vp_model, eps, boundary):
        problem = AmbiguityProblem.build(vp_model, eps)
        with pytest.raises(InputDomainError, match="not admissible"):
            shooting.build_potential(problem, boundary)
