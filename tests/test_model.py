import dataclasses
import math

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, GeneralLogistic, InputDomainError,
                        TabulatedModel, VerhulstPearl, bracket_points,
                        check_assumptions, model_from_config)


class TestAdjustedDrift:
    def test_vertex_value(self, problem0):
        assert problem0.drift(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_zero_at_carrying_capacity(self, problem0):
        assert problem0.drift(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_ambiguity_shifts_zero(self, vp_model):
        # At eps=2 the bracket is (0.25, 0.5): the drift vanishes at 0.5.
        p = AmbiguityProblem.build(vp_model, 2.0)
        assert p.drift(0.5) == pytest.approx(0.0, abs=1e-15)
        assert p.drift_peak == pytest.approx(0.25, rel=1e-12)

    def test_domain_validation(self, problem0):
        # NaN is outside the domain, alone or inside an array.
        for x in (0.0, -1.0, problem0.x_max * 1.01, math.nan,
                  [0.5, math.nan, 0.7], [math.nan, math.nan]):
            with pytest.raises(InputDomainError):
                problem0.validate_x(x)

    def test_nonincreasing_in_ambiguity(self, vp_model):
        xs = np.geomspace(0.01, 2.0, 64)
        eps_grid = [0.0, 0.1, 1.0, 10.0]
        problems = [AmbiguityProblem.build(vp_model, e) for e in eps_grid]
        values = np.array([p.drift(xs) for p in problems])
        assert np.all(np.diff(values, axis=0) <= 0.0)


class TestBrackets:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0, 10.0])
    def test_verhulst_pearl_closed_form(self, vp_model, eps):
        peak, zero = bracket_points(vp_model, eps)
        expected_peak = 1.0 / (2.0 + eps)
        assert peak == pytest.approx(expected_peak, rel=1e-9)
        assert zero == pytest.approx(2.0 * expected_peak, rel=1e-9)

    def test_zero_is_a_zero(self, vp_model):
        for eps in (0.0, 0.3, 2.0):
            p = AmbiguityProblem.build(vp_model, eps)
            lam_scale = abs(p.drift(p.drift_peak))
            assert abs(p.drift(p.drift_zero)) <= 1e-10 * lam_scale
            assert p.drift_zero >= p.drift_peak

    def test_large_ambiguity_collapse(self, vp_model):
        peak, zero = bracket_points(vp_model, 100.0)
        assert zero == pytest.approx(2.0 / 102.0, rel=1e-9)

    def test_numeric_path_matches_independent_optimizer(self):
        # theta=2 with positive ambiguity has no closed form; compare with
        # scipy's bounded scalar minimizer and Brent root finding.
        from scipy.optimize import brentq, minimize_scalar
        model = GeneralLogistic(mu_bar=1.0, gamma_bar=1.0, sigma_bar=1.0,
                                theta=2.0)
        eps = 1.0
        peak, zero = bracket_points(model, eps)

        def neg_drift(x):
            return -(x * model.mu(x) - 0.5 * eps * model.sigma(x) ** 2)

        ref = minimize_scalar(neg_drift, bounds=(1e-6, 2.0), method="bounded",
                              options={"xatol": 1e-12})
        assert peak == pytest.approx(ref.x, rel=1e-6)
        ref_zero = brentq(lambda x: -neg_drift(x), peak, 5.0, xtol=1e-13)
        assert zero == pytest.approx(ref_zero, rel=1e-9)

    def test_general_logistic_closed_form_at_zero_ambiguity(self):
        model = GeneralLogistic(theta=3.0, gamma_bar=2.0)
        peak, zero = bracket_points(model, 0.0)
        assert peak == pytest.approx((4.0 ** (-1.0 / 3.0)) / 2.0, rel=1e-12)
        assert zero == pytest.approx(0.5, rel=1e-12)

    def test_negative_epsilon_rejected(self, vp_model):
        with pytest.raises(InputDomainError):
            AmbiguityProblem.build(vp_model, -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_epsilon_rejected(self, vp_model, eps):
        with pytest.raises(InputDomainError, match="'epsilon' must be"):
            AmbiguityProblem.build(vp_model, eps)


def _tabulated(sigma_fn, mu_fn=lambda x: 1.0 - x, n=200):
    xs = np.geomspace(1e-4, 3.0, n)
    return TabulatedModel(xs=xs, mu_values=np.array([mu_fn(x) for x in xs]),
                          sigma_values=np.array([sigma_fn(x) for x in xs]))


class TestAssumptions:
    @pytest.mark.parametrize("eps", [0.0, 5.0])
    def test_verhulst_pearl_passes(self, vp_model, eps):
        report = check_assumptions(AmbiguityProblem.build(vp_model, eps))
        assert report.all_passed
        assert not report.heuristic_only

    def test_constant_sigma_fails_a1(self):
        model = _tabulated(lambda x: 1.0)
        problem = AmbiguityProblem.build(model, 0.0)
        report = check_assumptions(problem)
        failing = {c.name for c in report.checks if not c.passed}
        assert "sigma_positive_increasing" in failing or \
            "near_zero_expansion" in failing
        failure = report.first_failure()
        assert failure is not None

    def test_sublinear_crowding_fails_near_zero_bound(self):
        # theta < 1 breaks the linear bound on mu near zero.
        model = GeneralLogistic(theta=0.5)
        problem = AmbiguityProblem.build(model, 0.0)
        report = check_assumptions(problem)
        failing = {c.name for c in report.checks if not c.passed}
        assert "near_zero_expansion" in failing

    def test_tabulated_is_flagged_heuristic(self):
        model = _tabulated(lambda x: x)
        problem = AmbiguityProblem.build(model, 0.0)
        report = check_assumptions(problem)
        assert report.heuristic_only
        assert report.scale_anchor == problem.drift_peak

    def test_tabulated_logistic_divergence_heuristic_passes(self):
        # sigma = x, mu = 1 - x tabulated: both boundaries diverge.
        model = _tabulated(lambda x: x)
        problem = AmbiguityProblem.build(model, 0.0)
        report = check_assumptions(problem)
        a0 = [c for c in report.checks if c.assumption == "A0"][0]
        assert a0.passed
        assert report.anchor_stable


class TestModelFactory:
    def test_roundtrip(self):
        model = model_from_config(
            "verhulst_pearl", {"mu_bar": 2.0, "gamma_bar": 0.5,
                               "sigma_bar": 1.5})
        assert isinstance(model, VerhulstPearl)
        assert (model.mu_bar, model.gamma_bar, model.sigma_bar,
                model.theta) == (2.0, 0.5, 1.5, 1.0)

    def test_unknown_family(self):
        with pytest.raises(InputDomainError, match="unknown model family"):
            model_from_config("gompertz", {})

    def test_tabulated_validation(self):
        with pytest.raises(InputDomainError):
            TabulatedModel(xs=np.array([1.0, 0.5, 2.0]),
                           mu_values=np.zeros(3), sigma_values=np.ones(3))
        with pytest.raises(InputDomainError):
            TabulatedModel(xs=np.array([0.0, 0.5, 1.0, 2.0]),
                           mu_values=np.zeros(4), sigma_values=np.ones(4))

    @pytest.mark.parametrize("x_max", [math.nan, math.inf, 0.0, -1.0])
    def test_tabulated_x_max_positive_finite(self, x_max):
        xs = np.geomspace(1e-4, 3.0, 8)
        with pytest.raises(InputDomainError, match="x_max must be"):
            TabulatedModel(xs=xs, mu_values=1.0 - xs, sigma_values=xs,
                           x_max=x_max)

    def test_verhulst_pearl_is_unit_theta_general_logistic(self):
        vp = VerhulstPearl(mu_bar=1.3, gamma_bar=0.7, sigma_bar=0.9)
        gl = GeneralLogistic(mu_bar=1.3, gamma_bar=0.7, sigma_bar=0.9,
                             theta=1.0)
        xs = np.geomspace(1e-12, 1e3, 4001)
        for name in ("mu", "sigma", "sigma_prime"):
            assert np.array_equal(getattr(vp, name)(xs),
                                  getattr(gl, name)(xs)), name
            assert all(getattr(vp, name)(x) == getattr(gl, name)(x)
                       for x in xs[::50].tolist()), name
        assert vp.near_zero_constants() == gl.near_zero_constants()
        assert np.array_equal(vp.mu(xs), 1.3 * (1.0 - 0.7 * xs))
        # Only the subclass has the bracket in closed form at eps > 0.
        peak = 1.3 / (2.0 * 1.3 * 0.7 + 2.0 * 0.9 ** 2)
        assert vp.analytic_bracket(2.0) == (peak, 2.0 * peak)
        assert gl.analytic_bracket(2.0) is None
        assert dataclasses.asdict(vp) == dataclasses.asdict(gl)
        with pytest.raises(TypeError):
            VerhulstPearl(theta=1.0)

    def test_parameter_positivity(self):
        with pytest.raises(InputDomainError):
            VerhulstPearl(mu_bar=-1.0)
        with pytest.raises(InputDomainError):
            GeneralLogistic(theta=0.0)
