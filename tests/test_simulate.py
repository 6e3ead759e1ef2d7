import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergharvest import (AmbiguityProblem, InputDomainError, SimConfig,
                        SimulationAbortError, estimate_payoff, path_rng,
                        reflect_step, simulate_path, solve_threshold,
                        worst_case_kernel, x0_independence_check)
from ergharvest import simulate

import oracles


class TestReflectStep:
    def test_no_motion(self):
        assert reflect_step(0.5, 0.0, 0.0, 1.0) == (0.5, 0.0)

    def test_overshoot_harvested(self):
        x_next, dz = reflect_step(0.9, 0.15, 0.15, 1.0)
        assert x_next == 1.0
        assert dz == pytest.approx(0.2)

    def test_negative_proposal_clipped_without_harvest(self):
        x_next, dz = reflect_step(0.1, -0.5, 0.0, 1.0)
        assert x_next == 0.0
        assert dz == 0.0

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(0.0, 1.0), drift=st.floats(-2.0, 2.0),
           noise=st.floats(-2.0, 2.0))
    def test_projection_properties(self, x, drift, noise):
        beta = 1.0
        x_next, dz = reflect_step(x, drift, noise, beta)
        proposed = x + drift + noise
        assert 0.0 <= x_next <= beta
        assert dz >= 0.0
        if proposed > beta:
            # Harvest only at the boundary and only by the overshoot.
            assert x_next == beta
            assert dz == pytest.approx(proposed - beta, abs=1e-12)
        elif proposed >= 0.0:
            assert dz == 0.0
            assert x_next == pytest.approx(proposed, abs=1e-12)
        else:
            assert x_next == 0.0
            assert dz == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.2, 0.9, 0.99])
        drifts = np.array([0.0, 0.2, -1.5])
        noises = np.array([0.05, 0.0, 0.0])
        xn, dz = reflect_step(xs, drifts, noises, 1.0)
        for i in range(3):
            sx, sdz = reflect_step(float(xs[i]), float(drifts[i]),
                                   float(noises[i]), 1.0)
            assert xn[i] == sx and dz[i] == sdz


class TestWorstCaseKernel:
    def test_value_at_threshold(self, problem1, sol1):
        got = worst_case_kernel(problem1, sol1, sol1.threshold)
        expected = -problem1.epsilon * problem1.model.sigma(sol1.threshold)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_zero_ambiguity_means_zero_kernel(self, problem0, sol0):
        xs = np.linspace(0.01, sol0.threshold, 7)
        assert np.all(worst_case_kernel(problem0, sol0, xs) == 0.0)

    def test_bounded_by_threshold_noise_scale(self, problem1, sol1):
        xs = np.geomspace(1e-7, sol1.threshold, 20000)
        psi = worst_case_kernel(problem1, sol1, xs)
        bound = problem1.epsilon * problem1.model.sigma(sol1.threshold)
        assert np.max(np.abs(psi)) <= bound * (1.0 + 1e-8)


def _interp(values, idx, frac):
    return values[idx] + frac * np.append(np.diff(values), 0.0)[idx]


class TestWorstCaseTable:
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 5.0, 20.0])
    def test_table_tracks_cubic_kernel(self, eps, vp_model, solutions_by_eps):
        if eps in solutions_by_eps:
            problem, sol = solutions_by_eps[eps]
        else:
            problem = AmbiguityProblem.build(vp_model, eps)
            sol = solve_threshold(problem)
        beta, dt = sol.threshold, 1e-3
        model = problem.model
        table = simulate._WorstCaseStep(problem, sol, beta, dt)
        assert table.xs[0] == sol.grid.nodes_x[0] and table.xs[-1] == beta

        xs = np.geomspace(table.lo, beta, 200001)
        exact = worst_case_kernel(problem, sol, xs)
        idx, frac, low = table.lookup(xs)
        assert not np.any(low)
        scale = eps * model.sigma(beta)
        psi = _interp(worst_case_kernel(problem, sol, table.xs), idx, frac)
        assert np.max(np.abs(psi - exact)) <= 1e-5 * scale

        # The drift also interpolates x mu(x), whose curvature in log x adds
        # an error of the same order; the KL increment is quadratic in psi.
        drift = table.drift_at(idx, frac)
        psi_eff = (drift / dt - xs * model.mu(xs)) / model.sigma(xs)
        assert np.max(np.abs(psi_eff - exact)) <= 5e-5 * scale
        kl_exact = exact * exact * (dt / (2.0 * eps))
        assert (np.max(np.abs(table.kl_at(idx, frac) - kl_exact))
                <= 5e-5 * scale * scale * dt / (2.0 * eps))

        # The node at beta holds the pasted kernel exactly.
        psi_beta = worst_case_kernel(problem, sol, beta)
        assert psi_beta == -eps * model.sigma(beta)
        assert table.drift[-1] == (beta * model.mu(beta)
                                   + model.sigma(beta) * psi_beta) * dt
        assert table.kl[-1] == psi_beta * psi_beta * (dt / (2.0 * eps))

    def test_lookup_edge_cases(self, problem1, sol1):
        table = simulate._WorstCaseStep(problem1, sol1, sol1.threshold, 1e-3)
        lo, beta = table.lo, sol1.threshold
        x = np.array([np.nan, 0.0, lo / 2.0, lo, beta])
        with np.errstate(invalid="ignore"):
            idx, frac, low = table.lookup(x)
            drift = table.drift_at(idx, frac)
            kl = table.kl_at(idx, frac)
        assert np.all((idx >= 0) & (idx <= table.top))
        assert low.tolist() == [False, True, True, False, False]
        assert np.isnan(frac[0]) and np.isnan(drift[0]) and np.isnan(kl[0])
        assert np.all(idx[1:4] == 0) and np.all(frac[1:4] == 0.0)
        assert np.all(drift[1:4] == table.drift[0])
        assert drift[4] == pytest.approx(table.drift[-1], rel=1e-12)
        assert kl[4] == pytest.approx(table.kl[-1], rel=1e-12)

    def test_nan_path_quarantined(self, problem1, sol1, monkeypatch):
        cfg = _small_cfg(problem1, sol1, n_paths=12, horizon=1.0,
                         measure="worstcase", solution=sol1)
        clean = estimate_payoff(cfg)

        class _NanStream:
            def standard_normal(self, m):
                return np.full(m, np.nan)

        real_rng = simulate.path_rng
        monkeypatch.setattr(
            simulate, "path_rng",
            lambda seed, pid: _NanStream() if pid == 0 else real_rng(seed,
                                                                     pid))
        est = estimate_payoff(cfg)
        assert est.n_aborted == 1
        assert est.per_path[0].aborted
        assert not any(s.aborted for s in est.per_path[1:])
        for a, b in zip(clean.per_path[1:], est.per_path[1:]):
            assert a.payoff_estimate == b.payoff_estimate
        rest = np.array([s.payoff_estimate for s in est.per_path[1:]])
        assert est.mean == float(np.mean(rest))


@dataclasses.dataclass(frozen=True)
class _FrozenDrift:
    """Stub coefficients with constant total drift and negligible noise."""

    rate: float = 0.3

    def mu(self, x):
        return self.rate / x

    def sigma(self, x):
        return 1e-12 * x


def _frozen_problem(rate=0.3):
    return AmbiguityProblem(model=_FrozenDrift(rate), epsilon=0.0,
                            drift_peak=0.5, drift_zero=1.0, x_max=10.0)


def _small_cfg(problem, sol, **kw):
    defaults = dict(problem=problem, beta=sol.threshold, x0=sol.threshold,
                    dt=1e-3, horizon=10.0, n_paths=16, seed=123)
    defaults.update(kw)
    return SimConfig(**defaults)


def _assert_same_stats(a, b):
    """Every PathStats field equal bit for bit (NaN equal to NaN)."""
    for f in dataclasses.fields(simulate.PathStats):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f.name
        else:
            assert repr(va) == repr(vb), f.name


class TestSimulatePath:
    def test_constant_drift_harvests_at_that_rate(self):
        problem = _frozen_problem(rate=0.3)
        cfg = SimConfig(problem=problem, beta=1.0, x0=1.0, dt=1e-3,
                        horizon=5.0, n_paths=1, burn_in=0.0, seed=1)
        stats = simulate_path(cfg, 0)
        assert stats.payoff_estimate == pytest.approx(0.3, rel=1e-6)
        assert stats.kl_penalty == 0.0
        assert stats.max_x <= 1.0

    def test_initial_overshoot_is_instant_harvest(self):
        problem = _frozen_problem(rate=0.0)
        cfg = SimConfig(problem=problem, beta=1.0, x0=1.5, dt=1e-3,
                        horizon=1.0, n_paths=1, burn_in=0.0, seed=1)
        stats = simulate_path(cfg, 0)
        # Zero drift and negligible noise: the only harvest is the projection
        # of the starting point onto the boundary.
        assert stats.harvest_total == pytest.approx(0.5, abs=1e-9)

    def test_burn_in_discards_initial_jump(self):
        problem = _frozen_problem(rate=0.0)
        cfg = SimConfig(problem=problem, beta=1.0, x0=1.5, dt=1e-3,
                        horizon=1.0, n_paths=1, burn_in=0.2, seed=1)
        stats = simulate_path(cfg, 0)
        assert stats.harvest_total == pytest.approx(0.0, abs=1e-9)

    def test_single_path_matches_batched_member(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=8, horizon=4.0)
        est = estimate_payoff(cfg)
        alone = simulate_path(cfg, 5)
        batched = est.per_path[5]
        assert alone.payoff_estimate == batched.payoff_estimate
        assert alone.harvest_total == batched.harvest_total
        assert np.array_equal(alone.occupation_histogram,
                              batched.occupation_histogram)

    def test_lone_worst_case_path_matches_batched_member(self, problem1,
                                                         sol1):
        # Long enough that summing one lane pairwise instead of in step
        # order would move its totals.
        cfg = _small_cfg(problem1, sol1, n_paths=4, horizon=20.0, dt=2e-3,
                         measure="worstcase", solution=sol1)
        batched = estimate_payoff(cfg).per_path
        for j in range(cfg.n_paths):
            _assert_same_stats(simulate_path(cfg, j), batched[j])

    def test_seed_reproducibility_and_stream_independence(self, problem0,
                                                          sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=4, horizon=2.0)
        a = simulate_path(cfg, 0)
        b = simulate_path(cfg, 0)
        c = simulate_path(cfg, 1)
        assert a.payoff_estimate == b.payoff_estimate
        assert a.payoff_estimate != c.payoff_estimate
        other_seed = dataclasses.replace(cfg, seed=cfg.seed + 1)
        d = simulate_path(other_seed, 0)
        assert d.payoff_estimate != a.payoff_estimate

    def test_pathwise_state_stays_in_band(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=4, horizon=4.0)
        for s in estimate_payoff(cfg).per_path:
            assert s.max_x <= cfg.beta
            assert s.harvest_total >= 0.0
            assert s.negative_proposals == 0

    def test_occupation_histogram_counts_retained_samples(self, problem0,
                                                          sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=4.0,
                         occupation_stride=4)
        stats = simulate_path(cfg, 0)
        retained = cfg.n_steps - cfg.burn_steps
        expected = math.ceil(retained / cfg.occupation_stride)
        assert stats.occupation_histogram.sum() == expected

    def test_negativity_counter_small_at_defaults(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=8, horizon=10.0, dt=1e-3)
        est = estimate_payoff(cfg)
        steps = (cfg.n_steps - cfg.burn_steps) * cfg.n_paths
        frac = sum(s.negative_proposals for s in est.per_path) / steps
        assert frac < 1e-3


class _PoisonedStream:
    """A path's own stream with NaN draws at steps 1000 to 1009."""

    def __init__(self, gen):
        self.gen, self.k = gen, 0

    def standard_normal(self, m):
        z = self.gen.standard_normal(m)
        z[max(1000 - self.k, 0):max(1010 - self.k, 0)] = np.nan
        self.k += m
        return z


class TestChunkedSettlement:
    """The chunk-settled engine against the step-by-step oracle."""

    @pytest.mark.parametrize("measure", simulate.MEASURES)
    @pytest.mark.parametrize("kw", [
        dict(burn_in=0.0, occupation_stride=1, n_paths=3),
        dict(burn_in=0.024, occupation_stride=3),
        dict(x0=2.0, occupation_stride=8),
        dict(n_paths=1),
    ], ids=["no_burn_in", "mid_on_chunk_edge", "x0_above_beta", "one_lane"])
    def test_matches_step_by_step_oracle(self, kw, measure, problem1, sol1):
        kw = dict(kw)
        x0 = kw.pop("x0", 1.0) * sol1.threshold
        cfg = _small_cfg(problem1, sol1, x0=x0, dt=2e-3, horizon=5.0,
                         n_paths=kw.pop("n_paths", 4), measure=measure,
                         solution=sol1, **kw)
        # The run crosses a block end and ends inside a chunk (so inside a
        # block too).
        chunk = simulate._CHUNK_STEPS
        assert cfg.n_steps > simulate._BLOCK_STEPS and cfg.n_steps % chunk
        if cfg.burn_in == 0.024:
            # Burn-in ends inside the first chunk; the window splits on the
            # edge between two chunks.
            burn = cfg.burn_steps
            mid = burn + (cfg.n_steps - burn) // 2
            assert burn % chunk and mid % chunk == 0
        ids = list(range(cfg.n_paths))
        got = simulate._run_paths(cfg, ids)
        want = oracles.step_paths(cfg, ids)
        assert len(got) == len(want) == cfg.n_paths
        for a, b in zip(got, want):
            _assert_same_stats(a, b)

    @pytest.mark.parametrize("measure", simulate.MEASURES)
    def test_nan_lane_matches_oracle(self, measure, problem1, sol1,
                                     monkeypatch):
        real_rng = simulate.path_rng
        monkeypatch.setattr(
            simulate, "path_rng",
            lambda seed, pid: (_PoisonedStream(real_rng(seed, pid))
                               if pid == 1 else real_rng(seed, pid)))
        cfg = _small_cfg(problem1, sol1, dt=2e-3, horizon=5.0, n_paths=4,
                         occupation_stride=1, measure=measure,
                         solution=sol1)
        ids = list(range(cfg.n_paths))
        got = simulate._run_paths(cfg, ids)
        want = oracles.step_paths(cfg, ids)
        assert [s.aborted for s in got] == [False, True, False, False]
        for a, b in zip(got, want):
            _assert_same_stats(a, b)


class TestEstimate:
    def test_single_path_aggregate_flags_undefined_se(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=1, horizon=2.0)
        est = estimate_payoff(cfg)
        assert est.std_error == 0.0
        assert not est.se_defined
        assert est.n_paths == 1

    def test_split_window_diagnostic_present(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=16, horizon=10.0)
        est = estimate_payoff(cfg)
        assert math.isfinite(est.first_half_mean)
        assert math.isfinite(est.second_half_mean)
        assert est.split_consistent

    def test_jobs_do_not_change_results(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=6, horizon=2.0)
        seq = estimate_payoff(cfg, jobs=1)
        par = estimate_payoff(cfg, jobs=2)
        assert seq.mean == par.mean
        for a, b in zip(seq.per_path, par.per_path):
            assert a.payoff_estimate == b.payoff_estimate

    def test_abort_detection_raises_on_poisoned_kernel(self, problem1, sol1,
                                                       monkeypatch):
        cfg = SimConfig(problem=problem1, beta=sol1.threshold,
                        x0=sol1.threshold, dt=1e-3, horizon=1.0, n_paths=4,
                        seed=9, measure="worstcase", solution=sol1)

        class _NanStream:
            def standard_normal(self, m):
                return np.full(m, np.nan)

        monkeypatch.setattr(simulate, "path_rng",
                            lambda seed, pid: _NanStream())
        with pytest.raises(SimulationAbortError):
            estimate_payoff(cfg)

    def test_dt_refinement_consistency(self, problem0, sol0):
        coarse = estimate_payoff(_small_cfg(problem0, sol0, n_paths=48,
                                            horizon=20.0, dt=1e-3))
        fine = estimate_payoff(_small_cfg(problem0, sol0, n_paths=48,
                                          horizon=20.0, dt=5e-4))
        gap = abs(coarse.mean - fine.mean)
        assert gap <= 3.0 * math.hypot(coarse.std_error, fine.std_error)

    def test_kl_penalty_zero_under_reference(self, problem1, sol1):
        cfg = _small_cfg(problem1, sol1, n_paths=4, horizon=2.0,
                         measure="reference")
        est = estimate_payoff(cfg)
        assert all(s.kl_penalty == 0.0 for s in est.per_path)

    def test_kl_penalty_positive_under_worst_case(self, problem1, sol1):
        cfg = _small_cfg(problem1, sol1, n_paths=4, horizon=2.0,
                         measure="worstcase", solution=sol1)
        est = estimate_payoff(cfg)
        assert all(s.kl_penalty > 0.0 for s in est.per_path)

    def test_reference_run_upper_bounds_adversarial_value(self, problem1,
                                                          sol1):
        # Without the adverse tilt there is no penalty and the drift is more
        # favorable: the estimate can only sit above the adversarial value.
        cfg = _small_cfg(problem1, sol1, n_paths=32, horizon=20.0,
                         measure="reference")
        est = estimate_payoff(cfg)
        assert est.mean >= sol1.long_run_yield - 3.0 * est.std_error


class TestX0Independence:
    def test_consistent_across_starts(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=32, horizon=20.0)
        beta = sol0.threshold
        report = x0_independence_check(cfg, [0.1 * beta, beta, 2.0 * beta])
        assert report.consistent
        assert report.worst_pair_gap() <= 1.0

    def test_batched_starts_equal_separate_runs(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=8, horizon=4.0)
        beta = sol0.threshold
        starts = [0.1 * beta, beta, 2.0 * beta]
        report = x0_independence_check(cfg, starts, jobs=2)
        for x0, mean, se in zip(starts, report.means, report.std_errors):
            est = estimate_payoff(dataclasses.replace(cfg, x0=x0))
            assert (mean, se) == (est.mean, est.std_error)

    def test_no_starts_no_lanes(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=4, horizon=2.0)
        report = x0_independence_check(cfg, [], jobs=2)
        assert report.means == () and report.consistent

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_abort_rule_applies_per_start(self, problem0, sol0):
        # An infinite start is harvested down to beta at once with an
        # infinite harvest, so all its paths abort: 10% of all lanes but
        # every lane of that start.
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=0.1)
        with pytest.raises(SimulationAbortError):
            x0_independence_check(cfg, [sol0.threshold] * 9 + [math.inf])

    def test_zero_standard_errors_compare_raw_gaps(self, problem0, sol0):
        # One path per start: no SE, so any gap is inconsistent and the
        # worst gap is reported unscaled.
        cfg = _small_cfg(problem0, sol0, n_paths=1, horizon=2.0)
        beta = sol0.threshold
        report = x0_independence_check(cfg, [0.1 * beta, beta, 2.0 * beta])
        assert report.std_errors == (0.0, 0.0, 0.0)
        m = report.means
        gaps = [abs(m[0] - m[1]), abs(m[0] - m[2]), abs(m[1] - m[2])]
        assert max(gaps) > 0.0
        assert not report.consistent
        assert report.worst_pair_gap() == max(gaps)

    def test_start_above_boundary_projects_immediately(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=2.0,
                         x0=2.0 * sol0.threshold)
        stats = simulate_path(cfg, 0)
        assert stats.max_x <= sol0.threshold


class TestConfigValidation:
    def test_rejects_bad_fields(self, problem0, sol0):
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=-1.0, x0=0.5)
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, dt=2.0, horizon=1.0)
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, burn_in=0.7)
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, measure="optimist")
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, measure="custom")
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, measure="worstcase")
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, n_bins=0)
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, x0=0.5, occupation_stride=0)

    def test_path_rng_streams_are_distinct(self):
        a = path_rng(1, 0).standard_normal(4)
        b = path_rng(1, 1).standard_normal(4)
        c = path_rng(2, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.array_equal(a, path_rng(1, 0).standard_normal(4))
