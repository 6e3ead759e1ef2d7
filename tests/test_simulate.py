import dataclasses
import math

import numpy as np
import pytest

from ergharvest import (AmbiguityProblem, GeneralLogistic, InputDomainError,
                        SimConfig, SimulationAbortError, TabulatedModel,
                        estimate_payoff, minimizing_kernel, path_rng,
                        simulate_path, solve_threshold, x0_independence_check)
from ergharvest import simulate

import oracles
from bad_settings import BAD_SETTINGS, IDS


class TestWorstCaseKernel:
    def test_value_at_threshold(self, problem1, sol1):
        got = minimizing_kernel(problem1, sol1.vprime, sol1.threshold)
        expected = -problem1.epsilon * problem1.model.sigma(sol1.threshold)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_zero_ambiguity_means_zero_kernel(self, problem0, sol0):
        xs = np.linspace(0.01, sol0.threshold, 7)
        assert np.all(minimizing_kernel(problem0, sol0.vprime, xs) == 0.0)

    def test_bounded_by_threshold_noise_scale(self, problem1, sol1):
        xs = np.geomspace(1e-7, sol1.threshold, 20000)
        psi = minimizing_kernel(problem1, sol1.vprime, xs)
        bound = problem1.epsilon * problem1.model.sigma(sol1.threshold)
        assert np.max(np.abs(psi)) <= bound * (1.0 + 1e-8)


@pytest.fixture(scope="module")
def tabulated1():
    """The unit logistic as a table (mu = 1 - x, sigma = x) at eps = 1.

    Its noise is not known to be sigma_bar x, so the worst-case engine
    keeps the generic step mean + sigma(x) w.
    """
    xs = np.geomspace(1e-4, 3.0, 200)
    problem = AmbiguityProblem.build(
        TabulatedModel(xs=xs, mu_values=1.0 - xs, sigma_values=xs), 1.0)
    return problem, solve_threshold(problem)


@pytest.fixture(scope="module")
def scaled_noise1():
    """A general logistic with sigma_bar 0.8 at eps = 1: its worst-case
    noise w = Z (sigma_bar sqrt(dt)) differs from sqrt(dt) Z."""
    problem = AmbiguityProblem.build(
        GeneralLogistic(mu_bar=1.0, sigma_bar=0.8, theta=2.0), 1.0)
    return problem, solve_threshold(problem)


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
        # The nodes are the doubles with 44 low zero bits from the first one
        # at or above the potential floor, then beta.
        floor = sol.grid.nodes_x[0]
        assert table.xs[0] == table.lo >= floor and table.xs[-1] == beta
        keys = table.xs[:-1].view(np.int64)
        assert np.all(keys & ((1 << 44) - 1) == 0)
        assert np.all(np.diff(keys) == 1 << 44)
        below, above = (keys[[0, -1]] + [-1 << 44, 1 << 44]).view(float)
        assert below < floor and table.xs[-2] < beta <= above

        xs = np.geomspace(table.lo, beta, 200001)
        exact = minimizing_kernel(problem, sol.vprime, xs)
        cell, low = table.lookup(xs)
        assert not np.any(low)
        assert np.all((table.xs[cell - 1] <= xs) & (xs <= table.xs[cell]))
        scale = eps * model.sigma(beta)
        psi = np.interp(xs, table.xs,
                        minimizing_kernel(problem, sol.vprime, table.xs))
        assert np.max(np.abs(psi - exact)) <= 1e-5 * scale

        # The drift also interpolates x mu(x), whose curvature adds an error
        # of the same order; the KL increment is quadratic in psi.
        drift = table.mean_at(cell, xs) - xs
        psi_eff = (drift / dt - xs * model.mu(xs)) / model.sigma(xs)
        assert np.max(np.abs(psi_eff - exact)) <= 5e-5 * scale
        kl_exact = exact * exact * (dt / (2.0 * eps))
        assert (np.max(np.abs(table.kl_at(cell, xs) - kl_exact))
                <= 5e-5 * scale * scale * dt / (2.0 * eps))

        # The node at beta holds the pasted kernel exactly.
        psi_beta = minimizing_kernel(problem, sol.vprime, beta)
        assert psi_beta == -eps * model.sigma(beta)
        assert table.drift[-1] == (beta * model.mu(beta)
                                   + model.sigma(beta) * psi_beta) * dt
        assert table.kl[-1] == psi_beta * psi_beta * (dt / (2.0 * eps))

    def test_lookup_edge_cases(self, problem1, sol1):
        table = simulate._WorstCaseStep(problem1, sol1, sol1.threshold, 1e-3)
        lo, beta = table.lo, sol1.threshold
        floor = sol1.grid.nodes_x[0]
        assert floor < lo
        x = np.array([np.nan, 0.0, -0.0, floor / 2.0, floor,
                      (floor + lo) / 2.0, lo, beta])
        with np.errstate(invalid="ignore"):
            cell, low = table.lookup(x)
            mean = table.mean_at(cell, x)
            kl = table.kl_at(cell, x)
        top = len(table.xs) - 1
        assert np.all((cell >= 0) & (cell <= top))
        assert low.tolist() == [False] + [True] * 5 + [False, False]
        assert np.isnan(mean[0]) and np.isnan(kl[0])
        # Below lo the step reads lo's values with zero slope.
        assert np.all(cell[1:6] == 0)
        assert np.all(mean[1:6] == x[1:6] + table.drift[0])
        assert np.all(kl[1:6] == table.kl[0])
        assert cell[6] == 1 and cell[7] == top
        assert mean[6] - lo == pytest.approx(table.drift[0], rel=1e-12)
        assert kl[6] == pytest.approx(table.kl[0], rel=1e-12)
        assert mean[7] - beta == pytest.approx(table.drift[-1], rel=1e-12)
        assert kl[7] == pytest.approx(table.kl[-1], rel=1e-12)

    def test_nan_path_quarantined(self, problem1, sol1, monkeypatch):
        cfg = _small_cfg(problem1, sol1, n_paths=12, horizon=1.0,
                         measure="worstcase", solution=sol1)
        clean = estimate_payoff(cfg)

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


    @pytest.mark.parametrize("scaled", [False, True],
                             ids=["vp", "sigma_bar_0.8"])
    def test_fused_proposal_bounded_by_textbook_form(self, scaled, problem1,
                                                     sol1, scaled_noise1):
        # For sigma(x) = sigma_bar x the engine forms the worst-case proposal
        # as a + x (b + w) with w = Z (sigma_bar sqrt(dt)).  It differs from
        # mean + sigma(x) sqrt(dt) Z only by rounding: a few ulps of the
        # magnitudes the two forms add.
        problem, sol = scaled_noise1 if scaled else (problem1, sol1)
        beta, dt = sol.threshold, 2e-3
        table = simulate._WorstCaseStep(problem, sol, beta, dt)
        x = np.concatenate(([0.0], np.geomspace(1e-12, beta, 200000)))
        z = np.random.default_rng(5).standard_normal(x.size)
        cell, _ = table.lookup(x)
        a, b = table.mean_a[cell], table.mean_b[cell]
        w = z * (problem.model.sigma_bar * math.sqrt(dt))
        fused = (w + b) * x + a
        textbook = (table.mean_at(cell, x)
                    + problem.model.sigma(x) * (math.sqrt(dt) * z))
        scale = np.abs(a) + x * (np.abs(b) + np.abs(w))
        assert np.all(np.abs(fused - textbook)
                      <= 4.0 * np.finfo(float).eps * scale)


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
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=4.0)
        stats = simulate_path(cfg, 0)
        assert stats.occupation_histogram.shape == (simulate.N_BINS,)
        retained = cfg.n_steps - cfg.burn_steps
        expected = math.ceil(retained / simulate.OCCUPATION_STRIDE)
        assert stats.occupation_histogram.sum() == expected

    def test_negativity_counter_small_at_defaults(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=8, horizon=10.0, dt=1e-3)
        est = estimate_payoff(cfg)
        steps = (cfg.n_steps - cfg.burn_steps) * cfg.n_paths
        frac = sum(s.negative_proposals for s in est.per_path) / steps
        assert frac < 1e-3


class _NanStream:
    """A stream of NaN draws."""

    def standard_normal(self, m):
        return np.full(m, np.nan)


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
        dict(burn_in=0.0, stride=1, n_paths=3),
        dict(burn_in=0.024, stride=3),
        dict(x0=2.0, stride=8),
        dict(n_paths=1),
        dict(horizon=10.0, burn_in=0.4096, stride=3),
        dict(horizon=6.0, burn_in=1096 / 3000, stride=3),
        dict(model="tabulated"),
        dict(model="scaled_noise"),
        dict(dt=0.25, horizon=600.0, burn_in=0.0),
    ], ids=["no_burn_in", "mid_on_chunk_edge", "x0_above_beta", "one_lane",
            "burn_on_block_edge", "mid_on_block_edge", "tabulated",
            "sigma_bar_0.8", "coarse_dt"])
    def test_matches_step_by_step_oracle(self, kw, measure, problem1, sol1,
                                         tabulated1, scaled_noise1,
                                         monkeypatch):
        kw = dict(kw)
        problem, sol = {"tabulated": tabulated1,
                        "scaled_noise": scaled_noise1,
                        None: (problem1, sol1)}[kw.pop("model", None)]
        monkeypatch.setattr(simulate, "OCCUPATION_STRIDE",
                            kw.pop("stride", simulate.OCCUPATION_STRIDE))
        x0 = kw.pop("x0", 1.0) * sol.threshold
        coarse = "dt" in kw
        cfg = _small_cfg(problem, sol, x0=x0, dt=kw.pop("dt", 2e-3),
                         horizon=kw.pop("horizon", 5.0),
                         n_paths=kw.pop("n_paths", 4), measure=measure,
                         solution=sol, **kw)
        # The run crosses a block end and ends inside a chunk (so inside a
        # block too).
        chunk, block = simulate._CHUNK_STEPS, simulate._BLOCK_STEPS
        assert cfg.n_steps > block and cfg.n_steps % chunk
        burn = cfg.burn_steps
        mid = burn + (cfg.n_steps - burn) // 2
        if cfg.burn_in == 0.024:
            # Burn-in ends inside the first chunk; the window splits on the
            # edge between two chunks.
            assert burn % chunk and mid % chunk == 0
        elif cfg.burn_in == 0.4096:
            # Burn-in ends on the first block end; the window splits inside
            # a chunk.
            assert burn == block and mid % chunk
        elif cfg.burn_in == 1096 / 3000:
            # Burn-in ends inside a chunk; the window splits on the first
            # block end.
            assert burn % chunk and mid == block
        ids = list(range(cfg.n_paths))
        got = simulate._run_paths(cfg, ids)
        want = oracles.step_paths(cfg, ids)
        assert len(got) == len(want) == cfg.n_paths
        for a, b in zip(got, want):
            _assert_same_stats(a, b)
        if coarse:
            # Proposals go negative, so chunks are replayed and counted;
            # worst-case paths also fall below the table floor (reference
            # runs have no table).
            assert sum(s.negative_proposals for s in got) > 0
            assert (sum(s.floor_clamps for s in got) > 0) == (
                measure == "worstcase")

    @pytest.mark.parametrize("measure", simulate.MEASURES)
    def test_nan_lane_matches_oracle(self, measure, problem1, sol1,
                                     monkeypatch):
        real_rng = simulate.path_rng
        monkeypatch.setattr(
            simulate, "path_rng",
            lambda seed, pid: (_PoisonedStream(real_rng(seed, pid))
                               if pid == 1 else real_rng(seed, pid)))
        monkeypatch.setattr(simulate, "OCCUPATION_STRIDE", 1)
        cfg = _small_cfg(problem1, sol1, dt=2e-3, horizon=5.0, n_paths=4,
                         measure=measure, solution=sol1)
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

    def test_batched_starts_equal_separate_runs(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=8, horizon=4.0)
        beta = sol0.threshold
        starts = [0.1 * beta, beta, 2.0 * beta]
        report = x0_independence_check(cfg, starts, jobs=2)
        for x0, mean, se in zip(starts, report.means, report.std_errors):
            est = estimate_payoff(dataclasses.replace(cfg, x0=x0))
            assert (mean, se) == (est.mean, est.std_error)

    @pytest.mark.parametrize("jobs", [2.5, True, False, 0, -3, "2", None])
    def test_jobs_must_be_a_positive_integer(self, problem0, sol0, jobs):
        # The rule is checked before any lane runs, also with no starts.
        cfg = _small_cfg(problem0, sol0, n_paths=4, horizon=2.0)
        for run in (lambda: estimate_payoff(cfg, jobs=jobs),
                    lambda: x0_independence_check(cfg, [sol0.threshold],
                                                  jobs=jobs),
                    lambda: x0_independence_check(cfg, [], jobs=jobs)):
            with pytest.raises(InputDomainError, match="'jobs'"):
                run()

    def test_no_starts_no_lanes(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=4, horizon=2.0)
        report = x0_independence_check(cfg, [], jobs=2)
        assert report.means == () and report.consistent

    def test_abort_rule_applies_per_start(self, problem0, sol0,
                                          monkeypatch):
        # The batch opens one stream per lane in lane order, start by start;
        # NaN draws in the last start's two lanes abort 10% of all lanes but
        # every lane of that start.
        lanes = iter(range(20))
        real_rng = simulate.path_rng
        monkeypatch.setattr(
            simulate, "path_rng",
            lambda seed, pid: (_NanStream() if next(lanes) >= 18
                               else real_rng(seed, pid)))
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=0.1)
        with pytest.raises(SimulationAbortError):
            x0_independence_check(cfg, [sol0.threshold] * 10)

    def test_zero_standard_errors_compare_raw_gaps(self, problem0, sol0):
        # One path per start: no SE, so any gap is inconsistent.
        cfg = _small_cfg(problem0, sol0, n_paths=1, horizon=2.0)
        beta = sol0.threshold
        report = x0_independence_check(cfg, [0.1 * beta, beta, 2.0 * beta])
        assert report.std_errors == (0.0, 0.0, 0.0)
        m = report.means
        gaps = [abs(m[0] - m[1]), abs(m[0] - m[2]), abs(m[1] - m[2])]
        assert max(gaps) > 0.0
        assert not report.consistent

    def test_start_above_boundary_projects_immediately(self, problem0, sol0):
        cfg = _small_cfg(problem0, sol0, n_paths=2, horizon=2.0,
                         x0=2.0 * sol0.threshold)
        stats = simulate_path(cfg, 0)
        assert stats.max_x <= sol0.threshold


class TestConfigValidation:
    def test_rejects_bad_fields(self, problem0, sol0):
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=-1.0, x0=0.5)
        # beta obeys the problem's one domain rule, 0 < beta <= x_max.
        for beta in (2.0 * problem0.x_max, 1e6):
            with pytest.raises(InputDomainError, match="'beta'"):
                SimConfig(problem=problem0, beta=beta, x0=0.5)
        # So does x0.
        for x0 in (2.0 * problem0.x_max, 1e300):
            with pytest.raises(InputDomainError, match="'x0'"):
                SimConfig(problem=problem0, beta=1.0, x0=x0)
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
        # The histogram's bins and stride are simulate's constants.
        for retired in ("n_bins", "occupation_stride"):
            with pytest.raises(TypeError, match=retired):
                SimConfig(problem=problem0, beta=1.0, **{retired: 8})

    @pytest.mark.parametrize("key, value", BAD_SETTINGS, ids=IDS)
    def test_refuses_each_bad_setting(self, problem0, key, value):
        with pytest.raises(InputDomainError, match=f"'{key}' must be"):
            SimConfig(problem=problem0, beta=1.0, **{key: value})

    def test_settings_normalized_and_x0_defaults_to_beta(self, problem0):
        cfg = SimConfig(problem=problem0, beta=np.float64(0.75), dt=1,
                        horizon=200, burn_in=0, n_paths=np.int64(3))
        assert (cfg.beta, cfg.x0, cfg.dt, cfg.horizon, cfg.burn_in,
                cfg.n_paths) == (0.75, 0.75, 1.0, 200.0, 0.0, 3)
        assert all(type(v) is float for v in (cfg.beta, cfg.x0, cfg.dt,
                                               cfg.horizon, cfg.burn_in))
        assert type(cfg.n_paths) is int
        assert dataclasses.replace(cfg, x0=None).x0 == 0.75

    @pytest.mark.parametrize("measure", simulate.MEASURES)
    def test_refuses_a_solution_of_another_problem(self, solutions_by_eps,
                                                   sol1, measure):
        # An eps-1 solution simulated at eps 0.5 would estimate neither
        # level's yield.
        problem = solutions_by_eps[0.5][0]
        with pytest.raises(InputDomainError, match="another problem"):
            SimConfig(problem=problem, beta=sol1.threshold, dt=1e-3,
                      horizon=5.0, n_paths=8, measure=measure, solution=sol1)

    @pytest.mark.parametrize("fields", [
        {"horizon": math.inf}, {"dt": math.nan}, {"dt": 1e-320},
        {"burn_in": math.nan}, {"x0": math.nan}])
    def test_rejects_non_finite_ranges(self, problem0, fields):
        # NaN fails every bound; an infinite horizon or a subnormal dt
        # would overflow the step count.
        with pytest.raises(InputDomainError):
            SimConfig(problem=problem0, beta=1.0, **{"x0": 0.5, **fields})

    def test_seed_must_key_its_own_streams(self, problem0):
        # path_rng keeps the seed's low 64 bits, so 2**64 + 7 replays 7.
        assert np.array_equal(path_rng(2 ** 64 + 7, 0).standard_normal(4),
                              path_rng(7, 0).standard_normal(4))
        for seed in (2 ** 64 + 7, -1, True):
            with pytest.raises(InputDomainError, match="'seed' must be"):
                SimConfig(problem=problem0, beta=1.0, x0=0.5, seed=seed)
        SimConfig(problem=problem0, beta=1.0, x0=0.5, seed=2 ** 64 - 1)

    def test_path_rng_streams_are_distinct(self):
        a = path_rng(1, 0).standard_normal(4)
        b = path_rng(1, 1).standard_normal(4)
        c = path_rng(2, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)
        assert np.array_equal(a, path_rng(1, 0).standard_normal(4))


class TestRetainedWindow:
    def test_rejects_a_window_under_two_steps(self):
        # Two steps with half burned leave one retained step: no split.
        with pytest.raises(InputDomainError, match="retained window"):
            SimConfig(problem=_frozen_problem(), beta=1.0, x0=1.0, dt=1e-3,
                      horizon=2e-3, burn_in=0.5)

    def test_two_step_window_splits_into_finite_halves(self):
        cfg = SimConfig(problem=_frozen_problem(rate=0.3), beta=1.0, x0=1.0,
                        dt=1e-3, horizon=2e-3, n_paths=2, burn_in=0.0)
        for stats in estimate_payoff(cfg).per_path:
            assert stats.first_half_payoff == pytest.approx(0.3, rel=1e-6)
            assert stats.second_half_payoff == pytest.approx(0.3, rel=1e-6)
