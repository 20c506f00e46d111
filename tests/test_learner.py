"""Data-driven learning: rank guards, convergence, shadow augmentation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slqt.benchmarks import coupled_oscillators
from slqt.errors import (ConfigError, MaxIterExceeded, NonPositiveP,
                         RankDeficient, ShadowUncontrollable)
from slqt.model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                        StochasticSystem, TrackingProblem)
from slqt.bpi import feedforward_gains, solve_tracking
from slqt.learner import (ShadowConfig, _shadow_series, learn_feedback,
                          learn_feedforward, learn_shadow, shadow_regressors)
from slqt.regressors import MomentTable, accumulate_raw_moments, assemble_psi, psi_rhs
from slqt.sim import (ProbingSignal, SimConfig, _on_grid, propagate_moments_exact,
                      run_ensemble)
from slqt.symquad import vech

# x_d' = 0 from x_d0 = 1
STILL = ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[1.0])


def scalar_plant():
    return StochasticSystem(A=np.array([[0.0]]), B=np.array([[1.0]]),
                            C=np.array([[0.1]]), D=np.array([[0.0]]),
                            H=np.array([[1.0]]))


def scalar_moments(hyper, l=60, probing=True):
    """The scalar plant's exact table, discounted at hyper's alpha_tilde
    (not at all when hyper is None)."""
    sys = scalar_plant()
    sig = ProbingSignal(1.0, 8, (-30.0, 30.0), seed=4) if probing else None
    cfg = SimConfig(h=1e-4, sample_period=1e-3, window=0.05, l=l, n_paths=1)
    discount = 0.0 if hyper is None else hyper.alpha_tilde
    traj = propagate_moments_exact(sys, sig, np.array([1.0]), cfg, discount=discount)
    return accumulate_raw_moments(traj, cfg, sys.H, STILL)


def test_scalar_learner_hits_closed_form():
    hyper = BpiHyperParams()
    tab = scalar_moments(hyper)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    learned = learn_feedback(tab, cost, hyper)
    p_true = (0.01 + np.sqrt(4.0001)) / 2.0
    assert learned.P_star[0, 0] == pytest.approx(p_true, abs=1e-5)
    assert learned.K_star[0, 0] == pytest.approx(p_true, abs=1e-5)
    assert learned.crossing_iteration >= 1
    assert learned.total_iterations == len(learned.trace)
    # the final pair and the crossing are read from the trace
    assert learned.P_star is learned.trace[-1].P
    assert learned.K_star is learned.trace[-1].K
    crossing = learned.crossing_iteration
    assert learned.trace[crossing - 1].phase == 1 and learned.trace[crossing].phase == 2


def test_unforced_data_with_input_noise_is_rank_deficient():
    sys = StochasticSystem(A=np.array([[-0.2]]), B=np.array([[1.0]]),
                           C=np.array([[0.1]]), D=np.array([[0.05]]),
                           H=np.array([[1.0]]))
    hyper = BpiHyperParams()
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=30, n_paths=16,
                    base_seed=2)
    ds = run_ensemble(sys, None, np.array([1.0]), cfg,
                      discount=hyper.alpha_tilde)
    tab = accumulate_raw_moments(ds, cfg, sys.H, STILL)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    with pytest.raises(RankDeficient) as exc:
        learn_feedback(tab, cost, hyper)
    assert exc.value.report is not None
    assert exc.value.report.rank < exc.value.report.required_rank


def test_swapped_window_endpoints_fail_loudly():
    # reversing the endpoint moments flips the sign of the value estimate;
    # the step-size update must refuse the indefinite matrix
    hyper = BpiHyperParams()
    tab = scalar_moments(hyper)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    bad = dataclasses.replace(tab, G0=tab.GT, GT=tab.G0)
    with pytest.raises(NonPositiveP):
        learn_feedback(bad, cost, hyper)


def test_iteration_budget_is_enforced():
    hyper = BpiHyperParams(max_iter=1)
    tab = scalar_moments(hyper)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    with pytest.raises(MaxIterExceeded):
        learn_feedback(tab, cost, hyper)


def _diverge_learner(hyper, cost):
    learn_feedback(scalar_moments(hyper), cost, hyper)


def _diverge_model(hyper, cost):
    solve_tracking(TrackingProblem(
        system=scalar_plant(),
        reference=ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[0.0]),
        cost=cost, hyper=hyper))


@pytest.mark.parametrize("run, diagnostics", [
    (_diverge_learner, {"residual"}),
    (_diverge_model, {"residual", "condition", "abscissa"}),
], ids=["learner", "model"])
def test_stalled_alpha_carries_the_partial_trace(monkeypatch, run, diagnostics):
    # an alpha update that never advances keeps phase I below gamma until
    # its budget of three steps runs out
    import slqt.bpi
    from slqt.cli import _error_block

    monkeypatch.setattr(slqt.bpi, "alpha_update", lambda alpha, *args: alpha)
    hyper = BpiHyperParams(max_iter=3)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    with pytest.raises(MaxIterExceeded) as exc:
        run(hyper, cost)
    trace = exc.value.trace
    assert [(st.index, st.phase, st.alpha) for st in trace] == \
        [(1, 1, hyper.alpha0), (2, 1, hyper.alpha0), (3, 1, hyper.alpha0)]
    block = _error_block(exc.value)
    assert block["type"] == "MaxIterExceeded"
    assert [(r["iteration"], r["phase"], r["alpha"]) for r in block["trace"]] == \
        [(1, 1, 0.1), (2, 1, 0.1), (3, 1, 0.1)]
    for r, st in zip(block["trace"], trace):
        assert set(r) == {"iteration", "phase", "alpha", "K", "P"} | diagnostics
        np.testing.assert_array_equal(r["K"], st.K)
        np.testing.assert_array_equal(r["P"], st.P)
        for k in diagnostics:
            assert r[k] == getattr(st, k)


def test_learned_trace_rows_carry_the_least_squares_residual():
    from slqt.cli import _payload_learned

    hyper = BpiHyperParams()
    tab = scalar_moments(hyper)
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    learned = learn_feedback(tab, cost, hyper)
    block = _payload_learned(learned)
    assert "residuals" not in block
    rows = block["trace"]
    assert [r["residual"] for r in rows] == [st.residual for st in learned.trace]
    # iterate 1 evaluates the zero gain at alpha0 under the forcing theta
    psi = assemble_psi(tab, 0.0, np.zeros((1, 1)))
    rhs = psi_rhs(tab, hyper.theta_for(1))
    theta = np.linalg.lstsq(psi, rhs, rcond=None)[0]
    assert rows[0]["residual"] == pytest.approx(np.linalg.norm(psi @ theta - rhs),
                                                rel=1e-12)


def shadow_pair(r_val=2.0):
    """Small two-state plant with a rotating reference and one shadow pair."""
    plant = StochasticSystem(A=np.array([[0.0, 1.0], [-1.5, -0.1]]),
                             B=np.array([[0.0], [1.0]]),
                             C=0.05 * np.eye(2), D=np.zeros((2, 1)),
                             H=np.array([[1.0, 0.0]]))
    cost = CostWeights(Q=np.array([[4.0]]), R=np.array([[r_val]]))
    shadow = ShadowConfig(
        A_a=np.array([[-0.5, 1.2], [-0.8, -1.0]]),
        u_a=ProbingSignal(2.0, 20, (-40.0, 40.0), seed=13),
        x_a0=np.zeros(2),
        F_a=np.array([[0.0, 1.3], [-1.3, 0.0]]),
        y_a0=np.array([1.0, -0.5]),
        h=1e-5,
    )
    return plant, cost, shadow


def assert_annihilates_consistent_pairs(shadow, B, R, t_global, window, seed):
    """Omega_K kills [vech(P); vec(R^-1 B'P)], Omega_F [vec(Pi); vec(R^-1 B'Pi)]."""
    omega_K, omega_F = shadow_regressors(shadow, B, R, t_global, window)
    rng = np.random.default_rng(seed)
    scale_K = np.abs(omega_K).max()
    scale_F = np.abs(omega_F).max()
    for trial in range(10):
        P = rng.normal(size=(shadow.n, shadow.n))
        P = P + P.T
        K = np.linalg.solve(R, B.T @ P)
        theta_k = np.concatenate([vech(P), K.ravel(order="F")])
        assert np.abs(omega_K @ theta_k).max() < 1e-6 * max(1.0, scale_K)
        Pi = rng.normal(size=(shadow.n, shadow.n_d))
        F = np.linalg.solve(R, B.T @ Pi)
        theta_f = np.concatenate([Pi.ravel(order="F"), F.ravel(order="F")])
        assert np.abs(omega_F @ theta_f).max() < 1e-6 * max(1.0, scale_F)


def test_shadow_rows_annihilate_consistent_pairs():
    plant, cost, shadow = shadow_pair()
    assert_annihilates_consistent_pairs(shadow, plant.B, cost.R,
                                        np.array([0.0, 0.3, 0.6, 0.9]), 0.1, seed=7)


entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(arrays(float, (2, 2), elements=entries), arrays(float, (2, 1), elements=entries),
       arrays(float, 4, elements=entries), st.floats(0.2, 3.0),
       st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
def test_shadow_rows_annihilate_consistent_pairs_for_random_systems(M, B, x0y0, w, r, seed):
    # a stable A_a (spectral abscissa -0.5) with well-conditioned modes,
    # a rotating F_a and a fresh probing draw
    A_a = M - (np.linalg.eigvals(M).real.max() + 0.5) * np.eye(2)
    assume(np.linalg.cond(np.linalg.eig(A_a)[1]) < 1e6)
    shadow = ShadowConfig(A_a=A_a, u_a=ProbingSignal(1.0, 6, (-20.0, 20.0), seed=seed),
                          x_a0=x0y0[:2], F_a=np.array([[0.0, w], [-w, 0.0]]),
                          y_a0=x0y0[2:], h=1e-4)
    assert_annihilates_consistent_pairs(shadow, B, np.array([[r]]),
                                        np.array([0.0, 0.05, 0.12]), 0.05, seed=seed)


def dop853_series(shadow, B, t):
    """z = [x_a; u; y_a] at the sorted times t and the integrals of z z'
    from t[0], from DOP853 at rtol 1e-12 on [x_a; y_a; int z z'], the
    oracle."""
    from scipy.integrate import solve_ivp

    n, n_d = shadow.n, shadow.n_d

    def z_of(s, y):
        return np.concatenate([y[:n], np.atleast_1d(shadow.u_a(s)), y[n:n + n_d]])

    def rhs(s, y):
        z = z_of(s, y)
        return np.concatenate([shadow.A_a @ y[:n] + B[:, 0] * z[n],
                               shadow.F_a @ y[n:n + n_d], np.outer(z, z).ravel()])

    d = n + 1 + n_d
    y0 = np.concatenate([shadow.x_a0, shadow.y_a0, np.zeros(d * d)])
    sol = solve_ivp(rhs, (0.0, t[-1]), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                    t_eval=t)
    assert sol.success
    Y = sol.y.T
    Z = np.array([z_of(s, y) for s, y in zip(t, Y)])
    gram = Y[:, n + n_d:].reshape(-1, d, d)
    return Z, gram - gram[0]


@pytest.mark.parametrize("example", ["shadow_pair", "example2"])
def test_closed_form_shadow_series_matches_dop853(example):
    if example == "shadow_pair":
        plant, _, shadow = shadow_pair()
    else:
        bundle = coupled_oscillators()
        plant, shadow = bundle.plant, bundle.shadow
    # a start off zero, times on no grid, a gap of 5e-6, and a last gap of
    # 0.15 s that the panel rule splits (24 panels for shadow_pair's top
    # rate of 80 rad/s in z z', over 60 for example 2's 200 rad/s)
    times = np.array([1.5e-5, 5.1e-5, 5.15e-3, 5.155e-3, 0.1, 0.2003, 0.3503])
    z, S = _shadow_series(shadow, plant.B, times)
    Z, S_ref = dop853_series(shadow, plant.B, times)
    assert np.abs(z - Z).max() <= 1e-9 * np.abs(Z).max()
    assert not S[0].any()
    for m in range(1, times.size):
        assert np.abs(S[m] - S_ref[m]).max() <= 1e-9 * np.abs(S_ref[m]).max()


@pytest.mark.parametrize("t_global, window", [
    ([0.0, np.nan], 0.1), ([0.0, np.inf], 0.1), ([0.0, 0.1], 0.0),
    ([0.0, 0.1], -0.1), ([0.0, 0.1], np.nan), ([0.0, 0.1], np.inf)],
    ids=["nan_time", "inf_time", "zero_window", "negative_window", "nan_window",
         "inf_window"])
def test_shadow_rows_refuse_non_finite_times_and_empty_windows(t_global, window):
    plant, cost, shadow = shadow_pair()
    match = "window must be positive and finite" if np.isfinite(t_global).all() \
        else "global sample times must be finite"
    with pytest.raises(ConfigError, match=match):
        shadow_regressors(shadow, plant.B, cost.R, np.array(t_global), window)


def test_shadow_config_takes_a_probing_signal_only():
    _, _, shadow = shadow_pair()
    with pytest.raises(ConfigError, match="ProbingSignal"):
        dataclasses.replace(shadow, u_a=lambda t: np.sin(t))


def test_shadow_rows_need_one_input():
    plant, _, shadow = shadow_pair()
    with pytest.raises(ConfigError, match="one column"):
        shadow_regressors(shadow, np.hstack([plant.B, plant.B]), np.eye(2),
                          np.array([0.0, 0.1]), window=0.1)


def test_resonant_probing_frequency_is_a_config_error():
    # A_a with eigenvalues +-i omega_3 makes i omega_3 I - A_a singular
    _, _, shadow = shadow_pair()
    w = shadow.u_a.omegas[3]
    with pytest.raises(ConfigError, match=r"probing frequency 3 \(omega = "):
        dataclasses.replace(shadow, A_a=np.array([[0.0, w], [-w, 0.0]]))


def test_defective_auxiliary_matrices_are_config_errors():
    # Jordan blocks: e^{Mt} has a t e^{lambda t} term no eigenbasis carries
    _, _, shadow = shadow_pair()
    with pytest.raises(ConfigError, match="A_a is defective"):
        dataclasses.replace(shadow, A_a=np.array([[-1.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(ConfigError, match="F_a is defective"):
        dataclasses.replace(shadow, F_a=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_configs_tables_and_shadow_rows_share_one_grid_rule():
    # t1 = 10 + 5e-9 lies within 1e-9 * |t1| of the grid of h = 1e-3;
    # 10 + 2e-8 does not. The shadow rows take any finite times.
    near, off = 10.0 + 5e-9, 10.0 + 2e-8
    plant, cost, shadow = shadow_pair()
    cfg = SimConfig(h=1e-3, sample_period=1e-3, window=0.01, t1=near, l=3, n_paths=1)
    traj = propagate_moments_exact(plant, None, np.array([1.0, 0.0]), cfg)
    tab = accumulate_raw_moments(traj, cfg, plant.H, STILL)
    omega_K, _ = shadow_regressors(shadow, plant.B, cost.R, tab.t_global, cfg.window)
    assert len(tab) == len(omega_K) == 3
    with pytest.raises(ConfigError, match="t1=.* must be a nonnegative multiple of h"):
        dataclasses.replace(cfg, t1=off)
    # far from 0, 1e-9 * |x| exceeds h / 2, so only the cap at a fraction
    # of h keeps these from rounding onto the grid
    with pytest.raises(ConfigError, match="t1=.* must be a nonnegative multiple of h"):
        SimConfig(h=1e-4, t1=50000.00003)
    assert not _on_grid(2500.0000013, 5e-6)


def unforced_moments(plant, hyper, l=40):
    """Two unforced segments' exact tables, joined, discounted as in
    scalar_moments."""
    cfg = SimConfig(h=1e-4, sample_period=2e-3, window=0.05, l=l, n_paths=1)
    ref = ReferenceGenerator(np.array([[0.0, 1.3], [-1.3, 0.0]]),
                             np.array([[1.0, 0.0]]), np.array([1.0, -0.5]))
    # two unforced segments from different states, on one global clock
    offset = cfg.duration + cfg.h
    discount = 0.0 if hyper is None else hyper.alpha_tilde
    tables = []
    for x0, dt in ((np.array([1.0, 0.6]), 0.0), (np.array([-0.7, 1.0]), offset)):
        traj = propagate_moments_exact(plant, None, x0, cfg, discount=discount)
        tables.append(accumulate_raw_moments(traj, cfg, plant.H, ref, dt))
    return MomentTable.concat(tables), ref, cfg


def test_shadow_learning_matches_model_solution():
    plant, cost, shadow = shadow_pair()
    hyper = BpiHyperParams()
    tab, ref, cfg = unforced_moments(plant, hyper)
    omegas = shadow_regressors(shadow, plant.B, cost.R, tab.t_global,
                               window=cfg.window)
    learned = learn_shadow(tab, shadow, plant.B, cost, hyper, omegas=omegas)
    prob = TrackingProblem(plant, ref, cost, hyper)
    sol = solve_tracking(prob)
    np.testing.assert_allclose(learned.K_star, sol.K, atol=1e-5)
    np.testing.assert_allclose(learned.P_star, sol.P, atol=1e-5)
    # feedforward through the same augmented rows reproduces the model gain
    fit, = learn_feedforward(tab, learned.K_star, learned.Lambda_star, cost,
                             hyper, [ref.H_d], omega_F=omegas[1])
    Pi_m, F_m = feedforward_gains(plant, cost, ref, sol.P, sol.K)
    np.testing.assert_allclose(fit.F, F_m, atol=1e-5)
    np.testing.assert_allclose(fit.Pi, Pi_m, atol=1e-4)


def test_shadow_requires_unforced_plant_data():
    plant, cost, shadow = shadow_pair()
    hyper = BpiHyperParams()
    sig = ProbingSignal(1.0, 4, (-10.0, 10.0), seed=1)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=10, n_paths=4)
    ds = run_ensemble(plant, sig, np.array([1.0, 0.0]), cfg,
                      discount=hyper.alpha_tilde)
    tab = accumulate_raw_moments(ds, cfg, plant.H, STILL)
    with pytest.raises(ConfigError):
        learn_shadow(tab, shadow, plant.B, cost, hyper,
                     omegas=(np.zeros((10, 5)), np.zeros((10, 6))))


def test_shadow_rejects_uncontrollable_auxiliary():
    plant, cost, shadow = shadow_pair()
    hyper = BpiHyperParams()
    tab, _, _ = unforced_moments(plant, hyper, l=10)
    bad = dataclasses.replace(shadow, A_a=-np.eye(2))
    # B = [0, 1]' cannot excite the first auxiliary state of a diagonal A_a
    with pytest.raises(ShadowUncontrollable):
        learn_shadow(tab, bad, plant.B, cost, hyper,
                     omegas=(np.zeros((10, 5)), np.zeros((10, 6))))


def test_shadow_rows_must_pair_with_the_table_rows():
    # rows for one sample time fewer than the table holds are a config
    # error naming both counts, in either learner, not a numpy shape error
    plant, cost, shadow = shadow_pair()
    hyper = BpiHyperParams()
    tab, ref, cfg = unforced_moments(plant, hyper, l=10)
    n = len(tab)
    short = shadow_regressors(shadow, plant.B, cost.R, tab.t_global[:-1], cfg.window)
    with pytest.raises(ConfigError, match=f"omega_K has {n - 1} rows, the moment table {n}$"):
        learn_shadow(tab, shadow, plant.B, cost, hyper, omegas=short)
    learned = learn_shadow(tab, shadow, plant.B, cost, hyper,
                           omegas=shadow_regressors(shadow, plant.B, cost.R, tab.t_global,
                                                    cfg.window))
    with pytest.raises(ConfigError, match=f"omega_F has {n - 1} rows, the moment table {n}$"):
        learn_feedforward(tab, learned.K_star, learned.Lambda_star, cost, hyper,
                          [ref.H_d], omega_F=short[1])


def test_feedforward_output_map_scaling():
    plant, cost, shadow = shadow_pair()
    hyper = BpiHyperParams()
    tab, ref, cfg = unforced_moments(plant, hyper)
    omegas = shadow_regressors(shadow, plant.B, cost.R, tab.t_global,
                               window=cfg.window)
    learned = learn_shadow(tab, shadow, plant.B, cost, hyper, omegas=omegas)
    one, three = learn_feedforward(tab, learned.K_star, learned.Lambda_star,
                                   cost, hyper, [ref.H_d, 3.0 * ref.H_d],
                                   omega_F=omegas[1])
    np.testing.assert_allclose(three.F, 3.0 * one.F, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(three.Pi, 3.0 * one.Pi, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("learner", ["feedback", "shadow", "feedforward"])
def test_discount_mismatch_is_rejected(learner):
    # a table is learned only at the discount it was made with: one from an
    # undiscounted trajectory, one made at gamma = 1.0 (alpha_tilde = 0.45)
    # and learned at gamma = 1.5, and one at a rate no hyper here has, are
    # each a config error (exit 2), not a wrong gain
    hyper = BpiHyperParams()  # alpha_tilde = (1 - 0.1)/2 = 0.45
    later = BpiHyperParams(gamma=1.5)  # alpha_tilde = 0.7
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    if learner == "shadow":
        plant, cost, shadow = shadow_pair()

        def tables(hy):
            return unforced_moments(plant, hy)[0]

        omegas = shadow_regressors(shadow, plant.B, cost.R, tables(hyper).t_global, 0.05)

        def learn(tab, hy):
            return learn_shadow(tab, shadow, plant.B, cost, hy, omegas=omegas)
    elif learner == "feedback":
        tables = scalar_moments

        def learn(tab, hy):
            return learn_feedback(tab, cost, hy)
    else:
        tables = scalar_moments
        fit = learn_feedback(tables(hyper), cost, hyper)

        def learn(tab, hy):
            return learn_feedforward(tab, fit.K_star, fit.Lambda_star, cost, hy,
                                     [STILL.H_d])
    tab = tables(hyper)
    assert tab.discount == hyper.alpha_tilde
    learn(tab, hyper)
    assert tables(None).discount == 0.0
    for table, hy in ((tables(None), hyper), (tab, later),
                      (dataclasses.replace(tab, discount=0.3), hyper)):
        with pytest.raises(ConfigError, match="does not match"):
            learn(table, hy)
