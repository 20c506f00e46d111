"""Gate suite: one test per release criterion, numbered to match the
acceptance checklist. Each test prints a single PASS/FAIL line (visible
with -s, or in the captured output on failure) and then asserts.

Heavy artifacts are shared through module-scoped fixtures: the
model-based solve, the exact-moment learning run, the 2000-path Monte
Carlo learning run on the damped oscillator, and the shadow-system run
on the coupled oscillators.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from slqt import (BpiHyperParams, CostWeights, RankDeficient,
                  ReferenceGenerator, SimConfig, StochasticSystem,
                  TrackingProblem, coupled_oscillators, damped_oscillator,
                  feedforward_gains, gather_moments, learn_feedback,
                  learn_feedforward, learn_shadow, run_ensemble,
                  sare_residual, shadow_regressors, simulate_tracking,
                  solve_gen_lyap, solve_tracking, spectral_abscissa,
                  zero_gain_threshold)
from slqt.symquad import h_form, vech

K_REF_EX1 = np.array([25.8381, 7.5651])
FF_REF_CASE1 = np.array([-29.898, 0.189, 0.07])
FF_REF_CASE4 = np.array([-89.676, -60.932, 16.745])
K_CROSS_REF_EX2 = np.array([5.2039, 4.4951, -1.8831, 3.3963])


def gate(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rel_err(value, ref) -> float:
    value = np.asarray(value, dtype=float).ravel()
    ref = np.asarray(ref, dtype=float).ravel()
    return float(np.linalg.norm(value - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# Shared artifacts


@pytest.fixture(scope="module")
def ex1():
    return damped_oscillator()


@pytest.fixture(scope="module")
def ex1_model(ex1):
    prob = TrackingProblem(system=ex1.plant, reference=ex1.reference,
                           cost=ex1.cost, hyper=ex1.hyper)
    t0 = time.perf_counter()
    sol = solve_tracking(prob)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex1_exact_learn(ex1):
    moments = gather_moments(replace(ex1, data_source="exact"))
    return learn_feedback(moments, ex1.cost, ex1.hyper)


@pytest.fixture(scope="module")
def ex1_mc_learn(ex1):
    t0 = time.perf_counter()
    moments = gather_moments(ex1)
    sol = learn_feedback(moments, ex1.cost, ex1.hyper)
    return moments, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex1_mc_ff(ex1, ex1_mc_learn):
    moments, sol, _ = ex1_mc_learn
    fits = learn_feedforward(moments, sol.K_star, sol.Lambda_star,
                             ex1.cost, ex1.hyper, ex1.h_d_cases[:4])
    return dict(enumerate(fits, start=1))


@pytest.fixture(scope="module")
def ex2():
    return coupled_oscillators()


@pytest.fixture(scope="module")
def ex2_model(ex2):
    prob = TrackingProblem(system=ex2.plant, reference=ex2.reference,
                           cost=ex2.cost, hyper=ex2.hyper)
    return solve_tracking(prob)


@pytest.fixture(scope="module")
def ex2_shadow(ex2):
    moments = gather_moments(replace(ex2, data_source="exact"))
    omegas = shadow_regressors(ex2.shadow, ex2.plant.B, ex2.cost.R,
                               moments.t_global, moments.window)
    sol = learn_shadow(moments, ex2.shadow, ex2.plant.B, ex2.cost,
                       ex2.hyper, omegas=omegas)
    return moments, omegas, sol


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_model_based_damped_oscillator(ex1, ex1_model):
    sol, elapsed = ex1_model
    rel = rel_err(sol.K, K_REF_EX1)
    resid = sare_residual(ex1.plant, ex1.cost, sol.P)
    absc = spectral_abscissa(ex1.plant, sol.K)
    ok = rel <= 0.05 and resid <= 1e-9 and absc < 0.0 and elapsed < 1.0
    gate(1, ok, f"K rel err {rel:.2%}, residual {resid:.1e}, "
                f"abscissa {absc:.3f}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_phase_structure(ex1_model, ex1_exact_learn,
                                      ex1_mc_learn):
    sol, _ = ex1_model
    model_cross = len(sol.history["phase1"])
    exact = ex1_exact_learn
    _, mc, _ = ex1_mc_learn
    alphas = [st.alpha for st in sol.history["phase1"]]
    increasing = all(b > a for a, b in zip(alphas, alphas[1:]))
    for learned in (exact, mc):
        head = [st.alpha for st in learned.trace[:learned.crossing_iteration]]
        increasing = increasing and all(b > a for a, b in zip(head, head[1:]))
    ok = (abs(mc.crossing_iteration - 2) <= 1
          and exact.crossing_iteration == model_cross
          and increasing)
    gate(2, ok, f"model crossing {model_cross}, exact "
                f"{exact.crossing_iteration}, monte carlo "
                f"{mc.crossing_iteration}, alpha increasing {increasing}")


def test_criterion_03_data_driven_damped_oscillator(ex1_model, ex1_mc_learn,
                                                    ex1_mc_ff):
    model, _ = ex1_model
    _, sol, elapsed = ex1_mc_learn
    rel = rel_err(sol.K_star, model.K)
    fb_rank = sol.rank
    ff_rank = ex1_mc_ff[1].rank
    ok = (rel <= 0.05
          and fb_rank.rank == 6 and fb_rank.margin > 0.0
          and ff_rank.rank == 9 and ff_rank.margin > 0.0
          and elapsed < 300.0)
    gate(3, ok, f"K rel err {rel:.2%}, rank margins {fb_rank.margin:.1e}/"
                f"{ff_rank.margin:.1e} at ranks {fb_rank.rank}/{ff_rank.rank}, "
                f"{elapsed:.0f} s")


def test_criterion_04_feedforward_case_table(ex1_mc_ff):
    F = {k: fit.F.ravel() for k, fit in ex1_mc_ff.items()}
    band1 = 0.10 * np.abs(FF_REF_CASE1).max()
    band4 = 0.10 * np.abs(FF_REF_CASE4).max()
    err1 = np.abs(F[1] - FF_REF_CASE1).max()
    err4 = np.abs(F[4] - FF_REF_CASE4).max()
    prop2 = rel_err(F[2], 2.0 * F[1])
    prop3 = rel_err(F[3], 3.0 * F[1])
    ok = (err1 <= band1 and err4 <= band4
          and prop2 <= 1e-10 and prop3 <= 1e-10)
    gate(4, ok, f"case 1 max err {err1:.2f} (band {band1:.2f}), case 4 "
                f"{err4:.2f} (band {band4:.2f}), proportionality "
                f"{prop2:.1e}/{prop3:.1e}")


def test_criterion_05_exact_moment_equivalence(ex1_model, ex1_exact_learn):
    sol, _ = ex1_model
    learned = ex1_exact_learn
    states = list(sol.history["phase1"]) + list(sol.history["phase2"])
    worst = 0.0
    for st, got in zip(states, learned.trace):
        worst = max(worst, float(np.abs(st.P - got.P).max()),
                    float(np.abs(st.K - got.K).max()), abs(st.alpha - got.alpha))
    ok = len(states) == learned.total_iterations and worst <= 1e-6
    gate(5, ok, f"{learned.total_iterations} iterations, worst iterate "
                f"diff {worst:.2e}")


def test_criterion_06_monotonicity_suite():
    """Phase-II value matrices must decrease toward the fixed point and
    phase I must finish within the bound its own step inequality gives."""
    hyper = BpiHyperParams(epsilon=1e-9, max_iter=200)
    worst_pair = np.inf
    worst_star = np.inf
    bound_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        C = 0.25 * rng.normal(size=(n, n))
        D = 0.2 * rng.normal(size=(n, m))
        sys = StochasticSystem(A, B, C, D, np.eye(n))
        # the operator abscissa moves by -2s when A moves by -sI, so
        # half the excess pins the zero-gain threshold at -0.05
        shift = 0.5 * (zero_gain_threshold(sys) + 0.05)
        sys = StochasticSystem(A - shift * np.eye(n), B, C, D, np.eye(n))
        ref = ReferenceGenerator(A_d=[[0.0]], H_d=np.zeros((n, 1)),
                                 x_d0=[0.0])
        prob = TrackingProblem(system=sys, reference=ref,
                               cost=CostWeights(Q=np.eye(n), R=np.eye(m)),
                               hyper=hyper)
        sol = solve_tracking(prob)
        tr2 = sol.history["phase2"]
        for a, b in zip(tr2, tr2[1:]):
            worst_pair = min(worst_pair,
                             float(np.linalg.eigvalsh(a.P - b.P).min()))
        for st in tr2:
            worst_star = min(worst_star,
                             float(np.linalg.eigvalsh(st.P - sol.P).min()))
        tr1 = sol.history["phase1"]
        theta = prob.theta
        c0 = max(float(np.linalg.eigvalsh(st.P).max()) for st in tr1)
        c1 = min(float(np.linalg.eigvalsh(st.K.T @ prob.cost.R @ st.K
                                          + theta).min()) for st in tr1)
        budget = math.ceil((hyper.gamma - hyper.alpha0) * c0
                           / (hyper.eta * c1))
        bound_ok = bound_ok and len(tr1) <= budget
    ok = worst_pair >= -1e-8 and worst_star >= -1e-8 and bound_ok
    gate(6, ok, f"min eig steps {worst_pair:.1e}, vs fixed point "
                f"{worst_star:.1e}, phase-one budget held {bound_ok}")


def test_criterion_07_lyapunov_and_riccati_oracles():
    # part one: the value matrix must match the discounted quadratic
    # cost of a seeded ensemble within three standard errors
    sys = StochasticSystem(A=[[-0.2, 1.0], [-1.0, -0.4]], B=[[0.0], [1.0]],
                           C=[[0.15, 0.0], [0.05, 0.1]], D=[[0.0], [0.05]],
                           H=[[1.0, 0.0]])
    K = np.array([[0.4, 0.8]])
    alpha, gamma = 0.4, 1.0
    Qbar = np.array([[1.0, 0.2], [0.2, 0.8]])
    lsol = solve_gen_lyap(sys, K, Qbar, alpha=alpha, gamma=gamma)
    x0 = np.array([1.0, -0.5])
    target = float(x0 @ lsol.P @ x0)
    closed = StochasticSystem(sys.A - sys.B @ K, sys.B, sys.C - sys.D @ K,
                              sys.D, sys.H)
    pair = h_form(Qbar)
    batches = []
    for b in range(4):
        cfg = SimConfig(h=1e-3, sample_period=0.01, window=0.01, t1=0.0,
                        l=2001, n_paths=500, base_seed=1000 * b)
        ds = run_ensemble(closed, None, x0, cfg)
        integrand = np.exp(-(gamma - alpha) * ds.t) * (ds.mean_xx @ pair)
        batches.append(np.trapezoid(integrand, ds.t))
    batches = np.asarray(batches)
    se = float(batches.std(ddof=1) / np.sqrt(len(batches)))
    mc_err = abs(float(batches.mean()) - target)

    # part two: with the noise channels zeroed the fixed point must
    # agree with the deterministic Riccati solution
    quiet = StochasticSystem([[0.0, 1.0], [-5.0, -0.5]], [[0.0], [1.0]],
                             np.zeros((2, 2)), np.zeros((2, 1)),
                             [[1.0, 0.0]])
    cost = CostWeights(Q=[[10.0]], R=[[0.01]])
    ref = ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[0.0])
    sol = solve_tracking(TrackingProblem(
        system=quiet, reference=ref, cost=cost,
        hyper=BpiHyperParams(epsilon=1e-12, max_iter=100)))
    P_det = solve_continuous_are(quiet.A, quiet.B,
                                 quiet.H.T @ cost.Q @ quiet.H, cost.R)
    are_err = float(np.abs(sol.P - P_det).max())

    # part three: scalar plant with unit state noise, q=2, r=1
    scalar = StochasticSystem([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    ssol = solve_tracking(TrackingProblem(
        system=scalar, reference=ref, cost=CostWeights(Q=[[2.0]], R=[[1.0]]),
        hyper=BpiHyperParams(gamma=3.0, epsilon=1e-12, max_iter=100)))
    closed_err = abs(float(ssol.P[0, 0]) - (1.0 + math.sqrt(3.0)))

    ok = mc_err <= 3.0 * se and are_err <= 1e-8 and closed_err <= 1e-10
    gate(7, ok, f"ensemble err {mc_err:.1e} vs 3 se {3 * se:.1e}, "
                f"riccati err {are_err:.1e}, scalar err {closed_err:.1e}")


def test_criterion_08_shadow_coupled_oscillators(ex2, ex2_model, ex2_shadow):
    moments, _, sol = ex2_shadow
    peak = max(float(np.abs(moments.W).max(initial=0.0)),
               float(np.abs(moments.V).max(initial=0.0)))
    assert peak == 0.0, "plant input moments must vanish identically"
    cross = sol.crossing_iteration
    K_cross = sol.trace[cross - 1].K
    cross_rel = rel_err(K_cross, K_CROSS_REF_EX2)
    cross_absc = spectral_abscissa(ex2.plant, K_cross)
    final_rel = rel_err(sol.K_star, ex2_model.K)
    with pytest.raises(RankDeficient):
        learn_feedback(moments, ex2.cost, ex2.hyper)
    ok = (abs(cross - 4) <= 1 and cross_absc < 0.0 and cross_rel <= 0.10
          and sol.total_iterations <= 14 and final_rel <= 0.10)
    gate(8, ok, f"zero input, crossing {cross} (gain rel err "
                f"{cross_rel:.2%}, abscissa {cross_absc:.2f}), total "
                f"{sol.total_iterations}, final K rel err {final_rel:.1e}, "
                f"plain pipeline rank-deficient")


def test_criterion_09_cost_ordering_and_tracking(ex1, ex1_model):
    from slqt import estimate_average_cost

    sol, _ = ex1_model
    ref8 = ex1.reference.with_output_map(ex1.h_d_cases[7])
    _, F_opt = feedforward_gains(ex1.plant, ex1.cost, ref8, sol.P, sol.K)
    naive = StochasticSystem(ex1.plant.A, ex1.plant.B,
                             np.zeros_like(ex1.plant.A),
                             np.zeros_like(ex1.plant.D), ex1.plant.H)
    P_det = solve_continuous_are(ex1.plant.A, ex1.plant.B,
                                 ex1.plant.H.T @ ex1.cost.Q @ ex1.plant.H,
                                 ex1.cost.R)
    K_det = np.linalg.solve(ex1.cost.R, ex1.plant.B.T @ P_det)
    _, F_det = feedforward_gains(naive, ex1.cost, ref8, P_det, K_det)
    # one pass drives both designs with the same noise paths, so the
    # paired separation is the mean per-path difference over its own SE
    c_opt, c_det = estimate_average_cost(
        ex1.plant, ref8, [(sol.K, F_opt), (K_det, F_det)], ex1.cost,
        50.0, 2000, 314159, h=1e-3)
    sep = (c_det.mean - c_opt.mean) / float(np.hypot(c_opt.se, c_det.se))
    d = c_det.per_path - c_opt.per_path
    paired = float(d.mean() / (d.std() / np.sqrt(d.size - 1)))

    # reference switches: the ensemble mean output must settle near the
    # target inside every schedule segment
    sched = []
    for case, dur in ex1.scenarios["scenario1"]:
        _, F_k = feedforward_gains(ex1.plant, ex1.cost,
                                   ex1.reference.with_output_map(
                                       ex1.h_d_cases[case - 1]),
                                   sol.P, sol.K)
        sched.append((ex1.h_d_cases[case - 1], F_k, float(dur)))
    run = simulate_tracking(ex1.plant, ex1.reference, sched, sol.K, 1e-3, 200, 97)
    bounds = [0.0, *run.switch_times, float(run.t[-1])]
    settled = []
    for j in range(len(sched)):
        a, b = bounds[j], bounds[j + 1]
        tail = (run.t >= b - 0.2 * (b - a)) & (run.t <= b)
        err = run.y_mean[tail] - run.y_d[tail]
        settled.append(float(np.sqrt(np.mean(err ** 2))))
    ok = (c_opt.mean < c_det.mean and sep >= 3.0 and paired >= 3.0
          and all(np.isfinite(settled)) and max(settled) < 0.5)
    gate(9, ok, f"cost {c_opt.mean:.4f} < {c_det.mean:.4f} at {sep:.1f} se "
                f"({paired:.1f} paired se), settled rms max {max(settled):.3f}")


def test_criterion_10_basis_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        P = M + M.T
        x = rng.normal(size=n)
        quad = float(x @ P @ x)
        est = float(vech(P) @ h_form(np.outer(x, x)))
        worst = max(worst, abs(est - quad) / max(1.0, abs(quad)))
    gate(10, worst <= 1e-12, f"worst relative error {worst:.2e} "
                             f"over 1000 draws")
