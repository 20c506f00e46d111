"""Simulation layer: paths, ensembles, exact moments, cost and tracking."""

import math
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from slqt import sim
from slqt.errors import Blowup, ConfigError
from slqt.model import ReferenceGenerator, StochasticSystem, CostWeights
from slqt.sim import (_BLOCK_STEPS, _DRAW_STEPS, _SCAN_BLOCK, _SIGNS, ProbingSignal,
                      SimConfig, _affine_recursion, _em_paths, _stage_offsets, _reference_states,
                      _rk4_step, _run_batches, _sample_input, _sign_words,
                      estimate_average_cost, propagate_moments_exact,
                      run_ensemble, simulate_tracking)
from slqt.symquad import unvech


def small_plant(c_scale=0.2):
    return StochasticSystem(
        A=np.array([[-0.3, 1.0], [-1.0, -0.5]]),
        B=np.array([[0.0], [1.0]]),
        C=c_scale * np.array([[0.5, 0.1], [0.0, 0.4]]),
        D=np.array([[0.0], [0.1]]),
        H=np.array([[1.0, 0.0]]),
    )


def three_state_plant():
    # n = 3, m = 2 with C and D full, so every noise and input term acts
    return StochasticSystem(
        A=np.array([[-0.6, 1.0, 0.2], [-1.0, -0.4, 0.3], [0.1, -0.5, -0.8]]),
        B=np.array([[0.0, 1.0], [1.0, 0.2], [0.5, -0.3]]),
        C=np.array([[0.3, 0.1, 0.0], [-0.2, 0.25, 0.1], [0.05, 0.0, 0.35]]),
        D=np.array([[0.2, 0.0], [0.1, -0.3], [0.0, 0.15]]),
        H=np.eye(3)[:1],
    )


def two_input_signal(t):
    return (np.sin(np.multiply.outer(t, [3.0, 7.5]))
            + np.cos(np.multiply.outer(t, [-4.0, 11.0])))


def single_path(sys, input, x0, cfg, seed):
    """Path ``seed - base_seed`` of an ensemble: a one-path run from its
    seed, whose centred mean is the path itself."""
    return run_ensemble(sys, input, x0, replace(cfg, n_paths=1, base_seed=seed)).mean_x


def increments(first_seed, n_paths, n_steps, h):
    """The (n_steps, n_paths) Euler-Maruyama increments of paths first_seed,
    first_seed + 1, ...: the kernel's sign bits, drawn in one call; bit k
    of a path's words, little-endian within each word, is step k's."""
    bitgens = [np.random.Philox(first_seed + i) for i in range(n_paths)]
    octets = _sign_words(bitgens, n_steps).view(np.uint8)
    return np.sqrt(h) * _SIGNS[np.unpackbits(octets, axis=1, bitorder="little").T[:n_steps]]


def test_probing_signal_bound_and_determinism():
    sig = ProbingSignal(2.0, 25, (-40.0, 40.0), seed=3)
    t = np.linspace(0.0, 7.0, 5001)
    u = sig(t)
    assert np.abs(u).max() <= 2.0 * 25
    assert np.abs(sig.omegas).max() <= 40.0
    # the range is stored as a pair of floats, whatever sequence it came as
    sig2 = ProbingSignal(2.0, 25, [-40, 40], seed=3)
    assert sig2.freq_range == (-40.0, 40.0)
    assert all(type(f) is float for f in sig2.freq_range)
    np.testing.assert_array_equal(sig.omegas, sig2.omegas)
    np.testing.assert_array_equal(sig2(t), u)
    # scalar evaluation agrees with the vectorized one
    for k in (0, 117, 4999):
        assert float(sig(t[k])) == pytest.approx(float(u[k]), abs=0.0)
    # a grid longer than one evaluation block gives, bit for bit, the
    # values of per-sample evaluation, also across block edges
    long_t = np.linspace(0.0, 9.0, 10_007)
    per_sample = np.array([sig(tk) for tk in long_t])
    np.testing.assert_array_equal(sig(long_t), per_sample)
    np.testing.assert_array_equal(sig(long_t.reshape(-1, 1)), per_sample[:, None])


def test_probing_signal_different_seed_differs():
    t = np.linspace(0.0, 1.0, 100)
    a = ProbingSignal(1.0, 10, (-50.0, 50.0), seed=1)(t)
    b = ProbingSignal(1.0, 10, (-50.0, 50.0), seed=2)(t)
    assert np.abs(a - b).max() > 1e-6


def test_discounted_input_weighting():
    # the exact route discounts the way the ensemble route does: the
    # input by exp(-rate t), the mean by the same weight, E[xx'] by its square
    sys = small_plant()
    sig = ProbingSignal(1.0, 5, (-10.0, 10.0), seed=0)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=40)
    x0 = np.array([0.5, -1.0])
    plain = propagate_moments_exact(sys, sig, x0, cfg)
    disc = propagate_moments_exact(sys, sig, x0, cfg, discount=0.45)
    w = np.exp(-0.45 * plain.t)
    assert plain.discount is None and disc.discount == 0.45
    np.testing.assert_allclose(disc.u[:, 0], w * sig(plain.t), rtol=1e-14)
    np.testing.assert_allclose(disc.mean_x, w[:, None] * plain.mean_x, rtol=1e-14)
    np.testing.assert_allclose(disc.mean_xx, (w ** 2)[:, None] * plain.mean_xx,
                               rtol=1e-14)


@pytest.mark.parametrize("discount", [None, 0.45])
def test_unforced_exact_moments_equal_a_zero_amplitude_probe(discount):
    # input None skips the input sampling and the stage forcings; the
    # moments are those of the forced route driven by a zero input
    sys = small_plant(c_scale=1.0)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=40)
    x0 = np.array([0.5, -1.0])
    unforced = propagate_moments_exact(sys, None, x0, cfg, discount=discount)
    zero = propagate_moments_exact(sys, ProbingSignal(0.0, 5, (-10.0, 10.0), seed=0),
                                   x0, cfg, discount=discount)
    for name in ("t", "mean_x", "mean_xx", "u"):
        np.testing.assert_array_equal(getattr(unforced, name), getattr(zero, name))
    assert np.abs(unforced.mean_xx).max() > 0.1


def test_ensemble_mean_is_unbiased_for_euler():
    # the Euler-Maruyama mean follows the deterministic Euler map exactly,
    # so mean_x minus the same-step noise-free run is pure sampling noise
    sys = small_plant(c_scale=1.0)
    sig = ProbingSignal(1.0, 8, (-20.0, 20.0), seed=5)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=96,
                    n_paths=400, base_seed=42)
    x0 = np.array([1.0, -0.5])
    ds = run_ensemble(sys, sig, x0, cfg)
    quiet = StochasticSystem(sys.A, sys.B, np.zeros((2, 2)), np.zeros((2, 1)), sys.H)
    ref = run_ensemble(quiet, sig, x0, replace(cfg, n_paths=1))
    err = np.abs(ds.mean_x - ref.mean_x).max()
    print("ensemble mean deviation:", err)
    assert err < 0.05


def test_ensemble_second_moments_match_exact_propagation():
    sys = small_plant()
    sig = ProbingSignal(0.5, 6, (-15.0, 15.0), seed=9)
    cfg = SimConfig(h=1e-3, sample_period=5e-3, window=0.01, l=150,
                    n_paths=600, base_seed=7)
    x0 = np.array([0.8, 0.2])
    ds = run_ensemble(sys, sig, x0, cfg)
    exact = propagate_moments_exact(sys, sig, x0, cfg, method="rk4")
    diff = np.abs(ds.mean_xx - exact.mean_xx)
    band = 4.0 * ds.se_xx + 5e-3
    frac_outside = float((diff > band).mean())
    print("second-moment entries outside 4 SE:", frac_outside)
    assert frac_outside < 0.01
    np.testing.assert_allclose(ds.t, exact.t, atol=1e-12)


def test_discount_identity_is_a_path_reweighting():
    sys = small_plant()
    sig = ProbingSignal(1.0, 4, (-10.0, 10.0), seed=2)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.02, l=40,
                    n_paths=32, base_seed=11)
    x0 = np.array([1.0, 0.0])
    plain = run_ensemble(sys, sig, x0, cfg)
    disc = run_ensemble(sys, sig, x0, cfg, discount=0.45)
    w = np.exp(-0.45 * plain.t)
    np.testing.assert_allclose(disc.mean_x, w[:, None] * plain.mean_x,
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(disc.mean_xx, (w ** 2)[:, None] * plain.mean_xx,
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(disc.u, w[:, None] * plain.u,
                               rtol=1e-12, atol=1e-15)


def test_noise_free_ensemble_collapses_to_one_path():
    sys = StochasticSystem(
        A=np.array([[-0.4, 0.9], [-0.9, -0.2]]),
        B=np.array([[0.0], [1.0]]),
        C=np.zeros((2, 2)), D=np.zeros((2, 1)),
        H=np.array([[1.0, 0.0]]),
    )
    sig = ProbingSignal(1.0, 3, (-5.0, 5.0), seed=1)
    # four paths so the mean of identical paths is exact in floating point
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=30,
                    n_paths=4, base_seed=100)
    x0 = np.array([0.5, -0.25])
    ds = run_ensemble(sys, sig, x0, cfg)
    path = single_path(sys, sig, x0, cfg, seed=100)
    np.testing.assert_array_equal(ds.mean_x, path)
    # second moments of a deterministic ensemble are the outer products
    for k in (0, 10, len(path) - 1):
        xx = np.outer(path[k], path[k])
        np.testing.assert_allclose(unvech(ds.mean_xx[k], 2), xx,
                                   rtol=1e-12, atol=1e-15)


def test_single_path_matches_ensemble_member():
    sys = small_plant()
    sig = ProbingSignal(1.0, 4, (-10.0, 10.0), seed=8)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=20,
                    n_paths=3, base_seed=50)
    x0 = np.array([1.0, 1.0])
    members = np.empty((cfg.n_steps + 1, 2, 3))

    def keep(k0, S):
        members[k0:k0 + len(S)] = S

    u = _sample_input(sig, cfg.grid(), 1)
    _em_paths(sys.A, sys.C, (sys.B, sys.D, u), x0, range(50, 53), cfg.n_steps, cfg.h, keep)
    np.testing.assert_array_equal(members[:, :, 1],
                                  single_path(sys, sig, x0, cfg, seed=51))


def test_every_ensemble_member_is_its_single_path():
    sys = three_state_plant()
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=20,
                    n_paths=5, base_seed=50)
    x0 = np.array([0.8, -0.5, 0.3])
    members = np.empty((cfg.n_steps + 1, 3, 5))

    def keep(k0, S):
        members[k0:k0 + len(S)] = S

    u = _sample_input(two_input_signal, cfg.grid(), 2)
    _em_paths(sys.A, sys.C, (sys.B, sys.D, u), x0, range(50, 55), cfg.n_steps, cfg.h, keep)
    for p in range(5):
        np.testing.assert_array_equal(
            members[:, :, p], single_path(sys, two_input_signal, x0, cfg, seed=50 + p))


def test_members_equal_their_single_paths_across_buffer_swaps():
    # the sign bits are drawn _DRAW_STEPS steps at a time; a draw boundary
    # and a partial last draw must leave every member its one-path run,
    # and the stacked cost designs their runs alone
    n_steps = _DRAW_STEPS + 37
    sys = three_state_plant()
    cfg = SimConfig(h=1e-3, sample_period=1e-3, window=1e-3, l=n_steps,
                    n_paths=4, base_seed=70)
    assert cfg.n_steps == n_steps
    x0 = np.array([0.8, -0.5, 0.3])
    members = np.empty((n_steps + 1, 3, 4))

    def keep(k0, S):
        members[k0:k0 + len(S)] = S

    u = _sample_input(two_input_signal, cfg.grid(), 2)
    _em_paths(sys.A, sys.C, (sys.B, sys.D, u), x0, range(70, 74), n_steps, cfg.h, keep)
    for p in range(4):
        np.testing.assert_array_equal(
            members[:, :, p], single_path(sys, two_input_signal, x0, cfg, seed=70 + p))
    assert_stacked_designs_equal_their_runs_alone(n_steps)


def em_per_step(A, C, forcing, x0, first_seed, n_paths, n_steps, h, observe):
    """Euler-Maruyama one step at a time with paths first, and one
    observer call per step: the layout the block kernel replaced."""
    X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    dW = increments(first_seed, n_paths, n_steps, h).T
    observe(0, X)
    for k in range(n_steps):
        drift, diffusion = X @ A.T, X @ C.T
        if forcing is not None:
            B, D, u = forcing
            drift = drift + u[k] @ B.T
            diffusion = diffusion + u[k] @ D.T
        X = X + h * drift + dW[:, k:k + 1] * diffusion
        observe(k + 1, X)


def batch_means_se(prods, batches):
    """The batch-means standard error of the mean over the paths (axis 1)
    of prods, by the direct weighted formula. Each batch (first, end) of
    paths splits into min(10, end - first) contiguous sub-batches whose
    sizes differ by at most one, the larger first; over all G sub-batches,
    se^2 = sum_g n_g (mean_g - mean)^2 / (P (G - 1))."""
    groups = []
    for a, b in batches:
        g = min(10, b - a)
        q, r = divmod(b - a, g)
        edges = a + np.cumsum([0] + [q + 1] * r + [q] * (g - r))
        groups += zip(edges[:-1], edges[1:])
    P, G = prods.shape[1], len(groups)
    mean = prods.mean(axis=1)
    ss = sum((e - s) * (prods[:, s:e].mean(axis=1) - mean) ** 2 for s, e in groups)
    return np.sqrt(ss / (P * (G - 1)))


def test_block_kernel_equals_per_step_reference():
    plant = three_state_plant()
    h, P, seed = 1e-3, 24, 60
    n_steps = _DRAW_STEPS + 37  # one draw and a partial one
    assert n_steps % _BLOCK_STEPS and n_steps % 64
    cfg = SimConfig(h=h, sample_period=h, window=h, l=n_steps, n_paths=P,
                    base_seed=seed)
    assert cfg.n_steps == n_steps
    t = cfg.grid()
    x0 = np.array([0.8, -0.5, 0.3])

    def paths(A, C, forcing, z0):
        zs = np.empty((n_steps + 1, P, A.shape[0]))

        def keep(k, Z):
            zs[k] = Z

        em_per_step(A, C, forcing, z0, seed, P, n_steps, h, keep)
        return zs

    def close(got, want):
        assert np.abs(want).max() > 1e-3
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    # ensemble moments and the single path
    xs = paths(plant.A, plant.C, (plant.B, plant.D, two_input_signal(t)), x0)
    ds = run_ensemble(plant, two_input_signal, x0, cfg)
    r, c = np.triu_indices(3)
    prods = xs[:, :, r] * xs[:, :, c]
    close(ds.mean_x, xs.mean(axis=1))
    close(ds.mean_xx, prods.mean(axis=1))
    close(ds.se_xx, batch_means_se(prods, [(0, P)]))
    close(single_path(plant, two_input_signal, x0, cfg, seed), xs[:, 0])

    # tracking: the closed loop driven by -F x_d
    A_d = np.array([[0.0, 2.0], [-2.0, 0.0]])
    H_d = np.array([[1.0, 0.5]])
    x_d0 = np.array([1.0, 0.0])
    K = np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.2]])
    F = np.array([[0.2, -0.1], [0.0, 0.3]])
    ref = ReferenceGenerator(A_d, H_d, x_d0)
    u_ff = -_reference_states(A_d, x_d0, t) @ F.T
    xs = paths(plant.A - plant.B @ K, plant.C - plant.D @ K,
               (plant.B, plant.D, u_ff), x0)
    run = simulate_tracking(plant, A_d, x_d0, [(H_d, F, n_steps * h)], K, x0,
                            h=h, n_paths=P, base_seed=seed)
    close(run.x_mean, xs.mean(axis=1))

    # average cost: the same forced loop from the origin, with the cost
    # rate |Hx - H_d x_d|_Q^2 + |Kx + F x_d|_R^2 on the exact reference
    xs = paths(plant.A - plant.B @ K, plant.C - plant.D @ K,
               (plant.B, plant.D, u_ff), np.zeros(3))
    cost = CostWeights(Q=np.array([[2.0]]), R=np.diag([0.5, 1.0]))
    x_d = _reference_states(A_d, x_d0, t)
    e = xs @ plant.H.T - (x_d @ H_d.T)[:, None]
    v = xs @ K.T + (x_d @ F.T)[:, None]
    rates = (np.einsum("kpi,ij,kpj->kp", e, cost.Q, e)
             + np.einsum("kpi,ij,kpj->kp", v, cost.R, v))
    horizon = n_steps * h
    per_path = h * (rates.sum(axis=0) - 0.5 * (rates[0] + rates[-1])) / horizon
    [est] = estimate_average_cost(plant, ref, [(K, F)], cost, horizon, P, seed, h=h)
    close(est.per_path, per_path)
    close(est.mean, per_path.mean())
    close(est.se, per_path.std() / np.sqrt(P - 1))


def ensemble_and_products(P, n_steps, seed):
    """run_ensemble of P paths of the three-state plant, and the upper
    triangles of x x' of its paths, (steps, paths, entries)."""
    plant, h = three_state_plant(), 1e-3
    cfg = SimConfig(h=h, sample_period=h, window=h, l=n_steps, n_paths=P, base_seed=seed)
    x0 = np.array([0.8, -0.5, 0.3])
    xs = np.empty((n_steps + 1, 3, P))

    def keep(k0, S):
        xs[k0:k0 + len(S)] = S

    u = _sample_input(two_input_signal, cfg.grid(), 2)
    _em_paths(plant.A, plant.C, (plant.B, plant.D, u), x0, range(seed, seed + P),
              n_steps, h, keep)
    r, c = np.triu_indices(3)
    return run_ensemble(plant, two_input_signal, x0, cfg), (xs[:, r] * xs[:, c]).swapaxes(1, 2)


def test_uneven_batches_give_the_weighted_batch_means_se(deadline):
    # 1001 paths make a batch of 1000 (ten sub-batches of 100) and one of
    # a single path, its own sub-batch: G = 11 of unequal sizes
    P = sim._PATH_BATCH + 1
    ds, prods = ensemble_and_products(P, 64, seed=300)
    want = batch_means_se(prods, [(0, sim._PATH_BATCH), (sim._PATH_BATCH, P)])
    assert want[1:].min() > 0
    np.testing.assert_allclose(ds.se_xx, want, rtol=1e-12, atol=1e-12 * want.max())
    np.testing.assert_allclose(ds.mean_xx, prods.mean(axis=1), rtol=1e-12, atol=0)


def test_batch_means_se_is_near_the_per_path_se(deadline):
    # two batches of 1000 paths make G = 20 sub-batches of 100: each
    # entry's batch-means variance over the per-path one is about
    # chi-square(19) / 19, so the median ratio over the grid stays near 1
    P = 2 * sim._PATH_BATCH
    ds, prods = ensemble_and_products(P, 400, seed=500)
    per_path = prods.std(axis=1, ddof=1) / np.sqrt(P)
    ratio = np.median(ds.se_xx[1:] / per_path[1:])
    print("median batch-means / per-path se:", ratio)
    assert 0.8 <= ratio <= 1.25


def test_se_xx_is_none_for_one_path_and_finite_for_two():
    sys, x0 = small_plant(), np.array([0.8, 0.2])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=5, n_paths=1)
    assert run_ensemble(sys, None, x0, cfg).se_xx is None
    se = run_ensemble(sys, None, x0, replace(cfg, n_paths=2)).se_xx
    assert se.shape == (cfg.n_steps + 1, 3)
    assert np.isfinite(se).all() and se[-1].all()


def test_input_of_wrong_shape_is_a_config_error():
    sys = small_plant()
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=5, n_paths=2)

    def two_columns(t):
        return np.stack([np.sin(t), np.cos(t)], axis=-1)

    with pytest.raises(ConfigError, match=r"shape \(\d+, 2\)"):
        run_ensemble(sys, two_columns, np.zeros(2), cfg)


def test_input_function_errors_propagate_unchanged():
    class ProbeFault(RuntimeError):
        pass

    fault = ProbeFault("probe failed")

    def faulty(t):
        raise fault

    sys = small_plant()
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=5, n_paths=2)
    with pytest.raises(ProbeFault) as info:
        single_path(sys, faulty, np.zeros(2), cfg, seed=0)
    assert info.value is fault


def moment_rhs(sys, mvec, G, uk):
    """Right-hand side of the mean and second-moment ODEs in matrix form."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Bu = B @ uk
    Du = D @ uk
    dm = A @ mvec + Bu
    AG = A @ G
    outer_bm = np.outer(Bu, mvec)
    CmD = C @ np.outer(mvec, Du)
    dG = (AG + AG.T + outer_bm + outer_bm.T + C @ G @ C.T
          + CmD + CmD.T + np.outer(Du, Du))
    return dm, dG


def rk4_moments_per_step(plant, input, x0, cfg):
    """The exact moments by one classical RK4 step after another."""
    h, N = cfg.h, cfg.n_steps
    u = _sample_input(input, np.arange(2 * N + 1) * (h / 2.0), plant.m)
    r, c = np.triu_indices(plant.n)
    mv, G = np.array(x0, dtype=float), np.outer(x0, x0)
    mean_x, mean_xx = [mv], [G[r, c]]
    for k in range(N):
        dm1, dG1 = moment_rhs(plant, mv, G, u[2 * k])
        dm2, dG2 = moment_rhs(plant, mv + 0.5 * h * dm1, G + 0.5 * h * dG1, u[2 * k + 1])
        dm3, dG3 = moment_rhs(plant, mv + 0.5 * h * dm2, G + 0.5 * h * dG2, u[2 * k + 1])
        dm4, dG4 = moment_rhs(plant, mv + h * dm3, G + h * dG3, u[2 * k + 2])
        mv = mv + (h / 6.0) * (dm1 + 2 * dm2 + 2 * dm3 + dm4)
        G = G + (h / 6.0) * (dG1 + 2 * dG2 + 2 * dG3 + dG4)
        mean_x.append(mv)
        mean_xx.append(G[r, c])
    return np.array(mean_x), np.array(mean_xx)


@pytest.mark.parametrize("forced", [True, False])
def test_rk4_step_map_equals_per_step_rk4(forced):
    # n = 3, m = 2 with C and D full, so every term of the forcing
    # B u m' + m u' B' + C m u' D' + D u m' C' + D u u' D' is exercised
    sys = three_state_plant()
    sig = two_input_signal if forced else None
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=150)
    x0 = np.array([0.8, -0.5, 0.3])
    got = propagate_moments_exact(sys, sig, x0, cfg, method="rk4")
    mean_x, mean_xx = rk4_moments_per_step(sys, sig, x0, cfg)
    for a, b in ((got.mean_x, mean_x), (got.mean_xx, mean_xx)):
        assert np.abs(b).max() > 0.1
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    np.testing.assert_array_equal(got.t, cfg.grid())


def affine_per_step(z0, Lt, h, fs):
    """The RK4 step map z <- z Phi + w_k applied one step after another.

    Phi and w_k come from the module's stage formula, which
    test_rk4_step_map_equals_per_step_rk4 checks against RK4 on the
    moment ODEs; this is the recursion the blocked scan replaces.
    """
    phi_t = _rk4_step(Lt, h, np.eye(z0.size), (0.0,) * 4)[1]
    w = _rk4_step(Lt, h, np.zeros_like(fs[0]), fs)[1]
    Z = np.empty((w.shape[0] + 1, z0.size))
    Z[0] = z = z0
    for k in range(w.shape[0]):
        Z[k + 1] = z = z @ phi_t + w[k]
    return Z


SCAN_OPERATORS = {
    "stable": np.array([[-0.5, 2.0, 0.1], [-2.0, -0.5, 0.3], [0.2, -0.4, -1.0]]),
    "unstable": np.array([[0.25, 1.5, 0.0], [-1.5, 0.25, 0.2], [0.0, 0.3, -0.2]]),
    # one Jordan block: a defective operator takes the same path
    "defective": np.array([[-0.3, 1.0, 0.0], [0.0, -0.3, 1.0], [0.0, 0.0, -0.3]]),
    # h * lambda = -2.5 on the fast mode, inside RK4's real stability
    # interval, so its step factor is -0.65 and alternates in sign
    "stiff": np.array([[-2500.0, 0.0, 0.0], [1.0, -1.0, 0.5], [0.0, -0.5, -1.0]]),
}


@pytest.mark.parametrize("n_steps", [1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 21000])
@pytest.mark.parametrize("kind", sorted(SCAN_OPERATORS))
def test_blocked_scan_equals_per_step_recursion(kind, n_steps):
    L, h = SCAN_OPERATORS[kind], 1e-3
    rng = np.random.default_rng(n_steps)
    fs = [rng.standard_normal((n_steps, 3)) for _ in range(4)]
    z0 = np.array([0.7, -0.4, 1.1])
    got = _affine_recursion(z0, L.T, h, _stage_offsets(L.T, h, fs))
    want = affine_per_step(z0, L.T, h, fs)
    assert got.shape == (n_steps + 1, 3)
    np.testing.assert_array_equal(got[0], z0)
    # rtol 1e-12 of the largest state up to each step: the unstable rows
    # grow ~200-fold, and a stable row may pass near zero
    scale = np.maximum.accumulate(np.abs(want).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def dop853_moments(plant, input, x0, t):
    """The exact moments at times t from DOP853 at rtol 1e-12, the oracle."""
    from scipy.integrate import solve_ivp

    n = plant.n

    def rhs(s, z):
        dm, dG = moment_rhs(plant, z[:n], z[n:].reshape(n, n), input(np.array([s]))[0])
        return np.concatenate([dm, dG.ravel()])

    sol = solve_ivp(rhs, (0.0, t[-1]), np.concatenate([x0, np.outer(x0, x0).ravel()]),
                    method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    assert sol.success
    Z = sol.sol(t).T
    r, c = np.triu_indices(n)
    return Z[:, :n], Z[:, n:].reshape(-1, n, n)[:, r, c]


def shifted_plant_moments(plant, input, x0, cfg, rate):
    """The discounted moments as the moments of the shifted plant A - rate I
    driven by exp(-rate t) u(t): the same ODEs, integrated differently."""
    shifted = StochasticSystem(plant.A - rate * np.eye(plant.n), plant.B, plant.C,
                               plant.D, plant.H)

    def weighted(t):
        return np.exp(-rate * t)[:, None] * input(t)

    return propagate_moments_exact(shifted, weighted, x0, cfg)


def test_exact_moment_methods_agree():
    # RK4 on the grid against DOP853, at two steps: the error is below
    # 1e-7 of the moments' size and falls 16-fold when the step halves
    sys = three_state_plant()
    x0 = np.array([0.8, -0.5, 0.3])
    errs = []
    for h in (1e-2, 5e-3):
        cfg = SimConfig(h=h, sample_period=4e-2, window=0.2, l=25)
        got = propagate_moments_exact(sys, two_input_signal, x0, cfg)
        mean_x, mean_xx = dop853_moments(sys, two_input_signal, x0, got.t)
        step = round(1e-2 / h)
        errs.append([np.abs(a - b)[::step].max() / np.abs(b).max()
                     for a, b in ((got.mean_x, mean_x), (got.mean_xx, mean_xx))])
    errs = np.array(errs)
    assert errs[0].max() < 1e-7
    assert np.all((errs[0] / errs[1] > 12.0) & (errs[0] / errs[1] < 20.0))


def test_discount_route_matches_the_shifted_plant():
    # discounting the plant's moments, and integrating the shifted plant
    # under the discounted input, agree to RK4's O(h^4): the gap is small
    # and falls 16-fold when the step halves
    sys = three_state_plant()
    x0 = np.array([0.8, -0.5, 0.3])
    gaps = []
    for h in (2e-2, 1e-2):
        cfg = SimConfig(h=h, sample_period=4e-2, window=0.2, l=25)
        disc = propagate_moments_exact(sys, two_input_signal, x0, cfg, discount=0.45)
        old = shifted_plant_moments(sys, two_input_signal, x0, cfg, 0.45)
        np.testing.assert_allclose(disc.u, old.u, rtol=1e-15)
        step = round(2e-2 / h)
        gaps.append([np.abs(a - b)[::step].max() / np.abs(b).max()
                     for a, b in ((disc.mean_x, old.mean_x), (disc.mean_xx, old.mean_xx))])
    gaps = np.array(gaps)
    assert gaps[0].max() < 1e-7
    assert np.all((gaps[0] / gaps[1] > 12.0) & (gaps[0] / gaps[1] < 20.0))


@pytest.mark.parametrize("method", ["rk4"])
def test_diverging_exact_moments_raise_blowup(method):
    sys = StochasticSystem(A=np.array([[200.0]]), B=np.array([[1.0]]),
                           C=np.array([[0.0]]), D=np.array([[0.0]]),
                           H=np.array([[1.0]]))
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.1, l=190)
    with np.errstate(all="ignore"), pytest.raises(Blowup) as info:
        propagate_moments_exact(sys, None, np.array([1.0]), cfg, method=method)
    # unforced, the RK4 mean is psi^k and the second moment phi^k, with
    # psi and phi the degree-4 Taylor polynomials of A h and 2 A h; the
    # norm rule fires at the first k with hypot(psi^k, phi^k) > 1e8
    psi, phi = (sum(a ** j / math.factorial(j) for j in range(5)) for a in (0.2, 0.4))
    k = next(k for k in range(1, 1000) if math.hypot(psi ** k, phi ** k) > 1e8)
    assert k == 47
    assert info.value.time == cfg.grid()[k]
    # the rule reads the undiscounted moments, as the ensemble's does
    with np.errstate(all="ignore"), pytest.raises(Blowup) as disc:
        propagate_moments_exact(sys, None, np.array([1.0]), cfg, discount=100.0,
                                method=method)
    assert disc.value.time == info.value.time
    with pytest.raises(ConfigError, match="unknown method 'adaptive'"):
        propagate_moments_exact(sys, None, np.array([1.0]), cfg, method="adaptive")


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(h=0.0)
    with pytest.raises(ConfigError):
        SimConfig(h=1e-2, sample_period=1e-3)
    with pytest.raises(ConfigError):
        SimConfig(h=1e-3, sample_period=1e-2, window=0.0055)
    with pytest.raises(ConfigError):
        SimConfig(window=0.0)
    with pytest.raises(ConfigError):
        SimConfig(l=0)
    with pytest.raises(ConfigError):
        SimConfig(n_paths=0)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.1, t1=0.5, l=11)
    assert cfg.duration == pytest.approx(0.5 + 0.1 + 0.1)


def test_unstable_dynamics_raise_blowup():
    sys = StochasticSystem(A=np.array([[200.0]]), B=np.array([[1.0]]),
                           C=np.array([[0.0]]), D=np.array([[0.0]]),
                           H=np.array([[1.0]]))
    cfg = SimConfig(h=1e-4, sample_period=1e-3, window=0.05, l=51, n_paths=2)
    with pytest.raises(Blowup):
        run_ensemble(sys, None, np.array([1.0]), cfg)


def test_em_blowup_names_the_first_path_over_the_bound_and_its_time():
    # dx = 20 x dt + 5 x dw on a coarse grid: large multiplicative noise
    # sends the paths past 1e8 at different steps
    a, c, h, seed, P, N = 20.0, 5.0, 1e-2, 0, 8, 600
    sys = StochasticSystem(A=np.array([[a]]), B=np.array([[1.0]]),
                           C=np.array([[c]]), D=np.array([[0.0]]),
                           H=np.array([[1.0]]))
    cfg = SimConfig(h=h, sample_period=h, window=h, l=N, n_paths=P,
                    base_seed=seed)
    dW = increments(seed, P, N, h)
    x = np.ones((N + 1, P))
    for k in range(N):
        x[k + 1] = x[k] + h * a * x[k] + dW[k] * c * x[k]
    over = np.abs(x) > 1e8
    assert over.any(axis=0).all()
    assert len(set(over.argmax(axis=0))) > 1
    with pytest.raises(Blowup) as info:
        run_ensemble(sys, None, np.array([1.0]), cfg)
    p, k = info.value.path_index, round(info.value.time / h)
    assert info.value.time == pytest.approx(k * h, rel=1e-12)
    assert over[k, p]
    assert not over[:k].any() and not over[k, :p].any()
    assert p > 0 and k % _BLOCK_STEPS  # inside a block, not on path 0
    # the same paths over more than one draw cross at the same step
    longer = replace(cfg, l=_DRAW_STEPS + 37)
    with pytest.raises(Blowup) as again:
        run_ensemble(sys, None, np.array([1.0]), longer)
    assert (again.value.path_index, again.value.time) == (p, info.value.time)
    # without noise every path crosses at once, at the first k with
    # 1.2^k > 1e8, and the lowest index is named
    quiet = StochasticSystem(sys.A, sys.B, np.zeros((1, 1)), sys.D, sys.H)
    with pytest.raises(Blowup) as info:
        run_ensemble(quiet, None, np.array([1.0]), cfg)
    assert info.value.path_index == 0
    assert info.value.time == pytest.approx(h * math.ceil(np.log(1e8) / np.log(1.2)))


def unforced(plant, n_steps):
    """The kernel's forcing (B, D, u) with a zero input on n_steps steps."""
    return plant.B, plant.D, np.zeros((n_steps + 1, plant.m))


def test_the_kernel_starts_no_thread():
    before = threading.enumerate()
    seen = []

    def observe(k0, S):
        seen.append(threading.enumerate())

    plant, n_steps = small_plant(), _DRAW_STEPS + 37
    _em_paths(plant.A, plant.C, unforced(plant, n_steps), np.array([1.0, -1.0]), range(5, 8),
              n_steps, 1e-3, observe)
    assert seen and all(now == before for now in seen)
    assert threading.enumerate() == before


def test_an_observer_error_reaches_the_caller_unchanged():
    plant, x0 = small_plant(), np.array([1.0, -1.0])

    class ObserveFault(RuntimeError):
        pass

    fault = ObserveFault("observer failed")

    def observe(k0, S):
        if k0 > _DRAW_STEPS:
            raise fault

    n_steps = _DRAW_STEPS + 37
    with pytest.raises(ObserveFault) as info:
        _em_paths(plant.A, plant.C, unforced(plant, n_steps), x0, range(4),
                  n_steps, 1e-3, observe)
    assert info.value is fault


def kernel_increments(first_seed, n_paths, n_steps, h):
    """The increments the kernel applies, read off a plant whose state after
    each step is that step's increment: hA = -1, B = C = 0, D u = 1, so
    X + (-X + dW) = dW exactly when dW = +-sqrt(h)."""
    A = np.array([[-1.0 / h]])
    assert (h * A == -1.0).all()
    zero, one = np.zeros((1, 1)), np.ones((1, 1))
    states = np.empty((n_steps + 1, n_paths))

    def keep(k0, S):
        states[k0:k0 + len(S)] = S[:, 0]

    _em_paths(A, zero, (zero, one, np.ones((n_steps + 1, 1))), [0.0],
              range(first_seed, first_seed + n_paths), n_steps, h, keep)
    return states[1:]


def test_a_path_takes_the_first_increments_of_its_sign_bits():
    # two draws, the last of 37 steps; 8192 + 37 is not a multiple of 64,
    # so the last word's spare bits go unused
    h, P, seed, N = 1e-3, 3, 40, _DRAW_STEPS + 37
    assert N % 64
    np.testing.assert_array_equal(kernel_increments(seed, P, N, h),
                                  increments(seed, P, N, h))
    for i in range(P):
        np.testing.assert_array_equal(kernel_increments(seed + i, 1, N, h)[:, 0],
                                      increments(seed + i, 1, N, h)[:, 0])


def test_every_increment_is_plus_or_minus_sqrt_h():
    for h in (1e-3, 1e-4, 0.3):
        dW = kernel_increments(11, 5, 700, h)
        assert (np.abs(dW) == np.sqrt(h)).all()
        assert (dW > 0).any(axis=0).all() and (dW < 0).any(axis=0).all()


def test_average_cost_zero_at_origin():
    sys = small_plant()
    ref = ReferenceGenerator(np.array([[0.0]]), np.array([[1.0]]),
                             np.array([0.0]))
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    K = np.array([[0.5, 0.5]])
    F = np.array([[0.3]])
    [est] = estimate_average_cost(sys, ref, [(K, F)], cost, horizon=2.0,
                                  n_paths=16, seed=1, h=1e-3)
    # with x0 = 0 and x_d0 = 0 the multiplicative noise never switches on
    assert est.mean == 0.0
    assert est.se == 0.0


def test_average_cost_rejects_destabilizing_gain():
    sys = StochasticSystem(A=np.array([[1.0]]), B=np.array([[1.0]]),
                           C=np.array([[1.0]]), D=np.array([[0.0]]),
                           H=np.array([[1.0]]))
    ref = ReferenceGenerator(np.array([[0.0]]), np.array([[1.0]]),
                             np.array([1.0]))
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    with pytest.raises(Blowup):
        estimate_average_cost(sys, ref, [(np.zeros((1, 1)), np.zeros((1, 1)))],
                              cost, horizon=1.0, n_paths=4, seed=0)


def test_average_cost_reproducible_and_positive():
    sys = small_plant()
    ref = ReferenceGenerator(np.array([[0.0]]), np.array([[1.0]]),
                             np.array([1.0]))
    cost = CostWeights(Q=np.array([[2.0]]), R=np.array([[0.5]]))
    K = np.array([[1.0, 1.2]])
    F = np.array([[-0.8]])
    [a] = estimate_average_cost(sys, ref, [(K, F)], cost, horizon=4.0,
                                n_paths=64, seed=5, h=1e-3)
    [b] = estimate_average_cost(sys, ref, [(K, F)], cost, horizon=4.0,
                                n_paths=64, seed=5, h=1e-3)
    assert a.mean == b.mean and a.se == b.se
    assert a.mean > 0.0 and a.se > 0.0 and a.n_paths == 64


def assert_stacked_designs_equal_their_runs_alone(n_steps):
    plant = three_state_plant()
    ref = ReferenceGenerator(np.array([[0.0, 2.0], [-2.0, 0.0]]),
                             np.array([[1.0, 0.5]]), np.array([1.0, 0.0]))
    cost = CostWeights(Q=np.array([[2.0]]), R=np.diag([0.5, 1.0]))
    designs = [(np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.2]]),
                np.array([[0.2, -0.1], [0.0, 0.3]])),
               (np.array([[1.0, 0.0, 0.2], [0.1, 0.8, 0.0]]),
                np.array([[-0.3, 0.1], [0.2, 0.0]]))]
    h, P, seed = 1e-3, 9, 21
    horizon = n_steps * h
    stacked = estimate_average_cost(plant, ref, designs, cost, horizon, P, seed, h=h)
    assert len(stacked) == 2
    assert not np.array_equal(stacked[0].per_path, stacked[1].per_path)
    for design, both in zip(designs, stacked):
        [alone] = estimate_average_cost(plant, ref, [design], cost, horizon, P,
                                        seed, h=h)
        assert np.array_equal(both.per_path, alone.per_path)
        assert (both.mean, both.se) == (alone.mean, alone.se)


def test_stacked_designs_equal_their_runs_alone():
    # two designs in one pass share each path's increments; each design's
    # block of the stacked closed loop must reproduce its run alone bit for
    # bit, across draw and block boundaries
    assert_stacked_designs_equal_their_runs_alone(_DRAW_STEPS + 45)


def test_simulate_tracking_switches_and_shapes():
    sys = small_plant()
    A_d = np.array([[0.0, 1.0], [-4.0, 0.0]])
    x_d0 = np.array([1.0, 0.0])
    H1 = np.array([[1.0, 0.0]])
    H2 = np.array([[0.0, 1.0]])
    F1 = np.array([[0.2, 0.0]])
    F2 = np.array([[0.0, 0.2]])
    K = np.array([[1.0, 1.5]])
    run = simulate_tracking(sys, A_d, x_d0, [(H1, F1, 1.0), (H2, F2, 1.5)],
                            K, np.zeros(2), h=1e-3, n_paths=12, base_seed=3)
    assert run.t[-1] == pytest.approx(2.5)
    assert list(run.switch_times) == pytest.approx([1.0])
    assert run.y_mean.shape == run.y_d.shape == (len(run.t), 1)
    assert run.u_mean.shape == (len(run.t), 1)
    assert np.isfinite(run.y_mean).all()
    # the reference state is continuous across the switch
    k = round(1.0 / 1e-3)
    np.testing.assert_allclose(run.x_d[k], expm(A_d * 1.0) @ x_d0,
                               rtol=1e-8, atol=1e-10)
    # but the displayed reference output jumps with the new output map
    assert float(run.y_d[k, 0]) == pytest.approx(float(H2[0] @ run.x_d[k]))


def test_tracking_mean_is_the_closed_loop_ensemble_mean():
    # one segment of simulate_tracking is run_ensemble on the closed-loop
    # plant (A-BK, B, C-DK, D) driven by -F x_d with the same seeds
    sys = small_plant()
    A_d = np.array([[0.0, 1.0], [-4.0, 0.0]])
    x_d0 = np.array([1.0, 0.0])
    H_d = np.array([[1.0, 0.0]])
    F = np.array([[0.2, -0.1]])
    K = np.array([[1.0, 1.5]])
    x0 = np.array([0.3, -0.2])
    h, n_steps = 1e-3, 300
    run = simulate_tracking(sys, A_d, x_d0, [(H_d, F, n_steps * h)], K, x0,
                            h=h, n_paths=6, base_seed=40)
    closed = StochasticSystem(sys.A - sys.B @ K, sys.B, sys.C - sys.D @ K,
                              sys.D, sys.H)
    cfg = SimConfig(h=h, sample_period=h, window=h, l=n_steps, n_paths=6,
                    base_seed=40)
    assert cfg.n_steps == n_steps
    ds = run_ensemble(closed, lambda t: -_reference_states(A_d, x_d0, t) @ F.T,
                      x0, cfg)
    np.testing.assert_array_equal(run.x_mean, ds.mean_x)
    np.testing.assert_array_equal(run.x_d, _reference_states(A_d, x_d0, run.t))


def test_reference_trajectory_matches_exponential():
    A_d = np.array([[0.0, 2.0], [-2.0, 0.0]])
    x_d0 = np.array([1.0, -1.0])
    t = np.linspace(0.0, 3.0, 31)
    x_d = _reference_states(A_d, x_d0, t)
    assert x_d.shape == (31, 2)
    for k in (0, 7, 30):
        np.testing.assert_allclose(x_d[k], expm(A_d * t[k]) @ x_d0,
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("duration", [0.0105, 0.0, -0.01])
def test_tracking_durations_must_be_positive_multiples_of_h(duration):
    plant = small_plant()
    A_d = np.array([[0.0, 1.0], [-1.0, 0.0]])
    schedule = [(np.array([[1.0, 0.0]]), np.zeros((1, 2)), 0.01),
                (np.array([[2.0, 0.0]]), np.zeros((1, 2)), duration)]
    with pytest.raises(ConfigError, match="not a positive multiple of h"):
        simulate_tracking(plant, A_d, np.array([1.0, 0.0]), schedule,
                          np.zeros((1, 2)), None, h=1e-3, n_paths=2,
                          base_seed=0)



# Path batches and their workers. The batch size and the usable CPUs
# (os.sched_getaffinity) are monkeypatched: 5 paths in batches of 2 make
# three batches, the last of one path, whatever the host's CPU count.


@pytest.fixture
def deadline():
    """Fail a test that still waits on its workers after 60 s, instead of
    hanging the run; the workers are reaped as on any other error."""
    def expire(signum, frame):
        raise TimeoutError("worker test still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def use_cpus(monkeypatch, count):
    """Report count usable CPUs; returns a list that gains an item per fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def batched_runs(monkeypatch, cpus, batch=2):
    """A 5-path ensemble and cost study in batches of batch paths, run on
    cpus workers; returns their results and the number of forks."""
    monkeypatch.setattr(sim, "_PATH_BATCH", batch)
    forks = use_cpus(monkeypatch, cpus)
    plant, x0 = three_state_plant(), np.array([0.8, -0.5, 0.3])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=30, n_paths=5,
                    base_seed=60)
    ds = run_ensemble(plant, two_input_signal, x0, cfg, discount=0.3)
    ref = ReferenceGenerator(np.array([[0.0, 2.0], [-2.0, 0.0]]),
                             np.array([[1.0, 0.5]]), np.array([1.0, 0.0]))
    cost = CostWeights(Q=np.array([[2.0]]), R=np.diag([0.5, 1.0]))
    designs = [(np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.2]]),
                np.array([[0.2, -0.1], [0.0, 0.3]])),
               (np.array([[1.0, 0.0, 0.2], [0.1, 0.8, 0.0]]),
                np.array([[-0.3, 0.1], [0.2, 0.0]]))]
    costs = estimate_average_cost(plant, ref, designs, cost, 0.4, 5, 21, h=1e-3)
    assert_no_child_left()
    return ds, costs, len(forks)


@pytest.mark.parametrize("cpus", [2, 3])
def test_batches_give_the_same_bytes_on_any_worker_count(monkeypatch, deadline, cpus):
    ds1, costs1, forks1 = batched_runs(monkeypatch, 1)
    ds, costs, forks = batched_runs(monkeypatch, cpus)
    assert (forks1, forks) == (0, 2 * (cpus - 1))  # both calls fork cpus - 1 workers
    for name in ("mean_x", "mean_xx", "se_xx", "u"):
        assert getattr(ds, name).tobytes() == getattr(ds1, name).tobytes()
    for est, est1 in zip(costs, costs1):
        assert est.per_path.tobytes() == est1.per_path.tobytes()
        assert (est.mean, est.se) == (est1.mean, est1.se)
    # against one pass over every path, the per-path costs are the same
    # bytes, and the moments agree to roundoff (their sums are regrouped)
    ds0, costs0, _ = batched_runs(monkeypatch, cpus, batch=5)
    for est, est0 in zip(costs, costs0):
        assert est.per_path.tobytes() == est0.per_path.tobytes()
    for name in ("mean_x", "mean_xx", "se_xx"):
        np.testing.assert_allclose(getattr(ds, name), getattr(ds0, name),
                                   rtol=1e-13, atol=1e-15)


def test_noise_free_batched_ensemble_collapses_to_one_path(monkeypatch, deadline):
    monkeypatch.setattr(sim, "_PATH_BATCH", 2)
    use_cpus(monkeypatch, 2)
    sys = StochasticSystem(
        A=np.array([[-0.4, 0.9], [-0.9, -0.2]]),
        B=np.array([[0.0], [1.0]]),
        C=np.zeros((2, 2)), D=np.zeros((2, 1)),
        H=np.array([[1.0, 0.0]]),
    )
    sig = ProbingSignal(1.0, 3, (-5.0, 5.0), seed=1)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.01, l=30,
                    n_paths=5, base_seed=100)
    x0 = np.array([0.5, -0.25])
    ds = run_ensemble(sys, sig, x0, cfg)
    path = single_path(sys, sig, x0, cfg, seed=100)
    np.testing.assert_array_equal(ds.mean_x, path)
    r, c = np.triu_indices(2)
    np.testing.assert_array_equal(ds.mean_xx, path[:, r] * path[:, c])
    assert not ds.se_xx.any()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_earliest_blowup_over_all_batches_names_its_global_path(monkeypatch, deadline,
                                                                   cpus):
    # the paths of test_em_blowup_names_the_first_path_over_the_bound_and_its_time,
    # batched so that the first path over the bound, p, leads batch 1; every
    # path of batch 0 crosses later, and with two workers batch 1 runs in
    # the worker
    a, c, h, seed, P, N = 20.0, 5.0, 1e-2, 0, 8, 600
    dW = increments(seed, P, N, h)
    x = np.ones((N + 1, P))
    for k in range(N):
        x[k + 1] = x[k] + h * a * x[k] + dW[k] * c * x[k]
    over = np.abs(x) > 1e8
    first = over.argmax(axis=0)
    p = int(np.lexsort((np.arange(P), first))[0])  # the earliest, then the lowest
    assert over.any(axis=0).all() and 0 < p < P - 1
    assert (first[:p] > first[p]).all()
    monkeypatch.setattr(sim, "_PATH_BATCH", p)
    forks = use_cpus(monkeypatch, cpus)
    sys = StochasticSystem(A=np.array([[a]]), B=np.array([[1.0]]),
                           C=np.array([[c]]), D=np.array([[0.0]]),
                           H=np.array([[1.0]]))
    cfg = SimConfig(h=h, sample_period=h, window=h, l=N, n_paths=P, base_seed=seed)
    with pytest.raises(Blowup) as info:
        run_ensemble(sys, None, np.array([1.0]), cfg)
    assert len(forks) == cpus - 1
    assert info.value.path_index == p
    assert info.value.time == pytest.approx(first[p] * h, rel=1e-12)
    assert f"on path {p} at" in str(info.value)
    assert_no_child_left()


class WorkerFault(Exception):
    def __init__(self, msg, handle):
        super().__init__(msg)
        self.handle = handle  # a lock does not pickle


@pytest.mark.parametrize("fault, kind", [
    (Blowup("batch 1 diverged", path_index=3, time=0.5), Blowup),
    (ConfigError("batch 1 is misconfigured"), ConfigError),
    (WorkerFault("batch 1 failed", threading.Lock()), RuntimeError),
], ids=["blowup", "config", "unpicklable"])
def test_a_worker_error_reaches_the_caller_with_its_type(monkeypatch, deadline, fault, kind):
    use_cpus(monkeypatch, 2)

    def run(share):
        if share[0] == 1:
            raise fault

    with pytest.raises(kind) as info:
        _run_batches(2, run)
    assert str(fault) in str(info.value)
    if kind is Blowup:
        assert (info.value.path_index, info.value.time) == (3, 0.5)
    assert_no_child_left()


def test_a_worker_that_ends_without_its_outcome_is_an_error(monkeypatch, deadline):
    use_cpus(monkeypatch, 2)

    def run(share):
        if share[0] == 1:
            os._exit(3)

    with pytest.raises(RuntimeError, match="ended before sending"):
        _run_batches(2, run)
    assert_no_child_left()


def test_workers_are_reaped_when_this_process_is_interrupted(monkeypatch, deadline):
    use_cpus(monkeypatch, 2)

    def run(share):
        if share[0] == 0:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _run_batches(2, run)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_process_makes_one_kernel_pass(monkeypatch, deadline, cpus):
    # the three batches of run_ensemble and of estimate_average_cost (their
    # observers record and integrate) run as one pass each on one CPU; on
    # two, this process runs batch 0 and the worker's pass is its own
    observers, em_paths = [], sim._em_paths
    monkeypatch.setattr(sim, "_em_paths",
                        lambda *a, **k: observers.append(a[7].__name__) or em_paths(*a, **k))
    _, _, forks = batched_runs(monkeypatch, cpus)
    assert (observers, forks) == (["record", "integrate"], 2 * (cpus - 1))
