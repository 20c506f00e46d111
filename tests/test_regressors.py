"""Windowed moment accumulation and regression-row assembly."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_simpson, simpson
from scipy.linalg import expm

from slqt.errors import ConfigError, WindowOutOfRange
from slqt.model import ReferenceGenerator, StochasticSystem
from slqt.regressors import (MomentTable, _windowed_integrals,
                             accumulate_raw_moments, feedback_required_rank,
                             feedforward_required_rank, psi_rhs, rank_report)
from slqt.sim import ProbingSignal, SimConfig, propagate_moments_exact
from slqt.symquad import vech

# x_d' = 0: the reference stays at x_d0 = 1
STILL = ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[1.0])


def constant_source(x0, m=1, n_steps=200, h=1e-3, discount=None):
    """A synthetic grid source frozen at state x0 with zero input."""
    t = np.arange(n_steps + 1) * h
    n = x0.size
    mean_x = np.tile(x0, (t.size, 1))
    mean_xx = np.tile(vech(np.outer(x0, x0)), (t.size, 1))
    u = np.zeros((t.size, m))
    return SimpleNamespace(t=t, mean_x=mean_x, mean_xx=mean_xx, u=u, discount=discount)


def tabulate(src, cfg, t_offset=0.0):
    """The table of src with output map [1 0 ...] and the still reference."""
    return accumulate_raw_moments(src, cfg, np.eye(1, src.mean_x.shape[1]), STILL,
                                  t_offset)


def test_constant_state_moments():
    x0 = np.array([1.5, -2.0])
    src = constant_source(x0)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=10, n_paths=1)
    tab = tabulate(src, cfg)
    outer = np.outer(x0, x0)
    for k in range(len(tab)):
        np.testing.assert_allclose(tab.G0[k], outer, rtol=1e-12)
        np.testing.assert_allclose(tab.GT[k], outer, rtol=1e-12)
        np.testing.assert_allclose(tab.S[k], 0.05 * outer, rtol=1e-10)
        np.testing.assert_allclose(tab.W[k], 0.0, atol=1e-15)
        np.testing.assert_allclose(tab.V[k], 0.0, atol=1e-15)


def test_windowed_integrals_match_direct_quadrature():
    # Simpson's rule on each window's own 41 samples: the same sum where
    # the window starts on an even grid index (k = 0, 24), another
    # fourth-order rule where it starts on an odd one (k = 7); the
    # trapezoid rule misses both by more than 1e-7 of the scale
    sys = StochasticSystem(A=np.array([[-0.5, 1.0], [-1.0, -0.3]]),
                           B=np.array([[0.0], [1.0]]),
                           C=0.1 * np.eye(2), D=np.zeros((2, 1)),
                           H=np.array([[1.0, 0.0]]))
    sig = ProbingSignal(1.0, 5, (-10.0, 10.0), seed=3)
    cfg = SimConfig(h=1e-3, sample_period=5e-3, window=0.04, l=25)
    traj = propagate_moments_exact(sys, sig, np.array([1.0, 0.0]), cfg)
    tab = tabulate(traj, cfg)
    for k in (0, 7, 24):
        t0 = cfg.sample_times()[k]
        sel = (traj.t >= t0 - 1e-12) & (traj.t <= t0 + cfg.window + 1e-12)
        assert sel.sum() == 41
        xu = traj.mean_x[sel] * traj.u[sel]
        for got, f in ((vech(tab.S[k]), traj.mean_xx[sel]), (tab.W[k].ravel(), xu)):
            scale = cfg.window * np.abs(f).max()
            np.testing.assert_allclose(got, simpson(f, x=traj.t[sel], axis=0),
                                       rtol=0.0, atol=1e-8 * scale)
    # every window of every start and length, against scipy's cumulative
    # Simpson on grids of 2 points (the trapezoid rule), 3 points, and an
    # odd and an even number of points
    rng = np.random.default_rng(0)
    for size in (2, 3, 40, 41):
        series = rng.standard_normal((size, 3))
        cum = cumulative_simpson(series, dx=0.01, axis=0, initial=0.0)
        for w in range(size):
            idx = np.arange(size - w)
            np.testing.assert_allclose(_windowed_integrals(series, idx, w, 0.01),
                                       cum[idx + w] - cum[idx], rtol=0.0, atol=1e-14)


def linear_rows(p, q, t):
    return p[None, :] + t[:, None] * q[None, :]


def integral_of_outer(p, q, r, s, t0, t1):
    """Closed form of the integral of (p + q t)(r + s t)' over [t0, t1]."""
    d1, d2, d3 = t1 - t0, (t1 ** 2 - t0 ** 2) / 2.0, (t1 ** 3 - t0 ** 3) / 3.0
    return (np.multiply.outer(p, r) * d1 + (np.multiply.outer(p, s)
            + np.multiply.outer(q, r)) * d2 + np.multiply.outer(q, s) * d3)


coefs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from([1e-3, 2.5e-3, 0.01, 0.05]), st.integers(0, 40),
       st.integers(1, 12), st.integers(1, 60), st.integers(1, 12), st.integers(0, 3),
       arrays(float, (5, 2), elements=coefs))
def test_windows_integrate_quadratic_moments_exactly(h, t1_steps, period_steps,
                                                     window_steps, l, extra, coef):
    # x and u linear in t (the rows a, b and c, d of coef are the pairs p, q
    # of p + q t), so S, W and V integrate quadratics; x_d is the constant
    # e (a reference with A_d = 0), so its products with x and u are
    # linear: all exact to roundoff at any start and window length
    # SimConfig accepts, on grids of at least three points that may run
    # past the last window
    cfg = SimConfig(h=h, sample_period=period_steps * h, window=window_steps * h,
                    t1=t1_steps * h, l=l, n_paths=1)
    t = np.arange(max(cfg.n_steps + extra, 2) + 1) * h
    a, b, c, d, e = coef
    x = linear_rows(a, b, t)
    src = SimpleNamespace(t=t, mean_x=x, u=linear_rows(c, d, t), discount=None,
                          mean_xx=np.array([vech(np.outer(r, r)) for r in x]))
    ref = ReferenceGenerator(A_d=np.zeros((2, 2)), H_d=[[1.0, 0.0]], x_d0=e)
    tab = accumulate_raw_moments(src, cfg, np.eye(1, 2), ref)
    still = np.zeros(2)
    # every integrand is at most 4 (1 + t)^2 in size
    scale = t[-1] * 4.0 * (1.0 + t[-1]) ** 2
    for i, t0 in enumerate(cfg.sample_times()):
        t_end = t0 + cfg.window
        for got, ref in (
                (tab.S[i], integral_of_outer(a, b, a, b, t0, t_end)),
                (tab.W[i], integral_of_outer(a, b, c, d, t0, t_end)),
                (tab.V[i], integral_of_outer(c, d, c, d, t0, t_end)),
                (tab.d_xdchi[i], np.multiply.outer(e, cfg.window * b).ravel()),
                (tab.I_xdchi[i], integral_of_outer(e, still, a, b, t0, t_end).ravel()),
                (tab.I_xdu[i], integral_of_outer(e, still, c, d, t0, t_end).ravel())):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * scale)


def test_window_beyond_grid_raises():
    src = constant_source(np.array([1.0]), n_steps=100)
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=10)
    # samples reach 0.09 + 0.05 window = 0.14 > grid end 0.10
    with pytest.raises(WindowOutOfRange):
        tabulate(src, cfg)


def test_sample_times_must_lie_on_grid():
    src = constant_source(np.array([1.0]), n_steps=1000)
    cfg = SimConfig(h=2.5e-3, sample_period=2.5e-3, window=0.005, l=4)
    with pytest.raises(ConfigError):
        tabulate(src, cfg)


def test_indefinite_second_moments_are_rejected():
    src = constant_source(np.array([1.0, 0.5]), n_steps=200)
    bad = -np.eye(2)
    src.mean_xx = np.tile(vech(bad), (src.t.size, 1))
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=5)
    with pytest.raises(ConfigError):
        tabulate(src, cfg)


def test_required_rank_counts():
    assert feedback_required_rank(2, 1) == 6
    assert feedback_required_rank(2, 1, with_lambda=False) == 5
    assert feedback_required_rank(4, 1) == 15
    assert feedback_required_rank(4, 1, with_lambda=False) == 14
    assert feedforward_required_rank(2, 1, 3) == 9
    assert feedforward_required_rank(4, 1, 3) == 15


def test_rank_report_margins():
    rng = np.random.default_rng(0)
    full = rng.normal(size=(40, 6))
    rep = rank_report(full, 6)
    assert rep.passed and rep.rank == 6 and rep.margin > 0.0
    thin = full.copy()
    thin[:, 5] = thin[:, 0] + thin[:, 1]
    rep2 = rank_report(thin, 6)
    assert not rep2.passed and rep2.rank == 5 and rep2.margin <= 0.0
    assert rep2.singular_values.shape == (6,)


def test_concat_appends_rows_and_checks_shapes():
    x0 = np.array([1.0, -1.0])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=8)
    a = tabulate(constant_source(x0), cfg)
    b = tabulate(constant_source(2.0 * x0), cfg, t_offset=1.0)
    both = MomentTable.concat([a, b])
    assert len(both) == 16
    np.testing.assert_allclose(both.t_global[8:], b.t_global, atol=1e-12)
    assert both.t_global[8] == pytest.approx(1.0)
    np.testing.assert_allclose(both.S[:8], a.S)
    np.testing.assert_allclose(both.S[8:], b.S)
    cfg_other = SimConfig(h=1e-3, sample_period=1e-2, window=0.03, l=8)
    c = tabulate(constant_source(x0), cfg_other)
    with pytest.raises(ConfigError):
        MomentTable.concat([a, c])
    # a reference of another dimension
    pair = ReferenceGenerator(np.zeros((2, 2)), [[1.0, 0.0]], [1.0, 1.0])
    d = accumulate_raw_moments(constant_source(x0), cfg, np.eye(1, 2), pair)
    assert (a.n_d, d.n_d) == (1, 2)
    with pytest.raises(ConfigError, match="dimensions"):
        MomentTable.concat([a, d])


def test_concat_refuses_tables_of_different_discounts():
    x0 = np.array([1.0, -1.0])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=8)
    a, b, c = (tabulate(constant_source(x0, discount=rate), cfg)
               for rate in (0.45, 0.45, 0.3))
    assert a.discount == 0.45 and c.discount == 0.3
    assert MomentTable.concat([a, b]).discount == 0.45
    undiscounted = tabulate(constant_source(x0), cfg)
    for other in (c, undiscounted):
        with pytest.raises(ConfigError, match="disagree on discount"):
            MomentTable.concat([a, other])


def test_concat_refuses_tables_of_different_output_maps():
    x0 = np.array([1.0, -1.0])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=8)
    a = tabulate(constant_source(x0), cfg)
    b = accumulate_raw_moments(constant_source(x0), cfg, [[0.0, 1.0]], STILL)
    np.testing.assert_array_equal(a.H, [[1.0, 0.0]])
    with pytest.raises(ConfigError, match="disagree on the output map H"):
        MomentTable.concat([a, b])
    # an output map of another height
    c = accumulate_raw_moments(constant_source(x0), cfg, np.eye(2), STILL)
    with pytest.raises(ConfigError, match="disagree on the output map H"):
        MomentTable.concat([a, c])
    np.testing.assert_array_equal(MomentTable.concat([a, a]).H, a.H)


def test_psi_rhs_is_linear_in_forcing():
    x0 = np.array([0.7, 0.4])
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=6)
    tab = tabulate(constant_source(x0), cfg)
    forcing = np.array([[2.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(psi_rhs(tab, 2.0 * forcing),
                               2.0 * psi_rhs(tab, forcing), rtol=1e-13)


def reference_source(n_steps=400, h=1e-3):
    """Grid source with a rotating reference attached."""
    sys = StochasticSystem(A=np.array([[-0.5, 1.0], [-1.0, -0.3]]),
                           B=np.array([[0.0], [1.0]]),
                           C=0.1 * np.eye(2), D=np.zeros((2, 1)),
                           H=np.array([[1.0, 0.0]]))
    ref = ReferenceGenerator(np.array([[0.0, 1.0], [-2.0, 0.0]]),
                             np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
    sig = ProbingSignal(0.5, 4, (-8.0, 8.0), seed=5)
    cfg = SimConfig(h=h, sample_period=5e-3, window=0.05, l=40)
    traj = propagate_moments_exact(sys, sig, np.array([0.5, -0.5]), cfg)
    return accumulate_raw_moments(traj, cfg, sys.H, ref), ref


def test_feedforward_blocks_have_reference_columns():
    tab, _ = reference_source()
    assert tab.n_d == 2
    assert tab.I_xdchi.shape == (len(tab), 2 * 2)
    assert tab.I_xdu.shape == (len(tab), 2 * 1)
    assert tab.d_xdchi.shape == (len(tab), 2 * 2)


def test_reference_restarts_at_the_segment_offset():
    # a segment starting at t_offset on the experiment clock sees the
    # reference from its state there, x_d(t_offset) = e^{A_d t_offset} x_d0
    src = constant_source(np.array([1.0, -1.0]))
    cfg = SimConfig(h=1e-3, sample_period=1e-2, window=0.05, l=8)
    ref = ReferenceGenerator([[0.0, 1.0], [-2.0, 0.0]], [[1.0, 0.0]], [1.0, 0.0])
    later = accumulate_raw_moments(src, cfg, np.eye(1, 2), ref, t_offset=0.7)
    moved = ReferenceGenerator(ref.A_d, ref.H_d, expm(0.7 * ref.A_d) @ ref.x_d0)
    now = accumulate_raw_moments(src, cfg, np.eye(1, 2), moved)
    for block in ("d_xdchi", "I_xdchi", "I_xdu"):
        np.testing.assert_allclose(getattr(later, block), getattr(now, block),
                                   rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(later.t_global, now.t_global + 0.7, atol=1e-12)
