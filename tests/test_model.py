"""System containers, stability operator, and certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slqt.errors import ConfigError, NotStabilizing, SingularOperator
from slqt.model import (_ARNOLDI_MIN_DIM, BpiHyperParams, CostWeights,
                        ReferenceGenerator, StochasticSystem, TrackingProblem,
                        _abscissa, _arnoldi_abscissa, _inverse_certificate,
                        _invert, _lyap_operator, is_stabilizing, lyap_matrix,
                        spectral_abscissa, zero_gain_threshold)
from slqt.solvers import _cond_bound, solve_gen_lyap
from slqt.symquad import unvech_rows, vech, vech_rows, unvech

properties = settings(derandomize=True, database=None, max_examples=100,
                      deadline=None)
entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def plant_gain_level(draw):
    """A random plant (n = 1..6, m = 1..2), a gain K and a level (alpha, gamma).

    Unless alpha is None, the level puts the closed-loop abscissa at
    -offset with 1e-3 <= |offset| <= 1, so that about half the cases are
    stabilizing; shifting A by -s I moves the abscissa by -2 s, and the
    unshifted abscissa comes from the Kronecker moment flow.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 2))

    def mat(rows, cols):
        return draw(arrays(float, (rows, cols), elements=entries))

    sys = StochasticSystem(A=mat(n, n), B=mat(n, m), C=mat(n, n), D=mat(n, m),
                           H=np.eye(n)[:1])
    K = mat(m, n)
    if draw(st.booleans()):
        return sys, K, None, 1.0
    A_cl, C_cl = sys.A - sys.B @ K, sys.C - sys.D @ K
    eye = np.eye(n)
    flow = np.kron(eye, A_cl) + np.kron(A_cl, eye) + np.kron(C_cl, C_cl)
    beta = np.linalg.eigvals(flow).real.max()
    offset = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    gamma = draw(st.floats(0.5, 20.0))
    return sys, K, gamma - (beta + offset), gamma


def closed_loop_at(sys, K, alpha, gamma):
    shift = 0.0 if alpha is None else 0.5 * (gamma - alpha)
    return sys.A - shift * np.eye(sys.n) - sys.B @ K, sys.C - sys.D @ K


@properties
@given(plant_gain_level())
def test_lyap_matrix_equals_projected_kronecker_build(case):
    # vec(A'X + XA + C'XC) = (I kron A' + A' kron I + C' kron C') vec(X) on
    # column-major vec, where entry (i, j) sits at i + j n; vech coordinate
    # q expands in E_q, which has ones at (r_q, c_q) and (c_q, r_q)
    sys, K, alpha, gamma = case
    A_cl, C_cl = closed_loop_at(sys, K, alpha, gamma)
    n = sys.n
    eye = np.eye(n)
    big = np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye) + np.kron(C_cl.T, C_cl.T)
    r, c = np.triu_indices(n)
    rows = big[r + c * n]
    want = rows[:, r + c * n] + np.where(r != c, 1.0, 0.0) * rows[:, c + r * n]
    got = lyap_matrix(sys, K, alpha, gamma)
    assert got.shape == (r.size, r.size)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@properties
@given(plant_gain_level(), st.integers(0, 2**32 - 1))
def test_lyap_matrix_applies_the_operator(case, seed):
    sys, K, alpha, gamma = case
    A_cl, C_cl = closed_loop_at(sys, K, alpha, gamma)
    M = np.random.default_rng(seed).standard_normal((sys.n, sys.n))
    P = M + M.T
    direct = A_cl.T @ P + P @ A_cl + C_cl.T @ P @ C_cl
    via_matrix = unvech(lyap_matrix(sys, K, alpha, gamma) @ vech(P), sys.n)
    assert np.abs(via_matrix - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())


# a defective closed loop (one 3x3 Jordan block at -0.002, C = 0): mean-square
# stable at abscissa -0.004, but its operator's condition number is 1.3e13
DEFECTIVE = (StochasticSystem(A=[[-0.002, 1.0, 0.0], [0.0, -0.002, 1.0],
                                 [0.0, 0.0, -0.002]], B=np.ones((3, 1)),
                              C=np.zeros((3, 3)), D=np.zeros((3, 1)),
                              H=np.eye(3)[:1]),
             np.zeros((1, 3)), None, 1.0)


@properties
@given(plant_gain_level())
@example(DEFECTIVE)
def test_solve_certificate_is_the_is_stabilizing_certificate(case):
    sys, K, alpha, gamma = case
    want = is_stabilizing(sys, K, alpha, gamma=gamma)
    try:
        got = solve_gen_lyap(sys, K, np.eye(sys.n), alpha, gamma).certificate
    except NotStabilizing as exc:
        assert exc.abscissa == want.abscissa
        if not want:
            return
        raise
    except SingularOperator as exc:
        # an ill-conditioned or inaccurate solve is refused only after
        # the certificate has passed, and the refusal carries it
        assert exc.certificate == want and want.stabilizing
        return
    assert got == want and got.stabilizing


# the zero operator (A = B = C = 0): singular, so its inverse and the
# solve of L(X) = -I are not finite and the certificate must fail to the
# dense route
ZERO = (StochasticSystem(A=np.zeros((3, 3)), B=np.zeros((3, 1)),
                         C=np.zeros((3, 3)), D=np.zeros((3, 1)),
                         H=np.eye(3)[:1]),
        np.zeros((1, 3)), None, 1.0)


def check_lu_route(L):
    """The inverse route on L against the dense eigensolve and np.linalg.cond."""
    dense = float(np.linalg.eigvals(L).real.max())
    x = _inverse_certificate(_invert(L))
    assert (x is not None) == (dense < 0.0)
    cond = _cond_bound(L, _invert(L))
    assert cond >= (1.0 - 1e-12) * np.linalg.cond(L)  # equal when d = 1
    if x is None:
        assert _arnoldi_abscissa(_invert(L)) is None
        return
    beta = _arnoldi_abscissa(_invert(L))
    assert beta is not None and beta < 0.0
    if cond <= 1e12:
        # beyond the solve's 1e12 refusal (DEFECTIVE, a Jordan block)
        # neither eigensolver resolves the abscissa to roundoff
        assert abs(beta - dense) <= 1e-12 * max(1.0, abs(dense))
    assert _arnoldi_abscissa(_invert(L)) == beta  # bit-identical on rerun


@properties
@given(plant_gain_level())
@example(DEFECTIVE)
@example(ZERO)
def test_lu_route_agrees_with_the_dense_abscissa(case):
    check_lu_route(lyap_matrix(*case))


def getri_cond_bound(L):
    """sqrt(kappa_1 kappa_inf) of L from LAPACK's getrf and getri."""
    from scipy.linalg.lapack import dgetrf, dgetri

    lu, piv, _ = dgetrf(L)
    inv, info = dgetri(lu, piv)
    if info != 0 or not np.isfinite(inv).all():
        return np.inf
    k1 = np.linalg.norm(L, 1) * np.linalg.norm(inv, 1)
    kinf = np.linalg.norm(L, np.inf) * np.linalg.norm(inv, np.inf)
    return float(np.sqrt(k1) * np.sqrt(kinf))


@properties
@given(plant_gain_level())
@example(DEFECTIVE)
@example(ZERO)
def test_cond_bound_is_the_getri_figure(case):
    L = lyap_matrix(*case)
    want, got = getri_cond_bound(L), _cond_bound(L, _invert(L))
    assert got == want if np.isinf(want) else abs(got - want) <= 1e-12 * want


def seeded_plant(seed):
    """An n = 12..20 plant and a level on either side of the boundary."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 21))
    sys = StochasticSystem(A=rng.standard_normal((n, n)) / np.sqrt(n),
                           B=rng.standard_normal((n, 2)),
                           C=0.3 * rng.standard_normal((n, n)) / np.sqrt(n),
                           D=np.zeros((n, 2)), H=np.eye(n)[:1])
    K = np.zeros((2, n))
    beta = float(np.linalg.eigvals(lyap_matrix(sys, K)).real.max())
    offset = (0.05 + 0.5 * rng.random()) * (1.0 if seed % 3 else -1.0)
    return sys, K, 1.0 - (beta + offset), 1.0


@pytest.mark.parametrize("seed", range(6))
def test_lu_route_on_seeded_plants_above_the_size_switch(seed):
    case = seeded_plant(seed)
    L = lyap_matrix(*case)
    assert L.shape[0] >= _ARNOLDI_MIN_DIM
    check_lu_route(L)
    dense = float(np.linalg.eigvals(L).real.max())
    assert abs(_abscissa(L) - dense) <= 1e-12 * max(1.0, abs(dense))
    want = dense < -1e-9
    assert is_stabilizing(*case[:3], gamma=case[3]).stabilizing == want
    if want:
        sol = solve_gen_lyap(*case[:2], np.eye(case[0].n), *case[2:])
        assert sol.condition >= (1.0 - 1e-12) * np.linalg.cond(L)
        assert sol.certificate.abscissa == _abscissa(L)


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_chunked_operator_build_is_the_stacked_build(n):
    rng = np.random.default_rng(n)
    A, C = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    d = n * (n + 1) // 2
    E = unvech_rows(np.eye(d), n)
    AE = A.T @ E
    stacked = vech_rows(AE + AE.transpose(0, 2, 1) + C.T @ E @ C).T
    assert np.array_equal(_lyap_operator(A, C), stacked)


def example_one_plant():
    return StochasticSystem(
        A=np.array([[0.0, 1.0], [-5.0, -0.5]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[0.1, 0.2], [0.2, 0.3]]),
        D=np.array([[0.0], [0.1]]),
        H=np.array([[1.0, 0.0]]))


def test_dimensions_and_digest():
    sys = example_one_plant()
    assert (sys.n, sys.m, sys.q) == (2, 1, 1)


def test_b_without_n_rows_is_a_config_error():
    # a row B (2-D or 1-D) is refused, as a D of that shape already is,
    # not transposed into a column
    plant = example_one_plant()
    for B in ([[0.0, 1.0]], [0.0, 1.0]):
        with pytest.raises(ConfigError, match=r"B must have 2 rows, got \(1, 2\)"):
            StochasticSystem(A=plant.A, B=B, C=plant.C, D=plant.D, H=plant.H)


def test_scalar_zero_gain_threshold():
    # dx = a x dt + c x dw has mean-square dynamics d/dt E[x^2] = (2a + c^2) E[x^2]
    sys = StochasticSystem(A=[[0.5]], B=[[1.0]], C=[[0.1]], D=[[0.0]], H=[[1.0]])
    np.testing.assert_allclose(zero_gain_threshold(sys), 2 * 0.5 + 0.1 ** 2,
                               rtol=0, atol=1e-12)


def test_example_one_zero_gain_threshold():
    sys = example_one_plant()
    np.testing.assert_allclose(zero_gain_threshold(sys), -0.342571, atol=1e-5)


def test_operator_matches_quadratic_derivative():
    """lyap_matrix applied to vech(P) must give vech of the operator at P.

    L(P) = Acl'P + P Acl + Ccl'P Ccl is the derivative of E[x'Px] along
    the closed loop: d/dt E[x'Px] = E[x' L(P) x]. Both sides are
    compared entrywise on random symmetric P.
    """
    rng = np.random.default_rng(2)
    sys = example_one_plant()
    K = rng.standard_normal((1, 2))
    L = lyap_matrix(sys, K, alpha=0.3, gamma=1.0)
    shift = 0.5 * (1.0 - 0.3)
    A_cl = sys.A - shift * np.eye(2) - sys.B @ K
    C_cl = sys.C - sys.D @ K
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        P = 0.5 * (M + M.T)
        direct = A_cl.T @ P + P @ A_cl + C_cl.T @ P @ C_cl
        via_matrix = unvech(L @ vech(P), 2)
        np.testing.assert_allclose(via_matrix, direct, rtol=1e-11, atol=1e-11)


def test_shift_identity():
    # abscissa on S(alpha) = abscissa on S(gamma) - (gamma - alpha)
    sys = example_one_plant()
    K = np.array([[3.0, 1.0]])
    s_gamma = spectral_abscissa(sys, K, alpha=1.0, gamma=1.0)
    for alpha in (0.1, 0.45, 0.9):
        s_alpha = spectral_abscissa(sys, K, alpha=alpha, gamma=1.0)
        np.testing.assert_allclose(s_alpha, s_gamma - (1.0 - alpha),
                                   rtol=0, atol=1e-9)


def test_unshifted_abscissa_equals_gamma_level():
    sys = example_one_plant()
    K = np.array([[25.0, 8.0]])
    np.testing.assert_allclose(spectral_abscissa(sys, K),
                               spectral_abscissa(sys, K, alpha=1.0, gamma=1.0),
                               rtol=0, atol=1e-12)


def test_certificate_against_kronecker_moment_flow():
    """Certified abscissa must match the E[x x'] flow growth rate.

    The second moment of dx = Ax dt + Cx dw obeys
    d vec(G)/dt = (I kron A + A kron I + C kron C) vec(G), built here
    without any of the package's half-vectorization machinery.
    """
    sys = StochasticSystem(A=[[-1.0, 0.4], [0.0, -0.6]],
                           B=[[0.0], [1.0]],
                           C=[[0.2, 0.0], [0.1, 0.2]],
                           D=[[0.0], [0.0]],
                           H=[[1.0, 0.0]])
    K = np.zeros((1, 2))
    cert = is_stabilizing(sys, K)
    assert cert.stabilizing
    eye = np.eye(2)
    flow = (np.kron(eye, sys.A) + np.kron(sys.A, eye)
            + np.kron(sys.C, sys.C))
    oracle = np.linalg.eigvals(flow).real.max()
    np.testing.assert_allclose(cert.abscissa, oracle, rtol=0, atol=1e-9)


def test_certificate_matches_closed_loop_kronecker_flow():
    sys = example_one_plant()
    K = np.array([[26.0, 7.6]])
    cert = is_stabilizing(sys, K)
    A_cl = sys.A - sys.B @ K
    C_cl = sys.C - sys.D @ K
    eye = np.eye(2)
    flow = (np.kron(eye, A_cl) + np.kron(A_cl, eye) + np.kron(C_cl, C_cl))
    oracle = np.linalg.eigvals(flow).real.max()
    np.testing.assert_allclose(cert.abscissa, oracle, rtol=0, atol=1e-9)


def test_discounting_stabilizes_zero_gain():
    # gamma > sigma-bar + alpha0 makes S(alpha0) stable with K = 0
    sys = example_one_plant()
    cert = is_stabilizing(sys, np.zeros((1, 2)), alpha=0.1, gamma=1.0)
    assert cert.stabilizing
    np.testing.assert_allclose(cert.abscissa,
                               zero_gain_threshold(sys) - 0.9, atol=1e-9)


def test_is_stabilizing_flags_unstable_gain():
    sys = StochasticSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                           H=[[1.0]])
    cert = is_stabilizing(sys, np.zeros((1, 1)))
    assert not cert.stabilizing
    np.testing.assert_allclose(cert.abscissa, 3.0, atol=1e-12)
    assert not bool(cert)


def test_reference_generator_validation():
    ReferenceGenerator(A_d=[[0.0, 1.0], [-1.0, 0.0]], H_d=[[1.0, 0.0]],
                       x_d0=[1.0, 0.0])
    ReferenceGenerator(A_d=np.zeros((0, 0)), H_d=np.zeros((1, 0)), x_d0=[])
    with pytest.raises(ConfigError):
        ReferenceGenerator(A_d=[[0.1]], H_d=[[1.0]], x_d0=[1.0])
    with pytest.raises(ConfigError):
        # eigenvalue on the axis but defective (Jordan block)
        ReferenceGenerator(A_d=[[0.0, 1.0], [0.0, 0.0]], H_d=[[1.0, 0.0]],
                           x_d0=[1.0, 0.0])


def test_a_nearly_defective_reference_is_refused_as_the_shadow_f_a_is():
    # eigenvalues +-1e-13 i sit on the axis, but the eigenvector matrix has
    # condition about 1e13, past the bound of every closed-form exponential
    with pytest.raises(ConfigError, match=r"A_d is defective or nearly so: its eigenvector "
                                          r"matrix has condition 1\.\d+e\+13 > 1e\+12"):
        ReferenceGenerator(A_d=[[0.0, 1.0], [-1e-26, 0.0]], H_d=[[1.0, 0.0]],
                           x_d0=[1.0, 0.0])


def test_with_output_map():
    ref = ReferenceGenerator(A_d=np.zeros((3, 3)), H_d=[[1.0, 0.0, 0.0]],
                             x_d0=[1.0, 2.0, 3.0])
    swapped = ref.with_output_map([[0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(swapped.H_d, [[0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(swapped.x_d0, ref.x_d0)


def test_cost_weights_require_positive_definite():
    CostWeights(Q=[[10.0]], R=[[0.01]])
    with pytest.raises(ConfigError):
        CostWeights(Q=[[0.0]], R=[[1.0]])
    with pytest.raises(ConfigError):
        CostWeights(Q=[[1.0]], R=[[-0.1]])


def test_hyper_validation():
    hp = BpiHyperParams()
    assert hp.gamma == 1.0 and hp.alpha0 == 0.1 and hp.eta == 0.95
    assert hp.epsilon == 1e-5 and hp.max_iter == 200
    np.testing.assert_array_equal(hp.theta_for(3), 10.0 * np.eye(3))
    np.testing.assert_allclose(hp.alpha_tilde, 0.45)
    with pytest.raises(ConfigError):
        BpiHyperParams(alpha0=1.5, gamma=1.0)
    with pytest.raises(ConfigError):
        BpiHyperParams(eta=1.0)
    with pytest.raises(ConfigError):
        BpiHyperParams(theta=np.diag([1.0, 0.0]))


def test_tracking_problem_cross_checks():
    sys = example_one_plant()
    ref = ReferenceGenerator(A_d=np.zeros((3, 3)), H_d=[[1.0, 0.0, 0.0]],
                             x_d0=[1.0, 0.0, 0.0])
    cost = CostWeights(Q=[[10.0]], R=[[0.01]])
    TrackingProblem(system=sys, reference=ref, cost=cost,
                    hyper=BpiHyperParams())
    bad_cost = CostWeights(Q=np.eye(2), R=[[0.01]])
    with pytest.raises(ConfigError):
        TrackingProblem(system=sys, reference=ref, cost=bad_cost,
                        hyper=BpiHyperParams())
