"""Half-vectorization and quadratic-form bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slqt.symquad import (h_form, h_form_rows, unvech, unvech_rows, vec, vech,
                          vech_indices, vech_rows)


def random_sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_vech_roundtrip():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        P = random_sym(rng, n)
        v = vech(P)
        assert v.shape == (n * (n + 1) // 2,)
        np.testing.assert_array_equal(unvech(v, n), P)


def test_vech_ordering_is_row_major_upper_triangle():
    P = np.array([[1.0, 2.0, 3.0],
                  [2.0, 4.0, 5.0],
                  [3.0, 5.0, 6.0]])
    np.testing.assert_array_equal(vech(P), [1, 2, 3, 4, 5, 6])


def test_vec_is_column_major():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(M), [1, 3, 2, 4])


def test_vech_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        vech(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pairing_identity_against_quadratic_form():
    """<vech(P), h_form(x x')> must equal x' P x.

    This is the contraction every least-squares row in the learner
    relies on, so it is checked across sizes with tight tolerance.
    """
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        P = random_sym(rng, n)
        x = rng.standard_normal(n)
        lhs = float(vech(P) @ h_form(np.outer(x, x)))
        rhs = float(x @ P @ x)
        denom = max(abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / denom)
    assert worst <= 1e-12


def test_h_form_trace_pairing():
    # <vech(P), h_form(S)> = trace(P S) for any symmetric S, not just rank one
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        P = random_sym(rng, n)
        S = random_sym(rng, n)
        got = float(vech(P) @ h_form(S))
        np.testing.assert_allclose(got, np.trace(P @ S), rtol=1e-12, atol=1e-13)


def test_kron_vec_contraction():
    # a'Mb = (b kron a)' vec(M), the contraction the regressor rows use
    rng = np.random.default_rng(11)
    a = rng.standard_normal(3)
    b = rng.standard_normal(4)
    M = rng.standard_normal((3, 4))
    np.testing.assert_allclose(np.kron(b, a) @ vec(M), a @ M @ b,
                               rtol=1e-13, atol=1e-14)


def test_vectorized_rows_match_loop():
    rng = np.random.default_rng(13)
    stack = np.stack([random_sym(rng, 3) for _ in range(10)])
    hr = h_form_rows(stack)
    vr = vech_rows(stack)
    for k in range(10):
        np.testing.assert_array_equal(hr[k], h_form(stack[k]))
        np.testing.assert_array_equal(vr[k], vech(stack[k]))


def test_vech_indices_consistency():
    n = 4
    ri, ci = vech_indices(n)
    P = random_sym(np.random.default_rng(1), n)
    np.testing.assert_array_equal(P[ri, ci], vech(P))


# Property tests of the identities the module docstring states. Entries
# stay within +-1e3, so no product over- or underflows past subnormals.
properties = settings(derandomize=True, database=None, max_examples=100,
                      deadline=None)
entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def symmetrize(M):
    """The symmetric matrices (over the last two axes) with M's upper triangle."""
    return np.triu(M) + np.swapaxes(np.triu(M, 1), -1, -2)


@st.composite
def symmetric_stack(draw, max_n=6, max_l=5):
    """An (l, n, n) stack of symmetric matrices."""
    n = draw(st.integers(1, max_n))
    l = draw(st.integers(1, max_l))
    return symmetrize(draw(arrays(float, (l, n, n), elements=entries)))


@st.composite
def symmetric_and_vector(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    P = symmetrize(draw(arrays(float, (n, n), elements=entries)))
    return P, draw(arrays(float, n, elements=entries))


@properties
@given(symmetric_stack())
def test_unvech_inverts_vech(stack):
    for M in stack:
        np.testing.assert_array_equal(unvech(vech(M)), M)
        np.testing.assert_array_equal(unvech(vech(M), M.shape[0]), M)


@properties
@given(symmetric_and_vector())
def test_h_form_of_outer_product_pairs_to_the_quadratic_form(case):
    P, x = case
    lhs = float(vech(P) @ h_form(np.outer(x, x)))
    rhs = float(x @ P @ x)
    # both sides sum the same n^2 products in different orders
    scale = float(np.abs(x) @ np.abs(P) @ np.abs(x))
    assert abs(lhs - rhs) <= 1e-13 * x.size ** 2 * scale + 1e-300


@properties
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_vec_of_outer_product_is_the_kronecker_product(p, q, data):
    a = data.draw(arrays(float, p, elements=entries))
    b = data.draw(arrays(float, q, elements=entries))
    np.testing.assert_array_equal(vec(np.outer(a, b)), np.kron(b, a))


@properties
@given(symmetric_stack())
def test_row_variants_equal_the_per_matrix_functions(stack):
    n = stack.shape[-1]
    vr, hr = vech_rows(stack), h_form_rows(stack)
    back = unvech_rows(vr, n)
    for k, M in enumerate(stack):
        np.testing.assert_array_equal(vr[k], vech(M))
        np.testing.assert_array_equal(hr[k], h_form(M))
        np.testing.assert_array_equal(back[k], unvech(vech(M), n))
