import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import quadrature


def test_polynomial_exactness():
    # order-10 Gauss rules are exact through degree 19
    val = quadrature.fixed_quad(lambda x: x ** 9, 0.0, 1.0, panels=1, order=10)
    assert_allclose(val, 0.1, rtol=1e-14)
    val = quadrature.fixed_quad(lambda x: x ** 19, 0.0, 1.0, panels=1, order=10)
    assert_allclose(val, 0.05, rtol=1e-13)


def test_sine_integral():
    val = quadrature.fixed_quad(np.sin, 0.0, np.pi, panels=4, order=10)
    assert_allclose(val, 2.0, rtol=1e-12)


def test_matrix_valued():
    def f(x):
        return np.array([[x, 1.0], [0.0, x * x]])

    val = quadrature.integrate(f, 0.0, 2.0)
    assert_allclose(val, [[2.0, 2.0], [0.0, 8.0 / 3.0]], rtol=1e-12)


def test_integrate_converges():
    val = quadrature.integrate(np.exp, 0.0, 3.0, tol=1e-12)
    assert_allclose(val, np.exp(3.0) - 1.0, rtol=1e-12)


def test_integrate_empty_interval():
    val = quadrature.integrate(lambda x: np.ones((2, 2)), 1.0, 1.0)
    assert np.array_equal(val, np.zeros((2, 2)))


def test_integrate_reports_nonconvergence():
    # rules of 4, 8, ..., 64 panels of 10 nodes, none past max_panels
    calls = []

    def f(x):
        calls.append(x)
        return x ** -0.5

    with pytest.raises(RuntimeError,
                       match=r"on \[0, 1\].*last change .* at 64 panels, tol=1e-14"):
        quadrature.integrate(f, 0.0, 1.0, tol=1e-14, max_panels=64)
    assert len(calls) == 1240


def test_panel_weights_sum_to_length():
    pts, wts = quadrature.panel_nodes(-1.5, 2.5, panels=3, order=7)
    assert pts.size == 21
    assert_allclose(wts.sum(), 4.0, rtol=1e-14)
    assert np.all(pts > -1.5) and np.all(pts < 2.5)


def test_bad_arguments():
    with pytest.raises(ValueError):
        quadrature.panel_nodes(0.0, 1.0, panels=0, order=5)
