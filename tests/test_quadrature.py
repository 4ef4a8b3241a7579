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
        return np.array([[[t, 1.0], [0.0, t * t]] for t in x])

    val = quadrature.integrate(f, 0.0, 2.0)
    assert_allclose(val, [[2.0, 2.0], [0.0, 8.0 / 3.0]], rtol=1e-12)


def test_integrate_converges():
    val = quadrature.integrate(np.exp, 0.0, 3.0, tol=1e-12)
    assert_allclose(val, np.exp(3.0) - 1.0, rtol=1e-12)


def test_integrate_empty_interval():
    val = quadrature.integrate(lambda x: np.ones((x.size, 2, 2)), 1.0, 1.0)
    assert np.array_equal(val, np.zeros((2, 2)))


def test_integrate_reports_nonconvergence():
    # rules of 4, 8, ..., 64 panels of 10 nodes, none past max_panels,
    # each evaluated in one call
    calls = []

    def f(x):
        calls.append(x.size)
        return x ** -0.5

    with pytest.raises(RuntimeError,
                       match=r"on \[0, 1\].*last change .* at 64 panels, tol=1e-14"):
        quadrature.integrate(f, 0.0, 1.0, tol=1e-14, max_panels=64)
    assert len(calls) == 5
    assert sum(calls) == 1240


@pytest.mark.parametrize("shape", [(), (2, 2), (3, 2, 2)])
def test_rule_sums_its_nodes_in_order(shape):
    # one call with every node gives what a loop over the nodes, adding
    # each weighted value in turn, gives
    M = np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape)

    def g(x):
        return np.sin(3 * x) * M + np.cos(x) * M ** 2

    pts, wts = quadrature.panel_nodes(-1.0, 0.3, 8, 10)
    want = 0.0
    for p, w in zip(pts, wts):
        want = want + w * g(p)
    got = quadrature.fixed_quad(lambda x: np.array([g(p) for p in x]), -1.0, 0.3, 8, 10)
    assert got.shape == shape
    assert np.array_equal(got, want)


def test_panel_weights_sum_to_length():
    pts, wts = quadrature.panel_nodes(-1.5, 2.5, panels=3, order=7)
    assert pts.size == 21
    assert_allclose(wts.sum(), 4.0, rtol=1e-14)
    assert np.all(pts > -1.5) and np.all(pts < 2.5)


def test_bad_arguments():
    with pytest.raises(ValueError):
        quadrature.panel_nodes(0.0, 1.0, panels=0, order=5)
    # an integrand must return one value per node
    with pytest.raises(ValueError, match="integrand returned shape"):
        quadrature.fixed_quad(lambda x: np.ones((2, 2)), 0.0, 1.0)
