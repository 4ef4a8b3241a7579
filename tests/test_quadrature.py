import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import quadrature


def fixed_rule(f, a, b, panels, order=quadrature.ORDER):
    """The composite rule of ``panels`` panels on ``[a, b]``, from one call
    ``f(x)`` over all of its nodes."""
    return quadrature._rule_sums(lambda x, i: f(x), [a], [b], panels, order)[0]


def test_polynomial_exactness():
    # order-10 Gauss rules are exact through degree 19
    val = fixed_rule(lambda x: x ** 9, 0.0, 1.0, panels=1, order=10)
    assert_allclose(val, 0.1, rtol=1e-14)
    val = fixed_rule(lambda x: x ** 19, 0.0, 1.0, panels=1, order=10)
    assert_allclose(val, 0.05, rtol=1e-13)


def test_sine_integral():
    val = fixed_rule(np.sin, 0.0, np.pi, panels=4, order=10)
    assert_allclose(val, 2.0, rtol=1e-12)


def test_matrix_valued():
    def f(x):
        return np.array([[[t, 1.0], [0.0, t * t]] for t in x])

    val = quadrature.integrate(f, 0.0, 2.0, tol=1e-10)
    assert_allclose(val, [[2.0, 2.0], [0.0, 8.0 / 3.0]], rtol=1e-12)


def test_integrate_converges():
    val = quadrature.integrate(np.exp, 0.0, 3.0, tol=1e-12)
    assert_allclose(val, np.exp(3.0) - 1.0, rtol=1e-12)


def test_integrate_empty_interval():
    val = quadrature.integrate(lambda x: np.ones((x.size, 2, 2)), 1.0, 1.0, tol=1e-10)
    assert np.array_equal(val, np.zeros((2, 2)))


def test_integrate_reports_nonconvergence():
    # rules of 4, 8, ..., 512 panels of 10 nodes, none past MAX_PANELS,
    # each evaluated in one call
    calls = []

    def f(x):
        calls.append(x.size)
        return x ** -0.5

    with pytest.raises(RuntimeError,
                       match=r"on \[0, 1\].*last change .* at 512 panels, tol=1e-14"):
        quadrature.integrate(f, 0.0, 1.0, tol=1e-14)
    assert quadrature.MAX_PANELS == 512
    assert len(calls) == 8
    assert sum(calls) == 10200


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
    got = fixed_rule(lambda x: np.array([g(p) for p in x]), -1.0, 0.3, 8, 10)
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
        fixed_rule(lambda x: np.ones((2, 2)), 0.0, 1.0, 8, 10)


# cos(w x) and x sin(w x) on intervals that a lone ``integrate`` finishes
# at 8, 16, 0 (empty) and 32 panels
WAVES = np.array([10.0, 60.0, 0.0, 100.0])
LOWER = np.array([-1.0, 0.0, 0.5, 0.2])
UPPER = np.array([0.0, 1.0, 0.5, 1.2])


def waves(x, w):
    return np.stack([np.cos(w * x), x * np.sin(w * x)], axis=-1)


def doubling_reference(f, a, b, tol=1e-10):
    """The adaptive rule as a loop of fixed rules: value and final panels."""
    if a == b:
        return np.zeros_like(f(np.array([a]))[0]), 0
    panels = quadrature.PANELS
    coarse = fixed_rule(f, a, b, panels)
    while True:
        panels *= 2
        fine = fixed_rule(f, a, b, panels)
        if np.max(np.abs(fine - coarse)) < tol * max(1.0, np.max(np.abs(fine))):
            return fine, panels
        coarse = fine


def test_batch_matches_lone_integrals():
    nodes = []  # per integrand call, the node count of each interval

    def f(x, i):
        nodes.append(np.bincount(i, minlength=WAVES.size))
        return waves(x, WAVES[i])

    got = quadrature.integrate_batch(f, LOWER, UPPER, tol=1e-10)
    assert got.shape == (4, 2)
    panels = np.max(nodes, axis=0) // quadrature.ORDER
    assert panels.tolist() == [8, 16, 0, 32]
    for j, w in enumerate(WAVES):
        sizes = []

        def lone(x):
            sizes.append(x.size)
            return waves(x, w)

        want = quadrature.integrate(lone, LOWER[j], UPPER[j], tol=1e-10)
        assert max(sizes) // quadrature.ORDER == panels[j]
        assert_allclose(got[j], want, rtol=1e-15, atol=0)
        ref, ref_panels = doubling_reference(lone, LOWER[j], UPPER[j])
        assert np.array_equal(want, ref) and ref_panels == panels[j]
    assert np.array_equal(got[2], [0.0, 0.0])


def test_batch_names_the_interval_that_fails():
    def f(x, i):
        return np.where(i == 1, np.abs(x) ** -0.5, np.cos(x))

    with pytest.raises(RuntimeError,
                       match=r"on \[0, 1\].*last change .* at 512 panels, tol=1e-14"):
        quadrature.integrate_batch(f, [-1.0, 0.0, 2.0], [0.0, 1.0, 3.0], tol=1e-14)


def test_empty_batch_gives_zeros_of_the_value_shape():
    got = quadrature.integrate_batch(lambda x, i: np.ones((x.size, 2, 3)),
                                     [1.0, 2.0], [1.0, 2.0], tol=1e-10)
    assert np.array_equal(got, np.zeros((2, 2, 3)))


def test_rule_is_built_once_per_order(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        built.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quadrature._rule.cache_clear()
    quadrature.integrate(np.exp, 0.0, 3.0, tol=1e-12)
    quadrature.integrate_batch(lambda x, i: waves(x, WAVES[i]), LOWER, UPPER, tol=1e-10)
    for panels in (1, 4, 9):
        fixed_rule(np.sin, 0.0, 1.0, panels=panels, order=7)
    assert sorted(built) == [7, 10]
