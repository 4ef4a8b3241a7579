import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    TimeDelaySystem,
    Weight,
    kernel_at,
    sincos_kernel,
    validate,
    zero_kernel,
)
from delaylyap.model import check_matrices

from systems import benchmark_sincos_pieces, benchmark_system


class TestTimeDelaySystem:
    def test_construction(self):
        sys, _ = benchmark_system()
        assert sys.n == 2
        assert sys.internal_dim == 2
        assert sys.h == 1.0
        assert validate(sys) == []

    def test_matrices_are_readonly(self):
        sys, _ = benchmark_system()
        with pytest.raises(ValueError):
            sys.A0[0, 0] = 5.0

    def test_accepts_nested_lists(self):
        sys = TimeDelaySystem([[-1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]], 0.5)
        assert sys.n == 1
        assert isinstance(sys.A0, np.ndarray)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            TimeDelaySystem([[-1.0]], [[0.0, 1.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            TimeDelaySystem([[-1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]], -0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeDelaySystem([[np.nan]], [[0.0]], [[1.0]], [[0.0]], [[0.0]], 1.0)

    def test_zero_delay_allowed(self):
        sys = TimeDelaySystem([[-1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]], 0.0)
        assert sys.h == 0.0


class TestCheckMatrices:
    def test_collects_all_violations(self):
        msgs = check_matrices(
            [[-1.0, 0.0], [0.0, -1.0]],
            [[0.0]],                      # wrong shape
            [[1.0]],
            [[0.0, 0.0]],
            [[0.0], [0.0]],
            -2.0,                         # negative delay
        )
        assert len(msgs) == 2
        assert any("A1" in m for m in msgs)
        assert any("delay" in m for m in msgs)

    def test_clean_system_has_no_violations(self):
        assert check_matrices([[-1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]], 1.0) == []


class TestKernelAt:
    def test_sincos_closed_form(self):
        # independent route: evaluate the sine/cosine mixture directly
        sys, _ = benchmark_system()
        B0, B1, w = benchmark_sincos_pieces()
        thetas = np.linspace(-1.0, 0.0, 101)
        for theta in thetas:
            expected = np.sin(w * theta) * B0 + np.cos(w * theta) * B1
            assert_allclose(kernel_at(sys, theta), expected, atol=1e-12)
        # an array of points gives the kernels stacked
        assert_allclose(kernel_at(sys, thetas),
                        np.array([kernel_at(sys, theta) for theta in thetas]),
                        rtol=1e-15, atol=1e-15)

    def test_endpoint_values(self):
        sys, _ = benchmark_system()
        B0, B1, _ = benchmark_sincos_pieces()
        assert_allclose(kernel_at(sys, 0.0), B1, atol=1e-14)
        assert_allclose(kernel_at(sys, -0.5), -B0, atol=1e-13)

    def test_zero_kernel(self):
        Ad, Bd, Cd = zero_kernel(3, internal_dim=2)
        sys = TimeDelaySystem(-np.eye(3), np.zeros((3, 3)), Ad, Bd, Cd, 1.0)
        assert np.array_equal(kernel_at(sys, -0.3), np.zeros((3, 3)))

    def test_domain(self):
        sys, _ = benchmark_system()
        with pytest.raises(ValueError):
            kernel_at(sys, 0.1)
        with pytest.raises(ValueError):
            kernel_at(sys, -1.1)
        with pytest.raises(ValueError):
            kernel_at(sys, [-0.5, 0.1])
        # boundary slack admits round-off sized excursions
        kernel_at(sys, -1.0 - 1e-15)


class TestWeight:
    def test_stores_symmetric(self):
        w = Weight([[2.0, 1.0], [1.0, 3.0]])
        assert w.n == 2
        assert np.array_equal(w.matrix, w.matrix.T)

    def test_averages_tiny_asymmetry(self):
        w = Weight([[1.0, 1e-14], [0.0, 1.0]])
        assert w.matrix[0, 1] == w.matrix[1, 0]
        assert_allclose(w.matrix[0, 1], 5e-15)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            Weight([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            Weight(np.ones((2, 3)))
        with pytest.raises(ValueError):
            Weight([[np.inf]])

    def test_matrix_is_readonly(self):
        w = Weight(np.eye(2))
        with pytest.raises(ValueError):
            w.matrix[0, 0] = 2.0


class TestSincosKernel:
    def _mixture(self, B0, B1, w, theta):
        return np.sin(w * theta) * B0 + np.cos(w * theta) * B1

    def test_compact_branch(self):
        B0, B1, w = benchmark_sincos_pieces()
        Ad, Bd, Cd = sincos_kernel(B0, B1, w)
        assert Ad.shape == (2, 2)
        assert_allclose(Ad, w * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-14)
        sys = TimeDelaySystem(-np.eye(2), np.zeros((2, 2)), Ad, Bd, Cd, 1.0)
        for theta in np.linspace(-1.0, 0.0, 41):
            assert_allclose(kernel_at(sys, theta),
                            self._mixture(B0, B1, w, theta), atol=1e-12)

    def test_general_branch(self):
        # incompatible pair forces the block embedding
        rng = np.random.default_rng(31)
        B0 = rng.standard_normal((2, 2))
        B1 = rng.standard_normal((2, 2))
        w = 2.2
        Ad, Bd, Cd = sincos_kernel(B0, B1, w)
        assert Ad.shape == (4, 4)
        sys = TimeDelaySystem(-np.eye(2), np.zeros((2, 2)), Ad, Bd, Cd, 1.0)
        for theta in np.linspace(-1.0, 0.0, 41):
            assert_allclose(kernel_at(sys, theta),
                            self._mixture(B0, B1, w, theta), atol=1e-12)

    def test_scalar_coefficients(self):
        Ad, Bd, Cd = sincos_kernel([[0.5]], [[-0.2]], 1.7)
        assert Ad.shape == (2, 2)
        sys = TimeDelaySystem([[-1.0]], [[0.0]], Ad, Bd, Cd, 2.0)
        for theta in np.linspace(-2.0, 0.0, 41):
            expected = np.sin(1.7 * theta) * 0.5 + np.cos(1.7 * theta) * (-0.2)
            assert_allclose(kernel_at(sys, theta), [[expected]], atol=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sincos_kernel(np.ones((2, 3)), np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            sincos_kernel(np.eye(2), np.eye(3), 1.0)
        with pytest.raises(ValueError):
            sincos_kernel(np.eye(2), np.eye(2), np.inf)


def test_zero_kernel_shapes():
    Ad, Bd, Cd = zero_kernel(3, internal_dim=2)
    assert Ad.shape == (2, 2)
    assert Bd.shape == (2, 3)
    assert Cd.shape == (3, 2)
    assert np.all(Bd == 0) and np.all(Cd == 0)
    with pytest.raises(ValueError):
        zero_kernel(0)
