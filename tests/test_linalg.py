import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import linalg


class TestVec:
    def test_column_stacking(self):
        M = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert_allclose(linalg.vec(M), [1.0, 2.0, 3.0, 4.0])

    def test_rectangular(self):
        M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert_allclose(linalg.vec(M), [1.0, 4.0, 2.0, 5.0, 3.0, 6.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for rows, cols in [(1, 1), (2, 3), (5, 2), (4, 4)]:
            M = rng.standard_normal((rows, cols))
            assert_allclose(linalg.unvec(linalg.vec(M), rows, cols), M)

    def test_vec_rejects_vector(self):
        with pytest.raises(ValueError):
            linalg.vec(np.ones(4))

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(ValueError):
            linalg.unvec(np.ones(5), 2, 3)
        with pytest.raises(ValueError):
            linalg.unvec(np.ones((2, 3)), 2, 3)


class TestKron:
    def test_small_example(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ])
        assert_allclose(np.kron(Y, Z), expected)

    def test_mixed_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((2, 3))
            B = rng.standard_normal((3, 2))
            C = rng.standard_normal((2, 2))
            D = rng.standard_normal((2, 3))
            lhs = np.kron(A @ B, C @ D)
            rhs = np.kron(A, C) @ np.kron(B, D)
            assert_allclose(lhs, rhs, atol=1e-13)

    def test_vec_identity(self):
        # vec(A X B) = kron(B.T, A) vec(X), the workhorse of the assembly
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = rng.standard_normal((3, 2))
            X = rng.standard_normal((2, 4))
            B = rng.standard_normal((4, 3))
            lhs = linalg.vec(A @ X @ B)
            rhs = np.kron(B.T, A) @ linalg.vec(X)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestExpm:
    def test_zero_matrix_is_identity(self):
        out = linalg.expm(np.zeros((3, 3)))
        assert np.array_equal(out, np.eye(3))

    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4))
        assert np.array_equal(linalg.expm(M, 0.0), np.eye(4))

    def test_diagonal(self):
        out = linalg.expm(np.diag([1.0, -2.0]))
        assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)

    def test_rotation(self):
        gen = np.pi * np.array([[0.0, -1.0], [1.0, 0.0]])
        for theta in np.linspace(-1.0, 1.0, 9):
            c, s = np.cos(np.pi * theta), np.sin(np.pi * theta)
            assert_allclose(linalg.expm(gen, theta), [[c, -s], [s, c]], atol=1e-14)

    def test_semigroup(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((5, 5))
        lhs = linalg.expm(M, 0.7)
        rhs = linalg.expm(M, 0.3) @ linalg.expm(M, 0.4)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_derivative(self):
        # (d/dt) e^(M t) = M e^(M t), checked with central differences
        rng = np.random.default_rng(17)
        M = rng.standard_normal((4, 4))
        t, eps = 0.4, 1e-6
        fd = (linalg.expm(M, t + eps) - linalg.expm(M, t - eps)) / (2 * eps)
        assert_allclose(fd, M @ linalg.expm(M, t), atol=1e-8)

    def test_complex(self):
        out = linalg.expm(np.array([[1j]]), np.pi)
        assert_allclose(out, [[-1.0]], atol=1e-14)

    def test_overflow(self):
        with np.errstate(over="ignore"):
            with pytest.raises(OverflowError):
                linalg.expm(np.array([[1e4]]), 1e3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.expm(np.ones((2, 3)))


def _relerr(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestExpmTable:
    @staticmethod
    def dense(m, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, m)) / np.sqrt(m), rng

    @staticmethod
    def non_normal(m=10):
        # stable diagonal under large upper-triangular coupling: expm(M t)
        # grows by four orders of magnitude on [0, 0.5]. Stronger coupling
        # puts the error of the reference expm itself above 1e-13.
        rng = np.random.default_rng(29)
        M = np.triu(rng.uniform(5.0, 20.0, (m, m)), 1)
        return M - np.diag(rng.uniform(0.5, 2.0, m)), rng

    @pytest.mark.parametrize("case", ["dense24", "dense216", "non_normal"])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_matches_expm(self, case, cols):
        if case == "non_normal":
            M, rng = self.non_normal()
            T = 0.5
        else:
            M, rng = self.dense(int(case[5:]), 31)
            T = 1.7
        m = M.shape[0]
        X = rng.standard_normal(m if cols is None else (m, cols))
        table = linalg.ExpmTable(M, T, X)
        # the endpoint, off-node points, the nodes themselves and the
        # midpoints between them
        ts = np.concatenate([[T], rng.uniform(0.0, T, 10),
                             np.arange(table.nodes) * table.delta,
                             (np.arange(table.nodes - 1) + 0.5) * table.delta])
        for t in ts:
            got = table(t)
            assert got.shape == X.shape
            assert _relerr(got, linalg.expm(M, t) @ X) <= 1e-13
        # an array of points reads the same values, stacked
        assert np.array_equal(table(ts), np.array([table(t) for t in ts]))
        assert table(ts.reshape(2, -1)).shape == (2, ts.size // 2) + X.shape

    @pytest.mark.parametrize("cols", [None, 2])
    def test_start_is_exact(self, cols):
        M, rng = self.dense(24, 37)
        X = rng.standard_normal(24 if cols is None else (24, cols))
        assert np.array_equal(linalg.ExpmTable(M, 1.0, X)(0.0), X)
        M, _ = self.non_normal()
        X = rng.standard_normal(M.shape[0] if cols is None else (M.shape[0], cols))
        assert np.array_equal(linalg.ExpmTable(M, 0.5, X)(0.0), X)

    def test_node_spacing_and_degree(self):
        M, rng = self.dense(24, 43)
        T = 2.0
        table = linalg.ExpmTable(M, T, np.ones(24))
        J = table.nodes - 1
        assert J == max(1, int(np.ceil(np.linalg.norm(M, 1) * T)))
        assert table.delta * J == pytest.approx(T, rel=1e-15)
        assert linalg.ExpmTable(np.zeros((2, 2)), 3.0, np.ones(2)).nodes == 2
        K = linalg.ExpmTable.DEGREE
        assert K == 14

        def bound(k):
            return 0.5 ** (k + 1) * np.exp(0.5) / math.factorial(k + 1)

        assert bound(K) <= 2.0 ** -53 < bound(K - 1)

    def test_domain(self):
        table = linalg.ExpmTable(np.eye(2), 1.0, np.ones(2))
        table(1.0 + 1e-12)
        for t in (-0.01, 1.01, np.nan, [0.5, 1.01]):
            with pytest.raises(ValueError):
                table(t)
        for T in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                linalg.ExpmTable(np.eye(2), T, np.ones(2))
        with pytest.raises(ValueError):
            linalg.ExpmTable(np.ones((2, 3)), 1.0, np.ones(2))
        with pytest.raises(ValueError):
            linalg.ExpmTable(np.eye(2), 1.0, np.ones(3))

    def test_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError):
                linalg.ExpmTable(np.array([[800.0]]), 1.0, np.ones(1))


class TestSmallestSingularValue:
    def test_diagonal(self):
        assert_allclose(
            linalg.smallest_singular_value(np.diag([3.0, -0.25, 2.0])), 0.25,
            rtol=1e-12,
        )

    def test_rank_deficient(self):
        A = np.outer([1.0, 2.0], [3.0, 4.0])
        assert linalg.smallest_singular_value(A) < 1e-14

    def test_rectangular(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert_allclose(linalg.smallest_singular_value(A), 1.0, rtol=1e-12)

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            A = rng.standard_normal((8, 8))
            expected = np.linalg.svd(A, compute_uv=False)[-1]
            got = linalg.smallest_singular_value(A)
            assert abs(got - expected) <= 1e-6 * max(1.0, expected)


def test_maxabs():
    assert linalg.maxabs(np.array([[1.0, -3.5], [2.0, 0.0]])) == 3.5
    assert linalg.maxabs(np.zeros((0, 2))) == 0.0
