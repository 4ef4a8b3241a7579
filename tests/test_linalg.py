import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from delaylyap import linalg, solver

from systems import benchmark_system, random_stable_system


class TestVec:
    def test_column_stacking(self):
        M = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert_allclose(linalg.vec(M), [1.0, 2.0, 3.0, 4.0])

    def test_rectangular(self):
        M = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert_allclose(linalg.vec(M), [1.0, 4.0, 2.0, 5.0, 3.0, 6.0])

    def test_vec_rejects_vector(self):
        with pytest.raises(ValueError):
            linalg.vec(np.ones(4))


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


def expm_classes():
    """Matrices of each class the general exponential is checked on:
    random ones of order 1 to 24 and 1-norm 0.01 to 30, non-normal ones
    with couplings 1 to 1000, stiff ones and a rotation."""
    rng = np.random.default_rng(2024)
    cases = {}
    for m in (1, 2, 5, 12, 24):
        for norm in (0.01, 0.5, 3.0, 30.0):
            M = rng.standard_normal((m, m))
            cases["random%d_%g" % (m, norm)] = M * (norm / linalg.norm1(M))
    for m in (4, 12):
        for coupling in (1.0, 10.0, 100.0, 1000.0):
            M = np.triu(rng.uniform(0.5, 1.0, (m, m)) * (coupling / m), 1)
            cases["non_normal%d_%g" % (m, coupling)] = M - np.diag(rng.uniform(0.5, 2.0, m))
    for c in (5.0, 50.0):
        cases["stiff_%g" % c] = -c * np.eye(8) + 0.1 * rng.standard_normal((8, 8))
    cases["rotation"] = 7.0 * np.array([[0.0, -1.0], [1.0, 0.0]])
    return cases


EXPM_CLASSES = expm_classes()


class TestExpm:
    def test_zero_matrix_is_identity(self):
        out = linalg.expm(np.zeros((3, 3)))
        assert np.array_equal(out, np.eye(3))

    def test_zero_scale_is_identity(self):
        # the series itself gives it, with no negative zero, for float,
        # negative, complex, 1 x 1 and integer input
        rng = np.random.default_rng(11)
        for M in (rng.standard_normal((4, 4)), -np.abs(rng.standard_normal((5, 5))),
                  rng.standard_normal((2, 2)) - 1j * rng.standard_normal((2, 2)),
                  np.array([[-3.0]]), np.array([[-2, 1], [0, -1]])):
            out = linalg.expm(M, 0.0)
            assert np.array_equal(out, np.eye(len(M)))
            assert not np.signbit(out.view(float)).any()
            assert out.dtype == np.result_type(M.dtype, float)

    def test_integer_input_is_taken_as_float(self):
        out = linalg.expm(np.array([[0, 1], [0, 0]]), 1)
        assert out.dtype == float
        assert np.array_equal(out, [[1.0, 1.0], [0.0, 1.0]])

    def test_non_finite_input_raises_at_every_scale(self):
        for M in ([[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan, 0.0]] * 3):
            for scale in (0.0, 1.0, -2.0):
                with pytest.raises(OverflowError, match="argument is not finite"):
                    linalg.expm(np.array(M), scale)
        for scale in (0.0, 1.0):
            with pytest.raises(OverflowError):
                linalg.expm(np.array([[np.nan]]), scale)

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
        # raised without a RuntimeWarning (the test configuration turns
        # those into errors): by np.exp, by the squarings, and before the
        # scaling when the powers themselves overflow
        for M in ([[1e4]], [[1e4, 1.0, 0.0], [0.0, 1e4, 1.0], [1.0, 0.0, 1e4]],
                  [[1e200, 1e200], [1e200, 1e200]]):
            with pytest.raises(OverflowError):
                linalg.expm(np.array(M), 1e3)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.expm(np.ones((2, 3)))

    @staticmethod
    def solver_arguments():
        """``E h``, the table step ``E delta`` and ``-Ad`` of the systems
        the solver sees."""
        out = {}
        for name, sys in [("benchmark", benchmark_system()[0])] + [
                ("n%d" % n, random_stable_system(0, n, n)) for n in (2, 6, 12)]:
            E = dense_E(sys)
            J = max(1, math.ceil(linalg.norm1(E) * sys.h))
            out[name] = {"E h": E * sys.h, "E delta": E * (sys.h / J),
                         "-Ad": -sys.Ad}
        return out

    @staticmethod
    def cycle(m, r):
        # a cyclic permutation has 1-norm 1, so r C has 1-norm r, which
        # picks the series degree and the number of squarings: r = 0.01,
        # 0.2, 0.9 and 2 are summed to degree 6, 11, 17 and 24 with no
        # squaring, and r = 3 is halved, summed to degree 21 and squared
        # once (scipy's own error exceeds 1e-13 from r = 7 on)
        return r * np.roll(np.eye(m), 1, axis=1)

    def test_matches_scipy(self):
        cases = [M for sys in self.solver_arguments().values()
                 for M in sys.values()]
        rng = np.random.default_rng(41)
        cases.append(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        cases += [self.cycle(7, r) for r in (0.01, 0.2, 0.9, 2.0, 3.0)]
        for M in cases:
            assert _relerr(linalg.expm(M), scipy.linalg.expm(M)) <= 1e-13

    @pytest.mark.parametrize("name", list(EXPM_CLASSES))
    def test_matches_40_digits(self, name):
        mpmath = pytest.importorskip("mpmath")
        M = EXPM_CLASSES[name]
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(M)).tolist(), dtype=float)
        assert linalg.norm1(linalg.expm(M) - want) <= 1e-13 * linalg.norm1(want)

    def test_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        M, _ = TestExpmTable.non_normal()
        M = 2.0 * M  # couplings 10 to 40
        with mpmath.workdps(50):
            ref = mpmath.expm(mpmath.matrix(0.5 * M))
            want = np.array(ref.tolist(), dtype=float)
        assert _relerr(linalg.expm(M, 0.5), want) <= 1e-14


def dense_E(sys):
    """The solver's ``E``: its block action on the identity."""
    return solver.BlockAction(sys)(np.eye(solver._layout(sys.n, sys.internal_dim)[1][-1]))


def odd_expm(M, scale, pi):
    """:func:`linalg.odd_expm` of the whole ``M``, read at its columns
    ``k < pi[k]``."""
    return linalg.odd_expm(M[:, np.arange(len(pi)) < pi], scale, pi)


def dense_table(M, T, X):
    """The :class:`linalg.ExpmTable` of the dense products with ``M``."""
    return linalg.ExpmTable(partial(np.matmul, M), linalg.norm1(M), T, X)


class TestHalfOrderExpm:
    # odd_expm of a matrix that is odd under a pairing, M[pi][:, pi] = -M

    @staticmethod
    def generator(sys):
        """The solver's ``E`` and the reversal under which it is odd."""
        return dense_E(sys), solver._layout(sys.n, sys.internal_dim).pi

    @staticmethod
    def odd(m, norm, rng):
        """A random ``m x m`` matrix of 1-norm ``norm`` that is odd under a
        random pairing, and the pairing."""
        half = rng.permutation(m).reshape(2, -1)
        pi = np.empty(m, dtype=int)
        pi[half[0]], pi[half[1]] = half[1], half[0]
        M = rng.standard_normal((m, m))
        M = M - M[np.ix_(pi, pi)]
        return M * (norm / np.linalg.norm(M, 1)), pi

    @pytest.mark.parametrize("norm", [1e-20, 1e-3, 0.5, 14.0, 60.0])
    def test_matches_scipy(self, norm):
        # series of degree 0, 2 and 5 in Z with no double-angle step, then
        # of degree 14 after one and three; the pairs are interleaved
        M, pi = self.odd(40, norm, np.random.default_rng(71))
        assert np.array_equal(M[np.ix_(pi, pi)], -M)
        assert _relerr(odd_expm(M, 1.0, pi), scipy.linalg.expm(M)) <= 1e-13

    # ns = 6 (half order 3) is the smallest order the solver sends here
    @pytest.mark.parametrize("sys", [benchmark_system()[0],
                                     random_stable_system(0, 3, 2, h=3.0),
                                     random_stable_system(0, 1, 1)],
                             ids=["benchmark", "n3_nd2_h3", "n1_nd1"])
    def test_matches_high_precision(self, sys):
        mpmath = pytest.importorskip("mpmath")
        E, pi = self.generator(sys)
        with mpmath.workdps(50):
            ref = mpmath.expm(mpmath.matrix(E) * sys.h)
            want = np.array(ref.tolist(), dtype=float)
        assert _relerr(odd_expm(E, sys.h, pi), want) <= 1e-14

    def test_matches_general_route(self):
        # n = nd = 10, ns = 600: three double-angle steps
        sys = random_stable_system(0, 10, 10)
        E, pi = self.generator(sys)
        assert _relerr(odd_expm(E, sys.h, pi), linalg.expm(E, sys.h)) <= 1e-13

    def test_peak_memory(self, traced_peak):
        # n = nd = 8, ns = 384: from the ns x ns / 2 columns, at most ten
        # arrays of order ns / 2, 2.5 ns x ns arrays, are live at once, the
        # result counted
        sys = random_stable_system(0, 8, 8)
        E, pi = self.generator(sys)
        # C-ordered, as assemble passes it
        EI = np.ascontiguousarray(E[:, np.arange(len(pi)) < pi])
        X, peak = traced_peak(linalg.odd_expm, EI, sys.h, pi)
        assert np.array_equal(X, odd_expm(E, sys.h, pi))
        assert peak <= 3 * X.nbytes

    def test_zero_scale_is_identity(self):
        # the cosh/sinh form itself gives it, with no negative zero
        for sys in (benchmark_system()[0], random_stable_system(0, 1, 1),
                    random_stable_system(0, 3, 2)):
            E, pi = self.generator(sys)
            out = odd_expm(E, 0.0, pi)
            assert np.array_equal(out, np.eye(E.shape[0]))
            assert not np.signbit(out).any()

    def test_non_finite_input_raises_at_every_scale(self):
        E, pi = self.generator(benchmark_system()[0])
        E[0, 0] = np.nan
        for scale in (0.0, 1.0):
            with pytest.raises(OverflowError, match="argument is not finite"):
                odd_expm(E, scale, pi)

    def test_rejects_a_shape_that_is_not_m_by_half_m(self):
        pi = np.array([1, 0, 3, 2])
        for MI in (np.zeros((4, 4)), np.zeros((4, 3)), np.zeros(4)):
            with pytest.raises(ValueError, match=r"expects an \(m, m / 2\) matrix"):
                linalg.odd_expm(MI, 1.0, pi)

    def test_overflow(self):
        # raised without a RuntimeWarning: by the double-angle steps, and
        # before the scaling when the squared argument overflows
        M, pi = self.generator(random_stable_system(0, 3, 2))
        for scale in (1e3, 1e200):
            with pytest.raises(OverflowError):
                odd_expm(M, scale, pi)


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

    # J intervals, stepped SPAN = 4 at a time: the last series covers 1, 4,
    # 1 and 3 of them
    @pytest.mark.parametrize("case, T, J", [
        pytest.param("dense24", 1.7, 9, id="dense24"),
        pytest.param("dense216", 1.7, 24, id="dense216"),
        pytest.param("non_normal", 0.5, 61, id="non_normal"),
        pytest.param("dense216", 0.5, 7, id="dense216_short"),
    ])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_matches_expm(self, case, T, J, cols):
        if case == "non_normal":
            M, rng = self.non_normal()
        else:
            M, rng = self.dense(int(case[5:]), 31)
        m = M.shape[0]
        X = rng.standard_normal(m if cols is None else (m, cols))
        table = dense_table(M, T, X)
        assert table.nodes == J + 1
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
        assert np.array_equal(dense_table(M, 1.0, X)(0.0), X)
        M, _ = self.non_normal()
        X = rng.standard_normal(M.shape[0] if cols is None else (M.shape[0], cols))
        assert np.array_equal(dense_table(M, 0.5, X)(0.0), X)

    def test_node_spacing_and_degree(self):
        M, rng = self.dense(24, 43)
        T = 2.0
        table = dense_table(M, T, np.ones(24))
        J = table.nodes - 1
        assert J == max(1, int(np.ceil(np.linalg.norm(M, 1) * T)))
        assert table.delta * J == pytest.approx(T, rel=1e-15)
        assert dense_table(np.zeros((2, 2)), 3.0, np.ones(2)).nodes == 2
        K = linalg.ExpmTable.DEGREE
        assert K == 14

        def bound(k, norm=0.5):
            return norm ** (k + 1) * np.exp(norm) / math.factorial(k + 1)

        assert bound(K) <= 2.0 ** -53 < bound(K - 1)
        # one node-stepping series covers SPAN nodes, ||M s||_1 <= SPAN
        span, K = linalg.ExpmTable.SPAN, linalg.ExpmTable.STEP_DEGREE
        assert (span, K) == (4, 33)
        assert bound(K, span) <= 2.0 ** -53 < bound(K - 1, span)

    @pytest.mark.parametrize("case", ["dense24", "non_normal", "kernel_table"])
    def test_builds_without_an_exponential(self, case, monkeypatch):
        calls = []
        expm = linalg.expm

        def counting(*args):
            calls.append(args)
            return expm(*args)

        monkeypatch.setattr(linalg, "expm", counting)
        if case == "kernel_table":
            sys = random_stable_system(5, 3, 4)
            table = sys.kernel_table
            M, X = -sys.Ad, np.eye(4)
        else:
            M, rng = self.dense(24, 47) if case == "dense24" else self.non_normal()
            X = rng.standard_normal(M.shape[0])
            table = dense_table(M, 0.5, X)
        assert calls == []
        t = 0.37 * table.T
        assert _relerr(table(t), expm(M, t) @ X) <= 1e-13

    @pytest.mark.parametrize("cols", [None, 3])
    def test_action_replaces_every_product(self, cols):
        # every Taylor step and term is one call of the action, and the
        # dense product counted as it goes gives the dense table bitwise
        M, rng = self.dense(24, 59)
        X = rng.standard_normal(24 if cols is None else (24, cols))
        want = dense_table(M, 1.3, X)
        calls = []

        def action(Y, out=None):
            calls.append(Y.shape)
            return np.matmul(M, Y, out=out)

        got = linalg.ExpmTable(action, linalg.norm1(M), 1.3, X)
        series = -(-(want.nodes - 1) // linalg.ExpmTable.SPAN)
        assert len(calls) == series * linalg.ExpmTable.STEP_DEGREE \
            + linalg.ExpmTable.DEGREE
        assert np.array_equal(got.terms, want.terms)

    def test_domain(self):
        table = dense_table(np.eye(2), 1.0, np.ones(2))
        table(1.0 + 1e-12)
        for t in (-0.01, 1.01, np.nan, [0.5, 1.01]):
            with pytest.raises(ValueError):
                table(t)
        # the message names the first point outside, not the whole array
        ts = np.linspace(0.0, 1.0, 401)
        ts[[200, 300]] = 1.5, -2.0
        with pytest.raises(ValueError, match=r"^t=1\.5 outside \[0, 1\]$"):
            table(ts)
        for T in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                dense_table(np.eye(2), T, np.ones(2))
        with pytest.raises(ValueError):
            dense_table(np.ones((2, 3)), 1.0, np.ones(2))
        with pytest.raises(ValueError):
            dense_table(np.eye(2), 1.0, np.ones(3))
        with pytest.raises(ValueError):
            dense_table(np.eye(2), 1.0, np.ones((2, 2, 2)))

    def test_overflow(self):
        # RuntimeWarning is an error here, so a leaked overflow warning
        # would replace the OverflowError
        with pytest.raises(OverflowError):
            dense_table(np.array([[800.0]]), 1.0, np.ones(1))


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

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"expects a 2-d array, got shape \(3,\)"):
            linalg.smallest_singular_value(np.ones(3))

    def test_rejects_non_finite_entries(self):
        A = np.eye(3)
        A[1, 2] = np.inf
        with pytest.raises(ValueError, match=r"expects finite entries, got inf at \(1, 2\)"):
            linalg.smallest_singular_value(A)

    def test_empty_matrix(self):
        for shape in ((0, 0), (0, 3), (2, 0)):
            assert linalg.smallest_singular_value(np.zeros(shape)) == 0.0

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            A = rng.standard_normal((8, 8))
            expected = np.linalg.svd(A, compute_uv=False)[-1]
            got = linalg.smallest_singular_value(A)
            assert abs(got - expected) <= 1e-6 * max(1.0, expected)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_krylov_route_matches_svd_on_boundary_matrices(self, n):
        # the unit rows omega3(0) = 0 and omega5(0) = 0 are deflated
        G = solver.assemble(random_stable_system(0, n, n)).G
        assert G.shape[0] >= linalg.KRYLOV_MIN_ORDER
        assert linalg._unit_rows(G)[0].size == 2 * n * n
        expected = np.linalg.svd(G, compute_uv=False)[-1]
        assert_allclose(linalg.smallest_singular_value(G), expected, rtol=1e-10)

    def test_krylov_route_matches_svd_on_dense_random(self):
        A = np.random.default_rng(5).standard_normal((300, 300))
        assert A.shape[0] >= linalg.KRYLOV_MIN_ORDER
        assert linalg._unit_rows(A)[0].size == 0
        expected = np.linalg.svd(A, compute_uv=False)[-1]
        assert_allclose(linalg.smallest_singular_value(A), expected, rtol=1e-10)

    def test_krylov_route_unit_rows_only(self):
        # a permutation deflates to an empty core
        A = np.eye(300)[np.random.default_rng(6).permutation(300)]
        assert linalg._unit_rows(A)[0].size == 300
        assert linalg.smallest_singular_value(A) == 1.0

    def test_krylov_route_singular_core(self):
        G = solver.assemble(random_stable_system(0, 8, 8)).G.copy()
        rows, cols = linalg._unit_rows(G)
        G[:, np.setdiff1d(np.arange(G.shape[1]), cols)[0]] = 0.0
        assert np.array_equal(linalg._unit_rows(G)[0], rows)
        assert linalg.smallest_singular_value(G) == 0.0


def test_maxabs():
    assert linalg.maxabs(np.array([[1.0, -3.5], [2.0, 0.0]])) == 3.5
    assert linalg.maxabs(np.zeros((0, 2))) == 0.0
