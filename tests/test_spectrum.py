import numpy as np
import pytest
from numpy.testing import assert_allclose

from delaylyap import (
    SpectrumConditionViolated,
    Weight,
    assemble,
    characteristic_matrix,
    check_spectrum,
    solve_boundary,
)
from delaylyap import linalg
from delaylyap.quadrature import integrate

from systems import (
    benchmark_system,
    mirror_root_frequency,
    mirror_root_system,
    random_stable_system,
    scalar_decay,
    scalar_zero_root,
)


class TestCheck:
    def test_benchmark_is_satisfied(self):
        sys, _ = benchmark_system()
        report = check_spectrum(assemble(sys))
        assert report.verdict == "satisfied"
        assert report.relative > 1e-8
        assert report.sigma_min > 0
        assert report.max_abs >= report.sigma_min

    def test_zero_root_is_violated(self):
        sys, _ = scalar_zero_root()
        report = check_spectrum(assemble(sys))
        assert report.verdict == "violated"
        assert report.relative < 1e-10

    def test_mirrored_pair_is_violated(self):
        sys, _ = mirror_root_system()
        report = check_spectrum(assemble(sys))
        assert report.relative < 1e-8

    def test_random_stable_systems_are_satisfied(self):
        for seed in (101, 102, 103):
            sys = random_stable_system(seed)
            assert check_spectrum(assemble(sys)).verdict == "satisfied"

    # check reads an assembled operator's grade; a bare matrix's grade is
    # linalg.smallest_singular_value and linalg.maxabs of it

    def test_accepts_bare_matrix(self):
        sigma = linalg.smallest_singular_value(np.eye(3))
        assert_allclose(sigma, 1.0)
        assert_allclose(sigma / linalg.maxabs(np.eye(3)), 1.0)

    def test_threshold_knobs(self):
        sys, _ = benchmark_system()
        op = assemble(sys)
        assert check_spectrum(op, hard=0.5).verdict == "violated"
        assert check_spectrum(op, hard=1e-12,
                              borderline=0.5).verdict == "borderline"

    @pytest.mark.parametrize("make", [lambda: benchmark_system()[0],
                                      lambda: scalar_zero_root()[0],
                                      lambda: random_stable_system(0, 8, 8)],
                             ids=["svd", "zero_root", "lanczos"])
    def test_operator_reads_its_grade(self, make, decompositions):
        # the operator's grade was taken when it was assembled
        op = assemble(make())
        decompositions.clear()
        report = check_spectrum(op)
        assert not decompositions
        assert report.sigma_min == linalg.smallest_singular_value(op.G)
        assert report.max_abs == linalg.maxabs(op.G)

    def test_zero_matrix(self):
        assert linalg.smallest_singular_value(np.zeros((2, 2))) == 0.0
        assert linalg.maxabs(np.zeros((2, 2))) == 0.0

    @pytest.mark.parametrize("size", [3, 300])  # the SVD and the Krylov route
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite(self, size, value):
        # an inf used to grade as satisfied, nan < hard being False
        G = np.eye(size)
        G[1, 2] = value
        with pytest.raises(ValueError, match=r"got %r at \(1, 2\)" % value):
            linalg.smallest_singular_value(G)


class TestSolveConsistency:
    def test_violated_iff_solve_raises(self):
        cases = [
            benchmark_system(),
            scalar_decay(),
            scalar_zero_root(),
            mirror_root_system(),
            (random_stable_system(104), Weight(np.eye(2))),
            (random_stable_system(105, n=1, nd=2), Weight(np.eye(1))),
        ]
        for sys, weight in cases:
            op = assemble(sys)
            verdict = check_spectrum(op).verdict
            if verdict == "violated":
                with pytest.raises(SpectrumConditionViolated):
                    solve_boundary(op, weight)
            else:
                solve_boundary(op, weight)


def characteristic_value(sys, lam):
    """Determinant of the characteristic matrix at ``lam``."""
    return complex(np.linalg.det(characteristic_matrix(sys, lam)))


class TestCharacteristicFunction:
    def test_scalar_no_delay_terms(self):
        # x' = a0 x gives the affine characteristic function lam - a0
        sys, _ = scalar_decay(a0=-1.0)
        assert_allclose(characteristic_value(sys, 1.0), 2.0, atol=1e-12)
        assert_allclose(characteristic_value(sys, -1.0), 0.0, atol=1e-12)

    def test_zero_root_system_vanishes_at_origin(self):
        sys, _ = scalar_zero_root()
        assert abs(characteristic_value(sys, 0.0)) < 1e-14

    def test_mirror_roots_vanish(self):
        sys, _ = mirror_root_system()
        w = mirror_root_frequency()
        assert abs(characteristic_value(sys, 1j * w)) < 1e-10
        assert abs(characteristic_value(sys, -1j * w)) < 1e-10

    def test_closed_form_matches_quadrature(self):
        # independent route: integrate the kernel transform numerically
        sys, _ = benchmark_system()
        # i pi is minus an eigenvalue of Ad, where lam I + Ad is singular
        for lam in (0.3, -0.8 + 1.1j, 2.0j, -1.5 - 0.4j, 1j * np.pi):
            def transformed(theta, lam=lam):
                K = sys.Cd @ (np.cos(np.pi * theta) * np.eye(2)
                              + np.sin(np.pi * theta)
                              * np.array([[0.0, -1.0], [1.0, 0.0]])) @ sys.Bd
                return np.exp(lam * theta) * K

            def re_part(thetas):
                return np.array([transformed(theta).real for theta in thetas])

            def im_part(thetas):
                return np.array([transformed(theta).imag for theta in thetas])

            transform = integrate(re_part, -1.0, 0.0, tol=1e-12) \
                + 1j * integrate(im_part, -1.0, 0.0, tol=1e-12)
            expected = (lam * np.eye(2) - sys.A0
                        - np.exp(-lam * sys.h) * sys.A1 - transform)
            got = characteristic_matrix(sys, lam)
            assert_allclose(got, expected, atol=1e-8)

    def test_singular_internal_shift_falls_back(self):
        # lam at minus an internal eigenvalue makes lam I + Ad singular; the
        # block-exponential form inverts nothing, so the value must stay
        # finite and continuous there
        sys, _ = benchmark_system()
        lam0 = 1j * np.pi
        v0 = characteristic_value(sys, lam0)
        v1 = characteristic_value(sys, lam0 + 1e-7)
        assert np.isfinite(v0.real) and np.isfinite(v0.imag)
        assert abs(v0 - v1) < 1e-4 * max(1.0, abs(v0))

    def test_analyticity(self):
        # real-step and imaginary-step difference quotients must agree
        sys, _ = benchmark_system()
        eps = 1e-6
        for lam in (0.5 + 0.3j, -0.2 + 1.0j, 1.1 - 0.7j):
            d_re = (characteristic_value(sys, lam + eps)
                    - characteristic_value(sys, lam - eps)) / (2 * eps)
            d_im = (characteristic_value(sys, lam + 1j * eps)
                    - characteristic_value(sys, lam - 1j * eps)) / (2j * eps)
            assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))

    def test_roots_match_boundary_singularity(self):
        # scalar decay with a delayed term: find a real characteristic root
        # by bisection, then confirm the mirrored pair is absent
        sys, _ = scalar_decay(a0=-1.0)
        f = lambda s: characteristic_value(sys, s).real
        assert f(-1.0) == pytest.approx(0.0, abs=1e-12)
        report = check_spectrum(assemble(sys))
        assert report.verdict == "satisfied"
