"""Shared system builders for the test suite."""

import numpy as np

from delaylyap import TimeDelaySystem, Weight, sincos_kernel, zero_kernel
from delaylyap.linalg import maxabs
from delaylyap.quadrature import integrate

ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def benchmark_system():
    """Rotation-coupled system with a sine/cosine distributed kernel.

    The boundary blocks of this system are known to four digits and the
    Lyapunov matrix at zero equals 0.7072 times the identity.
    """
    B0 = 0.3 * np.eye(2)
    A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B1 = A1 @ B0
    Ad, Bd, Cd = sincos_kernel(B0, B1, np.pi)
    sys = TimeDelaySystem(-np.eye(2), A1, Ad, Bd, Cd, 1.0)
    return sys, Weight(np.eye(2))


def benchmark_sincos_pieces():
    """The raw sine/cosine coefficients of the benchmark kernel."""
    B0 = 0.3 * np.eye(2)
    B1 = np.array([[0.0, 1.0], [-1.0, 0.0]]) @ B0
    return B0, B1, np.pi


def scalar_decay(a0=-1.0, h=1.0, q=1.0):
    """Scalar system with no delayed terms; P(tau) = -q/(2 a0) e^(a0 tau)."""
    Ad, Bd, Cd = zero_kernel(1)
    sys = TimeDelaySystem([[a0]], [[0.0]], Ad, Bd, Cd, h)
    return sys, Weight([[q]])


def scalar_zero_root():
    """Scalar integrator: the root at zero is its own mirror image."""
    Ad, Bd, Cd = zero_kernel(1)
    sys = TimeDelaySystem([[0.0]], [[0.0]], Ad, Bd, Cd, 1.0)
    return sys, Weight([[1.0]])


def mirror_root_frequency(h=1.0):
    """Smallest w > 0 with cos(w h) = 0, found by bisection.

    For the system x'(t) = -w x(t - h) this puts characteristic roots at
    +- i w, a mirrored pair.
    """
    lo, hi = 0.0, np.pi / h
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.cos(mid * h) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mirror_root_system(h=1.0):
    w = mirror_root_frequency(h)
    Ad, Bd, Cd = zero_kernel(1)
    sys = TimeDelaySystem([[0.0]], [[-w]], Ad, Bd, Cd, h)
    return sys, Weight([[1.0]])


def random_system(rng, n, nd, h=1.0):
    """Unstructured random system, no stability guarantee."""
    return TimeDelaySystem(
        rng.uniform(-1, 1, (n, n)),
        rng.uniform(-1, 1, (n, n)),
        rng.uniform(-1, 1, (nd, nd)),
        rng.uniform(-1, 1, (nd, n)),
        rng.uniform(-1, 1, (n, nd)),
        h,
    )


def random_stable_system(seed, n=2, nd=2, h=1.0):
    """Random system shifted until it provably decays.

    Shifting A0 so that its log norm dominates the spectral norm of the
    delayed term plus the integrated kernel norm guarantees exponential
    decay, hence also the mirrored-root condition.
    """
    rng = np.random.default_rng(seed)
    A0 = rng.uniform(-1, 1, (n, n))
    A1 = 0.3 * rng.uniform(-1, 1, (n, n))
    Ad = rng.uniform(-1, 1, (nd, nd))
    Bd = 0.4 * rng.uniform(-1, 1, (nd, n))
    Cd = 0.4 * rng.uniform(-1, 1, (n, nd))

    def kernel_norm(thetas):
        import scipy.linalg
        return np.array([np.linalg.norm(Cd @ scipy.linalg.expm(Ad * theta) @ Bd, 2)
                         for theta in thetas])

    lag_gain = np.linalg.norm(A1, 2) + float(integrate(kernel_norm, -h, 0.0, tol=1e-8))
    mu = float(np.linalg.eigvalsh(0.5 * (A0 + A0.T))[-1])
    A0 = A0 - (mu + lag_gain + 0.2) * np.eye(n)
    return TimeDelaySystem(A0, A1, Ad, Bd, Cd, h)


def random_symmetric(rng, n):
    R = rng.standard_normal((n, n))
    return 0.5 * (R + R.T)
