"""Invariances of the delay Lyapunov matrix under exact changes of the data.

Each relation maps a system and weight to another whose ``P`` is known
in terms of the first's, so it checks the solver against itself at any
size, with no second solver:

- state similarity ``x = T z``: ``(T^-1 A0 T, T^-1 A1 T, Ad, Bd T, T^-1
  Cd)`` with weight ``T' Q T`` has ``P_T(tau) = T' P(tau) T``;
- kernel realization ``(S^-1 Ad S, S^-1 Bd, Cd S)``: the kernel, and so
  ``P``, is unchanged;
- time scaling ``t = c s``: ``(c A0, c A1, c Ad, Bd, c^2 Cd, h / c)`` has
  ``P_c(s) = P(c s) / c``;
- an inert kernel mode: one more mode ``a`` of ``Ad`` that ``Bd`` does not
  reach, a zero new row of ``Bd`` and ``Ad[new, old] = 0``, or that ``Cd``
  does not observe, a zero new column of ``Cd`` and ``Ad[old, new] = 0``,
  leaves the kernel, and so ``P``, unchanged, whatever its other
  couplings;
- the kernel realized as state: ``z(t) = int_{-h}^0 expm(Ad th) Bd x(t +
  th) dth`` obeys ``z' = Bd x - expm(-Ad h) Bd x(t - h) - Ad z``, so ``[x;
  z]`` is a system with no kernel, and with weight ``diag(Q, 0)`` its
  leading ``n x n`` block of ``P`` is ``P``.

The similarity, realization and scaling relations are covariant: a solver that is wrong in a way that
respects the block structure, such as a wrong sign of ``Ead`` in both of
its places, is wrong on both sides alike and passes them. The last
compares the kernel's blocks against a solve that has none.

``P`` is compared at 41 lags on ``[-h, h]`` to 1e-13 of ``max|P|``.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from delaylyap import P_at, TimeDelaySystem, Weight, sincos_kernel, solve, zero_kernel
from delaylyap import config
from delaylyap.linalg import maxabs

from systems import random_stable_system

EXAMPLE1 = Path(__file__).resolve().parent.parent / "demos" / "configs" / "example1.json"
TOL = 1e-13
LAGS = 41


def spd(rng, n):
    R = rng.standard_normal((n, n))
    return R @ R.T / n + 0.5 * np.eye(n)


def well_conditioned(rng, n):
    return np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))


def example1():
    cfg = config.parse_config(EXAMPLE1)
    return config.build_system(cfg), config.build_weight(cfg).matrix


def sincos_system():
    """``random_stable_system(1, 2, 2)``'s state matrices with a sine/cosine
    kernel whose coefficients share no rotation, so ``sincos_kernel``
    takes its general realization, ``nd = 4``."""
    rng = np.random.default_rng(17)
    base = random_stable_system(1, 2, 2)
    Ad, Bd, Cd = sincos_kernel(*(0.2 * rng.uniform(-1, 1, (2, 2, 2))), 2.0)
    assert Ad.shape == (4, 4)
    return TimeDelaySystem(base.A0 - np.eye(2), base.A1, Ad, Bd, Cd, base.h), spd(rng, 2)


@cache
def random_case(n):
    return random_stable_system(1, n, n), spd(np.random.default_rng(n), n)


SYSTEMS = {
    "example1": example1,
    "sincos": sincos_system,
    "random2": lambda: random_case(2),
    "random4": lambda: random_case(4),
}


def P_lags(sys, Q, lags):
    return P_at(solve(sys, Weight(Q)), lags)


def assert_close(got, want):
    assert maxabs(got - want) <= TOL * maxabs(want)


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def case(request):
    sys, Q = SYSTEMS[request.param]()
    lags = np.linspace(-sys.h, sys.h, LAGS)
    return sys, Q, lags, P_lags(sys, Q, lags)


def test_state_similarity(case):
    sys, Q, lags, P = case
    T = well_conditioned(np.random.default_rng(5), sys.n)
    Ti = np.linalg.inv(T)
    moved = TimeDelaySystem(Ti @ sys.A0 @ T, Ti @ sys.A1 @ T, sys.Ad, sys.Bd @ T,
                            Ti @ sys.Cd, sys.h)
    assert_close(P_lags(moved, T.T @ Q @ T, lags), T.T @ P @ T)


def test_kernel_realization(case):
    sys, Q, lags, P = case
    S = well_conditioned(np.random.default_rng(6), sys.internal_dim)
    Si = np.linalg.inv(S)
    moved = TimeDelaySystem(sys.A0, sys.A1, Si @ sys.Ad @ S, Si @ sys.Bd,
                            sys.Cd @ S, sys.h)
    assert_close(P_lags(moved, Q, lags), P)


@pytest.mark.parametrize("c", [0.5, 4.0])
def test_time_scaling(case, c):
    sys, Q, lags, P = case
    # c is a power of two, so the lags and the delay scale exactly
    scaled = TimeDelaySystem(c * sys.A0, c * sys.A1, c * sys.Ad, sys.Bd,
                             c * c * sys.Cd, sys.h / c)
    assert_close(P_lags(scaled, Q, lags / c), P / c)


# the kernels of example1 and of the sine/cosine system have modes at
# +-i w, which the augmented system carries as a mirrored pair of roots
@pytest.mark.parametrize("name", ["random2", "random4"])
def test_kernel_as_state(name):
    sys, Q = SYSTEMS[name]()
    n, nd, h = sys.n, sys.internal_dim, sys.h
    A0 = np.block([[sys.A0, sys.Cd], [sys.Bd, -sys.Ad]])
    A1 = np.block([[sys.A1, np.zeros((n, nd))],
                   [-scipy.linalg.expm(-sys.Ad * h) @ sys.Bd, np.zeros((nd, nd))]])
    augmented = TimeDelaySystem(A0, A1, *zero_kernel(n + nd), h)
    lags = np.linspace(-h, h, LAGS)
    got = P_lags(augmented, scipy.linalg.block_diag(Q, np.zeros((nd, nd))), lags)
    assert_close(got[:, :n, :n], P_lags(sys, Q, lags))


@cache
def inert_reference(name):
    sys, Q = SYSTEMS[name]()
    lags = np.linspace(-sys.h, sys.h, LAGS)
    return sys, Q, lags, P_lags(sys, Q, lags)


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("kind", ["uncontrollable", "unobservable"])
@pytest.mark.parametrize("name", ["example1", "random2"])
def test_inert_kernel_mode(name, kind, a):
    sys, Q, lags, P = inert_reference(name)
    n, nd = sys.n, sys.internal_dim
    rng = np.random.default_rng(8)
    Ad = np.zeros((nd + 1, nd + 1))
    Ad[:nd, :nd], Ad[nd, nd] = sys.Ad, a
    Bd = np.vstack([sys.Bd, rng.uniform(-1, 1, (1, n))])
    Cd = np.hstack([sys.Cd, rng.uniform(-1, 1, (n, 1))])
    if kind == "uncontrollable":
        Bd[nd] = 0.0
        Ad[:nd, nd] = rng.uniform(-1, 1, nd)
    else:
        Cd[:, nd] = 0.0
        Ad[nd, :nd] = rng.uniform(-1, 1, nd)
    moved = TimeDelaySystem(sys.A0, sys.A1, Ad, Bd, Cd, sys.h)
    assert_close(P_lags(moved, Q, lags), P)
