"""Seeded inputs of the benchmark.

Every input is a pure function of ``(seed, index)``: operation ``i`` of a
run with seed ``s`` draws from ``numpy.random.default_rng([s, i])``, so the
same seed gives the same stream however many operations a run reaches.
Inputs are plain arrays; the package is not imported here.
"""

import numpy as np
import scipy.linalg

# The weight sweep cycles through these sizes, and every tenth system is
# degenerate, so the mix of work is the same in every run.
SWEEP_SIZES = [(n, nd) for n in range(1, 5) for nd in range(1, 4)]
DEGENERATE_EVERY = 10
# Extra decay margin of the stable generator, as in the test suite's
# ``random_stable_system``.
STABILITY_MARGIN = 0.2

STABLE = "stable"
MIRROR = "mirror"
ZERO_ROOT = "zero-root"

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def op_rng(seed, index):
    """Generator for operation ``index`` of a run seeded with ``seed``."""
    return np.random.default_rng([int(seed), int(index)])


def _kernel_gain(Ad, Bd, Cd, h):
    """``int_{-h}^0 ||Cd expm(Ad th) Bd||_2 dth`` by 16-point Gauss-Legendre."""
    thetas = 0.5 * h * (_GL_NODES - 1.0)
    norms = [np.linalg.norm(Cd @ scipy.linalg.expm(Ad * t) @ Bd, 2) for t in thetas]
    return 0.5 * h * float(np.dot(_GL_WEIGHTS, norms))


def stable_matrices(rng, n, nd, h):
    """Random ``(A0, A1, Ad, Bd, Cd)`` shifted until the system provably decays.

    The shift makes the log norm of ``A0`` more negative than the gain of
    the delayed term plus the integrated kernel norm, by
    ``STABILITY_MARGIN``. ``Ad`` is shifted so that its spectrum lies in
    the closed right half plane: the kernel then decays into the past,
    and the simulator's augmented state, which carries ``-Ad`` as its
    internal dynamics, has no growing mode for rounding errors to excite.
    """
    A0 = rng.uniform(-1, 1, (n, n))
    A1 = 0.3 * rng.uniform(-1, 1, (n, n))
    Ad = rng.uniform(-1, 1, (nd, nd))
    Ad = Ad + max(0.0, -float(np.min(np.linalg.eigvals(Ad).real))) * np.eye(nd)
    Bd = 0.4 * rng.uniform(-1, 1, (nd, n))
    Cd = 0.4 * rng.uniform(-1, 1, (n, nd))
    gain = np.linalg.norm(A1, 2) + _kernel_gain(Ad, Bd, Cd, h)
    mu = float(np.linalg.eigvalsh(0.5 * (A0 + A0.T))[-1])
    A0 = A0 - (mu + gain + STABILITY_MARGIN) * np.eye(n)
    return A0, A1, Ad, Bd, Cd


def degenerate_matrices(rng, n, nd, h, family):
    """A stable system whose first coordinate is decoupled and replaced by a
    scalar degenerate one.

    ``mirror`` gives ``x1' = -(pi / 2h) x1(t - h)``, with roots ``+-i pi/2h``;
    ``zero-root`` gives ``x1' = 0``. Decoupling keeps every other root in
    the open left half plane, so exactly one degeneracy is present.
    """
    A0, A1, Ad, Bd, Cd = stable_matrices(rng, n, nd, h)
    for M in (A0, A1):
        M[0, :] = 0.0
        M[:, 0] = 0.0
    Bd[:, 0] = 0.0
    Cd[0, :] = 0.0
    if family == MIRROR:
        A1[0, 0] = -0.5 * np.pi / h
    elif family != ZERO_ROOT:
        raise ValueError("unknown degenerate family %r" % family)
    return A0, A1, Ad, Bd, Cd


def spd_weight(rng, n):
    """Symmetric positive definite weight with entries of order one."""
    R = rng.standard_normal((n, n))
    Q = R @ R.T / n + 0.5 * np.eye(n)
    return 0.5 * (Q + Q.T)


def sweep_case(seed, index):
    """One weight-sweep input: a small system and three SPD weights.

    The size and whether the system is degenerate follow from ``index``;
    the seed draws the matrices, ``h`` in ``[0.2, 2]``, the degenerate
    family and the weights.
    """
    rng = op_rng(seed, index)
    n, nd = SWEEP_SIZES[index % len(SWEEP_SIZES)]
    h = float(rng.uniform(0.2, 2.0))
    if index % DEGENERATE_EVERY == DEGENERATE_EVERY - 1:
        family = MIRROR if rng.random() < 0.5 else ZERO_ROOT
        mats = degenerate_matrices(rng, n, nd, h, family)
    else:
        family = STABLE
        mats = stable_matrices(rng, n, nd, h)
    weights = [spd_weight(rng, n) for _ in range(3)]
    x0 = rng.standard_normal(n)
    return {"family": family, "matrices": mats, "h": h, "weights": weights,
            "lags": [0.0, h], "x0": x0 / np.linalg.norm(x0)}


def dense_case(seed, index, n=12, h=1.0):
    """One dense input: a stable system with ``n = nd``, one SPD weight and
    five lags spread over ``[0, h]``. ``h`` is fixed because the cost of
    ``expm(E h)`` grows with the norm of ``E h``."""
    rng = op_rng(seed, index)
    mats = stable_matrices(rng, n, n, h)
    weight = spd_weight(rng, n)
    x0 = rng.standard_normal(n)
    return {"family": STABLE, "matrices": mats, "h": h, "weights": [weight],
            "lags": [f * h for f in (0.0, 0.25, 0.5, 0.75, 1.0)],
            "x0": x0 / np.linalg.norm(x0)}
