"""System description: a linear delay system with one pointwise delay and
one distributed delay whose kernel is a matrix-exponential mixture.

The state equation is

    x'(t) = A0 x(t) + A1 x(t - h) + int_{-h}^{0} K(theta) x(t + theta) dtheta

with the kernel factored as ``K(theta) = Cd expm(Ad * theta) Bd``. Pure
sine/cosine kernels fit this form through :func:`sincos_kernel`; a zero
kernel through :func:`zero_kernel`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg

_ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _as_matrix(M, name, violations):
    try:
        M = np.asarray(M, dtype=float)
    except (TypeError, ValueError):
        violations.append("%s is not a numeric matrix" % name)
        return None
    if M.ndim != 2:
        violations.append("%s must be 2-d, got %d-d" % (name, M.ndim))
        return None
    if not np.all(np.isfinite(M)):
        violations.append("%s contains non-finite entries" % name)
    return M


def check_matrices(A0, A1, Ad, Bd, Cd, h):
    """Collect every shape/consistency violation of a candidate system.

    Returns a list of human-readable messages; an empty list means the
    data describes a well-formed system.
    """
    violations = []
    A0 = _as_matrix(A0, "A0", violations)
    A1 = _as_matrix(A1, "A1", violations)
    Ad = _as_matrix(Ad, "Ad", violations)
    Bd = _as_matrix(Bd, "Bd", violations)
    Cd = _as_matrix(Cd, "Cd", violations)
    if A0 is None or A1 is None or Ad is None or Bd is None or Cd is None:
        return violations
    if A0.shape[0] != A0.shape[1]:
        violations.append("A0 must be square, got %s" % (A0.shape,))
        return violations
    n = A0.shape[0]
    if n == 0:
        violations.append("state dimension must be at least 1")
    if A1.shape != (n, n):
        violations.append("A1 shape %s does not match A0 shape %s" % (A1.shape, A0.shape))
    if Ad.shape[0] != Ad.shape[1]:
        violations.append("Ad must be square, got %s" % (Ad.shape,))
        return violations
    nd = Ad.shape[0]
    if nd == 0:
        violations.append("kernel internal dimension must be at least 1")
    if Bd.shape != (nd, n):
        violations.append("Bd shape %s, expected (%d, %d)" % (Bd.shape, nd, n))
    if Cd.shape != (n, nd):
        violations.append("Cd shape %s, expected (%d, %d)" % (Cd.shape, n, nd))
    try:
        h = float(h)
    except (TypeError, ValueError):
        violations.append("delay h is not a number")
        return violations
    if not np.isfinite(h) or h < 0:
        violations.append("delay h must be finite and nonnegative, got %r" % h)
    return violations


@dataclass(frozen=True, eq=False)
class TimeDelaySystem:
    """Immutable description of the delay system.

    Parameters
    ----------
    A0, A1 : (n, n) array_like
        Instantaneous and delayed state matrices.
    Ad : (nd, nd) array_like
        Generator of the kernel's internal dynamics.
    Bd : (nd, n) array_like
    Cd : (n, nd) array_like
        Input and output factors of the kernel ``Cd expm(Ad th) Bd``.
    h : float
        Delay length, ``h >= 0``.
    """

    A0: np.ndarray
    A1: np.ndarray
    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    h: float

    def __post_init__(self):
        problems = check_matrices(self.A0, self.A1, self.Ad, self.Bd, self.Cd, self.h)
        if problems:
            raise ValueError("invalid system: " + "; ".join(problems))
        for name in ("A0", "A1", "Ad", "Bd", "Cd"):
            M = np.array(getattr(self, name), dtype=float)
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        object.__setattr__(self, "h", float(self.h))

    @property
    def n(self):
        return self.A0.shape[0]

    @property
    def internal_dim(self):
        return self.Ad.shape[0]


def validate(sys):
    """Re-run all well-formedness checks on an existing system."""
    return check_matrices(sys.A0, sys.A1, sys.Ad, sys.Bd, sys.Cd, sys.h)


def kernel_at(sys, theta):
    """Evaluate the distributed-delay kernel ``Cd expm(Ad theta) Bd``.

    ``theta`` must lie in ``[-h, 0]`` up to a small slack. A scalar gives
    ``(n, n)``; an array gives the kernels stacked on its axes, one
    exponential per point.
    """
    theta = np.asarray(theta, dtype=float)
    slack = 1e-12 * max(1.0, sys.h)
    bad = ~((theta >= -sys.h - slack) & (theta <= slack))
    if np.any(bad):
        raise ValueError(
            "kernel argument %g outside [-h, 0] with h=%g"
            % (theta[bad].flat[0], sys.h)
        )
    theta = np.clip(theta, -sys.h, 0.0)
    E = np.array([linalg.expm(sys.Ad, th) for th in theta.ravel()])
    return sys.Cd @ E.reshape(theta.shape + sys.Ad.shape) @ sys.Bd


@dataclass(frozen=True, eq=False)
class Weight:
    """Symmetric weighting matrix of the quadratic running cost.

    Small asymmetries (below ``1e-12`` relative to the largest entry) are
    averaged away; anything larger is rejected. Definiteness is not
    enforced: the construction is linear in the weight, but the cost
    interpretation needs a positive semidefinite choice.
    """

    matrix: np.ndarray = field()

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("weight must be a square matrix, got shape %s" % (M.shape,))
        if not np.all(np.isfinite(M)):
            raise ValueError("weight contains non-finite entries")
        asym = linalg.maxabs(M - M.T)
        if asym > 1e-12 * max(1.0, linalg.maxabs(M)):
            raise ValueError(
                "weight is not symmetric: max |Q - Q.T| entry is %.3e" % asym
            )
        M = 0.5 * (M + M.T)
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def n(self):
        return self.matrix.shape[0]


def sincos_kernel(B0, B1, frequency):
    """Factor the kernel ``sin(w theta) B0 + cos(w theta) B1``.

    Returns ``(Ad, Bd, Cd)`` such that ``Cd expm(Ad theta) Bd`` reproduces
    the mixture exactly. When ``B0`` equals the quarter-turn rotation of
    ``B1`` (possible only for 2x2 coefficients) the internal dimension is
    2; otherwise a block embedding of internal dimension ``2 n`` is used.

    Parameters
    ----------
    B0, B1 : (n, n) array_like
        Coefficients of the sine and cosine terms.
    frequency : float
        Angular frequency ``w``.
    """
    B0 = np.asarray(B0, dtype=float)
    B1 = np.asarray(B1, dtype=float)
    if B0.ndim != 2 or B0.shape[0] != B0.shape[1]:
        raise ValueError("B0 must be square, got shape %s" % (B0.shape,))
    if B1.shape != B0.shape:
        raise ValueError("B0 and B1 shapes differ: %s vs %s" % (B0.shape, B1.shape))
    w = float(frequency)
    if not np.isfinite(w):
        raise ValueError("frequency must be finite")
    n = B0.shape[0]
    scale = max(1.0, linalg.maxabs(B0), linalg.maxabs(B1))
    if n == 2 and linalg.maxabs(B0 - _ROT2 @ B1) <= 1e-12 * scale:
        # expm(w rot theta) B1 = cos(w theta) B1 + sin(w theta) rot B1
        return w * _ROT2.copy(), B1.copy(), np.eye(2)
    In = np.eye(n)
    Zn = np.zeros((n, n))
    Ad = w * np.block([[Zn, -In], [In, Zn]])
    Bd = np.vstack([B1, -B0])
    Cd = np.hstack([In, Zn])
    return Ad, Bd, Cd


def zero_kernel(n, internal_dim=1):
    """Kernel factors for a system with no distributed-delay term."""
    if n < 1 or internal_dim < 1:
        raise ValueError("dimensions must be positive")
    return -np.eye(internal_dim), np.zeros((internal_dim, n)), np.zeros((n, internal_dim))
