"""Solvability diagnostics for the boundary-value construction.

The construction is well posed exactly when no characteristic root of the
delay system is mirrored by its negative. That condition is equivalent to
the combined boundary matrix being nonsingular, so the check here grades
the smallest singular value of that matrix relative to its largest entry.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from . import quadrature
from .model import kernel_at

HARD_THRESHOLD = 1e-12
BORDERLINE_THRESHOLD = 1e-8

SATISFIED = "satisfied"
BORDERLINE = "borderline"
VIOLATED = "violated"


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of the mirrored-root check.

    ``relative`` is ``sigma_min / max_abs`` and drives the verdict:
    below the hard threshold the construction is rejected, inside the
    borderline band it proceeds under a warning.
    """

    sigma_min: float
    max_abs: float
    relative: float
    verdict: str
    hard: float = HARD_THRESHOLD
    borderline: float = BORDERLINE_THRESHOLD


class SpectrumConditionViolated(RuntimeError):
    """Raised when the combined boundary matrix is numerically singular."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "mirrored characteristic roots detected: "
            "sigma_min/max|G| = %.3e is below %.3e"
            % (report.relative, report.hard)
        )


def check(op, hard=HARD_THRESHOLD, borderline=BORDERLINE_THRESHOLD):
    """Grade the solvability of an assembled operator.

    Parameters
    ----------
    op : AuxOperator or (m, m) array_like
        Assembled operator, or the combined boundary matrix directly.
    hard, borderline : float, optional
        Verdict thresholds on ``sigma_min / max_abs``.

    Returns
    -------
    SpectrumReport
    """
    G = np.asarray(getattr(op, "G", op), dtype=float)
    sigma = linalg.smallest_singular_value(G)
    scale = linalg.maxabs(G)
    relative = sigma / scale if scale > 0 else 0.0
    if relative < hard:
        verdict = VIOLATED
    elif relative < borderline:
        verdict = BORDERLINE
    else:
        verdict = SATISFIED
    return SpectrumReport(sigma, scale, relative, verdict, float(hard), float(borderline))


def characteristic_matrix(sys, lam):
    """Characteristic matrix ``lam I - A0 - e^(-lam h) A1 - L(lam)``.

    ``L`` is the Laplace-type transform of the kernel over ``[-h, 0]``,
    evaluated in closed form through the kernel's internal dynamics. When
    ``lam I + Ad`` is near singular the transform falls back to adaptive
    quadrature of ``e^(lam theta) K(theta)``.
    """
    lam = complex(lam)
    n = sys.n
    nd = sys.internal_dim
    M = lam * np.eye(nd) + sys.Ad
    if linalg.smallest_singular_value(M) >= 1e-10:
        inner = np.linalg.solve(M, np.eye(nd) - linalg.expm(-M, sys.h))
        transform = sys.Cd @ inner @ sys.Bd
    elif sys.h == 0:
        transform = np.zeros((n, n), dtype=complex)
    else:
        def integrand(theta):
            f = np.exp(lam * theta)[:, None, None] * kernel_at(sys, theta)
            return np.stack([f.real, f.imag], axis=1)

        parts = quadrature.integrate(integrand, -sys.h, 0.0, tol=1e-12)
        transform = parts[0] + 1j * parts[1]
    return lam * np.eye(n) - sys.A0 - np.exp(-lam * sys.h) * sys.A1 - transform


def characteristic_value(sys, lam):
    """Determinant of the characteristic matrix at ``lam``.

    Zeros of this function over the complex plane are the characteristic
    roots of the delay system.
    """
    return complex(np.linalg.det(characteristic_matrix(sys, lam)))
