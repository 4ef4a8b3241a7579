"""Solvability diagnostics for the boundary-value construction.

The construction is well posed exactly when no characteristic root of the
delay system is mirrored by its negative. That condition is equivalent to
the combined boundary matrix being nonsingular, so the check here grades
the smallest singular value of that matrix relative to its largest entry.
:func:`delaylyap.linalg.smallest_singular_value` takes it from one SVD of a
small matrix and from a Lanczos iteration on one inverse of a large one's
core; a matrix with a non-finite entry is refused. The grade depends on the
system alone, so :func:`delaylyap.solver.assemble` takes it once when it
forms the matrix, and :func:`check` reads it from the operator; only the
thresholds are applied per call.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg

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

    An operator carries the grade of its boundary matrix, ``sigma_min``
    and ``max_abs``, taken when it was assembled (a non-finite matrix was
    refused there), and no decomposition is taken here. The thresholds
    are applied on every call, so no verdict is kept.

    Parameters
    ----------
    op : AuxOperator
        Assembled operator, see :func:`delaylyap.solver.assemble`.
    hard, borderline : float, optional
        Verdict thresholds on ``sigma_min / max_abs``.

    Returns
    -------
    SpectrumReport
    """
    sigma, scale = op.sigma_min, op.max_abs
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
    ``Cd (int_0^h expm(-M s) ds) Bd`` with ``M = lam I + Ad``. The integral
    is the top-right block of ``expm([[-M, I], [0, 0]] h)`` (Van Loan, IEEE
    TAC 23, 1978), which needs no inverse of ``M`` and so holds for every
    ``lam``.
    """
    lam = complex(lam)
    nd = sys.internal_dim
    Z = np.block([[-(lam * np.eye(nd) + sys.Ad), np.eye(nd)],
                  [np.zeros((nd, 2 * nd))]])
    transform = sys.Cd @ linalg.expm(Z, sys.h)[:nd, nd:] @ sys.Bd
    return lam * np.eye(sys.n) - sys.A0 - np.exp(-lam * sys.h) * sys.A1 - transform
