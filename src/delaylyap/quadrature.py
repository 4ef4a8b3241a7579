"""Composite Gauss-Legendre quadrature for scalar and matrix integrands.

An integrand takes the 1-d array of a rule's nodes and returns its values
stacked on a leading axis: shape ``(k,)`` for a scalar integrand, ``(k,
...)`` for an array-valued one.
"""

import numpy as np


def panel_nodes(a, b, panels, order):
    """Nodes and weights of a composite Gauss-Legendre rule on ``[a, b]``."""
    if panels < 1 or order < 1:
        raise ValueError("panels and order must be positive")
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    wts = (half[:, None] * w[None, :]).reshape(-1)
    return pts, wts


def fixed_quad(f, a, b, panels=8, order=10):
    """Integrate ``f`` over ``[a, b]`` with a fixed composite rule, calling
    ``f`` once with all of the rule's nodes."""
    pts, wts = panel_nodes(a, b, panels, order)
    F = np.asarray(f(pts), dtype=float)
    if F.shape[:1] != pts.shape:
        raise ValueError("integrand returned shape %s for %d nodes"
                         % (F.shape, pts.size))
    terms = wts.reshape(wts.shape + (1,) * (F.ndim - 1)) * F
    # a running sum adds the nodes in order, the same for every value shape
    return np.cumsum(terms, axis=0)[-1]


def integrate(f, a, b, tol=1e-10, order=10, panels=4, max_panels=512):
    """Integrate ``f`` over ``[a, b]``, doubling panels until converged.

    Stops when doubling the panel count changes the result by less than
    ``tol * max(1, |result|)`` in the max-abs norm. Raises ``RuntimeError``
    naming the interval, the panels reached and the last change if
    ``max_panels`` is reached without convergence.
    """
    if b == a:
        return np.zeros_like(np.asarray(f(np.array([a])), dtype=float)[0])
    coarse = fixed_quad(f, a, b, panels, order)
    err = np.inf
    while panels < max_panels:
        panels *= 2
        fine = fixed_quad(f, a, b, panels, order)
        err = np.max(np.abs(fine - coarse))
        scale = max(1.0, float(np.max(np.abs(fine))))
        if err < tol * scale:
            return fine
        coarse = fine
    raise RuntimeError("quadrature on [%g, %g] did not converge: last change "
                       "%.3g at %d panels, tol=%g" % (a, b, err, panels, tol))
