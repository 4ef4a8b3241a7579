"""Composite Gauss-Legendre quadrature for scalar and matrix integrands."""

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
    """Integrate ``f`` over ``[a, b]`` with a fixed composite rule.

    ``f`` maps a scalar to a scalar or ndarray; all values must share a shape.
    """
    pts, wts = panel_nodes(a, b, panels, order)
    total = None
    for p, w in zip(pts, wts):
        val = w * np.asarray(f(p), dtype=float)
        total = val if total is None else total + val
    return total


def integrate(f, a, b, tol=1e-10, order=10, panels=4, max_panels=512):
    """Integrate ``f`` over ``[a, b]``, doubling panels until converged.

    Stops when doubling the panel count changes the result by less than
    ``tol * max(1, |result|)`` in the max-abs norm. Raises ``RuntimeError``
    naming the interval, the panels reached and the last change if
    ``max_panels`` is reached without convergence.
    """
    if b == a:
        probe = np.asarray(f(a), dtype=float)
        return np.zeros_like(probe)
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
