"""Composite Gauss-Legendre quadrature for scalar and matrix integrands.

An integrand takes the 1-d array of a rule's nodes and returns its values
stacked on a leading axis: shape ``(k,)`` for a scalar integrand, ``(k,
...)`` for an array-valued one.

:func:`integrate_batch` integrates one integrand over many intervals at
once. It also receives, for every node, the index of the interval it
belongs to, and each round of the adaptive refinement is one call over
the nodes of every integral still pending. The Gauss-Legendre rule of
each order is built once and kept.
"""

from functools import cache

import numpy as np

# rule order, and the first and the largest panel count of the adaptive
# ``integrate``
ORDER = 10
PANELS = 4
MAX_PANELS = 512


@cache
def _rule(order):
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(a, b, panels, order):
    """Nodes and weights of a composite Gauss-Legendre rule on ``[a, b]``.
    Arrays of ends give one rule per interval, stacked on their axes."""
    if panels < 1 or order < 1:
        raise ValueError("panels and order must be positive")
    x, w = _rule(order)
    edges = np.linspace(a, b, panels + 1, axis=-1)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = half.shape[:-2] + (-1,)
    return (mid + half * x).reshape(shape), (half * w).reshape(shape)


def _rule_sums(f, a, b, panels, order=ORDER):
    """The composite rule on each interval ``[a[j], b[j]]`` from one call
    ``f(x, i)`` over all of the nodes ``x``, ``i`` naming their intervals."""
    pts, wts = panel_nodes(a, b, panels, order)
    F = np.asarray(f(pts.ravel(), np.arange(len(a)).repeat(pts.shape[1])),
                   dtype=float)
    if F.shape[:1] != (pts.size,):
        raise ValueError("integrand returned shape %s for %d nodes"
                         % (F.shape, pts.size))
    F = F.reshape(pts.shape + F.shape[1:])
    terms = wts.reshape(wts.shape + (1,) * (F.ndim - 2)) * F
    # a running sum adds the nodes in order, the same for every value shape
    return np.cumsum(terms, axis=1)[:, -1]


def integrate_batch(f, a, b, tol):
    """Integrate ``f`` over each interval ``[a[j], b[j]]`` of the 1-d arrays
    of ends ``a`` and ``b``, doubling the panels of all pending integrals
    together from :data:`PANELS` up to :data:`MAX_PANELS`.

    ``f(x, i)`` takes the nodes ``x`` of every pending integral and the
    index ``i`` of the interval each node belongs to. The results come
    stacked on a leading axis of length ``len(a)``; an empty interval
    gives zeros. Each integral stops, with the panel count a lone
    :func:`integrate` call would reach, once doubling changes it by less
    than ``tol * max(1, |result|)`` in the max-abs norm. Raises
    ``RuntimeError`` naming the first interval, the panels reached and
    its last change if one has not converged at :data:`MAX_PANELS`.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    todo = np.flatnonzero(a != b)
    if not todo.size:
        return np.zeros_like(np.asarray(f(a, np.arange(a.size)), dtype=float))

    def sums(todo, panels):
        return _rule_sums(lambda x, i: f(x, todo[i]), a[todo], b[todo], panels)

    panels = PANELS
    coarse = sums(todo, panels)
    out = np.zeros((a.size,) + coarse.shape[1:])
    err = np.full(todo.size, np.inf)
    while todo.size and panels < MAX_PANELS:
        panels *= 2
        fine = sums(todo, panels)
        axes = tuple(range(1, fine.ndim))
        err = np.max(np.abs(fine - coarse), axis=axes)
        scale = np.maximum(1.0, np.max(np.abs(fine), axis=axes))
        done = err < tol * scale
        out[todo[done]] = fine[done]
        todo, coarse, err = todo[~done], fine[~done], err[~done]
    if todo.size:
        raise RuntimeError("quadrature on [%g, %g] did not converge: last change "
                           "%.3g at %d panels, tol=%g"
                           % (a[todo[0]], b[todo[0]], err[0], panels, tol))
    return out


def integrate(f, a, b, tol):
    """Integrate ``f`` over ``[a, b]``: :func:`integrate_batch` on one
    interval, with ``f`` taking the nodes alone."""
    return integrate_batch(lambda x, i: f(x), [a], [b], tol)[0]
