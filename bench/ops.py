"""The operation the in-process workloads time, and its inputs.

The package is reached through attributes of the ``delaylyap`` module at
call time, never through names bound at import, so that the tracer's
rebinding applies.
"""

import numpy as np

import delaylyap as dl


def make_inputs(generate):
    """Operation inputs for a case generator: the case itself, and the
    package objects the operation receives."""
    def make(seed, i):
        case = generate(seed, i)
        sys_ = dl.TimeDelaySystem(*case["matrices"], case["h"])
        return case, (sys_, [dl.Weight(Q) for Q in case["weights"]], case["lags"])
    return make


def solve_op(sys_, weights, lags):
    """Solve one system for each weight in turn and evaluate ``P`` at the
    lags. A solve rejected as degenerate yields ``None``."""
    out = []
    for weight in weights:
        try:
            sol = dl.solve(sys_, weight)
        except dl.SpectrumConditionViolated:
            out.append(None)
            continue
        out.append((sol.spectrum.verdict, [dl.P_at(sol, tau) for tau in lags]))
    return out


def run_op(args):
    """Run one operation; an unexpected exception becomes its failure."""
    try:
        return solve_op(*args), None
    except Exception as exc:  # noqa: BLE001  recorded as a failed operation
        return None, "%s: %s" % (type(exc).__name__, exc)


def _flat(out):
    """An operation's result as a list of verdicts and arrays."""
    if out is None:
        return [None]
    return [item for o in out
            for item in ([None] if o is None else [o[0], *o[1]])]


def same_result(a, b):
    """Bitwise equality of two operation results."""
    fa, fb = _flat(a), _flat(b)
    return len(fa) == len(fb) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(fa, fb))
