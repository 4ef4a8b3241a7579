"""Correctness checks of the benchmark's operations.

Each check compares an operation's output with a reference that the timed
path does not produce: a table committed with the benchmark, the
boundary-value reference below, which shares no code with the package,
or the package's simulation oracle on a workload whose timed path does
not simulate. Each returns a list of problems, empty when the output is
correct.
"""

import json
from pathlib import Path

import numpy as np
import scipy.linalg

import delaylyap as dl
import inputs

REFERENCE_TABLE = Path(__file__).resolve().parent / "reference" / "example1_P_tau.csv"

# Tolerances of the checks.
TABLE_TOL = 1e-10
REFERENCE_RTOL = 1e-10
COST_RTOL = 1e-3
# Residual bounds of ``delaylyap.cli.VALIDATION_BOUNDS`` as the benchmark
# was defined; a later change may tighten the package's own copy, but the
# benchmark keeps checking these.
VALIDATION_BOUNDS = {
    "dde": 1e-5,
    "algebraic": 1e-6,
    "collapsed": 1e-6,
    "omega1_flip": 1e-8,
    "omega3_flip": 1e-8,
    "omega4_flip": 1e-8,
    "omega1_symmetry_at_0": 1e-9,
    "omega1_0_minus_omega2_h": 1e-9,
    "omega3_at_0": 1e-9,
    "omega5_at_0": 1e-9,
    "omega4_at_h": 1e-9,
    "omega6_at_h": 1e-9,
}


def table_problems(path):
    """A written ``P_tau.csv`` against the committed reference table."""
    try:
        with open(path) as fh:
            header = fh.readline()
        got = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        return ["cannot read %s: %s" % (path.name, exc)]
    with open(REFERENCE_TABLE) as fh:
        ref_header = fh.readline()
    ref = np.loadtxt(REFERENCE_TABLE, delimiter=",", skiprows=1)
    if header != ref_header or got.shape != ref.shape:
        return ["%s layout differs from the reference table" % path.name]
    err = float(np.max(np.abs(got - ref)))
    return [] if err <= TABLE_TOL else ["%s off the reference by %.3e" % (path.name, err)]


def solve_problems(out):
    """Output of ``delaylyap solve`` in directory ``out``."""
    try:
        residuals = json.loads((out / "summary.json").read_text())["residuals"]
    except (OSError, ValueError, KeyError) as exc:
        return ["unreadable summary.json: %s" % exc]
    problems = ["residual %s=%r above %g" % (k, residuals.get(k), b)
                for k, b in VALIDATION_BOUNDS.items()
                if not (isinstance(residuals.get(k), (int, float)) and residuals[k] <= b)]
    return problems + table_problems(out / "P_tau.csv")


def validate_problems(out):
    """Output of ``delaylyap validate`` in directory ``out``."""
    try:
        passed = json.loads((out / "validation.json").read_text())["all_passed"]
    except (OSError, ValueError, KeyError) as exc:
        return ["unreadable validation.json: %s" % exc]
    problems = [] if passed is True else ["validation.json all_passed is not true"]
    return problems + table_problems(out / "P_tau.csv")


def case_problems(case, out):
    """Verdicts, and every returned ``P`` against the boundary-value
    reference of :func:`reference_P`.

    ``out`` holds, per weight, ``None`` for a solve rejected as degenerate
    or ``(verdict, [P(lag) for lag in case["lags"]])``.
    """
    if case["family"] != inputs.STABLE:
        return [] if all(o is None for o in out) else ["degenerate system was solved"]
    if any(o is None for o in out):
        return ["stable system rejected as degenerate"]
    problems = ["verdict %s" % v for v, _ in out if v != "satisfied"]
    lags = case["lags"]
    refs = reference_P(case["matrices"], case["h"], case["weights"], lags)
    for (_, Ps), ref in zip(out, refs):
        for tau, P, R in zip(lags, Ps, ref):
            err = float(np.max(np.abs(P - R)))
            if not err <= REFERENCE_RTOL * max(1.0, float(np.max(np.abs(R)))):
                problems.append("P(%.6g) off the reference by %.3e" % (tau, err))
    return problems


def cost_problems(case, out):
    """``x0' P(0) x0`` against the simulated cost of the point-mass history."""
    sys_ = dl.TimeDelaySystem(*case["matrices"], case["h"])
    weight = dl.Weight(case["weights"][0])
    x0 = case["x0"]
    predicted = float(x0 @ out[0][1][0] @ x0)
    est, _ = dl.cost_to_go(sys_, weight, dl.HistorySpec.point_mass(x0))
    if not est.decaying:
        return ["simulated cost is not decaying"]
    if abs(est.value - predicted) > COST_RTOL * abs(predicted):
        return ["cost %.9g vs x0'P(0)x0 %.9g" % (est.value, predicted)]
    return []


def _layout(n, nd):
    shapes = [(n, n), (n, n), (n, nd), (n, nd), (nd, n), (nd, n)]
    offsets = np.cumsum([0] + [r * c for r, c in shapes])
    return shapes, offsets


def _unpack(V, n, nd):
    """Column-stacked state batch ``(ns, k)`` -> six ``(k, r, c)`` blocks."""
    shapes, off = _layout(n, nd)
    k = V.shape[1]
    return [V[off[i]:off[i + 1]].T.reshape(k, c, r).transpose(0, 2, 1)
            for i, (r, c) in enumerate(shapes)]


def _pack(blocks):
    k = blocks[0].shape[0]
    return np.concatenate([B.transpose(0, 2, 1).reshape(k, -1).T for B in blocks])


def reference_P(matrices, h, weights, lags):
    """``P`` at each lag in ``[0, h]``, for each weight, from the six-block
    equations.

    The blocks ``W1..W6`` obey

        W1' = W1 A0 + W2 A1 + (W3 + W4) Bd     W2' = -A1' W1 - A0' W2 - Bd' (W5 + W6)
        W3' = W1 Cd - W3 Ad                    W4' = -W2 Ead - W4 Ad
        W5' = Ead' W1 + Ad' W5                 W6' = -Cd' W2 + Ad' W6

    with ``Ead = Cd expm(-Ad h)``, and the boundary conditions

        W1(0) A0 + W2(0) A1 + (W3(0) + W4(0)) Bd
            + A1' W1(h) + A0' W2(h) + Bd' (W5(h) + W6(h)) = -Q,
        W1(0) = W2(h),  W3(0) = W5(0) = 0,  W4(h) = W6(h) = 0,

    and ``P(tau) = (W1(tau) + W2(h - tau)') / 2``. The dynamics and the
    boundary map are applied to every basis vector to form the dense
    matrices, so this shares no assembly code with the solver.

    Returns one list of ``P(lag)`` per weight.
    """
    A0, A1, Ad, Bd, Cd = (np.asarray(M, dtype=float) for M in matrices)
    n, nd = A0.shape[0], Ad.shape[0]
    Ead = Cd @ scipy.linalg.expm(-Ad * h)
    ns = 2 * n * n + 4 * n * nd

    W1, W2, W3, W4, W5, W6 = _unpack(np.eye(ns), n, nd)
    E = _pack([W1 @ A0 + W2 @ A1 + (W3 + W4) @ Bd,
               -A1.T @ W1 - A0.T @ W2 - Bd.T @ (W5 + W6),
               W1 @ Cd - W3 @ Ad,
               -W2 @ Ead - W4 @ Ad,
               Ead.T @ W1 + Ad.T @ W5,
               -Cd.T @ W2 + Ad.T @ W6])
    Eh = scipy.linalg.expm(E * h)
    # Boundary map on (omega(0), omega(h)) with omega(h) = Eh omega(0). Each
    # condition is packed column-stacked; only its length must match the
    # row block it occupies.
    V1, V2, V3, V4, V5, V6 = _unpack(Eh, n, nd)
    G = _pack([W1 @ A0 + W2 @ A1 + (W3 + W4) @ Bd
               + A1.T @ V1 + A0.T @ V2 + Bd.T @ (V5 + V6),
               W1 - V2, W3, W5, V4, V6])
    rhs = np.zeros((ns, len(weights)))
    for j, Q in enumerate(weights):
        rhs[: n * n, j] = -np.asarray(Q, dtype=float).reshape(-1, order="F")
    omega0 = np.linalg.solve(G, rhs)

    states = {0.0: omega0, round(float(h), 12): Eh @ omega0}

    def blocks_at(t):
        key = round(t, 12)  # h - 0.25 h and 0.75 h may differ in the last bit
        if key not in states:
            states[key] = scipy.linalg.expm(E * t) @ omega0
        return _unpack(states[key], n, nd)

    out = [[] for _ in weights]
    for tau in lags:
        W1t = blocks_at(float(tau))[0]
        W2r = blocks_at(float(h - tau))[1]
        for j, P in enumerate(0.5 * (W1t + W2r.transpose(0, 2, 1))):
            out[j].append(P)
    return out
